//! Figure 9 — correlated behavior changes: the vortex branches that flip
//! between biased and unbiased characterization, plotted as biased
//! intervals, change in groups.

use crate::options::ExpOptions;
use crate::table::TextTable;
use rsc_control::analysis::intervals::{self, BiasedIntervals};
use rsc_control::{ControllerParams, TransitionLogPolicy};
use rsc_trace::{spec2000, InputId};

/// Flipping-branch intervals and their correlation clusters.
#[derive(Debug, Clone)]
pub struct Fig9Data {
    /// Total events in the run (the x-axis extent).
    pub total_events: u64,
    /// Intervals of every flipping branch.
    pub flipping: Vec<BiasedIntervals>,
    /// Correlated clusters (branch ids), largest first.
    pub clusters: Vec<Vec<rsc_trace::BranchId>>,
}

/// Runs Figure 9 on vortex.
pub fn run(opts: &ExpOptions) -> Fig9Data {
    run_on("vortex", opts)
}

/// Runs the analysis on any benchmark.
pub fn run_on(benchmark: &str, opts: &ExpOptions) -> Fig9Data {
    let model = spec2000::benchmark(benchmark).expect("known benchmark");
    let pop = model.population(opts.events);
    let result = rsc_control::run_population_chunked(
        ControllerParams::scaled(),
        &pop,
        InputId::Eval,
        opts.events,
        opts.seed,
        TransitionLogPolicy::Full,
    )
    .expect("valid params");
    let all = intervals::biased_intervals(&result.transitions, opts.events);
    let flipping: Vec<BiasedIntervals> = intervals::flipping_branches(&all, opts.events)
        .into_iter()
        .cloned()
        .collect();
    let refs: Vec<&BiasedIntervals> = flipping.iter().collect();
    // Tolerance: transitions within 2% of the run length count as
    // simultaneous — the same granularity the paper's plot resolves.
    let clusters = intervals::correlated_clusters(&refs, opts.events / 50);
    Fig9Data {
        total_events: opts.events,
        flipping,
        clusters,
    }
}

/// Renders one track per flipping branch (like the paper's horizontal
/// lines), thinned to at most `max_tracks`, plus cluster sizes.
pub fn render(data: &Fig9Data, max_tracks: usize) -> String {
    const COLS: usize = 64;
    let mut out = String::new();
    out.push_str(&format!(
        "flipping branches: {} (paper: 139 in vortex)\n",
        data.flipping.len()
    ));
    let stride = (data.flipping.len() / max_tracks).max(1);
    for iv in data.flipping.iter().step_by(stride) {
        let mut track = vec!['.'; COLS];
        for &(a, b) in &iv.spans {
            let c0 = (a as usize * COLS / data.total_events.max(1) as usize).min(COLS - 1);
            let c1 = (b as usize * COLS / data.total_events.max(1) as usize).clamp(c0 + 1, COLS);
            for cell in track.iter_mut().take(c1).skip(c0) {
                *cell = '━';
            }
        }
        out.push_str(&format!(
            "{:>8} |{}|\n",
            iv.branch.to_string(),
            track.iter().collect::<String>()
        ));
    }
    let mut t = TextTable::new(vec!["cluster", "branches changing together"]);
    for (i, c) in data.clusters.iter().take(12).enumerate() {
        t.row(vec![format!("#{i}"), c.len().to_string()]);
    }
    out.push('\n');
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vortex_has_many_flipping_branches_in_groups() {
        // Full default scale: the correlated group-flip branches need
        // enough executions to classify before they can flip.
        let data = run(&ExpOptions::small().with_events(16_000_000));
        assert!(
            data.flipping.len() >= 60,
            "flipping branches: {}",
            data.flipping.len()
        );
        // Correlation: at least one cluster with several branches moving
        // together.
        assert!(
            data.clusters.first().is_some_and(|c| c.len() >= 5),
            "largest cluster: {:?}",
            data.clusters.first().map(Vec::len)
        );
    }

    #[test]
    fn render_draws_tracks() {
        let data = run(&ExpOptions::small().with_events(2_000_000));
        let s = render(&data, 20);
        assert!(s.contains("flipping branches"));
        assert!(s.contains("cluster"));
    }
}
