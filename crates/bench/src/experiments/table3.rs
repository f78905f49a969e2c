//! Table 3 — model transition data: per benchmark, how many branches are
//! touched / classified biased / evicted, the fraction of dynamic branches
//! speculated, and the distance between misspeculations.

use crate::options::ExpOptions;
use crate::table::{opt_u64, pct, TextTable};
use rsc_control::{run_population_chunked, ControlStats, ControllerParams, TransitionLogPolicy};
use rsc_trace::{spec2000, InputId, PaperReference};

/// One benchmark's measured row plus the paper's reference values.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Measured statistics.
    pub stats: ControlStats,
    /// Paper-reported values.
    pub paper: PaperReference,
}

/// Runs the baseline reactive controller over all benchmarks.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    run_with(opts, ControllerParams::scaled())
}

/// Runs a specific configuration over all benchmarks.
pub fn run_with(opts: &ExpOptions, params: ControllerParams) -> Vec<Row> {
    crate::parallel::par_map(spec2000::all(), |model| {
        let pop = model.population(opts.events);
        let result = run_population_chunked(
            params,
            &pop,
            InputId::Eval,
            opts.events,
            opts.seed,
            TransitionLogPolicy::CountsOnly,
        )
        .expect("experiment parameters are valid");
        Row {
            name: model.name,
            stats: result.stats,
            paper: model.paper.clone(),
        }
    })
}

/// Aggregates rows the way the paper's "ave" row does.
pub fn average(rows: &[Row]) -> ControlStats {
    let mut total = ControlStats::default();
    for r in rows {
        total.accumulate(&r.stats);
    }
    total
}

/// Renders the paper-vs-measured comparison table.
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec![
        "bmark",
        "touch",
        "bias(p)",
        "bias(m)",
        "evict(p)",
        "evict(m)",
        "evicts(p)",
        "evicts(m)",
        "%spec(p)",
        "%spec(m)",
        "dist(p)",
        "dist(m)",
    ]);
    let mut bias_frac = 0.0;
    let mut evict_frac = 0.0;
    let mut spec = 0.0;
    let mut dist = 0.0;
    let mut dist_n = 0usize;
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            r.stats.touched.to_string(),
            r.paper.biased.to_string(),
            r.stats.entered_biased.to_string(),
            r.paper.evicted.to_string(),
            r.stats.evicted_branches.to_string(),
            r.paper.total_evicts.to_string(),
            r.stats.total_evictions.to_string(),
            format!("{:.1}%", r.paper.pct_spec),
            pct(r.stats.correct_frac(), 1),
            r.paper.misspec_dist.to_string(),
            opt_u64(r.stats.misspec_distance()),
        ]);
        bias_frac += r.stats.biased_frac();
        evict_frac += r.stats.evicted_frac();
        spec += r.stats.correct_frac();
        if let Some(d) = r.stats.misspec_distance() {
            dist += d as f64;
            dist_n += 1;
        }
    }
    let n = rows.len().max(1) as f64;
    t.row(vec![
        "ave".to_string(),
        String::new(),
        "34%".to_string(),
        pct(bias_frac / n, 0),
        "2%".to_string(),
        pct(evict_frac / n, 1),
        "76".to_string(),
        format!(
            "{:.0}",
            rows.iter().map(|r| r.stats.total_evictions).sum::<u64>() as f64 / n
        ),
        "44.8%".to_string(),
        pct(spec / n, 1),
        "65000".to_string(),
        format!(
            "{:.0}",
            if dist_n == 0 {
                0.0
            } else {
                dist / dist_n as f64
            }
        ),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_benchmarks() {
        let rows = run(&ExpOptions::small());
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.stats.events > 0, "{}", r.name);
            assert!(r.stats.touched > 0, "{}", r.name);
        }
    }

    #[test]
    fn render_contains_benchmarks_and_average() {
        let rows = run(&ExpOptions::small());
        let s = render(&rows);
        assert!(s.contains("gcc"));
        assert!(s.contains("ave"));
    }

    #[test]
    fn average_accumulates() {
        let rows = run(&ExpOptions::small());
        let avg = average(&rows);
        assert_eq!(avg.events, rows.iter().map(|r| r.stats.events).sum::<u64>());
    }
}
