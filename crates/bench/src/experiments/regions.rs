//! The paper's Section 4.3 observation on re-optimization batching:
//! "about half of the time it is necessary to re-optimize a code region …
//! there is more than one change to make", because behavior changes of
//! different static branches are correlated (Figure 9).
//!
//! We model code regions as groups of static branches (a distiller region
//! covers a contiguous range of branch ids, mirroring spatial locality in
//! the binary) and measure, for every region re-optimization, how many
//! classification changes it batches: changes to the same region that
//! occur within one re-optimization latency window are served by a single
//! code regeneration.

use crate::options::ExpOptions;
use crate::table::{pct, TextTable};
use rsc_control::{ControllerParams, TransitionKind, TransitionLogPolicy};
use rsc_trace::{spec2000, InputId};

/// Batching statistics for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Region re-optimizations performed.
    pub reoptimizations: u64,
    /// Classification changes served by them.
    pub changes: u64,
    /// Fraction of re-optimizations that batched more than one change.
    pub multi_change_frac: f64,
}

/// Branches per region (a distiller region covers a neighborhood of the
/// static code).
pub const REGION_SIZE: u32 = 16;

/// Window (in dynamic instructions) within which changes to the same
/// region share one regeneration — the optimization latency.
fn batching_window(params: &ControllerParams) -> u64 {
    params.optimization_latency.max(1)
}

/// Runs the analysis over selected benchmarks, one model per worker.
pub fn run_subset(opts: &ExpOptions, names: &[&str]) -> Vec<Row> {
    let params = ControllerParams::scaled();
    let window = batching_window(&params);
    crate::parallel::par_map(names.to_vec(), |name| {
        let model = spec2000::benchmark(name).expect("known benchmark");
        let pop = model.population(opts.events);
        let result = rsc_control::run_population_chunked(
            params,
            &pop,
            InputId::Eval,
            opts.events,
            opts.seed,
            TransitionLogPolicy::Full,
        )
        .expect("valid params");

        // Changes that require code regeneration, per region, in time
        // order (the transition log is already chronological).
        let mut last_regen_at: std::collections::HashMap<u32, u64> =
            std::collections::HashMap::new();
        let mut reoptimizations = 0u64;
        let mut changes = 0u64;
        let mut batched: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut multi = 0u64;
        for t in &result.transitions {
            let needs_regen = matches!(
                t.kind,
                TransitionKind::EnterBiased | TransitionKind::ExitBiased
            );
            if !needs_regen {
                continue;
            }
            changes += 1;
            let region = t.branch.as_u32() / REGION_SIZE;
            match last_regen_at.get(&region) {
                Some(&at) if t.instr < at + window => {
                    // Served by the in-flight regeneration.
                    let b = batched.entry(region).or_insert(1);
                    *b += 1;
                    if *b == 2 {
                        multi += 1;
                    }
                }
                _ => {
                    reoptimizations += 1;
                    last_regen_at.insert(region, t.instr);
                    batched.insert(region, 1);
                }
            }
        }
        Row {
            name: model.name,
            reoptimizations,
            changes,
            multi_change_frac: if reoptimizations == 0 {
                0.0
            } else {
                multi as f64 / reoptimizations as f64
            },
        }
    })
}

/// Runs all benchmarks.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    run_subset(opts, &spec2000::NAMES)
}

/// Renders the batching table.
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec![
        "bmark",
        "classification changes",
        "region reoptimizations",
        "multi-change fraction",
    ]);
    let mut frac = 0.0;
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            r.changes.to_string(),
            r.reoptimizations.to_string(),
            pct(r.multi_change_frac, 1),
        ]);
        frac += r.multi_change_frac;
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nmean multi-change fraction: {} (paper: ~half of region \
         re-optimizations have more than one change to make)\n",
        pct(frac / rows.len().max(1) as f64, 1)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn some_reoptimizations_batch_multiple_changes() {
        // vortex: the Figure 9 benchmark with strongly correlated changes.
        let rows = run_subset(&ExpOptions::small().with_events(8_000_000), &["vortex"]);
        let r = &rows[0];
        assert!(r.changes > 0);
        assert!(r.reoptimizations > 0);
        assert!(r.reoptimizations <= r.changes);
        assert!(
            r.multi_change_frac > 0.05,
            "vortex should batch correlated changes: {:.3}",
            r.multi_change_frac
        );
    }

    #[test]
    fn batching_never_exceeds_changes() {
        let rows = run_subset(
            &ExpOptions::small().with_events(2_000_000),
            &["gzip", "eon"],
        );
        for r in &rows {
            assert!(r.reoptimizations <= r.changes, "{r:?}");
            assert!((0.0..=1.0).contains(&r.multi_change_frac));
        }
    }
}
