//! Table 4 — model sensitivity: average correct/incorrect speculation
//! fractions for each controller configuration.
//!
//! The paper's headline: only the **no revisit** and **no eviction**
//! configurations truly differ from the baseline; every other knob shifts
//! results slightly along the self-training curve.

use crate::options::ExpOptions;
use crate::table::{pct, TextTable};
use rsc_control::{ControlStats, ControllerParams, TransitionLogPolicy};
use rsc_trace::{spec2000, InputId, Population};

/// The named configurations of the paper's Table 4, in its row order.
pub const CONFIG_NAMES: [&str; 7] = [
    "no revisit",
    "lower eviction threshold",
    "eviction by sampling",
    "baseline",
    "sampling in monitor",
    "more frequent revisit",
    "no eviction",
];

/// Paper-reported (correct, incorrect) percentages for each configuration.
pub const PAPER_RESULTS: [(f64, f64); 7] = [
    (35.8, 0.007),
    (42.9, 0.015),
    (43.6, 0.021),
    (44.8, 0.023),
    (44.8, 0.025),
    (46.1, 0.033),
    (53.9, 1.979),
];

/// Builds the parameter set for a named configuration from a baseline.
///
/// # Panics
///
/// Panics if `name` is not one of [`CONFIG_NAMES`].
pub fn config(baseline: ControllerParams, name: &str) -> ControllerParams {
    match name {
        "no revisit" => baseline.without_revisit(),
        "lower eviction threshold" => baseline.with_lower_eviction_threshold(),
        "eviction by sampling" => baseline.with_sampled_eviction(),
        "baseline" => baseline,
        "sampling in monitor" => baseline.with_monitor_sampling(8),
        "more frequent revisit" => baseline.with_frequent_revisit(),
        "no eviction" => baseline.without_eviction(),
        other => panic!("unknown Table 4 configuration: {other}"),
    }
}

/// One configuration's measured averages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Configuration name.
    pub name: &'static str,
    /// Average correct-speculation fraction across benchmarks.
    pub correct: f64,
    /// Average misspeculation fraction across benchmarks.
    pub incorrect: f64,
    /// Paper-reported values (percent).
    pub paper: (f64, f64),
}

/// Runs all seven configurations over all benchmarks and averages the
/// per-benchmark fractions (as the paper's "ave" row does).
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    run_subset(opts, &spec2000::NAMES)
}

/// Runs the seven configurations over a subset of benchmarks, each
/// (configuration, benchmark) pair as one chunked controller pass.
///
/// The controllers run one at a time per benchmark rather than fused onto
/// one generation: each holds a per-branch table, and seven live at once
/// raise peak memory by about a third (DESIGN.md §8).
pub fn run_subset(opts: &ExpOptions, names: &[&str]) -> Vec<Row> {
    rows(opts, names, |params, pop| {
        rsc_control::run_population_chunked(
            params,
            pop,
            InputId::Eval,
            opts.events,
            opts.seed,
            TransitionLogPolicy::CountsOnly,
        )
        .expect("valid params")
        .stats
    })
}

/// Averages `run(params, population)` over the benchmarks for each
/// configuration, fanning each configuration out over the benchmarks.
fn rows(
    opts: &ExpOptions,
    names: &[&str],
    run: impl Fn(ControllerParams, &Population) -> ControlStats + Sync,
) -> Vec<Row> {
    let populations: Vec<_> = names
        .iter()
        .map(|n| {
            spec2000::benchmark(n)
                .expect("known benchmark")
                .population(opts.events)
        })
        .collect();
    CONFIG_NAMES
        .iter()
        .zip(PAPER_RESULTS)
        .map(|(&name, paper)| {
            let params = config(ControllerParams::scaled(), name);
            let fracs = crate::parallel::par_map(populations.iter().collect::<Vec<_>>(), |pop| {
                let stats = run(params, pop);
                (stats.correct_frac(), stats.incorrect_frac())
            });
            let n = fracs.len() as f64;
            let correct: f64 = fracs.iter().map(|f| f.0).sum::<f64>() / n;
            let incorrect: f64 = fracs.iter().map(|f| f.1).sum::<f64>() / n;
            Row {
                name,
                correct,
                incorrect,
                paper,
            }
        })
        .collect()
}

/// Renders the paper-vs-measured sensitivity table.
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec![
        "configuration",
        "correct(p)",
        "correct(m)",
        "incorrect(p)",
        "incorrect(m)",
    ]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            format!("{:.1}%", r.paper.0),
            pct(r.correct, 1),
            format!("{:.3}%", r.paper.1),
            pct(r.incorrect, 3),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-event composition `run_subset` replaced: one
    /// `engine::run_population` pass per (configuration, benchmark).
    fn per_event_oracle(opts: &ExpOptions, names: &[&str]) -> Vec<Row> {
        rows(opts, names, |params, pop| {
            rsc_control::engine::run_population(params, pop, InputId::Eval, opts.events, opts.seed)
                .expect("valid params")
                .stats
        })
    }

    #[test]
    fn chunked_rows_equal_the_per_event_oracle() {
        for seed in [3, 11] {
            let opts = ExpOptions::small().with_events(60_000).with_seed(seed);
            // `{:?}` prints each f64 exactly, so this is bit equality.
            assert_eq!(
                format!("{:?}", run_subset(&opts, &spec2000::NAMES)),
                format!("{:?}", per_event_oracle(&opts, &spec2000::NAMES)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn config_builds_all_names() {
        let base = ControllerParams::scaled();
        for name in CONFIG_NAMES {
            let p = config(base, name);
            assert!(p.validate().is_ok(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown Table 4 configuration")]
    fn config_rejects_unknown() {
        config(ControllerParams::scaled(), "bogus");
    }

    #[test]
    fn ordering_matches_paper_extremes() {
        // Even at reduced scale the two structural variants must bracket
        // the baseline: no-revisit below in correct, no-eviction above in
        // incorrect (by a lot). Two benchmarks keep the test fast.
        let rows = run_subset(
            &ExpOptions::small().with_events(2_000_000),
            &["bzip2", "mcf"],
        );
        let get = |n: &str| rows.iter().find(|r| r.name == n).copied().unwrap();
        let baseline = get("baseline");
        let no_revisit = get("no revisit");
        let no_evict = get("no eviction");
        assert!(
            no_revisit.correct < baseline.correct,
            "no revisit should lose benefit: {no_revisit:?} vs {baseline:?}"
        );
        assert!(
            no_evict.incorrect > baseline.incorrect * 5.0,
            "no eviction should misspeculate far more: {no_evict:?} vs {baseline:?}"
        );
    }
}
