//! Extension: confidence-bound monitoring vs the paper's fixed window.
//!
//! A fixed monitor window spends the same budget on a perfectly biased
//! branch as on a borderline one. For the same *worst-case* budget,
//! Wilson-bound classification selects clearly biased branches as soon as
//! the evidence clears the threshold (~1.3k perfect samples at 99.5% /
//! z=2.58) and rejects clearly unbiased ones within tens of executions —
//! recovering most of the benefit a long window forfeits, with no extra
//! misspeculation.

use crate::options::ExpOptions;
use crate::table::{pct, TextTable};
use rsc_control::{ControlStats, ControllerParams};
use rsc_trace::spec2000;

/// Fixed-window vs confidence-monitor results for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// The paper's fixed window.
    pub fixed: ControlStats,
    /// Confidence-bound monitor.
    pub confidence: ControlStats,
}

/// Worst-case monitoring budget both monitors get (executions).
pub const BUDGET: u64 = 4_000;

/// The fixed-window comparator: the scaled preset with the whole budget as
/// its window.
pub fn fixed_params() -> ControllerParams {
    ControllerParams::scaled().with_monitor_period(BUDGET)
}

/// The confidence-monitor configuration: 99% intervals, at least 32
/// samples, forced decision at the same budget.
pub fn confidence_params() -> ControllerParams {
    fixed_params().with_confidence_monitor(2.58, 32, BUDGET)
}

/// Runs both monitors over the selected benchmarks, side by side on one
/// generation of each benchmark's stream.
pub fn run_subset(opts: &ExpOptions, names: &[&str]) -> Vec<Row> {
    crate::parallel::par_map(names.to_vec(), |name| {
        let model = spec2000::benchmark(name).expect("known benchmark");
        let pop = model.population(opts.events);
        let [fixed, confidence] =
            super::run_side_by_side([fixed_params(), confidence_params()], &pop, opts, |_| {});
        Row {
            name: model.name,
            fixed,
            confidence,
        }
    })
}

/// Runs all benchmarks.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    run_subset(opts, &spec2000::NAMES)
}

/// Renders the comparison.
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec![
        "bmark",
        "fixed corr/incorr",
        "confidence corr/incorr",
        "benefit gain",
    ]);
    let mut gain = 0.0;
    for r in rows {
        let g = if r.fixed.correct_frac() > 0.0 {
            r.confidence.correct_frac() / r.fixed.correct_frac()
        } else {
            1.0
        };
        gain += g;
        t.row(vec![
            r.name.to_string(),
            format!(
                "{} / {}",
                pct(r.fixed.correct_frac(), 1),
                pct(r.fixed.incorrect_frac(), 3)
            ),
            format!(
                "{} / {}",
                pct(r.confidence.correct_frac(), 1),
                pct(r.confidence.incorrect_frac(), 3)
            ),
            format!("{:.2}x", g),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nmean benefit gain from confidence-bound monitoring: {:.2}x\n",
        gain / rows.len().max(1) as f64
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_monitor_gains_benefit_without_misspec_blowup() {
        let rows = run_subset(
            &ExpOptions::small().with_events(4_000_000),
            &["gcc", "vortex"],
        );
        for r in &rows {
            assert!(
                r.confidence.correct_frac() > r.fixed.correct_frac(),
                "{}: confidence {:.3} should beat fixed {:.3}",
                r.name,
                r.confidence.correct_frac(),
                r.fixed.correct_frac()
            );
            assert!(
                r.confidence.incorrect_frac() < r.fixed.incorrect_frac() * 3.0 + 1e-4,
                "{}: confidence incorrect {:.4}% vs fixed {:.4}%",
                r.name,
                r.confidence.incorrect_frac() * 100.0,
                r.fixed.incorrect_frac() * 100.0
            );
        }
    }

    #[test]
    fn params_are_valid() {
        assert!(confidence_params().validate().is_ok());
    }
}
