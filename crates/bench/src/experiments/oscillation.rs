//! The oscillation cap (Section 3.1, mitigation 4): a small number of
//! branches would otherwise oscillate in and out of the biased state
//! hundreds of times; refusing to optimize them again after a threshold
//! cuts requested re-optimizations by about two-thirds on average with
//! little effect on results.

use crate::options::ExpOptions;
use crate::table::{pct, TextTable};
use rsc_control::ControllerParams;
use rsc_trace::spec2000;

/// Re-optimization load with and without the oscillation cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Re-optimization requests with the cap (baseline).
    pub capped_reopts: u64,
    /// Re-optimization requests with the cap removed.
    pub uncapped_reopts: u64,
    /// Branches disabled by the cap.
    pub disabled: usize,
    /// Correct-speculation fraction with the cap.
    pub capped_correct: f64,
    /// Correct-speculation fraction without the cap.
    pub uncapped_correct: f64,
}

/// Runs both configurations over all benchmarks.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    run_subset(opts, &spec2000::NAMES)
}

/// Runs both configurations over selected benchmarks, side by side on one
/// generation of each benchmark's stream.
pub fn run_subset(opts: &ExpOptions, names: &[&str]) -> Vec<Row> {
    let capped = ControllerParams::scaled();
    let uncapped = ControllerParams {
        oscillation_limit: None,
        ..capped
    };
    crate::parallel::par_map(names.to_vec(), |name| {
        let model = spec2000::benchmark(name).expect("known benchmark");
        let pop = model.population(opts.events);
        let [with_cap, without_cap] =
            super::run_side_by_side([capped, uncapped], &pop, opts, |_| {});
        Row {
            name: model.name,
            capped_reopts: with_cap.reopt_requests,
            uncapped_reopts: without_cap.reopt_requests,
            disabled: with_cap.disabled_branches,
            capped_correct: with_cap.correct_frac(),
            uncapped_correct: without_cap.correct_frac(),
        }
    })
}

/// Average reduction in re-optimization requests due to the cap.
pub fn mean_reduction(rows: &[Row]) -> f64 {
    let mut total = 0.0;
    let mut n = 0.0;
    for r in rows {
        if r.uncapped_reopts > 0 {
            total += 1.0 - r.capped_reopts as f64 / r.uncapped_reopts as f64;
            n += 1.0;
        }
    }
    if n == 0.0 {
        0.0
    } else {
        total / n
    }
}

/// Renders the comparison.
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec![
        "bmark",
        "reopts (cap)",
        "reopts (no cap)",
        "disabled",
        "correct (cap)",
        "correct (no cap)",
    ]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            r.capped_reopts.to_string(),
            r.uncapped_reopts.to_string(),
            r.disabled.to_string(),
            pct(r.capped_correct, 1),
            pct(r.uncapped_correct, 1),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nmean re-optimization reduction from the cap: {:.0}% \
         (paper: ~two-thirds for oscillating branches, little result impact)\n",
        mean_reduction(rows) * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_reduces_reoptimizations_without_hurting_benefit() {
        let rows = run_subset(
            &ExpOptions::small().with_events(8_000_000),
            &["bzip2", "mcf"],
        );
        let reduction = mean_reduction(&rows);
        assert!(reduction > 0.0, "cap should reduce re-optimizations");
        let benefit_loss: f64 = rows
            .iter()
            .map(|r| (r.uncapped_correct - r.capped_correct).max(0.0))
            .sum::<f64>()
            / rows.len() as f64;
        assert!(
            benefit_loss < 0.02,
            "cap should barely affect benefit, lost {benefit_loss:.4}"
        );
    }

    #[test]
    fn some_branches_get_disabled() {
        let rows = run_subset(
            &ExpOptions::small().with_events(8_000_000),
            &["bzip2", "mcf"],
        );
        let disabled: usize = rows.iter().map(|r| r.disabled).sum();
        assert!(disabled > 0, "oscillators should trip the cap somewhere");
    }
}
