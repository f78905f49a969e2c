//! Seed sensitivity: the reproduction's headline numbers as mean ± stddev
//! across independent workload seeds, demonstrating that results are not
//! artifacts of one random stream.

use crate::options::ExpOptions;
use crate::table::{pct, TextTable};
use rsc_control::{ControllerParams, TransitionLogPolicy};
use rsc_trace::{spec2000, InputId};

/// Mean and (sample) standard deviation of a series.
pub fn mean_stddev(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Per-benchmark mean ± stddev of the baseline controller's fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// (mean, stddev) of the correct-speculation fraction.
    pub correct: (f64, f64),
    /// (mean, stddev) of the misspeculation fraction.
    pub incorrect: (f64, f64),
}

/// Runs the baseline controller on each benchmark across `seeds` seeds.
pub fn run_subset(opts: &ExpOptions, names: &[&str], seeds: u64) -> Vec<Row> {
    assert!(seeds > 0, "need at least one seed");
    crate::parallel::par_map(names.to_vec(), |name| {
        let model = spec2000::benchmark(name).expect("known benchmark");
        let pop = model.population(opts.events);
        let mut corrects = Vec::new();
        let mut incorrects = Vec::new();
        for s in 0..seeds {
            let r = rsc_control::run_population_chunked(
                ControllerParams::scaled(),
                &pop,
                InputId::Eval,
                opts.events,
                opts.seed + s,
                TransitionLogPolicy::CountsOnly,
            )
            .expect("valid params");
            corrects.push(r.stats.correct_frac());
            incorrects.push(r.stats.incorrect_frac());
        }
        Row {
            name: model.name,
            correct: mean_stddev(&corrects),
            incorrect: mean_stddev(&incorrects),
        }
    })
}

/// Runs all benchmarks with 3 seeds.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    run_subset(opts, &spec2000::NAMES, 3)
}

/// Renders the seed-variance table.
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec![
        "bmark",
        "correct (mean ± sd)",
        "incorrect (mean ± sd)",
    ]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            format!("{} ± {}", pct(r.correct.0, 1), pct(r.correct.1, 2)),
            format!("{} ± {}", pct(r.incorrect.0, 3), pct(r.incorrect.1, 3)),
        ]);
    }
    let mut out = t.render();
    let max_cv = rows
        .iter()
        .filter(|r| r.correct.0 > 0.0)
        .map(|r| r.correct.1 / r.correct.0)
        .fold(0.0, f64::max);
    out.push_str(&format!(
        "\nmax coefficient of variation of the benefit across seeds: {:.2}%\n",
        max_cv * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_stddev_basics() {
        assert_eq!(mean_stddev(&[]), (0.0, 0.0));
        assert_eq!(mean_stddev(&[2.0]), (2.0, 0.0));
        let (m, s) = mean_stddev(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn results_are_stable_across_seeds() {
        let rows = run_subset(
            &ExpOptions::small().with_events(4_000_000),
            &["gzip", "eon"],
            3,
        );
        for r in &rows {
            assert!(r.correct.0 > 0.1, "{}: mean {}", r.name, r.correct.0);
            // The benefit should vary by well under 10% relative.
            assert!(
                r.correct.1 < r.correct.0 * 0.1,
                "{}: sd {} vs mean {}",
                r.name,
                r.correct.1,
                r.correct.0
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_panics() {
        run_subset(&ExpOptions::small(), &["gzip"], 0);
    }
}
