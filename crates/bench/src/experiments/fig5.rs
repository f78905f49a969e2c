//! Figure 5 — reactive control vs self-training, per benchmark.
//!
//! For each benchmark we print the self-training 99%-threshold point (the
//! reference curve's knee) and the reactive model's achieved
//! (incorrect, correct) point for the baseline plus each sensitivity
//! variant. The paper's observation: all configurations except *no
//! eviction* and *no revisit* collocate near the self-training point.

use crate::experiments::table4;
use crate::options::ExpOptions;
use crate::table::{pct, TextTable};
use rsc_profile::{pareto, BranchProfile};
use rsc_trace::spec2000;

/// Reactive-vs-self-training points for one benchmark.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Self-training point at the 99% threshold (fractions of dynamic
    /// branches: incorrect, correct).
    pub self_training: (f64, f64),
    /// `(config name, incorrect, correct)` for each configuration.
    pub reactive: Vec<(&'static str, f64, f64)>,
}

/// Runs the experiment: per benchmark, one chunked generation feeds the
/// seven Table 4 controllers ([`table4::run_configs`]) and the
/// self-training profile.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    crate::parallel::par_map(spec2000::all(), |model| {
        let pop = model.population(opts.events);
        let mut profile = BranchProfile::new();
        let stats = table4::run_configs(&pop, opts, |chunk| profile.record_chunk(chunk));
        let reactive = table4::CONFIG_NAMES
            .iter()
            .zip(stats)
            .map(|(&name, s)| (name, s.incorrect_frac(), s.correct_frac()))
            .collect();
        let st = pareto::threshold_point(&profile, 0.99);
        Row {
            name: model.name,
            self_training: (st.incorrect, st.correct),
            reactive,
        }
    })
}

/// Renders the per-benchmark comparison.
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec!["bmark", "series", "incorrect", "correct"]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            "self-training @99%".to_string(),
            pct(r.self_training.0, 3),
            pct(r.self_training.1, 1),
        ]);
        for (name, inc, cor) in &r.reactive {
            t.row(vec![
                String::new(),
                format!("reactive: {name}"),
                pct(*inc, 3),
                pct(*cor, 1),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_control::ControllerParams;
    use rsc_trace::InputId;

    fn one_benchmark(events: u64) -> Row {
        let model = spec2000::benchmark("gzip").unwrap();
        let pop = model.population(events);
        let profile = BranchProfile::from_trace(pop.trace(InputId::Eval, events, 42));
        let st = pareto::threshold_point(&profile, 0.99);
        let params = ControllerParams::scaled();
        let r =
            rsc_control::engine::run_population(params, &pop, InputId::Eval, events, 42).unwrap();
        Row {
            name: "gzip",
            self_training: (st.incorrect, st.correct),
            reactive: vec![("baseline", r.stats.incorrect_frac(), r.stats.correct_frac())],
        }
    }

    #[test]
    fn reactive_baseline_is_competitive_with_self_training() {
        let row = one_benchmark(2_000_000);
        let (_, inc, cor) = row.reactive[0];
        // Within striking distance of self-training benefit...
        assert!(
            cor > row.self_training.1 * 0.7,
            "reactive {cor} vs self-training {}",
            row.self_training.1
        );
        // ...at a very low misspeculation rate.
        assert!(inc < 0.01, "incorrect fraction {inc}");
    }

    #[test]
    fn per_model_fractions_average_to_table4() {
        let opts = ExpOptions::small().with_events(100_000).with_seed(5);
        let rows = run(&opts);
        let n = rows.len() as f64;
        let averaged: Vec<table4::Row> = table4::CONFIG_NAMES
            .iter()
            .zip(table4::PAPER_RESULTS)
            .enumerate()
            .map(|(i, (&name, paper))| table4::Row {
                name,
                correct: rows.iter().map(|r| r.reactive[i].2).sum::<f64>() / n,
                incorrect: rows.iter().map(|r| r.reactive[i].1).sum::<f64>() / n,
                paper,
            })
            .collect();
        // `{:?}` prints each f64 exactly, so this is bit equality.
        assert_eq!(format!("{averaged:?}"), format!("{:?}", table4::run(&opts)));
    }

    #[test]
    fn render_includes_all_series() {
        let rows = run(&ExpOptions::small().with_events(200_000));
        let s = render(&rows);
        assert!(s.contains("self-training @99%"));
        assert!(s.contains("reactive: no eviction"));
        assert!(s.contains("vortex"));
    }
}
