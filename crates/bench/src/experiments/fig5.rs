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
use rsc_control::{ControllerParams, ReactiveController, TransitionLogPolicy};
use rsc_profile::{pareto, BranchProfile};
use rsc_trace::{spec2000, InputId};

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

/// Runs the experiment: one chunked controller pass per configuration,
/// with the self-training profile built on the first pass's chunks.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    crate::parallel::par_map(spec2000::all(), |model| {
        let pop = model.population(opts.events);
        let mut profile = BranchProfile::new();
        let reactive = table4::CONFIG_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let params = table4::config(ControllerParams::scaled(), name);
                let mut ctl = ReactiveController::builder(params)
                    .log_policy(TransitionLogPolicy::CountsOnly)
                    .build()
                    .expect("valid params");
                pop.trace(InputId::Eval, opts.events, opts.seed)
                    .for_each_chunk(|chunk| {
                        if i == 0 {
                            profile.record_chunk(chunk);
                        }
                        ctl.observe_chunk(chunk);
                    });
                let stats = ctl.stats();
                (name, stats.incorrect_frac(), stats.correct_frac())
            })
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
    fn render_includes_all_series() {
        let rows = run(&ExpOptions::small().with_events(200_000));
        let s = render(&rows);
        assert!(s.contains("self-training @99%"));
        assert!(s.contains("reactive: no eviction"));
        assert!(s.contains("vortex"));
    }
}
