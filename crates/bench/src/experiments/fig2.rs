//! Figure 2 — the correct/incorrect speculation trade-off:
//!
//! * the self-training Pareto curve (one line per benchmark),
//! * the 99%-threshold knee (●),
//! * the cross-input profile point (△),
//! * initial-behavior points for 5 training lengths (+).

use crate::options::ExpOptions;
use crate::table::{pct, TextTable};
use rsc_profile::{evaluate, initial, pareto, BranchProfile, SpecOutcome, SpeculationSet};
use rsc_trace::{spec2000, InputId};

/// All Figure 2 marks for one benchmark.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Sampled points of the self-training Pareto curve
    /// `(incorrect, correct)`, thinned for display.
    pub curve: Vec<(f64, f64)>,
    /// Self-training 99%-threshold point (the ● marker).
    pub knee: (f64, f64),
    /// Cross-input profile-guided point (the △ marker).
    pub cross_input: (f64, f64),
    /// Initial-behavior points, one per training length (the + markers):
    /// `(training length, incorrect, correct)`.
    pub initial: Vec<(u64, f64, f64)>,
}

/// Training lengths used for the + markers, scaled from the paper's
/// 1k–1M executions proportionally to the run-length scaling.
pub fn training_lengths(events: u64) -> Vec<u64> {
    // The paper's lengths assume branches that execute many millions of
    // times; at this scale hot branches execute thousands to a couple of
    // million times, so the per-branch training lengths are scaled by ~100x,
    // clamped to sane bounds.
    initial::PAPER_TRAINING_LENGTHS
        .iter()
        .map(|&n| (n / 100).clamp(50, events / 8))
        .collect()
}

/// Selection threshold of the knee and the cross-input set (the paper's
/// 99%, as in [`initial::InitialBehavior`]).
const THRESHOLD: f64 = 0.99;

/// Minimum profiled executions for a branch to enter the cross-input set.
const CROSS_MIN_EXECS: u64 = 32;

/// Runs the Figure 2 experiment for all benchmarks.
///
/// Two chunked generations per benchmark: the profile input builds the
/// cross-input set, then one pass over the evaluation input feeds the
/// evaluation profile (curve and knee), the cross-input evaluator and one
/// fused initial-behavior consumer per training length.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    crate::parallel::par_map(spec2000::all(), |model| {
        let pop = model.population(opts.events);
        // The paper's Table 1 pairing: select on the profile input.
        let cross_set = {
            let trace = pop.trace(InputId::Profile, opts.events, opts.seed + 1);
            let profile = BranchProfile::from_trace_chunked(trace);
            SpeculationSet::from_profile(&profile, THRESHOLD, CROSS_MIN_EXECS)
        };

        let lengths = training_lengths(opts.events);
        let mut eval_profile = BranchProfile::new();
        let mut cross = SpecOutcome::default();
        let mut initial: Vec<_> = lengths
            .iter()
            .map(|&n| initial::InitialBehavior::new(n))
            .collect();
        pop.trace(InputId::Eval, opts.events, opts.seed)
            .for_each_chunk(|chunk| {
                eval_profile.record_chunk(chunk);
                evaluate::evaluate_chunk(&cross_set, chunk, &mut cross);
                for consumer in &mut initial {
                    consumer.record_chunk(chunk);
                }
            });

        let initial_pts = lengths
            .iter()
            .zip(&initial)
            .map(|(&n, consumer)| {
                let out = consumer.outcome();
                (n, out.incorrect_frac(), out.correct_frac())
            })
            .collect();
        row(model.name, &eval_profile, &cross, initial_pts)
    })
}

/// Assembles one benchmark's marks from its evaluation profile and
/// open-loop outcomes.
fn row(
    name: &'static str,
    eval_profile: &BranchProfile,
    cross: &SpecOutcome,
    initial: Vec<(u64, f64, f64)>,
) -> Row {
    let full_curve = pareto::curve(eval_profile);
    let stride = (full_curve.len() / 16).max(1);
    let curve = full_curve
        .iter()
        .step_by(stride)
        .map(|p| (p.incorrect, p.correct))
        .collect();
    let knee = pareto::threshold_point(eval_profile, THRESHOLD);
    Row {
        name,
        curve,
        knee: (knee.incorrect, knee.correct),
        cross_input: (cross.incorrect_frac(), cross.correct_frac()),
        initial,
    }
}

/// Renders the Figure 2 marks (curve summarized by its endpoint).
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec!["bmark", "mark", "incorrect", "correct"]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            "self-train knee (99%) ●".to_string(),
            pct(r.knee.0, 3),
            pct(r.knee.1, 1),
        ]);
        t.row(vec![
            String::new(),
            "cross-input profile △".to_string(),
            pct(r.cross_input.0, 3),
            pct(r.cross_input.1, 1),
        ]);
        for (n, inc, cor) in &r.initial {
            t.row(vec![
                String::new(),
                format!("initial behavior + ({n} execs)"),
                pct(*inc, 3),
                pct(*cor, 1),
            ]);
        }
    }
    t.render()
}

/// Aggregate degradation factors across benchmarks (the paper's summary:
/// cross-input loses ~3× benefit and gains ~10× misspeculation).
pub fn cross_input_summary(rows: &[Row]) -> (f64, f64) {
    let mut benefit_loss = 0.0;
    let mut misspec_gain = 0.0;
    let mut n = 0.0;
    for r in rows {
        if r.cross_input.1 > 0.0 && r.knee.0 > 0.0 {
            benefit_loss += r.knee.1 / r.cross_input.1;
            misspec_gain += r.cross_input.0 / r.knee.0.max(1e-9);
            n += 1.0;
        }
    }
    if n == 0.0 {
        (0.0, 0.0)
    } else {
        (benefit_loss / n, misspec_gain / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_profile::offline;

    /// The per-event composition `run` replaced: a full evaluation
    /// profile, `offline::cross_input_experiment`, and per training length
    /// an `initial_profile` pass plus an `evaluate_after_training` pass.
    fn per_event_oracle(opts: &ExpOptions) -> Vec<Row> {
        spec2000::all()
            .into_iter()
            .map(|model| {
                let pop = model.population(opts.events);
                let trace = || pop.trace(InputId::Eval, opts.events, opts.seed);
                let eval_profile = BranchProfile::from_trace(trace());
                let cross = offline::cross_input_experiment(
                    &pop,
                    opts.events,
                    opts.seed,
                    THRESHOLD,
                    CROSS_MIN_EXECS,
                );
                let initial = training_lengths(opts.events)
                    .into_iter()
                    .map(|n| {
                        let p = initial::initial_profile(trace(), n);
                        let set = SpeculationSet::from_profile(&p, THRESHOLD, n.min(100));
                        let out = evaluate::evaluate_after_training(&set, trace(), n);
                        (n, out.incorrect_frac(), out.correct_frac())
                    })
                    .collect();
                row(model.name, &eval_profile, &cross.cross_trained, initial)
            })
            .collect()
    }

    #[test]
    fn fused_pass_equals_the_per_event_oracle() {
        for seed in [3, 11] {
            let opts = ExpOptions::small().with_events(60_000).with_seed(seed);
            // `{:?}` prints each f64 exactly, so this is bit equality.
            assert_eq!(
                format!("{:?}", run(&opts)),
                format!("{:?}", per_event_oracle(&opts)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn training_lengths_scale_and_clamp() {
        let l = training_lengths(16_000_000);
        assert_eq!(l.len(), 5);
        for w in l.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(l[0] >= 50);
        assert!(*l.last().unwrap() <= 2_000_000);
    }

    #[test]
    fn knee_dominates_cross_input() {
        let rows = run(&ExpOptions::small().with_events(400_000));
        // On average the cross-input point must be strictly worse.
        let (benefit_loss, misspec_gain) = cross_input_summary(&rows);
        assert!(benefit_loss > 1.2, "benefit loss factor {benefit_loss}");
        assert!(misspec_gain > 1.5, "misspec gain factor {misspec_gain}");
    }

    #[test]
    fn curve_points_are_monotone() {
        let rows = run(&ExpOptions::small().with_events(200_000));
        for r in &rows {
            for w in r.curve.windows(2) {
                assert!(w[1].0 >= w[0].0, "{}", r.name);
                assert!(w[1].1 >= w[0].1, "{}", r.name);
            }
        }
    }

    #[test]
    fn render_mentions_all_marks() {
        let rows = run(&ExpOptions::small().with_events(200_000));
        let s = render(&rows);
        assert!(s.contains("●"));
        assert!(s.contains("△"));
        assert!(s.contains("initial behavior"));
    }
}
