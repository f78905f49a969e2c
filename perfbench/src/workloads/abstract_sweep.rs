//! `abstract-sweep`: Figure 2 then Table 4 over all 12 SPEC models.
//!
//! Untraced iterations call `experiments::fig2::run`,
//! `experiments::table4::run` and their renderers, as `repro fig2 table4`
//! does. The traced iteration is the benchmark's replica of them: it
//! recomputes the same rows from layer calls, in the experiments' order,
//! with every pass materialized first, so generation (`trace`) is timed
//! apart from the profiling (`profile`) and controller (`control`) work
//! that consumes it. Its rows are the oracle for the experiments' rows.
//!
//! The replica's trace passes are copied by hand from what the experiments
//! do today, so the per-layer counts and times describe the replica. A
//! change to how the experiments generate their traces keeps the rows, and
//! so the oracle, unchanged; it shows in `wall_s`, and in the per-layer
//! figures only once [`recompute`] is changed to match.

use super::{same, traced_par_map, Counts, PassKey};
use crate::harness::{self, Ctx};
use crate::report::Outcome;
use crate::span::{Recorder, SpanId};
use rsc_bench::experiments::{fig2, table4};
use rsc_bench::options::ExpOptions;
use rsc_control::ControllerParams;
use rsc_profile::{evaluate, initial, pareto, BranchProfile, SpeculationSet};
use rsc_trace::{spec2000, BranchRecord, InputId, Population};
use std::sync::atomic::Ordering::Relaxed;

/// Branch events per benchmark run; below the 16M default so that several
/// iterations fit in one run.
const EVENTS: u64 = 300_000;

/// Trace passes per model: Figure 2 makes 15 (one profile, four for the
/// cross-input point, two per initial-behavior length) and Table 4 one per
/// configuration.
const PASSES_PER_MODEL: u64 = 15 + table4::CONFIG_NAMES.len() as u64;

type Output = (Vec<fig2::Row>, Vec<table4::Row>);

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let opts = ExpOptions::new().with_events(EVENTS).with_seed(ctx.seed);
    let counts = Counts::default();
    // The experiments build their populations inside `run`, so set-up is
    // the same construction done once for every model: a change that moves
    // work into population construction shows here as well as in `wall_s`.
    let m = harness::measure(
        ctx,
        || {
            spec2000::all()
                .into_iter()
                .map(|m| m.population(EVENTS))
                .collect::<Vec<_>>()
        },
        |_pops| {
            let rows = (fig2::run(&opts), table4::run(&opts));
            std::hint::black_box(fig2::render(&rows.0) + &table4::render(&rows.1));
            rows
        },
        |_pops, rec, run, root| {
            counts.reset();
            recompute(rec, run, root, &opts, &counts)
        },
    );

    let mut out = Outcome::default();
    let events_per_iteration = PASSES_PER_MODEL * EVENTS * spec2000::NAMES.len() as u64;
    harness::finish(ctx, "abstract-sweep", &m, events_per_iteration, &mut out)?;

    // Oracle, outside the timed phase: every untraced iteration's rows must
    // equal the recomputation from layer calls.
    let reference = match m.traced.first() {
        Some(t) => t.output.clone(),
        None => harness::unrecorded(|rec, root| recompute(rec, 0, root, &opts, &counts)),
    };
    for (i, rows) in m
        .outputs
        .iter()
        .chain(m.traced.iter().map(|t| &t.output))
        .enumerate()
    {
        check_rows(&mut out, i, rows, &reference);
    }
    if ctx.trace {
        let t = m.median_traced();
        // The counts are those of the last traced iteration; every traced
        // iteration does the same work.
        counts.report(&mut out);
        out.check(
            counts.trace_events.load(Relaxed) == events_per_iteration,
            "trace events equal the events the experiments consume",
        );
        super::report_par(&m, t.run, ctx.threads, &mut out);
        out.set(
            "bench.render_s",
            harness::span_seconds(&m, t.run, "bench.render"),
        );
    } else {
        out.set("paper_err_pp", paper_err_pp(&m.outputs[0].1));
    }
    Ok(out)
}

/// Checks one iteration's rows against the reference, one comparison per
/// row.
fn check_rows(out: &mut Outcome, iteration: usize, rows: &Output, reference: &Output) {
    for (kind, got, want) in [
        ("fig2", rows.0.len(), reference.0.len()),
        ("table4", rows.1.len(), reference.1.len()),
    ] {
        out.check(
            got == want,
            &format!("iteration {iteration}: {kind} row count"),
        );
    }
    for (a, b) in rows.0.iter().zip(&reference.0) {
        out.check(
            same(a, b),
            &format!("iteration {iteration}: fig2 row {}", a.name),
        );
    }
    for (a, b) in rows.1.iter().zip(&reference.1) {
        out.check(
            a == b,
            &format!("iteration {iteration}: table4 row {}", a.name),
        );
    }
}

/// Mean |measured − paper| of Table 4's correct-speculation percentage.
fn paper_err_pp(rows: &[table4::Row]) -> f64 {
    rows.iter()
        .map(|r| (r.correct * 100.0 - r.paper.0).abs())
        .sum::<f64>()
        / rows.len().max(1) as f64
}

/// Materializes one trace pass under a `trace.pass` span.
fn pass(
    rec: &Recorder,
    run: u32,
    parent: SpanId,
    counts: &Counts,
    pop: &Population,
    input: InputId,
    seed: u64,
) -> Vec<BranchRecord> {
    let records: Vec<BranchRecord> = rec.scope("trace.pass", Some(parent), run, |_| {
        pop.trace(input, EVENTS, seed).collect()
    });
    counts.pass(
        PassKey {
            model: pop.name(),
            input,
            seed,
        },
        records.len() as u64,
    );
    records
}

/// Figure 2 and Table 4 rebuilt from layer calls, in the experiments'
/// order.
fn recompute(rec: &Recorder, run: u32, root: SpanId, opts: &ExpOptions, counts: &Counts) -> Output {
    let seed = opts.seed;
    let fig2_rows = traced_par_map(rec, run, root, spec2000::all(), |model, item| {
        let pop = rec.scope("trace.population", Some(item), run, |_| {
            model.population(EVENTS)
        });
        let profile = |records: Vec<BranchRecord>| {
            counts
                .profile_events
                .fetch_add(records.len() as u64, Relaxed);
            rec.scope("profile.build", Some(item), run, |_| {
                BranchProfile::from_trace(records)
            })
        };
        let evaluate = |set: &SpeculationSet, records: Vec<BranchRecord>, training: Option<u64>| {
            counts
                .profile_events
                .fetch_add(records.len() as u64, Relaxed);
            rec.scope("profile.evaluate", Some(item), run, |_| match training {
                None => evaluate::evaluate(set, records),
                Some(n) => evaluate::evaluate_after_training(set, records, n),
            })
        };

        let eval_profile = profile(pass(rec, run, item, counts, &pop, InputId::Eval, seed));
        let (curve, knee) = rec.scope("profile.pareto", Some(item), run, |_| {
            let full = pareto::curve(&eval_profile);
            let stride = (full.len() / 16).max(1);
            let curve: Vec<(f64, f64)> = full
                .iter()
                .step_by(stride)
                .map(|p| (p.incorrect, p.correct))
                .collect();
            let knee = pareto::threshold_point(&eval_profile, 0.99);
            (curve, (knee.incorrect, knee.correct))
        });

        // `offline::cross_input_experiment`, pass by pass.
        let self_profile = profile(pass(rec, run, item, counts, &pop, InputId::Eval, seed));
        let train_profile = profile(pass(
            rec,
            run,
            item,
            counts,
            &pop,
            InputId::Profile,
            seed + 1,
        ));
        let (self_set, cross_set) = rec.scope("profile.select", Some(item), run, |_| {
            (
                SpeculationSet::from_profile(&self_profile, 0.99, 32),
                SpeculationSet::from_profile(&train_profile, 0.99, 32),
            )
        });
        let records = pass(rec, run, item, counts, &pop, InputId::Eval, seed);
        std::hint::black_box(evaluate(&self_set, records, None));
        let records = pass(rec, run, item, counts, &pop, InputId::Eval, seed);
        let cross = evaluate(&cross_set, records, None);

        let initial = fig2::training_lengths(EVENTS)
            .into_iter()
            .map(|n| {
                let records = pass(rec, run, item, counts, &pop, InputId::Eval, seed);
                counts
                    .profile_events
                    .fetch_add(records.len() as u64, Relaxed);
                let set = rec.scope("profile.initial", Some(item), run, |_| {
                    let p = initial::initial_profile(records, n);
                    SpeculationSet::from_profile(&p, 0.99, n.min(100))
                });
                let records = pass(rec, run, item, counts, &pop, InputId::Eval, seed);
                let o = evaluate(&set, records, Some(n));
                (n, o.incorrect_frac(), o.correct_frac())
            })
            .collect();
        fig2::Row {
            name: model.name,
            curve,
            knee,
            cross_input: (cross.incorrect_frac(), cross.correct_frac()),
            initial,
        }
    });

    // Table 4 builds its populations up front, then fans each
    // configuration out over them.
    let pops: Vec<Population> = spec2000::NAMES
        .iter()
        .map(|n| {
            let m = spec2000::benchmark(n).expect("known benchmark");
            rec.scope("trace.population", Some(root), run, |_| {
                m.population(EVENTS)
            })
        })
        .collect();
    let pops: Vec<&Population> = pops.iter().collect();
    let table4_rows: Vec<table4::Row> = table4::CONFIG_NAMES
        .iter()
        .zip(table4::PAPER_RESULTS)
        .map(|(&name, paper)| {
            let params = table4::config(ControllerParams::scaled(), name);
            let fracs = traced_par_map(rec, run, root, pops.clone(), |pop, item| {
                let records = pass(rec, run, item, counts, pop, InputId::Eval, seed);
                let r = rec.scope("control.run", Some(item), run, |_| {
                    rsc_control::run_trace(params, records).expect("valid params")
                });
                counts.control(&r.stats);
                (r.stats.correct_frac(), r.stats.incorrect_frac())
            });
            let n = fracs.len() as f64;
            table4::Row {
                name,
                correct: fracs.iter().map(|f| f.0).sum::<f64>() / n,
                incorrect: fracs.iter().map(|f| f.1).sum::<f64>() / n,
                paper,
            }
        })
        .collect();

    rec.scope("bench.render", Some(root), run, |_| {
        std::hint::black_box(fig2::render(&fig2_rows) + &table4::render(&table4_rows));
    });
    (fig2_rows, table4_rows)
}
