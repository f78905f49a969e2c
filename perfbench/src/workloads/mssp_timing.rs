//! `mssp-timing`: Figure 7 then Figure 8 over all 12 SPEC models.
//!
//! Untraced iterations call `experiments::fig7::run`,
//! `experiments::fig8::run` and their renderers. The traced iteration
//! recomputes the rows with the same `rsc_mssp::machine` calls under
//! `mssp.baseline` and `mssp.policy` spans. Those calls generate their
//! instruction streams and run their embedded controller internally, so
//! on this workload `mssp` time includes that generation and control;
//! `trace.busy_s` is population construction only.

use super::{traced_par_map, Counts, PassKey};
use crate::harness::{self, Ctx};
use crate::report::Outcome;
use crate::span::{Recorder, SpanId};
use rsc_bench::experiments::{fig7, fig8};
use rsc_bench::options::ExpOptions;
use rsc_control::ControllerParams;
use rsc_mssp::{machine, MsspParams};
use rsc_trace::{spec2000, InputId};
use std::sync::atomic::Ordering::Relaxed;

/// Abstract-model event budget; the experiments derive their MSSP budget
/// from it (`fig7::mssp_events`: 500k). At the 250k floor the mean
/// open-loop gap reads 0 at seed 42, which would leave `paper_err_pp`
/// checking nothing.
const EVENTS: u64 = 4_000_000;

/// Machine runs per model: Figure 7 runs a baseline and four policies,
/// Figure 8 a baseline and three latencies.
const RUNS_PER_MODEL: u64 = 1 + 4 + 1 + fig8::LATENCIES.len() as u64;

/// The paper's mean open-loop gap in Figure 7, in percent.
const PAPER_OPEN_LOOP_GAP_PCT: f64 = 18.0;

type Output = (Vec<fig7::Row>, Vec<fig8::Row>);

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let opts = ExpOptions::new().with_events(EVENTS).with_seed(ctx.seed);
    let events = fig7::mssp_events(&opts);
    let counts = Counts::default();
    // As in `abstract-sweep`, set-up is the population construction the
    // experiments repeat inside `run`.
    let m = harness::measure(
        ctx,
        || {
            spec2000::all()
                .into_iter()
                .map(|m| m.population(events))
                .collect::<Vec<_>>()
        },
        |_pops| {
            let rows = (fig7::run(&opts), fig8::run(&opts));
            std::hint::black_box(fig7::render(&rows.0) + &fig8::render(&rows.1));
            rows
        },
        |_pops, rec, run, root| {
            counts.reset();
            recompute(rec, run, root, &opts, &spec2000::NAMES, &counts)
        },
    );

    let mut out = Outcome::default();
    let models = spec2000::NAMES.len() as u64;
    harness::finish(
        ctx,
        "mssp-timing",
        &m,
        RUNS_PER_MODEL * events * models,
        &mut out,
    )?;

    // Oracles, outside the timed phase. The chunked baseline must match the
    // per-event one, and every iteration's rows must match a recomputation
    // from `rsc_mssp` calls: all models in a traced run, one sampled model
    // otherwise.
    let sampled = spec2000::NAMES[(ctx.seed % models) as usize];
    let pop = spec2000::benchmark(sampled)
        .expect("known benchmark")
        .population(events);
    let machine = MsspParams::new().machine;
    out.check(
        machine::run_baseline_chunked(&pop, InputId::Eval, events, ctx.seed, &machine)
            == machine::run_baseline(&pop, InputId::Eval, events, ctx.seed, &machine),
        &format!("{sampled}: chunked baseline cycles equal per-event cycles"),
    );
    let reference = match m.traced.first() {
        Some(t) => t.output.clone(),
        None => harness::unrecorded(|rec, root| {
            recompute(rec, 0, root, &opts, &[sampled], &Counts::default())
        }),
    };
    for (i, rows) in m
        .outputs
        .iter()
        .chain(m.traced.iter().map(|t| &t.output))
        .enumerate()
    {
        for r in &reference.0 {
            let got = rows.0.iter().find(|x| x.name == r.name);
            out.check(
                got == Some(r),
                &format!("iteration {i}: fig7 row {}", r.name),
            );
        }
        for r in &reference.1 {
            let got = rows.1.iter().find(|x| x.name == r.name);
            out.check(
                got == Some(r),
                &format!("iteration {i}: fig8 row {}", r.name),
            );
        }
    }

    if ctx.trace {
        let t = m.median_traced();
        counts.report(&mut out);
        let mssp_events = counts.trace_events.load(Relaxed);
        let baseline_s = harness::span_seconds(&m, t.run, "mssp.baseline");
        let policy_s = harness::span_seconds(&m, t.run, "mssp.policy");
        out.set("mssp.baseline_s", baseline_s);
        out.set("mssp.policy_s", policy_s);
        out.set("mssp.events", mssp_events as f64);
        out.set(
            "mssp.host_ns_per_event",
            (baseline_s + policy_s) * 1e9 / mssp_events.max(1) as f64,
        );
        super::report_par(&m, t.run, ctx.threads, &mut out);
        out.set(
            "bench.render_s",
            harness::span_seconds(&m, t.run, "bench.render"),
        );
    } else {
        let (gap_short, _) = fig7::gaps(&m.outputs[0].0);
        out.set(
            "paper_err_pp",
            (gap_short * 100.0 - PAPER_OPEN_LOOP_GAP_PCT).abs(),
        );
    }
    Ok(out)
}

/// Figures 7 and 8 for `names`, rebuilt from `rsc_mssp::machine` calls in
/// the experiments' order.
fn recompute(
    rec: &Recorder,
    run: u32,
    root: SpanId,
    opts: &ExpOptions,
    names: &[&'static str],
    counts: &Counts,
) -> Output {
    let events = fig7::mssp_events(opts);
    let seed = opts.seed;
    let base = ControllerParams::scaled();
    let long = base.monitor_period * 4;
    let fig7_configs = [
        base,
        base.without_eviction(),
        base.with_monitor_period(long),
        base.without_eviction().with_monitor_period(long),
    ];
    let fig8_configs = fig8::LATENCIES.map(|lat| ControllerParams::scaled().with_latency(lat));

    // One model: population, baseline, then one MSSP run per policy;
    // returns baseline-normalized performance per policy.
    let model_perf = |name: &'static str, item: SpanId, policies: &[ControllerParams]| {
        let model = spec2000::benchmark(name).expect("known benchmark");
        let pop = rec.scope("trace.population", Some(item), run, |_| {
            model.population(events)
        });
        let key = PassKey {
            model: model.name,
            input: InputId::Eval,
            seed,
        };
        let machine = MsspParams::new().machine;
        let baseline = rec.scope("mssp.baseline", Some(item), run, |_| {
            machine::run_baseline(&pop, InputId::Eval, events, seed, &machine)
        });
        counts.pass(key, events);
        counts.sim_cycles.fetch_add(baseline, Relaxed);
        let perf: Vec<f64> = policies
            .iter()
            .map(|&ctl| {
                let params = MsspParams::new().with_controller(ctl);
                let r = rec.scope("mssp.policy", Some(item), run, |_| {
                    machine::run_mssp_only(&pop, InputId::Eval, events, seed, &params)
                });
                counts.pass(key, events);
                counts.sim_cycles.fetch_add(r.mssp_cycles, Relaxed);
                counts.task_misspecs.fetch_add(r.task_misspecs, Relaxed);
                baseline as f64 / r.mssp_cycles as f64
            })
            .collect();
        (model.name, perf)
    };

    let fig7_rows = traced_par_map(rec, run, root, names.to_vec(), |name, item| {
        let (name, p) = model_perf(name, item, &fig7_configs);
        fig7::Row {
            name,
            closed: p[0],
            open: p[1],
            closed_long: p[2],
            open_long: p[3],
        }
    });
    let fig8_rows = traced_par_map(rec, run, root, names.to_vec(), |name, item| {
        let (name, p) = model_perf(name, item, &fig8_configs);
        fig8::Row {
            name,
            perf: [p[0], p[1], p[2]],
        }
    });
    rec.scope("bench.render", Some(root), run, |_| {
        std::hint::black_box(fig7::render(&fig7_rows) + &fig8::render(&fig8_rows));
    });
    (fig7_rows, fig8_rows)
}
