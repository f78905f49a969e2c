//! `repro perf` — events/sec per pipeline stage, per-event vs chunked.
//!
//! Measures the simulation pipeline's throughput stage by stage: trace
//! generation, the trace→controller loop, offline profile accumulation,
//! one superscalar core pass over the program (`mssp_step`) and one MSSP
//! machine run, master and trailing core (`mssp_master`). For each stage
//! with both code paths, the per-event baseline (the
//! `Iterator`/`observe`/`record` path, full transition logging) and the
//! chunked hot path
//! ([`rsc_trace::Trace::fill`] into a reusable buffer feeding
//! `observe_chunk`/`record_chunk`, counts-only logging) are timed in the
//! same run so the speedup column compares like with like. Each path
//! reports the median rate of its repetitions with the p25–p75 spread.

use crate::options::ExpOptions;
use crate::table::TextTable;
use rsc_conformance::json::Json;
use rsc_control::engine::DEFAULT_CHUNK_EVENTS;
use rsc_control::{ControllerParams, ReactiveController, TransitionLogPolicy};
use rsc_mssp::{machine, MachineConfig};
use rsc_profile::BranchProfile;
use rsc_trace::{spec2000, BranchId, BranchRecord, InputId, Population};
use std::hint::black_box;
use std::time::Instant;

/// The benchmark model driving the measurement (mid-sized branch
/// population, both stationary and phased behaviors).
const BENCHMARK: &str = "gcc";

/// Timed repetitions of each code path, after one warm-up run each.
/// An odd count puts the median and both quartiles on measured runs.
const REPS: u32 = 5;

/// One timed code path: how many events it processed and the wall-clock
/// time of every measurement repetition.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Events processed per repetition.
    pub events: u64,
    /// Wall-clock seconds of each repetition, in run order.
    pub secs: Vec<f64>,
}

impl Throughput {
    /// The median events per second over the repetitions.
    pub fn events_per_sec(&self) -> f64 {
        self.events_per_sec_at(0.5)
    }

    /// The `q` quantile (0 to 1) of the repetitions' events per second,
    /// interpolated linearly between the two nearest runs.
    pub fn events_per_sec_at(&self, q: f64) -> f64 {
        let mut rates: Vec<f64> = self
            .secs
            .iter()
            .map(|&secs| {
                if secs > 0.0 {
                    self.events as f64 / secs
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        let pos = q * (rates.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if lo == hi {
            rates[lo]
        } else {
            rates[lo] + (rates[hi] - rates[lo]) * (pos - lo as f64)
        }
    }
}

/// One pipeline stage: the per-event baseline and its chunked
/// counterpart.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage name (`trace_gen`, `trace_to_controller`, …).
    pub stage: &'static str,
    /// The per-event reference path.
    pub per_event: Throughput,
    /// The chunked hot path.
    pub chunked: Throughput,
}

impl StageRow {
    /// Chunked speedup over the per-event path: the ratio of the median
    /// rates.
    pub fn speedup(&self) -> f64 {
        self.chunked.events_per_sec() / self.per_event.events_per_sec()
    }
}

/// Times two code paths with interleaved repetitions (a, b, a, b, …) so
/// both sample the same machine conditions; background interference then
/// perturbs the two paths together instead of skewing their ratio. Every
/// repetition is kept.
fn time_pair<A, B>(mut a: A, mut b: B, reps: u32) -> (Throughput, Throughput)
where
    A: FnMut() -> u64,
    B: FnMut() -> u64,
{
    black_box(a());
    black_box(b());
    let timed = |f: &mut dyn FnMut() -> u64, into: &mut Throughput| {
        let t = Instant::now();
        into.events = black_box(f());
        into.secs.push(t.elapsed().as_secs_f64());
    };
    let (mut ta, mut tb) = (
        Throughput {
            events: 0,
            secs: Vec::new(),
        },
        Throughput {
            events: 0,
            secs: Vec::new(),
        },
    );
    for _ in 0..reps {
        timed(&mut a, &mut ta);
        timed(&mut b, &mut tb);
    }
    (ta, tb)
}

fn record_buf() -> Vec<BranchRecord> {
    vec![
        BranchRecord {
            branch: BranchId::new(0),
            taken: false,
            instr: 0
        };
        DEFAULT_CHUNK_EVENTS
    ]
}

fn trace_gen(pop: &Population, events: u64, seed: u64, reps: u32) -> StageRow {
    let mut buf = record_buf();
    let (per_event, chunked) = time_pair(
        || {
            let mut sink = 0u64;
            for r in pop.trace(InputId::Eval, events, seed) {
                sink = sink.wrapping_add(r.instr) ^ u64::from(r.taken);
            }
            black_box(sink);
            events
        },
        || {
            let mut sink = 0u64;
            let mut trace = pop.trace(InputId::Eval, events, seed);
            loop {
                let n = trace.fill(&mut buf);
                if n == 0 {
                    break;
                }
                for r in &buf[..n] {
                    sink = sink.wrapping_add(r.instr) ^ u64::from(r.taken);
                }
            }
            black_box(sink);
            events
        },
        reps,
    );
    StageRow {
        stage: "trace_gen",
        per_event,
        chunked,
    }
}

fn trace_to_controller(pop: &Population, events: u64, seed: u64, reps: u32) -> StageRow {
    let params = ControllerParams::scaled();
    let mut buf = record_buf();
    let (per_event, chunked) = time_pair(
        || {
            let mut ctl = ReactiveController::builder(params)
                .build()
                .expect("valid params");
            for r in pop.trace(InputId::Eval, events, seed) {
                ctl.observe(&r);
            }
            black_box(ctl.stats().correct);
            events
        },
        || {
            let mut ctl = ReactiveController::builder(params)
                .log_policy(TransitionLogPolicy::CountsOnly)
                .build()
                .expect("valid params");
            let mut trace = pop.trace(InputId::Eval, events, seed);
            loop {
                let n = trace.fill(&mut buf);
                if n == 0 {
                    break;
                }
                ctl.observe_chunk(&buf[..n]);
            }
            black_box(ctl.stats().correct);
            events
        },
        reps,
    );
    StageRow {
        stage: "trace_to_controller",
        per_event,
        chunked,
    }
}

fn offline_profile(pop: &Population, events: u64, seed: u64, reps: u32) -> StageRow {
    let (per_event, chunked) = time_pair(
        || {
            let p = BranchProfile::from_trace(pop.trace(InputId::Profile, events, seed));
            black_box(p.events());
            events
        },
        || {
            let p = BranchProfile::from_trace_chunked(pop.trace(InputId::Profile, events, seed));
            black_box(p.events());
            events
        },
        reps,
    );
    StageRow {
        stage: "offline_profile",
        per_event,
        chunked,
    }
}

fn mssp_step(pop: &Population, events: u64, seed: u64, reps: u32) -> StageRow {
    // The cycle-level machine is ~20× more work per event than the
    // controller; a smaller slice keeps `repro perf` interactive while the
    // events/sec figure stays representative.
    let events = (events / 8).max(50_000);
    let machine_cfg = MachineConfig::table5();
    // The chunked path must be bit-identical, not just fast; assert it on
    // the measured workload before timing.
    assert_eq!(
        machine::run_baseline(pop, InputId::Eval, events, seed, &machine_cfg),
        machine::run_baseline_chunked(pop, InputId::Eval, events, seed, &machine_cfg),
        "chunked mssp path diverged from the per-event oracle"
    );
    let (per_event, chunked) = time_pair(
        || {
            let cycles = machine::run_baseline(pop, InputId::Eval, events, seed, &machine_cfg);
            black_box(cycles);
            events
        },
        || {
            let cycles =
                machine::run_baseline_chunked(pop, InputId::Eval, events, seed, &machine_cfg);
            black_box(cycles);
            events
        },
        reps,
    );
    StageRow {
        stage: "mssp_step",
        per_event,
        chunked,
    }
}

/// The MSSP master: the per-event `run_mssp_only` oracle against the
/// chunked one-master machine, whose master decides each task, then
/// steps it as one block. Both sides also run the trailing core, as the
/// experiments do.
fn mssp_master(pop: &Population, events: u64, seed: u64, reps: u32) -> StageRow {
    // Same slice as `mssp_step`: the machine is the costly stage.
    let events = (events / 8).max(50_000);
    let params = machine::MsspParams::new();
    let one_master =
        || machine::run_mssp_many(pop, InputId::Eval, events, seed, false, &[params])[0];
    // The chunked path must be bit-identical, not just fast; assert it on
    // the measured workload before timing.
    assert_eq!(
        machine::run_mssp_only(pop, InputId::Eval, events, seed, &params),
        one_master(),
        "chunked mssp master diverged from the per-event oracle"
    );
    let (per_event, chunked) = time_pair(
        || {
            let r = machine::run_mssp_only(pop, InputId::Eval, events, seed, &params);
            black_box(r.mssp_cycles);
            events
        },
        || {
            black_box(one_master().mssp_cycles);
            events
        },
        reps,
    );
    StageRow {
        stage: "mssp_master",
        per_event,
        chunked,
    }
}

/// Runs every stage measurement. `opts.events` sets the per-repetition
/// event count; the MSSP stages run a smaller slice (see their rows'
/// `events` field).
pub fn run(opts: &ExpOptions) -> Vec<StageRow> {
    let pop = spec2000::benchmark(BENCHMARK)
        .expect("benchmark exists")
        .population(opts.events);
    let reps = REPS;
    vec![
        trace_gen(&pop, opts.events, opts.seed, reps),
        trace_to_controller(&pop, opts.events, opts.seed, reps),
        offline_profile(&pop, opts.events, opts.seed, reps),
        mssp_step(&pop, opts.events, opts.seed, reps),
        mssp_master(&pop, opts.events, opts.seed, reps),
    ]
}

/// Runs the perf workload once more with the metrics registry attached
/// and returns it — the payload behind `repro perf --metrics-out`. Uses
/// the same benchmark, event count, and seed as the timed rows so the
/// exported counters describe the measured run.
pub fn instrumented_registry(opts: &ExpOptions) -> rsc_control::MetricsRegistry {
    let pop = spec2000::benchmark(BENCHMARK)
        .expect("benchmark exists")
        .population(opts.events);
    let builder = ReactiveController::builder(ControllerParams::scaled())
        .log_policy(TransitionLogPolicy::CountsOnly)
        .metrics();
    let (_, ctl) = rsc_control::run_population_chunked_with(
        builder,
        &pop,
        InputId::Eval,
        opts.events,
        opts.seed,
    )
    .expect("valid params");
    ctl.metrics().expect("metrics were enabled")
}

/// Renders the throughput table: each path's median rate and its
/// p25–p75 spread.
pub fn render(rows: &[StageRow]) -> String {
    let mut t = TextTable::new(vec![
        "stage",
        "events",
        "per-event ev/s",
        "p25-p75",
        "chunked ev/s",
        "p25-p75",
        "speedup",
    ]);
    let spread = |t: &Throughput| {
        format!(
            "{:.3e}-{:.3e}",
            t.events_per_sec_at(0.25),
            t.events_per_sec_at(0.75)
        )
    };
    for r in rows {
        t.row(vec![
            r.stage.into(),
            r.per_event.events.to_string(),
            format!("{:.3e}", r.per_event.events_per_sec()),
            spread(&r.per_event),
            format!("{:.3e}", r.chunked.events_per_sec()),
            spread(&r.chunked),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    t.render()
}

/// The rows as JSON (the `BENCH_pipeline.json` payload). Rates are
/// medians over the repetitions, with their 25th and 75th percentiles.
pub fn to_json(rows: &[StageRow], opts: &ExpOptions) -> Json {
    let stage = |r: &StageRow| {
        Json::obj([
            ("stage", Json::str(r.stage)),
            ("events", Json::Int(r.per_event.events)),
            (
                "per_event_events_per_sec",
                Json::Num(r.per_event.events_per_sec()),
            ),
            (
                "per_event_p25_events_per_sec",
                Json::Num(r.per_event.events_per_sec_at(0.25)),
            ),
            (
                "per_event_p75_events_per_sec",
                Json::Num(r.per_event.events_per_sec_at(0.75)),
            ),
            (
                "chunked_events_per_sec",
                Json::Num(r.chunked.events_per_sec()),
            ),
            (
                "chunked_p25_events_per_sec",
                Json::Num(r.chunked.events_per_sec_at(0.25)),
            ),
            (
                "chunked_p75_events_per_sec",
                Json::Num(r.chunked.events_per_sec_at(0.75)),
            ),
            ("speedup", Json::Num(r.speedup())),
        ])
    };
    Json::obj([
        ("benchmark", Json::str(BENCHMARK)),
        ("seed", Json::Int(opts.seed)),
        ("chunk_events", Json::Int(DEFAULT_CHUNK_EVENTS as u64)),
        ("threads", Json::Int(crate::parallel::max_threads() as u64)),
        ("reps", Json::Int(u64::from(REPS))),
        ("stages", Json::Arr(rows.iter().map(stage).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_report_positive_throughput() {
        let rows = run(&ExpOptions::small().with_events(60_000));
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.per_event.events_per_sec() > 0.0, "{}", r.stage);
            assert!(r.per_event.events > 0, "{}", r.stage);
        }
        let names: Vec<&str> = rows.iter().map(|r| r.stage).collect();
        assert_eq!(
            names,
            vec![
                "trace_gen",
                "trace_to_controller",
                "offline_profile",
                "mssp_step",
                "mssp_master"
            ]
        );
        // Every stage, MSSP included, reports a chunked speedup.
        for r in &rows {
            assert!(r.speedup() > 0.0, "{}: speedup {}", r.stage, r.speedup());
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = vec![
            StageRow {
                stage: "trace_gen",
                per_event: Throughput {
                    events: 1000,
                    secs: vec![0.5, 0.4, 1.0],
                },
                chunked: Throughput {
                    events: 1000,
                    secs: vec![0.25, 0.2, 0.5],
                },
            },
            StageRow {
                stage: "mssp_step",
                per_event: Throughput {
                    events: 100,
                    secs: vec![0.5],
                },
                chunked: Throughput {
                    events: 100,
                    secs: vec![0.1],
                },
            },
        ];
        let num = |json: &Json, key: &str| json.get(key).and_then(Json::as_f64).unwrap();
        let text = to_json(&rows, &ExpOptions::small()).to_string();
        assert!(!text.contains("null"), "no stage may export null");
        let json = Json::parse(&text).unwrap();
        let stages = json.get("stages").and_then(Json::as_arr).unwrap();
        let speedups: Vec<f64> = stages.iter().map(|s| num(s, "speedup")).collect();
        assert_eq!(speedups, vec![2.0, 5.0]);
        assert_eq!(num(&stages[1], "chunked_events_per_sec"), 1000.0);
        // Rates 1000, 2000, 2500: the median and both quartiles.
        assert_eq!(num(&stages[0], "per_event_events_per_sec"), 2000.0);
        assert_eq!(num(&stages[0], "per_event_p25_events_per_sec"), 1500.0);
        assert_eq!(num(&stages[0], "per_event_p75_events_per_sec"), 2250.0);
        assert_eq!(num(&stages[0], "chunked_p75_events_per_sec"), 4500.0);
        assert_eq!(
            json.get("chunk_events").and_then(Json::as_u64),
            Some(DEFAULT_CHUNK_EVENTS as u64)
        );
        assert!(json.get("threads").and_then(Json::as_u64).unwrap() >= 1);
        assert!(json.get("shard_scaling").is_none());
    }

    /// DESIGN.md §8 quotes the committed `BENCH_pipeline.json`: its
    /// stage table must list the file's stages in order, each with the
    /// file's median rates and p25–p75 spreads (`{:.1e}`) and speedup
    /// (`{:.2}x`). The first stale cell is named, so the table and the
    /// file cannot drift apart.
    #[test]
    fn design_table_quotes_the_committed_bench_file() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read = |name: &str| std::fs::read_to_string(format!("{root}/{name}")).unwrap();
        let design = read("DESIGN.md");
        let bench = Json::parse(&read("BENCH_pipeline.json")).unwrap();
        let section = design
            .split("\n## 8.")
            .nth(1)
            .and_then(|s| s.split("\n## 9.").next())
            .expect("DESIGN.md has a §8");
        let header =
            "| stage | per-event ev/s | per-event p25–p75 | chunked ev/s | chunked p25–p75 | speedup |";
        let table = &section[section.find(header).expect("§8 has the stage table")..];
        let rows: Vec<Vec<&str>> = table
            .lines()
            .skip(2)
            .map(str::trim)
            .take_while(|line| line.starts_with('|'))
            .map(|line| line.trim_matches('|').split('|').map(str::trim).collect())
            .collect();
        let stages = bench.get("stages").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = stages
            .iter()
            .map(|stage| stage.get("stage").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            rows.iter().map(|row| row[0]).collect::<Vec<_>>(),
            names,
            "DESIGN.md §8 lists other stages than BENCH_pipeline.json"
        );
        for (row, stage) in rows.iter().zip(stages) {
            let num = |key: &str| stage.get(key).and_then(Json::as_f64).unwrap();
            let spread = |path: &str| {
                format!(
                    "{:.1e}–{:.1e}",
                    num(&format!("{path}_p25_events_per_sec")),
                    num(&format!("{path}_p75_events_per_sec"))
                )
            };
            let expected = [
                (
                    "per-event ev/s",
                    format!("{:.1e}", num("per_event_events_per_sec")),
                ),
                ("per-event p25–p75", spread("per_event")),
                (
                    "chunked ev/s",
                    format!("{:.1e}", num("chunked_events_per_sec")),
                ),
                ("chunked p25–p75", spread("chunked")),
                ("speedup", format!("{:.2}x", num("speedup"))),
            ];
            for (&cell, (column, want)) in row[1..].iter().zip(&expected) {
                assert_eq!(
                    cell, want,
                    "DESIGN.md §8: stage {}, column {column} is stale against BENCH_pipeline.json",
                    row[0]
                );
            }
        }
    }

    #[test]
    fn throughput_math() {
        let t = Throughput {
            events: 1_000,
            secs: vec![0.5],
        };
        assert_eq!(t.events_per_sec(), 2_000.0);
        // Every repetition is kept: the median, not the best, is reported.
        let t = Throughput {
            events: 1_000,
            secs: vec![0.25, 1.0, 0.5, 2.0, 0.5],
        };
        assert_eq!(t.events_per_sec(), 2_000.0);
        assert_eq!(t.events_per_sec_at(0.25), 1_000.0);
        assert_eq!(t.events_per_sec_at(0.75), 2_000.0);
        assert_eq!(t.events_per_sec_at(1.0), 4_000.0);
        let z = Throughput {
            events: 1_000,
            secs: vec![0.0],
        };
        assert!(z.events_per_sec().is_infinite());
    }
}
