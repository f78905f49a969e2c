//! `repro perf` — events/sec per pipeline stage, per-event vs chunked.
//!
//! Measures the simulation pipeline's throughput stage by stage: trace
//! generation, the trace→controller loop, offline profile accumulation,
//! and one MSSP machine step pass. For each stage with both code paths,
//! the per-event baseline (the `Iterator`/`observe`/`record` path, full
//! transition logging) and the chunked hot path
//! ([`rsc_trace::Trace::fill`] into a reusable buffer feeding
//! `observe_chunk`/`record_chunk`, counts-only logging) are timed in the
//! same run so the speedup column compares like with like.

use crate::options::ExpOptions;
use crate::table::TextTable;
use rsc_conformance::json::Json;
use rsc_control::{ControllerParams, ReactiveController, TransitionLogPolicy};
use rsc_mssp::{machine, MachineConfig};
use rsc_profile::BranchProfile;
use rsc_trace::{spec2000, BranchId, BranchRecord, InputId, Population};
use std::hint::black_box;
use std::time::Instant;

/// The benchmark model driving the measurement (mid-sized branch
/// population, both stationary and phased behaviors).
const BENCHMARK: &str = "gcc";

/// Chunk size for the chunked paths (matches the engine default).
const CHUNK: usize = 4096;

/// Chunk size for the sharded scaling sweep. The engine fans a chunk out
/// to threads only when it holds at least
/// [`MIN_EVENTS_PER_THREAD`](rsc_control::shard::MIN_EVENTS_PER_THREAD)
/// (64Ki) events per thread; 1M events reaches every thread the host
/// allows and keeps each spawn and join far below the per-chunk
/// controller work.
const SHARD_CHUNK: usize = 1 << 20;

/// One timed code path: how many events it processed and the best
/// wall-clock time over the measurement repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Events processed per repetition.
    pub events: u64,
    /// Best-of-reps wall-clock seconds.
    pub secs: f64,
}

impl Throughput {
    /// Events per second.
    pub fn events_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.events as f64 / self.secs
        } else {
            f64::INFINITY
        }
    }
}

/// One pipeline stage: the per-event baseline and, where a chunked path
/// exists, its chunked counterpart.
#[derive(Debug, Clone, Copy)]
pub struct StageRow {
    /// Stage name (`trace_gen`, `trace_to_controller`, …).
    pub stage: &'static str,
    /// The per-event reference path.
    pub per_event: Throughput,
    /// The chunked hot path (`None` for stages without one).
    pub chunked: Option<Throughput>,
}

impl StageRow {
    /// Chunked speedup over the per-event path, if both were measured.
    pub fn speedup(&self) -> Option<f64> {
        self.chunked
            .map(|c| c.events_per_sec() / self.per_event.events_per_sec())
    }
}

/// Times `f` (which returns the number of events it processed) and keeps
/// the best of `reps` repetitions after one untimed warmup.
fn time<F: FnMut() -> u64>(mut f: F, reps: u32) -> Throughput {
    black_box(f());
    let mut events = 0;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        events = black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    Throughput { events, secs: best }
}

/// Times two code paths with interleaved repetitions (a, b, a, b, …) so
/// both sample the same machine conditions; background interference then
/// perturbs the two best-of times together instead of skewing their ratio.
fn time_pair<A, B>(mut a: A, mut b: B, reps: u32) -> (Throughput, Throughput)
where
    A: FnMut() -> u64,
    B: FnMut() -> u64,
{
    black_box(a());
    black_box(b());
    let (mut events_a, mut events_b) = (0, 0);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t = Instant::now();
        events_a = black_box(a());
        best_a = best_a.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        events_b = black_box(b());
        best_b = best_b.min(t.elapsed().as_secs_f64());
    }
    (
        Throughput {
            events: events_a,
            secs: best_a,
        },
        Throughput {
            events: events_b,
            secs: best_b,
        },
    )
}

fn record_buf() -> Vec<BranchRecord> {
    vec![
        BranchRecord {
            branch: BranchId::new(0),
            taken: false,
            instr: 0
        };
        CHUNK
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
        chunked: Some(chunked),
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
        chunked: Some(chunked),
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
        chunked: Some(chunked),
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
        chunked: Some(chunked),
    }
}

/// Runs every stage measurement. `opts.events` sets the per-repetition
/// event count; the MSSP stage runs a smaller slice (see its row's
/// `events` field).
pub fn run(opts: &ExpOptions) -> Vec<StageRow> {
    let pop = spec2000::benchmark(BENCHMARK)
        .expect("benchmark exists")
        .population(opts.events);
    let reps = 4;
    vec![
        trace_gen(&pop, opts.events, opts.seed, reps),
        trace_to_controller(&pop, opts.events, opts.seed, reps),
        offline_profile(&pop, opts.events, opts.seed, reps),
        mssp_step(&pop, opts.events, opts.seed, reps),
    ]
}

/// One shard count's controller-phase throughput in the `--shards`
/// scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ShardRow {
    /// Worker shard count the engine was built with.
    pub shards: usize,
    /// Best-of-reps controller-phase throughput at this count.
    pub throughput: Throughput,
    /// Speedup relative to the sweep's first row (shard count 1).
    pub speedup_vs_1: f64,
}

/// The shard counts measured for `--shards N`: powers of two up to `N`,
/// plus `N` itself when it is not a power of two.
pub fn shard_counts(max: usize) -> Vec<usize> {
    let mut counts = vec![1usize];
    while counts.last().copied().unwrap_or(1) * 2 <= max {
        counts.push(counts.last().unwrap() * 2);
    }
    if counts.last().copied() != Some(max) && max >= 1 {
        counts.push(max);
    }
    counts
}

/// Measures the controller phase alone (trace pre-materialized, so no
/// generation cost in the timed region) once per shard count. The trace
/// is fed in `SHARD_CHUNK`-event chunks through
/// [`rsc_control::ShardedController::observe_chunk`]; speedups are
/// relative to the first row, which callers should make shard count 1.
///
/// Every chunk is scattered to the shards on the calling thread, then
/// the shards' sequential `observe_chunk` passes run on up to
/// `min(shards, max_threads())` scoped threads. A shard count of 1 skips the
/// scatter — plain sequential `observe_chunk` — so the first row is an
/// honest baseline. Where the threads share one core the scatter is pure
/// overhead; each further core runs another shard range in parallel.
pub fn run_shards(opts: &ExpOptions, counts: &[usize]) -> Vec<ShardRow> {
    let pop = spec2000::benchmark(BENCHMARK)
        .expect("benchmark exists")
        .population(opts.events);
    let trace: Vec<BranchRecord> = pop.trace(InputId::Eval, opts.events, opts.seed).collect();
    let params = ControllerParams::scaled();
    let reps = 3;
    let mut rows: Vec<ShardRow> = Vec::new();
    for &n in counts {
        let throughput = time(
            || {
                let mut ctl = ReactiveController::builder(params)
                    .log_policy(TransitionLogPolicy::CountsOnly)
                    .shards(n)
                    .build_sharded()
                    .expect("valid params");
                for chunk in trace.chunks(SHARD_CHUNK) {
                    ctl.observe_chunk(chunk);
                }
                black_box(ctl.stats().correct);
                trace.len() as u64
            },
            reps,
        );
        let base = rows
            .first()
            .map(|r| r.throughput.events_per_sec())
            .unwrap_or_else(|| throughput.events_per_sec());
        rows.push(ShardRow {
            shards: n,
            throughput,
            speedup_vs_1: throughput.events_per_sec() / base,
        });
    }
    rows
}

/// Renders the shard-scaling table.
pub fn render_shards(rows: &[ShardRow]) -> String {
    let mut t = TextTable::new(vec!["shards", "events", "ev/s", "speedup vs 1"]);
    for r in rows {
        t.row(vec![
            r.shards.to_string(),
            r.throughput.events.to_string(),
            format!("{:.3e}", r.throughput.events_per_sec()),
            format!("{:.2}x", r.speedup_vs_1),
        ]);
    }
    t.render()
}

/// Runs the `--shards N` workload once more with metrics attached and
/// returns the merged aggregate registry (per-shard labeled families
/// included) — the `--metrics-out` payload for a sharded perf run.
pub fn instrumented_sharded_registry(
    opts: &ExpOptions,
    shards: usize,
) -> rsc_control::MetricsRegistry {
    let pop = spec2000::benchmark(BENCHMARK)
        .expect("benchmark exists")
        .population(opts.events);
    let mut ctl = ReactiveController::builder(ControllerParams::scaled())
        .log_policy(TransitionLogPolicy::CountsOnly)
        .metrics()
        .shards(shards)
        .build_sharded()
        .expect("valid params");
    let mut buf = vec![
        BranchRecord {
            branch: BranchId::new(0),
            taken: false,
            instr: 0
        };
        SHARD_CHUNK
    ];
    let mut trace = pop.trace(InputId::Eval, opts.events, opts.seed);
    loop {
        let n = trace.fill(&mut buf);
        if n == 0 {
            break;
        }
        ctl.observe_chunk(&buf[..n]);
    }
    ctl.metrics().expect("metrics were enabled")
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

/// Renders the throughput table.
pub fn render(rows: &[StageRow]) -> String {
    let mut t = TextTable::new(vec![
        "stage",
        "events",
        "per-event ev/s",
        "chunked ev/s",
        "speedup",
    ]);
    for r in rows {
        t.row(vec![
            r.stage.into(),
            r.per_event.events.to_string(),
            format!("{:.3e}", r.per_event.events_per_sec()),
            r.chunked
                .map(|c| format!("{:.3e}", c.events_per_sec()))
                .unwrap_or_default(),
            r.speedup().map(|s| format!("{s:.2}x")).unwrap_or_default(),
        ]);
    }
    t.render()
}

/// The rows as JSON (the `BENCH_pipeline.json` payload). `shard_rows` is
/// empty when the run had no `--shards` sweep; the `shard_scaling` array
/// is emitted either way so consumers can probe one stable schema.
pub fn to_json(rows: &[StageRow], shard_rows: &[ShardRow], opts: &ExpOptions) -> Json {
    let shard = |r: &ShardRow| {
        Json::obj([
            ("shards", Json::Int(r.shards as u64)),
            ("events", Json::Int(r.throughput.events)),
            ("events_per_sec", Json::Num(r.throughput.events_per_sec())),
            ("speedup_vs_1", Json::Num(r.speedup_vs_1)),
        ])
    };
    let stage = |r: &StageRow| {
        // Every stage has a chunked path now; a missing measurement is a
        // wiring bug and must not be papered over with `null` in the
        // exported benchmark file.
        let c = r.chunked.unwrap_or_else(|| {
            panic!(
                "stage {} is missing its chunked measurement; refusing to export null",
                r.stage
            )
        });
        Json::obj([
            ("stage", Json::str(r.stage)),
            ("events", Json::Int(r.per_event.events)),
            (
                "per_event_events_per_sec",
                Json::Num(r.per_event.events_per_sec()),
            ),
            ("chunked_events_per_sec", Json::Num(c.events_per_sec())),
            (
                "speedup",
                Json::Num(r.speedup().expect("chunked implies speedup")),
            ),
        ])
    };
    Json::obj([
        ("benchmark", Json::str(BENCHMARK)),
        ("seed", Json::Int(opts.seed)),
        ("chunk_events", Json::Int(CHUNK as u64)),
        ("threads", Json::Int(crate::parallel::max_threads() as u64)),
        (
            "shard_scaling",
            Json::Arr(shard_rows.iter().map(shard).collect()),
        ),
        ("stages", Json::Arr(rows.iter().map(stage).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_report_positive_throughput() {
        let rows = run(&ExpOptions::small().with_events(60_000));
        assert_eq!(rows.len(), 4);
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
                "mssp_step"
            ]
        );
        // Every stage, MSSP included, reports a chunked speedup.
        for r in &rows {
            let s = r
                .speedup()
                .unwrap_or_else(|| panic!("{} has no speedup", r.stage));
            assert!(s > 0.0, "{}: speedup {s}", r.stage);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = vec![
            StageRow {
                stage: "trace_gen",
                per_event: Throughput {
                    events: 1000,
                    secs: 0.5,
                },
                chunked: Some(Throughput {
                    events: 1000,
                    secs: 0.25,
                }),
            },
            StageRow {
                stage: "mssp_step",
                per_event: Throughput {
                    events: 100,
                    secs: 0.5,
                },
                chunked: Some(Throughput {
                    events: 100,
                    secs: 0.1,
                }),
            },
        ];
        let shard_rows = vec![
            ShardRow {
                shards: 1,
                throughput: Throughput {
                    events: 1000,
                    secs: 0.4,
                },
                speedup_vs_1: 1.0,
            },
            ShardRow {
                shards: 4,
                throughput: Throughput {
                    events: 1000,
                    secs: 0.1,
                },
                speedup_vs_1: 4.0,
            },
        ];
        let arr = |json: &Json, key: &str| json.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let num = |json: &Json, key: &str| json.get(key).and_then(Json::as_f64).unwrap();
        for shards in [&[][..], &shard_rows[..]] {
            let text = to_json(&rows, shards, &ExpOptions::small()).to_string();
            assert!(!text.contains("null"), "no stage may export null");
            let json = Json::parse(&text).unwrap();
            let stages = arr(&json, "stages");
            let speedups: Vec<f64> = stages.iter().map(|s| num(s, "speedup")).collect();
            assert_eq!(speedups, vec![2.0, 5.0]);
            assert_eq!(num(&stages[1], "chunked_events_per_sec"), 1000.0);
            assert_eq!(arr(&json, "shard_scaling").len(), shards.len());
            assert!(json.get("threads").and_then(Json::as_u64).unwrap() >= 1);
        }
        let json = to_json(&rows, &shard_rows, &ExpOptions::small());
        let scaling = arr(&json, "shard_scaling");
        assert_eq!(scaling[1].get("shards").and_then(Json::as_u64), Some(4));
        assert_eq!(num(&scaling[1], "speedup_vs_1"), 4.0);
    }

    #[test]
    #[should_panic(expected = "missing its chunked measurement")]
    fn export_fails_loudly_on_missing_chunked_measurement() {
        let rows = vec![StageRow {
            stage: "mssp_step",
            per_event: Throughput {
                events: 100,
                secs: 0.5,
            },
            chunked: None,
        }];
        let _ = to_json(&rows, &[], &ExpOptions::small());
    }

    #[test]
    fn shard_counts_are_powers_of_two_plus_max() {
        assert_eq!(shard_counts(1), vec![1]);
        assert_eq!(shard_counts(4), vec![1, 2, 4]);
        assert_eq!(shard_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(shard_counts(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn shard_sweep_reports_consistent_rows() {
        let opts = ExpOptions::small().with_events(40_000);
        let rows = run_shards(&opts, &shard_counts(3));
        assert_eq!(
            rows.iter().map(|r| r.shards).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        for r in &rows {
            assert_eq!(r.throughput.events, 40_000);
            assert!(r.throughput.events_per_sec() > 0.0);
            assert!(r.speedup_vs_1 > 0.0);
        }
        assert_eq!(rows[0].speedup_vs_1, 1.0);
    }

    #[test]
    fn sharded_registry_matches_sequential_totals() {
        let opts = ExpOptions::small().with_events(30_000);
        let sharded = instrumented_sharded_registry(&opts, 4);
        let sequential = instrumented_registry(&opts);
        for name in ["rsc_events_total", "rsc_spec_incorrect_total"] {
            assert_eq!(
                sharded.counter_value(name),
                sequential.counter_value(name),
                "{name}"
            );
        }
        assert!(sharded
            .render_prometheus()
            .contains("rsc_shard_events_total"));
    }

    #[test]
    fn throughput_math() {
        let t = Throughput {
            events: 1_000,
            secs: 0.5,
        };
        assert_eq!(t.events_per_sec(), 2_000.0);
        let z = Throughput {
            events: 1_000,
            secs: 0.0,
        };
        assert!(z.events_per_sec().is_infinite());
    }
}
