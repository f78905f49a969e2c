//! The chunked hot path is an *optimization*, not a semantic change: for
//! any benchmark and seed, driving the pipeline through
//! `Trace::fill`/`observe_chunk`/`record_chunk` must produce bit-identical
//! results to the per-event `Iterator`/`observe`/`record` path.

use proptest::prelude::*;
use rsc_control::{
    engine, ChunkSummary, ControllerParams, EvictionMode, NullSink, Perceptron, Policy,
    ReactiveController, TransitionLogPolicy, BUILTIN_POLICY_IDS,
};
use rsc_profile::BranchProfile;
use rsc_trace::rng::SplitMix64;
use rsc_trace::{spec2000, BranchId, BranchRecord, InputId, Scenario};
use std::sync::Arc;

const BENCHMARKS: [&str; 4] = ["gzip", "gcc", "crafty", "vortex"];
const SEEDS: [u64; 2] = [7, 1234];
const EVENTS: u64 = 60_000;

fn empty_buf(n: usize) -> Vec<BranchRecord> {
    vec![
        BranchRecord {
            branch: BranchId::new(0),
            taken: false,
            instr: 0
        };
        n
    ]
}

#[test]
fn chunked_controller_run_matches_per_event_run() {
    for name in BENCHMARKS {
        let pop = spec2000::benchmark(name).unwrap().population(EVENTS);
        for seed in SEEDS {
            let per_event = engine::run_population(
                ControllerParams::scaled(),
                &pop,
                InputId::Eval,
                EVENTS,
                seed,
            )
            .unwrap();
            let chunked = engine::run_population_chunked(
                ControllerParams::scaled(),
                &pop,
                InputId::Eval,
                EVENTS,
                seed,
                TransitionLogPolicy::Full,
            )
            .unwrap();
            assert_eq!(per_event.stats, chunked.stats, "{name} seed {seed}: stats");
            assert_eq!(
                per_event.transitions, chunked.transitions,
                "{name} seed {seed}: transition log"
            );
        }
    }
}

#[test]
fn chunk_size_does_not_change_controller_results() {
    let pop = spec2000::benchmark("crafty").unwrap().population(EVENTS);
    let reference = engine::run_population(
        ControllerParams::scaled(),
        &pop,
        InputId::Eval,
        EVENTS,
        SEEDS[0],
    )
    .unwrap();
    for chunk in [1usize, 13, 256, 4096, 100_000] {
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        let mut trace = pop.trace(InputId::Eval, EVENTS, SEEDS[0]);
        let mut buf = empty_buf(chunk);
        let mut total = ChunkSummary::default();
        loop {
            let n = trace.fill(&mut buf);
            if n == 0 {
                break;
            }
            let s = ctl.observe_chunk(&buf[..n]);
            total.events += s.events;
            total.correct += s.correct;
            total.incorrect += s.incorrect;
        }
        assert_eq!(reference.stats, ctl.stats(), "chunk {chunk}: stats");
        assert_eq!(
            &reference.transitions[..],
            ctl.transitions(),
            "chunk {chunk}: log"
        );
        assert_eq!(total.events, EVENTS, "chunk {chunk}: summary events");
        assert_eq!(
            total.correct,
            ctl.stats().correct,
            "chunk {chunk}: summary correct"
        );
        assert_eq!(
            total.incorrect,
            ctl.stats().incorrect,
            "chunk {chunk}: summary incorrect"
        );
    }
}

#[test]
fn counts_only_policy_preserves_stats_and_transition_counts() {
    let pop = spec2000::benchmark("gcc").unwrap().population(EVENTS);
    for seed in SEEDS {
        let full = engine::run_population_chunked(
            ControllerParams::scaled(),
            &pop,
            InputId::Eval,
            EVENTS,
            seed,
            TransitionLogPolicy::Full,
        )
        .unwrap();
        let counts_only = engine::run_population_chunked(
            ControllerParams::scaled(),
            &pop,
            InputId::Eval,
            EVENTS,
            seed,
            TransitionLogPolicy::CountsOnly,
        )
        .unwrap();
        assert_eq!(full.stats, counts_only.stats, "seed {seed}");
        assert!(counts_only.transitions.is_empty());
    }
}

#[test]
fn chunked_profile_matches_per_event_profile() {
    for name in BENCHMARKS {
        let pop = spec2000::benchmark(name).unwrap().population(EVENTS);
        for seed in SEEDS {
            let per_event = BranchProfile::from_trace(pop.trace(InputId::Profile, EVENTS, seed));
            let chunked =
                BranchProfile::from_trace_chunked(pop.trace(InputId::Profile, EVENTS, seed));
            assert_eq!(per_event, chunked, "{name} seed {seed}");
        }
    }
}

/// Oscillating traces for the property test below: each branch runs
/// perfectly taken for `flip` executions, then perfectly not-taken, and
/// so on — the worst case for chunk boundaries, because every flip drags
/// the branch through classification, eviction, and re-monitoring, and
/// small chunks are guaranteed to split those transitions mid-flight.
fn oscillating_trace(branches: u32, flip: u64, events: u64) -> Vec<BranchRecord> {
    let mut out = Vec::with_capacity(events as usize);
    let mut execs = vec![0u64; branches as usize];
    for i in 0..events {
        let b = (i % u64::from(branches)) as usize;
        let n = execs[b];
        execs[b] += 1;
        out.push(BranchRecord {
            branch: BranchId::new(b as u32),
            taken: (n / flip).is_multiple_of(2),
            instr: 3 * i + 1,
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For chunk sizes 1..=7 — all smaller than any transition-relevant
    /// time constant — every built-in policy, eviction rule (counter,
    /// sampling, none), monitor (fixed window or confidence bounds) and
    /// monitor sample rate (1 or 3), every per-chunk `ChunkSummary` must
    /// equal the sum of the per-event decisions over exactly that chunk,
    /// and the final controller states and checkpoint bytes must be
    /// identical. Those inputs reach every instantiation of the chunked
    /// path's in-place step. The per-event side carries an event sink,
    /// which runs every event through the full FSM (a per-event
    /// controller without one would share the chunked path's in-place
    /// step and check it against itself) and is not part of a checkpoint.
    #[test]
    fn tiny_chunk_summaries_equal_summed_per_event_decisions(
        policy in prop::sample::select(BUILTIN_POLICY_IDS.to_vec()),
        chunk in 1usize..=7,
        flip in 4u64..60,
        branches in 1u32..4,
        monitor in prop::sample::select(vec![5u64, 10, 16]),
        latency in prop::sample::select(vec![0u64, 25]),
        eviction in prop::sample::select(vec!["counter", "sampling", "never"]),
        sample_rate in prop::sample::select(vec![1u64, 3]),
        confidence in any::<bool>(),
    ) {
        let mut params = ControllerParams::scaled()
            .with_monitor_period(monitor)
            .with_latency(latency)
            .with_monitor_sampling(sample_rate);
        if confidence {
            params = params.with_confidence_monitor(1.0, 4, 2 * monitor);
        }
        params.eviction = match eviction {
            "counter" => EvictionMode::Counter {
                up: 50,
                down: 1,
                threshold: 100,
            },
            "sampling" => EvictionMode::Sampling {
                period: 2 * monitor,
                samples: monitor / 2,
                bias_threshold: 0.9,
            },
            _ => EvictionMode::Never,
        };
        params.revisit = rsc_control::Revisit::After(2 * monitor);
        let policy = match Policy::builtin(policy).unwrap() {
            // The default margin outlasts these windows: shrink it so the
            // perceptron classifies mid-window, inside the chunked path's
            // headroom test.
            Policy::Perceptron(z) => Policy::Perceptron(Perceptron {
                theta: (monitor / 2) as u32,
                ..z
            }),
            other => other,
        };

        let trace = oscillating_trace(branches, flip, 3_000);
        let build = || ReactiveController::builder(params).policy(policy);
        let mut per_event = build().event_sink(Arc::new(NullSink)).build().unwrap();
        prop_assert!(!per_event.chunk_fast_path());
        let mut chunked = build().build().unwrap();

        for window in trace.chunks(chunk) {
            let mut expect = ChunkSummary::default();
            for r in window {
                let d = per_event.observe(r);
                expect.events += 1;
                expect.speculated += u64::from(d.speculated());
                expect.correct += u64::from(d == rsc_control::SpecDecision::Correct);
                expect.incorrect += u64::from(d == rsc_control::SpecDecision::Incorrect);
            }
            let got = chunked.observe_chunk(window);
            prop_assert_eq!(got, expect, "{} at chunk size {}", policy.id(), chunk);
        }

        prop_assert_eq!(per_event.stats(), chunked.stats());
        prop_assert_eq!(per_event.transitions(), chunked.transitions());
        prop_assert_eq!(
            per_event.snapshot().as_bytes(),
            chunked.snapshot().as_bytes(),
            "checkpoint bytes"
        );
    }

    /// Sharding is a parallelization, not a semantic change: for every
    /// shard count 1..=8, adversarial scenario, seed, and random chunk
    /// layout — closed by one chunk large enough to fan out to two
    /// threads — the sharded engine's per-chunk summaries, final stats,
    /// per-kind transition counts, and per-branch snapshots are
    /// bit-identical to a sequential controller fed per-event.
    #[test]
    fn sharded_engine_is_bit_identical_to_sequential(
        shards in 1usize..=8,
        scenario in prop::sample::select(vec![
            Scenario::PhaseFlip { branches: 6, flip_after: 40 },
            Scenario::HysteresisStraddle { warmup: 10, period: 2 },
            Scenario::ThresholdOscillator { window: 10 },
            Scenario::BurstyHotSet { hot: 3, burst: 40 },
            Scenario::UniformRandom { branches: 8 },
        ]),
        seed in any::<u64>(),
        max_chunk in 1u64..400,
    ) {
        let mut params = ControllerParams::scaled()
            .with_monitor_period(10)
            .with_latency(0);
        params.eviction = rsc_control::EvictionMode::Counter {
            up: 50,
            down: 1,
            threshold: 100,
        };
        params.revisit = rsc_control::Revisit::After(20);

        let threaded = 2 * rsc_control::shard::MIN_EVENTS_PER_THREAD;
        let trace = scenario.generate(4_000 + threaded as u64, seed);
        let mut sequential = ReactiveController::builder(params).build().unwrap();
        let mut sharded = ReactiveController::builder(params)
            .shards(shards)
            .pool_threads(2)
            .build_sharded()
            .unwrap();

        let mut sizes = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut start = 0usize;
        while start < trace.len() {
            let end = if start < 4_000 {
                (start + 1 + (sizes.next_u64() % max_chunk) as usize).min(4_000)
            } else {
                trace.len()
            };
            let window = &trace[start..end];
            let mut expect = ChunkSummary::default();
            for r in window {
                let d = sequential.observe(r);
                expect.events += 1;
                expect.speculated += u64::from(d.speculated());
                expect.correct += u64::from(d == rsc_control::SpecDecision::Correct);
                expect.incorrect += u64::from(d == rsc_control::SpecDecision::Incorrect);
            }
            let got = sharded.observe_chunk(window);
            prop_assert_eq!(got, expect, "shards {}, chunk {}..{}", shards, start, end);
            start = end;
        }

        prop_assert_eq!(sequential.stats(), sharded.stats(), "shards {}", shards);
        for kind in rsc_control::TransitionKind::ALL {
            prop_assert_eq!(
                sequential.transition_log().count(kind),
                sharded.transition_count(kind),
                "shards {}, kind {:?}", shards, kind
            );
        }
        let max_branch = trace.iter().map(|r| r.branch.index()).max().unwrap_or(0);
        for b in 0..=max_branch {
            let id = BranchId::new(b as u32);
            prop_assert_eq!(
                sequential.branch_snapshot(id),
                sharded.branch_snapshot(id),
                "shards {}, branch {}", shards, b
            );
        }
    }
}

#[test]
fn chunked_baseline_timing_matches_per_event_for_every_benchmark_and_seed() {
    use rsc_mssp::{run_baseline, run_baseline_chunked, MachineConfig};
    let machine = MachineConfig::table5();
    for name in BENCHMARKS {
        let pop = spec2000::benchmark(name).unwrap().population(EVENTS);
        for seed in SEEDS {
            assert_eq!(
                run_baseline(&pop, InputId::Eval, EVENTS, seed, &machine),
                run_baseline_chunked(&pop, InputId::Eval, EVENTS, seed, &machine),
                "{name} seed {seed}"
            );
        }
    }
}

/// An optimization latency longer than any run here: no optimized code
/// is ever deployed, so no branch is speculated.
const NEVER_DEPLOYED: u64 = 1 << 40;

/// The controller configs the MSSP experiments sweep: fig7's closed
/// loop, open loop, 4x monitor and both, then fig8's optimization
/// latencies (`rsc_bench::experiments::fig8::LATENCIES`), then
/// [`NEVER_DEPLOYED`].
///
/// A master steps a task whole when none of its branches is speculated
/// correctly, and builds a distilled task otherwise. The experiment
/// configs take both paths (on gzip and vortex; at this length gcc and
/// crafty never distill); the last config takes only the whole-task
/// path, so each path is pinned on its own. The exec-modes test adds
/// one config under which most tasks distill.
fn mssp_sweep_configs() -> Vec<ControllerParams> {
    let base = ControllerParams::scaled();
    let long = base.monitor_period * 4;
    let fig7 = [
        base,
        base.without_eviction(),
        base.with_monitor_period(long),
        base.without_eviction().with_monitor_period(long),
    ];
    let fig8 = [0u64, 10_000, 100_000].map(|lat| base.with_latency(lat));
    fig7.into_iter()
        .chain(fig8)
        .chain([base.with_latency(NEVER_DEPLOYED)])
        .collect()
}

/// Every master of a fan-out equals the per-event `run_mssp_only` for its
/// params, and the fan-out's baseline equals `run_baseline`.
///
/// N = 1..4 masters take consecutive windows of the sweep configs (N = 1
/// is a one-master `run_mssp_many`), so the 1 + 2 + 3 + 4 slots cover all
/// eight configs at every task size. task_events = 1 is the degenerate
/// block size where every chunk boundary falls inside a gap; 64 is the
/// default; 1000 spans many trace-refill chunks.
#[test]
fn mssp_exec_modes_are_bit_identical_across_benchmarks_seeds_and_task_sizes() {
    use rsc_mssp::{run_baseline, run_mssp_many, run_mssp_only, MsspParams, MsspResult};
    let configs = mssp_sweep_configs();
    let mut distilled_cases = 0;
    for name in BENCHMARKS {
        let pop = spec2000::benchmark(name).unwrap().population(EVENTS);
        for seed in SEEDS {
            let baseline = run_baseline(
                &pop,
                InputId::Eval,
                EVENTS,
                seed,
                &MsspParams::new().machine,
            );
            for task_events in [1u64, 64, 1000] {
                let params: Vec<MsspParams> = configs
                    .iter()
                    .map(|&ctl| MsspParams {
                        task_events,
                        ..MsspParams::new().with_controller(ctl)
                    })
                    .collect();
                let oracle: Vec<_> = params
                    .iter()
                    .map(|p| run_mssp_only(&pop, InputId::Eval, EVENTS, seed, p))
                    .collect();
                let case = format!("{name} seed {seed} task_events {task_events}");
                // The never-deployed config runs every task whole.
                let whole = oracle.last().unwrap();
                assert_eq!(
                    whole.master_instructions, whole.original_instructions,
                    "{case}: nothing speculated, nothing distilled"
                );
                assert_eq!(whole.branch_misspecs, 0, "{case}");
                distilled_cases += oracle
                    .iter()
                    .filter(|r| r.master_instructions < r.original_instructions)
                    .count();
                assert_eq!(
                    run_mssp_many(&pop, InputId::Eval, EVENTS, seed, false, &params[..1])[0],
                    oracle[0],
                    "{case}: one master, {:?}",
                    configs[0]
                );
                let mut next = 1;
                for n in 2..=4 {
                    let picks: Vec<usize> = (next..next + n).map(|i| i % configs.len()).collect();
                    next += n;
                    let sweep: Vec<MsspParams> = picks.iter().map(|&i| params[i]).collect();
                    // Every other fan-out also steps the baseline core.
                    let with_baseline = n % 2 == 0;
                    let got =
                        run_mssp_many(&pop, InputId::Eval, EVENTS, seed, with_baseline, &sweep);
                    assert_eq!(got.len(), n, "{case}: {n} masters");
                    for (r, &i) in got.iter().zip(&picks) {
                        let expected = MsspResult {
                            baseline_cycles: if with_baseline { baseline } else { 0 },
                            ..oracle[i]
                        };
                        assert_eq!(*r, expected, "{case}: {n} masters, {:?}", configs[i]);
                    }
                }
            }
        }
    }
    assert!(distilled_cases > 0, "no case exercised a distilled task");

    // The configs above distill only now and then. On gcc, a 16-execution
    // monitor with no optimization latency distills most tasks, so this
    // case compares the distilled path task after task.
    let events = 20_000;
    let pop = spec2000::benchmark("gcc").unwrap().population(events);
    let ctl = ControllerParams::scaled()
        .with_monitor_period(16)
        .with_latency(0);
    let params = MsspParams::new().with_controller(ctl);
    let oracle = run_mssp_only(&pop, InputId::Eval, events, 7, &params);
    let (tasks, distilled) = distilled_tasks(&pop, 7, events, &params);
    assert_eq!(
        tasks, oracle.tasks,
        "one task per {} events",
        params.task_events
    );
    assert!(
        2 * distilled > tasks,
        "{distilled} of {tasks} tasks distill"
    );
    assert_eq!(
        run_mssp_many(&pop, InputId::Eval, events, 7, false, &[params])[0],
        oracle
    );
    let expected = MsspResult {
        baseline_cycles: run_baseline(&pop, InputId::Eval, events, 7, &params.machine),
        ..oracle
    };
    assert_eq!(
        run_mssp_many(&pop, InputId::Eval, events, 7, true, &[params, params]),
        vec![expected, expected]
    );
}

/// How many `task_events`-event tasks a master runs, and in how many its
/// controller speculates some branch correctly: the tasks it distills.
/// A master's decisions read only the trace and its controller, so
/// replaying the controller over the trace finds them.
fn distilled_tasks(
    pop: &rsc_trace::Population,
    seed: u64,
    events: u64,
    params: &rsc_mssp::MsspParams,
) -> (u64, u64) {
    let mut ctl = ReactiveController::builder(params.controller)
        .build()
        .unwrap();
    let records: Vec<BranchRecord> = pop.trace(InputId::Eval, events, seed).collect();
    let tasks = records.chunks(params.task_events as usize);
    let total = tasks.len() as u64;
    let distilled = tasks
        .filter(|task| {
            // Not `any`: every record must reach the controller.
            task.iter().fold(false, |any, r| {
                any | (ctl.observe(r) == rsc_control::SpecDecision::Correct)
            })
        })
        .count();
    (total, distilled as u64)
}

#[test]
#[should_panic(expected = "must share `machine` and `task_events`")]
fn mssp_fan_out_rejects_mixed_task_sizes() {
    use rsc_mssp::{run_mssp_many, MsspParams};
    let pop = spec2000::benchmark("gzip").unwrap().population(1_000);
    let short = MsspParams {
        task_events: 16,
        ..MsspParams::new()
    };
    run_mssp_many(
        &pop,
        InputId::Eval,
        1_000,
        7,
        false,
        &[MsspParams::new(), short],
    );
}

#[test]
#[should_panic(expected = "must share `machine` and `task_events`")]
fn mssp_fan_out_rejects_mixed_machines() {
    use rsc_mssp::{run_mssp_many, MsspParams};
    let pop = spec2000::benchmark("gzip").unwrap().population(1_000);
    let mut narrow = MsspParams::new();
    narrow.machine.trailing_count = 4;
    run_mssp_many(
        &pop,
        InputId::Eval,
        1_000,
        7,
        true,
        &[MsspParams::new(), narrow],
    );
}

#[test]
#[should_panic(expected = "at least one MsspParams")]
fn mssp_fan_out_rejects_an_empty_sweep() {
    let pop = spec2000::benchmark("gzip").unwrap().population(1_000);
    rsc_mssp::run_mssp_many(&pop, InputId::Eval, 1_000, 7, true, &[]);
}

#[test]
fn fill_matches_iterator_for_every_benchmark_and_seed() {
    for name in BENCHMARKS {
        let pop = spec2000::benchmark(name).unwrap().population(20_000);
        for seed in SEEDS {
            let expected: Vec<BranchRecord> = pop.trace(InputId::Eval, 20_000, seed).collect();
            let mut got = Vec::with_capacity(expected.len());
            let mut trace = pop.trace(InputId::Eval, 20_000, seed);
            let mut buf = empty_buf(777);
            loop {
                let n = trace.fill(&mut buf);
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(expected, got, "{name} seed {seed}");
        }
    }
}
