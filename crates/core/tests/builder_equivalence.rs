//! Property tests for the [`Policy`] seam: a controller built with an
//! explicit `.policy(Policy::PaperFsm)` is **bit-identical** to the default
//! controller — same decisions, stats, retained transitions, and
//! serialized checkpoint bytes — across random parameterizations, all
//! seven adversary generators, random chunk layouts, and both the
//! sequential and the sharded engines. Telemetry attachment stays
//! observation-only.

use proptest::prelude::*;
use rsc_control::resilience::{DeployerSpec, FaultMode, FaultScope, FaultSpec, RetryPolicy};
use rsc_control::{
    ControllerParams, EvictionMode, MonitorPolicy, Policy, ReactiveController, ResilienceConfig,
    Revisit, ShardedController, TransitionLogPolicy, VecSink,
};
use rsc_trace::{BranchId, BranchRecord, Scenario};
use std::sync::Arc;

/// Arbitrary record streams over a handful of branches.
fn records(max_len: usize) -> impl Strategy<Value = Vec<BranchRecord>> {
    prop::collection::vec((0u32..6, any::<bool>(), 1u64..10), 1..max_len).prop_map(|entries| {
        let mut instr = 0;
        entries
            .into_iter()
            .map(|(b, taken, gap)| {
                instr += gap;
                BranchRecord {
                    branch: BranchId::new(b),
                    taken,
                    instr,
                }
            })
            .collect()
    })
}

/// One of the seven adversarial workload generators, parameterized
/// randomly and rendered to a concrete stream.
fn adversary(len: usize) -> impl Strategy<Value = Vec<BranchRecord>> {
    (0usize..7, 1u64..64, 1u32..9, 1u64..1_000).prop_map(move |(which, t, n, seed)| {
        let scenario = match which {
            0 => Scenario::PhaseFlip {
                branches: n,
                flip_after: t * 4,
            },
            1 => Scenario::HysteresisStraddle {
                warmup: t * 2,
                period: 1 + t % 8,
            },
            2 => Scenario::RevisitAlias { period: t * 2 },
            3 => Scenario::ThresholdOscillator { window: t },
            4 => Scenario::BurstyHotSet { hot: n, burst: t },
            5 => Scenario::UniformRandom { branches: n },
            _ => Scenario::CorrelatedGroups {
                groups: 1 + n / 3,
                per_group: 2,
                flip_every: t * 3,
                churn: t * 5,
            },
        };
        scenario.generate(len as u64, seed)
    })
}

/// Random chunk layout: split points partitioning `len` records.
fn chunk_layout(len: usize) -> Vec<usize> {
    // Deterministic pseudo-splits derived from the length keep the
    // strategy space small while still varying block shapes.
    let mut cuts = vec![0];
    let mut at = 0;
    let mut step = 1 + len % 37;
    while at + step < len {
        at += step;
        cuts.push(at);
        step = 1 + (step * 7 + 3) % 61;
    }
    cuts.push(len);
    cuts
}

/// Small but structurally valid controller parameterizations.
fn params() -> impl Strategy<Value = ControllerParams> {
    (
        1u64..48, // monitor period
        1u64..3,  // sample rate
        prop::sample::select(vec![0.9, 0.99, 1.0]),
        prop::option::of(1u32..5), // oscillation limit
        0u64..600,                 // latency
        prop::option::of(1u64..400),
    )
        .prop_map(
            |(monitor, rate, threshold, osc, latency, revisit)| ControllerParams {
                monitor_period: monitor,
                monitor_policy: MonitorPolicy::FixedWindow,
                monitor_sample_rate: rate,
                selection_threshold: threshold,
                eviction: EvictionMode::Counter {
                    up: 50,
                    down: 1,
                    threshold: 200,
                },
                revisit: match revisit {
                    Some(n) => Revisit::After(n),
                    None => Revisit::Never,
                },
                oscillation_limit: osc,
                optimization_latency: latency,
            },
        )
}

fn log_policy() -> impl Strategy<Value = TransitionLogPolicy> {
    prop::sample::select(vec![
        TransitionLogPolicy::Full,
        TransitionLogPolicy::CountsOnly,
    ])
}

fn resilience() -> impl Strategy<Value = Option<ResilienceConfig>> {
    prop::option::of(
        (1u64..100, 0u16..800).prop_map(|(seed, per_mille)| ResilienceConfig {
            deployer: DeployerSpec::Faulty(FaultSpec {
                seed,
                mode: FaultMode::FixedRate { per_mille },
                scope: FaultScope::All,
                wasted: 40,
            }),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: 50,
                max_backoff: 400,
            },
            breaker: None,
        }),
    )
}

/// Drives a controller and returns everything comparable about the run.
fn drive(
    mut ctl: ReactiveController,
    recs: &[BranchRecord],
) -> (ReactiveController, Vec<rsc_control::SpecDecision>) {
    let decisions = recs.iter().map(|r| ctl.observe(r)).collect();
    (ctl, decisions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `builder(p).policy(Policy::PaperFsm)` is bit-identical to the default
    /// builder — the paper FSM *is* the default policy, with no drift
    /// between the explicit and implicit paths.
    #[test]
    fn explicit_paper_fsm_matches_default(
        recs in records(1_200),
        p in params(),
        policy in log_policy(),
    ) {
        let default = ReactiveController::builder(p)
            .log_policy(policy)
            .build()
            .unwrap();
        let explicit = ReactiveController::builder(p)
            .log_policy(policy)
            .policy(Policy::PaperFsm)
            .build()
            .unwrap();
        prop_assert_eq!(explicit.policy_id(), "paper-fsm");

        let (default, dd) = drive(default, &recs);
        let (explicit, ed) = drive(explicit, &recs);
        prop_assert_eq!(dd, ed);
        prop_assert_eq!(default.stats(), explicit.stats());
        prop_assert_eq!(default.transitions(), explicit.transitions());
        prop_assert_eq!(default.snapshot(), explicit.snapshot());
    }

    /// Across every adversary generator and a random chunk layout, the
    /// chunked fast path and the sharded engine agree with the
    /// sequential per-event path under an explicit `PaperFsm` policy.
    #[test]
    fn paper_fsm_agrees_sequential_chunked_and_sharded(
        recs in adversary(2_000),
        p in params(),
        shards in 1usize..4,
    ) {
        let (sequential, _) = drive(
            ReactiveController::builder(p).policy(Policy::PaperFsm).build().unwrap(),
            &recs,
        );

        let mut chunked = ReactiveController::builder(p).policy(Policy::PaperFsm).build().unwrap();
        let cuts = chunk_layout(recs.len());
        for w in cuts.windows(2) {
            chunked.observe_chunk(&recs[w[0]..w[1]]);
        }
        prop_assert_eq!(sequential.stats(), chunked.stats());
        prop_assert_eq!(sequential.snapshot(), chunked.snapshot());

        let mut sharded = ReactiveController::builder(p)
            .policy(Policy::PaperFsm)
            .shards(shards)
            .build_sharded()
            .unwrap();
        for w in cuts.windows(2) {
            sharded.observe_chunk(&recs[w[0]..w[1]]);
        }
        prop_assert_eq!(sequential.stats(), sharded.stats());
        for b in 0..10u32 {
            prop_assert_eq!(
                sequential.branch_snapshot(BranchId::new(b)),
                sharded.branch_snapshot(BranchId::new(b))
            );
        }
        // The sharded engine round-trips through its own checkpoint.
        let restored = ShardedController::restore(&sharded.snapshot()).unwrap();
        prop_assert_eq!(restored.stats(), sharded.stats());
    }

    /// Resilience composes with the policy seam exactly as it does with
    /// the default controller.
    #[test]
    fn resilience_composes_with_explicit_policy(
        recs in records(1_200),
        p in params(),
        config in resilience(),
    ) {
        let assemble = |explicit: bool| {
            let mut b = ReactiveController::builder(p);
            if explicit {
                b = b.policy(Policy::PaperFsm);
            }
            if let Some(c) = config {
                b = b.resilience(c);
            }
            b.build().unwrap()
        };
        let (default, dd) = drive(assemble(false), &recs);
        let (explicit, ed) = drive(assemble(true), &recs);
        prop_assert_eq!(dd, ed);
        prop_assert_eq!(default.stats(), explicit.stats());
        prop_assert_eq!(default.transitions(), explicit.transitions());
        prop_assert_eq!(default.snapshot(), explicit.snapshot());
    }

    /// Telemetry is observation, not intervention: enabling the registry
    /// and a sink changes no decision, stat, or transition, and the
    /// sink's transition stream equals the log.
    #[test]
    fn telemetry_never_perturbs_behavior(
        recs in records(1_200),
        p in params(),
        config in resilience(),
    ) {
        let assemble = || {
            let mut b = ReactiveController::builder(p);
            if let Some(c) = config {
                b = b.resilience(c);
            }
            b
        };
        let plain = assemble().build().unwrap();
        let sink = Arc::new(VecSink::new());
        let metered = assemble().metrics().event_sink(sink.clone()).build().unwrap();

        let (plain, pd) = drive(plain, &recs);
        let (metered, md) = drive(metered, &recs);
        prop_assert_eq!(pd, md);
        prop_assert_eq!(plain.stats(), metered.stats());
        prop_assert_eq!(plain.transitions(), metered.transitions());

        let s = metered.stats();
        let reg = metered.metrics().unwrap();
        prop_assert_eq!(reg.counter_value("rsc_events_total"), Some(s.events));
        prop_assert_eq!(reg.counter_value("rsc_spec_incorrect_total"), Some(s.incorrect));
        let h = reg.histogram_value("rsc_misspec_interval_events").unwrap();
        prop_assert_eq!(h.count(), s.incorrect);

        let sunk_transitions = sink
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                rsc_control::ObsEvent::Transition(t) => Some(*t),
                _ => None,
            })
            .collect::<Vec<_>>();
        prop_assert_eq!(sunk_transitions.as_slice(), metered.transitions());
    }
}
