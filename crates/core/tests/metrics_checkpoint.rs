//! Telemetry across checkpoint/restore: the metrics registry's histogram
//! state (and the interval bookkeeping behind it) must survive a
//! snapshot/restore round trip, and a restored controller that replays
//! the tail of a trace must end with exactly the registry a straight run
//! produces. Checkpoint-save notifications flow to sinks without ever
//! altering the serialized bytes, and sinks are never serialized.

use rsc_control::prelude::*;
use rsc_control::resilience::{
    BreakerConfig, DeployerSpec, FaultMode, FaultScope, FaultSpec, RetryPolicy,
};
use rsc_trace::rng::SplitMix64;
use rsc_trace::{BranchId, BranchRecord};
use std::sync::Arc;

fn params() -> ControllerParams {
    let mut p = ControllerParams::scaled();
    p.monitor_period = 80;
    p.eviction = rsc_control::EvictionMode::Counter {
        up: 50,
        down: 1,
        threshold: 300,
    };
    p.revisit = rsc_control::Revisit::After(1_000);
    p.optimization_latency = 60;
    p
}

fn config(seed: u64) -> ResilienceConfig {
    ResilienceConfig {
        deployer: DeployerSpec::Faulty(FaultSpec {
            seed,
            mode: FaultMode::FixedRate { per_mille: 300 },
            scope: FaultScope::All,
            wasted: 80,
        }),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: 100,
            max_backoff: 800,
        },
        breaker: Some(BreakerConfig {
            bucket_events: 200,
            buckets: 4,
            open_threshold: 0.08,
            close_threshold: 0.02,
            cooldown_events: 1_500,
            probe_events: 800,
            mass_evict_top_k: 2,
        }),
    }
}

/// Phase-flipping multi-branch workload that populates every histogram.
fn stream(seed: u64, n: u64) -> Vec<BranchRecord> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n as usize);
    let mut instr = 0u64;
    for i in 0..n {
        let branch = (rng.next_u64() % 5) as u32;
        let phase = (i / 600).is_multiple_of(2);
        let taken = if branch == 4 {
            rng.next_u64().is_multiple_of(2)
        } else {
            (rng.next_u64() % 100 < 97) == phase
        };
        instr += 1 + rng.next_u64() % 6;
        out.push(BranchRecord {
            branch: BranchId::new(branch),
            taken,
            instr,
        });
    }
    out
}

fn build(metrics: bool, seed: u64) -> ReactiveController {
    let mut b = ReactiveController::builder(params()).resilience(config(seed));
    if metrics {
        b = b.metrics();
    }
    b.build().unwrap()
}

#[test]
fn metrics_survive_restore_and_resume_equals_straight_run() {
    let recs = stream(11, 8_000);
    let mut straight = build(true, 11);
    for r in &recs {
        straight.observe(r);
    }

    for split in [1, recs.len() / 3, recs.len() / 2, recs.len() - 1] {
        let mut first = build(true, 11);
        for r in &recs[..split] {
            first.observe(r);
        }
        let cp = first.snapshot();
        let mut resumed = ReactiveController::restore(&cp).unwrap();
        // The registry is part of the restored state, not rebuilt empty.
        assert!(resumed.metrics().is_some(), "split={split}");
        assert_eq!(
            resumed.metrics().unwrap().render_prometheus(),
            first.metrics().unwrap().render_prometheus(),
            "restored registry differs at split={split}"
        );
        for r in &recs[split..] {
            resumed.observe(r);
        }
        assert_eq!(resumed.stats(), straight.stats(), "split={split}");
        // The full exposition — counters, gauges, and every histogram
        // bucket — is a pure function of the event stream, regardless of
        // where the run was cut.
        assert_eq!(
            resumed.metrics().unwrap().render_prometheus(),
            straight.metrics().unwrap().render_prometheus(),
            "split={split}"
        );
        assert_eq!(resumed.snapshot(), straight.snapshot(), "split={split}");
    }
}

#[test]
fn telemetry_free_controller_round_trips_without_a_registry() {
    let recs = stream(5, 3_000);
    let mut ctl = build(false, 5);
    for r in &recs {
        ctl.observe(r);
    }
    let restored = ReactiveController::restore(&ctl.snapshot()).unwrap();
    assert!(restored.metrics().is_none());
    assert_eq!(restored.stats(), ctl.stats());
}

#[test]
fn checkpoint_events_reach_the_sink_but_not_the_bytes() {
    let recs = stream(3, 2_000);
    let sink = Arc::new(VecSink::new());
    let mut ctl = ReactiveController::builder(params())
        .resilience(config(3))
        .metrics()
        .event_sink(sink.clone())
        .build()
        .unwrap();
    for r in &recs {
        ctl.observe(r);
    }

    let before = sink.len();
    let cp1 = ctl.snapshot();
    let cp2 = ctl.snapshot();
    // Snapshotting is observationally transparent: emitting the saved
    // event must not feed back into the serialized state.
    assert_eq!(cp1, cp2);
    let saves: Vec<_> = sink
        .snapshot()
        .into_iter()
        .skip(before)
        .filter_map(|e| match e {
            ObsEvent::CheckpointSaved { events, bytes } => Some((events, bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(
        saves,
        vec![
            (ctl.stats().events, cp1.len() as u64),
            (ctl.stats().events, cp1.len() as u64),
        ]
    );

    // Sinks are not serialized: the restored controller streams nowhere,
    // not even its own checkpoint saves.
    let mut restored = ReactiveController::restore(&cp1).unwrap();
    assert_eq!(restored.stats(), ctl.stats());
    let emitted = sink.len();
    for r in &stream(4, 500) {
        restored.observe(r);
    }
    let _ = restored.snapshot();
    assert_eq!(sink.len(), emitted, "a restored controller has no sink");
}

#[test]
fn sink_only_telemetry_serializes_as_absent() {
    // A sink without a registry has nothing serializable: the restored
    // controller carries no telemetry at all.
    let sink = Arc::new(VecSink::new());
    let mut ctl = ReactiveController::builder(params())
        .event_sink(sink.clone())
        .build()
        .unwrap();
    for r in &stream(7, 1_000) {
        ctl.observe(r);
    }
    let mut restored = ReactiveController::restore(&ctl.snapshot()).unwrap();
    assert!(restored.metrics().is_none());
    assert_eq!(restored.stats(), ctl.stats());
    let emitted = sink.len();
    for r in &stream(8, 1_000) {
        restored.observe(r);
    }
    assert_eq!(sink.len(), emitted, "a restored controller has no sink");
}
