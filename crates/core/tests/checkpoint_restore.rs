//! Property test for checkpoint/restore: snapshot at a random index,
//! restore, replay the rest of the trace — the resumed controller must be
//! **bit-identical** to one that ran straight through. Checked on the
//! per-event decisions, the final `ControlStats`, the retained transition
//! log, per-branch snapshots,
//! and a re-snapshot of both controllers at the end (byte equality of the
//! serialized state is the strongest form of the property).
//!
//! Randomness is a seeded `SplitMix64` (this workspace vendors no
//! property-testing framework), so every failure is reproducible from the
//! seed printed in the assertion message.

use rsc_control::resilience::{
    BreakerConfig, DeployerSpec, FaultMode, FaultScope, FaultSpec, RetryPolicy,
};
use rsc_control::{
    ControllerParams, EvictionMode, MonitorPolicy, ReactiveController, ResilienceConfig, Revisit,
    TransitionLogPolicy,
};
use rsc_trace::rng::SplitMix64;
use rsc_trace::{BranchId, BranchRecord};

fn tiny_params() -> ControllerParams {
    ControllerParams {
        monitor_period: 60,
        monitor_policy: MonitorPolicy::FixedWindow,
        monitor_sample_rate: 1,
        selection_threshold: 0.9,
        eviction: EvictionMode::Counter {
            up: 50,
            down: 1,
            threshold: 150,
        },
        revisit: Revisit::After(400),
        oscillation_limit: Some(4),
        optimization_latency: 25,
    }
}

/// A workload that exercises every controller arc: several branches with
/// seeded per-branch bias that flips phase periodically, so selections,
/// evictions, revisits, retries, and breaker trips all occur.
fn gen_stream(seed: u64, n: u64) -> Vec<BranchRecord> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n as usize);
    let mut instr = 0u64;
    for i in 0..n {
        let branch = (rng.next_u64() % 5) as u32;
        // Per-branch bias flips every 700 events; branch 4 is always noisy.
        let phase = (i / 700) % 2 == 0;
        let taken = if branch == 4 {
            rng.next_u64().is_multiple_of(2)
        } else if phase ^ branch.is_multiple_of(2) {
            rng.next_u64() % 100 < 97
        } else {
            rng.next_u64() % 100 < 3
        };
        instr += 3 + rng.next_u64() % 8;
        out.push(BranchRecord {
            branch: BranchId::new(branch),
            taken,
            instr,
        });
    }
    out
}

fn faulty_config(breaker: bool) -> ResilienceConfig {
    ResilienceConfig {
        deployer: DeployerSpec::Faulty(FaultSpec {
            seed: 31,
            mode: FaultMode::FixedRate { per_mille: 450 },
            scope: FaultScope::All,
            wasted: 15,
        }),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: 30,
            max_backoff: 120,
        },
        breaker: breaker.then_some(BreakerConfig {
            bucket_events: 50,
            buckets: 3,
            open_threshold: 0.15,
            close_threshold: 0.05,
            cooldown_events: 100,
            probe_events: 60,
            mass_evict_top_k: 2,
        }),
    }
}

fn build(config: Option<ResilienceConfig>, policy: TransitionLogPolicy) -> ReactiveController {
    let mut b = ReactiveController::builder(tiny_params()).log_policy(policy);
    if let Some(c) = config {
        b = b.resilience(c);
    }
    b.build().unwrap()
}

/// The property itself: for `rounds` seeded random split points, running
/// straight through equals snapshot-at-split + restore + replay.
fn resume_equals_straight_run(
    config: Option<ResilienceConfig>,
    policy: TransitionLogPolicy,
    seed: u64,
    rounds: u32,
) {
    let stream = gen_stream(seed, 6_000);
    let mut straight = build(config, policy);
    let mut decisions = Vec::with_capacity(stream.len());
    for r in &stream {
        decisions.push(straight.observe(r));
    }

    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9);
    for round in 0..rounds {
        let split = (rng.next_u64() % (stream.len() as u64 - 1) + 1) as usize;
        let ctx = format!("seed={seed} round={round} split={split} policy={policy:?}");

        let mut first = build(config, policy);
        for r in &stream[..split] {
            first.observe(r);
        }
        let cp = first.snapshot();
        let mut resumed = ReactiveController::restore(&cp).unwrap_or_else(|e| {
            panic!("restore failed ({ctx}): {e}");
        });
        // The restored controller replays the tail; every decision must
        // match the straight run exactly.
        for (i, r) in stream[split..].iter().enumerate() {
            let d = resumed.observe(r);
            assert_eq!(d, decisions[split + i], "decision {} ({ctx})", split + i);
        }

        assert_eq!(resumed.stats(), straight.stats(), "stats ({ctx})");
        assert_eq!(
            resumed.transition_log().as_slice(),
            straight.transition_log().as_slice(),
            "retained transitions ({ctx})"
        );
        for b in 0..5 {
            let id = BranchId::new(b);
            assert_eq!(
                resumed.branch_snapshot(id),
                straight.branch_snapshot(id),
                "branch {b} ({ctx})"
            );
        }
        // Byte-identical re-snapshot: the resumed controller's complete
        // serialized state equals the straight run's.
        assert_eq!(
            resumed.snapshot(),
            straight.snapshot(),
            "re-snapshot bytes ({ctx})"
        );
    }
}

#[test]
fn plain_controller_full_log() {
    resume_equals_straight_run(None, TransitionLogPolicy::Full, 101, 8);
}

#[test]
fn plain_controller_counts_only() {
    resume_equals_straight_run(None, TransitionLogPolicy::CountsOnly, 303, 6);
}

#[test]
fn faulty_deployer_full_log() {
    resume_equals_straight_run(
        Some(faulty_config(false)),
        TransitionLogPolicy::Full,
        404,
        8,
    );
}

#[test]
fn faulty_deployer_with_breaker_full_log() {
    resume_equals_straight_run(Some(faulty_config(true)), TransitionLogPolicy::Full, 505, 8);
}

#[test]
fn faulty_deployer_with_breaker_counts_only() {
    resume_equals_straight_run(
        Some(faulty_config(true)),
        TransitionLogPolicy::CountsOnly,
        606,
        8,
    );
}

#[test]
fn reliable_layer_counts_only() {
    resume_equals_straight_run(
        Some(ResilienceConfig::reliable()),
        TransitionLogPolicy::CountsOnly,
        707,
        6,
    );
}

/// Checkpoints survive a write-to-disk round trip through raw bytes.
#[test]
fn byte_round_trip_through_storage() {
    use rsc_control::ControllerCheckpoint;
    let stream = gen_stream(11, 3_000);
    let mut ctl = build(Some(faulty_config(true)), TransitionLogPolicy::CountsOnly);
    for r in &stream {
        ctl.observe(r);
    }
    let cp = ctl.snapshot();
    let bytes = cp.as_bytes().to_vec();
    let reread = ControllerCheckpoint::from_bytes(bytes);
    assert_eq!(reread, cp);
    let restored = ReactiveController::restore(&reread).unwrap();
    assert_eq!(restored.stats(), ctl.stats());
    assert_eq!(restored.snapshot(), cp);
}
