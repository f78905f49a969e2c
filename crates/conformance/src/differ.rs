//! Lockstep differential execution of the optimized controller against
//! the golden reference.
//!
//! A [`CaseSpec`] names the subject's parameters, the reference's
//! parameters (identical unless a [`Fault`](crate::fault::Fault) was
//! injected), and the execution [`Mode`]. [`run_case`] then feeds one
//! trace to both controllers and checks, in order:
//!
//! 1. the per-event [`SpecDecision`] stream (per-event mode) or the
//!    per-chunk [`ChunkSummary`] against the sum of the reference's
//!    per-event decisions (chunked mode);
//! 2. final [`ControlStats`](rsc_control::ControlStats);
//! 3. exact per-kind transition counts and the full transition event log;
//! 4. a [`BranchSnapshot`](rsc_control::BranchSnapshot) for every branch the trace touched.
//!
//! The first mismatch aborts the run with a [`Divergence`] carrying the
//! event index (for the shrinker) and a human-readable detail string
//! (for the artifact).

use rsc_control::{
    ChunkSummary, ControllerParams, NullSink, Policy, ReactiveController, ReferenceController,
    ResilienceConfig, ShardedController, SpecDecision, TransitionKind,
};
use rsc_trace::rng::Xoshiro256;
use rsc_trace::{BranchId, BranchRecord};
use std::sync::Arc;

/// Largest chunk the chunked mode will slice off a trace. Small enough
/// that boundaries land inside monitoring windows, pending-deployment
/// intervals, and eviction bursts many times per trace.
pub const MAX_CHUNK: u64 = 13;

/// How the subject controller consumes the trace. The reference always
/// consumes it one event at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `ReactiveController::observe`, one record at a time.
    PerEvent,
    /// `ReactiveController::observe_chunk` over chunks of random length
    /// `1..=MAX_CHUNK`, derived deterministically from `seed`.
    Chunked {
        /// Seed for the chunk-length stream.
        seed: u64,
    },
    /// `ShardedController::observe_chunk` with `shards` worker shards,
    /// over the same random chunk layout as [`Mode::Chunked`]. Checks
    /// everything the sharded engine promises to merge bit-identically
    /// (summaries, stats, per-kind counts, snapshots); the ordered
    /// transition log is shard-local by design and is not compared.
    Sharded {
        /// Worker shard count (≥ 1).
        shards: usize,
        /// Seed for the chunk-length stream.
        seed: u64,
    },
}

impl Mode {
    /// Stable name for artifacts and progress output.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::PerEvent => "per-event",
            Mode::Chunked { .. } => "chunked",
            Mode::Sharded { .. } => "sharded",
        }
    }
}

/// One differential test case: who runs against whom, and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSpec {
    /// Parameters of the optimized controller under test.
    pub subject: ControllerParams,
    /// Parameters of the golden reference (the truth).
    pub reference: ControllerParams,
    /// How the subject consumes the trace.
    pub mode: Mode,
    /// Resilience layer attached to *both* controllers (each gets its own
    /// instance; the layer is deterministic, so identical configs keep
    /// the pair in lockstep). `None` runs the layerless legacy path.
    pub resilience: Option<ResilienceConfig>,
}

/// A detected behavioral difference between subject and reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first event at (or by) which the difference was
    /// observable; `trace.len()` for end-of-trace state differences. The
    /// shrinker uses this to truncate.
    pub index: usize,
    /// Human-readable description of what differed.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "divergence at event {}: {}", self.index, self.detail)
    }
}

/// Runs one differential case over `trace`.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
///
/// # Panics
///
/// Panics if either parameter set fails validation — campaign parameters
/// are constructed from validated presets.
pub fn run_case(spec: &CaseSpec, trace: &[BranchRecord]) -> Result<(), Divergence> {
    if let Mode::Sharded { shards, seed } = spec.mode {
        return run_sharded_case(spec, trace, shards, seed);
    }
    let mut subject = match spec.resilience {
        None => ReactiveController::builder(spec.subject)
            .build()
            .expect("subject params validate"),
        Some(c) => ReactiveController::builder(spec.subject)
            .resilience(c)
            .build()
            .expect("subject params validate"),
    };
    let mut reference = match spec.resilience {
        None => ReferenceController::new(spec.reference).expect("reference params validate"),
        Some(c) => ReferenceController::with_resilience(spec.reference, c)
            .expect("reference params validate"),
    };

    match spec.mode {
        Mode::PerEvent => {
            for (i, r) in trace.iter().enumerate() {
                let got = subject.observe(r);
                let want = reference.observe(r);
                if got != want {
                    return Err(Divergence {
                        index: i,
                        detail: format!(
                            "decision mismatch on branch {}: subject {got:?}, reference {want:?}",
                            r.branch.index()
                        ),
                    });
                }
            }
        }
        Mode::Chunked { seed } => {
            let mut sizes = Xoshiro256::seed_from(seed);
            let mut start = 0usize;
            while start < trace.len() {
                let len = (1 + sizes.gen_range(MAX_CHUNK)) as usize;
                let end = (start + len).min(trace.len());
                let got = subject.observe_chunk(&trace[start..end]);
                let mut want = ChunkSummary::default();
                for r in &trace[start..end] {
                    let d = reference.observe(r);
                    want.events += 1;
                    want.speculated += u64::from(d.speculated());
                    want.correct += u64::from(d == SpecDecision::Correct);
                    want.incorrect += u64::from(d == SpecDecision::Incorrect);
                }
                if got != want {
                    return Err(Divergence {
                        index: end - 1,
                        detail: format!(
                            "chunk summary mismatch over events {start}..{end}: \
                             subject {got:?}, reference {want:?}"
                        ),
                    });
                }
                start = end;
            }
        }
        Mode::Sharded { .. } => unreachable!("handled by run_sharded_case above"),
    }

    compare_final_state(&subject, &reference, trace).map_err(|detail| Divergence {
        index: trace.len(),
        detail,
    })
}

/// The sharded lockstep: the subject is a [`ShardedController`], fed the
/// same random chunk layout as [`Mode::Chunked`]; the reference stays
/// per-event. The sharded engine rejects the resilience layer, so a
/// [`CaseSpec`] pairing the two is a harness bug.
fn run_sharded_case(
    spec: &CaseSpec,
    trace: &[BranchRecord],
    shards: usize,
    seed: u64,
) -> Result<(), Divergence> {
    assert!(
        spec.resilience.is_none(),
        "sharded mode does not compose with the resilience layer"
    );
    let mut subject = ReactiveController::builder(spec.subject)
        .shards(shards)
        .build_sharded()
        .expect("subject params validate");
    let mut reference =
        ReferenceController::new(spec.reference).expect("reference params validate");

    let mut sizes = Xoshiro256::seed_from(seed);
    let mut start = 0usize;
    while start < trace.len() {
        let len = (1 + sizes.gen_range(MAX_CHUNK)) as usize;
        let end = (start + len).min(trace.len());
        let got = subject.observe_chunk(&trace[start..end]);
        let mut want = ChunkSummary::default();
        for r in &trace[start..end] {
            let d = reference.observe(r);
            want.events += 1;
            want.speculated += u64::from(d.speculated());
            want.correct += u64::from(d == SpecDecision::Correct);
            want.incorrect += u64::from(d == SpecDecision::Incorrect);
        }
        if got != want {
            return Err(Divergence {
                index: end - 1,
                detail: format!(
                    "sharded ({shards}) chunk summary mismatch over events {start}..{end}: \
                     subject {got:?}, reference {want:?}"
                ),
            });
        }
        start = end;
    }

    compare_sharded_final_state(&subject, &reference, trace).map_err(|detail| Divergence {
        index: trace.len(),
        detail,
    })
}

/// Final-state comparison for the sharded engine: everything the
/// deterministic merge covers. The ordered transition log is skipped —
/// `event_index` is a shard-local ordinal, which is per-shard semantics,
/// not a divergence.
fn compare_sharded_final_state(
    subject: &ShardedController,
    reference: &ReferenceController,
    trace: &[BranchRecord],
) -> Result<(), String> {
    let got = subject.stats();
    let want = reference.stats();
    if got != want {
        return Err(format!(
            "final stats mismatch: subject {got:?}, reference {want:?}"
        ));
    }

    for kind in TransitionKind::ALL {
        let got = subject.transition_count(kind);
        let want = reference.transition_count(kind);
        if got != want {
            return Err(format!(
                "transition count mismatch for {kind:?}: subject {got}, reference {want}"
            ));
        }
    }

    let max_branch = trace.iter().map(|r| r.branch.index()).max().unwrap_or(0);
    for b in 0..=max_branch {
        let id = BranchId::new(b as u32);
        let got = subject.branch_snapshot(id);
        let want = reference.branch_snapshot(id);
        if got != want {
            return Err(format!(
                "branch {b} snapshot mismatch: subject {got:?}, reference {want:?}"
            ));
        }
    }
    Ok(())
}

/// One differential case over the policy zoo: the subject consumes the
/// trace via `mode` under the named built-in [`Policy`]; the
/// reference is the *same policy* consumed one event at a time through
/// the full FSM alone (an attached event sink keeps it off the in-place
/// arms that the subject's `observe` and `observe_chunk` share, and,
/// unlike a metrics registry, adds nothing to the checkpoint bytes
/// compared at the end). For `"paper-fsm"` the reference is stronger —
/// the golden [`ReferenceController`] — so the paper policy is checked
/// against an independent implementation, not just against itself.
///
/// `subject_params` and `reference_params` are identical in conformance
/// mode; a campaign self-test passes faulted subject parameters.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
///
/// # Panics
///
/// Panics if `policy` is not a builtin id or the parameters fail
/// validation.
pub fn run_policy_case(
    policy: &'static str,
    subject_params: ControllerParams,
    reference_params: ControllerParams,
    mode: Mode,
    trace: &[BranchRecord],
) -> Result<(), Divergence> {
    if policy == "paper-fsm" {
        return run_case(
            &CaseSpec {
                subject: subject_params,
                reference: reference_params,
                mode,
                resilience: None,
            },
            trace,
        );
    }
    let build = |params: ControllerParams| {
        ReactiveController::builder(params)
            .policy(Policy::builtin(policy).expect("builtin policy id"))
    };
    let mut reference = build(reference_params)
        .event_sink(Arc::new(NullSink))
        .build()
        .expect("params validate");
    assert!(!reference.chunk_fast_path());

    match mode {
        Mode::PerEvent => {
            let mut subject = build(subject_params).build().expect("params validate");
            for (i, r) in trace.iter().enumerate() {
                let got = subject.observe(r);
                let want = reference.observe(r);
                if got != want {
                    return Err(Divergence {
                        index: i,
                        detail: format!(
                            "[{policy}] decision mismatch on branch {}: \
                             subject {got:?}, reference {want:?}",
                            r.branch.index()
                        ),
                    });
                }
            }
            compare_policy_final_state(policy, &subject, &reference, trace)
        }
        Mode::Chunked { seed } => {
            let mut subject = build(subject_params).build().expect("params validate");
            let mut sizes = Xoshiro256::seed_from(seed);
            let mut start = 0usize;
            while start < trace.len() {
                let len = (1 + sizes.gen_range(MAX_CHUNK)) as usize;
                let end = (start + len).min(trace.len());
                let got = subject.observe_chunk(&trace[start..end]);
                let want = reference_summary(&mut reference, &trace[start..end]);
                if got != want {
                    return Err(Divergence {
                        index: end - 1,
                        detail: format!(
                            "[{policy}] chunk summary mismatch over events {start}..{end}: \
                             subject {got:?}, reference {want:?}"
                        ),
                    });
                }
                start = end;
            }
            compare_policy_final_state(policy, &subject, &reference, trace)
        }
        Mode::Sharded { shards, seed } => {
            let mut subject = build(subject_params)
                .shards(shards)
                .build_sharded()
                .expect("params validate");
            let mut sizes = Xoshiro256::seed_from(seed);
            let mut start = 0usize;
            while start < trace.len() {
                let len = (1 + sizes.gen_range(MAX_CHUNK)) as usize;
                let end = (start + len).min(trace.len());
                let got = subject.observe_chunk(&trace[start..end]);
                let want = reference_summary(&mut reference, &trace[start..end]);
                if got != want {
                    return Err(Divergence {
                        index: end - 1,
                        detail: format!(
                            "[{policy}] sharded ({shards}) chunk summary mismatch over \
                             events {start}..{end}: subject {got:?}, reference {want:?}"
                        ),
                    });
                }
                start = end;
            }
            compare_policy_sharded_final_state(policy, &subject, &reference, trace).map_err(
                |detail| Divergence {
                    index: trace.len(),
                    detail,
                },
            )
        }
    }
}

/// Sums per-event reference decisions into the summary a chunked subject
/// must report.
fn reference_summary(reference: &mut ReactiveController, recs: &[BranchRecord]) -> ChunkSummary {
    let mut want = ChunkSummary::default();
    for r in recs {
        let d = reference.observe(r);
        want.events += 1;
        want.speculated += u64::from(d.speculated());
        want.correct += u64::from(d == SpecDecision::Correct);
        want.incorrect += u64::from(d == SpecDecision::Incorrect);
    }
    want
}

/// Final-state comparison for a same-policy pair of plain controllers:
/// stats, the full transition log, per-branch snapshots, and — the
/// strongest check — bit-identical checkpoint bytes.
fn compare_policy_final_state(
    policy: &str,
    subject: &ReactiveController,
    reference: &ReactiveController,
    trace: &[BranchRecord],
) -> Result<(), Divergence> {
    let err = |detail: String| Divergence {
        index: trace.len(),
        detail: format!("[{policy}] {detail}"),
    };
    if subject.stats() != reference.stats() {
        return Err(err(format!(
            "final stats mismatch: subject {:?}, reference {:?}",
            subject.stats(),
            reference.stats()
        )));
    }
    if subject.transitions() != reference.transitions() {
        return Err(err("transition log mismatch".to_string()));
    }
    let max_branch = trace.iter().map(|r| r.branch.index()).max().unwrap_or(0);
    for b in 0..=max_branch {
        let id = BranchId::new(b as u32);
        if subject.branch_snapshot(id) != reference.branch_snapshot(id) {
            return Err(err(format!("branch {b} snapshot mismatch")));
        }
    }
    if subject.snapshot() != reference.snapshot() {
        return Err(err("checkpoint bytes differ".to_string()));
    }
    Ok(())
}

/// Final-state comparison for a sharded subject against a same-policy
/// per-event reference — everything the deterministic merge covers.
fn compare_policy_sharded_final_state(
    policy: &str,
    subject: &ShardedController,
    reference: &ReactiveController,
    trace: &[BranchRecord],
) -> Result<(), String> {
    if subject.stats() != reference.stats() {
        return Err(format!(
            "[{policy}] final stats mismatch: subject {:?}, reference {:?}",
            subject.stats(),
            reference.stats()
        ));
    }
    for kind in TransitionKind::ALL {
        let got = subject.transition_count(kind);
        let want = reference.transition_log().count(kind);
        if got != want {
            return Err(format!(
                "[{policy}] transition count mismatch for {kind:?}: \
                 subject {got}, reference {want}"
            ));
        }
    }
    let max_branch = trace.iter().map(|r| r.branch.index()).max().unwrap_or(0);
    for b in 0..=max_branch {
        let id = BranchId::new(b as u32);
        if subject.branch_snapshot(id) != reference.branch_snapshot(id) {
            return Err(format!("[{policy}] branch {b} snapshot mismatch"));
        }
    }
    Ok(())
}

/// Compares everything that should be identical once the trace is fully
/// consumed. Returns a description of the first mismatch.
fn compare_final_state(
    subject: &ReactiveController,
    reference: &ReferenceController,
    trace: &[BranchRecord],
) -> Result<(), String> {
    let got = subject.stats();
    let want = reference.stats();
    if got != want {
        return Err(format!(
            "final stats mismatch: subject {got:?}, reference {want:?}"
        ));
    }

    for kind in TransitionKind::ALL {
        let got = subject.transition_log().count(kind);
        let want = reference.transition_count(kind);
        if got != want {
            return Err(format!(
                "transition count mismatch for {kind:?}: subject {got}, reference {want}"
            ));
        }
    }
    if subject.transitions() != reference.transitions() {
        let (got, want) = (subject.transitions(), reference.transitions());
        let i = got
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(want.len()));
        return Err(format!(
            "transition log mismatch at entry {i}: subject {:?}, reference {:?}",
            got.get(i),
            want.get(i)
        ));
    }

    let max_branch = trace.iter().map(|r| r.branch.index()).max().unwrap_or(0);
    for b in 0..=max_branch {
        let id = BranchId::new(b as u32);
        let got = subject.branch_snapshot(id);
        let want = reference.branch_snapshot(id);
        if got != want {
            return Err(format!(
                "branch {b} snapshot mismatch: subject {got:?}, reference {want:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use rsc_trace::Scenario;

    fn tiny() -> ControllerParams {
        let mut p = ControllerParams::scaled();
        p.monitor_period = 10;
        p.eviction = rsc_control::EvictionMode::Counter {
            up: 50,
            down: 1,
            threshold: 100,
        };
        p.revisit = rsc_control::Revisit::After(20);
        p.oscillation_limit = Some(3);
        p.optimization_latency = 0;
        p
    }

    fn conforming(mode: Mode) -> CaseSpec {
        CaseSpec {
            subject: tiny(),
            reference: tiny(),
            mode,
            resilience: None,
        }
    }

    fn storm_config() -> ResilienceConfig {
        use rsc_control::resilience::{
            BreakerConfig, DeployerSpec, FaultMode, FaultScope, FaultSpec, RetryPolicy,
        };
        ResilienceConfig {
            deployer: DeployerSpec::Faulty(FaultSpec {
                seed: 23,
                mode: FaultMode::FixedRate { per_mille: 400 },
                scope: FaultScope::All,
                wasted: 12,
            }),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: 20,
                max_backoff: 80,
            },
            breaker: Some(BreakerConfig {
                bucket_events: 40,
                buckets: 3,
                open_threshold: 0.12,
                close_threshold: 0.04,
                cooldown_events: 80,
                probe_events: 50,
                mass_evict_top_k: 2,
            }),
        }
    }

    #[test]
    fn identical_params_never_diverge() {
        let trace = Scenario::PhaseFlip {
            branches: 3,
            flip_after: 40,
        }
        .generate(4_000, 17);
        run_case(&conforming(Mode::PerEvent), &trace).unwrap();
        run_case(&conforming(Mode::Chunked { seed: 9 }), &trace).unwrap();
    }

    #[test]
    fn hysteresis_fault_diverges_per_event() {
        let spec = CaseSpec {
            subject: Fault::HysteresisOffByOne.apply(tiny()),
            reference: tiny(),
            mode: Mode::PerEvent,
            resilience: None,
        };
        let trace = Scenario::HysteresisStraddle {
            warmup: 10,
            period: 2,
        }
        .generate(4_000, 3);
        let div = run_case(&spec, &trace).unwrap_err();
        assert!(div.index < trace.len(), "should diverge mid-stream");
    }

    #[test]
    fn monitor_fault_diverges_chunked() {
        let spec = CaseSpec {
            subject: Fault::MonitorWindowOffByOne.apply(tiny()),
            reference: tiny(),
            mode: Mode::Chunked { seed: 5 },
            resilience: None,
        };
        let trace = Scenario::ThresholdOscillator { window: 10 }.generate(4_000, 3);
        run_case(&spec, &trace).unwrap_err();
    }

    #[test]
    fn resilient_pair_never_diverges() {
        // Faults, retries, force-disables, breaker trips, and mass
        // evictions all fire on this workload; the optimized and
        // reference controllers must stay in lockstep through all of it,
        // in both consumption modes.
        let trace = Scenario::PhaseFlip {
            branches: 4,
            flip_after: 60,
        }
        .generate(6_000, 29);
        for mode in [Mode::PerEvent, Mode::Chunked { seed: 3 }] {
            let spec = CaseSpec {
                resilience: Some(storm_config()),
                ..conforming(mode)
            };
            run_case(&spec, &trace).unwrap();
        }
    }

    #[test]
    fn resilient_faulty_subject_still_diverges() {
        // The layer must not mask real controller bugs: an injected
        // off-by-one still produces a divergence under resilience.
        let spec = CaseSpec {
            subject: Fault::HysteresisOffByOne.apply(tiny()),
            reference: tiny(),
            mode: Mode::PerEvent,
            resilience: Some(storm_config()),
        };
        let trace = Scenario::HysteresisStraddle {
            warmup: 10,
            period: 2,
        }
        .generate(4_000, 3);
        run_case(&spec, &trace).unwrap_err();
    }

    #[test]
    fn chunk_layout_is_a_pure_function_of_the_seed() {
        let trace = Scenario::UniformRandom { branches: 6 }.generate(2_000, 8);
        let spec = conforming(Mode::Chunked { seed: 77 });
        assert_eq!(run_case(&spec, &trace), run_case(&spec, &trace));
    }

    #[test]
    fn sharded_lockstep_never_diverges_for_any_shard_count() {
        let trace = Scenario::PhaseFlip {
            branches: 6,
            flip_after: 40,
        }
        .generate(4_000, 17);
        for shards in 1..=8 {
            run_case(&conforming(Mode::Sharded { shards, seed: 9 }), &trace)
                .unwrap_or_else(|d| panic!("{shards} shards: {d}"));
        }
    }

    #[test]
    fn sharded_mode_still_catches_injected_faults() {
        let spec = CaseSpec {
            subject: Fault::HysteresisOffByOne.apply(tiny()),
            reference: tiny(),
            mode: Mode::Sharded { shards: 4, seed: 5 },
            resilience: None,
        };
        let trace = Scenario::HysteresisStraddle {
            warmup: 10,
            period: 2,
        }
        .generate(4_000, 3);
        run_case(&spec, &trace).unwrap_err();
    }
}
