//! Lockstep differential execution of an optimized controller against
//! its reference.
//!
//! A [`CaseSpec`] names the subject's parameters, the reference's
//! parameters (identical unless a [`Fault`](crate::fault::Fault) was
//! injected), the [`Policy`] both run, and the execution [`Mode`].
//! [`run_case`] then feeds one trace to both controllers and checks, in
//! order:
//!
//! 1. the per-event [`SpecDecision`] stream (per-event mode) or the
//!    per-chunk [`ChunkSummary`] against the sum of the reference's
//!    per-event decisions (chunked and sharded modes);
//! 2. final [`ControlStats`];
//! 3. exact per-kind transition counts and, for a plain subject, the
//!    ordered transition event log;
//! 4. a [`BranchSnapshot`] for every branch the trace touched;
//! 5. when both sides are plain [`ReactiveController`]s, the checkpoint
//!    bytes.
//!
//! The first mismatch aborts the run with a [`Divergence`] carrying the
//! event index (for the shrinker) and a human-readable detail string
//! (for the artifact).

use rsc_control::{
    BranchSnapshot, ChunkSummary, ControlStats, ControllerCheckpoint, ControllerParams, NullSink,
    Policy, ReactiveController, ReferenceController, ResilienceConfig, ShardedController,
    SpecDecision, TransitionEvent, TransitionKind,
};
use rsc_trace::rng::Xoshiro256;
use rsc_trace::{BranchId, BranchRecord};
use std::ops::Range;
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

    /// The chunk layout the subject consumes `len` events in: single
    /// events per-event, random lengths in `1..=MAX_CHUNK` otherwise.
    fn chunks(self, len: usize) -> impl Iterator<Item = Range<usize>> {
        let mut sizes = match self {
            Mode::PerEvent => None,
            Mode::Chunked { seed } | Mode::Sharded { seed, .. } => {
                Some(Xoshiro256::seed_from(seed))
            }
        };
        let mut start = 0;
        std::iter::from_fn(move || {
            let step = sizes
                .as_mut()
                .map_or(1, |s| 1 + s.gen_range(MAX_CHUNK) as usize);
            let chunk = start..(start + step).min(len);
            start = chunk.end;
            (!chunk.is_empty()).then_some(chunk)
        })
    }
}

/// One differential test case: who runs against whom, and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSpec {
    /// Parameters of the optimized controller under test.
    pub subject: ControllerParams,
    /// Parameters of the reference (the truth).
    pub reference: ControllerParams,
    /// How the subject consumes the trace.
    pub mode: Mode,
    /// Resilience layer attached to *both* controllers (each gets its own
    /// instance; the layer is deterministic, so identical configs keep
    /// the pair in lockstep). `None` runs the layerless legacy path. The
    /// sharded engine rejects the layer, so pairing it with
    /// [`Mode::Sharded`] is a harness bug.
    pub resilience: Option<ResilienceConfig>,
    /// The policy both sides run. [`Policy::PaperFsm`] is held to the
    /// golden [`ReferenceController`], an independent implementation;
    /// any other policy to a [`ReactiveController`] of the same policy
    /// that consumes every event through the full FSM.
    pub policy: Policy,
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
/// are constructed from validated presets — or if a sharded subject is
/// given a resilience layer.
pub fn run_case(spec: &CaseSpec, trace: &[BranchRecord]) -> Result<(), Divergence> {
    let build = |params| {
        let builder = ReactiveController::builder(params).policy(spec.policy);
        match spec.resilience {
            Some(c) => builder.resilience(c),
            None => builder,
        }
    };
    let mut reference: Box<dyn Side> = match spec.policy {
        Policy::PaperFsm => Box::new(
            match spec.resilience {
                None => ReferenceController::new(spec.reference),
                Some(c) => ReferenceController::with_resilience(spec.reference, c),
            }
            .expect("reference params validate"),
        ),
        // An attached event sink keeps the reference off the in-place
        // arms that the subject's `observe` and `observe_chunk` share,
        // and, unlike a metrics registry, adds nothing to the checkpoint
        // bytes compared at the end.
        _ => {
            let full_fsm = build(spec.reference)
                .event_sink(Arc::new(NullSink))
                .build()
                .expect("reference params validate");
            assert!(!full_fsm.chunk_fast_path());
            Box::new(full_fsm)
        }
    };
    let mut subject: Box<dyn Side> = match spec.mode {
        Mode::Sharded { shards, .. } => Box::new(
            build(spec.subject)
                .shards(shards)
                .build_sharded()
                .expect("sharded subject builds"),
        ),
        _ => Box::new(
            build(spec.subject)
                .build()
                .expect("subject params validate"),
        ),
    };

    for chunk in spec.mode.chunks(trace.len()) {
        let recs = &trace[chunk.clone()];
        if spec.mode == Mode::PerEvent {
            let r = &recs[0];
            let (got, want) = (subject.observe(r), reference.observe(r));
            if got != want {
                return Err(Divergence {
                    index: chunk.start,
                    detail: format!(
                        "decision mismatch on branch {}: subject {got:?}, reference {want:?}",
                        r.branch.index()
                    ),
                });
            }
        } else {
            let got = subject.observe_chunk(recs);
            let want = reference.observe_each(recs);
            if got != want {
                return Err(Divergence {
                    index: chunk.end - 1,
                    detail: format!(
                        "chunk summary mismatch over events {chunk:?}: \
                         subject {got:?}, reference {want:?}"
                    ),
                });
            }
        }
    }

    compare_final_state(&*subject, &*reference, trace).map_err(|detail| Divergence {
        index: trace.len(),
        detail,
    })
}

/// Either side of a lockstep, as [`run_case`] drives and compares it.
trait Side {
    fn observe(&mut self, r: &BranchRecord) -> SpecDecision;
    /// The fast path under test; the reference is never asked.
    fn observe_chunk(&mut self, recs: &[BranchRecord]) -> ChunkSummary;
    fn stats(&self) -> ControlStats;
    fn kind_count(&self, kind: TransitionKind) -> u64;
    /// The ordered transition log; `None` for a sharded controller, whose
    /// `event_index` is a shard-local ordinal.
    fn log(&self) -> Option<&[TransitionEvent]>;
    fn branch(&self, id: BranchId) -> BranchSnapshot;
    /// Checkpoint bytes, which only a plain controller writes.
    fn checkpoint(&self) -> Option<ControllerCheckpoint>;

    /// The summary a chunked subject must report: the per-event
    /// decisions over `recs`, summed.
    fn observe_each(&mut self, recs: &[BranchRecord]) -> ChunkSummary {
        let mut sum = ChunkSummary::default();
        for r in recs {
            let d = self.observe(r);
            sum.events += 1;
            sum.speculated += u64::from(d.speculated());
            sum.correct += u64::from(d == SpecDecision::Correct);
            sum.incorrect += u64::from(d == SpecDecision::Incorrect);
        }
        sum
    }
}

impl Side for ReactiveController {
    fn observe(&mut self, r: &BranchRecord) -> SpecDecision {
        ReactiveController::observe(self, r)
    }
    fn observe_chunk(&mut self, recs: &[BranchRecord]) -> ChunkSummary {
        ReactiveController::observe_chunk(self, recs)
    }
    fn stats(&self) -> ControlStats {
        ReactiveController::stats(self)
    }
    fn kind_count(&self, kind: TransitionKind) -> u64 {
        self.transition_log().count(kind)
    }
    fn log(&self) -> Option<&[TransitionEvent]> {
        Some(self.transitions())
    }
    fn branch(&self, id: BranchId) -> BranchSnapshot {
        self.branch_snapshot(id)
    }
    fn checkpoint(&self) -> Option<ControllerCheckpoint> {
        Some(self.snapshot())
    }
}

impl Side for ShardedController {
    fn observe(&mut self, r: &BranchRecord) -> SpecDecision {
        ShardedController::observe(self, r)
    }
    fn observe_chunk(&mut self, recs: &[BranchRecord]) -> ChunkSummary {
        ShardedController::observe_chunk(self, recs)
    }
    fn stats(&self) -> ControlStats {
        ShardedController::stats(self)
    }
    fn kind_count(&self, kind: TransitionKind) -> u64 {
        self.transition_count(kind)
    }
    fn log(&self) -> Option<&[TransitionEvent]> {
        None
    }
    fn branch(&self, id: BranchId) -> BranchSnapshot {
        self.branch_snapshot(id)
    }
    fn checkpoint(&self) -> Option<ControllerCheckpoint> {
        None
    }
}

impl Side for ReferenceController {
    fn observe(&mut self, r: &BranchRecord) -> SpecDecision {
        ReferenceController::observe(self, r)
    }
    fn observe_chunk(&mut self, recs: &[BranchRecord]) -> ChunkSummary {
        self.observe_each(recs)
    }
    fn stats(&self) -> ControlStats {
        ReferenceController::stats(self)
    }
    fn kind_count(&self, kind: TransitionKind) -> u64 {
        self.transition_count(kind)
    }
    fn log(&self) -> Option<&[TransitionEvent]> {
        Some(self.transitions())
    }
    fn branch(&self, id: BranchId) -> BranchSnapshot {
        self.branch_snapshot(id)
    }
    fn checkpoint(&self) -> Option<ControllerCheckpoint> {
        None
    }
}

/// Compares everything that should be identical once the trace is fully
/// consumed. Returns a description of the first mismatch.
fn compare_final_state(
    subject: &dyn Side,
    reference: &dyn Side,
    trace: &[BranchRecord],
) -> Result<(), String> {
    let (got, want) = (subject.stats(), reference.stats());
    if got != want {
        return Err(format!(
            "final stats mismatch: subject {got:?}, reference {want:?}"
        ));
    }

    for kind in TransitionKind::ALL {
        let (got, want) = (subject.kind_count(kind), reference.kind_count(kind));
        if got != want {
            return Err(format!(
                "transition count mismatch for {kind:?}: subject {got}, reference {want}"
            ));
        }
    }
    if let (Some(got), Some(want)) = (subject.log(), reference.log()) {
        if got != want {
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
    }

    let max_branch = trace.iter().map(|r| r.branch.index()).max().unwrap_or(0);
    for b in 0..=max_branch {
        let id = BranchId::new(b as u32);
        let (got, want) = (subject.branch(id), reference.branch(id));
        if got != want {
            return Err(format!(
                "branch {b} snapshot mismatch: subject {got:?}, reference {want:?}"
            ));
        }
    }

    if let Some(want) = reference.checkpoint() {
        if subject.checkpoint().is_some_and(|got| got != want) {
            return Err("checkpoint bytes differ".to_string());
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
            policy: Policy::PaperFsm,
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
            policy: Policy::PaperFsm,
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
            policy: Policy::PaperFsm,
        };
        let trace = Scenario::ThresholdOscillator { window: 10 }.generate(4_000, 3);
        run_case(&spec, &trace).unwrap_err();
    }

    #[test]
    fn monitor_fault_diverges_for_every_policy_and_mode() {
        let trace = Scenario::ThresholdOscillator { window: 10 }.generate(4_000, 3);
        for id in rsc_control::BUILTIN_POLICY_IDS {
            for mode in [
                Mode::PerEvent,
                Mode::Chunked { seed: 5 },
                Mode::Sharded { shards: 3, seed: 5 },
            ] {
                let spec = CaseSpec {
                    subject: Fault::MonitorWindowOffByOne.apply(tiny()),
                    policy: Policy::builtin(id).unwrap(),
                    ..conforming(mode)
                };
                assert!(run_case(&spec, &trace).is_err(), "{id} {mode:?}");
            }
        }
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
            policy: Policy::PaperFsm,
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
            policy: Policy::PaperFsm,
        };
        let trace = Scenario::HysteresisStraddle {
            warmup: 10,
            period: 2,
        }
        .generate(4_000, 3);
        run_case(&spec, &trace).unwrap_err();
    }
}
