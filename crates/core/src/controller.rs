//! The reactive speculation controller (the paper's Figure 4(b) model).
//!
//! Each static branch moves through a three-state machine:
//!
//! ```text
//!              bias >= threshold            misspec counter trips
//!   Monitor ─────────────────────► Biased ──────────────────────┐
//!      ▲  │                                                      │
//!      │  │ bias < threshold                 (eviction arc)      │
//!      │  ▼                                                      │
//!   Unbiased ◄───────────────────────────────────────────────────┘
//!      │        revisit arc: after the wait period,
//!      └──────► back to Monitor
//! ```
//!
//! Transitions into and out of the biased state deploy new code and are
//! therefore subject to the optimization latency: after selection, the
//! branch keeps running unoptimized code until the latency elapses; after
//! eviction, speculation (and its misspeculations) continue until the
//! repaired code is deployed.

use crate::observe::{MetricsRegistry, Telemetry};
use crate::params::{ControllerParams, Revisit};
use crate::policy::{Eviction, MonitorCounts, Policy, SpecChoice};
use crate::resilience::breaker::BreakerSignal;
use crate::resilience::deployer::{DeployKind, DeployOutcome, DeployRequest};
use crate::resilience::{ResilienceConfig, ResilienceState, BREAKER_BRANCH};
use crate::stats::ControlStats;
use crate::translog::TransitionLog;
use rsc_trace::{BranchId, BranchRecord, Direction};

/// What the controller did with one dynamic branch execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecDecision {
    /// The branch was not speculated (monitor/unbiased/disabled/pending
    /// deployment).
    NotSpeculated,
    /// Speculated and the outcome matched.
    Correct,
    /// Speculated and the outcome did not match.
    Incorrect,
}

impl SpecDecision {
    /// Returns `true` for [`SpecDecision::Correct`] or
    /// [`SpecDecision::Incorrect`].
    pub fn speculated(self) -> bool {
        !matches!(self, SpecDecision::NotSpeculated)
    }
}

/// Kinds of classification transitions the controller logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// Monitor decided the branch is biased (re-optimization requested).
    EnterBiased,
    /// The eviction policy fired (repair requested).
    ExitBiased,
    /// Monitor decided the branch is not biased.
    EnterUnbiased,
    /// The wait period elapsed; the branch returned to the monitor state.
    RevisitMonitor,
    /// The oscillation cap fired; the branch was permanently disabled.
    Disabled,
    /// A deployment request failed (resilience layer; logged per failed
    /// attempt, first tries and retries alike).
    DeployFailed,
    /// Repair retries ran out; the branch was force-disabled so it is
    /// never left speculating a stale assumption (resilience layer).
    ForcedDisable,
    /// Optimize retries ran out; the enter decision was abandoned and
    /// the branch returned to the unbiased state (resilience layer).
    EnterAbandoned,
    /// The storm breaker opened (global; branch is the
    /// [`BREAKER_BRANCH`] sentinel).
    BreakerOpened,
    /// The storm breaker half-opened to probe recovery (global).
    BreakerHalfOpen,
    /// The storm breaker closed after a healthy probe (global).
    BreakerClosed,
}

impl TransitionKind {
    /// Every kind, in `index` order (used by counter arrays).
    pub const ALL: [TransitionKind; 11] = [
        TransitionKind::EnterBiased,
        TransitionKind::ExitBiased,
        TransitionKind::EnterUnbiased,
        TransitionKind::RevisitMonitor,
        TransitionKind::Disabled,
        TransitionKind::DeployFailed,
        TransitionKind::ForcedDisable,
        TransitionKind::EnterAbandoned,
        TransitionKind::BreakerOpened,
        TransitionKind::BreakerHalfOpen,
        TransitionKind::BreakerClosed,
    ];

    /// Dense index of this kind within [`TransitionKind::ALL`].
    pub const fn index(self) -> usize {
        match self {
            TransitionKind::EnterBiased => 0,
            TransitionKind::ExitBiased => 1,
            TransitionKind::EnterUnbiased => 2,
            TransitionKind::RevisitMonitor => 3,
            TransitionKind::Disabled => 4,
            TransitionKind::DeployFailed => 5,
            TransitionKind::ForcedDisable => 6,
            TransitionKind::EnterAbandoned => 7,
            TransitionKind::BreakerOpened => 8,
            TransitionKind::BreakerHalfOpen => 9,
            TransitionKind::BreakerClosed => 10,
        }
    }

    /// Stable snake_case name used in metric labels and JSONL events.
    pub const fn name(self) -> &'static str {
        match self {
            TransitionKind::EnterBiased => "enter_biased",
            TransitionKind::ExitBiased => "exit_biased",
            TransitionKind::EnterUnbiased => "enter_unbiased",
            TransitionKind::RevisitMonitor => "revisit_monitor",
            TransitionKind::Disabled => "disabled",
            TransitionKind::DeployFailed => "deploy_failed",
            TransitionKind::ForcedDisable => "forced_disable",
            TransitionKind::EnterAbandoned => "enter_abandoned",
            TransitionKind::BreakerOpened => "breaker_opened",
            TransitionKind::BreakerHalfOpen => "breaker_half_open",
            TransitionKind::BreakerClosed => "breaker_closed",
        }
    }
}

/// One logged transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionEvent {
    /// The branch that transitioned.
    pub branch: BranchId,
    /// What happened.
    pub kind: TransitionKind,
    /// Global dynamic branch-event index at the decision.
    pub event_index: u64,
    /// Dynamic instruction count at the decision.
    pub instr: u64,
    /// The speculated direction, for enter/exit-biased transitions.
    pub direction: Option<Direction>,
}

/// Externally comparable view of the eviction bookkeeping inside the
/// biased state (see [`BranchStateView`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerView {
    /// Hysteresis-counter eviction: the current counter value.
    Counter {
        /// Saturating counter value in `[0, threshold]`.
        value: u32,
    },
    /// Sampled eviction: position within the current period.
    Sampling {
        /// Executions into the current sampling period.
        pos: u64,
        /// Sampled executions that matched the speculated direction.
        matched: u64,
        /// Executions sampled so far this period.
        sampled: u64,
    },
    /// Eviction disabled.
    Never,
}

/// Externally comparable view of one branch's FSM state.
///
/// This is the observable content of the controller's per-branch state:
/// two controller implementations agree on a branch exactly when their
/// views are equal. The differential conformance harness
/// (`rsc-conformance`) compares these between [`ReactiveController`] and
/// the golden [`ReferenceController`](crate::reference::ReferenceController).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchStateView {
    /// Monitoring: the window counters accumulated so far.
    Monitor {
        /// Executions observed in this monitor window.
        execs: u64,
        /// Executions sampled (equal to `execs` at sample rate 1).
        samples: u64,
        /// Sampled executions that were taken.
        taken: u64,
    },
    /// Selected, waiting for the optimized code to deploy.
    PendingBiased {
        /// Instruction count at which the new code goes live.
        deadline: u64,
        /// The speculated direction.
        dir: Direction,
    },
    /// Speculating.
    Biased {
        /// The speculated direction.
        dir: Direction,
        /// Eviction bookkeeping.
        tracker: TrackerView,
    },
    /// Evicted, stale speculative code still running until the deadline.
    PendingMonitor {
        /// Instruction count at which the repaired code goes live.
        deadline: u64,
        /// The direction the stale code still speculates.
        dir: Direction,
    },
    /// Classified unbiased; counting down to the revisit (if any).
    Unbiased {
        /// Executions left before re-monitoring (`None` = never).
        remaining: Option<u64>,
    },
    /// Permanently disabled by the oscillation cap.
    Disabled,
    /// Selected, but the optimize deployment failed; waiting out the
    /// backoff before retrying. The branch runs unoptimized code
    /// (resilience layer).
    RetryBiased {
        /// Instruction count at which the next attempt is issued.
        next: u64,
        /// The direction the optimized code will speculate.
        dir: Direction,
        /// Failed attempts so far.
        attempt: u32,
    },
    /// Evicted, but the repair deployment failed; the stale speculative
    /// code keeps running (and misspeculating) until a retry lands or
    /// the branch is force-disabled (resilience layer).
    RetryMonitor {
        /// Instruction count at which the next attempt is issued.
        next: u64,
        /// The direction the stale code still speculates.
        dir: Direction,
        /// Failed attempts so far.
        attempt: u32,
    },
}

/// Full externally comparable snapshot of one branch: FSM state plus the
/// lifetime counters that feed [`ControlStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchSnapshot {
    /// The FSM state.
    pub state: BranchStateView,
    /// Lifetime entries into the biased state.
    pub entries: u32,
    /// Entries since the last flush (what the oscillation cap counts).
    pub entries_since_flush: u32,
    /// Lifetime evictions from the biased state.
    pub evictions: u32,
    /// Dynamic executions observed.
    pub execs: u64,
}

impl BranchSnapshot {
    /// The snapshot of a branch that has never executed: a fresh monitor
    /// state with zeroed counters.
    pub fn untouched() -> Self {
        BranchSnapshot {
            state: BranchStateView::Monitor {
                execs: 0,
                samples: 0,
                taken: 0,
            },
            entries: 0,
            entries_since_flush: 0,
            evictions: 0,
            execs: 0,
        }
    }
}

/// One branch's eviction bookkeeping inside the biased state: the numbers
/// the controller's [`Eviction`] rule updates. Which fields are live is
/// fixed per controller by that rule, so the branch stores no rule of its
/// own: a counter rule keeps its value in `value`; a sampling rule keeps
/// its position in the period there, plus `matched` and `sampled`; the
/// open loop keeps nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EvictTracker {
    /// Counter value, or executions into the current sampling period.
    pub(crate) value: u32,
    /// Correct speculations among this period's samples.
    pub(crate) matched: u32,
    /// Samples taken this period.
    pub(crate) sampled: u32,
}

/// [`State::Unbiased`]'s `remaining` for a branch that never revisits.
/// [`ControllerParams::validate`] refuses `Revisit::After(u64::MAX)`, so
/// no countdown starts at this value.
pub(crate) const NEVER_REVISIT: u64 = u64::MAX;

/// `remaining` of a [`State::Unbiased`] branch as the countdown it
/// stands for: `None` never revisits.
pub(crate) fn revisit_countdown(remaining: u64) -> Option<u64> {
    (remaining != NEVER_REVISIT).then_some(remaining)
}

/// Per-branch controller state: 16 bytes. The monitor counts fit `u32`
/// because [`ControllerParams::validate`] bounds every monitor window.
#[derive(Debug, Clone)]
pub(crate) enum State {
    Monitor {
        execs: u32,
        samples: u32,
        taken: u32,
    },
    PendingBiased {
        deadline: u64,
        dir: Direction,
    },
    Biased {
        dir: Direction,
        tracker: EvictTracker,
    },
    PendingMonitor {
        deadline: u64,
        dir: Direction,
    },
    /// Executions left before the revisit, or [`NEVER_REVISIT`].
    Unbiased {
        remaining: u64,
    },
    Disabled,
    RetryBiased {
        next: u64,
        dir: Direction,
        attempt: u32,
    },
    RetryMonitor {
        next: u64,
        dir: Direction,
        attempt: u32,
    },
}

impl State {
    pub(crate) fn fresh_monitor() -> State {
        State::Monitor {
            execs: 0,
            samples: 0,
            taken: 0,
        }
    }

    /// The unbiased parking state per the revisit policy.
    fn unbiased(revisit: Revisit) -> State {
        State::Unbiased {
            remaining: match revisit {
                Revisit::After(n) => n,
                Revisit::Never => NEVER_REVISIT,
            },
        }
    }
}

/// The state a branch moves to once a `kind` deployment for `dir`,
/// requested at instruction `instr`, succeeds: the new code, or a wait for
/// it while the optimization latency elapses.
fn deployed(
    kind: DeployKind,
    dir: Direction,
    instr: u64,
    params: &ControllerParams,
    eviction: &Eviction,
) -> State {
    let latency = params.optimization_latency;
    match kind {
        DeployKind::Optimize if latency == 0 => State::Biased {
            dir,
            tracker: eviction.start(),
        },
        DeployKind::Optimize => State::PendingBiased {
            deadline: instr + latency,
            dir,
        },
        DeployKind::Repair if latency == 0 => State::fresh_monitor(),
        DeployKind::Repair => State::PendingMonitor {
            deadline: instr + latency,
            dir,
        },
    }
}

/// One branch slot of a controller: 40 bytes, so that the seven
/// controllers of a sensitivity study fit side by side on one stream.
/// What the controller already knows (the counter shape, the eviction
/// rule) is kept once per controller, and the storm breaker's per-branch
/// miss ranks live in the resilience layer.
#[derive(Debug, Clone)]
pub(crate) struct BranchCtl {
    pub(crate) state: State,
    /// Lifetime entries into the biased state (statistics).
    pub(crate) entries: u32,
    /// Entries since the last flush (what the oscillation cap counts).
    pub(crate) entries_since_flush: u32,
    pub(crate) evictions: u32,
    pub(crate) execs: u64,
}

const _: () = assert!(std::mem::size_of::<State>() <= 16);
const _: () = assert!(std::mem::size_of::<BranchCtl>() <= 40);

impl BranchCtl {
    pub(crate) fn new() -> Self {
        BranchCtl {
            state: State::fresh_monitor(),
            entries: 0,
            entries_since_flush: 0,
            evictions: 0,
            execs: 0,
        }
    }
}

/// The reactive controller: one FSM per static branch plus global
/// statistics and a transition log.
///
/// Construct with [`ReactiveController::builder`] — the only
/// construction path. The decision rules (classification, eviction
/// parametrization, biased-state updates) come from the builder's
/// [`Policy`] (default: the paper-exact [`Policy::PaperFsm`]); everything
/// else — deployment latency, retries, the oscillation cap, the revisit
/// arc, telemetry — is policy-independent environment owned by the
/// controller.
///
/// # Examples
///
/// ```
/// use rsc_control::prelude::*;
/// use rsc_trace::{spec2000, InputId};
///
/// let pop = spec2000::benchmark("gzip").unwrap().population(200_000);
/// let mut ctl = ReactiveController::builder(ControllerParams::scaled()).build()?;
/// for r in pop.trace(InputId::Eval, 200_000, 1) {
///     ctl.observe(&r);
/// }
/// let stats = ctl.stats();
/// assert!(stats.correct > stats.incorrect);
/// # Ok::<(), InvalidParamsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReactiveController {
    pub(crate) params: ControllerParams,
    pub(crate) branches: Vec<BranchCtl>,
    pub(crate) log: TransitionLog,
    pub(crate) counters: Counters,
    /// Opt-in resilience layer. `None` keeps the controller bit-identical
    /// to the pre-resilience implementation (and on the allocation-free
    /// chunked fast path).
    pub(crate) resilience: Option<ResilienceState>,
    /// Opt-in observability (metrics registry and/or event sink),
    /// assembled by the builder. `None` keeps the disabled fast path a
    /// single pointer-sized check.
    pub(crate) telemetry: Option<Box<Telemetry>>,
    /// The decision rules: stateless configuration (all mutable
    /// per-branch state lives in [`BranchCtl`]).
    pub(crate) policy: Policy,
    /// `policy.evict(&params)`, kept once for every branch.
    pub(crate) eviction: Eviction,
}

/// The controller's global counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    /// Dynamic branch events observed.
    pub(crate) events: u64,
    /// The largest instruction count seen.
    pub(crate) instructions: u64,
    /// Correct speculations.
    pub(crate) correct: u64,
    /// Misspeculations.
    pub(crate) incorrect: u64,
}

impl Counters {
    /// Counts one execution of live or stale speculative code that
    /// speculates `dir`.
    #[inline(always)]
    fn speculate(&mut self, dir: Direction, taken: bool) -> SpecDecision {
        if dir.matches(taken) {
            self.correct += 1;
            SpecDecision::Correct
        } else {
            self.incorrect += 1;
            SpecDecision::Incorrect
        }
    }

    /// What happened between `start` and these counters.
    fn since(&self, start: Counters) -> ChunkSummary {
        let correct = self.correct - start.correct;
        let incorrect = self.incorrect - start.incorrect;
        ChunkSummary {
            events: self.events - start.events,
            speculated: correct + incorrect,
            correct,
            incorrect,
        }
    }
}

/// One execution on a branch in a steady state, handled in place: the
/// disabled state, an unbiased countdown short of the revisit, monitoring
/// that cannot classify, and speculation under any eviction rule
/// (including the eviction itself). Returns `None`, touching nothing, when
/// the full FSM must run. Only valid without resilience or telemetry,
/// whose hooks it skips.
#[inline(always)]
fn step_in_place(
    b: &mut BranchCtl,
    r: &BranchRecord,
    params: &ControllerParams,
    policy: Policy,
    eviction: &Eviction,
    c: &mut Counters,
    log: &mut TransitionLog,
) -> Option<SpecDecision> {
    let mut evict = None;
    let decision = match &mut b.state {
        State::Disabled
        | State::Unbiased {
            remaining: NEVER_REVISIT,
        } => SpecDecision::NotSpeculated,
        State::Unbiased { remaining } if *remaining > 1 => {
            *remaining -= 1;
            SpecDecision::NotSpeculated
        }
        State::Monitor {
            execs,
            samples,
            taken,
        } if policy
            .keeps_monitoring(MonitorCounts::from_window(*execs, *samples, *taken), params) =>
        {
            let rate = params.monitor_sample_rate;
            if rate == 1 || u64::from(*execs) % rate == 0 {
                *samples += 1;
                *taken += u32::from(r.taken);
            }
            *execs += 1;
            SpecDecision::NotSpeculated
        }
        State::Biased { dir, tracker } => {
            let decision = c.speculate(*dir, r.taken);
            if eviction.observe(tracker, decision == SpecDecision::Correct) {
                evict = Some(*dir);
            }
            decision
        }
        _ => return None,
    };
    c.events += 1;
    c.instructions = c.instructions.max(r.instr);
    b.execs += 1;
    if let Some(dir) = evict {
        b.evictions += 1;
        log.push(TransitionEvent {
            branch: r.branch,
            kind: TransitionKind::ExitBiased,
            event_index: c.events,
            instr: r.instr,
            direction: Some(dir),
        });
        b.state = deployed(DeployKind::Repair, dir, r.instr, params, eviction);
    }
    Some(decision)
}

/// What a call to [`ReactiveController::observe_chunk`] did, in aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Events processed (the chunk length).
    pub events: u64,
    /// Events that were speculated (correct or incorrect).
    pub speculated: u64,
    /// Correct speculations in this chunk.
    pub correct: u64,
    /// Misspeculations in this chunk.
    pub incorrect: u64,
}

impl ReactiveController {
    /// The resilience configuration, if the layer is attached.
    pub fn resilience_config(&self) -> Option<&ResilienceConfig> {
        self.resilience.as_ref().map(|rs| &rs.config)
    }

    /// The transition log, with its retention policy and exact per-kind
    /// counters.
    pub fn transition_log(&self) -> &TransitionLog {
        &self.log
    }

    /// The controller's parameters.
    pub fn params(&self) -> &ControllerParams {
        &self.params
    }

    /// The active control policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The active policy's stable identifier (checkpoints, metrics).
    pub fn policy_id(&self) -> &'static str {
        self.policy.id()
    }

    fn log_transition(
        &mut self,
        branch: BranchId,
        kind: TransitionKind,
        instr: u64,
        direction: Option<Direction>,
    ) {
        let ev = TransitionEvent {
            branch,
            kind,
            event_index: self.counters.events,
            instr,
            direction,
        };
        self.log.push(ev);
        if let Some(t) = &mut self.telemetry {
            t.on_transition(&ev);
        }
    }

    /// Forgets every classification, returning all touched branches to a
    /// fresh monitor state.
    ///
    /// This models a Dynamo-style *fragment cache flush*: the optimizer
    /// discards all generated code on a suspected phase change and
    /// re-learns from scratch. Oscillation-cap entry counts are cleared
    /// too (the flushed optimizer has no memory of past oscillation), so a
    /// flush-based policy can re-optimize branches a capped reactive
    /// policy would refuse. Statistics and the transition log are
    /// preserved; no transition events are emitted for the flush itself.
    pub fn flush_all(&mut self) {
        for b in &mut self.branches {
            b.state = State::fresh_monitor();
            b.entries_since_flush = 0;
        }
    }

    /// Sends attempt `attempt` of a `kind` deployment for branch `idx`,
    /// whose code speculates `dir`, and moves the branch to the outcome's
    /// state: the new code (after the optimization latency), a retry after
    /// the backoff, or the fail-safe state once retries run out. Without a
    /// resilience layer, deployment is infallible (the paper's model).
    /// Returns whether the code deployed.
    fn deploy(
        &mut self,
        idx: usize,
        r: &BranchRecord,
        kind: DeployKind,
        dir: Direction,
        attempt: u32,
    ) -> bool {
        let outcome = match &mut self.resilience {
            Some(rs) => {
                if attempt > 0 {
                    rs.deploy_retries += 1;
                }
                rs.deployer.request(&DeployRequest {
                    branch: r.branch,
                    kind,
                    instr: r.instr,
                    attempt,
                })
            }
            None => DeployOutcome::Deployed,
        };
        if let Some(t) = &mut self.telemetry {
            t.on_deploy(r.branch, kind, attempt, r.instr, outcome);
        }
        let DeployOutcome::Failed { wasted } = outcome else {
            self.branches[idx].state = deployed(kind, dir, r.instr, &self.params, &self.eviction);
            return true;
        };
        let rs = self.resilience.as_mut().expect("faults need a layer");
        rs.deploy_failures += 1;
        let retry = rs.config.retry;
        self.log_transition(r.branch, TransitionKind::DeployFailed, r.instr, Some(dir));
        let failures = attempt + 1;
        self.branches[idx].state = if failures < retry.max_attempts {
            let next = r.instr + wasted + retry.backoff(failures);
            match kind {
                DeployKind::Optimize => State::RetryBiased {
                    next,
                    dir,
                    attempt: failures,
                },
                DeployKind::Repair => State::RetryMonitor {
                    next,
                    dir,
                    attempt: failures,
                },
            }
        } else if kind == DeployKind::Optimize {
            self.log_transition(r.branch, TransitionKind::EnterAbandoned, r.instr, None);
            State::unbiased(self.params.revisit)
        } else {
            // Fail safe: never leave the branch speculating a stale
            // assumption.
            self.log_transition(r.branch, TransitionKind::ForcedDisable, r.instr, None);
            self.resilience.as_mut().expect("checked").forced_disables += 1;
            State::Disabled
        };
        false
    }

    /// Mass-evicts the `k` currently-biased branches with the most recent
    /// misspeculations (ties broken by branch index, so the order is
    /// deterministic). Modeled as a fragment-cache invalidation — reliable
    /// and immediate, bypassing the deployment pipeline.
    fn mass_evict(&mut self, k: usize, instr: u64) {
        let recent_misses = &self
            .resilience
            .as_ref()
            .expect("breaker gated")
            .recent_misses;
        let mut candidates: Vec<(u64, usize)> = self
            .branches
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b.state, State::Biased { .. }))
            .map(|(i, _)| (recent_misses.get(i).copied().unwrap_or(0), i))
            .collect();
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        candidates.truncate(k);
        for (_, i) in candidates {
            let dir = match &self.branches[i].state {
                State::Biased { dir, .. } => *dir,
                _ => unreachable!("candidates are biased"),
            };
            self.branches[i].evictions += 1;
            self.log_transition(
                BranchId::new(i as u32),
                TransitionKind::ExitBiased,
                instr,
                Some(dir),
            );
            self.branches[i].state = State::fresh_monitor();
        }
    }

    /// Advances the storm breaker by one observed event and reacts to any
    /// phase change. Only called when a breaker is configured.
    fn breaker_tick(&mut self, r: &BranchRecord, decision: SpecDecision) {
        let miss = decision == SpecDecision::Incorrect;
        let events = self.counters.events;
        let signal = {
            let rs = self.resilience.as_mut().expect("breaker_tick gated");
            if miss {
                rs.note_miss(r.branch.index());
            }
            rs.breaker
                .as_mut()
                .expect("breaker_tick gated")
                .tick(events, miss)
        };
        match signal {
            BreakerSignal::None => {}
            BreakerSignal::Opened | BreakerSignal::Reopened => {
                self.log_transition(BREAKER_BRANCH, TransitionKind::BreakerOpened, r.instr, None);
                let top_k = self
                    .resilience
                    .as_ref()
                    .and_then(|rs| rs.config.breaker)
                    .map_or(0, |b| b.mass_evict_top_k);
                if top_k > 0 {
                    self.mass_evict(top_k, r.instr);
                }
                // Each storm ranks offenders afresh.
                self.resilience
                    .as_mut()
                    .expect("breaker_tick gated")
                    .recent_misses
                    .clear();
            }
            BreakerSignal::HalfOpened => {
                self.log_transition(
                    BREAKER_BRANCH,
                    TransitionKind::BreakerHalfOpen,
                    r.instr,
                    None,
                );
            }
            BreakerSignal::Closed => {
                self.log_transition(BREAKER_BRANCH, TransitionKind::BreakerClosed, r.instr, None);
            }
        }
    }

    /// Feeds one dynamic branch execution through the branch's FSM and
    /// returns what the speculation system did with it.
    pub fn observe(&mut self, r: &BranchRecord) -> SpecDecision {
        let idx = r.branch.index();
        if idx >= self.branches.len() {
            self.branches.resize_with(idx + 1, BranchCtl::new);
        }
        if self.chunk_fast_path() {
            let (params, policy, eviction) = (&self.params, self.policy, &self.eviction);
            let b = &mut self.branches[idx];
            return step_in_place(
                b,
                r,
                params,
                policy,
                eviction,
                &mut self.counters,
                &mut self.log,
            )
            .unwrap_or_else(|| self.observe_inner(r));
        }
        let decision = self.observe_inner(r);
        let has_breaker = self
            .resilience
            .as_ref()
            .is_some_and(|rs| rs.breaker.is_some());
        if has_breaker {
            self.breaker_tick(r, decision);
        }
        if decision == SpecDecision::Incorrect {
            if let Some(m) = self.telemetry.as_mut().and_then(|t| t.metrics.as_mut()) {
                m.on_misspeculation(self.counters.events);
            }
        }
        decision
    }

    /// The full FSM: every arm, with deployment, resilience and transition
    /// telemetry (the storm breaker and misspeculation metrics are the
    /// caller's). The branch's slot must exist.
    fn observe_inner(&mut self, r: &BranchRecord) -> SpecDecision {
        let idx = r.branch.index();
        self.counters.events += 1;
        self.counters.instructions = self.counters.instructions.max(r.instr);
        self.branches[idx].execs += 1;

        // Deployment deadlines are checked before processing so that the
        // first post-deadline execution already runs the new code: those
        // arms set the deployed state and go round again.
        loop {
            let state = std::mem::replace(&mut self.branches[idx].state, State::Disabled);
            match state {
                State::Disabled => return SpecDecision::NotSpeculated,
                State::Monitor {
                    mut execs,
                    mut samples,
                    mut taken,
                } => {
                    if u64::from(execs) % self.params.monitor_sample_rate == 0 {
                        samples += 1;
                        taken += u32::from(r.taken);
                    }
                    execs += 1;
                    let counts = MonitorCounts::from_window(execs, samples, taken);
                    match self.policy.decide(counts, &self.params) {
                        SpecChoice::Continue => {
                            self.branches[idx].state = State::Monitor {
                                execs,
                                samples,
                                taken,
                            };
                        }
                        SpecChoice::Reject => {
                            self.branches[idx].state = State::unbiased(self.params.revisit);
                            self.log_transition(
                                r.branch,
                                TransitionKind::EnterUnbiased,
                                r.instr,
                                None,
                            );
                        }
                        SpecChoice::Speculate(dir) => self.enter_biased(idx, r, dir),
                    }
                    return SpecDecision::NotSpeculated;
                }
                State::Biased { dir, mut tracker } => {
                    let decision = self.counters.speculate(dir, r.taken);
                    let correct = decision == SpecDecision::Correct;
                    if self.eviction.observe(&mut tracker, correct) {
                        self.branches[idx].evictions += 1;
                        self.log_transition(
                            r.branch,
                            TransitionKind::ExitBiased,
                            r.instr,
                            Some(dir),
                        );
                        self.deploy(idx, r, DeployKind::Repair, dir, 0);
                    } else {
                        self.branches[idx].state = State::Biased { dir, tracker };
                    }
                    return decision;
                }
                State::Unbiased { remaining } if remaining <= 1 => {
                    self.branches[idx].state = State::fresh_monitor();
                    self.log_transition(r.branch, TransitionKind::RevisitMonitor, r.instr, None);
                    return SpecDecision::NotSpeculated;
                }
                State::Unbiased { remaining } => {
                    self.branches[idx].state = State::Unbiased {
                        remaining: match remaining {
                            NEVER_REVISIT => NEVER_REVISIT,
                            n => n - 1,
                        },
                    };
                    return SpecDecision::NotSpeculated;
                }
                State::PendingBiased { deadline, dir } if r.instr >= deadline => {
                    let tracker = self.eviction.start();
                    self.branches[idx].state = State::Biased { dir, tracker };
                }
                // Repaired code deployed: this execution is monitored, not
                // speculated.
                State::PendingMonitor { deadline, .. } if r.instr >= deadline => {
                    self.branches[idx].state = State::fresh_monitor();
                }
                State::RetryBiased { next, dir, attempt } if r.instr >= next => {
                    if !self.deploy(idx, r, DeployKind::Optimize, dir, attempt) {
                        return SpecDecision::NotSpeculated;
                    }
                }
                State::RetryMonitor { next, dir, attempt } if r.instr >= next => {
                    if !self.deploy(idx, r, DeployKind::Repair, dir, attempt) {
                        // The stale code keeps running unless the branch
                        // was force-disabled.
                        return match self.branches[idx].state {
                            State::Disabled => SpecDecision::NotSpeculated,
                            _ => self.counters.speculate(dir, r.taken),
                        };
                    }
                }
                // Waiting for optimized code: the branch runs unoptimized.
                waiting @ (State::PendingBiased { .. } | State::RetryBiased { .. }) => {
                    self.branches[idx].state = waiting;
                    return SpecDecision::NotSpeculated;
                }
                // Waiting for repaired code: the stale speculative code is
                // still running (and possibly misspeculating).
                waiting @ (State::PendingMonitor { dir, .. } | State::RetryMonitor { dir, .. }) => {
                    self.branches[idx].state = waiting;
                    return self.counters.speculate(dir, r.taken);
                }
            }
        }
    }

    /// The monitor classified branch `idx` biased toward `dir`: request
    /// the optimized code, unless an open storm breaker suppresses the
    /// request or the oscillation cap disables the branch.
    fn enter_biased(&mut self, idx: usize, r: &BranchRecord, dir: Direction) {
        // An open storm breaker parks the branch as unbiased (no entry, no
        // log); the revisit arc re-monitors it after the storm.
        if let Some(rs) = &mut self.resilience {
            if rs.breaker.as_ref().is_some_and(|b| b.suppressing()) {
                rs.suppressed_enters += 1;
                self.branches[idx].state = State::unbiased(self.params.revisit);
                return;
            }
        }
        let b = &mut self.branches[idx];
        // Oscillation cap: refuse the (limit+1)-th entry.
        if self
            .params
            .oscillation_limit
            .is_some_and(|limit| b.entries_since_flush >= limit)
        {
            b.state = State::Disabled;
            self.log_transition(r.branch, TransitionKind::Disabled, r.instr, None);
            return;
        }
        b.entries += 1;
        b.entries_since_flush += 1;
        self.log_transition(r.branch, TransitionKind::EnterBiased, r.instr, Some(dir));
        self.deploy(idx, r, DeployKind::Optimize, dir, 0);
    }

    /// Whether [`observe`](Self::observe) and
    /// [`observe_chunk`](Self::observe_chunk) try the in-place
    /// steady-state arms before the full FSM. A controller with a
    /// resilience layer or telemetry (a metrics registry or an event sink)
    /// runs every event through the full FSM instead, so its hooks fire.
    pub fn chunk_fast_path(&self) -> bool {
        self.resilience.is_none() && self.telemetry.is_none()
    }

    /// Feeds a chunk of dynamic branch executions through the controller.
    ///
    /// Identical to calling [`observe`](Self::observe) on each record in
    /// order — statistics, per-branch state, and the transition log come
    /// out bit-identical — and runs the same per-record step, but resizes
    /// the branch table at most once per chunk and keeps the global
    /// counters in registers between full-FSM fallbacks.
    pub fn observe_chunk(&mut self, records: &[BranchRecord]) -> ChunkSummary {
        let start = self.counters;
        if !self.chunk_fast_path() {
            for r in records {
                self.observe(r);
            }
            return self.counters.since(start);
        }
        if let Some(max_idx) = records.iter().map(|r| r.branch.index()).max() {
            if max_idx >= self.branches.len() {
                self.branches.resize_with(max_idx + 1, BranchCtl::new);
            }
        }
        let (params, policy, eviction) = (self.params, self.policy, self.eviction);
        let mut counters = start;
        for r in records {
            let b = &mut self.branches[r.branch.index()];
            let log = &mut self.log;
            if step_in_place(b, r, &params, policy, &eviction, &mut counters, log).is_none() {
                self.counters = counters;
                self.observe_inner(r);
                counters = self.counters;
            }
        }
        self.counters = counters;
        counters.since(start)
    }

    /// Reserves room in the per-branch table for branch indices below
    /// `branches`, so a run over a population of known size allocates the
    /// table once, at its exact size, instead of growing it by doubling
    /// as new indices appear. Changes no behavior.
    pub fn reserve_branches(&mut self, branches: usize) {
        self.branches
            .reserve_exact(branches.saturating_sub(self.branches.len()));
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> ControlStats {
        let mut s = ControlStats {
            events: self.counters.events,
            instructions: self.counters.instructions,
            correct: self.counters.correct,
            incorrect: self.counters.incorrect,
            ..ControlStats::default()
        };
        for b in &self.branches {
            if b.execs == 0 {
                continue;
            }
            s.touched += 1;
            if b.entries > 0 {
                s.entered_biased += 1;
                s.total_entries += u64::from(b.entries);
            }
            if b.evictions > 0 {
                s.evicted_branches += 1;
                s.total_evictions += u64::from(b.evictions);
            }
            if matches!(b.state, State::Disabled) {
                s.disabled_branches += 1;
            }
        }
        s.reopt_requests = s.total_entries + s.total_evictions;
        if let Some(rs) = &self.resilience {
            s.deploy_failures = rs.deploy_failures;
            s.deploy_retries = rs.deploy_retries;
            s.forced_disables = rs.forced_disables;
            s.suppressed_enters = rs.suppressed_enters;
        }
        s
    }

    /// Exports the metrics registry, or `None` unless the controller was
    /// built with [`metrics`](crate::ControllerBuilder::metrics).
    ///
    /// Counters and gauges are synthesized from the controller's exact
    /// internal state at this call (nothing is double-counted on the hot
    /// path); histograms carry the observations accumulated since
    /// construction (or checkpoint restore). The returned registry is a
    /// self-contained snapshot: render it with
    /// [`MetricsRegistry::render_prometheus`] or
    /// [`MetricsRegistry::render_json`].
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        let cm = self.telemetry.as_ref()?.metrics.as_ref()?;
        let s = self.stats();
        // With the resilience layer every pipeline request is counted at
        // the deployer; without one, deployment is implicit and every
        // re-optimization request is exactly one deployment.
        let deploy_requests = match &self.resilience {
            Some(rs) => rs.deployer.requests(),
            None => s.reopt_requests,
        };
        let phase = self
            .resilience
            .as_ref()
            .and_then(|rs| rs.breaker.as_ref())
            .map_or(0, |b| b.phase().gauge_code());
        let transitions = TransitionKind::ALL.map(|kind| self.log.count(kind));
        Some(cm.export(&s, &transitions, deploy_requests, phase, self.policy))
    }

    /// The retained transition events, oldest first — a convenience view
    /// of [`transition_log`](Self::transition_log).
    ///
    /// Retention follows the configured
    /// [`TransitionLogPolicy`](crate::translog::TransitionLogPolicy):
    /// `Full` returns every transition since construction, and
    /// `CountsOnly` always returns an empty slice, though the per-kind
    /// counters on [`transition_log`](Self::transition_log) stay exact.
    pub fn transitions(&self) -> &[TransitionEvent] {
        self.transition_log().as_slice()
    }

    /// Times `branch` entered the biased state.
    pub fn entries(&self, branch: BranchId) -> u32 {
        self.branches.get(branch.index()).map_or(0, |b| b.entries)
    }

    /// Times `branch` was evicted from the biased state.
    pub fn evictions(&self, branch: BranchId) -> u32 {
        self.branches.get(branch.index()).map_or(0, |b| b.evictions)
    }

    /// Returns `true` if `branch` is currently speculated (biased state,
    /// eviction pending deployment, or a repair retry outstanding).
    pub fn is_speculating(&self, branch: BranchId) -> bool {
        matches!(
            self.branches.get(branch.index()).map(|b| &b.state),
            Some(State::Biased { .. })
                | Some(State::PendingMonitor { .. })
                | Some(State::RetryMonitor { .. })
        )
    }

    /// Returns `true` if `branch` has been permanently disabled by the
    /// oscillation cap.
    pub fn is_disabled(&self, branch: BranchId) -> bool {
        matches!(
            self.branches.get(branch.index()).map(|b| &b.state),
            Some(State::Disabled)
        )
    }

    /// Externally comparable snapshot of `branch`'s FSM state and
    /// counters. Branches that were never observed report
    /// [`BranchSnapshot::untouched`] (every branch conceptually starts in
    /// a fresh monitor state).
    pub fn branch_snapshot(&self, branch: BranchId) -> BranchSnapshot {
        let Some(b) = self.branches.get(branch.index()) else {
            return BranchSnapshot::untouched();
        };
        let state = match &b.state {
            State::Monitor {
                execs,
                samples,
                taken,
            } => BranchStateView::Monitor {
                execs: u64::from(*execs),
                samples: u64::from(*samples),
                taken: u64::from(*taken),
            },
            State::PendingBiased { deadline, dir } => BranchStateView::PendingBiased {
                deadline: *deadline,
                dir: *dir,
            },
            State::Biased { dir, tracker } => BranchStateView::Biased {
                dir: *dir,
                tracker: self.eviction.view(tracker),
            },
            State::PendingMonitor { deadline, dir } => BranchStateView::PendingMonitor {
                deadline: *deadline,
                dir: *dir,
            },
            State::Unbiased { remaining } => BranchStateView::Unbiased {
                remaining: revisit_countdown(*remaining),
            },
            State::Disabled => BranchStateView::Disabled,
            State::RetryBiased { next, dir, attempt } => BranchStateView::RetryBiased {
                next: *next,
                dir: *dir,
                attempt: *attempt,
            },
            State::RetryMonitor { next, dir, attempt } => BranchStateView::RetryMonitor {
                next: *next,
                dir: *dir,
                attempt: *attempt,
            },
        };
        BranchSnapshot {
            state,
            entries: b.entries,
            entries_since_flush: b.entries_since_flush,
            evictions: b.evictions,
            execs: b.execs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{EvictionMode, MonitorPolicy};
    use crate::translog::TransitionLogPolicy;
    use std::sync::Arc;

    fn rec(b: u32, taken: bool, instr: u64) -> BranchRecord {
        BranchRecord {
            branch: BranchId::new(b),
            taken,
            instr,
        }
    }

    /// Tiny parameters that make hand-reasoning easy.
    fn tiny() -> ControllerParams {
        ControllerParams {
            monitor_period: 10,
            monitor_policy: MonitorPolicy::FixedWindow,
            monitor_sample_rate: 1,
            selection_threshold: 0.995,
            eviction: EvictionMode::Counter {
                up: 50,
                down: 1,
                threshold: 100,
            },
            revisit: Revisit::After(20),
            oscillation_limit: Some(5),
            optimization_latency: 0,
        }
    }

    fn drive(ctl: &mut ReactiveController, b: u32, taken: bool, n: u64, instr: &mut u64) {
        for _ in 0..n {
            *instr += 5;
            ctl.observe(&rec(b, taken, *instr));
        }
    }

    #[test]
    fn biased_branch_is_selected_after_monitoring() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr);
        assert!(ctl.is_speculating(BranchId::new(0)));
        assert_eq!(ctl.entries(BranchId::new(0)), 1);
        // Further executions are speculated correctly.
        let d = ctl.observe(&rec(0, true, instr + 5));
        assert_eq!(d, SpecDecision::Correct);
    }

    #[test]
    fn unbiased_branch_is_not_selected() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        let mut instr = 0;
        for i in 0..10u64 {
            instr += 5;
            ctl.observe(&rec(0, i % 2 == 0, instr));
        }
        assert!(!ctl.is_speculating(BranchId::new(0)));
        assert_eq!(ctl.entries(BranchId::new(0)), 0);
        let d = ctl.observe(&rec(0, true, instr + 5));
        assert_eq!(d, SpecDecision::NotSpeculated);
    }

    #[test]
    fn monitoring_executions_are_not_speculated() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        for i in 0..9u64 {
            let d = ctl.observe(&rec(0, true, 5 * (i + 1)));
            assert_eq!(d, SpecDecision::NotSpeculated);
        }
    }

    #[test]
    fn eviction_after_sustained_misspeculation() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr); // select taken
                                                  // Reverse the behavior: 100/50 = 2 misspecs to reach threshold 100.
        drive(&mut ctl, 0, false, 2, &mut instr);
        assert_eq!(ctl.evictions(BranchId::new(0)), 1);
        assert!(!ctl.is_speculating(BranchId::new(0)));
        // Back in monitor: next executions are unspeculated.
        let d = ctl.observe(&rec(0, false, instr + 5));
        assert_eq!(d, SpecDecision::NotSpeculated);
    }

    #[test]
    fn short_bursts_are_tolerated() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr);
        // One misspec (counter 50), then plenty of correct ones.
        drive(&mut ctl, 0, false, 1, &mut instr);
        drive(&mut ctl, 0, true, 60, &mut instr);
        drive(&mut ctl, 0, false, 1, &mut instr);
        assert_eq!(ctl.evictions(BranchId::new(0)), 0);
        assert!(ctl.is_speculating(BranchId::new(0)));
    }

    #[test]
    fn revisit_reselects_late_biased_branch() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        let mut instr = 0;
        // Unbiased during first monitor window.
        for i in 0..10u64 {
            instr += 5;
            ctl.observe(&rec(0, i % 2 == 0, instr));
        }
        assert_eq!(ctl.entries(BranchId::new(0)), 0);
        // Wait period (20 executions), now biased.
        drive(&mut ctl, 0, true, 20, &mut instr);
        // Re-monitoring for 10 executions, all taken → selected.
        drive(&mut ctl, 0, true, 10, &mut instr);
        assert_eq!(ctl.entries(BranchId::new(0)), 1);
        assert!(ctl.is_speculating(BranchId::new(0)));
    }

    #[test]
    fn no_revisit_strands_unbiased_branches() {
        let params = tiny().without_revisit();
        let mut ctl = ReactiveController::builder(params).build().unwrap();
        let mut instr = 0;
        for i in 0..10u64 {
            instr += 5;
            ctl.observe(&rec(0, i % 2 == 0, instr));
        }
        // A long biased stretch afterwards is never harvested.
        drive(&mut ctl, 0, true, 1000, &mut instr);
        assert_eq!(ctl.entries(BranchId::new(0)), 0);
        assert_eq!(ctl.stats().correct, 0);
    }

    #[test]
    fn no_eviction_keeps_misspeculating() {
        let params = tiny().without_eviction();
        let mut ctl = ReactiveController::builder(params).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr);
        drive(&mut ctl, 0, false, 500, &mut instr);
        let s = ctl.stats();
        assert_eq!(s.incorrect, 500, "open loop never repairs");
        assert_eq!(s.total_evictions, 0);
    }

    #[test]
    fn oscillation_cap_disables_branch() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        let mut instr = 0;
        for round in 0..6u32 {
            // Monitor passes (all taken), then reverse until evicted.
            drive(&mut ctl, 0, true, 10, &mut instr);
            if round < 5 {
                assert_eq!(ctl.entries(BranchId::new(0)), round + 1);
                drive(&mut ctl, 0, false, 2, &mut instr);
                assert_eq!(ctl.evictions(BranchId::new(0)), round + 1);
            }
        }
        // The sixth monitor pass must disable instead of re-entering.
        assert!(ctl.is_disabled(BranchId::new(0)));
        assert_eq!(ctl.entries(BranchId::new(0)), 5);
        let s = ctl.stats();
        assert_eq!(s.disabled_branches, 1);
        // Once disabled, nothing happens anymore.
        let d = ctl.observe(&rec(0, true, instr + 5));
        assert_eq!(d, SpecDecision::NotSpeculated);
    }

    #[test]
    fn selection_latency_defers_speculation() {
        let params = tiny().with_latency(1000);
        let mut ctl = ReactiveController::builder(params).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr); // decision at instr=50
                                                  // Still within latency window: not speculated.
        let d = ctl.observe(&rec(0, true, 900));
        assert_eq!(d, SpecDecision::NotSpeculated);
        // Past the deadline (50 + 1000): speculated.
        let d = ctl.observe(&rec(0, true, 1100));
        assert_eq!(d, SpecDecision::Correct);
    }

    #[test]
    fn eviction_latency_keeps_counting_misspecs() {
        let params = tiny().with_latency(1000);
        let mut ctl = ReactiveController::builder(params).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr);
        // Deploy the optimized code.
        instr += 2000;
        ctl.observe(&rec(0, true, instr));
        // Trip the eviction counter.
        drive(&mut ctl, 0, false, 2, &mut instr);
        assert_eq!(ctl.evictions(BranchId::new(0)), 1);
        // Stale code still speculating during the latency window.
        let d = ctl.observe(&rec(0, false, instr + 10));
        assert_eq!(d, SpecDecision::Incorrect);
        // After deployment the branch is monitored again.
        let d = ctl.observe(&rec(0, false, instr + 5000));
        assert_eq!(d, SpecDecision::NotSpeculated);
    }

    #[test]
    fn transition_log_captures_lifecycle() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr);
        drive(&mut ctl, 0, false, 2, &mut instr);
        let kinds: Vec<TransitionKind> = ctl.transitions().iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![TransitionKind::EnterBiased, TransitionKind::ExitBiased]
        );
        assert_eq!(ctl.transitions()[0].direction, Some(Direction::Taken));
    }

    #[test]
    fn transition_recording_can_be_disabled() {
        let mut ctl = ReactiveController::builder(tiny())
            .log_policy(TransitionLogPolicy::CountsOnly)
            .build()
            .unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr);
        assert!(ctl.transitions().is_empty());
        assert_eq!(ctl.entries(BranchId::new(0)), 1);
    }

    /// A synthetic stream that drives one branch through selection,
    /// eviction, oscillation disable, and a second branch through the
    /// unbiased/revisit arc — covering every `observe_chunk` arm.
    fn lifecycle_stream() -> Vec<BranchRecord> {
        let mut v = Vec::new();
        let mut instr = 0u64;
        for round in 0..7u64 {
            for _ in 0..10 {
                instr += 5;
                v.push(rec(0, true, instr));
            }
            for _ in 0..3 {
                instr += 5;
                v.push(rec(0, false, instr));
            }
            for i in 0..25u64 {
                instr += 5;
                v.push(rec(1, (i + round) % 2 == 0, instr));
            }
        }
        v
    }

    #[test]
    fn observe_chunk_matches_observe_across_lifecycle() {
        let stream = lifecycle_stream();
        for params in [tiny(), tiny().with_latency(40), tiny().without_eviction()] {
            let mut per_event = ReactiveController::builder(params).build().unwrap();
            for r in &stream {
                per_event.observe(r);
            }
            for chunk_len in [1usize, 3, 16, 1000] {
                let mut chunked = ReactiveController::builder(params).build().unwrap();
                let mut total = ChunkSummary::default();
                for chunk in stream.chunks(chunk_len) {
                    let s = chunked.observe_chunk(chunk);
                    total.events += s.events;
                    total.speculated += s.speculated;
                    total.correct += s.correct;
                    total.incorrect += s.incorrect;
                }
                assert_eq!(per_event.stats(), chunked.stats(), "chunk {chunk_len}");
                assert_eq!(
                    per_event.transitions(),
                    chunked.transitions(),
                    "chunk {chunk_len}"
                );
                assert_eq!(total.events, stream.len() as u64);
                assert_eq!(total.correct, chunked.stats().correct);
                assert_eq!(total.incorrect, chunked.stats().incorrect);
                assert_eq!(total.speculated, total.correct + total.incorrect);
            }
        }
    }

    #[test]
    fn monitor_sampling_classifies_from_fewer_samples() {
        let params = tiny().with_monitor_sampling(2);
        let mut ctl = ReactiveController::builder(params).build().unwrap();
        let mut instr = 0;
        // Alternate so that sampled executions (every 2nd, starting with
        // the first) are all taken while unsampled ones are not-taken.
        for i in 0..10u64 {
            instr += 5;
            ctl.observe(&rec(0, i % 2 == 0, instr));
        }
        // 5 samples, all taken → selected despite 50% true bias.
        assert_eq!(ctl.entries(BranchId::new(0)), 1);
    }

    #[test]
    fn sampled_eviction_fires_on_degraded_bias() {
        let mut params = tiny();
        params.eviction = EvictionMode::Sampling {
            period: 20,
            samples: 10,
            bias_threshold: 0.98,
        };
        let mut ctl = ReactiveController::builder(params).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr); // select
                                                  // Degrade to ~50%: the first full sampling window must evict.
        for i in 0..40u64 {
            instr += 5;
            ctl.observe(&rec(0, i % 2 == 0, instr));
            if ctl.evictions(BranchId::new(0)) > 0 {
                break;
            }
        }
        assert_eq!(ctl.evictions(BranchId::new(0)), 1);
    }

    #[test]
    fn sampled_eviction_keeps_healthy_branch() {
        let mut params = tiny();
        params.eviction = EvictionMode::Sampling {
            period: 20,
            samples: 10,
            bias_threshold: 0.98,
        };
        let mut ctl = ReactiveController::builder(params).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr);
        drive(&mut ctl, 0, true, 200, &mut instr);
        assert_eq!(ctl.evictions(BranchId::new(0)), 0);
        assert!(ctl.is_speculating(BranchId::new(0)));
    }

    #[test]
    fn stats_reflect_mixed_population() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        let mut instr = 0;
        // Branch 0 biased; branch 1 unbiased; branch 2 never executes.
        drive(&mut ctl, 0, true, 30, &mut instr);
        for i in 0..30u64 {
            instr += 5;
            ctl.observe(&rec(1, i % 2 == 0, instr));
        }
        let s = ctl.stats();
        assert_eq!(s.touched, 2);
        assert_eq!(s.entered_biased, 1);
        assert_eq!(s.correct, 20);
        assert_eq!(s.events, 60);
        assert_eq!(s.reopt_requests, 1);
    }

    #[test]
    fn rejects_invalid_params() {
        let mut p = tiny();
        p.monitor_period = 0;
        assert!(ReactiveController::builder(p).build().is_err());
    }

    #[test]
    fn confidence_monitor_selects_obvious_bias_early() {
        // At threshold 0.995 and z = 2.58, a perfect branch clears the
        // Wilson lower bound after ~1,325 samples — far earlier than the
        // 10,000-execution window it is racing here.
        let params = tiny()
            .with_monitor_period(10_000)
            .with_confidence_monitor(2.58, 16, 10_000);
        let mut ctl = ReactiveController::builder(params).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 2_000, &mut instr);
        assert!(ctl.is_speculating(BranchId::new(0)));
        let s = ctl.stats();
        assert!(s.correct > 500, "correct {}", s.correct);
    }

    #[test]
    fn confidence_monitor_rejects_unbiased_early() {
        let params = tiny().with_confidence_monitor(2.58, 16, 10_000);
        let mut ctl = ReactiveController::builder(params).build().unwrap();
        let mut instr = 0;
        for i in 0..400u64 {
            instr += 5;
            ctl.observe(&rec(0, i % 2 == 0, instr));
        }
        assert!(!ctl.is_speculating(BranchId::new(0)));
        assert_eq!(ctl.entries(BranchId::new(0)), 0);
        assert_eq!(ctl.stats().correct + ctl.stats().incorrect, 0);
    }

    #[test]
    fn confidence_monitor_forces_decision_at_max() {
        // True bias right at the boundary: undecidable, so the max forces
        // a point-estimate decision.
        let params = tiny().with_confidence_monitor(2.58, 16, 64);
        let mut ctl = ReactiveController::builder(params).build().unwrap();
        let mut instr = 0;
        // 63 taken + 1 not-taken in the first 64: point bias 0.984 < 0.995
        // at the cap -> unbiased.
        for i in 0..64u64 {
            instr += 5;
            ctl.observe(&rec(0, i != 10, instr));
        }
        assert!(!ctl.is_speculating(BranchId::new(0)));
    }

    #[test]
    fn flush_forgets_classifications_but_keeps_stats() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 50, &mut instr);
        assert!(ctl.is_speculating(BranchId::new(0)));
        let before = ctl.stats();
        assert!(before.correct > 0);

        ctl.flush_all();
        assert!(!ctl.is_speculating(BranchId::new(0)));
        // Statistics survive the flush.
        let after = ctl.stats();
        assert_eq!(after.correct, before.correct);
        assert_eq!(after.total_entries, before.total_entries);
        // The branch re-monitors and can be re-selected.
        drive(&mut ctl, 0, true, 10, &mut instr);
        assert!(ctl.is_speculating(BranchId::new(0)));
        assert_eq!(ctl.entries(BranchId::new(0)), 2);
    }

    mod resilience {
        use super::*;
        use crate::resilience::{
            BreakerConfig, DeployerSpec, FaultMode, FaultScope, FaultSpec, ResilienceConfig,
            RetryPolicy, BREAKER_BRANCH,
        };

        fn faulty(mode: FaultMode, scope: FaultScope, max_attempts: u32) -> ResilienceConfig {
            ResilienceConfig {
                deployer: DeployerSpec::Faulty(FaultSpec {
                    seed: 7,
                    mode,
                    scope,
                    wasted: 10,
                }),
                retry: RetryPolicy {
                    max_attempts,
                    base_backoff: 20,
                    max_backoff: 80,
                },
                breaker: None,
            }
        }

        fn always_fail(scope: FaultScope, max_attempts: u32) -> ResilienceConfig {
            faulty(
                FaultMode::FixedRate { per_mille: 1000 },
                scope,
                max_attempts,
            )
        }

        #[test]
        fn reliable_layer_is_transparent() {
            let mut plain = ReactiveController::builder(tiny()).build().unwrap();
            let mut layered = ReactiveController::builder(tiny())
                .resilience(ResilienceConfig::reliable())
                .build()
                .unwrap();
            let mut instr = 0;
            for _ in 0..5 {
                drive(&mut plain, 0, true, 10, &mut instr);
                drive(&mut plain, 0, false, 2, &mut instr);
            }
            let mut instr = 0;
            for _ in 0..5 {
                drive(&mut layered, 0, true, 10, &mut instr);
                drive(&mut layered, 0, false, 2, &mut instr);
            }
            assert_eq!(plain.stats(), layered.stats());
            assert_eq!(plain.transitions(), layered.transitions());
            assert_eq!(
                plain.branch_snapshot(BranchId::new(0)),
                layered.branch_snapshot(BranchId::new(0))
            );
        }

        #[test]
        fn failed_optimize_retries_then_succeeds() {
            // The first request (ordinal 0) fails; everything after
            // deploys. One failure, one successful retry.
            let config = faulty(
                FaultMode::Burst {
                    period: 1_000_000,
                    len: 1,
                },
                FaultScope::OptimizeOnly,
                4,
            );
            let mut ctl = ReactiveController::builder(tiny())
                .resilience(config)
                .build()
                .unwrap();
            let mut instr = 0;
            drive(&mut ctl, 0, true, 10, &mut instr); // decision at instr 50, deploy fails
            assert!(!ctl.is_speculating(BranchId::new(0)));
            // Backoff is wasted (10) + base (20): the retry fires at the
            // first event with instr >= 80 and deploys; that same event is
            // already speculated.
            let d = ctl.observe(&rec(0, true, 80));
            assert_eq!(d, SpecDecision::Correct);
            assert!(ctl.is_speculating(BranchId::new(0)));
            let s = ctl.stats();
            assert_eq!(s.deploy_failures, 1);
            assert_eq!(s.deploy_retries, 1);
            assert_eq!(s.forced_disables, 0);
            let kinds: Vec<TransitionKind> = ctl.transitions().iter().map(|t| t.kind).collect();
            assert_eq!(
                kinds,
                vec![TransitionKind::EnterBiased, TransitionKind::DeployFailed]
            );
        }

        #[test]
        fn optimize_abandoned_after_retries_run_out() {
            let config = always_fail(FaultScope::OptimizeOnly, 4);
            let mut ctl = ReactiveController::builder(tiny())
                .resilience(config)
                .build()
                .unwrap();
            let mut instr = 0;
            // Selection at instr 50; retries at >= 80, >= 130 (backoff 40),
            // >= 220 (backoff 80) all fail; the enter is then abandoned.
            // (50 events keeps instr short of the revisit re-entry.)
            drive(&mut ctl, 0, true, 50, &mut instr);
            let s = ctl.stats();
            assert_eq!(s.deploy_failures, 4, "first try plus three retries");
            assert_eq!(s.deploy_retries, 3);
            assert_eq!(s.correct, 0, "never actually speculated");
            assert!(!ctl.is_speculating(BranchId::new(0)));
            let kinds: Vec<TransitionKind> = ctl.transitions().iter().map(|t| t.kind).collect();
            assert_eq!(
                kinds,
                vec![
                    TransitionKind::EnterBiased,
                    TransitionKind::DeployFailed,
                    TransitionKind::DeployFailed,
                    TransitionKind::DeployFailed,
                    TransitionKind::DeployFailed,
                    TransitionKind::EnterAbandoned,
                ]
            );
            // Abandonment parks the branch as unbiased: the revisit arc
            // eventually re-monitors (and fails again, bounded).
            assert!(matches!(
                ctl.branch_snapshot(BranchId::new(0)).state,
                BranchStateView::Unbiased { .. }
            ));
        }

        #[test]
        fn failed_repair_keeps_stale_code_speculating_then_force_disables() {
            let config = always_fail(FaultScope::RepairOnly, 2);
            let mut ctl = ReactiveController::builder(tiny())
                .resilience(config)
                .build()
                .unwrap();
            let mut instr = 0;
            drive(&mut ctl, 0, true, 10, &mut instr); // optimize succeeds
            assert!(ctl.is_speculating(BranchId::new(0)));
            // Two misses trip the eviction counter at instr 60; the repair
            // fails, so the stale code keeps misspeculating.
            drive(&mut ctl, 0, false, 2, &mut instr);
            assert!(
                ctl.is_speculating(BranchId::new(0)),
                "stale code still live"
            );
            let d = ctl.observe(&rec(0, false, instr + 5));
            assert_eq!(d, SpecDecision::Incorrect, "stale code misspeculates");
            // Retry due at 60 + 10 + 20 = 90; it fails and retries are
            // exhausted: force-disable, never left speculating stale.
            let d = ctl.observe(&rec(0, false, 95));
            assert_eq!(d, SpecDecision::NotSpeculated);
            assert!(ctl.is_disabled(BranchId::new(0)));
            let s = ctl.stats();
            assert_eq!(s.forced_disables, 1);
            assert_eq!(s.deploy_failures, 2);
            assert_eq!(s.deploy_retries, 1);
            assert_eq!(s.disabled_branches, 1);
            let kinds: Vec<TransitionKind> = ctl.transitions().iter().map(|t| t.kind).collect();
            assert_eq!(
                kinds,
                vec![
                    TransitionKind::EnterBiased,
                    TransitionKind::ExitBiased,
                    TransitionKind::DeployFailed,
                    TransitionKind::DeployFailed,
                    TransitionKind::ForcedDisable,
                ]
            );
        }

        fn small_breaker(top_k: usize) -> ResilienceConfig {
            ResilienceConfig {
                deployer: DeployerSpec::Instant,
                retry: RetryPolicy::default_policy(),
                breaker: Some(BreakerConfig {
                    bucket_events: 10,
                    buckets: 2,
                    open_threshold: 0.5,
                    close_threshold: 0.1,
                    cooldown_events: 30,
                    probe_events: 20,
                    mass_evict_top_k: top_k,
                }),
            }
        }

        #[test]
        fn open_breaker_suppresses_new_deployments() {
            let params = tiny().without_eviction();
            let mut ctl = ReactiveController::builder(params)
                .resilience(small_breaker(0))
                .build()
                .unwrap();
            let mut instr = 0;
            drive(&mut ctl, 0, true, 10, &mut instr); // branch 0 biased
            drive(&mut ctl, 0, false, 10, &mut instr); // storm: 100% misses
            assert!(ctl
                .transitions()
                .iter()
                .any(|t| t.kind == TransitionKind::BreakerOpened && t.branch == BREAKER_BRANCH));
            // Branch 1 classifies biased while the breaker is open: the
            // deployment is suppressed and the branch parks as unbiased.
            drive(&mut ctl, 1, true, 10, &mut instr);
            assert!(!ctl.is_speculating(BranchId::new(1)));
            assert_eq!(ctl.entries(BranchId::new(1)), 0);
            assert_eq!(ctl.stats().suppressed_enters, 1);
            assert!(matches!(
                ctl.branch_snapshot(BranchId::new(1)).state,
                BranchStateView::Unbiased { .. }
            ));
        }

        #[test]
        fn breaker_mass_evicts_worst_offender_on_open() {
            let params = tiny().without_eviction();
            let mut ctl = ReactiveController::builder(params)
                .resilience(small_breaker(1))
                .build()
                .unwrap();
            let mut instr = 0;
            drive(&mut ctl, 0, true, 10, &mut instr);
            assert!(ctl.is_speculating(BranchId::new(0)));
            drive(&mut ctl, 0, false, 10, &mut instr);
            // Eviction is off, so only the breaker can have evicted it.
            assert_eq!(ctl.evictions(BranchId::new(0)), 1);
            assert!(!ctl.is_speculating(BranchId::new(0)));
            let kinds: Vec<TransitionKind> = ctl.transitions().iter().map(|t| t.kind).collect();
            assert_eq!(
                kinds,
                vec![
                    TransitionKind::EnterBiased,
                    TransitionKind::BreakerOpened,
                    TransitionKind::ExitBiased,
                ]
            );
        }

        #[test]
        fn breaker_half_opens_then_closes_on_recovery() {
            let params = tiny().without_eviction();
            let mut ctl = ReactiveController::builder(params)
                .resilience(small_breaker(1))
                .build()
                .unwrap();
            let mut instr = 0;
            drive(&mut ctl, 0, true, 10, &mut instr);
            drive(&mut ctl, 0, false, 10, &mut instr); // opens + mass-evicts
                                                       // Healthy traffic through the cool-down (30 events) and probe
                                                       // (20 events): the breaker half-opens then closes.
            drive(&mut ctl, 2, true, 60, &mut instr);
            let kinds: Vec<TransitionKind> = ctl.transitions().iter().map(|t| t.kind).collect();
            assert!(kinds.contains(&TransitionKind::BreakerHalfOpen));
            assert!(kinds.contains(&TransitionKind::BreakerClosed));
        }

        #[test]
        fn observe_chunk_matches_observe_with_resilience() {
            let stream = lifecycle_stream();
            let config = ResilienceConfig {
                deployer: DeployerSpec::Faulty(FaultSpec {
                    seed: 3,
                    mode: FaultMode::FixedRate { per_mille: 400 },
                    scope: FaultScope::All,
                    wasted: 7,
                }),
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_backoff: 15,
                    max_backoff: 60,
                },
                breaker: Some(BreakerConfig {
                    bucket_events: 8,
                    buckets: 2,
                    open_threshold: 0.1,
                    close_threshold: 0.05,
                    cooldown_events: 16,
                    probe_events: 8,
                    mass_evict_top_k: 2,
                }),
            };
            let mut per_event = ReactiveController::builder(tiny())
                .resilience(config)
                .build()
                .unwrap();
            for r in &stream {
                per_event.observe(r);
            }
            for chunk_len in [1usize, 7, 64, 1000] {
                let mut chunked = ReactiveController::builder(tiny())
                    .resilience(config)
                    .build()
                    .unwrap();
                let mut total = ChunkSummary::default();
                for chunk in stream.chunks(chunk_len) {
                    let s = chunked.observe_chunk(chunk);
                    total.events += s.events;
                    total.correct += s.correct;
                    total.incorrect += s.incorrect;
                }
                assert_eq!(per_event.stats(), chunked.stats(), "chunk {chunk_len}");
                assert_eq!(per_event.transitions(), chunked.transitions());
                assert_eq!(total.events, stream.len() as u64);
                assert_eq!(total.correct, chunked.stats().correct);
                assert_eq!(total.incorrect, chunked.stats().incorrect);
            }
        }

        /// Replays one workload under both log policies and demands exact
        /// per-kind counter agreement, with no event retained by
        /// `CountsOnly`.
        fn assert_counts_only_exact(
            params: ControllerParams,
            config: ResilienceConfig,
            workload: impl Fn(&mut ReactiveController),
        ) {
            let mut full = ReactiveController::builder(params)
                .resilience(config)
                .build()
                .unwrap();
            workload(&mut full);
            let mut counted = ReactiveController::builder(params)
                .resilience(config)
                .log_policy(TransitionLogPolicy::CountsOnly)
                .build()
                .unwrap();
            workload(&mut counted);

            assert!(full.transitions().len() > 1, "workload too small");
            assert!(counted.transitions().is_empty());
            for kind in TransitionKind::ALL {
                assert_eq!(
                    counted.transition_log().count(kind),
                    full.transition_log().count(kind),
                    "{kind:?} count must not depend on retention"
                );
            }
            assert_eq!(counted.stats(), full.stats());
        }

        #[test]
        fn counts_only_counts_stay_exact_under_forced_disables() {
            // Every repair fails: branches 0..3 each enter biased, get
            // evicted, exhaust their retries, and are force-disabled.
            assert_counts_only_exact(tiny(), always_fail(FaultScope::RepairOnly, 2), |ctl| {
                let mut instr = 0;
                for b in 0..4 {
                    drive(ctl, b, true, 10, &mut instr);
                    drive(ctl, b, false, 2, &mut instr);
                    drive(ctl, b, false, 30, &mut instr); // retry fails, force-disable
                }
                let s = ctl.stats();
                assert_eq!(s.forced_disables, 4);
                // No double counting on the retry path: every failed
                // request is one DeployFailed, whether it was the first
                // try or a retry.
                assert_eq!(
                    ctl.transition_log().count(TransitionKind::DeployFailed),
                    s.deploy_failures
                );
                assert_eq!(
                    ctl.transition_log().count(TransitionKind::ForcedDisable),
                    s.forced_disables
                );
            });
        }

        #[test]
        fn counts_only_counts_stay_exact_under_mass_evictions() {
            // Repeated storms: each opens the breaker and mass-evicts the
            // offender, then healthy traffic closes it again.
            assert_counts_only_exact(tiny().without_eviction(), small_breaker(1), |ctl| {
                let mut instr = 0;
                for _ in 0..3 {
                    drive(ctl, 0, true, 10, &mut instr);
                    drive(ctl, 0, false, 10, &mut instr); // storm: open + mass-evict
                    drive(ctl, 2, true, 60, &mut instr); // recover: half-open + close
                }
                let log = ctl.transition_log();
                assert_eq!(log.count(TransitionKind::BreakerOpened), 3);
                assert_eq!(log.count(TransitionKind::BreakerClosed), 3);
                // One mass eviction per opening, and mass evictions are
                // ordinary ExitBiased transitions (counted once).
                assert_eq!(
                    log.count(TransitionKind::ExitBiased),
                    ctl.stats().total_evictions
                );
            });
        }
    }

    #[test]
    fn flush_resets_oscillation_cap_budget() {
        let mut ctl = ReactiveController::builder(tiny()).build().unwrap();
        let mut instr = 0;
        // Exhaust the cap (5 entries) via forced oscillation.
        for _ in 0..6 {
            drive(&mut ctl, 0, true, 10, &mut instr);
            drive(&mut ctl, 0, false, 2, &mut instr);
        }
        assert!(ctl.is_disabled(BranchId::new(0)));

        // A flush gives the branch a fresh budget.
        ctl.flush_all();
        drive(&mut ctl, 0, true, 10, &mut instr);
        assert!(ctl.is_speculating(BranchId::new(0)));
        assert!(!ctl.is_disabled(BranchId::new(0)));
    }

    /// Telemetry must never perturb the controller: same trace, same
    /// stats, same transitions, with the registry and sink agreeing with
    /// the log.
    #[test]
    fn telemetry_is_behavior_preserving_and_consistent() {
        use crate::observe::{ObsEvent, VecSink};

        let stream = lifecycle_stream();
        let mut plain = ReactiveController::builder(tiny()).build().unwrap();
        let sink = Arc::new(VecSink::new());
        let mut metered = ReactiveController::builder(tiny())
            .metrics()
            .event_sink(sink.clone())
            .build()
            .unwrap();
        for r in &stream {
            plain.observe(r);
        }
        for chunk in stream.chunks(64) {
            metered.observe_chunk(chunk);
        }
        assert_eq!(plain.stats(), metered.stats());
        assert_eq!(plain.transitions(), metered.transitions());

        let reg = metered.metrics().expect("metrics enabled");
        let s = metered.stats();
        assert_eq!(reg.counter_value("rsc_events_total"), Some(s.events));
        assert_eq!(
            reg.counter_value("rsc_spec_incorrect_total"),
            Some(s.incorrect)
        );
        for kind in TransitionKind::ALL {
            assert_eq!(
                reg.counter_value_labeled("rsc_transitions_total", Some(("kind", kind.name()))),
                Some(metered.transition_log().count(kind)),
                "{kind:?}"
            );
        }
        // Every misspeculation lands in the interval histogram, and every
        // completed biased episode in the residency histogram.
        let h = reg.histogram_value("rsc_misspec_interval_events").unwrap();
        assert_eq!(h.count(), s.incorrect);
        let resid = reg.histogram_value("rsc_biased_residency_events").unwrap();
        assert_eq!(
            resid.count(),
            metered.transition_log().count(TransitionKind::ExitBiased)
        );

        // The sink saw exactly the logged transitions (full policy), plus
        // one Deploy event per re-optimization request — without a
        // resilience layer deployment is infallible, so every one of them
        // reports success on the first attempt.
        let events = sink.snapshot();
        let sunk: Vec<TransitionEvent> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Transition(t) => Some(*t),
                _ => None,
            })
            .collect();
        assert_eq!(sunk.as_slice(), metered.transitions());
        let deploys: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Deploy {
                    attempt, deployed, ..
                } => Some((*attempt, *deployed)),
                _ => None,
            })
            .collect();
        assert_eq!(deploys.len() as u64, s.reopt_requests);
        assert!(deploys.iter().all(|&(attempt, ok)| attempt == 0 && ok));
        assert_eq!(events.len(), sunk.len() + deploys.len());
    }

    /// With a resilience layer attached, deploy attempts stream to the
    /// sink and the retry-depth histogram counts every attempt.
    #[test]
    fn telemetry_observes_deployments() {
        use crate::observe::{ObsEvent, VecSink};
        use crate::resilience::{
            DeployerSpec, FaultMode, FaultScope, FaultSpec, ResilienceConfig, RetryPolicy,
        };

        let config = ResilienceConfig {
            deployer: DeployerSpec::Faulty(FaultSpec {
                seed: 7,
                mode: FaultMode::Burst {
                    period: 1_000_000,
                    len: 1,
                },
                scope: FaultScope::OptimizeOnly,
                wasted: 10,
            }),
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff: 20,
                max_backoff: 80,
            },
            breaker: None,
        };
        let sink = Arc::new(VecSink::new());
        let mut ctl = ReactiveController::builder(tiny())
            .resilience(config)
            .metrics()
            .event_sink(sink.clone())
            .build()
            .unwrap();
        let mut instr = 0;
        drive(&mut ctl, 0, true, 10, &mut instr); // first deploy fails
        ctl.observe(&rec(0, true, 80)); // retry deploys
        let s = ctl.stats();
        assert_eq!(s.deploy_failures, 1);
        assert_eq!(s.deploy_retries, 1);

        let deploys: Vec<(u32, bool)> = sink
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Deploy {
                    attempt, deployed, ..
                } => Some((*attempt, *deployed)),
                _ => None,
            })
            .collect();
        assert_eq!(deploys, vec![(0, false), (1, true)]);

        let reg = ctl.metrics().unwrap();
        assert_eq!(reg.counter_value("rsc_deploy_requests_total"), Some(2));
        assert_eq!(reg.counter_value("rsc_deploy_failures_total"), Some(1));
        let depth = reg.histogram_value("rsc_retry_depth").unwrap();
        assert_eq!(depth.count(), 2);
        assert_eq!(depth.sum(), 1, "one first try plus one depth-1 retry");
    }
}
