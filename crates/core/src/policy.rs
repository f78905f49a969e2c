//! The control policy: the decision rules of the per-branch FSM.
//!
//! The paper's contribution is a *family* of reactive control policies
//! compared on benefit-vs-misspeculation curves (its Figure 2). A
//! [`Policy`] owns exactly the decision points, while
//! [`ReactiveController`](crate::ReactiveController) keeps everything the
//! paper treats as environment: pending/retry deployment states, the
//! oscillation cap, the revisit countdown, resilience, and telemetry.
//!
//! The decision points are:
//!
//! * `decide` — monitor-state classification: given the window counters
//!   accumulated so far, keep monitoring, speculate in a direction, or
//!   reject the branch as unbiased;
//! * `evict` — eviction parametrization: the rule (a saturating
//!   counter's shape and starting value, sampling, or none) that every
//!   biased episode of a controller follows. The controller keeps the rule
//!   once, and each branch only the numbers the rule updates;
//! * `keeps_monitoring` — whether the next monitored execution cannot
//!   classify whatever its outcome, which lets the controller's in-place
//!   step (shared by [`observe`](crate::ReactiveController::observe) and
//!   [`observe_chunk`](crate::ReactiveController::observe_chunk)) handle
//!   it; it must never be `true` before an execution on which `decide`
//!   would classify. `fixed_window` says when that test is the window
//!   length alone, which the step compiles as a rule of its own.
//!
//! The step is generic over two rule types, picked once per call: a
//! `MonitorRule` (`FixedWindow` or `AnyMonitor`) and an `EvictRule`
//! (one per arm of the controller's `Eviction`).
//!
//! # The policies
//!
//! * [`Policy::PaperFsm`] — the paper's exact rules (fixed window or
//!   confidence bounds from [`ControllerParams`], counter/sampled/no
//!   eviction). Bit-identical to the golden
//!   [`ReferenceController`](crate::ReferenceController).
//! * [`Policy::Perceptron`] — a confidence-weighted bias estimator for the
//!   hard-to-predict tail ("Branch Prediction Is Not a Solved Problem"):
//!   a signed excitement `w = 2·taken − samples` classifies as soon as
//!   `|w|` clears a confidence margin `theta` instead of waiting out the
//!   window, and the biased state carries a weight that misses deplete.
//! * [`Policy::CostAware`] — weighs the ~400-cycle misspeculation recovery
//!   penalty explicitly: a branch is selected only when its observed bias
//!   makes the expected net benefit positive, and eviction fires as soon
//!   as the accumulated net benefit of the current biased episode goes
//!   negative.
//!
//! `Perceptron` and `CostAware` each beat `PaperFsm` on some workload
//! under the paper's utility (EXPERIMENTS.md, "Policy zoo under the
//! paper's utility"); the set is closed.
//!
//! ```
//! use rsc_control::prelude::*;
//!
//! let ctl = ReactiveController::builder(ControllerParams::scaled())
//!     .policy(Policy::Perceptron(Perceptron::default()))
//!     .build()?;
//! assert_eq!(ctl.policy_id(), "perceptron");
//! # Ok::<(), InvalidParamsError>(())
//! ```

use crate::controller::{EvictTracker, TrackerView};
use crate::counter::HysteresisCounter;
use crate::params::{ControllerParams, EvictionMode, MonitorPolicy};
use rsc_trace::Direction;

/// The window counters a branch accumulates in the monitor state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MonitorCounts {
    /// Executions observed in this monitor window.
    pub(crate) execs: u64,
    /// Executions sampled (equal to `execs` at sample rate 1).
    pub(crate) samples: u64,
    /// Sampled executions that were taken.
    pub(crate) taken: u64,
}

impl MonitorCounts {
    /// The counts of a branch's monitor state.
    #[inline(always)]
    pub(crate) fn from_window(execs: u32, samples: u32, taken: u32) -> Self {
        MonitorCounts {
            execs: u64::from(execs),
            samples: u64::from(samples),
            taken: u64::from(taken),
        }
    }

    /// The majority outcome count.
    fn majority(&self) -> u64 {
        self.taken.max(self.samples - self.taken)
    }

    /// The observed bias toward the majority direction (0 when nothing
    /// was sampled).
    fn point_bias(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.majority() as f64 / self.samples as f64
        }
    }

    /// The majority direction (ties resolve to taken, matching the paper
    /// model's `taken * 2 >= samples`).
    fn direction(&self) -> Direction {
        if self.taken * 2 >= self.samples {
            Direction::Taken
        } else {
            Direction::NotTaken
        }
    }
}

/// A classification decision from the monitor state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecChoice {
    /// Keep monitoring.
    Continue,
    /// Classify biased: speculate in this direction.
    Speculate(Direction),
    /// Classify unbiased: park the branch (the revisit arc may bring it
    /// back).
    Reject,
}

/// The eviction rule of one controller: what every biased episode of
/// every branch tracks, fixed at build by [`Policy::evict`]. Each branch
/// keeps only an [`EvictTracker`] of numbers this rule reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Eviction {
    /// An asymmetric saturating counter: its shape, and the value every
    /// episode starts from.
    Counter(HysteresisCounter),
    /// Periodic re-sampling (the params' [`EvictionMode::Sampling`]).
    Sampling(SampledEviction),
    /// No eviction (the open-loop configuration).
    Never,
}

/// One [`Eviction`] rule as a type of its own, so that the controller's
/// in-place step is compiled once per rule and never matches on it.
pub(crate) trait EvictRule: Copy {
    /// Folds one speculated outcome into `t`; `true` evicts.
    fn observe(&self, t: &mut EvictTracker, correct: bool) -> bool;
}

impl EvictRule for HysteresisCounter {
    #[inline(always)]
    fn observe(&self, t: &mut EvictTracker, correct: bool) -> bool {
        t.value = self.next(t.value, correct);
        t.value >= self.threshold()
    }
}

/// [`Eviction::Sampling`]'s rule: the first `samples` executions of every
/// `period` are sampled, and the period's last sample evicts when their
/// bias falls below `bias_threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SampledEviction {
    /// Re-sampling period in executions.
    pub(crate) period: u32,
    /// Executions sampled at the start of each period.
    pub(crate) samples: u32,
    /// Evict when the sampled bias falls below this.
    pub(crate) bias_threshold: f64,
}

impl EvictRule for SampledEviction {
    #[inline(always)]
    fn observe(&self, t: &mut EvictTracker, correct: bool) -> bool {
        let mut fire = false;
        if t.value < self.samples {
            t.sampled += 1;
            t.matched += u32::from(correct);
            if t.sampled == self.samples {
                let bias = f64::from(t.matched) / f64::from(t.sampled);
                fire = bias < self.bias_threshold;
            }
        }
        t.value += 1;
        if t.value >= self.period {
            *t = EvictTracker::default();
        }
        fire
    }
}

/// [`Eviction::Never`]'s rule: the open loop tracks nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NoEviction;

impl EvictRule for NoEviction {
    #[inline(always)]
    fn observe(&self, _: &mut EvictTracker, _: bool) -> bool {
        false
    }
}

impl Eviction {
    /// The bookkeeping a branch carries into a new biased episode.
    pub(crate) fn start(&self) -> EvictTracker {
        EvictTracker {
            value: match self {
                Eviction::Counter(c) => c.value(),
                Eviction::Sampling(_) | Eviction::Never => 0,
            },
            matched: 0,
            sampled: 0,
        }
    }

    /// Folds one speculated outcome into `t` under this rule; `true`
    /// evicts.
    pub(crate) fn observe(&self, t: &mut EvictTracker, correct: bool) -> bool {
        match self {
            Eviction::Counter(c) => c.observe(t, correct),
            Eviction::Sampling(s) => s.observe(t, correct),
            Eviction::Never => NoEviction.observe(t, correct),
        }
    }

    /// The externally comparable view of `t` under this rule.
    pub(crate) fn view(&self, t: &EvictTracker) -> TrackerView {
        match self {
            Eviction::Counter(_) => TrackerView::Counter { value: t.value },
            Eviction::Sampling(_) => TrackerView::Sampling {
                pos: u64::from(t.value),
                matched: u64::from(t.matched),
                sampled: u64::from(t.sampled),
            },
            Eviction::Never => TrackerView::Never,
        }
    }
}

/// The monitor-state test of the controller's in-place step, as a type,
/// so that the step is compiled once per rule: whether the next monitored
/// execution cannot classify, and whether it is sampled.
pub(crate) trait MonitorRule: Copy {
    /// Whether the next monitored execution, on top of this window, is
    /// guaranteed to [`Continue`](SpecChoice::Continue) whatever its
    /// outcome (see [`Policy::keeps_monitoring`]).
    fn keeps_monitoring(&self, execs: u32, samples: u32, taken: u32) -> bool;
    /// Whether the execution after `execs` in the window is sampled.
    fn samples(&self, execs: u32) -> bool;
}

/// A fixed monitor window at sample rate 1: every execution is sampled,
/// and only the window's last one can classify. It is what
/// [`Policy::keeps_monitoring`] reduces to for [`Policy::PaperFsm`] with
/// [`MonitorPolicy::FixedWindow`] and for [`Policy::CostAware`], which
/// classify on the window's end alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FixedWindow {
    /// The window length, [`ControllerParams::monitor_period`].
    pub(crate) period: u64,
}

impl MonitorRule for FixedWindow {
    #[inline(always)]
    fn keeps_monitoring(&self, execs: u32, _: u32, _: u32) -> bool {
        u64::from(execs) + 1 < self.period
    }

    #[inline(always)]
    fn samples(&self, _: u32) -> bool {
        true
    }
}

/// Every other monitor: the policy's own [`Policy::keeps_monitoring`]
/// and the params' sample rate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AnyMonitor<'a> {
    pub(crate) policy: Policy,
    pub(crate) params: &'a ControllerParams,
}

impl MonitorRule for AnyMonitor<'_> {
    #[inline(always)]
    fn keeps_monitoring(&self, execs: u32, samples: u32, taken: u32) -> bool {
        self.policy.keeps_monitoring(
            MonitorCounts::from_window(execs, samples, taken),
            self.params,
        )
    }

    #[inline(always)]
    fn samples(&self, execs: u32) -> bool {
        let rate = self.params.monitor_sample_rate;
        rate == 1 || u64::from(execs) % rate == 0
    }
}

/// A reactive control policy: which of the built-in decision rules the
/// per-branch FSM runs.
///
/// Policies are configuration, not state — all mutable per-branch state
/// lives in the controller (the window counters in the monitor state, an
/// eviction tracker in the biased state) — so one `Copy` value serves
/// every branch, shard, and clone of a controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Policy {
    /// The paper's exact 3-state rules, read from [`ControllerParams`]
    /// (the default). Conformance holds it bit-identical to the golden
    /// [`ReferenceController`](crate::ReferenceController).
    #[default]
    PaperFsm,
    /// Classify on a confidence margin instead of a full window.
    Perceptron(Perceptron),
    /// Select and evict on the expected net benefit.
    CostAware(CostAware),
}

/// Configuration of [`Policy::Perceptron`], a perceptron-style
/// confidence-weighted bias estimator for the hard-to-predict tail.
///
/// Monitoring keeps a signed excitement `w = 2·taken − samples` and
/// classifies as soon as `|w| >= theta` — clearly biased branches
/// classify in roughly `theta` executions instead of waiting out the
/// window, and a window that expires without the margin rejects. The
/// biased state carries a weight starting at `w_max / 2` that each miss
/// depletes by `miss_weight` and each correct speculation replenishes by
/// 1 (saturating at `w_max`); eviction fires when it is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perceptron {
    /// Confidence margin needed to classify (in net outcomes).
    pub theta: u32,
    /// Bias-weight ceiling of the biased state.
    pub w_max: u32,
    /// Bias-weight cost of one misspeculation.
    pub miss_weight: u32,
}

impl Default for Perceptron {
    fn default() -> Self {
        Perceptron {
            theta: 48,
            w_max: 256,
            miss_weight: 32,
        }
    }
}

/// Configuration of [`Policy::CostAware`], which weighs the
/// misspeculation recovery penalty explicitly.
///
/// Selection: a branch is classified biased (at the end of the fixed
/// monitor window) only when its observed bias clears the break-even
/// point `recovery / (recovery + benefit)` — with the paper's ~400-cycle
/// recovery and 1 cycle of benefit per correct speculation, that is a
/// ~99.75% bias. Eviction: the biased state tracks the episode's net
/// benefit (starting with `2·recovery` of credit, capped at
/// `10·recovery`); each correct speculation adds `benefit`, each miss
/// subtracts `recovery`, and the branch is evicted the moment the
/// episode goes net-negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostAware {
    /// Cycles lost recovering from one misspeculation.
    pub recovery: u32,
    /// Cycles gained by one correct speculation.
    pub benefit: u32,
}

impl Default for CostAware {
    fn default() -> Self {
        CostAware {
            recovery: 400,
            benefit: 1,
        }
    }
}

impl CostAware {
    fn recovery_clamped(&self) -> u32 {
        self.recovery.max(1)
    }

    /// The bias above which speculation is expected net-positive.
    pub fn break_even(&self) -> f64 {
        let r = f64::from(self.recovery_clamped());
        let b = f64::from(self.benefit.max(1));
        r / (r + b)
    }
}

/// The identifiers of every built-in policy, in a stable order (the order
/// `repro pareto` sweeps them).
pub const BUILTIN_POLICY_IDS: [&str; 3] = ["paper-fsm", "perceptron", "cost-aware"];

impl Policy {
    /// Stable identifier, used in checkpoints, metrics labels, and
    /// conformance artifacts.
    pub fn id(&self) -> &'static str {
        match self {
            Policy::PaperFsm => "paper-fsm",
            Policy::Perceptron(_) => "perceptron",
            Policy::CostAware(_) => "cost-aware",
        }
    }

    /// Serialized configuration for checkpoints, restored through
    /// [`from_blob`](Policy::from_blob): fixed-width little-endian fields,
    /// empty for [`Policy::PaperFsm`].
    pub fn config_blob(&self) -> Vec<u8> {
        let fields = match self {
            Policy::PaperFsm => vec![],
            Policy::Perceptron(z) => vec![z.theta, z.w_max, z.miss_weight],
            Policy::CostAware(z) => vec![z.recovery, z.benefit],
        };
        fields.iter().flat_map(|f| f.to_le_bytes()).collect()
    }

    /// Reconstructs a policy from its checkpoint identity: the stable
    /// [`id`](Policy::id) plus the [`config_blob`](Policy::config_blob) it
    /// serialized. Returns `None` for an unknown id or a blob that does
    /// not decode as that policy's configuration.
    pub fn from_blob(id: &str, blob: &[u8]) -> Option<Policy> {
        let u32_at =
            |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().expect("bounds checked"));
        match id {
            "paper-fsm" if blob.is_empty() => Some(Policy::PaperFsm),
            "perceptron" if blob.len() == 12 => Some(Policy::Perceptron(Perceptron {
                theta: u32_at(0),
                w_max: u32_at(4),
                miss_weight: u32_at(8),
            })),
            "cost-aware" if blob.len() == 8 => Some(Policy::CostAware(CostAware {
                recovery: u32_at(0),
                benefit: u32_at(4),
            })),
            _ => None,
        }
    }

    /// A built-in policy at its default configuration, by id.
    pub fn builtin(id: &str) -> Option<Policy> {
        match id {
            "paper-fsm" => Some(Policy::PaperFsm),
            "perceptron" => Some(Policy::Perceptron(Perceptron::default())),
            "cost-aware" => Some(Policy::CostAware(CostAware::default())),
            _ => None,
        }
    }

    /// Monitor-state classification, consulted after every monitored
    /// execution (with `counts` already including it).
    pub(crate) fn decide(&self, counts: MonitorCounts, params: &ControllerParams) -> SpecChoice {
        match self {
            Policy::PaperFsm => paper_decide(counts, params),
            Policy::Perceptron(z) => {
                let w = 2 * counts.taken as i64 - counts.samples as i64;
                let theta = i64::from(z.theta.max(1));
                if w >= theta {
                    SpecChoice::Speculate(Direction::Taken)
                } else if -w >= theta {
                    SpecChoice::Speculate(Direction::NotTaken)
                } else if counts.execs >= params.monitor_period {
                    SpecChoice::Reject
                } else {
                    SpecChoice::Continue
                }
            }
            Policy::CostAware(z) => {
                if counts.execs < params.monitor_period {
                    SpecChoice::Continue
                } else if counts.point_bias() >= z.break_even() {
                    SpecChoice::Speculate(counts.direction())
                } else {
                    SpecChoice::Reject
                }
            }
        }
    }

    /// Whether the next monitored execution, on top of `counts`, is
    /// guaranteed to [`Continue`](SpecChoice::Continue) whatever its
    /// outcome. The controller's in-place step handles such executions and
    /// sends every other one through [`decide`](Policy::decide).
    #[inline]
    pub(crate) fn keeps_monitoring(
        &self,
        counts: MonitorCounts,
        params: &ControllerParams,
    ) -> bool {
        let window_open = counts.execs + 1 < params.monitor_period;
        match self {
            // Confidence monitoring can classify on any execution.
            Policy::PaperFsm => {
                window_open && matches!(params.monitor_policy, MonitorPolicy::FixedWindow)
            }
            // One execution moves |w| by at most 1.
            Policy::Perceptron(z) => {
                let w = 2 * counts.taken as i64 - counts.samples as i64;
                window_open && w.abs() + 1 < i64::from(z.theta.max(1))
            }
            // Fixed-window classification whatever the params' monitor
            // policy.
            Policy::CostAware(_) => window_open,
        }
    }

    /// The [`FixedWindow`] rule, when [`keeps_monitoring`] is exactly its
    /// test under `params`: a policy that classifies only at the window's
    /// end, at sample rate 1. `None` sends the in-place step through the
    /// general [`AnyMonitor`].
    ///
    /// [`keeps_monitoring`]: Policy::keeps_monitoring
    pub(crate) fn fixed_window(&self, params: &ControllerParams) -> Option<FixedWindow> {
        let window_only = match self {
            Policy::PaperFsm => matches!(params.monitor_policy, MonitorPolicy::FixedWindow),
            Policy::Perceptron(_) => false,
            Policy::CostAware(_) => true,
        };
        (window_only && params.monitor_sample_rate == 1).then_some(FixedWindow {
            period: params.monitor_period,
        })
    }

    /// The eviction rule every biased episode follows under `params`.
    /// The params must have passed
    /// [`validate`](ControllerParams::validate), which bounds the sampling
    /// lengths to `u32`.
    pub(crate) fn evict(&self, params: &ControllerParams) -> Eviction {
        match self {
            Policy::PaperFsm => match params.eviction {
                EvictionMode::Counter {
                    up,
                    down,
                    threshold,
                } => Eviction::Counter(HysteresisCounter::new(up, down, threshold)),
                EvictionMode::Sampling {
                    period,
                    samples,
                    bias_threshold,
                } => Eviction::Sampling(SampledEviction {
                    period: u32::try_from(period).expect("validated period"),
                    samples: u32::try_from(samples).expect("validated samples"),
                    bias_threshold,
                }),
                EvictionMode::Never => Eviction::Never,
            },
            Policy::Perceptron(z) => {
                let w_max = z.w_max.max(2).max(z.miss_weight.max(1));
                let mut c = HysteresisCounter::new(z.miss_weight.max(1), 1, w_max);
                // The counter tracks *depletion*: value = w_max − weight,
                // so the weight starts at w_max / 2 and eviction
                // (value ≥ w_max) is weight exhaustion.
                c.set_value(w_max - w_max / 2);
                Eviction::Counter(c)
            }
            Policy::CostAware(z) => {
                let recovery = z.recovery_clamped();
                let cap = recovery.saturating_mul(10);
                let mut c = HysteresisCounter::new(recovery, z.benefit.max(1), cap);
                // value = cap − net benefit: start with 2·recovery of
                // credit; eviction (value ≥ cap) is the episode going
                // net-negative.
                c.set_value(cap - recovery.saturating_mul(2).min(cap));
                Eviction::Counter(c)
            }
        }
    }
}

/// The paper-exact classification: fixed window or Wilson confidence
/// bounds, per [`ControllerParams::monitor_policy`].
fn paper_decide(counts: MonitorCounts, params: &ControllerParams) -> SpecChoice {
    let threshold = params.selection_threshold;
    let outcome = match params.monitor_policy {
        MonitorPolicy::FixedWindow => {
            if counts.execs >= params.monitor_period {
                Some(counts.point_bias() >= threshold)
            } else {
                None
            }
        }
        MonitorPolicy::Confidence {
            z,
            min_execs,
            max_execs,
        } => {
            if counts.samples < min_execs {
                None
            } else {
                let (lo, hi) =
                    crate::confidence::wilson_bounds(counts.majority(), counts.samples, z);
                if lo >= threshold {
                    Some(true)
                } else if hi < threshold {
                    Some(false)
                } else if counts.samples >= max_execs {
                    Some(counts.point_bias() >= threshold)
                } else {
                    None
                }
            }
        }
    };
    match outcome {
        None => SpecChoice::Continue,
        Some(true) => SpecChoice::Speculate(counts.direction()),
        Some(false) => SpecChoice::Reject,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ControllerParams {
        ControllerParams::scaled().with_monitor_period(10)
    }

    fn counts(execs: u64, samples: u64, taken: u64) -> MonitorCounts {
        MonitorCounts {
            execs,
            samples,
            taken,
        }
    }

    #[test]
    fn paper_fsm_matches_fixed_window_math() {
        let p = tiny();
        let fsm = Policy::PaperFsm;
        assert_eq!(fsm.decide(counts(9, 9, 9), &p), SpecChoice::Continue);
        assert_eq!(
            fsm.decide(counts(10, 10, 10), &p),
            SpecChoice::Speculate(Direction::Taken)
        );
        assert_eq!(
            fsm.decide(counts(10, 10, 0), &p),
            SpecChoice::Speculate(Direction::NotTaken)
        );
        assert_eq!(fsm.decide(counts(10, 10, 9), &p), SpecChoice::Reject);
        // Headroom: everything strictly before the classifying execution.
        assert!(fsm.keeps_monitoring(counts(0, 0, 0), &p));
        assert!(fsm.keeps_monitoring(counts(8, 8, 8), &p));
        assert!(!fsm.keeps_monitoring(counts(9, 9, 9), &p));
        // Confidence monitoring reports no headroom.
        let c = tiny().with_confidence_monitor(2.58, 4, 100);
        assert!(!fsm.keeps_monitoring(counts(0, 0, 0), &c));
    }

    #[test]
    fn headroom_never_spans_a_classification() {
        // Contract shared by every built-in: whenever `keeps_monitoring`
        // holds, the next execution — taken or not — still `Continue`s.
        let theta_4 = Policy::Perceptron(Perceptron {
            theta: 4,
            ..Perceptron::default()
        });
        let policies = BUILTIN_POLICY_IDS.map(|id| Policy::builtin(id).unwrap());
        for policy in policies.into_iter().chain([theta_4]) {
            for params in [tiny(), tiny().with_confidence_monitor(2.58, 4, 100)] {
                for execs in 0..12 {
                    for taken in 0..=execs {
                        let c = counts(execs, execs, taken);
                        if !policy.keeps_monitoring(c, &params) {
                            continue;
                        }
                        for next_taken in [taken, taken + 1] {
                            assert_eq!(
                                policy.decide(counts(execs + 1, execs + 1, next_taken), &params),
                                SpecChoice::Continue,
                                "{} classified inside its headroom at {c:?}",
                                policy.id()
                            );
                        }
                    }
                }
            }
        }
        // The perceptron inlines mid-window executions short of its margin.
        assert!(theta_4.keeps_monitoring(counts(2, 2, 1), &tiny()));
        assert!(!theta_4.keeps_monitoring(counts(3, 3, 3), &tiny()));
    }

    #[test]
    fn fixed_window_is_the_policys_own_test() {
        // Where the in-place step compiles the fixed window, that window
        // must be exactly the policy's headroom test, sampling every
        // execution.
        let policies = BUILTIN_POLICY_IDS.map(|id| Policy::builtin(id).unwrap());
        let monitors = [
            tiny(),
            tiny().with_monitor_sampling(3),
            tiny().with_confidence_monitor(2.58, 4, 100),
        ];
        let mut fixed = 0;
        for policy in policies {
            for params in monitors {
                let Some(w) = policy.fixed_window(&params) else {
                    continue;
                };
                fixed += 1;
                for execs in 0..12u32 {
                    assert!(w.samples(execs));
                    for taken in 0..=execs {
                        assert_eq!(
                            w.keeps_monitoring(execs, execs, taken),
                            policy.keeps_monitoring(
                                MonitorCounts::from_window(execs, execs, taken),
                                &params
                            ),
                            "{} at {execs}/{taken}",
                            policy.id()
                        );
                    }
                }
            }
        }
        // paper-fsm's fixed window, and cost-aware at either monitor.
        assert_eq!(fixed, 3);
    }

    #[test]
    fn perceptron_classifies_on_margin_not_window() {
        let z = Policy::Perceptron(Perceptron {
            theta: 4,
            w_max: 16,
            miss_weight: 4,
        });
        let p = tiny();
        assert_eq!(z.decide(counts(3, 3, 3), &p), SpecChoice::Continue);
        assert_eq!(
            z.decide(counts(4, 4, 4), &p),
            SpecChoice::Speculate(Direction::Taken)
        );
        assert_eq!(
            z.decide(counts(4, 4, 0), &p),
            SpecChoice::Speculate(Direction::NotTaken)
        );
        // Window expires without the margin: reject.
        assert_eq!(z.decide(counts(10, 10, 6), &p), SpecChoice::Reject);
        // Weight exhaustion: w starts at w_max/2 = 8, one miss costs 4.
        let rule = z.evict(&p);
        let mut t = rule.start();
        assert!(!rule.observe(&mut t, false));
        assert!(rule.observe(&mut t, false), "two misses exhaust the weight");
    }

    #[test]
    fn cost_aware_break_even_selects_conservatively() {
        let c = CostAware::default();
        let z = Policy::CostAware(c);
        let p = tiny();
        // 99.75% break-even: 10/10 selects, 199/200-grade bias does not.
        assert!((c.break_even() - 400.0 / 401.0).abs() < 1e-12);
        assert_eq!(
            z.decide(counts(10, 10, 10), &p),
            SpecChoice::Speculate(Direction::Taken)
        );
        assert_eq!(z.decide(counts(10, 10, 9), &p), SpecChoice::Reject);
        // Net-benefit eviction: 2·recovery of credit, each miss costs 400.
        let rule = z.evict(&p);
        let mut t = rule.start();
        assert!(!rule.observe(&mut t, false));
        assert!(rule.observe(&mut t, false), "second miss goes net-negative");
    }

    #[test]
    fn registry_round_trips_every_builtin() {
        for id in BUILTIN_POLICY_IDS {
            let p = Policy::builtin(id).expect("builtin");
            assert_eq!(p.id(), id);
            let blob = p.config_blob();
            let back = Policy::from_blob(id, &blob).expect("round trip");
            assert_eq!(back, p);
        }
        assert!(Policy::from_blob("no-such-policy", &[]).is_none());
        assert!(Policy::from_blob("perceptron", &[1, 2, 3]).is_none());
    }
}
