//! The pluggable control-policy seam and the built-in controller zoo.
//!
//! The paper's contribution is a *family* of reactive control policies
//! compared on benefit-vs-misspeculation curves (its Figure 2), but until
//! this module the 3-state FSM's decision rules were hardwired into
//! [`ReactiveController`](crate::ReactiveController). A [`Policy`] now
//! owns exactly the decision points, while the controller keeps everything
//! the paper treats as environment: pending/retry deployment states, the
//! oscillation cap, the revisit countdown, resilience, and telemetry.
//!
//! The seams are:
//!
//! * [`decide`](Policy::decide) — monitor-state classification: given the
//!   window counters accumulated so far, keep monitoring, speculate in a
//!   direction, or reject the branch as unbiased;
//! * [`observe`](Policy::observe) — biased-state observation: fold one
//!   speculated outcome into the eviction bookkeeping and say whether to
//!   evict;
//! * [`evict`](Policy::evict) — eviction *parametrization*: the tracker a
//!   branch carries into the biased state (its shape and thresholds may
//!   depend on how often the branch was evicted before);
//! * [`observe_run`](Policy::observe_run) — the chunked fast-path hook:
//!   how many further monitored executions are guaranteed to
//!   [`Continue`](SpecChoice::Continue), letting
//!   [`observe_chunk`](crate::ReactiveController::observe_chunk) handle
//!   those monitor executions inline.
//!
//! # Fast-path obligations
//!
//! The chunked paths inline the [`EvictTracker::Counter`] and
//! [`EvictTracker::Never`] update rules (the asymmetric saturating
//! counter's semantics are fixed by [`HysteresisCounter`]). A policy that
//! overrides [`observe`](Policy::observe) with anything else must also
//! return `true` from [`custom_observe`](Policy::custom_observe) so the
//! chunked paths route biased branches through the per-event path.
//! Similarly, [`observe_run`](Policy::observe_run) must never report
//! headroom across an execution on which [`decide`](Policy::decide) would
//! classify — returning 0 (the default) is always safe, merely slower.
//!
//! # The zoo
//!
//! * [`PaperFsm`] — the paper's exact rules (fixed window or confidence
//!   bounds from [`ControllerParams`], counter/sampled/no eviction).
//!   Bit-identical to the pre-policy controller and to the golden
//!   [`ReferenceController`](crate::ReferenceController).
//! * [`AdaptiveHysteresis`] — the paper's rules, but each time a branch is
//!   evicted its next counter threshold halves: repeat offenders are
//!   evicted faster, first offenders keep the paper's full burst
//!   tolerance.
//! * [`Perceptron`] — a confidence-weighted bias estimator for the
//!   hard-to-predict tail ("Branch Prediction Is Not a Solved Problem"):
//!   a signed excitement `w = 2·taken − samples` classifies as soon as
//!   `|w|` clears a confidence margin `theta` instead of waiting out the
//!   window, and the biased state carries a weight that misses deplete.
//! * [`CostAware`] — weighs the ~400-cycle misspeculation recovery
//!   penalty explicitly: a branch is selected only when its observed bias
//!   makes the expected net benefit positive, and eviction fires as soon
//!   as the accumulated net benefit of the current biased episode goes
//!   negative.
//!
//! ```
//! use rsc_control::prelude::*;
//!
//! let ctl = ReactiveController::builder(ControllerParams::scaled())
//!     .policy(AdaptiveHysteresis)
//!     .build()?;
//! assert_eq!(ctl.policy_id(), "adaptive-hysteresis");
//! # Ok::<(), InvalidParamsError>(())
//! ```

use crate::controller::EvictTracker;
use crate::counter::HysteresisCounter;
use crate::params::{ControllerParams, EvictionMode, MonitorPolicy};
use rsc_trace::Direction;
use std::fmt;
use std::sync::Arc;

/// The window counters a branch accumulates in the monitor state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorCounts {
    /// Executions observed in this monitor window (already including the
    /// one being decided).
    pub execs: u64,
    /// Executions sampled (equal to `execs` at sample rate 1).
    pub samples: u64,
    /// Sampled executions that were taken.
    pub taken: u64,
}

impl MonitorCounts {
    /// The majority outcome count.
    pub fn majority(&self) -> u64 {
        self.taken.max(self.samples - self.taken)
    }

    /// The observed bias toward the majority direction (0 when nothing
    /// was sampled).
    pub fn point_bias(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.majority() as f64 / self.samples as f64
        }
    }

    /// The majority direction (ties resolve to taken, matching the paper
    /// model's `taken * 2 >= samples`).
    pub fn direction(&self) -> Direction {
        if self.taken * 2 >= self.samples {
            Direction::Taken
        } else {
            Direction::NotTaken
        }
    }
}

/// A classification decision from the monitor state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecChoice {
    /// Keep monitoring.
    Continue,
    /// Classify biased: speculate in this direction.
    Speculate(Direction),
    /// Classify unbiased: park the branch (the revisit arc may bring it
    /// back).
    Reject,
}

/// A reactive control policy: the decision rules of the per-branch FSM.
///
/// Policies are configuration, not state — all mutable per-branch state
/// lives in the controller (`MonitorCounts` inside the monitor state, an
/// [`EvictTracker`] inside the biased state), so one policy value is
/// shared (`Arc`) across every branch, shard, and clone of a controller.
///
/// See the [module docs](self) for the seam contract and the fast-path
/// obligations.
pub trait Policy: fmt::Debug + Send + Sync {
    /// Stable identifier, used in checkpoints, metrics labels, and
    /// conformance artifacts.
    fn id(&self) -> &'static str;

    /// Monitor-state classification, consulted after every monitored
    /// execution (with `counts` already including it).
    fn decide(&self, counts: MonitorCounts, params: &ControllerParams) -> SpecChoice;

    /// Chunked-observe hook: how many *further* monitored executions are
    /// guaranteed to [`Continue`](SpecChoice::Continue) regardless of
    /// their outcomes. The chunked path handles such events inline;
    /// 0 (the default) routes every event through
    /// [`decide`](Policy::decide) — always safe, merely slower.
    fn observe_run(&self, counts: MonitorCounts, params: &ControllerParams) -> u64 {
        let _ = (counts, params);
        0
    }

    /// The eviction bookkeeping a branch carries into the biased state.
    /// `evictions` is how often this branch was evicted before, letting a
    /// policy adapt per-branch thresholds.
    fn evict(&self, params: &ControllerParams, evictions: u32) -> EvictTracker;

    /// Biased-state observation: fold one speculated outcome into the
    /// tracker; `true` evicts the branch. The default implements the
    /// standard tracker semantics (saturating counter, periodic
    /// re-sampling, never) that the chunked fast paths inline — see the
    /// module docs before overriding.
    fn observe(
        &self,
        tracker: &mut EvictTracker,
        correct: bool,
        params: &ControllerParams,
    ) -> bool {
        standard_observe(tracker, correct, params)
    }

    /// Must return `true` when [`observe`](Policy::observe) is overridden
    /// with non-standard semantics, so the chunked paths fall back to the
    /// per-event path for biased branches.
    fn custom_observe(&self) -> bool {
        false
    }

    /// Serialized policy configuration for checkpoints. Restored through
    /// [`policy_from_blob`]; built-ins use fixed-width little-endian
    /// fields (empty when the policy has no configuration).
    fn config_blob(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// The standard tracker update: the semantics the chunked fast paths
/// inline for [`EvictTracker::Counter`] and [`EvictTracker::Never`].
///
/// A [`EvictTracker::Sampling`] tracker under parameters whose eviction
/// mode is not [`EvictionMode::Sampling`] never fires (there is no period
/// to schedule against).
pub fn standard_observe(
    tracker: &mut EvictTracker,
    correct: bool,
    params: &ControllerParams,
) -> bool {
    match tracker {
        EvictTracker::Counter(c) => {
            if correct {
                c.correct();
            } else {
                c.misspeculation();
            }
            c.should_evict()
        }
        EvictTracker::Sampling {
            pos,
            matched,
            sampled,
        } => {
            let EvictionMode::Sampling {
                period,
                samples,
                bias_threshold,
            } = params.eviction
            else {
                return false;
            };
            let mut fire = false;
            if *pos < samples {
                *sampled += 1;
                *matched += u64::from(correct);
                if *sampled == samples {
                    let bias = *matched as f64 / *sampled as f64;
                    fire = bias < bias_threshold;
                }
            }
            *pos += 1;
            if *pos >= period {
                *pos = 0;
                *matched = 0;
                *sampled = 0;
            }
            fire
        }
        EvictTracker::Never => false,
    }
}

/// The paper-exact classification: fixed window or Wilson confidence
/// bounds, per [`ControllerParams::monitor_policy`]. Shared by the
/// policies that keep the paper's monitor rules.
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

/// Paper-exact fixed-window headroom: everything up to (but excluding)
/// the execution that completes the window is guaranteed `Continue`.
/// Confidence monitoring can classify on any execution, so it reports no
/// headroom.
fn paper_observe_run(counts: MonitorCounts, params: &ControllerParams) -> u64 {
    match params.monitor_policy {
        MonitorPolicy::FixedWindow if counts.execs + 1 < params.monitor_period => {
            params.monitor_period - 1 - counts.execs
        }
        _ => 0,
    }
}

/// The tracker described by [`ControllerParams::eviction`] (the paper's
/// parametrization), at its initial value.
fn paper_tracker(params: &ControllerParams) -> EvictTracker {
    match params.eviction {
        EvictionMode::Counter {
            up,
            down,
            threshold,
        } => EvictTracker::Counter(HysteresisCounter::new(up, down, threshold)),
        EvictionMode::Sampling { .. } => EvictTracker::Sampling {
            pos: 0,
            matched: 0,
            sampled: 0,
        },
        EvictionMode::Never => EvictTracker::Never,
    }
}

// ---------------------------------------------------------------------------
// The zoo
// ---------------------------------------------------------------------------

/// The paper's exact 3-state policy (the default). Every decision rule is
/// read from [`ControllerParams`]; conformance holds this implementation
/// bit-identical to the golden
/// [`ReferenceController`](crate::ReferenceController).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaperFsm;

impl Policy for PaperFsm {
    fn id(&self) -> &'static str {
        "paper-fsm"
    }

    fn decide(&self, counts: MonitorCounts, params: &ControllerParams) -> SpecChoice {
        paper_decide(counts, params)
    }

    fn observe_run(&self, counts: MonitorCounts, params: &ControllerParams) -> u64 {
        paper_observe_run(counts, params)
    }

    fn evict(&self, params: &ControllerParams, _evictions: u32) -> EvictTracker {
        paper_tracker(params)
    }
}

/// The paper's rules with a per-branch adaptive eviction threshold: each
/// eviction halves the counter threshold the branch gets on its next
/// biased entry (floored at the `up` increment, so eviction stays
/// reachable). A branch that keeps degrading is cut off with less and
/// less patience, while the paper's full burst tolerance is preserved for
/// first offenders. Non-counter eviction modes fall back to the paper's
/// behavior unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveHysteresis;

impl Policy for AdaptiveHysteresis {
    fn id(&self) -> &'static str {
        "adaptive-hysteresis"
    }

    fn decide(&self, counts: MonitorCounts, params: &ControllerParams) -> SpecChoice {
        paper_decide(counts, params)
    }

    fn observe_run(&self, counts: MonitorCounts, params: &ControllerParams) -> u64 {
        paper_observe_run(counts, params)
    }

    fn evict(&self, params: &ControllerParams, evictions: u32) -> EvictTracker {
        match params.eviction {
            EvictionMode::Counter {
                up,
                down,
                threshold,
            } => {
                let adapted = (threshold >> evictions.min(31)).max(up);
                EvictTracker::Counter(HysteresisCounter::new(up, down, adapted))
            }
            _ => paper_tracker(params),
        }
    }
}

/// A perceptron-style confidence-weighted bias estimator for the
/// hard-to-predict tail.
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

impl Policy for Perceptron {
    fn id(&self) -> &'static str {
        "perceptron"
    }

    fn decide(&self, counts: MonitorCounts, params: &ControllerParams) -> SpecChoice {
        let w = 2 * counts.taken as i64 - counts.samples as i64;
        let theta = i64::from(self.theta.max(1));
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

    // `decide` can classify on any execution: no headroom (default 0).

    fn evict(&self, _params: &ControllerParams, _evictions: u32) -> EvictTracker {
        let w_max = self.w_max.max(2).max(self.miss_weight.max(1));
        let mut c = HysteresisCounter::new(self.miss_weight.max(1), 1, w_max);
        // The counter tracks *depletion*: value = w_max − weight, so the
        // weight starts at w_max / 2 and eviction (value ≥ w_max) is
        // weight exhaustion.
        c.set_value(w_max - w_max / 2);
        EvictTracker::Counter(c)
    }

    fn config_blob(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        out.extend_from_slice(&self.theta.to_le_bytes());
        out.extend_from_slice(&self.w_max.to_le_bytes());
        out.extend_from_slice(&self.miss_weight.to_le_bytes());
        out
    }
}

/// A policy that weighs the misspeculation recovery penalty explicitly.
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

impl Policy for CostAware {
    fn id(&self) -> &'static str {
        "cost-aware"
    }

    fn decide(&self, counts: MonitorCounts, params: &ControllerParams) -> SpecChoice {
        if counts.execs >= params.monitor_period {
            if counts.point_bias() >= self.break_even() {
                SpecChoice::Speculate(counts.direction())
            } else {
                SpecChoice::Reject
            }
        } else {
            SpecChoice::Continue
        }
    }

    fn observe_run(&self, counts: MonitorCounts, params: &ControllerParams) -> u64 {
        // Fixed-window classification regardless of the params' monitor
        // policy, so the headroom is the paper's closed form.
        if counts.execs + 1 < params.monitor_period {
            params.monitor_period - 1 - counts.execs
        } else {
            0
        }
    }

    fn evict(&self, _params: &ControllerParams, _evictions: u32) -> EvictTracker {
        let recovery = self.recovery_clamped();
        let cap = recovery.saturating_mul(10);
        let mut c = HysteresisCounter::new(recovery, self.benefit.max(1), cap);
        // value = cap − net benefit: start with 2·recovery of credit;
        // eviction (value ≥ cap) is the episode going net-negative.
        c.set_value(cap - recovery.saturating_mul(2).min(cap));
        EvictTracker::Counter(c)
    }

    fn config_blob(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        out.extend_from_slice(&self.recovery.to_le_bytes());
        out.extend_from_slice(&self.benefit.to_le_bytes());
        out
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The identifiers of every built-in policy, in a stable order (the order
/// `repro pareto` sweeps them).
pub const BUILTIN_POLICY_IDS: [&str; 4] = [
    "paper-fsm",
    "adaptive-hysteresis",
    "perceptron",
    "cost-aware",
];

/// Reconstructs a built-in policy from its checkpoint identity: the
/// stable [`id`](Policy::id) plus the [`config_blob`](Policy::config_blob)
/// it serialized. Returns `None` for an unknown id or a blob that does
/// not decode as that policy's configuration.
pub fn policy_from_blob(id: &str, blob: &[u8]) -> Option<Arc<dyn Policy>> {
    fn u32_at(blob: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(blob[at..at + 4].try_into().expect("bounds checked"))
    }
    match id {
        "paper-fsm" if blob.is_empty() => Some(Arc::new(PaperFsm)),
        "adaptive-hysteresis" if blob.is_empty() => Some(Arc::new(AdaptiveHysteresis)),
        "perceptron" if blob.len() == 12 => Some(Arc::new(Perceptron {
            theta: u32_at(blob, 0),
            w_max: u32_at(blob, 4),
            miss_weight: u32_at(blob, 8),
        })),
        "cost-aware" if blob.len() == 8 => Some(Arc::new(CostAware {
            recovery: u32_at(blob, 0),
            benefit: u32_at(blob, 4),
        })),
        _ => None,
    }
}

/// A built-in policy at its default configuration, by id.
pub fn builtin_policy(id: &str) -> Option<Arc<dyn Policy>> {
    match id {
        "paper-fsm" => Some(Arc::new(PaperFsm)),
        "adaptive-hysteresis" => Some(Arc::new(AdaptiveHysteresis)),
        "perceptron" => Some(Arc::new(Perceptron::default())),
        "cost-aware" => Some(Arc::new(CostAware::default())),
        _ => None,
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
        assert_eq!(PaperFsm.decide(counts(9, 9, 9), &p), SpecChoice::Continue);
        assert_eq!(
            PaperFsm.decide(counts(10, 10, 10), &p),
            SpecChoice::Speculate(Direction::Taken)
        );
        assert_eq!(
            PaperFsm.decide(counts(10, 10, 0), &p),
            SpecChoice::Speculate(Direction::NotTaken)
        );
        assert_eq!(PaperFsm.decide(counts(10, 10, 9), &p), SpecChoice::Reject);
        // Headroom: everything strictly before the classifying execution.
        assert_eq!(PaperFsm.observe_run(counts(0, 0, 0), &p), 9);
        assert_eq!(PaperFsm.observe_run(counts(8, 8, 8), &p), 1);
        assert_eq!(PaperFsm.observe_run(counts(9, 9, 9), &p), 0);
        // Confidence monitoring reports no headroom.
        let c = tiny().with_confidence_monitor(2.58, 4, 100);
        assert_eq!(PaperFsm.observe_run(counts(0, 0, 0), &c), 0);
    }

    #[test]
    fn headroom_never_spans_a_classification() {
        // Contract shared by every built-in: after absorbing `observe_run`
        // further executions (worst case: all one direction), `decide`
        // still returns Continue on each of them.
        for policy in BUILTIN_POLICY_IDS {
            let p = builtin_policy(policy).unwrap();
            for params in [tiny(), tiny().with_confidence_monitor(2.58, 4, 100)] {
                let mut c = counts(0, 0, 0);
                loop {
                    let h = p.observe_run(c, &params);
                    for step in 0..h {
                        c = counts(c.execs + 1, c.samples + 1, c.taken + 1);
                        assert_eq!(
                            p.decide(c, &params),
                            SpecChoice::Continue,
                            "{policy} classified {step} events into its own headroom"
                        );
                    }
                    c = counts(c.execs + 1, c.samples + 1, c.taken + 1);
                    if p.decide(c, &params) != SpecChoice::Continue || c.execs > 64 {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_halves_threshold_per_eviction() {
        let p = tiny(); // counter 50 / 1 / 1000
        for (evictions, want) in [(0u32, 1000u32), (1, 500), (2, 250), (5, 50), (31, 50)] {
            let EvictTracker::Counter(c) = AdaptiveHysteresis.evict(&p, evictions) else {
                panic!("adaptive under counter params must build a counter");
            };
            let mut c = c;
            let mut steps = 0;
            while !c.should_evict() {
                c.misspeculation();
                steps += 1;
            }
            assert_eq!(steps, want.div_ceil(50), "evictions = {evictions}");
        }
    }

    #[test]
    fn perceptron_classifies_on_margin_not_window() {
        let z = Perceptron {
            theta: 4,
            w_max: 16,
            miss_weight: 4,
        };
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
        let mut t = z.evict(&p, 0);
        assert!(!z.observe(&mut t, false, &p));
        assert!(
            z.observe(&mut t, false, &p),
            "two misses exhaust the weight"
        );
    }

    #[test]
    fn cost_aware_break_even_selects_conservatively() {
        let z = CostAware::default();
        let p = tiny();
        // 99.75% break-even: 10/10 selects, 199/200-grade bias does not.
        assert!((z.break_even() - 400.0 / 401.0).abs() < 1e-12);
        assert_eq!(
            z.decide(counts(10, 10, 10), &p),
            SpecChoice::Speculate(Direction::Taken)
        );
        assert_eq!(z.decide(counts(10, 10, 9), &p), SpecChoice::Reject);
        // Net-benefit eviction: 2·recovery of credit, each miss costs 400.
        let mut t = z.evict(&p, 0);
        assert!(!z.observe(&mut t, false, &p));
        assert!(
            z.observe(&mut t, false, &p),
            "second miss goes net-negative"
        );
    }

    #[test]
    fn registry_round_trips_every_builtin() {
        for id in BUILTIN_POLICY_IDS {
            let p = builtin_policy(id).expect("builtin");
            assert_eq!(p.id(), id);
            let blob = p.config_blob();
            let back = policy_from_blob(id, &blob).expect("round trip");
            assert_eq!(back.id(), id);
            assert_eq!(back.config_blob(), blob);
        }
        assert!(policy_from_blob("no-such-policy", &[]).is_none());
        assert!(policy_from_blob("perceptron", &[1, 2, 3]).is_none());
    }

    #[test]
    fn standard_observe_is_safe_for_mismatched_sampling() {
        // A Sampling tracker under counter params never fires.
        let mut t = EvictTracker::Sampling {
            pos: 0,
            matched: 0,
            sampled: 0,
        };
        for _ in 0..100 {
            assert!(!standard_observe(&mut t, false, &tiny()));
        }
    }
}
