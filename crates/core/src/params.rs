//! Controller parameters (the paper's Table 2) and the sensitivity-study
//! variants built from them (Figure 5 / Table 4).

/// How the controller decides to evict a branch from the biased state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvictionMode {
    /// Saturating hysteresis counter: `+up` on each misspeculation, `−down`
    /// on each correct speculation; evict when the counter reaches
    /// `threshold`. This is the paper's baseline (+50 / −1, threshold
    /// 10,000 — eviction requires at least 200 misspeculations and engages
    /// when the misspeculation rate exceeds roughly `down/(up+down)` ≈ 2%).
    Counter {
        /// Increment on misspeculation.
        up: u32,
        /// Decrement on correct speculation.
        down: u32,
        /// Eviction level.
        threshold: u32,
    },
    /// Periodic re-sampling: every `period` executions, measure the bias of
    /// the first `samples` executions; evict if it falls below
    /// `bias_threshold` (the paper's "eviction by sampling" variant with a
    /// 1,000-in-10,000 duty cycle).
    Sampling {
        /// Re-sampling period in executions.
        period: u64,
        /// Number of executions sampled at the start of each period.
        samples: u64,
        /// Evict when the sampled bias falls below this.
        bias_threshold: f64,
    },
    /// Never evict (the paper's open-loop "no eviction" variant).
    Never,
}

/// How the monitor state decides when it has seen enough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MonitorPolicy {
    /// The paper's fixed window: classify after exactly
    /// [`ControllerParams::monitor_period`] executions.
    FixedWindow,
    /// Confidence-bound classification (an extension of the paper's
    /// model): classify as soon as the Wilson lower bound of the bias
    /// clears the selection threshold (select) or the upper bound falls
    /// below it (reject), bounded by `[min_execs, max_execs]`. Clearly
    /// biased branches classify in tens of executions; borderline branches
    /// automatically observe longer.
    Confidence {
        /// z value of the confidence interval (2.58 ≈ 99%).
        z: f64,
        /// Never classify before this many monitored samples.
        min_execs: u64,
        /// Force a fixed-window-style decision at this many samples.
        max_execs: u64,
    },
}

/// The longest window [`ControllerParams::validate`] accepts.
const U32_WINDOW: u64 = u32::MAX as u64;

/// Whether (and when) an unbiased branch returns to the monitor state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Revisit {
    /// Re-monitor after this many executions in the unbiased state.
    After(u64),
    /// Never revisit (the paper's "no revisit" variant).
    Never,
}

/// Full parameterization of the reactive controller.
///
/// [`ControllerParams::table2`] reproduces the paper's Table 2 exactly.
/// Because our workloads are hundreds of times shorter than the paper's
/// full benchmark runs (9–45 billion instructions), experiments default to
/// [`ControllerParams::scaled`], which shortens the time-like parameters
/// the same way the paper itself shortened its MSSP runs ("parameterized
/// ... artificially fast").
///
/// # Examples
///
/// ```
/// use rsc_control::ControllerParams;
/// let p = ControllerParams::table2();
/// assert_eq!(p.monitor_period, 10_000);
/// let open_loop = p.without_eviction();
/// assert_ne!(open_loop.eviction, p.eviction);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerParams {
    /// Executions spent in the monitor state before classifying.
    pub monitor_period: u64,
    /// How the monitor decides (fixed window vs confidence bounds).
    pub monitor_policy: MonitorPolicy,
    /// Sample every k-th execution while monitoring (1 = every execution).
    /// The window still spans `monitor_period` executions, so rates above 1
    /// classify from proportionally fewer samples.
    pub monitor_sample_rate: u64,
    /// Bias required to enter the biased state (Table 2: 99.5%).
    pub selection_threshold: f64,
    /// Eviction policy.
    pub eviction: EvictionMode,
    /// Revisit policy.
    pub revisit: Revisit,
    /// Maximum number of times a branch may enter the biased state before
    /// it is permanently disabled (Table 2: "will not optimize a sixth
    /// time" = 5). `None` disables the cap.
    pub oscillation_limit: Option<u32>,
    /// Latency, in dynamic instructions, between a (de)optimization
    /// decision and the new code being deployed.
    pub optimization_latency: u64,
}

impl ControllerParams {
    /// The paper's Table 2 baseline parameters.
    pub fn table2() -> Self {
        ControllerParams {
            monitor_period: 10_000,
            monitor_policy: MonitorPolicy::FixedWindow,
            monitor_sample_rate: 1,
            selection_threshold: 0.995,
            eviction: EvictionMode::Counter {
                up: 50,
                down: 1,
                threshold: 10_000,
            },
            revisit: Revisit::After(1_000_000),
            oscillation_limit: Some(5),
            optimization_latency: 1_000_000,
        }
    }

    /// Table 2 parameters with the time-like constants shortened ~10× for
    /// the scaled workloads used throughout this reproduction (tens of
    /// millions rather than tens of billions of instructions).
    ///
    /// Structure is unchanged: the same FSM, the same +50/−1 hysteresis
    /// shape, the same oscillation cap. The eviction threshold of 1,000 is a
    /// value the paper itself studies in its sensitivity analysis and
    /// reports as near-baseline; the wait period keeps the paper's
    /// monitor-to-wait ratio while staying short relative to per-branch
    /// execution counts at this scale.
    pub fn scaled() -> Self {
        ControllerParams {
            monitor_period: 1_000,
            monitor_policy: MonitorPolicy::FixedWindow,
            monitor_sample_rate: 1,
            selection_threshold: 0.995,
            eviction: EvictionMode::Counter {
                up: 50,
                down: 1,
                threshold: 1_000,
            },
            revisit: Revisit::After(25_000),
            oscillation_limit: Some(5),
            optimization_latency: 100_000,
        }
    }

    /// Removes the eviction arc (biased → monitor): the open-loop
    /// configuration whose misspeculation rate the paper shows to be almost
    /// two orders of magnitude worse.
    pub fn without_eviction(mut self) -> Self {
        self.eviction = EvictionMode::Never;
        self
    }

    /// Removes the revisit arc (unbiased → monitor): the paper shows this
    /// loses ~20% of the correct speculations.
    pub fn without_revisit(mut self) -> Self {
        self.revisit = Revisit::Never;
        self
    }

    /// Divides the counter eviction threshold by 10 (the paper's "lower
    /// eviction threshold" variant). No-op for non-counter modes.
    pub fn with_lower_eviction_threshold(mut self) -> Self {
        if let EvictionMode::Counter {
            up,
            down,
            threshold,
        } = self.eviction
        {
            self.eviction = EvictionMode::Counter {
                up,
                down,
                threshold: (threshold / 10).max(up),
            };
        }
        self
    }

    /// Switches to periodic bias re-sampling for eviction (the paper's
    /// "eviction by sampling" variant: 1,000 samples every 10,000
    /// executions — a 10% duty cycle — against a 98% bias floor; both
    /// lengths scale with the monitor period).
    pub fn with_sampled_eviction(mut self) -> Self {
        let period = self.monitor_period;
        self.eviction = EvictionMode::Sampling {
            period,
            samples: (period / 10).max(1),
            bias_threshold: 0.98,
        };
        self
    }

    /// Samples 1-in-`rate` executions in the monitor state (the paper's
    /// "sampling in monitor" variant uses 8).
    pub fn with_monitor_sampling(mut self, rate: u64) -> Self {
        self.monitor_sample_rate = rate.max(1);
        self
    }

    /// Divides the revisit wait period by 10 (the paper's "more frequent
    /// revisit" variant). No-op if revisit is disabled.
    pub fn with_frequent_revisit(mut self) -> Self {
        if let Revisit::After(n) = self.revisit {
            self.revisit = Revisit::After((n / 10).max(1));
        }
        self
    }

    /// Sets the optimization latency.
    pub fn with_latency(mut self, instructions: u64) -> Self {
        self.optimization_latency = instructions;
        self
    }

    /// Sets the monitor period.
    pub fn with_monitor_period(mut self, executions: u64) -> Self {
        self.monitor_period = executions.max(1);
        self
    }

    /// Switches the monitor to confidence-bound classification (an
    /// extension of the paper's fixed window).
    pub fn with_confidence_monitor(mut self, z: f64, min_execs: u64, max_execs: u64) -> Self {
        self.monitor_policy = MonitorPolicy::Confidence {
            z,
            min_execs,
            max_execs,
        };
        self
    }

    /// Validates internal consistency.
    ///
    /// Window lengths the controller counts per branch (the monitor
    /// window, the confidence monitor's cap on its executions, and the
    /// sampling eviction's period and samples) must fit in `u32`, which
    /// keeps the per-branch record at 40 bytes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), InvalidParamsError> {
        if self.monitor_period == 0 {
            return Err(InvalidParamsError::bad_field(
                "monitor_period",
                self.monitor_period,
                "must be positive",
            ));
        }
        if self.monitor_period > U32_WINDOW {
            return Err(InvalidParamsError::bad_field(
                "monitor_period",
                self.monitor_period,
                "must fit in u32",
            ));
        }
        if self.monitor_sample_rate == 0 {
            return Err(InvalidParamsError::bad_field(
                "monitor_sample_rate",
                self.monitor_sample_rate,
                "must be positive",
            ));
        }
        if !(self.selection_threshold > 0.5 && self.selection_threshold <= 1.0) {
            return Err(InvalidParamsError::bad_field(
                "selection_threshold",
                self.selection_threshold,
                "must be in (0.5, 1.0]",
            ));
        }
        match self.eviction {
            EvictionMode::Counter {
                up,
                down,
                threshold,
            } => {
                if up == 0 {
                    return Err(InvalidParamsError::bad_field(
                        "eviction.up",
                        up,
                        "must be positive",
                    ));
                }
                if threshold == 0 {
                    return Err(InvalidParamsError::bad_field(
                        "eviction.threshold",
                        threshold,
                        "must be positive",
                    ));
                }
                if down == 0 {
                    return Err(InvalidParamsError::bad_field(
                        "eviction.down",
                        down,
                        "must be positive",
                    ));
                }
                if threshold < up {
                    return Err(InvalidParamsError::bad_field(
                        "eviction.threshold",
                        threshold,
                        "must be at least the up increment",
                    ));
                }
            }
            EvictionMode::Sampling {
                period,
                samples,
                bias_threshold,
            } => {
                if samples == 0 || period == 0 || samples > period {
                    return Err(InvalidParamsError::bad_field(
                        "eviction.samples",
                        samples,
                        "needs 0 < samples <= period",
                    ));
                }
                if samples > U32_WINDOW {
                    return Err(InvalidParamsError::bad_field(
                        "eviction.samples",
                        samples,
                        "must fit in u32",
                    ));
                }
                if period > U32_WINDOW {
                    return Err(InvalidParamsError::bad_field(
                        "eviction.period",
                        period,
                        "must fit in u32",
                    ));
                }
                if !(bias_threshold > 0.5 && bias_threshold <= 1.0) {
                    return Err(InvalidParamsError::bad_field(
                        "eviction.bias_threshold",
                        bias_threshold,
                        "must be in (0.5, 1.0]",
                    ));
                }
            }
            EvictionMode::Never => {}
        }
        if let MonitorPolicy::Confidence {
            z,
            min_execs,
            max_execs,
        } = self.monitor_policy
        {
            if !(z.is_finite() && z > 0.0) {
                return Err(InvalidParamsError::bad_field(
                    "monitor_policy.z",
                    z,
                    "must be positive and finite",
                ));
            }
            if min_execs == 0 || max_execs < min_execs {
                return Err(InvalidParamsError::bad_field(
                    "monitor_policy.min_execs",
                    min_execs,
                    "needs 0 < min_execs <= max_execs",
                ));
            }
            // The window closes once `max_execs` samples are in, after
            // at most `max_execs × monitor_sample_rate` executions.
            if max_execs.saturating_mul(self.monitor_sample_rate) > U32_WINDOW {
                return Err(InvalidParamsError::bad_field(
                    "monitor_policy.max_execs",
                    max_execs,
                    "times monitor_sample_rate must fit in u32",
                ));
            }
        }
        match self.revisit {
            Revisit::After(0) => {
                return Err(InvalidParamsError::bad_field(
                    "revisit",
                    0u64,
                    "period must be positive",
                ));
            }
            Revisit::After(u64::MAX) => {
                return Err(InvalidParamsError::bad_field(
                    "revisit",
                    u64::MAX,
                    "period must be below u64::MAX (use Revisit::Never)",
                ));
            }
            _ => {}
        }
        if self.oscillation_limit == Some(0) {
            return Err(InvalidParamsError::bad_field(
                "oscillation_limit",
                0u32,
                "must be positive (use None to disable the cap)",
            ));
        }
        Ok(())
    }
}

impl Default for ControllerParams {
    fn default() -> Self {
        ControllerParams::scaled()
    }
}

/// Error describing an inconsistent [`ControllerParams`] (or resilience
/// configuration — the resilience layer reuses this type).
///
/// Structured errors name the offending field and carry the rejected
/// value, so a builder caller sees *which* knob was wrong:
///
/// ```
/// use rsc_control::{ControllerParams, ReactiveController};
///
/// let mut p = ControllerParams::scaled();
/// p.selection_threshold = 0.3;
/// let err = ReactiveController::builder(p).build().unwrap_err();
/// assert_eq!(err.field(), Some("selection_threshold"));
/// assert!(err.to_string().contains("0.3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvalidParamsError {
    /// A free-form consistency problem not tied to a single field.
    Message(&'static str),
    /// A specific field holds a rejected value.
    Field {
        /// Dotted path of the offending field (e.g. `eviction.threshold`).
        field: &'static str,
        /// The rejected value, rendered.
        value: String,
        /// Why it was rejected.
        reason: &'static str,
    },
}

impl InvalidParamsError {
    /// Crate-internal constructor naming the offending field and value.
    pub(crate) fn bad_field(
        field: &'static str,
        value: impl std::fmt::Display,
        reason: &'static str,
    ) -> Self {
        InvalidParamsError::Field {
            field,
            value: value.to_string(),
            reason,
        }
    }

    /// The offending field's dotted path, when the error is structured.
    pub fn field(&self) -> Option<&'static str> {
        match self {
            InvalidParamsError::Message(_) => None,
            InvalidParamsError::Field { field, .. } => Some(field),
        }
    }
}

impl std::fmt::Display for InvalidParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidParamsError::Message(msg) => {
                write!(f, "invalid controller parameters: {msg}")
            }
            InvalidParamsError::Field {
                field,
                value,
                reason,
            } => write!(
                f,
                "invalid controller parameters: {field} = {value} {reason}"
            ),
        }
    }
}

impl std::error::Error for InvalidParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let p = ControllerParams::table2();
        assert_eq!(p.monitor_period, 10_000);
        assert_eq!(p.selection_threshold, 0.995);
        assert_eq!(
            p.eviction,
            EvictionMode::Counter {
                up: 50,
                down: 1,
                threshold: 10_000
            }
        );
        assert_eq!(p.revisit, Revisit::After(1_000_000));
        assert_eq!(p.oscillation_limit, Some(5));
        assert_eq!(p.optimization_latency, 1_000_000);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn scaled_preserves_structure() {
        let p = ControllerParams::scaled();
        assert!(p.validate().is_ok());
        assert!(matches!(
            p.eviction,
            EvictionMode::Counter {
                up: 50,
                down: 1,
                ..
            }
        ));
        assert_eq!(p.selection_threshold, 0.995);
        assert_eq!(p.oscillation_limit, Some(5));
    }

    #[test]
    fn variants_modify_expected_fields() {
        let base = ControllerParams::table2();
        assert_eq!(base.without_eviction().eviction, EvictionMode::Never);
        assert_eq!(base.without_revisit().revisit, Revisit::Never);
        assert_eq!(
            base.with_lower_eviction_threshold().eviction,
            EvictionMode::Counter {
                up: 50,
                down: 1,
                threshold: 1_000
            }
        );
        assert_eq!(base.with_monitor_sampling(8).monitor_sample_rate, 8);
        assert_eq!(
            base.with_frequent_revisit().revisit,
            Revisit::After(100_000)
        );
        assert_eq!(base.with_latency(0).optimization_latency, 0);
        assert_eq!(base.with_monitor_period(1_000).monitor_period, 1_000);
    }

    #[test]
    fn sampled_eviction_uses_ten_percent_duty_cycle() {
        let p = ControllerParams::table2().with_sampled_eviction();
        assert_eq!(
            p.eviction,
            EvictionMode::Sampling {
                period: 10_000,
                samples: 1_000,
                bias_threshold: 0.98
            }
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn variants_compose() {
        let p = ControllerParams::scaled()
            .without_revisit()
            .with_lower_eviction_threshold()
            .with_latency(0);
        assert!(p.validate().is_ok());
        assert_eq!(p.revisit, Revisit::Never);
        assert_eq!(p.optimization_latency, 0);
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut p = ControllerParams::table2();
        p.monitor_period = 0;
        assert!(p.validate().is_err());

        let mut p = ControllerParams::table2();
        p.selection_threshold = 0.4;
        assert!(p.validate().is_err());

        let mut p = ControllerParams::table2();
        p.eviction = EvictionMode::Counter {
            up: 0,
            down: 1,
            threshold: 10,
        };
        assert!(p.validate().is_err());

        let mut p = ControllerParams::table2();
        p.eviction = EvictionMode::Sampling {
            period: 10,
            samples: 20,
            bias_threshold: 0.98,
        };
        assert!(p.validate().is_err());

        let mut p = ControllerParams::table2();
        p.revisit = Revisit::After(0);
        assert!(p.validate().is_err());

        let mut p = ControllerParams::table2();
        p.oscillation_limit = Some(0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_errors_name_field_and_value() {
        let mut p = ControllerParams::table2();
        p.monitor_period = 0;
        let err = p.validate().unwrap_err();
        assert_eq!(err.field(), Some("monitor_period"));
        let text = err.to_string();
        assert!(text.contains("monitor_period"), "{text}");
        assert!(text.contains('0'), "{text}");

        let mut p = ControllerParams::table2();
        p.selection_threshold = 1.5;
        let err = p.validate().unwrap_err();
        assert_eq!(err.field(), Some("selection_threshold"));
        assert!(err.to_string().contains("1.5"));

        let mut p = ControllerParams::table2();
        p.eviction = EvictionMode::Counter {
            up: 50,
            down: 1,
            threshold: 10,
        };
        let err = p.validate().unwrap_err();
        assert_eq!(err.field(), Some("eviction.threshold"));
        assert!(err.to_string().contains("10"));

        // Free-form messages still render and report no field.
        let err = InvalidParamsError::Message("something inconsistent");
        assert_eq!(err.field(), None);
        assert!(err.to_string().contains("something inconsistent"));
    }

    /// Asserts that `p` is refused for `field`.
    fn refused_for(p: ControllerParams, field: &str) {
        let err = p.validate().unwrap_err();
        assert_eq!(err.field(), Some(field), "{err}");
    }

    const PAST_U32: u64 = u32::MAX as u64 + 1;

    #[test]
    fn monitor_period_must_fit_u32() {
        let mut p = ControllerParams::table2();
        p.monitor_period = u64::from(u32::MAX);
        assert!(p.validate().is_ok());
        p.monitor_period = PAST_U32;
        refused_for(p, "monitor_period");
    }

    #[test]
    fn confidence_max_execs_must_fit_u32() {
        let p = ControllerParams::table2().with_confidence_monitor(2.58, 32, u64::from(u32::MAX));
        assert!(p.validate().is_ok());
        refused_for(
            ControllerParams::table2().with_confidence_monitor(2.58, 32, PAST_U32),
            "monitor_policy.max_execs",
        );
        // Sampling every 8th execution stretches the window eightfold.
        refused_for(
            ControllerParams::table2()
                .with_confidence_monitor(2.58, 32, u64::from(u32::MAX / 4))
                .with_monitor_sampling(8),
            "monitor_policy.max_execs",
        );
    }

    #[test]
    fn sampling_period_must_fit_u32() {
        let mut p = ControllerParams::table2();
        p.eviction = EvictionMode::Sampling {
            period: PAST_U32,
            samples: 1_000,
            bias_threshold: 0.98,
        };
        refused_for(p, "eviction.period");
    }

    #[test]
    fn sampling_samples_must_fit_u32() {
        let mut p = ControllerParams::table2();
        p.eviction = EvictionMode::Sampling {
            period: PAST_U32,
            samples: PAST_U32,
            bias_threshold: 0.98,
        };
        refused_for(p, "eviction.samples");
    }

    #[test]
    fn revisit_period_must_be_below_the_never_sentinel() {
        let mut p = ControllerParams::table2();
        p.revisit = Revisit::After(u64::MAX - 1);
        assert!(p.validate().is_ok());
        p.revisit = Revisit::After(u64::MAX);
        refused_for(p, "revisit");
    }

    #[test]
    fn lower_threshold_never_drops_below_up() {
        let mut p = ControllerParams::table2();
        p.eviction = EvictionMode::Counter {
            up: 50,
            down: 1,
            threshold: 100,
        };
        let lowered = p.with_lower_eviction_threshold();
        assert_eq!(
            lowered.eviction,
            EvictionMode::Counter {
                up: 50,
                down: 1,
                threshold: 50
            }
        );
        assert!(lowered.validate().is_ok());
    }
}
