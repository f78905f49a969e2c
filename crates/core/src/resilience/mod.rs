//! The resilient runtime layer: fallible re-optimization with
//! retry/backoff, and the misspeculation-storm circuit breaker.
//!
//! The paper's controller assumes an infallible deployment pipeline and
//! no population-level backstop. This module supplies both missing
//! failure domains (see DESIGN.md §10):
//!
//! * [`deployer`] — `EnterBiased`/`ExitBiased` become requests that can
//!   fail transiently; the controller retries on a bounded deterministic
//!   backoff schedule and fails safe (abandon the enter, or
//!   force-disable the branch) when retries run out.
//! * [`breaker`] — a global sliding-window misspeculation-rate monitor
//!   that suppresses new deployments (and optionally mass-evicts the
//!   worst offenders) during a storm, with hysteresis against
//!   oscillation.
//!
//! Everything is opt-in: a controller built without a
//! [`ResilienceConfig`] behaves bit-identically to the pre-resilience
//! implementation, and the conformance campaign pins that equivalence.
//! With a config attached, the optimized and reference controllers still
//! run in lockstep — each holds its own deployer/breaker instance, and
//! because the components are deterministic state machines fed the same
//! request/event sequence, both sides observe identical fault schedules.

pub mod breaker;
pub mod deployer;

pub use breaker::{BreakerConfig, BreakerPhase, BreakerSignal, StormBreaker};
pub use deployer::{
    DeployKind, DeployOutcome, DeployRequest, Deployer, DeployerSpec, FaultMode, FaultScope,
    FaultSpec, FaultyDeployer, InstantDeployer, RetryPolicy,
};

use crate::params::InvalidParamsError;
use deployer::DeployerImpl;
use rsc_trace::BranchId;

/// Sentinel branch id carried by breaker transitions in the log
/// (`BreakerOpened` / `BreakerHalfOpen` / `BreakerClosed` are global
/// events, not tied to any real branch).
pub const BREAKER_BRANCH: BranchId = BranchId::new(u32::MAX);

/// Full configuration of a controller's resilience layer.
///
/// # Examples
///
/// ```
/// use rsc_control::resilience::{
///     DeployerSpec, FaultMode, FaultScope, FaultSpec, ResilienceConfig, RetryPolicy,
/// };
///
/// let config = ResilienceConfig {
///     deployer: DeployerSpec::Faulty(FaultSpec {
///         seed: 7,
///         mode: FaultMode::FixedRate { per_mille: 300 },
///         scope: FaultScope::All,
///         wasted: 100,
///     }),
///     retry: RetryPolicy::default_policy(),
///     breaker: None,
/// };
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Which deployment pipeline answers re-optimization requests.
    pub deployer: DeployerSpec,
    /// Retry schedule for failed deployments.
    pub retry: RetryPolicy,
    /// Optional storm circuit breaker.
    pub breaker: Option<BreakerConfig>,
}

impl ResilienceConfig {
    /// The infallible pipeline with a default retry policy and no
    /// breaker: resilience plumbing active, behavior identical to the
    /// paper's model.
    pub fn reliable() -> Self {
        ResilienceConfig {
            deployer: DeployerSpec::Instant,
            retry: RetryPolicy::default_policy(),
            breaker: None,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), InvalidParamsError> {
        if self.retry.max_attempts == 0 {
            return Err(InvalidParamsError::bad_field(
                "retry.max_attempts",
                self.retry.max_attempts,
                "must be positive",
            ));
        }
        if let DeployerSpec::Faulty(spec) = self.deployer {
            if let FaultMode::FixedRate { per_mille } = spec.mode {
                if per_mille > 1000 {
                    return Err(InvalidParamsError::bad_field(
                        "deployer.per_mille",
                        per_mille,
                        "must be at most 1000",
                    ));
                }
            }
            if let FaultMode::Burst { period, len } = spec.mode {
                if period == 0 || len > period {
                    return Err(InvalidParamsError::bad_field(
                        "deployer.burst",
                        format_args!("{len}/{period}"),
                        "needs len <= period, period > 0",
                    ));
                }
            }
        }
        if let Some(b) = &self.breaker {
            b.validate()?;
        }
        Ok(())
    }
}

/// Runtime state of the resilience layer inside a controller. Shared by
/// the optimized and reference controllers (each holds its own
/// instance): the components are deterministic, so identical inputs keep
/// the two in lockstep, while each controller independently implements
/// its FSM reaction to the outcomes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResilienceState {
    pub(crate) config: ResilienceConfig,
    pub(crate) deployer: DeployerImpl,
    pub(crate) breaker: Option<StormBreaker>,
    /// Deployment requests that failed (first tries and retries alike).
    pub(crate) deploy_failures: u64,
    /// Retry attempts issued after a failure.
    pub(crate) deploy_retries: u64,
    /// Branches force-disabled because repair retries ran out.
    pub(crate) forced_disables: u64,
    /// `EnterBiased` decisions suppressed by an open breaker.
    pub(crate) suppressed_enters: u64,
    /// [`ReactiveController`](crate::ReactiveController)'s misspeculations
    /// per branch index since the storm breaker last opened, which rank
    /// the mass-eviction candidates. Only counted when a breaker is
    /// configured; branches past the end have none. (The reference
    /// controller keeps its own count per branch.)
    pub(crate) recent_misses: Vec<u64>,
}

impl ResilienceState {
    pub(crate) fn new(config: ResilienceConfig) -> Result<Self, InvalidParamsError> {
        config.validate()?;
        Ok(ResilienceState {
            config,
            deployer: DeployerImpl::from_spec(config.deployer),
            breaker: match config.breaker {
                Some(b) => Some(StormBreaker::new(b)?),
                None => None,
            },
            deploy_failures: 0,
            deploy_retries: 0,
            forced_disables: 0,
            suppressed_enters: 0,
            recent_misses: Vec::new(),
        })
    }

    /// Counts one misspeculation of branch `idx` toward its
    /// [`recent_misses`](Self::recent_misses) rank.
    pub(crate) fn note_miss(&mut self, idx: usize) {
        if idx >= self.recent_misses.len() {
            self.recent_misses.resize(idx + 1, 0);
        }
        self.recent_misses[idx] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_retry_and_fault_spec() {
        let mut c = ResilienceConfig::reliable();
        assert!(c.validate().is_ok());
        c.retry.max_attempts = 0;
        assert!(c.validate().is_err());

        let mut c = ResilienceConfig::reliable();
        c.deployer = DeployerSpec::Faulty(FaultSpec {
            seed: 0,
            mode: FaultMode::FixedRate { per_mille: 1001 },
            scope: FaultScope::All,
            wasted: 0,
        });
        assert!(c.validate().is_err());

        let mut c = ResilienceConfig::reliable();
        c.deployer = DeployerSpec::Faulty(FaultSpec {
            seed: 0,
            mode: FaultMode::Burst { period: 2, len: 3 },
            scope: FaultScope::All,
            wasted: 0,
        });
        assert!(c.validate().is_err());

        let mut c = ResilienceConfig::reliable();
        c.breaker = Some(BreakerConfig {
            buckets: 0,
            ..BreakerConfig::default_config()
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn breaker_sentinel_is_out_of_normal_range() {
        assert_eq!(BREAKER_BRANCH.index(), u32::MAX as usize);
    }
}
