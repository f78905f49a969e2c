//! [`ControllerBuilder`]: the single construction path for
//! [`ReactiveController`].
//!
//! The controller's configuration surface grew one seam at a time —
//! `new`, then `with_resilience`, then post-construction log-policy
//! setters — and the observability layer would have added two more. The
//! builder collapses all of it into one fluent assembly step. The
//! `#[deprecated]` legacy constructors and setters that shimmed the old
//! surface for one release have been removed:
//!
//! | Removed | Builder |
//! |---|---|
//! | `ReactiveController::new(p)` | `ReactiveController::builder(p).build()` |
//! | `ReactiveController::with_resilience(p, cfg)` | `ReactiveController::builder(p).resilience(cfg).build()` |
//! | `ctl.set_transition_log_policy(pol)` | `.log_policy(pol)` before `build()` |
//! | `ctl.set_record_transitions(false)` | `.log_policy(TransitionLogPolicy::CountsOnly)` |
//!
//! # Examples
//!
//! ```
//! use rsc_control::prelude::*;
//!
//! let ctl = ReactiveController::builder(ControllerParams::scaled())
//!     .resilience(ResilienceConfig::reliable())
//!     .log_policy(TransitionLogPolicy::CountsOnly)
//!     .metrics()
//!     .build()?;
//! assert!(ctl.metrics().is_some());
//! # Ok::<(), InvalidParamsError>(())
//! ```
//!
//! The decision rules are one of the built-in [`Policy`] variants,
//! chosen with [`policy`](ControllerBuilder::policy):
//!
//! ```
//! use rsc_control::prelude::*;
//!
//! let ctl = ReactiveController::builder(ControllerParams::scaled())
//!     .policy(Policy::CostAware(CostAware::default()))
//!     .build()?;
//! assert_eq!(ctl.policy_id(), "cost-aware");
//! # Ok::<(), InvalidParamsError>(())
//! ```

use crate::controller::{Counters, ReactiveController};
use crate::observe::{ControllerMetrics, EventSink, Telemetry};
use crate::params::{ControllerParams, InvalidParamsError};
use crate::policy::Policy;
use crate::resilience::{ResilienceConfig, ResilienceState};
use crate::shard::ShardedController;
use crate::translog::{TransitionLog, TransitionLogPolicy};
use std::sync::Arc;

/// Assembles a [`ReactiveController`] from parameters, an optional
/// resilience layer, a transition-log policy, and optional telemetry.
///
/// Created by [`ReactiveController::builder`]. Nothing is validated until
/// [`build`](ControllerBuilder::build), which checks the parameters and
/// resilience configuration together and reports the first offending
/// field.
#[derive(Clone)]
pub struct ControllerBuilder {
    params: ControllerParams,
    resilience: Option<ResilienceConfig>,
    log_policy: TransitionLogPolicy,
    metrics: bool,
    sink: Option<Arc<dyn EventSink>>,
    shards: usize,
    pool_threads: usize,
    policy: Policy,
}

impl std::fmt::Debug for ControllerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerBuilder")
            .field("params", &self.params)
            .field("resilience", &self.resilience)
            .field("log_policy", &self.log_policy)
            .field("metrics", &self.metrics)
            .field("sink", &self.sink.is_some())
            .field("shards", &self.shards)
            .field("pool_threads", &self.pool_threads)
            .field("policy", &self.policy.id())
            .finish()
    }
}

impl ControllerBuilder {
    pub(crate) fn new(params: ControllerParams) -> Self {
        ControllerBuilder {
            params,
            resilience: None,
            log_policy: TransitionLogPolicy::Full,
            metrics: false,
            sink: None,
            shards: 1,
            pool_threads: 0,
            policy: Policy::PaperFsm,
        }
    }

    /// Sets the control policy (default: the paper-exact
    /// [`Policy::PaperFsm`]).
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches the resilience layer: deployments go through the
    /// configured pipeline (and can fail), and the optional storm breaker
    /// monitors the global misspeculation rate.
    #[must_use]
    pub fn resilience(mut self, config: ResilienceConfig) -> Self {
        self.resilience = Some(config);
        self
    }

    /// Sets the transition-log retention policy (default:
    /// [`TransitionLogPolicy::Full`]). Per-kind counters stay exact under
    /// both policies.
    #[must_use]
    pub fn log_policy(mut self, policy: TransitionLogPolicy) -> Self {
        self.log_policy = policy;
        self
    }

    /// Enables the metrics registry: counters, gauges, and histograms
    /// retrievable via [`ReactiveController::metrics`]. Without this (and
    /// without a sink) the controller carries no telemetry and keeps the
    /// allocation-free chunked fast path.
    #[must_use]
    pub fn metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Sets the shard count for [`build_sharded`](ControllerBuilder::build_sharded).
    /// The plain [`build`](ControllerBuilder::build) only accepts the
    /// default of 1 — a sharded engine is a different top-level type.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Caps the threads a [`build_sharded`](ControllerBuilder::build_sharded)
    /// engine may use in one large chunk: at most `min(shards, n)`, the
    /// caller included, and `n <= 1` keeps every chunk on the caller.
    /// The default of 0 defers to the global
    /// [`max_threads`](rsc_util::parallel::max_threads) cap — which the
    /// `repro --threads` flag sets — evaluated once at build time.
    #[must_use]
    pub fn pool_threads(mut self, n: usize) -> Self {
        self.pool_threads = n;
        self
    }

    /// Streams observability events ([`crate::observe::ObsEvent`]) to
    /// `sink`. The sink is shared: clones of the controller keep emitting
    /// to the same destination.
    #[must_use]
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Validates the assembled configuration and constructs the
    /// controller.
    ///
    /// # Errors
    ///
    /// Returns an [`InvalidParamsError`] naming the first offending field
    /// in the parameters or resilience configuration.
    pub fn build(self) -> Result<ReactiveController, InvalidParamsError> {
        if self.shards != 1 {
            return Err(InvalidParamsError::bad_field(
                "shards",
                self.shards,
                "build() constructs a sequential controller; use build_sharded()",
            ));
        }
        self.params.validate()?;
        let resilience = match self.resilience {
            Some(config) => Some(ResilienceState::new(config)?),
            None => None,
        };
        let telemetry = if self.metrics || self.sink.is_some() {
            Some(Box::new(Telemetry {
                metrics: self.metrics.then(ControllerMetrics::new),
                sink: self.sink,
            }))
        } else {
            None
        };
        Ok(ReactiveController {
            params: self.params,
            branches: Vec::new(),
            log: TransitionLog::new(self.log_policy),
            counters: Counters::default(),
            resilience,
            telemetry,
            policy: self.policy,
            eviction: self.policy.evict(&self.params),
        })
    }

    /// Validates the configuration and constructs a [`ShardedController`]
    /// with the shard count set via [`shards`](ControllerBuilder::shards)
    /// (default 1).
    ///
    /// Sharding composes with parameters, the log policy, and metrics,
    /// but not with features whose semantics are inherently global and
    /// order-dependent across branches:
    ///
    /// * the resilience layer (its storm breaker watches the *global*
    ///   misspeculation stream);
    /// * event sinks (shards emit concurrently, so interleaving would
    ///   depend on scheduling).
    ///
    /// Both are rejected at any shard count — including 1 — so a config
    /// never changes meaning when the shard count does.
    ///
    /// The engine's thread cap is fixed here, once: `min(shards, cap)`,
    /// where `cap` is [`pool_threads`](ControllerBuilder::pool_threads)
    /// or (by default) the global
    /// [`max_threads`](rsc_util::parallel::max_threads) cap. Building
    /// spawns nothing; threads exist only inside one large
    /// [`observe_chunk`](ShardedController::observe_chunk) call, and the
    /// results are bit-identical at every cap.
    ///
    /// # Errors
    ///
    /// Returns an [`InvalidParamsError`] for invalid parameters, a shard
    /// count of 0, or a resilience/sink attachment.
    pub fn build_sharded(self) -> Result<ShardedController, InvalidParamsError> {
        if self.shards == 0 {
            return Err(InvalidParamsError::bad_field(
                "shards",
                0usize,
                "must be positive",
            ));
        }
        if self.resilience.is_some() {
            return Err(InvalidParamsError::bad_field(
                "shards",
                self.shards,
                "resilience is global state and cannot be sharded",
            ));
        }
        if self.sink.is_some() {
            return Err(InvalidParamsError::bad_field(
                "shards",
                self.shards,
                "event sinks would interleave nondeterministically across shards",
            ));
        }
        let n = self.shards;
        let thread_cap = if self.pool_threads > 0 {
            self.pool_threads
        } else {
            rsc_util::parallel::max_threads()
        };
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let one = ControllerBuilder {
                shards: 1,
                sink: None,
                ..self.clone()
            };
            shards.push(one.build()?);
        }
        Ok(ShardedController::from_parts(shards, thread_cap))
    }
}

impl ReactiveController {
    /// Starts building a controller — the sole non-deprecated
    /// construction path. See [`ControllerBuilder`] for the full surface
    /// and the legacy-to-builder migration table.
    pub fn builder(params: ControllerParams) -> ControllerBuilder {
        ControllerBuilder::new(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::VecSink;
    use crate::resilience::{BreakerConfig, ResilienceConfig};

    #[test]
    fn build_reports_offending_field() {
        let mut p = ControllerParams::scaled();
        p.monitor_sample_rate = 0;
        let err = ReactiveController::builder(p).build().unwrap_err();
        assert_eq!(err.field(), Some("monitor_sample_rate"));
    }

    #[test]
    fn build_validates_resilience_too() {
        let config = ResilienceConfig {
            breaker: Some(BreakerConfig {
                buckets: 0,
                ..BreakerConfig::default_config()
            }),
            ..ResilienceConfig::reliable()
        };
        let err = ReactiveController::builder(ControllerParams::scaled())
            .resilience(config)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), Some("breaker.buckets"));
    }

    #[test]
    fn telemetry_absent_unless_requested() {
        let plain = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        assert!(plain.metrics().is_none());

        let metered = ReactiveController::builder(ControllerParams::scaled())
            .metrics()
            .build()
            .unwrap();
        assert!(metered.metrics().is_some());

        // A sink alone enables telemetry but not the registry.
        let sunk = ReactiveController::builder(ControllerParams::scaled())
            .event_sink(Arc::new(VecSink::new()))
            .build()
            .unwrap();
        assert!(sunk.metrics().is_none());
    }

    #[test]
    fn builder_is_reusable_via_clone() {
        let b = ReactiveController::builder(ControllerParams::scaled())
            .log_policy(TransitionLogPolicy::CountsOnly);
        let a = b.clone().build().unwrap();
        let c = b.build().unwrap();
        assert_eq!(a.stats(), c.stats());
    }
}
