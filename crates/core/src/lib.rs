//! # rsc-control — reactive speculation control
//!
//! The core contribution of *Reactive Techniques for Controlling Software
//! Speculation* (Zilles & Neelakantam, CGO 2005): a simple three-state
//! model — monitor, biased, unbiased — that keeps aggressive software
//! speculation robust by *re-classifying* branches when their behavior
//! changes.
//!
//! The two arcs that separate this model from one-shot profile-guided
//! selection are:
//!
//! * **eviction** (biased → monitor): an asymmetric saturating counter
//!   (+50 on a misspeculation, −1 otherwise, evict at 10,000) detects
//!   branches whose bias has degraded and requests repair;
//! * **revisit** (unbiased → monitor): after a long wait period, rejected
//!   branches get another chance, harvesting late-developing bias.
//!
//! Everything else — thresholds, sampling, latency — is a second-order
//! knob, which this crate's sensitivity presets let you verify.
//!
//! ## Quick start
//!
//! ```
//! use rsc_control::{engine, ControllerParams};
//! use rsc_trace::{spec2000, InputId};
//!
//! let pop = spec2000::benchmark("gcc").unwrap().population(200_000);
//! let closed = engine::run_population(
//!     ControllerParams::scaled(),
//!     &pop, InputId::Eval, 200_000, 7,
//! )?;
//! let open = engine::run_population(
//!     ControllerParams::scaled().without_eviction(),
//!     &pop, InputId::Eval, 200_000, 7,
//! )?;
//! // The open-loop controller misspeculates far more.
//! assert!(open.stats.incorrect >= closed.stats.incorrect);
//! # Ok::<(), rsc_control::InvalidParamsError>(())
//! ```
//!
//! ## Construction and observability
//!
//! Controllers are assembled through one builder —
//! [`ReactiveController::builder`] — which also attaches the optional
//! observability layer (a [`observe::MetricsRegistry`] and/or an
//! [`observe::EventSink`]) and selects the control [`policy::Policy`]
//! (the paper's FSM is [`policy::Policy::PaperFsm`], the default, one of
//! three built-in policies); see [`ControllerBuilder`] for the
//! migration table from the removed legacy constructors. The [`prelude`]
//! re-exports the types a typical consumer needs.

#![warn(deprecated)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod checkpoint;
pub mod confidence;
pub mod controller;
pub mod counter;
pub mod engine;
pub mod observe;
pub mod params;
pub mod policy;
pub mod reference;
pub mod resilience;
pub mod shard;
pub mod stats;
pub mod translog;

pub use builder::ControllerBuilder;
pub use checkpoint::{CheckpointError, ControllerCheckpoint};
pub use controller::{
    BranchSnapshot, BranchStateView, ChunkSummary, EvictionStep, MonitorStep, ReactiveController,
    SpecDecision, TrackerView, TransitionEvent, TransitionKind,
};
pub use engine::{
    run_population, run_population_chunked, run_population_chunked_many,
    run_population_chunked_with, run_trace, run_trace_with, RunResult,
};
pub use observe::{EventSink, JsonlSink, MetricsRegistry, NullSink, ObsEvent, VecSink};
pub use params::{ControllerParams, EvictionMode, InvalidParamsError, MonitorPolicy, Revisit};
pub use policy::{CostAware, Perceptron, Policy, BUILTIN_POLICY_IDS};
pub use reference::ReferenceController;
pub use resilience::ResilienceConfig;
pub use shard::ShardedController;
pub use stats::ControlStats;
pub use translog::{TransitionLog, TransitionLogPolicy};

/// One-stop imports for assembling and observing controllers.
///
/// ```
/// use rsc_control::prelude::*;
///
/// let ctl = ReactiveController::builder(ControllerParams::scaled()).build()?;
/// assert!(ctl.metrics().is_none());
/// # Ok::<(), InvalidParamsError>(())
/// ```
pub mod prelude {
    pub use crate::builder::ControllerBuilder;
    pub use crate::controller::{
        ChunkSummary, ReactiveController, SpecDecision, TransitionEvent, TransitionKind,
    };
    pub use crate::observe::{EventSink, JsonlSink, MetricsRegistry, NullSink, ObsEvent, VecSink};
    pub use crate::params::{ControllerParams, InvalidParamsError};
    pub use crate::policy::{CostAware, Perceptron, Policy};
    pub use crate::resilience::ResilienceConfig;
    pub use crate::shard::ShardedController;
    pub use crate::stats::ControlStats;
    pub use crate::translog::TransitionLogPolicy;
}
