//! # rsc-trace — synthetic branch-trace substrate
//!
//! The workload substrate for the reproduction of *Reactive Techniques for
//! Controlling Software Speculation* (Zilles & Neelakantam, CGO 2005).
//!
//! The paper evaluates speculation-control policies on the SPEC2000 integer
//! benchmarks. This crate replaces those proprietary binaries and inputs
//! with deterministic generative models: each benchmark is a population of
//! static branches drawn from behavior archetypes (stable bias, bias
//! reversal, induction-variable flips, correlated group phases, …) plus a
//! skewed execution-frequency distribution. Traces are bit-reproducible
//! functions of a `(benchmark, input, events, seed)` tuple.
//!
//! ## Quick start
//!
//! ```
//! use rsc_trace::{spec2000, InputId, TraceStats};
//!
//! let model = spec2000::benchmark("gcc").expect("gcc is built in");
//! let population = model.population(100_000);
//! let stats = TraceStats::from_trace(population.trace(InputId::Eval, 100_000, 42));
//! assert_eq!(stats.total_events(), 100_000);
//! // gcc is dominated by highly biased branches:
//! assert!(stats.dynamic_coverage_at_bias(0.99) > 0.4);
//! ```

pub mod adversary;
pub mod alias;
pub mod behavior;
pub mod branch;
pub mod group;
pub mod ids;
pub mod io;
pub mod model;
pub mod population;
pub mod record;
pub mod rng;
pub mod spec2000;
pub mod stats;
pub mod value;
pub mod workload;
pub mod zipf;

pub use adversary::Scenario;
pub use behavior::{Behavior, Phase};
pub use branch::StaticBranchSpec;
pub use group::GroupSchedule;
pub use ids::{BranchId, GroupId, InputId};
pub use model::{BenchmarkModel, PaperReference, Population};
pub use population::{AfterFlip, Archetype, PopulationGroup};
pub use record::{BranchRecord, Direction};
pub use stats::TraceStats;
pub use value::ValueWorkloadSpec;
pub use workload::{Trace, DEFAULT_CHUNK_EVENTS};
