//! # rsc-conformance — differential conformance harness
//!
//! The standing safety net for every performance change to
//! [`rsc_control`]: the optimized [`ReactiveController`] is fuzzed in
//! lockstep against the golden
//! [`ReferenceController`](rsc_control::ReferenceController) — a naive,
//! obviously-correct transliteration of the paper's three-state FSM —
//! over adversarial traces from [`rsc_trace::adversary`]. The per-event
//! `observe` path, the chunked `observe_chunk` fast path (at arbitrary
//! chunk boundaries) and the sharded engine must produce identical
//! decision streams, transition logs, statistics, and per-branch states.
//! Every other built-in policy is held the same way to a full-FSM
//! controller of that policy.
//!
//! When a divergence is found, [`shrink`](shrink::shrink) minimizes the
//! failing trace and [`Counterexample`] writes
//! it as a replayable `.json` artifact. The harness validates itself by
//! injecting known [`Fault`]s and asserting they are
//! caught and shrunk.
//!
//! ## Quick start
//!
//! ```
//! use rsc_conformance::campaign::{run, CampaignConfig};
//!
//! let report = run(&CampaignConfig {
//!     seed_start: 0,
//!     seed_end: 1,
//!     events: 500,
//!     ..CampaignConfig::default()
//! });
//! assert!(report.counterexamples.is_empty(), "controller conforms");
//! ```
//!
//! [`ReactiveController`]: rsc_control::ReactiveController

pub mod artifact;
pub mod campaign;
pub mod differ;
pub mod fault;
pub mod json;
pub mod shrink;

pub use artifact::{params_from_json, params_to_json, ArtifactError, Counterexample};
pub use campaign::{run, CampaignConfig, CampaignReport};
pub use differ::{run_case, CaseSpec, Divergence, Mode};
pub use fault::Fault;
pub use shrink::{shrink, shrink_by};
