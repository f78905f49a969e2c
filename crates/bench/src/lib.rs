//! # rsc-bench — the reproduction harness
//!
//! One module per table/figure of the paper, plus the `repro` binary that
//! prints paper-vs-measured comparisons. See `EXPERIMENTS.md` at the repo
//! root for recorded results.

pub mod cli;
pub mod conformance_cli;
pub mod experiments;
pub mod experiments_cli;
pub mod export;
pub mod fuzz_cli;
pub mod load_cli;
pub mod observe_cli;
pub mod options;
pub mod parallel;
pub mod pareto_cli;
pub mod resilience_cli;
pub mod serve_cli;
pub mod table;
