//! # rsc-util — shared infrastructure
//!
//! Small dependency-free helpers used by more than one crate in the
//! workspace. Currently: [`parallel`], the scoped order-preserving parallel
//! map (promoted out of `rsc-bench` so the library crates — offline profile
//! sharding in `rsc-profile`, experiment fan-out in `rsc-bench` — share one
//! implementation and one global thread cap) plus the one-thread-per-item
//! fan-out behind the sharded controller, and [`sync`], the bounded
//! admission gate behind the serve daemon's per-tenant backpressure.

#![forbid(unsafe_code)]

pub mod parallel;
pub mod sync;

pub use parallel::{max_threads, par_map, set_max_threads};
pub use sync::{Gate, GatePermit};
