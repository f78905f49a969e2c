//! Fault-tolerant multi-tenant serving for reactive speculation
//! controllers.
//!
//! This crate turns the single-process controller engine into a
//! long-running daemon: many independent branch-event streams (tenants)
//! multiplex over TCP or Unix-socket connections carrying
//! length-prefixed, checksummed [`frame`]s; each tenant gets its own
//! `ReactiveController`, admission quotas, and a bounded ingest queue.
//! Tenants do not shard: a record holding a sharded checkpoint, written
//! by an older daemon, is refused with a typed error. The sharded engine
//! is reachable only from `repro conformance --shards` and the
//! benchmark's `controller-stream` workload.
//! Every degradation path is explicit and tested:
//!
//! * **quotas** — per-tenant event/byte ceilings answered with
//!   structured reject frames ([`tenant`]);
//! * **backpressure** — a per-tenant admission gate so a hot tenant
//!   stalls only itself ([`server`]);
//! * **shedding** — coldest tenants evicted to checkpoint files under
//!   memory pressure, restored transparently on next touch
//!   ([`storage`], [`server`]);
//! * **graceful drain** — SIGTERM (or a `Drain` frame) stops admission
//!   and flushes every tenant; restart resumes bit-identically;
//! * **chaos** — deterministic fault injection at the I/O and storage
//!   seams ([`chaos`]), driven by the [`load`] harness's misbehaving
//!   clients ([`client`]).
//!
//! The binary surface lives in the `repro` CLI (`repro serve`,
//! `repro load`); this crate is the library under it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod frame;
pub mod load;
pub mod server;
pub mod storage;
pub mod tenant;

pub use chaos::{ChaosConfig, ChaosDie};
pub use client::{Client, ClientConfig, ClientError, ClientFault, Endpoint};
pub use frame::{read_frame, read_frame_with_limit, write_frame, Frame, FrameError, RejectCode};
pub use load::{client_plan, fetch_metrics, request_drain, run_load, LoadConfig, LoadReport};
pub use server::{CounterSnapshot, DrainReport, Server, ServerConfig};
pub use storage::{CheckpointStore, StoreError, TenantRecord};
pub use tenant::{IngestReject, IngestReport, QuotaConfig, Tenant};
