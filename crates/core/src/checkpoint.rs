//! Controller checkpoint/restore.
//!
//! [`ReactiveController::snapshot`] serializes the *entire* controller —
//! parameters, resilience configuration and runtime (deployer ordinal,
//! breaker window), global counters, the transition log, and every
//! per-branch FSM — into a versioned, self-contained binary blob.
//! [`ReactiveController::restore`] rebuilds a controller from the blob
//! such that feeding the restored controller the remainder of a trace
//! produces **bit-identical** results (decisions,
//! [`ControlStats`](crate::ControlStats), transition log) to a controller
//! that ran the whole trace without interruption. That
//! resume-equals-straight-run property is what makes checkpointing safe to
//! use for long-running deployments, and it is pinned by differential
//! tests (`tests/checkpoint_restore.rs`).
//!
//! # Format
//!
//! The encoding (`RSCK` magic, version byte, then sections) is
//! hand-rolled: integers are [`rsc_trace::codec`] varints, floats are
//! their IEEE-754 bit patterns in 8 little-endian bytes, enums are
//! one-byte tags. Nothing about the layout is exposed; treat
//! [`ControllerCheckpoint`] as an opaque byte container. Decoding is
//! strict — trailing bytes, unknown tags, out-of-range values, and
//! varints that overflow `u64` all fail with a typed [`CheckpointError`]
//! carrying the byte offset, mirroring the hardened trace reader. The
//! blob carries no checksum of its own; the tenant record that stores it
//! in the serve daemon adds one.
//!
//! # Examples
//!
//! ```
//! use rsc_control::prelude::*;
//! use rsc_trace::{BranchId, BranchRecord};
//!
//! let mut ctl = ReactiveController::builder(ControllerParams::scaled())
//!     .build()
//!     .unwrap();
//! for i in 0..500 {
//!     ctl.observe(&BranchRecord {
//!         branch: BranchId::new(0),
//!         taken: true,
//!         instr: i * 10,
//!     });
//! }
//! let cp = ctl.snapshot();
//! let restored = ReactiveController::restore(&cp).unwrap();
//! assert_eq!(restored.stats(), ctl.stats());
//! ```

use crate::controller::{
    revisit_countdown, BranchCtl, Counters, EvictTracker, ReactiveController, State,
    TransitionEvent, TransitionKind, NEVER_REVISIT,
};
use crate::observe::{ControllerMetrics, ObsEvent, Telemetry, INTERVAL_BOUNDS};
use crate::params::{ControllerParams, EvictionMode, InvalidParamsError, MonitorPolicy, Revisit};
use crate::policy::{Eviction, Policy};
use crate::resilience::breaker::{BreakerConfig, BreakerPhase, StormBreaker};
use crate::resilience::deployer::{DeployerSpec, FaultMode, FaultScope, FaultSpec, RetryPolicy};
use crate::resilience::{ResilienceConfig, ResilienceState};
use crate::translog::{TransitionLog, TransitionLogPolicy};
use rsc_trace::codec::{self, CodecError};
use rsc_trace::{BranchId, Direction};
use std::fmt;

/// Magic bytes opening every checkpoint.
const MAGIC: [u8; 4] = *b"RSCK";
/// Current format version. Version 4 added a policy section to each
/// controller body (stable policy id + config blob, right after the
/// params) and widened biased counter trackers to their full shape
/// (value, up, down, threshold) because policies parametrize trackers
/// independently of `params.eviction`. The shape is still a function of
/// the policy and params (`Policy::evict`), so the reader refuses one
/// that disagrees with it. Version 3 added a
/// shard-count varint after the version byte followed by one controller
/// body per shard (a plain controller writes count 1), plus the
/// interval-histogram bounds in the telemetry section; version 2
/// appended the telemetry section itself. Older blobs are rejected.
const VERSION: u8 = 4;
/// Oldest version [`read_header`] still accepts.
const MIN_VERSION: u8 = 4;

/// An opaque serialized controller state.
///
/// Produced by [`ReactiveController::snapshot`], consumed by
/// [`ReactiveController::restore`]. The bytes are self-contained: they
/// embed the controller parameters and resilience configuration, so
/// restoring needs no out-of-band state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerCheckpoint {
    bytes: Vec<u8>,
}

impl ControllerCheckpoint {
    /// The serialized bytes (e.g. for writing to a file).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps bytes read back from storage. No validation happens here;
    /// [`ReactiveController::restore`] performs the full strict decode.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        ControllerCheckpoint {
            bytes: bytes.into(),
        }
    }

    /// Consumes the checkpoint, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if the checkpoint holds no bytes (never produced by
    /// [`ReactiveController::snapshot`]; only possible via
    /// [`ControllerCheckpoint::from_bytes`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Why a checkpoint failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The blob does not start with the `RSCK` magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u8),
    /// The blob ended before the structure was complete.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// A structurally invalid encoding: unknown tag, out-of-range value,
    /// or trailing garbage.
    Corrupt {
        /// Byte offset of the offending value.
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// The decoded parameters or resilience configuration failed their
    /// own validation (the checkpoint was produced by an incompatible or
    /// tampered source).
    Invalid(InvalidParamsError),
    /// The blob names a policy this build does not know (or its config
    /// blob does not decode as that policy's configuration). Restore the
    /// blob with a build that registers the policy.
    UnknownPolicy {
        /// The policy id recorded in the checkpoint.
        id: String,
    },
    /// A sharded blob whose shards disagree on the control policy — every
    /// shard of one engine runs the same policy, so this can only come
    /// from mixing checkpoints.
    PolicyMismatch {
        /// The first shard's policy id.
        expected: String,
        /// The disagreeing shard's policy id.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a controller checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (max {VERSION})")
            }
            CheckpointError::Truncated { offset } => {
                write!(f, "checkpoint truncated at byte {offset}")
            }
            CheckpointError::Corrupt { offset, what } => {
                write!(f, "corrupt checkpoint at byte {offset}: {what}")
            }
            CheckpointError::Invalid(e) => write!(f, "checkpoint carries invalid config: {e}"),
            CheckpointError::UnknownPolicy { id } => {
                write!(f, "checkpoint names unknown control policy {id:?}")
            }
            CheckpointError::PolicyMismatch { expected, found } => {
                write!(
                    f,
                    "sharded checkpoint mixes control policies ({expected:?} vs {found:?})"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<InvalidParamsError> for CheckpointError {
    fn from(e: InvalidParamsError) -> Self {
        CheckpointError::Invalid(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated(offset) => CheckpointError::Truncated { offset },
            CodecError::Overflow(offset) => CheckpointError::Corrupt {
                offset,
                what: codec::OVERFLOW,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Primitives: the codec's varints and raw bytes, plus this format's tags
// and bounded length prefixes
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        Writer { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        codec::put_varint(&mut self.buf, v);
    }

    fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// IEEE-754 bit pattern, 8 bytes little-endian (varints would mangle
    /// the high-entropy mantissa into 10 bytes for no benefit).
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    fn dir(&mut self, d: Direction) {
        self.u8(match d {
            Direction::Taken => 0,
            Direction::NotTaken => 1,
        });
    }

    fn opt_dir(&mut self, d: Option<Direction>) {
        self.u8(match d {
            None => 0,
            Some(Direction::Taken) => 1,
            Some(Direction::NotTaken) => 2,
        });
    }

    /// Length-prefixed raw bytes.
    fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }
}

struct Reader<'a> {
    bytes: codec::Reader<'a>,
}

impl<'a> Reader<'a> {
    fn corrupt(&self, what: &'static str) -> CheckpointError {
        CheckpointError::Corrupt {
            offset: self.bytes.pos(),
            what,
        }
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.bytes.u8()?)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(self.bytes.varint()?)
    }

    /// A `u64` count the controller keeps as `u32`; larger is corrupt.
    fn u32_count(&mut self) -> Result<u32, CheckpointError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.corrupt("count exceeds u32"))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.corrupt("value exceeds u32"))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt("value exceeds usize"))
    }

    /// Bounded length prefix: lengths are additionally sanity-capped by
    /// the bytes remaining, so a corrupt length cannot drive a huge
    /// allocation (each element costs at least one byte).
    fn len_prefix(&mut self) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        if n > self.bytes.remaining() {
            return Err(self.corrupt("length prefix exceeds remaining bytes"));
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        let bytes = self.bytes.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("took 8 bytes"),
        )))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(self.corrupt("bad option tag")),
        }
    }

    fn dir(&mut self) -> Result<Direction, CheckpointError> {
        match self.u8()? {
            0 => Ok(Direction::Taken),
            1 => Ok(Direction::NotTaken),
            _ => Err(self.corrupt("bad direction tag")),
        }
    }

    fn opt_dir(&mut self) -> Result<Option<Direction>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(Direction::Taken)),
            2 => Ok(Some(Direction::NotTaken)),
            _ => Err(self.corrupt("bad optional-direction tag")),
        }
    }

    /// Length-prefixed raw bytes.
    fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.len_prefix()?;
        Ok(self.bytes.take(n)?)
    }
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

fn write_params(w: &mut Writer, p: &ControllerParams) {
    w.u64(p.monitor_period);
    match p.monitor_policy {
        MonitorPolicy::FixedWindow => w.u8(0),
        MonitorPolicy::Confidence {
            z,
            min_execs,
            max_execs,
        } => {
            w.u8(1);
            w.f64(z);
            w.u64(min_execs);
            w.u64(max_execs);
        }
    }
    w.u64(p.monitor_sample_rate);
    w.f64(p.selection_threshold);
    match p.eviction {
        EvictionMode::Counter {
            up,
            down,
            threshold,
        } => {
            w.u8(0);
            w.u32(up);
            w.u32(down);
            w.u32(threshold);
        }
        EvictionMode::Sampling {
            period,
            samples,
            bias_threshold,
        } => {
            w.u8(1);
            w.u64(period);
            w.u64(samples);
            w.f64(bias_threshold);
        }
        EvictionMode::Never => w.u8(2),
    }
    match p.revisit {
        Revisit::After(n) => {
            w.u8(0);
            w.u64(n);
        }
        Revisit::Never => w.u8(1),
    }
    w.opt_u64(p.oscillation_limit.map(u64::from));
    w.u64(p.optimization_latency);
}

fn read_params(r: &mut Reader<'_>) -> Result<ControllerParams, CheckpointError> {
    let monitor_period = r.u64()?;
    let monitor_policy = match r.u8()? {
        0 => MonitorPolicy::FixedWindow,
        1 => MonitorPolicy::Confidence {
            z: r.f64()?,
            min_execs: r.u64()?,
            max_execs: r.u64()?,
        },
        _ => return Err(r.corrupt("bad monitor-policy tag")),
    };
    let monitor_sample_rate = r.u64()?;
    let selection_threshold = r.f64()?;
    let eviction = match r.u8()? {
        0 => EvictionMode::Counter {
            up: r.u32()?,
            down: r.u32()?,
            threshold: r.u32()?,
        },
        1 => EvictionMode::Sampling {
            period: r.u64()?,
            samples: r.u64()?,
            bias_threshold: r.f64()?,
        },
        2 => EvictionMode::Never,
        _ => return Err(r.corrupt("bad eviction-mode tag")),
    };
    let revisit = match r.u8()? {
        0 => Revisit::After(r.u64()?),
        1 => Revisit::Never,
        _ => return Err(r.corrupt("bad revisit tag")),
    };
    let oscillation_limit = r
        .opt_u64()?
        .map(u32::try_from)
        .transpose()
        .map_err(|_| r.corrupt("value exceeds u32"))?;
    let optimization_latency = r.u64()?;
    Ok(ControllerParams {
        monitor_period,
        monitor_policy,
        monitor_sample_rate,
        selection_threshold,
        eviction,
        revisit,
        oscillation_limit,
        optimization_latency,
    })
}

fn write_resilience(w: &mut Writer, rs: &ResilienceState) {
    // Static configuration.
    match rs.config.deployer {
        DeployerSpec::Instant => w.u8(0),
        DeployerSpec::Faulty(spec) => {
            w.u8(1);
            w.u64(spec.seed);
            match spec.mode {
                FaultMode::FixedRate { per_mille } => {
                    w.u8(0);
                    w.u32(u32::from(per_mille));
                }
                FaultMode::Burst { period, len } => {
                    w.u8(1);
                    w.u64(period);
                    w.u64(len);
                }
                FaultMode::TargetedBranch { branch } => {
                    w.u8(2);
                    w.u32(branch);
                }
            }
            w.u8(match spec.scope {
                FaultScope::All => 0,
                FaultScope::OptimizeOnly => 1,
                FaultScope::RepairOnly => 2,
            });
            w.u64(spec.wasted);
        }
    }
    w.u32(rs.config.retry.max_attempts);
    w.u64(rs.config.retry.base_backoff);
    w.u64(rs.config.retry.max_backoff);
    match &rs.config.breaker {
        None => w.u8(0),
        Some(b) => {
            w.u8(1);
            w.u64(b.bucket_events);
            w.usize(b.buckets);
            w.f64(b.open_threshold);
            w.f64(b.close_threshold);
            w.u64(b.cooldown_events);
            w.u64(b.probe_events);
            w.usize(b.mass_evict_top_k);
        }
    }
    // Runtime state.
    w.u64(rs.deployer.requests());
    if let Some(b) = &rs.breaker {
        match b.phase() {
            BreakerPhase::Closed => w.u8(0),
            BreakerPhase::Open { since } => {
                w.u8(1);
                w.u64(since);
            }
            BreakerPhase::HalfOpen { since } => {
                w.u8(2);
                w.u64(since);
            }
        }
        let (window, cur, warm, probe_seen, probe_misses) = b.raw_parts();
        w.usize(window.len());
        for &(events, misses) in window {
            w.u64(events);
            w.u64(misses);
        }
        w.usize(cur);
        w.usize(warm);
        w.u64(probe_seen);
        w.u64(probe_misses);
    }
    w.u64(rs.deploy_failures);
    w.u64(rs.deploy_retries);
    w.u64(rs.forced_disables);
    w.u64(rs.suppressed_enters);
}

fn read_resilience(r: &mut Reader<'_>) -> Result<ResilienceState, CheckpointError> {
    let deployer = match r.u8()? {
        0 => DeployerSpec::Instant,
        1 => {
            let seed = r.u64()?;
            let mode = match r.u8()? {
                0 => {
                    let pm = r.u32()?;
                    let per_mille =
                        u16::try_from(pm).map_err(|_| r.corrupt("per_mille exceeds u16"))?;
                    FaultMode::FixedRate { per_mille }
                }
                1 => FaultMode::Burst {
                    period: r.u64()?,
                    len: r.u64()?,
                },
                2 => FaultMode::TargetedBranch { branch: r.u32()? },
                _ => return Err(r.corrupt("bad fault-mode tag")),
            };
            let scope = match r.u8()? {
                0 => FaultScope::All,
                1 => FaultScope::OptimizeOnly,
                2 => FaultScope::RepairOnly,
                _ => return Err(r.corrupt("bad fault-scope tag")),
            };
            let wasted = r.u64()?;
            DeployerSpec::Faulty(FaultSpec {
                seed,
                mode,
                scope,
                wasted,
            })
        }
        _ => return Err(r.corrupt("bad deployer tag")),
    };
    let retry = RetryPolicy {
        max_attempts: r.u32()?,
        base_backoff: r.u64()?,
        max_backoff: r.u64()?,
    };
    let breaker_config = match r.u8()? {
        0 => None,
        1 => Some(BreakerConfig {
            bucket_events: r.u64()?,
            buckets: r.usize()?,
            open_threshold: r.f64()?,
            close_threshold: r.f64()?,
            cooldown_events: r.u64()?,
            probe_events: r.u64()?,
            mass_evict_top_k: r.usize()?,
        }),
        _ => return Err(r.corrupt("bad breaker-config tag")),
    };
    let config = ResilienceConfig {
        deployer,
        retry,
        breaker: breaker_config,
    };
    // Validates the config (including the breaker config) before any
    // runtime state is trusted.
    let mut rs = ResilienceState::new(config)?;
    rs.deployer.set_requests(r.u64()?);
    if let Some(bc) = breaker_config {
        let phase = match r.u8()? {
            0 => BreakerPhase::Closed,
            1 => BreakerPhase::Open { since: r.u64()? },
            2 => BreakerPhase::HalfOpen { since: r.u64()? },
            _ => return Err(r.corrupt("bad breaker-phase tag")),
        };
        let n = r.len_prefix()?;
        if n != bc.buckets {
            return Err(r.corrupt("breaker window length disagrees with config"));
        }
        let mut window = Vec::with_capacity(n);
        for _ in 0..n {
            let events = r.u64()?;
            let misses = r.u64()?;
            window.push((events, misses));
        }
        let cur = r.usize()?;
        if cur >= n {
            return Err(r.corrupt("breaker cursor outside window"));
        }
        let warm = r.usize()?;
        if warm > n {
            return Err(r.corrupt("breaker warm count exceeds window"));
        }
        let probe_seen = r.u64()?;
        let probe_misses = r.u64()?;
        rs.breaker = Some(StormBreaker::restore(
            bc,
            phase,
            window,
            cur,
            warm,
            probe_seen,
            probe_misses,
        ));
    }
    rs.deploy_failures = r.u64()?;
    rs.deploy_retries = r.u64()?;
    rs.forced_disables = r.u64()?;
    rs.suppressed_enters = r.u64()?;
    Ok(rs)
}

fn write_log(w: &mut Writer, log: &TransitionLog) {
    match log.policy() {
        TransitionLogPolicy::Full => w.u8(0),
        TransitionLogPolicy::CountsOnly => w.u8(1),
    }
    let (events, counts) = log.raw_storage();
    w.usize(counts.len());
    for &c in counts {
        w.u64(c);
    }
    w.usize(events.len());
    for ev in events {
        w.u32(ev.branch.index() as u32);
        w.u8(ev.kind.index() as u8);
        w.u64(ev.event_index);
        w.u64(ev.instr);
        w.opt_dir(ev.direction);
    }
}

fn read_log(r: &mut Reader<'_>) -> Result<TransitionLog, CheckpointError> {
    let policy = match r.u8()? {
        0 => TransitionLogPolicy::Full,
        1 => TransitionLogPolicy::CountsOnly,
        _ => return Err(r.corrupt("bad log-policy tag")),
    };
    let n_counts = r.len_prefix()?;
    if n_counts != TransitionKind::ALL.len() {
        return Err(r.corrupt("transition-kind count disagrees with this build"));
    }
    let mut counts = [0u64; TransitionKind::ALL.len()];
    for c in counts.iter_mut() {
        *c = r.u64()?;
    }
    let n_events = r.len_prefix()?;
    // A counts-only log stores no events, and a full log stores exactly
    // one per counted transition.
    match policy {
        TransitionLogPolicy::CountsOnly if n_events != 0 => {
            return Err(r.corrupt("counts-only log carries events"));
        }
        TransitionLogPolicy::Full
            if counts.iter().try_fold(0u64, |a, &c| a.checked_add(c)) != Some(n_events as u64) =>
        {
            return Err(r.corrupt("log event count disagrees with per-kind counts"));
        }
        _ => {}
    }
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let branch = BranchId::new(r.u32()?);
        let kind_idx = r.u8()? as usize;
        let kind = *TransitionKind::ALL
            .get(kind_idx)
            .ok_or_else(|| r.corrupt("bad transition-kind index"))?;
        let event_index = r.u64()?;
        let instr = r.u64()?;
        let direction = r.opt_dir()?;
        events.push(TransitionEvent {
            branch,
            kind,
            event_index,
            instr,
            direction,
        });
    }
    Ok(TransitionLog::from_raw_storage(policy, events, counts))
}

/// One branch slot. The eviction tracker is written under the
/// controller's rule `eviction`, and a counter tracker carries the rule's
/// full shape (value, up, down, threshold) even though `Policy::evict`
/// derives it from the policy and params: the v4 layout keeps it, and the
/// reader refuses a shape that disagrees. `recent_misses` is the storm
/// breaker's rank of the branch (0 without a breaker).
fn write_branch(w: &mut Writer, b: &BranchCtl, eviction: &Eviction, recent_misses: u64) {
    match &b.state {
        State::Monitor {
            execs,
            samples,
            taken,
        } => {
            w.u8(0);
            w.u64(u64::from(*execs));
            w.u64(u64::from(*samples));
            w.u64(u64::from(*taken));
        }
        State::PendingBiased { deadline, dir } => {
            w.u8(1);
            w.u64(*deadline);
            w.dir(*dir);
        }
        State::Biased { dir, tracker } => {
            w.u8(2);
            w.dir(*dir);
            match eviction {
                Eviction::Counter(c) => {
                    w.u8(0);
                    w.u32(tracker.value);
                    w.u32(c.up());
                    w.u32(c.down());
                    w.u32(c.threshold());
                }
                Eviction::Sampling(_) => {
                    w.u8(1);
                    w.u64(u64::from(tracker.value));
                    w.u64(u64::from(tracker.matched));
                    w.u64(u64::from(tracker.sampled));
                }
                Eviction::Never => w.u8(2),
            }
        }
        State::PendingMonitor { deadline, dir } => {
            w.u8(3);
            w.u64(*deadline);
            w.dir(*dir);
        }
        State::Unbiased { remaining } => {
            w.u8(4);
            w.opt_u64(revisit_countdown(*remaining));
        }
        State::Disabled => w.u8(5),
        State::RetryBiased { next, dir, attempt } => {
            w.u8(6);
            w.u64(*next);
            w.dir(*dir);
            w.u32(*attempt);
        }
        State::RetryMonitor { next, dir, attempt } => {
            w.u8(7);
            w.u64(*next);
            w.dir(*dir);
            w.u32(*attempt);
        }
    }
    w.u32(b.entries);
    w.u32(b.entries_since_flush);
    w.u32(b.evictions);
    w.u64(b.execs);
    w.u64(recent_misses);
}

/// Reads one branch slot written by [`write_branch`] under the
/// controller's rule `eviction`, returning it with its storm-breaker miss
/// rank.
fn read_branch(
    r: &mut Reader<'_>,
    eviction: &Eviction,
) -> Result<(BranchCtl, u64), CheckpointError> {
    let state = match r.u8()? {
        0 => State::Monitor {
            execs: r.u32_count()?,
            samples: r.u32_count()?,
            taken: r.u32_count()?,
        },
        1 => State::PendingBiased {
            deadline: r.u64()?,
            dir: r.dir()?,
        },
        2 => {
            let dir = r.dir()?;
            let tracker = match (r.u8()?, eviction) {
                (0, Eviction::Counter(c)) => {
                    let value = r.u32()?;
                    let shape = (r.u32()?, r.u32()?, r.u32()?);
                    if shape != (c.up(), c.down(), c.threshold()) {
                        return Err(r.corrupt("counter tracker shape disagrees with the policy"));
                    }
                    if value > c.threshold() {
                        return Err(r.corrupt("counter tracker value exceeds its threshold"));
                    }
                    EvictTracker {
                        value,
                        ..EvictTracker::default()
                    }
                }
                (1, Eviction::Sampling(_)) => EvictTracker {
                    value: r.u32_count()?,
                    matched: r.u32_count()?,
                    sampled: r.u32_count()?,
                },
                (2, Eviction::Never) => EvictTracker::default(),
                (0..=2, _) => {
                    return Err(r.corrupt("evict tracker disagrees with the policy"));
                }
                _ => return Err(r.corrupt("bad evict-tracker tag")),
            };
            State::Biased { dir, tracker }
        }
        3 => State::PendingMonitor {
            deadline: r.u64()?,
            dir: r.dir()?,
        },
        4 => State::Unbiased {
            remaining: match r.opt_u64()? {
                None => NEVER_REVISIT,
                Some(NEVER_REVISIT) => return Err(r.corrupt("revisit countdown out of range")),
                Some(n) => n,
            },
        },
        5 => State::Disabled,
        6 => State::RetryBiased {
            next: r.u64()?,
            dir: r.dir()?,
            attempt: r.u32()?,
        },
        7 => State::RetryMonitor {
            next: r.u64()?,
            dir: r.dir()?,
            attempt: r.u32()?,
        },
        _ => return Err(r.corrupt("bad branch-state tag")),
    };
    let b = BranchCtl {
        state,
        entries: r.u32()?,
        entries_since_flush: r.u32()?,
        evictions: r.u32()?,
        execs: r.u64()?,
    };
    Ok((b, r.u64()?))
}

/// Telemetry section: only the metric state that cannot be re-derived is
/// serialized — histogram buckets plus the interval bookkeeping. Counters
/// and gauges are synthesized from controller state at export, and sinks
/// are live I/O handles, so neither is written: a restored controller has
/// no sink. The interval-histogram bounds are written too, and restore
/// refuses any but [`INTERVAL_BOUNDS`], as it refuses a transition-kind
/// count that disagrees with this build.
fn write_telemetry(w: &mut Writer, telemetry: Option<&Telemetry>) {
    let Some(cm) = telemetry.and_then(|t| t.metrics.as_ref()) else {
        w.u8(0);
        return;
    };
    w.u8(1);
    w.usize(INTERVAL_BOUNDS.len());
    for b in INTERVAL_BOUNDS {
        w.u64(b);
    }
    for id in cm.histograms_in_order() {
        let h = cm.registry.histogram_ref(id);
        w.usize(h.buckets().len());
        for &b in h.buckets() {
            w.u64(b);
        }
        w.u64(h.count());
        w.u64(h.sum());
    }
    w.opt_u64(cm.last_misspec_event);
    w.usize(cm.enter_event.len());
    for &e in &cm.enter_event {
        w.u64(e);
    }
    w.opt_u64(cm.breaker_open_since);
    w.opt_u64(cm.breaker_half_since);
}

fn read_telemetry(r: &mut Reader<'_>) -> Result<Option<Box<Telemetry>>, CheckpointError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n = r.len_prefix()?;
            let mut bounds = Vec::with_capacity(n);
            for _ in 0..n {
                bounds.push(r.u64()?);
            }
            if bounds != INTERVAL_BOUNDS {
                return Err(r.corrupt("interval-histogram bounds disagree with this build"));
            }
            let mut cm = ControllerMetrics::new();
            for id in cm.histograms_in_order() {
                let n = r.len_prefix()?;
                let mut buckets = Vec::with_capacity(n);
                for _ in 0..n {
                    buckets.push(r.u64()?);
                }
                let count = r.u64()?;
                let sum = r.u64()?;
                if let Err(what) = cm.registry.histogram_mut(id).set_raw(buckets, count, sum) {
                    return Err(r.corrupt(what));
                }
            }
            cm.last_misspec_event = r.opt_u64()?;
            let n = r.len_prefix()?;
            let mut enter_event = Vec::with_capacity(n);
            for _ in 0..n {
                enter_event.push(r.u64()?);
            }
            cm.enter_event = enter_event;
            cm.breaker_open_since = r.opt_u64()?;
            cm.breaker_half_since = r.opt_u64()?;
            Ok(Some(Box::new(Telemetry {
                metrics: Some(cm),
                sink: None,
            })))
        }
        _ => Err(r.corrupt("bad telemetry tag")),
    }
}

// ---------------------------------------------------------------------------
// Whole-controller bodies (shared by the plain and sharded formats)
// ---------------------------------------------------------------------------

/// Serializes one complete controller (params through telemetry) — the
/// repeated unit of the format. A plain checkpoint holds one body; a
/// sharded checkpoint holds one per shard, in shard order. From v4 the
/// body carries a policy section (length-prefixed id, length-prefixed
/// config blob) right after the params.
fn write_controller_body(w: &mut Writer, ctl: &ReactiveController) {
    write_params(w, &ctl.params);
    w.bytes(ctl.policy.id().as_bytes());
    w.bytes(&ctl.policy.config_blob());
    match &ctl.resilience {
        None => w.u8(0),
        Some(rs) => {
            w.u8(1);
            write_resilience(w, rs);
        }
    }
    w.u64(ctl.counters.events);
    w.u64(ctl.counters.instructions);
    w.u64(ctl.counters.correct);
    w.u64(ctl.counters.incorrect);
    write_log(w, &ctl.log);
    w.usize(ctl.branches.len());
    let recent_misses = ctl
        .resilience
        .as_ref()
        .map_or(&[][..], |rs| &rs.recent_misses);
    for (i, b) in ctl.branches.iter().enumerate() {
        let misses = recent_misses.get(i).copied().unwrap_or(0);
        write_branch(w, b, &ctl.eviction, misses);
    }
    write_telemetry(w, ctl.telemetry.as_deref());
}

fn read_controller_body(r: &mut Reader<'_>) -> Result<ReactiveController, CheckpointError> {
    let params = read_params(r)?;
    params.validate()?;
    let id = match std::str::from_utf8(r.bytes()?) {
        Ok(s) => s.to_owned(),
        Err(_) => return Err(r.corrupt("policy id is not valid UTF-8")),
    };
    let blob = r.bytes()?.to_vec();
    let policy = match Policy::from_blob(&id, &blob) {
        Some(p) => p,
        None => return Err(CheckpointError::UnknownPolicy { id }),
    };
    let mut resilience = match r.u8()? {
        0 => None,
        1 => Some(read_resilience(r)?),
        _ => return Err(r.corrupt("bad resilience tag")),
    };
    let eviction = policy.evict(&params);
    let counters = Counters {
        events: r.u64()?,
        instructions: r.u64()?,
        correct: r.u64()?,
        incorrect: r.u64()?,
    };
    let log = read_log(r)?;
    let n_branches = r.len_prefix()?;
    let mut branches = Vec::with_capacity(n_branches);
    // Misses are only ranked under a storm breaker.
    let mut recent_misses = resilience
        .as_mut()
        .filter(|rs| rs.breaker.is_some())
        .map(|rs| &mut rs.recent_misses);
    for i in 0..n_branches {
        let (b, misses) = read_branch(r, &eviction)?;
        branches.push(b);
        match recent_misses.as_deref_mut() {
            _ if misses == 0 => {}
            Some(ranks) => {
                ranks.resize(i, 0);
                ranks.push(misses);
            }
            None => return Err(r.corrupt("recent misses without a storm breaker")),
        }
    }
    let telemetry = read_telemetry(r)?;
    Ok(ReactiveController {
        params,
        policy,
        branches,
        log,
        counters,
        resilience,
        telemetry,
        eviction,
    })
}

/// Validates the magic and version, returning a reader positioned at the
/// shard-count varint. Every version back to [`MIN_VERSION`] is accepted.
fn read_header(bytes: &[u8]) -> Result<Reader<'_>, CheckpointError> {
    let mut r = Reader {
        bytes: codec::Reader::new(bytes),
    };
    let header = r.bytes.take(MAGIC.len() + 1)?;
    if header[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = header[MAGIC.len()];
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    Ok(r)
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

impl ReactiveController {
    /// Serializes the complete controller state into a self-contained,
    /// versioned checkpoint.
    ///
    /// The checkpoint captures everything that affects future behavior:
    /// parameters, the resilience configuration and its runtime state
    /// (deployer request ordinal, breaker phase and window), global
    /// counters, the transition log, and every per-branch FSM. Restoring and
    /// replaying the rest of a trace is bit-identical to never having
    /// checkpointed.
    /// If telemetry is enabled, histogram state is serialized too (so
    /// metrics survive restore), and a [`ObsEvent::CheckpointSaved`] event
    /// is emitted to the attached sink. The emitted event never alters the
    /// serialized bytes: snapshotting is observationally transparent.
    pub fn snapshot(&self) -> ControllerCheckpoint {
        let mut w = Writer::new();
        w.usize(1); // shard count: a plain controller is one shard
        write_controller_body(&mut w, self);
        let cp = ControllerCheckpoint { bytes: w.buf };
        if let Some(t) = &self.telemetry {
            t.emit(&ObsEvent::CheckpointSaved {
                events: self.counters.events,
                bytes: cp.len() as u64,
            });
        }
        cp
    }

    /// Rebuilds a controller from a checkpoint produced by
    /// [`snapshot`](ReactiveController::snapshot).
    ///
    /// Decoding is strict: the magic and version are checked, every tag
    /// and length is validated, the embedded parameters and resilience
    /// configuration are re-validated, and trailing bytes are rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing the first problem found,
    /// with the byte offset for structural corruption.
    pub fn restore(cp: &ControllerCheckpoint) -> Result<Self, CheckpointError> {
        let bytes = cp.as_bytes();
        let mut r = read_header(bytes)?;
        let shard_count = r.len_prefix()?;
        if shard_count != 1 {
            return Err(r.corrupt("sharded checkpoint: restore it via ShardedController::restore"));
        }
        let ctl = read_controller_body(&mut r)?;
        if r.bytes.remaining() != 0 {
            return Err(r.corrupt("trailing bytes after checkpoint"));
        }
        Ok(ctl)
    }
}

impl crate::shard::ShardedController {
    /// Serializes every shard's complete state into one checkpoint:
    /// the shard count, then one controller body per shard in shard
    /// order. Restoring yields the same merged exposition (stats,
    /// transition counts, snapshots, metrics) as a straight run.
    pub fn snapshot(&self) -> ControllerCheckpoint {
        let mut w = Writer::new();
        w.usize(self.shard_count());
        // The body format is self-delimiting, so the bodies concatenate
        // with no framing between them.
        for ctl in self.shards() {
            write_controller_body(&mut w, ctl);
        }
        ControllerCheckpoint { bytes: w.buf }
    }

    /// Rebuilds a sharded engine from a checkpoint.
    ///
    /// Accepts any shard count ≥ 1 — a plain
    /// [`ReactiveController::snapshot`] blob restores as a one-shard
    /// engine. Decoding is strict (same guarantees as
    /// [`ReactiveController::restore`]), and the shards are additionally
    /// required to be mutually consistent: identical parameters, no
    /// resilience state, and a uniform telemetry shape.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing the first problem found.
    pub fn restore(cp: &ControllerCheckpoint) -> Result<Self, CheckpointError> {
        let bytes = cp.as_bytes();
        let mut r = read_header(bytes)?;
        let shard_count = r.len_prefix()?;
        if shard_count == 0 {
            return Err(r.corrupt("checkpoint contains zero shards"));
        }
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let ctl = read_controller_body(&mut r)?;
            if ctl.resilience.is_some() {
                return Err(CheckpointError::Invalid(InvalidParamsError::bad_field(
                    "shards",
                    shard_count,
                    "resilience is global state and cannot be sharded",
                )));
            }
            shards.push(ctl);
        }
        if r.bytes.remaining() != 0 {
            return Err(r.corrupt("trailing bytes after checkpoint"));
        }
        let first_params = shards[0].params;
        let first_metered = shards[0]
            .telemetry
            .as_ref()
            .is_some_and(|t| t.metrics.is_some());
        let first_policy = shards[0].policy;
        for ctl in &shards[1..] {
            if ctl.params != first_params {
                return Err(r.corrupt("shards disagree on controller parameters"));
            }
            if ctl.policy.id() != first_policy.id() {
                return Err(CheckpointError::PolicyMismatch {
                    expected: first_policy.id().to_owned(),
                    found: ctl.policy.id().to_owned(),
                });
            }
            if ctl.policy != first_policy {
                return Err(r.corrupt("shards disagree on policy configuration"));
            }
            let metered = ctl.telemetry.as_ref().is_some_and(|t| t.metrics.is_some());
            if metered != first_metered {
                return Err(r.corrupt("shards disagree on telemetry shape"));
            }
        }
        // Restored shards go straight into a fresh engine whose thread
        // cap is the current global one, as a newly built engine's is.
        // Nothing is spawned here.
        Ok(crate::shard::ShardedController::from_parts(
            shards,
            rsc_util::parallel::max_threads(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::HysteresisCounter;
    use crate::resilience::DeployOutcome;
    use rsc_trace::BranchRecord;

    fn drive(ctl: &mut ReactiveController, n: u64) {
        // Two branches: one strongly biased, one alternating (keeps the
        // eviction machinery and misspeculation counters busy).
        for i in 0..n {
            let (branch, taken) = if i % 3 == 0 {
                (BranchId::new(1), i % 2 == 0)
            } else {
                (BranchId::new(0), true)
            };
            ctl.observe(&BranchRecord {
                branch,
                taken,
                instr: i * 10,
            });
        }
    }

    #[test]
    fn round_trips_a_plain_controller() {
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        drive(&mut ctl, 5_000);
        let cp = ctl.snapshot();
        let restored = ReactiveController::restore(&cp).unwrap();
        assert_eq!(restored.stats(), ctl.stats());
        assert_eq!(
            restored.transition_log().as_slice(),
            ctl.transition_log().as_slice()
        );
        assert_eq!(restored.params(), ctl.params());
    }

    #[test]
    fn round_trips_resilience_runtime_state() {
        let config = ResilienceConfig {
            deployer: DeployerSpec::Faulty(FaultSpec {
                seed: 42,
                mode: FaultMode::FixedRate { per_mille: 400 },
                scope: FaultScope::All,
                wasted: 25,
            }),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: 50,
                max_backoff: 200,
            },
            breaker: Some(BreakerConfig {
                bucket_events: 64,
                buckets: 4,
                open_threshold: 0.3,
                close_threshold: 0.1,
                cooldown_events: 128,
                probe_events: 64,
                mass_evict_top_k: 2,
            }),
        };
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .resilience(config)
            .build()
            .unwrap();
        drive(&mut ctl, 5_000);
        let cp = ctl.snapshot();
        let restored = ReactiveController::restore(&cp).unwrap();
        assert_eq!(restored.stats(), ctl.stats());
        assert_eq!(restored.resilience_config(), ctl.resilience_config());
        // The deployer ordinal must survive: the next fault decision
        // depends on it.
        let (a, b) = (
            ctl.resilience.as_ref().unwrap(),
            restored.resilience.as_ref().unwrap(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_is_deterministic() {
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        drive(&mut ctl, 2_000);
        assert_eq!(ctl.snapshot(), ctl.snapshot());
        assert_eq!(ctl.snapshot(), ctl.clone().snapshot());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        let mut bytes = ctl.snapshot().into_bytes();
        bytes[0] = b'X';
        let err = ReactiveController::restore(&ControllerCheckpoint::from_bytes(bytes.clone()))
            .unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
        bytes[0] = b'R';
        bytes[4] = 99;
        let err = ReactiveController::restore(&ControllerCheckpoint::from_bytes(bytes.clone()))
            .unwrap_err();
        assert_eq!(err, CheckpointError::UnsupportedVersion(99));
        // A shard-count varint (byte 5) that overflows u64 is corrupt at
        // its first byte, not a count.
        bytes[4] = VERSION;
        let overflow = [&bytes[..5], &[0xff; 9], &[0x02], &bytes[6..]].concat();
        let err =
            ReactiveController::restore(&ControllerCheckpoint::from_bytes(overflow)).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Corrupt {
                offset: 5,
                what: codec::OVERFLOW
            }
        );
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        drive(&mut ctl, 1_000);
        let bytes = ctl.snapshot().into_bytes();
        for cut in 0..bytes.len() {
            let cp = ControllerCheckpoint::from_bytes(bytes[..cut].to_vec());
            assert!(
                ReactiveController::restore(&cp).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        let mut bytes = ctl.snapshot().into_bytes();
        bytes.push(0);
        let err =
            ReactiveController::restore(&ControllerCheckpoint::from_bytes(bytes)).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { what, .. }
            if what == "trailing bytes after checkpoint"));
    }

    #[test]
    fn rejects_corrupted_histogram_footer() {
        // A checkpoint whose histogram count disagrees with its bucket
        // sum can only come from corruption; restore must refuse it.
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .metrics()
            .build()
            .unwrap();
        drive(&mut ctl, 5_000);
        {
            let cm = ctl.telemetry.as_mut().unwrap().metrics.as_mut().unwrap();
            let id = cm.ids.misspec_interval;
            let honest = cm.registry.histogram_ref(id).count();
            cm.registry.histogram_mut(id).force_count(honest + 7);
        }
        let err = ReactiveController::restore(&ctl.snapshot()).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { what, .. }
            if what == "histogram count disagrees with bucket sum"));
    }

    #[test]
    fn round_trips_a_sharded_controller() {
        use crate::shard::ShardedController;
        use crate::TransitionKind;
        let mut shd = ReactiveController::builder(ControllerParams::scaled())
            .shards(3)
            .metrics()
            .build_sharded()
            .unwrap();
        let records: Vec<BranchRecord> = (0..5_000u64)
            .map(|i| BranchRecord {
                branch: BranchId::new((i % 7) as u32),
                taken: (i / 40) % 2 == 0,
                instr: i * 10,
            })
            .collect();
        shd.observe_chunk(&records);
        let cp = shd.snapshot();
        let restored = ShardedController::restore(&cp).unwrap();
        assert_eq!(restored.shard_count(), 3);
        assert_eq!(restored.stats(), shd.stats());
        for kind in TransitionKind::ALL {
            assert_eq!(restored.transition_count(kind), shd.transition_count(kind));
        }
        for b in 0..7u32 {
            assert_eq!(
                restored.branch_snapshot(BranchId::new(b)),
                shd.branch_snapshot(BranchId::new(b))
            );
        }
        assert_eq!(
            restored.metrics().unwrap().render_prometheus(),
            shd.metrics().unwrap().render_prometheus(),
            "restore preserves the merged exposition"
        );
        // Resume-equals-straight-run across the shard boundary.
        let mut resumed = ShardedController::restore(&cp).unwrap();
        assert_eq!(resumed.observe_chunk(&records), shd.observe_chunk(&records));
        assert_eq!(resumed.stats(), shd.stats());
    }

    #[test]
    fn pooled_and_inline_round_trips_are_bit_identical() {
        use crate::shard::ShardedController;
        // A chunked many-branch trace. The first chunk is large enough
        // for the 4-thread engine to fan out to every thread; the second
        // runs inline on both engines.
        let chunk = |lo: u64, hi: u64| -> Vec<BranchRecord> {
            (lo..hi)
                .map(|i| {
                    let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7);
                    x ^= x >> 29;
                    BranchRecord {
                        branch: BranchId::new((x % 257) as u32),
                        taken: x & 8 != 0,
                        instr: i * 3,
                    }
                })
                .collect()
        };
        let build = |threads: usize| {
            ReactiveController::builder(ControllerParams::scaled())
                .shards(4)
                .pool_threads(threads)
                .build_sharded()
                .unwrap()
        };
        let mut inline = build(1);
        let mut pooled = build(4);
        assert_eq!(inline.pool_threads(), 1);
        assert_eq!(pooled.pool_threads(), 4);
        let split = 4 * crate::shard::MIN_EVENTS_PER_THREAD as u64;
        let first = chunk(0, split);
        assert_eq!(inline.observe_chunk(&first), pooled.observe_chunk(&first));
        let cp_inline = inline.snapshot();
        let cp_pooled = pooled.snapshot();
        assert_eq!(
            cp_inline.as_bytes(),
            cp_pooled.as_bytes(),
            "checkpoints are engine-shape-independent"
        );
        // restore → observe → checkpoint again: the second-generation
        // checkpoints must also agree bit-for-bit, whether the next chunk
        // went through the restored engine or the original pooled one.
        let second = chunk(split, split + 30_000);
        let mut restored = ShardedController::restore(&cp_inline).unwrap();
        let resumed_summary = restored.observe_chunk(&second);
        assert_eq!(resumed_summary, pooled.observe_chunk(&second));
        assert_eq!(inline.observe_chunk(&second), resumed_summary);
        assert_eq!(restored.snapshot().as_bytes(), pooled.snapshot().as_bytes());
        assert_eq!(inline.snapshot().as_bytes(), restored.snapshot().as_bytes());
        assert_eq!(restored.stats(), pooled.stats());
    }

    #[test]
    fn plain_restore_refuses_sharded_blobs_and_vice_versa() {
        use crate::shard::ShardedController;
        let mut shd = ReactiveController::builder(ControllerParams::scaled())
            .shards(2)
            .build_sharded()
            .unwrap();
        drive_sharded(&mut shd, 1_000);
        let err = ReactiveController::restore(&shd.snapshot()).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { what, .. }
            if what.starts_with("sharded checkpoint")));

        // The other direction is accepted: a plain blob is one shard.
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        drive(&mut ctl, 1_000);
        let as_sharded = ShardedController::restore(&ctl.snapshot()).unwrap();
        assert_eq!(as_sharded.shard_count(), 1);
        assert_eq!(as_sharded.stats(), ctl.stats());
    }

    #[test]
    fn sharded_restore_stays_strict() {
        let mut shd = ReactiveController::builder(ControllerParams::scaled())
            .shards(2)
            .build_sharded()
            .unwrap();
        drive_sharded(&mut shd, 500);
        let bytes = shd.snapshot().into_bytes();
        for cut in 0..bytes.len() {
            let cp = ControllerCheckpoint::from_bytes(bytes[..cut].to_vec());
            assert!(
                crate::shard::ShardedController::restore(&cp).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        let err =
            crate::shard::ShardedController::restore(&ControllerCheckpoint::from_bytes(trailing))
                .unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { what, .. }
            if what == "trailing bytes after checkpoint"));
    }

    fn drive_sharded(shd: &mut crate::shard::ShardedController, n: u64) {
        for i in 0..n {
            let (branch, taken) = if i % 3 == 0 {
                (BranchId::new(1), i % 2 == 0)
            } else {
                (BranchId::new(0), true)
            };
            shd.observe(&BranchRecord {
                branch,
                taken,
                instr: i * 10,
            });
        }
    }

    #[test]
    fn restored_deployer_continues_the_fault_schedule() {
        // Drive a faulty controller, checkpoint, then compare the *next*
        // deployment outcomes between the original and a restored copy —
        // they must consult the same ordinal.
        use crate::resilience::deployer::{DeployKind, DeployRequest};
        let config = ResilienceConfig {
            deployer: DeployerSpec::Faulty(FaultSpec {
                seed: 9,
                mode: FaultMode::FixedRate { per_mille: 500 },
                scope: FaultScope::All,
                wasted: 10,
            }),
            retry: RetryPolicy::default_policy(),
            breaker: None,
        };
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .resilience(config)
            .build()
            .unwrap();
        drive(&mut ctl, 3_000);
        let mut restored = ReactiveController::restore(&ctl.snapshot()).unwrap();
        let req = DeployRequest {
            branch: BranchId::new(5),
            kind: DeployKind::Optimize,
            instr: 999_999,
            attempt: 0,
        };
        for _ in 0..32 {
            let a = ctl.resilience.as_mut().unwrap().deployer.request(&req);
            let b = restored.resilience.as_mut().unwrap().deployer.request(&req);
            assert_eq!(a, b);
            let _ = matches!(a, DeployOutcome::Deployed);
        }
    }

    #[test]
    fn unknown_policy_id_is_refused() {
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        drive(&mut ctl, 500);
        let cp = ctl.snapshot();
        // A `paper-fsm` body with its policy id swapped: a foreign policy,
        // and one this build no longer has.
        for id in ["martian-fsm", "adaptive-hysteresis"] {
            let mut w = Writer::new();
            w.usize(1);
            write_params(&mut w, &ctl.params);
            let rest = &cp.as_bytes()[w.buf.len() + 1 + "paper-fsm".len()..];
            w.bytes(id.as_bytes());
            w.buf.extend_from_slice(rest);
            let err =
                ReactiveController::restore(&ControllerCheckpoint { bytes: w.buf }).unwrap_err();
            assert_eq!(err, CheckpointError::UnknownPolicy { id: id.to_owned() });
        }
    }

    /// Offset of the log-policy tag in `ctl`'s plain checkpoint: the
    /// shard count, params, policy section, resilience tag (none) and the
    /// four global counters come first.
    fn log_tag_offset(ctl: &ReactiveController) -> usize {
        assert!(ctl.resilience.is_none());
        let mut w = Writer::new();
        w.usize(1);
        write_params(&mut w, &ctl.params);
        w.bytes(ctl.policy.id().as_bytes());
        w.bytes(&ctl.policy.config_blob());
        w.u8(0);
        let c = &ctl.counters;
        for v in [c.events, c.instructions, c.correct, c.incorrect] {
            w.u64(v);
        }
        w.buf.len()
    }

    /// `ctl`'s checkpoint with its log-policy tag (expected to be `from`)
    /// overwritten by `to`, restored.
    fn restore_with_log_tag(ctl: &ReactiveController, from: u8, to: u8) -> CheckpointError {
        let mut bytes = ctl.snapshot().into_bytes();
        let at = log_tag_offset(ctl);
        assert_eq!(bytes[at], from, "log tag offset");
        bytes[at] = to;
        ReactiveController::restore(&ControllerCheckpoint::from_bytes(bytes)).unwrap_err()
    }

    #[test]
    fn log_tags_must_agree_with_the_stored_events() {
        let build = |policy| {
            let mut ctl = ReactiveController::builder(ControllerParams::scaled())
                .log_policy(policy)
                .build()
                .unwrap();
            drive(&mut ctl, 5_000);
            assert!(ctl.transition_log().total() > 0);
            ctl
        };
        let full = build(TransitionLogPolicy::Full);
        let counted = build(TransitionLogPolicy::CountsOnly);
        // A counts-only log that carries events.
        let err = restore_with_log_tag(&full, 0, 1);
        assert!(matches!(err, CheckpointError::Corrupt { what, .. }
            if what == "counts-only log carries events"));
        // A full log with fewer events than its per-kind counts.
        let err = restore_with_log_tag(&counted, 1, 0);
        assert!(matches!(err, CheckpointError::Corrupt { what, .. }
            if what == "log event count disagrees with per-kind counts"));
        // Tag 2 names no policy.
        for ctl in [&full, &counted] {
            let tag = ctl.snapshot().as_bytes()[log_tag_offset(ctl)];
            let err = restore_with_log_tag(ctl, tag, 2);
            assert!(matches!(err, CheckpointError::Corrupt { what, .. }
                if what == "bad log-policy tag"));
        }
    }

    #[test]
    fn non_default_interval_bounds_are_refused() {
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .metrics()
            .build()
            .unwrap();
        drive(&mut ctl, 2_000);
        let mut t = Writer::new();
        let base = t.buf.len();
        write_telemetry(&mut t, ctl.telemetry.as_deref());
        let mut bytes = ctl.snapshot().into_bytes();
        // Telemetry closes the body: tag 1, the bound count, then the
        // bounds themselves (each small bound is a one-byte varint).
        let at = bytes.len() - (t.buf.len() - base);
        assert_eq!(bytes[at..at + 4], [1, 11, 1, 4]);
        // [2, 4, 16, ...] is strictly increasing, but not this build's.
        bytes[at + 2] = 2;
        let err =
            ReactiveController::restore(&ControllerCheckpoint::from_bytes(bytes)).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { what, .. }
            if what == "interval-histogram bounds disagree with this build"));
    }

    #[test]
    fn non_default_policy_round_trips() {
        use crate::policy::Perceptron;
        let policy = Policy::Perceptron(Perceptron {
            theta: 12,
            w_max: 64,
            miss_weight: 8,
        });
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .policy(policy)
            .build()
            .unwrap();
        drive(&mut ctl, 5_000);
        let cp = ctl.snapshot();
        let restored = ReactiveController::restore(&cp).unwrap();
        assert_eq!(restored.policy_id(), "perceptron");
        assert_eq!(
            restored.policy().config_blob(),
            ctl.policy().config_blob(),
            "policy configuration survives the round trip"
        );
        // The perceptron's trackers have a shape the params cannot
        // re-derive; v4 must carry it so the second-generation snapshot
        // is bit-identical.
        assert_eq!(restored.snapshot(), cp);
        let mut resumed = ReactiveController::restore(&cp).unwrap();
        drive(&mut resumed, 5_000);
        drive(&mut ctl, 5_000);
        assert_eq!(resumed.stats(), ctl.stats());
        assert_eq!(resumed.snapshot(), ctl.snapshot());
    }

    #[test]
    fn mismatched_policy_shards_are_refused() {
        use crate::policy::Perceptron;
        let paper = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        let perceptron = ReactiveController::builder(ControllerParams::scaled())
            .policy(Policy::Perceptron(Perceptron::default()))
            .build()
            .unwrap();
        let mut w = Writer::new();
        w.usize(2);
        write_controller_body(&mut w, &paper);
        write_controller_body(&mut w, &perceptron);
        let err = crate::shard::ShardedController::restore(&ControllerCheckpoint { bytes: w.buf })
            .unwrap_err();
        assert_eq!(
            err,
            CheckpointError::PolicyMismatch {
                expected: "paper-fsm".to_owned(),
                found: "perceptron".to_owned(),
            }
        );

        // Same id but different knobs is corruption, not a mismatch.
        let a = ReactiveController::builder(ControllerParams::scaled())
            .policy(Policy::Perceptron(Perceptron::default()))
            .build()
            .unwrap();
        let b = ReactiveController::builder(ControllerParams::scaled())
            .policy(Policy::Perceptron(Perceptron {
                theta: 1,
                ..Perceptron::default()
            }))
            .build()
            .unwrap();
        let mut w = Writer::new();
        w.usize(2);
        write_controller_body(&mut w, &a);
        write_controller_body(&mut w, &b);
        let err = crate::shard::ShardedController::restore(&ControllerCheckpoint { bytes: w.buf })
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { what, .. }
            if what == "shards disagree on policy configuration"));
    }

    /// Restores `cp`, expecting corruption described as `want`.
    fn refused_as(cp: ControllerCheckpoint, want: &str) {
        match ReactiveController::restore(&cp) {
            Err(CheckpointError::Corrupt { what, .. }) => assert_eq!(what, want),
            other => panic!("expected Corrupt({want}), got {other:?}"),
        }
    }

    /// `ctl`'s checkpoint with branch `idx`'s slot re-encoded by `patch`.
    fn with_branch(
        ctl: &ReactiveController,
        idx: usize,
        patch: impl FnOnce(&mut Writer),
    ) -> ControllerCheckpoint {
        // A fresh writer opens with the magic and version.
        let header = MAGIC.len() + 1;
        let mut old = Writer::new();
        write_branch(&mut old, &ctl.branches[idx], &ctl.eviction, 0);
        let old = &old.buf[header..];
        let mut new = Writer::new();
        patch(&mut new);
        let bytes = ctl.snapshot().into_bytes();
        let at = bytes
            .windows(old.len())
            .rposition(|w| w == old)
            .expect("branch slot in the blob");
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(&new.buf[header..]);
        out.extend_from_slice(&bytes[at + old.len()..]);
        ControllerCheckpoint::from_bytes(out)
    }

    /// Scaled params that select branch 0 of [`drive`] within 5,000 events.
    fn fast_params() -> ControllerParams {
        ControllerParams::scaled()
            .with_latency(0)
            .with_monitor_period(100)
    }

    /// The trailing counters of a branch slot that executed `execs` times.
    fn branch_tail(w: &mut Writer, entries: u32, execs: u64) {
        for v in [entries, entries, 0] {
            w.u32(v);
        }
        w.u64(execs);
        w.u64(0);
    }

    #[test]
    fn counter_tracker_shape_must_match_the_policy() {
        let mut ctl = ReactiveController::builder(fast_params()).build().unwrap();
        drive(&mut ctl, 5_000);
        assert!(ctl.is_speculating(BranchId::new(0)));
        let Eviction::Counter(c) = ctl.eviction else {
            panic!("scaled params evict by counter")
        };
        ctl.eviction =
            Eviction::Counter(HysteresisCounter::new(c.up(), c.down(), c.threshold() + 1));
        refused_as(
            ctl.snapshot(),
            "counter tracker shape disagrees with the policy",
        );
        ctl.eviction = Eviction::Never;
        refused_as(ctl.snapshot(), "evict tracker disagrees with the policy");
    }

    #[test]
    fn sampling_tracker_under_a_counter_policy_is_refused() {
        let mut ctl = ReactiveController::builder(fast_params()).build().unwrap();
        drive(&mut ctl, 5_000);
        let b = ctl.branch_snapshot(BranchId::new(0));
        let cp = with_branch(&ctl, 0, |w| {
            w.u8(2);
            w.dir(Direction::Taken);
            w.u8(1);
            for _ in 0..3 {
                w.u64(0);
            }
            branch_tail(w, b.entries, b.execs);
        });
        refused_as(cp, "evict tracker disagrees with the policy");
    }

    #[test]
    fn counter_tracker_value_must_not_exceed_its_threshold() {
        let mut ctl = ReactiveController::builder(fast_params()).build().unwrap();
        drive(&mut ctl, 5_000);
        let State::Biased { tracker, .. } = &mut ctl.branches[0].state else {
            panic!("branch 0 is biased")
        };
        tracker.value = 1_001;
        refused_as(
            ctl.snapshot(),
            "counter tracker value exceeds its threshold",
        );
    }

    #[test]
    fn monitor_counts_above_u32_are_refused() {
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        drive(&mut ctl, 30);
        assert!(matches!(
            ctl.branches[0].state,
            State::Monitor { execs: 20, .. }
        ));
        let cp = with_branch(&ctl, 0, |w| {
            w.u8(0);
            w.u64(u64::from(u32::MAX) + 1);
            w.u64(20);
            w.u64(20);
            branch_tail(w, 0, 20);
        });
        refused_as(cp, "count exceeds u32");
    }

    #[test]
    fn sampling_counts_above_u32_are_refused() {
        let mut ctl = ReactiveController::builder(fast_params().with_sampled_eviction())
            .build()
            .unwrap();
        drive(&mut ctl, 5_000);
        let b = ctl.branch_snapshot(BranchId::new(0));
        assert!(matches!(b.state, crate::BranchStateView::Biased { .. }));
        for field in 0..3 {
            let cp = with_branch(&ctl, 0, |w| {
                w.u8(2);
                w.dir(Direction::Taken);
                w.u8(1);
                for f in 0..3 {
                    w.u64(if f == field {
                        u64::from(u32::MAX) + 1
                    } else {
                        0
                    });
                }
                branch_tail(w, b.entries, b.execs);
            });
            refused_as(cp, "count exceeds u32");
        }
    }

    #[test]
    fn recent_misses_need_a_storm_breaker() {
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        drive(&mut ctl, 30);
        let cp = with_branch(&ctl, 0, |w| {
            write_branch(w, &ctl.branches[0], &ctl.eviction, 3);
        });
        refused_as(cp, "recent misses without a storm breaker");
    }

    #[test]
    fn golden_breaker_checkpoint_keeps_its_miss_ranks() {
        let golden: &[u8] = include_bytes!("../tests/fixtures/paper-fsm-breaker-4100.rsck");
        let ctl = ReactiveController::restore(&ControllerCheckpoint::from_bytes(golden)).unwrap();
        let ranks = &ctl.resilience.as_ref().unwrap().recent_misses;
        assert!(ranks.iter().any(|&m| m > 0), "{ranks:?}");
        assert_eq!(ctl.snapshot().as_bytes(), golden);
    }
}
