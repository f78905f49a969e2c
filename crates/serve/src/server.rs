//! The multi-tenant serving core: tenant registry, admission control,
//! overload shedding, graceful drain, and the connection loops.
//!
//! # Concurrency shape
//!
//! There are no per-tenant worker threads. Each connection gets one
//! thread; a frame for tenant *t* is applied *by the connection thread*
//! under tenant *t*'s lock. Fairness and backpressure come from the
//! per-tenant [`Gate`]: at most `queue_depth` operations may be admitted
//! against one tenant at a time, and a thread that cannot acquire a
//! permit within `backpressure_wait` turns its frame into an
//! `Overloaded` reject. A slow or spammy tenant therefore stalls only
//! connections carrying *its* frames — the accept loop and every other
//! tenant's frames never wait on it.
//!
//! The registry is a `Mutex<HashMap<tenant, Slot>>` plus a condvar. A
//! slot is `Live` (the tenant is in memory) or `Busy` (someone is
//! restoring or evicting it); lookups wait out `Busy` and retry. A cell
//! that was evicted after a thread cloned its `Arc` is detected by the
//! `retired` flag under the tenant lock, and the thread re-resolves —
//! which transparently restores the tenant from its checkpoint.
//!
//! # Lifecycle
//!
//! ```text
//!            ingest/lookup            shed (coldest)
//!   absent ───────────────▶ live ───────────────────▶ evicted (disk)
//!      ▲                      │  ▲                        │
//!      │        drain: flush  │  └────────────────────────┘
//!      │        to disk, keep │         next touch restores
//!      └── remove ◀───────────┘
//! ```
//!
//! Drain (`SIGTERM` or a `Drain` frame) flips a flag that rejects new
//! `Events` frames with `Draining`, then writes every live tenant to the
//! checkpoint directory. Restart resolves tenants lazily from that
//! directory, so a drained or evicted tenant resumes bit-identically.

use crate::chaos::ChaosConfig;
use crate::frame::{
    read_frame_with_limit, write_frame, Frame, FrameError, RejectCode, MAX_FRAME_LEN,
};
use crate::storage::{CheckpointStore, StoreError};
use crate::tenant::{QuotaConfig, Tenant};
use rsc_control::{ControllerParams, MetricsRegistry};
use rsc_util::sync::Gate;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Everything the daemon needs to run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Controller parameters shared by every tenant.
    pub params: ControllerParams,
    /// Per-tenant admission limits.
    pub quota: QuotaConfig,
    /// Per-tenant concurrent-operation bound (the ingest queue depth).
    pub queue_depth: usize,
    /// How long a frame may wait for a tenant permit before it is
    /// rejected `Overloaded`.
    pub backpressure_wait: Duration,
    /// Live tenants above this count trigger eviction of the coldest
    /// (0 = never shed).
    pub max_live_tenants: usize,
    /// Where evicted and drained tenants are checkpointed.
    pub checkpoint_dir: PathBuf,
    /// Fault injection for the storage seam.
    pub chaos: ChaosConfig,
    /// Socket read timeout; also the slow-loris patience per syscall.
    pub io_timeout: Duration,
    /// Largest accepted frame body.
    pub max_frame_len: u32,
}

impl ServerConfig {
    /// Sensible defaults rooted at `checkpoint_dir`.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            params: ControllerParams::scaled(),
            quota: QuotaConfig::unlimited(),
            queue_depth: 8,
            backpressure_wait: Duration::from_millis(500),
            max_live_tenants: 0,
            checkpoint_dir: checkpoint_dir.into(),
            chaos: ChaosConfig::off(),
            io_timeout: Duration::from_secs(2),
            max_frame_len: MAX_FRAME_LEN,
        }
    }
}

/// Declares the server counters once. Each entry is a [`CounterSnapshot`]
/// field with its doc, then the metric it exports as and that metric's
/// help text. The atomics, the snapshot and the exported families all
/// come from this one list.
macro_rules! server_counters {
    ($($(#[doc = $doc:literal])+ $field:ident => $metric:literal, $help:literal;)+) => {
        /// Monotonic process-wide counters, exported as server metrics.
        #[derive(Debug, Default)]
        struct Counters {
            $($field: AtomicU64,)+
        }

        /// A point-in-time copy of the server counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[doc = $doc])+ pub $field: u64,)+
            /// Records in the checkpoint directory that did not restore
            /// when the server started, each counted once; their tenants
            /// are absent from the per-tenant metrics. Scrapes read no
            /// record. Exported as the `rsc_serve_unreadable_records`
            /// gauge.
            pub store_errors: u64,
        }

        impl Counters {
            /// Loads every counter; `store_errors` is the startup count.
            fn snapshot(&self, store_errors: u64) -> CounterSnapshot {
                CounterSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                    store_errors,
                }
            }
        }

        impl CounterSnapshot {
            /// Every counter as its metric name, help text and value, in
            /// declaration order.
            fn families(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
                [$(($metric, $help, self.$field)),+].into_iter()
            }
        }
    };
}

server_counters! {
    /// Connections accepted.
    connections => "rsc_serve_connections_total", "Connections accepted";
    /// Frames fully decoded.
    frames => "rsc_serve_frames_total", "Frames decoded";
    /// `Events` frames acknowledged.
    accepted_frames => "rsc_serve_accepted_frames_total", "Events frames acknowledged";
    /// `Events` frames rejected (any code).
    rejected_frames => "rsc_serve_rejected_frames_total", "Events frames rejected";
    /// Connections dropped on torn or corrupt frames.
    torn_frames => "rsc_serve_torn_frames_total", "Connections dropped on torn frames";
    /// Tenants evicted to disk under memory pressure.
    shed_tenants => "rsc_serve_shed_tenants_total", "Tenants evicted to disk";
    /// Evictions abandoned because the checkpoint write failed.
    shed_failures => "rsc_serve_shed_failures_total", "Evictions abandoned on write failure";
    /// Tenants restored from disk.
    restores => "rsc_serve_restores_total", "Tenants restored from disk";
    /// Tenants flushed by drain.
    drain_flushed => "rsc_serve_drain_flushed_total", "Tenants flushed by drain";
}

/// What [`Server::drain`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Tenants whose state reached disk.
    pub flushed: u64,
    /// Tenants whose checkpoint write kept failing (their state stayed
    /// in memory; the exit code should reflect this).
    pub failed: u64,
}

/// The per-tenant metric families, name and help, in the order of
/// [`exported`]'s values.
const TENANT_FAMILIES: [(&str, &str); 5] = [
    ("rsc_tenant_events_total", "Events accepted per tenant"),
    ("rsc_tenant_rejected_total", "Events rejected per tenant"),
    (
        "rsc_tenant_bytes_total",
        "Payload bytes accepted per tenant",
    ),
    (
        "rsc_tenant_misspeculations_total",
        "Misspeculated branches per tenant",
    ),
    (
        "rsc_tenant_stream_digest",
        "FNV-1a digest of the tenant's accepted payload sequence",
    ),
];

/// The values a scrape exports for one tenant, one per
/// [`TENANT_FAMILIES`] entry.
fn exported(t: &Tenant) -> [u64; 5] {
    [
        t.accepted_events(),
        t.rejected_events(),
        t.bytes_ingested(),
        t.stats().incorrect,
        t.stream_digest(),
    ]
}

struct TenantCore {
    tenant: Tenant,
    /// Set (under this lock) when the cell was evicted; holders of stale
    /// `Arc`s must re-resolve through the registry.
    retired: bool,
}

struct TenantCell {
    gate: Gate,
    /// Last-touch stamp from the registry clock; the eviction policy
    /// picks the minimum.
    touch: AtomicU64,
    core: Mutex<TenantCore>,
}

enum Slot {
    Live(Arc<TenantCell>),
    /// Restore or eviction in flight; wait on the condvar and re-check.
    Busy,
}

struct Shared {
    cfg: ServerConfig,
    slots: Mutex<HashMap<u64, Slot>>,
    slot_changed: Condvar,
    store: Mutex<CheckpointStore>,
    draining: AtomicBool,
    clock: AtomicU64,
    counters: Counters,
    /// The exported numbers of every tenant with a record on disk, as
    /// last saved: filled from the store at startup and updated on every
    /// shed or drain, so a scrape reads no checkpoint.
    saved: Mutex<BTreeMap<u64, [u64; 5]>>,
    /// Records the startup pass could not restore.
    unreadable_records: u64,
}

/// The serving core. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

/// How many times a drain or eviction retries a failing checkpoint
/// write before giving up (each retry re-rolls the chaos die).
const SAVE_RETRIES: u32 = 10;

impl Server {
    /// Builds the serving core and opens the checkpoint directory. Every
    /// record already there is restored once, to keep the numbers its
    /// tenant exports; a record that does not restore is counted in
    /// [`CounterSnapshot::store_errors`].
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-directory creation and listing failures.
    pub fn new(mut cfg: ServerConfig) -> Result<Self, StoreError> {
        cfg.queue_depth = cfg.queue_depth.max(1);
        let store = CheckpointStore::open(&cfg.checkpoint_dir, cfg.chaos)?;
        let mut saved = BTreeMap::new();
        let mut unreadable_records = 0;
        for id in store.list()? {
            let record = store.load(id).ok().flatten();
            if let Some(t) = record.and_then(|rec| Tenant::from_record(&rec, cfg.quota).ok()) {
                saved.insert(id, exported(&t));
            } else {
                unreadable_records += 1;
            }
        }
        Ok(Server {
            shared: Arc::new(Shared {
                cfg,
                slots: Mutex::new(HashMap::new()),
                slot_changed: Condvar::new(),
                store: Mutex::new(store),
                draining: AtomicBool::new(false),
                clock: AtomicU64::new(0),
                counters: Counters::default(),
                saved: Mutex::new(saved),
                unreadable_records,
            }),
        })
    }

    /// True once drain has begun (no new events are admitted).
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Live (in-memory) tenant count.
    pub fn live_tenants(&self) -> usize {
        self.live_cells().len()
    }

    /// Every live tenant's cell, cloned out of the registry so that no
    /// tenant lock is taken under the registry lock.
    fn live_cells(&self) -> Vec<(u64, Arc<TenantCell>)> {
        let slots = self.shared.slots.lock().unwrap();
        slots
            .iter()
            .filter_map(|(id, s)| match s {
                Slot::Live(c) => Some((*id, Arc::clone(c))),
                Slot::Busy => None,
            })
            .collect()
    }

    /// Current counter values.
    pub fn counters(&self) -> CounterSnapshot {
        self.shared
            .counters
            .snapshot(self.shared.unreadable_records)
    }

    /// Stops admitting events and flushes every live tenant to the
    /// checkpoint directory. Safe to call from any thread, including a
    /// connection thread handling a `Drain` frame; a second call
    /// re-flushes (same bytes) harmlessly.
    pub fn drain(&self) -> DrainReport {
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        let mut report = DrainReport {
            flushed: 0,
            failed: 0,
        };
        for (_, cell) in self.live_cells() {
            let core = cell.core.lock().unwrap();
            if core.retired {
                continue;
            }
            if save_tenant(shared, core) {
                report.flushed += 1;
                shared
                    .counters
                    .drain_flushed
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                report.failed += 1;
            }
        }
        report
    }

    /// Renders Prometheus metrics. With `tenants_only`, the output is
    /// exactly the per-tenant families — a pure function of the streams
    /// each tenant has ingested, which is what the restart-identity
    /// check compares. Tenants on disk (evicted or drained) are included
    /// from the numbers kept when they were saved; no checkpoint is read.
    pub fn metrics_text(&self, tenants_only: bool) -> String {
        let mut per_tenant = BTreeMap::new();
        for (id, cell) in self.live_cells() {
            let core = cell.core.lock().unwrap();
            if !core.retired {
                per_tenant.insert(id, exported(&core.tenant));
            }
        }
        // A tenant found retired above had its numbers kept in `saved`
        // before its tenant lock was released (`save_tenant`).
        for (id, summary) in self.shared.saved.lock().unwrap().iter() {
            per_tenant.entry(*id).or_insert(*summary);
        }
        let mut reg = MetricsRegistry::new();
        for (id, values) in &per_tenant {
            let label = id.to_string();
            for ((name, help), value) in TENANT_FAMILIES.iter().zip(values) {
                let c = reg.counter_labeled(name, "tenant", &label, help);
                reg.set_counter(c, *value);
            }
        }
        if !tenants_only {
            let snap = self.counters();
            for (name, help, value) in snap.families() {
                let c = reg.counter(name, help);
                reg.set_counter(c, value);
            }
            let g = reg.gauge("rsc_serve_live_tenants", "Tenants resident in memory");
            reg.set_gauge(g, self.live_tenants() as f64);
            let g = reg.gauge(
                "rsc_serve_unreadable_records",
                "Checkpoint records the daemon could not restore at startup",
            );
            reg.set_gauge(g, snap.store_errors as f64);
        }
        reg.render_prometheus()
    }

    /// Applies one decoded request frame and returns the response.
    /// Exposed so tests (and in-process harnesses) can drive the server
    /// without sockets.
    pub fn respond(&self, frame: Frame) -> Frame {
        self.shared.counters.frames.fetch_add(1, Ordering::Relaxed);
        match frame {
            Frame::Ping => Frame::Pong,
            Frame::MetricsRequest { tenants_only } => Frame::MetricsText {
                text: self.metrics_text(tenants_only),
            },
            Frame::Drain => {
                let report = self.drain();
                // `Drain` acknowledges with flushed/failed counts in the
                // `Ack` numeric slots (tenant 0 is reserved).
                Frame::Ack {
                    tenant: 0,
                    accepted: report.flushed,
                    tenant_events: report.failed,
                }
            }
            Frame::Events { tenant, payload } => self.ingest_frame(tenant, &payload),
            // Response kinds arriving at the server are a protocol error.
            Frame::Ack { .. }
            | Frame::Reject { .. }
            | Frame::MetricsText { .. }
            | Frame::Pong
            | Frame::ServerError { .. } => Frame::ServerError {
                detail: "client sent a response frame".to_string(),
            },
        }
    }

    fn ingest_frame(&self, tenant: u64, payload: &[u8]) -> Frame {
        let shared = &self.shared;
        if self.draining() {
            shared
                .counters
                .rejected_frames
                .fetch_add(1, Ordering::Relaxed);
            return Frame::Reject {
                tenant,
                code: RejectCode::Draining,
                detail: "server is draining".to_string(),
            };
        }
        loop {
            let cell = match self.resolve(tenant) {
                Ok(c) => c,
                Err(detail) => {
                    shared
                        .counters
                        .rejected_frames
                        .fetch_add(1, Ordering::Relaxed);
                    return Frame::Reject {
                        tenant,
                        code: RejectCode::TenantUnavailable,
                        detail,
                    };
                }
            };
            let Some(_permit) = cell.gate.acquire_timeout(shared.cfg.backpressure_wait) else {
                shared
                    .counters
                    .rejected_frames
                    .fetch_add(1, Ordering::Relaxed);
                return Frame::Reject {
                    tenant,
                    code: RejectCode::Overloaded,
                    detail: format!(
                        "tenant ingest queue full ({} deep) for {:?}",
                        shared.cfg.queue_depth, shared.cfg.backpressure_wait
                    ),
                };
            };
            let mut core = cell.core.lock().unwrap();
            if core.retired {
                // Evicted between resolve and lock; re-resolve (which
                // restores from the checkpoint just written).
                continue;
            }
            cell.touch.store(
                shared.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            return match core.tenant.ingest(payload) {
                Ok(report) => {
                    shared
                        .counters
                        .accepted_frames
                        .fetch_add(1, Ordering::Relaxed);
                    Frame::Ack {
                        tenant,
                        accepted: report.accepted,
                        tenant_events: report.tenant_events,
                    }
                }
                Err(rej) => {
                    shared
                        .counters
                        .rejected_frames
                        .fetch_add(1, Ordering::Relaxed);
                    Frame::Reject {
                        tenant,
                        code: rej.code,
                        detail: rej.detail,
                    }
                }
            };
        }
    }

    /// Returns the live cell for a tenant, restoring it from disk or
    /// creating it fresh as needed, waiting out concurrent restores.
    fn resolve(&self, tenant: u64) -> Result<Arc<TenantCell>, String> {
        let shared = &self.shared;
        let mut slots = shared.slots.lock().unwrap();
        loop {
            match slots.get(&tenant) {
                Some(Slot::Live(c)) => return Ok(Arc::clone(c)),
                Some(Slot::Busy) => {
                    slots = shared.slot_changed.wait(slots).unwrap();
                }
                None => break,
            }
        }
        slots.insert(tenant, Slot::Busy);
        drop(slots);
        let built = self.restore_or_create(tenant);
        let mut slots = shared.slots.lock().unwrap();
        match built {
            Ok(cell) => {
                slots.insert(tenant, Slot::Live(Arc::clone(&cell)));
                shared.slot_changed.notify_all();
                drop(slots);
                self.maybe_shed(tenant);
                Ok(cell)
            }
            Err(detail) => {
                slots.remove(&tenant);
                shared.slot_changed.notify_all();
                Err(detail)
            }
        }
    }

    fn restore_or_create(&self, tenant: u64) -> Result<Arc<TenantCell>, String> {
        let shared = &self.shared;
        let record = {
            let store = shared.store.lock().unwrap();
            store.load(tenant)
        };
        let t = match record {
            Ok(Some(rec)) => {
                let t = Tenant::from_record(&rec, shared.cfg.quota)
                    .map_err(|e| format!("checkpoint for tenant {tenant} rejected: {e}"))?;
                shared.counters.restores.fetch_add(1, Ordering::Relaxed);
                t
            }
            Ok(None) => Tenant::new(tenant, shared.cfg.params, shared.cfg.quota)
                .map_err(|e| format!("tenant construction failed: {e}"))?,
            Err(e) => return Err(format!("store read for tenant {tenant} failed: {e}")),
        };
        Ok(Arc::new(TenantCell {
            gate: Gate::new(shared.cfg.queue_depth),
            touch: AtomicU64::new(shared.clock.fetch_add(1, Ordering::Relaxed)),
            core: Mutex::new(TenantCore {
                tenant: t,
                retired: false,
            }),
        }))
    }

    /// Evicts coldest tenants until the live count is back under the
    /// configured ceiling. `protect` (the tenant that just came live) is
    /// never the victim.
    fn maybe_shed(&self, protect: u64) {
        let shared = &self.shared;
        if shared.cfg.max_live_tenants == 0 {
            return;
        }
        loop {
            let victim = {
                let mut slots = shared.slots.lock().unwrap();
                let live: Vec<(u64, u64)> = slots
                    .iter()
                    .filter_map(|(id, s)| match s {
                        Slot::Live(c) if *id != protect => {
                            Some((*id, c.touch.load(Ordering::Relaxed)))
                        }
                        _ => None,
                    })
                    .collect();
                let live_total = slots
                    .values()
                    .filter(|s| matches!(s, Slot::Live(_)))
                    .count();
                if live_total <= shared.cfg.max_live_tenants {
                    return;
                }
                let Some(&(victim, _)) = live.iter().min_by_key(|(_, touch)| *touch) else {
                    return;
                };
                let Some(Slot::Live(cell)) = slots.insert(victim, Slot::Busy) else {
                    unreachable!("victim was selected from live slots under this lock");
                };
                (victim, cell)
            };
            let (victim_id, cell) = victim;
            let mut core = cell.core.lock().unwrap();
            core.retired = true;
            if save_tenant(shared, core) {
                let mut slots = shared.slots.lock().unwrap();
                slots.remove(&victim_id);
                shared.slot_changed.notify_all();
                shared.counters.shed_tenants.fetch_add(1, Ordering::Relaxed);
            } else {
                // The checkpoint never reached disk; losing the tenant
                // is worse than running over the ceiling. Un-retire.
                let mut core = cell.core.lock().unwrap();
                core.retired = false;
                drop(core);
                let mut slots = shared.slots.lock().unwrap();
                slots.insert(victim_id, Slot::Live(cell));
                shared.slot_changed.notify_all();
                shared
                    .counters
                    .shed_failures
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Accepts TCP connections until `stop` is set or drain begins, one
    /// thread per connection. Joins every connection thread before
    /// returning.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (per-connection errors only end
    /// that connection).
    pub fn serve_tcp(&self, listener: TcpListener, stop: Arc<AtomicBool>) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.accept_loop(stop, move || match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false).ok();
                Accepted::Conn(Box::new(s))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Accepted::Empty,
            Err(e) => Accepted::Fatal(e),
        })
    }

    /// Accepts Unix-socket connections until `stop` is set or drain
    /// begins. Same semantics as [`Server::serve_tcp`].
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors.
    pub fn serve_unix(&self, listener: UnixListener, stop: Arc<AtomicBool>) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.accept_loop(stop, move || match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false).ok();
                Accepted::Conn(Box::new(s))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Accepted::Empty,
            Err(e) => Accepted::Fatal(e),
        })
    }

    fn accept_loop(
        &self,
        stop: Arc<AtomicBool>,
        mut accept: impl FnMut() -> Accepted,
    ) -> io::Result<()> {
        let mut handles = Vec::new();
        let result = loop {
            if stop.load(Ordering::SeqCst) || self.draining() {
                break Ok(());
            }
            match accept() {
                Accepted::Conn(stream) => {
                    self.shared
                        .counters
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    let server = self.clone();
                    let stop = Arc::clone(&stop);
                    handles.push(std::thread::spawn(move || {
                        server.handle_conn(stream, &stop);
                    }));
                }
                Accepted::Empty => std::thread::sleep(Duration::from_millis(5)),
                Accepted::Fatal(e) => break Err(e),
            }
        };
        for h in handles {
            let _ = h.join();
        }
        result
    }

    /// Serves one connection until EOF, a torn frame, or shutdown.
    /// Public so in-process tests can drive a duplex pair directly.
    pub fn handle_conn(&self, mut stream: Box<dyn ServeStream>, stop: &AtomicBool) {
        let _ = stream.set_stream_read_timeout(Some(self.shared.cfg.io_timeout));
        loop {
            let mut counting = CountingReader {
                inner: &mut stream,
                read: 0,
            };
            match read_frame_with_limit(&mut counting, self.shared.cfg.max_frame_len) {
                Ok(frame) => {
                    let reply = self.respond(frame);
                    if write_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
                Err(FrameError::Eof) => return,
                Err(FrameError::Io(e)) if is_timeout(&e) && counting.read == 0 => {
                    // Idle at a frame boundary: keep waiting unless the
                    // process is shutting down.
                    if stop.load(Ordering::SeqCst) || self.draining() {
                        return;
                    }
                }
                Err(_) => {
                    // Torn, corrupt, oversized, or stalled mid-frame
                    // (slow-loris past its deadline): drop this
                    // connection; everyone else is unaffected.
                    self.shared
                        .counters
                        .torn_frames
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

/// Keeps the tenant's exported numbers for scrapes, then writes its
/// record, retrying a failed or corrupted write up to [`SAVE_RETRIES`]
/// times. The numbers are kept while the tenant lock is still held, so a
/// scrape that finds the tenant retired finds them too. Should the write
/// fail, the tenant stays live, and its live numbers take precedence.
fn save_tenant(shared: &Shared, core: MutexGuard<'_, TenantCore>) -> bool {
    let rec = core.tenant.to_record();
    shared
        .saved
        .lock()
        .unwrap()
        .insert(rec.tenant, exported(&core.tenant));
    drop(core);
    let mut store = shared.store.lock().unwrap();
    for _ in 0..SAVE_RETRIES {
        match store.save(&rec) {
            Ok(()) => {
                // Chaos may have corrupted the bytes on the way down;
                // trust the file only if it reads back. (With chaos off
                // this read-back is the crash-safety audit, not a tax.)
                match store.load(rec.tenant) {
                    Ok(Some(back)) if back == rec => return true,
                    _ => continue,
                }
            }
            Err(_) => continue,
        }
    }
    false
}

enum Accepted {
    Conn(Box<dyn ServeStream>),
    Empty,
    Fatal(io::Error),
}

/// The stream surface the connection loop needs; lets TCP and Unix
/// sockets (and test duplex pairs) share one code path.
pub trait ServeStream: Read + Write + Send {
    /// Applies a read timeout, where the transport supports one.
    fn set_stream_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
}

impl ServeStream for TcpStream {
    fn set_stream_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

impl ServeStream for UnixStream {
    fn set_stream_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

struct CountingReader<'a, R: Read> {
    inner: &'a mut R,
    read: u64,
}

impl<R: Read> Read for CountingReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::adversary::Scenario;
    use rsc_trace::io::write_trace;

    fn payload(events: u64, seed: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(
            &mut buf,
            Scenario::UniformRandom { branches: 32 }.generate(events, seed),
        )
        .unwrap();
        buf
    }

    fn server_in(dir: &str, tweak: impl FnOnce(&mut ServerConfig)) -> Server {
        let dir = std::env::temp_dir().join(dir);
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServerConfig::new(dir);
        tweak(&mut cfg);
        Server::new(cfg).unwrap()
    }

    #[test]
    fn events_are_acked_and_counted() {
        let srv = server_in("rsc_srv_ack", |_| {});
        let reply = srv.respond(Frame::Events {
            tenant: 7,
            payload: payload(300, 1),
        });
        assert_eq!(
            reply,
            Frame::Ack {
                tenant: 7,
                accepted: 300,
                tenant_events: 300
            }
        );
        assert_eq!(srv.counters().accepted_frames, 1);
        assert_eq!(srv.live_tenants(), 1);
        assert_eq!(srv.respond(Frame::Ping), Frame::Pong);
    }

    #[test]
    fn quota_and_payload_rejects_are_structured() {
        let srv = server_in("rsc_srv_rej", |cfg| {
            cfg.quota = QuotaConfig {
                max_events: 100,
                max_bytes: 0,
            };
        });
        let reply = srv.respond(Frame::Events {
            tenant: 1,
            payload: payload(200, 1),
        });
        assert!(
            matches!(
                reply,
                Frame::Reject {
                    tenant: 1,
                    code: RejectCode::QuotaEvents,
                    ..
                }
            ),
            "got {reply:?}"
        );
        let reply = srv.respond(Frame::Events {
            tenant: 1,
            payload: b"garbage".to_vec(),
        });
        assert!(matches!(
            reply,
            Frame::Reject {
                code: RejectCode::BadPayload,
                ..
            }
        ));
        assert_eq!(srv.counters().rejected_frames, 2);
    }

    #[test]
    fn drain_rejects_new_events_and_flushes() {
        let srv = server_in("rsc_srv_drain", |_| {});
        srv.respond(Frame::Events {
            tenant: 3,
            payload: payload(100, 2),
        });
        let reply = srv.respond(Frame::Drain);
        assert_eq!(
            reply,
            Frame::Ack {
                tenant: 0,
                accepted: 1,
                tenant_events: 0
            }
        );
        assert!(srv.draining());
        let reply = srv.respond(Frame::Events {
            tenant: 3,
            payload: payload(100, 2),
        });
        assert!(matches!(
            reply,
            Frame::Reject {
                code: RejectCode::Draining,
                ..
            }
        ));
        // The flushed record is on disk and restores bit-identically.
        let srv2 = Server::new(ServerConfig::new(
            std::env::temp_dir().join("rsc_srv_drain"),
        ))
        .unwrap();
        assert_eq!(
            srv2.metrics_text(true),
            srv.metrics_text(true),
            "exposition identity across restart"
        );
    }

    #[test]
    fn shed_evicts_coldest_and_restores_on_touch() {
        let srv = server_in("rsc_srv_shed", |cfg| {
            cfg.max_live_tenants = 2;
        });
        for tenant in [1, 2, 3] {
            srv.respond(Frame::Events {
                tenant,
                payload: payload(50, tenant),
            });
        }
        assert_eq!(srv.live_tenants(), 2);
        assert_eq!(srv.counters().shed_tenants, 1);
        // Tenant 1 was coldest; touching it restores from disk with its
        // history intact.
        let reply = srv.respond(Frame::Events {
            tenant: 1,
            payload: payload(50, 9),
        });
        assert_eq!(
            reply,
            Frame::Ack {
                tenant: 1,
                accepted: 50,
                tenant_events: 100
            }
        );
        assert_eq!(srv.counters().restores, 1);
    }

    #[test]
    fn drained_records_restore_with_per_event_stats() {
        let srv = server_in("rsc_srv_per_event", |cfg| {
            cfg.max_live_tenants = 1;
        });
        let frames = [(1, 7), (2, 8), (1, 9)];
        for (tenant, seed) in frames {
            let reply = srv.respond(Frame::Events {
                tenant,
                payload: payload(20_000, seed),
            });
            assert!(
                matches!(
                    reply,
                    Frame::Ack {
                        accepted: 20_000,
                        ..
                    }
                ),
                "{reply:?}"
            );
        }
        assert_eq!(srv.drain().failed, 0);
        let store = CheckpointStore::open(
            std::env::temp_dir().join("rsc_srv_per_event"),
            ChaosConfig::off(),
        )
        .unwrap();
        for tenant in [1, 2] {
            let mut oracle = rsc_control::ReactiveController::builder(ControllerParams::scaled())
                .build()
                .unwrap();
            for (_, seed) in frames.iter().filter(|(t, _)| *t == tenant) {
                let records = Scenario::UniformRandom { branches: 32 }.generate(20_000, *seed);
                for r in &records {
                    oracle.observe(r);
                }
            }
            let rec = store
                .load(tenant)
                .unwrap()
                .expect("drained tenant has a record");
            let back = Tenant::from_record(&rec, QuotaConfig::unlimited()).unwrap();
            assert_eq!(back.stats(), oracle.stats(), "tenant {tenant}");
        }
    }

    #[test]
    fn a_sharded_tenant_record_is_refused_not_served() {
        let dir = std::env::temp_dir().join("rsc_srv_sharded_record");
        let _ = std::fs::remove_dir_all(&dir);
        // A record left by a daemon whose tenants ran two shards.
        let mut ctl = rsc_control::ReactiveController::builder(ControllerParams::scaled())
            .shards(2)
            .build_sharded()
            .unwrap();
        ctl.observe_chunk(&Scenario::UniformRandom { branches: 32 }.generate(1_000, 3));
        CheckpointStore::open(&dir, ChaosConfig::off())
            .unwrap()
            .save(&crate::storage::TenantRecord {
                tenant: 4,
                bytes_ingested: 0,
                rejected_events: 0,
                stream_digest: 0,
                checkpoint: ctl.snapshot(),
            })
            .unwrap();
        let srv = Server::new(ServerConfig::new(&dir)).unwrap();
        let reply = srv.respond(Frame::Events {
            tenant: 4,
            payload: payload(10, 1),
        });
        assert!(
            matches!(
                &reply,
                Frame::Reject {
                    tenant: 4,
                    code: RejectCode::TenantUnavailable,
                    detail,
                } if detail.contains("sharded checkpoint")
            ),
            "got {reply:?}"
        );
        let reply = srv.respond(Frame::Events {
            tenant: 5,
            payload: payload(10, 2),
        });
        assert!(
            matches!(reply, Frame::Ack { tenant: 5, .. }),
            "got {reply:?}"
        );
    }

    #[test]
    fn metrics_cover_live_and_evicted_tenants() {
        let srv = server_in("rsc_srv_metrics", |cfg| {
            cfg.max_live_tenants = 1;
        });
        srv.respond(Frame::Events {
            tenant: 10,
            payload: payload(40, 1),
        });
        srv.respond(Frame::Events {
            tenant: 11,
            payload: payload(60, 2),
        });
        assert_eq!(srv.live_tenants(), 1);
        let text = srv.metrics_text(true);
        assert!(
            text.contains("rsc_tenant_events_total{tenant=\"10\"} 40"),
            "{text}"
        );
        assert!(
            text.contains("rsc_tenant_events_total{tenant=\"11\"} 60"),
            "{text}"
        );
        let full = srv.metrics_text(false);
        assert!(full.contains("rsc_serve_shed_tenants_total 1"), "{full}");
    }

    #[test]
    fn every_counter_is_exported_once_under_its_declared_name() {
        let srv = server_in("rsc_srv_counter_families", |cfg| {
            cfg.max_live_tenants = 1;
        });
        for tenant in [1, 2, 3] {
            srv.respond(Frame::Events {
                tenant,
                payload: payload(30, tenant),
            });
        }
        let snap = srv.counters();
        let full = srv.metrics_text(false);
        let families: Vec<_> = snap.families().collect();
        assert_eq!(families.len(), 9);
        for (name, help, value) in families {
            assert!(name.starts_with("rsc_serve_") && name.ends_with("_total"));
            let samples: Vec<_> = full
                .lines()
                .filter(|l| l.split(' ').next() == Some(name))
                .collect();
            assert_eq!(samples, [format!("{name} {value}")], "{full}");
            assert!(full.contains(&format!("# HELP {name} {help}")), "{full}");
        }
        assert!(snap.frames >= 3 && snap.shed_tenants == 2, "{snap:?}");
        assert!(full.contains("rsc_serve_unreadable_records 0"), "{full}");
    }

    #[test]
    fn an_unreadable_record_is_counted_once_not_per_scrape() {
        let dir = std::env::temp_dir().join("rsc_srv_unreadable");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tenant-4.rsvt"), b"not a tenant record").unwrap();
        let srv = Server::new(ServerConfig::new(&dir)).unwrap();
        srv.respond(Frame::Events {
            tenant: 5,
            payload: payload(10, 2),
        });
        for _ in 0..5 {
            srv.metrics_text(true);
            srv.metrics_text(false);
        }
        let c = srv.counters();
        assert_eq!(c.store_errors, 1, "counted once, not per scrape");
        let full = srv.metrics_text(false);
        assert!(full.contains("rsc_serve_unreadable_records 1"), "{full}");
        assert!(!full.contains("tenant=\"4\""), "{full}");
    }

    #[test]
    fn scrapes_read_no_checkpoint() {
        let srv = server_in("rsc_srv_scrape_no_load", |cfg| {
            cfg.max_live_tenants = 1;
        });
        for (tenant, seed) in [(1, 1), (2, 2), (3, 3)] {
            srv.respond(Frame::Events {
                tenant,
                payload: payload(500, seed),
            });
        }
        assert_eq!(srv.counters().shed_tenants, 2);
        let before = srv.metrics_text(true);
        assert!(before.contains("tenant=\"1\""), "{before}");
        // Corrupt every record after startup: a scrape that loaded one
        // would drop its tenant or count a store error.
        let dir = std::env::temp_dir().join("rsc_srv_scrape_no_load");
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(entry.unwrap().path(), b"corrupted after startup").unwrap();
        }
        assert_eq!(srv.metrics_text(true), before);
        assert_eq!(srv.counters().store_errors, 0);
    }

    #[test]
    fn backpressure_rejects_overloaded_tenant_only() {
        let srv = server_in("rsc_srv_backpressure", |cfg| {
            cfg.queue_depth = 1;
            cfg.backpressure_wait = Duration::from_millis(50);
        });
        // Create the tenant, then occupy its one permit from another
        // thread while we try to ingest.
        srv.respond(Frame::Events {
            tenant: 5,
            payload: payload(10, 1),
        });
        let cell = srv.resolve(5).unwrap();
        let permit = cell.gate.acquire();
        let reply = srv.respond(Frame::Events {
            tenant: 5,
            payload: payload(10, 2),
        });
        assert!(
            matches!(
                reply,
                Frame::Reject {
                    tenant: 5,
                    code: RejectCode::Overloaded,
                    ..
                }
            ),
            "got {reply:?}"
        );
        // A different tenant sails through while 5 is saturated.
        let reply = srv.respond(Frame::Events {
            tenant: 6,
            payload: payload(10, 3),
        });
        assert!(matches!(reply, Frame::Ack { tenant: 6, .. }));
        drop(permit);
        let reply = srv.respond(Frame::Events {
            tenant: 5,
            payload: payload(10, 4),
        });
        assert!(matches!(reply, Frame::Ack { tenant: 5, .. }));
    }
}
