//! [`ShardedController`]: a parallel controller engine that partitions
//! branches across N worker shards and merges their results
//! deterministically.
//!
//! The paper's FSM is *per-branch*: the decision for branch `b` reads
//! only `b`'s own counters and the record's instruction count, never
//! another branch's state. That makes control embarrassingly
//! partitionable — route every record for the same branch to the same
//! shard (preserving its per-branch event order) and each shard's FSM
//! evolves exactly as it would in a sequential run. The engine then
//! merges [`ControlStats`], [`ChunkSummary`], per-kind transition
//! counts, and metrics histograms with **order-independent reductions
//! only** (sums, maxes, bucket-wise adds), so every merged quantity is
//! independent of thread count and scheduling:
//!
//! * identical to a sequential [`ReactiveController`] run: chunk
//!   summaries, stats (with `instructions` as a high-water max), per-kind
//!   transition counts, per-branch snapshots, metric counters and gauges;
//! * **per-shard** semantics (documented, not merged back to global):
//!   the ordered transition log (`event_index` is a shard-local ordinal)
//!   and the interval-style histograms (misspeculation intervals and
//!   residencies are measured in shard-local event time).
//!
//! # Engine architecture: persistent pool + single-pass grouped routing
//!
//! `observe_chunk` splits the chunk into cache-sized blocks and, per
//! block, routes **once** on the caller side — a stable counting sort
//! that groups each shard's records *by branch* into an SoA layout
//! (`(branch, len)` run headers over parallel `taken`/`offs` arrays —
//! 3 scattered bytes per event, with `offs` pointing back into the
//! original block for the rare slow-path arms).
//! Each shard then consumes whole runs via
//! [`ReactiveController::observe_routed`], which keeps one branch's FSM
//! state in registers for an entire run instead of re-loading it per
//! event. Because all compared quantities are order-independent (see
//! above) and per-branch order is preserved, grouping is contractually
//! invisible. Whether it pays depends on the caller's chunk size: on a
//! 2-vCPU host, 4096-event chunks (the default chunk size) run 2 shards
//! at 0.46–0.57x the speed of 1 shard, while the 1M-event chunks of
//! `repro perf --shards 8 --events 2000000` run 2 shards at 1.2–1.5x.
//!
//! Worker threads are *persistent*: built once by the builder, each
//! owning a contiguous range of shard controllers for its whole life
//! (`WorkerPool`), fed borrowed route buffers per block and joined by a
//! completion barrier. Two route buffers alternate so the caller routes
//! block `i+1` while the workers observe block `i`:
//!
//! ```text
//!  caller:   route(b0→A) | dispatch(A), route(b1→B) | dispatch(B), route(b2→A) | …
//!  workers:               |  observe A               |  observe B               | …
//! ```
//!
//! The pool honors the global [`max_threads`] cap at build time
//! (`pool size = min(shards, cap)`); with a cap of 1 the engine runs the
//! same routing + grouped observation inline with no threads at all, so
//! results are bit-identical across every pool size by construction.
//!
//! Construction goes through the one builder:
//!
//! ```
//! use rsc_control::prelude::*;
//! use rsc_trace::{spec2000, InputId};
//!
//! let pop = spec2000::benchmark("gzip").unwrap().population(20_000);
//! let mut seq = ReactiveController::builder(ControllerParams::scaled()).build()?;
//! let mut shd = ReactiveController::builder(ControllerParams::scaled())
//!     .shards(4)
//!     .build_sharded()?;
//! let records: Vec<_> = pop.trace(InputId::Eval, 20_000, 1).collect();
//! let mut expect = ChunkSummary::default();
//! for r in &records {
//!     let d = seq.observe(r);
//!     expect.events += 1;
//!     expect.speculated += u64::from(d.speculated());
//!     expect.correct += u64::from(d == SpecDecision::Correct);
//!     expect.incorrect += u64::from(d == SpecDecision::Incorrect);
//! }
//! assert_eq!(shd.observe_chunk(&records), expect);
//! assert_eq!(shd.stats(), seq.stats());
//! # Ok::<(), InvalidParamsError>(())
//! ```

use crate::controller::{
    BranchSnapshot, ChunkSummary, ReactiveController, SpecDecision, TransitionKind,
};
use crate::observe::{ControllerMetrics, MetricsRegistry};
use crate::params::ControllerParams;
use crate::stats::ControlStats;
use rsc_trace::{BranchId, BranchRecord};
use rsc_util::parallel::WorkerPool;
use std::ops::Range;
use std::sync::Mutex;

/// Routing/observation block size. Small enough that one block's SoA
/// payload (`taken` + `offs` + run headers) stays cache-resident while
/// it is scattered and then immediately consumed; large enough to
/// amortize the per-block branch-table passes. Also the hard ceiling
/// for the router's `u16` fields: block-local offsets and per-branch
/// counts both top out at 65535.
const BLOCK: usize = u16::MAX as usize;

/// Stable shard routing: a splitmix64-style finalizer over the branch
/// index, reduced modulo the shard count. Seed-free and
/// version-independent, so checkpoints and artifacts route identically
/// across builds.
#[inline]
pub(crate) fn shard_of(branch: BranchId, shards: usize) -> usize {
    let mut x = branch.index() as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

#[inline]
fn add_summary(total: &mut ChunkSummary, s: ChunkSummary) {
    total.events += s.events;
    total.speculated += s.speculated;
    total.correct += s.correct;
    total.incorrect += s.incorrect;
}

/// One routed block in SoA layout, shard-major then branch-grouped:
/// `runs` holds `(branch_index, len)` headers; `taken` the per-event
/// outcomes and `offs` each event's index back into the original block
/// (so rare slow-path arms can re-read the full record — only 3 bytes
/// per event are scattered on the hot path). `shard_runs` / `shard_data`
/// delimit each shard's slice of the arrays, and `max_instr` carries the
/// block's instruction high-water mark (computed during counting, so
/// observation never has to re-scan `instr` values). All buffers are
/// reused across blocks — lengths (not capacities) define validity, so
/// no stale data from an earlier, larger block can leak.
#[derive(Debug, Clone, Default)]
struct RouteBuf {
    runs: Vec<(u32, u32)>,
    taken: Vec<u8>,
    offs: Vec<u16>,
    shard_runs: Vec<(u32, u32)>,
    shard_data: Vec<(u32, u32)>,
    max_instr: u64,
}

/// Reusable routing scratch: the per-branch count/cursor table, the
/// cached branch→shard map, and per-shard sizing accumulators. One
/// instance per engine; grows monotonically with the branch table.
#[derive(Debug, Clone, Default)]
struct RouteScratch {
    /// Per-branch event count, converted in place to the scatter cursor
    /// by the layout pass. One `u16` array: both roles fit because a
    /// block holds at most [`BLOCK`] = 65535 events. Always all-zero
    /// between [`route`](Self::route) calls.
    table: Vec<u16>,
    shard_cache: Vec<u32>,
    run_cursor: Vec<u32>,
    data_cursor: Vec<u32>,
}

impl RouteScratch {
    /// Ensures the table and shard cache cover branch index `b`.
    #[cold]
    fn grow(&mut self, b: usize, n: usize) {
        let old = self.shard_cache.len();
        self.shard_cache.resize(b + 1, 0);
        self.table.resize(b + 1, 0);
        for g in old..=b {
            self.shard_cache[g] = shard_of(BranchId::new(g as u32), n) as u32;
        }
    }

    /// Routes one block into `buf`: a single O(block) counting pass, two
    /// O(table) sizing/layout passes, and a single O(block) SoA scatter.
    /// Stable per branch, so per-branch event order is preserved exactly.
    ///
    /// These two per-event loops are the engine's routing overhead in
    /// its entirety, and they are instruction-bound, not bandwidth-bound
    /// — hence the unchecked indexing, with every index bounded by
    /// construction (see the inline safety notes).
    fn route(&mut self, records: &[BranchRecord], n: usize, buf: &mut RouteBuf) {
        // Hard cap, not just a debug assert: the u16 counts, cursors,
        // and offsets below all rely on it.
        assert!(records.len() <= BLOCK, "route blocks are capped at 65535");
        buf.shard_runs.clear();
        buf.shard_runs.resize(n, (0, 0));
        buf.shard_data.clear();
        buf.shard_data.resize(n, (0, 0));
        buf.runs.clear();
        buf.taken.clear();
        buf.offs.clear();
        buf.max_instr = 0;
        if records.is_empty() {
            return;
        }
        // Counting pass; the instruction high-water mark falls out for
        // free, so the observe side never reads `instr` on its hot path.
        let mut max_instr = 0u64;
        for r in records {
            let b = r.branch.index();
            max_instr = max_instr.max(r.instr);
            if b >= self.table.len() {
                self.grow(b, n);
            }
            // SAFETY: `grow` above guarantees `b < table.len()`; counts
            // cannot overflow u16 because the block holds ≤ 65535 events.
            unsafe { *self.table.get_unchecked_mut(b) += 1 };
        }
        buf.max_instr = max_instr;
        // Sizing pass over the whole table (bounded by the branch-index
        // high-water mark across the engine's lifetime; entries outside
        // this block are zero and skipped).
        self.run_cursor.clear();
        self.run_cursor.resize(n, 0);
        self.data_cursor.clear();
        self.data_cursor.resize(n, 0);
        for b in 0..self.table.len() {
            let c = self.table[b];
            if c > 0 {
                let k = self.shard_cache[b] as usize;
                self.run_cursor[k] += 1;
                self.data_cursor[k] += u32::from(c);
            }
        }
        let mut runs_total = 0u32;
        let mut data_total = 0u32;
        for k in 0..n {
            let rc = self.run_cursor[k];
            let dc = self.data_cursor[k];
            buf.shard_runs[k] = (runs_total, runs_total + rc);
            buf.shard_data[k] = (data_total, data_total + dc);
            self.run_cursor[k] = runs_total;
            self.data_cursor[k] = data_total;
            runs_total += rc;
            data_total += dc;
        }
        buf.runs.resize(runs_total as usize, (0, 0));
        buf.taken.resize(data_total as usize, 0);
        buf.offs.resize(data_total as usize, 0);
        // Layout: run headers in (shard, ascending branch) order — so
        // each shard walks its branch table sequentially — while the
        // count table becomes the scatter cursor in place.
        for b in 0..self.table.len() {
            let c = self.table[b];
            if c > 0 {
                let k = self.shard_cache[b] as usize;
                buf.runs[self.run_cursor[k] as usize] = (b as u32, u32::from(c));
                self.run_cursor[k] += 1;
                self.table[b] = self.data_cursor[k] as u16;
                self.data_cursor[k] += u32::from(c);
            }
        }
        // The hot pass: one stable scatter of 3 bytes per event.
        for (j, r) in records.iter().enumerate() {
            let b = r.branch.index();
            // SAFETY: `b < table.len()` (counting pass grew the table);
            // each branch's cursor starts at its run's data offset and is
            // incremented once per event of that branch, so it stays
            // below `data_total`, the exact length of `taken`/`offs`.
            unsafe {
                let c = self.table.get_unchecked_mut(b);
                let pos = usize::from(*c);
                *c += 1;
                *buf.taken.get_unchecked_mut(pos) = u8::from(r.taken);
                *buf.offs.get_unchecked_mut(pos) = j as u16;
            }
        }
        // Restore the all-zero invariant for the next block. A plain
        // memset of the whole table: ~16 KiB per 64 Ki events.
        self.table.fill(0);
    }
}

/// Observes one routed buffer's slice for worker `w` (owning the shard
/// range `shards`), returning the summed summary over those shards.
fn observe_buf(
    ctls: &mut [ReactiveController],
    shards: Range<usize>,
    records: &[BranchRecord],
    buf: &RouteBuf,
) -> ChunkSummary {
    let mut sum = ChunkSummary::default();
    for (slot, k) in shards.enumerate() {
        let (rs, re) = buf.shard_runs[k];
        let (ds, de) = buf.shard_data[k];
        let s = ctls[slot].observe_routed(
            &buf.runs[rs as usize..re as usize],
            &buf.taken[ds as usize..de as usize],
            &buf.offs[ds as usize..de as usize],
            records,
            buf.max_instr,
        );
        add_summary(&mut sum, s);
    }
    sum
}

/// The execution engine behind a [`ShardedController`].
enum Engine {
    /// No threads: every shard lives on the caller and observes routed
    /// blocks inline. Used for one shard, a thread cap of 1, or as the
    /// fallback when worker threads cannot be spawned.
    Inline { slots: Vec<ReactiveController> },
    /// Persistent worker pool: each worker owns a contiguous range of
    /// shard controllers for its whole life. The `Mutex` only serializes
    /// `&self` queries; `observe_chunk` goes through `get_mut`.
    Pooled {
        pool: Mutex<WorkerPool<Vec<ReactiveController>>>,
        /// Worker → contiguous shard range.
        assign: Vec<Range<usize>>,
        /// Shard → (worker, slot within the worker's range).
        shard_worker: Vec<(u32, u32)>,
    },
}

/// A parallel controller: N independent [`ReactiveController`] shards,
/// branches partitioned by a stable hash of [`BranchId`], results merged
/// with order-independent reductions.
///
/// Built via [`ControllerBuilder::build_sharded`](crate::ControllerBuilder::build_sharded);
/// see the [module docs](self) for the engine architecture and exactly
/// which quantities are bit-identical to a sequential run and which are
/// per-shard.
pub struct ShardedController {
    n: usize,
    params: ControllerParams,
    engine: Engine,
    scratch: RouteScratch,
    buf_a: RouteBuf,
    buf_b: RouteBuf,
}

impl ShardedController {
    /// Assembles the engine from already-built shard controllers (empty
    /// from the builder, or carrying state from a checkpoint restore).
    /// The builder guarantees they share parameters and telemetry shape.
    ///
    /// `thread_cap` bounds the worker pool: `pool size = min(shards,
    /// thread_cap)`. A cap of ≤ 1 (or one shard, where the single shard
    /// *is* the sequential controller) selects the inline engine; so
    /// does a failed thread spawn — the states are recovered and run on
    /// the caller, keeping results identical.
    pub(crate) fn from_parts(ctls: Vec<ReactiveController>, thread_cap: usize) -> Self {
        assert!(!ctls.is_empty(), "builder rejects zero shards");
        let n = ctls.len();
        let params = *ctls[0].params();
        let pool_size = thread_cap.min(n);
        let engine = if pool_size <= 1 {
            Engine::Inline { slots: ctls }
        } else {
            let assign: Vec<Range<usize>> = (0..pool_size)
                .map(|w| (w * n / pool_size)..((w + 1) * n / pool_size))
                .collect();
            let mut shard_worker = vec![(0u32, 0u32); n];
            for (w, r) in assign.iter().enumerate() {
                for (slot, k) in r.clone().enumerate() {
                    shard_worker[k] = (w as u32, slot as u32);
                }
            }
            let mut states: Vec<Vec<ReactiveController>> =
                assign.iter().map(|r| Vec::with_capacity(r.len())).collect();
            let mut it = ctls.into_iter();
            for (w, r) in assign.iter().enumerate() {
                states[w].extend(it.by_ref().take(r.len()));
            }
            match WorkerPool::new(states, "rsc-shard") {
                Ok(pool) => Engine::Pooled {
                    pool: Mutex::new(pool),
                    assign,
                    shard_worker,
                },
                Err((_, states)) => Engine::Inline {
                    slots: states.into_iter().flatten().collect(),
                },
            }
        };
        ShardedController {
            n,
            params,
            engine,
            scratch: RouteScratch::default(),
            buf_a: RouteBuf::default(),
            buf_b: RouteBuf::default(),
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.n
    }

    /// Number of OS threads backing the engine: the worker-pool size, or
    /// 1 for the inline engine.
    pub fn pool_threads(&self) -> usize {
        match &self.engine {
            Engine::Inline { .. } => 1,
            Engine::Pooled { pool, .. } => pool.lock().expect("pool lock").len(),
        }
    }

    /// The shard that owns `branch` under this engine's routing.
    pub fn shard_for(&self, branch: BranchId) -> usize {
        shard_of(branch, self.n)
    }

    /// The shared controller parameters.
    pub fn params(&self) -> &ControllerParams {
        &self.params
    }

    /// Runs `f` over every shard controller in shard order and collects
    /// the results (dispatched to the owning workers under the pooled
    /// engine).
    pub(crate) fn map_shards<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &ReactiveController) -> R + Sync,
    {
        match &self.engine {
            Engine::Inline { slots } => slots.iter().enumerate().map(|(k, c)| f(k, c)).collect(),
            Engine::Pooled { pool, assign, .. } => {
                let mut pool = pool.lock().expect("pool lock");
                let per_worker: Vec<Vec<R>> = pool.map(|w, ctls| {
                    assign[w]
                        .clone()
                        .zip(ctls.iter())
                        .map(|(k, c)| f(k, c))
                        .collect()
                });
                per_worker.into_iter().flatten().collect()
            }
        }
    }

    /// Runs `f` against one shard's controller on its owning worker.
    fn with_shard<R, F>(&self, k: usize, f: F) -> R
    where
        R: Send,
        F: FnOnce(&ReactiveController) -> R + Send,
    {
        match &self.engine {
            Engine::Inline { slots } => f(&slots[k]),
            Engine::Pooled {
                pool, shard_worker, ..
            } => {
                let (w, slot) = shard_worker[k];
                pool.lock()
                    .expect("pool lock")
                    .call(w as usize, move |_, ctls| f(&ctls[slot as usize]))
            }
        }
    }

    /// Mutable counterpart of [`with_shard`](Self::with_shard).
    fn with_shard_mut<R, F>(&mut self, k: usize, f: F) -> R
    where
        R: Send,
        F: FnOnce(&mut ReactiveController) -> R + Send,
    {
        match &mut self.engine {
            Engine::Inline { slots } => f(&mut slots[k]),
            Engine::Pooled {
                pool, shard_worker, ..
            } => {
                let (w, slot) = shard_worker[k];
                pool.get_mut()
                    .expect("pool lock")
                    .call(w as usize, move |_, ctls| f(&mut ctls[slot as usize]))
            }
        }
    }

    /// Observes one event, routed to the owning shard.
    pub fn observe(&mut self, r: &BranchRecord) -> SpecDecision {
        let k = shard_of(r.branch, self.n);
        self.with_shard_mut(k, |ctl| ctl.observe(r))
    }

    /// Observes a chunk of events: routes each block of the chunk to its
    /// owning shards in one stable branch-grouping pass, observes the
    /// routed blocks (in parallel under the pooled engine, with routing
    /// of the next block overlapping observation of the current one),
    /// and returns the summed [`ChunkSummary`].
    ///
    /// The summary is bit-identical to a sequential controller's over
    /// the same chunk regardless of shard count, thread count, or
    /// scheduling: each shard's summary depends only on its own records
    /// (in preserved per-branch order), and the merge is a sum.
    pub fn observe_chunk(&mut self, records: &[BranchRecord]) -> ChunkSummary {
        let n = self.n;
        if n == 1 {
            // The single shard *is* a sequential controller; keep its
            // exact semantics (including the ordered transition log) and
            // an honest 1-shard baseline for scaling comparisons.
            return match &mut self.engine {
                Engine::Inline { slots } => slots[0].observe_chunk(records),
                Engine::Pooled { .. } => unreachable!("one shard always runs inline"),
            };
        }
        match &mut self.engine {
            Engine::Inline { slots } => {
                let mut total = ChunkSummary::default();
                for block in records.chunks(BLOCK) {
                    self.scratch.route(block, n, &mut self.buf_a);
                    add_summary(&mut total, observe_buf(slots, 0..n, block, &self.buf_a));
                }
                total
            }
            Engine::Pooled { pool, assign, .. } => {
                if records.is_empty() {
                    return ChunkSummary::default();
                }
                let pool = pool.get_mut().expect("pool lock");
                let scratch = &mut self.scratch;
                let blocks: Vec<&[BranchRecord]> = records.chunks(BLOCK).collect();
                let out: Vec<Mutex<ChunkSummary>> = (0..pool.len())
                    .map(|_| Mutex::new(ChunkSummary::default()))
                    .collect();
                let mut cur = &mut self.buf_a;
                let mut next = &mut self.buf_b;
                scratch.route(blocks[0], n, cur);
                for i in 1..=blocks.len() {
                    let cur_ref: &RouteBuf = cur;
                    let cur_blk: &[BranchRecord] = blocks[i - 1];
                    let assign_ref: &[Range<usize>] = assign;
                    let out_ref = &out;
                    pool.run_with(
                        |w, ctls| {
                            let sum = observe_buf(ctls, assign_ref[w].clone(), cur_blk, cur_ref);
                            let mut slot = out_ref[w].lock().expect("summary slot");
                            add_summary(&mut slot, sum);
                        },
                        || {
                            if i < blocks.len() {
                                scratch.route(blocks[i], n, next);
                            }
                        },
                    );
                    std::mem::swap(&mut cur, &mut next);
                }
                let mut total = ChunkSummary::default();
                for m in out {
                    add_summary(&mut total, m.into_inner().expect("summary slot"));
                }
                total
            }
        }
    }

    /// Merged aggregate statistics: every field is a sum over shards
    /// except `instructions`, which is a high-water mark of the dynamic
    /// instruction counter and therefore merges as a max.
    pub fn stats(&self) -> ControlStats {
        let mut total = ControlStats::default();
        for s in self.map_shards(|_, ctl| ctl.stats()) {
            total.events += s.events;
            total.instructions = total.instructions.max(s.instructions);
            total.correct += s.correct;
            total.incorrect += s.incorrect;
            total.touched += s.touched;
            total.entered_biased += s.entered_biased;
            total.evicted_branches += s.evicted_branches;
            total.total_evictions += s.total_evictions;
            total.total_entries += s.total_entries;
            total.disabled_branches += s.disabled_branches;
            total.reopt_requests += s.reopt_requests;
            total.deploy_failures += s.deploy_failures;
            total.deploy_retries += s.deploy_retries;
            total.forced_disables += s.forced_disables;
            total.suppressed_enters += s.suppressed_enters;
        }
        total
    }

    /// Exact transition count of `kind`, summed across shards (counts
    /// stay exact under every log policy).
    pub fn transition_count(&self, kind: TransitionKind) -> u64 {
        self.map_shards(|_, ctl| ctl.transition_log().count(kind))
            .into_iter()
            .sum()
    }

    /// Times `branch` entered the biased state (from its owning shard).
    pub fn entries(&self, branch: BranchId) -> u32 {
        self.with_shard(self.shard_for(branch), |ctl| ctl.entries(branch))
    }

    /// Times `branch` was evicted from the biased state.
    pub fn evictions(&self, branch: BranchId) -> u32 {
        self.with_shard(self.shard_for(branch), |ctl| ctl.evictions(branch))
    }

    /// Whether `branch` is currently speculated.
    pub fn is_speculating(&self, branch: BranchId) -> bool {
        self.with_shard(self.shard_for(branch), |ctl| ctl.is_speculating(branch))
    }

    /// Whether `branch` has been permanently disabled.
    pub fn is_disabled(&self, branch: BranchId) -> bool {
        self.with_shard(self.shard_for(branch), |ctl| ctl.is_disabled(branch))
    }

    /// Externally comparable snapshot of `branch`'s FSM state, identical
    /// to the sequential controller's for every branch.
    pub fn branch_snapshot(&self, branch: BranchId) -> BranchSnapshot {
        self.with_shard(self.shard_for(branch), |ctl| ctl.branch_snapshot(branch))
    }

    /// One shard's own metrics registry (shard-local view), or `None`
    /// without metrics or for an out-of-range index.
    pub fn shard_metrics(&self, shard: usize) -> Option<MetricsRegistry> {
        if shard >= self.n {
            return None;
        }
        self.with_shard(shard, |ctl| ctl.metrics())
    }

    /// The merged metrics registry, or `None` unless the engine was
    /// built with [`metrics`](crate::ControllerBuilder::metrics).
    ///
    /// Counters and gauges carry the same schema and the same values a
    /// sequential controller would report for the same input. Histograms
    /// are merged bucket-wise across shards, so their totals are exact
    /// but interval-style observations are measured in shard-local event
    /// time (see the [module docs](self)). Per-shard counter families
    /// (`rsc_shard_*_total{shard="k"}`) are appended after the standard
    /// schema.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        // One trip through the shards gathers everything the merge needs.
        let views: Vec<(Option<ControllerMetrics>, ControlStats, Vec<u64>)> =
            self.map_shards(|_, ctl| {
                (
                    ctl.telemetry.as_ref().and_then(|t| t.metrics.clone()),
                    ctl.stats(),
                    TransitionKind::ALL
                        .iter()
                        .map(|&kind| ctl.transition_log().count(kind))
                        .collect(),
                )
            });
        let first = views[0].0.as_ref()?;
        let bounds = first.interval_bounds().to_vec();
        let cm = ControllerMetrics::with_interval_bounds(&bounds)
            .expect("bounds were validated at build time");
        let mut reg = cm.registry.clone();
        let ids = &cm.ids;
        for (scm, _, _) in &views {
            let scm = scm.as_ref()?;
            for (agg, shard) in cm
                .histograms_in_order()
                .iter()
                .zip(scm.histograms_in_order())
            {
                reg.histogram_mut(*agg)
                    .merge_from(scm.registry.histogram_ref(shard));
            }
        }
        let s = self.stats();
        reg.set_counter(ids.events, s.events);
        reg.set_counter(ids.instructions, s.instructions);
        reg.set_counter(ids.correct, s.correct);
        reg.set_counter(ids.incorrect, s.incorrect);
        for kind in TransitionKind::ALL {
            let total: u64 = views.iter().map(|(_, _, c)| c[kind.index()]).sum();
            reg.set_counter(ids.transitions[kind.index()], total);
        }
        // Sharding rejects the resilience layer, so deployment is
        // implicit: one deployment per re-optimization request.
        reg.set_counter(ids.deploy_requests, s.reopt_requests);
        reg.set_counter(ids.deploy_failures, s.deploy_failures);
        reg.set_counter(ids.deploy_retries, s.deploy_retries);
        reg.set_counter(ids.forced_disables, s.forced_disables);
        reg.set_counter(ids.suppressed_enters, s.suppressed_enters);
        reg.set_gauge(ids.branches_tracked, s.touched as f64);
        reg.set_gauge(ids.branches_disabled, s.disabled_branches as f64);
        for (k, (_, ss, counts)) in views.iter().enumerate() {
            let label = k.to_string();
            let id = reg.counter_labeled(
                "rsc_shard_events_total",
                "shard",
                &label,
                "dynamic branch events observed, per shard",
            );
            reg.set_counter(id, ss.events);
            let id = reg.counter_labeled(
                "rsc_shard_spec_incorrect_total",
                "shard",
                &label,
                "misspeculations, per shard",
            );
            reg.set_counter(id, ss.incorrect);
            let id = reg.counter_labeled(
                "rsc_shard_transitions_total",
                "shard",
                &label,
                "classification transitions of every kind, per shard",
            );
            reg.set_counter(id, counts.iter().sum());
        }
        Some(reg)
    }
}

impl Clone for ShardedController {
    /// Clones the full engine state: every shard controller is copied
    /// out of its worker and a fresh pool (same size) is spun up for the
    /// clone.
    fn clone(&self) -> Self {
        let ctls = self.map_shards(|_, ctl| ctl.clone());
        ShardedController::from_parts(ctls, self.pool_threads())
    }
}

impl std::fmt::Debug for ShardedController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedController")
            .field("shards", &self.n)
            .field(
                "engine",
                &match &self.engine {
                    Engine::Inline { .. } => "inline",
                    Engine::Pooled { .. } => "pooled",
                },
            )
            .field("pool_threads", &self.pool_threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EvictionMode;
    use crate::translog::TransitionLogPolicy;
    use crate::ReactiveController;

    fn tiny() -> ControllerParams {
        let mut p = ControllerParams::scaled()
            .with_monitor_period(10)
            .with_latency(0);
        p.eviction = EvictionMode::Counter {
            up: 50,
            down: 1,
            threshold: 100,
        };
        p.revisit = crate::params::Revisit::After(20);
        p
    }

    fn oscillating(branches: u32, flip: u64, events: u64) -> Vec<BranchRecord> {
        let mut out = Vec::with_capacity(events as usize);
        let mut execs = vec![0u64; branches as usize];
        for i in 0..events {
            let b = (i % u64::from(branches)) as usize;
            let n = execs[b];
            execs[b] += 1;
            out.push(BranchRecord {
                branch: BranchId::new(b as u32),
                taken: (n / flip).is_multiple_of(2),
                instr: 3 * i + 1,
            });
        }
        out
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for n in 1..=8 {
            for b in 0..1000u32 {
                let k = shard_of(BranchId::new(b), n);
                assert!(k < n);
                assert_eq!(k, shard_of(BranchId::new(b), n));
            }
        }
        // The hash actually spreads consecutive indices around.
        let hits: std::collections::BTreeSet<usize> =
            (0..64u32).map(|b| shard_of(BranchId::new(b), 8)).collect();
        assert!(hits.len() > 1, "all branches landed on one shard");
    }

    #[test]
    fn sharded_matches_sequential_across_shard_counts() {
        let trace = oscillating(7, 9, 6_000);
        let mut seq = ReactiveController::builder(tiny()).build().unwrap();
        let mut seq_total = ChunkSummary::default();
        for window in trace.chunks(257) {
            let s = seq.observe_chunk(window);
            seq_total.events += s.events;
            seq_total.speculated += s.speculated;
            seq_total.correct += s.correct;
            seq_total.incorrect += s.incorrect;
        }
        for n in 1..=8 {
            let mut shd = ReactiveController::builder(tiny())
                .shards(n)
                .build_sharded()
                .unwrap();
            let mut total = ChunkSummary::default();
            for window in trace.chunks(257) {
                let s = shd.observe_chunk(window);
                total.events += s.events;
                total.speculated += s.speculated;
                total.correct += s.correct;
                total.incorrect += s.incorrect;
            }
            assert_eq!(total, seq_total, "{n} shards: summed summaries");
            assert_eq!(shd.stats(), seq.stats(), "{n} shards: stats");
            for kind in TransitionKind::ALL {
                assert_eq!(
                    shd.transition_count(kind),
                    seq.transition_log().count(kind),
                    "{n} shards: {kind:?}"
                );
            }
            for b in 0..7u32 {
                let id = BranchId::new(b);
                assert_eq!(
                    shd.branch_snapshot(id),
                    seq.branch_snapshot(id),
                    "{n} shards: branch {b}"
                );
            }
        }
    }

    #[test]
    fn per_event_and_chunked_sharded_agree() {
        let trace = oscillating(5, 7, 3_000);
        let mut by_event = ReactiveController::builder(tiny())
            .shards(3)
            .build_sharded()
            .unwrap();
        let mut by_chunk = ReactiveController::builder(tiny())
            .shards(3)
            .build_sharded()
            .unwrap();
        for r in &trace {
            by_event.observe(r);
        }
        by_chunk.observe_chunk(&trace);
        assert_eq!(by_event.stats(), by_chunk.stats());
    }

    #[test]
    fn one_thread_fast_path_matches_parallel_path() {
        let trace = oscillating(9, 11, 8_000);
        let run = |cap: usize| {
            rsc_util::parallel::set_max_threads(cap);
            let mut ctl = ReactiveController::builder(tiny())
                .shards(5)
                .build_sharded()
                .unwrap();
            rsc_util::parallel::set_max_threads(0);
            let mut summaries = Vec::new();
            for chunk in trace.chunks(313) {
                summaries.push(ctl.observe_chunk(chunk));
            }
            let snapshots: Vec<BranchSnapshot> = (0..9)
                .map(|b| ctl.branch_snapshot(BranchId::new(b)))
                .collect();
            (summaries, ctl.stats(), snapshots)
        };
        let capped = run(1);
        let pooled = run(4);
        assert_eq!(capped, pooled);
    }

    #[test]
    fn pool_size_honors_thread_cap_and_shard_count() {
        let build = |cap: usize, shards: usize| {
            rsc_util::parallel::set_max_threads(cap);
            let ctl = ReactiveController::builder(tiny())
                .shards(shards)
                .build_sharded()
                .unwrap();
            rsc_util::parallel::set_max_threads(0);
            ctl.pool_threads()
        };
        assert_eq!(build(1, 6), 1, "cap 1 → inline engine");
        assert_eq!(build(4, 6), 4, "pool = cap when cap < shards");
        assert_eq!(build(16, 6), 6, "pool = shards when cap > shards");
        assert_eq!(build(16, 1), 1, "one shard always runs inline");
    }

    #[test]
    fn spawn_failure_falls_back_to_inline_with_identical_results() {
        let trace = oscillating(11, 9, 8_000);

        // Reference: a normal pooled build over the same trace.
        let mut pooled = ReactiveController::builder(tiny())
            .shards(4)
            .pool_threads(4)
            .log_policy(TransitionLogPolicy::CountsOnly)
            .build_sharded()
            .unwrap();
        assert_eq!(pooled.pool_threads(), 4);

        // Same build, but the very first worker spawn fails: from_parts
        // must recover every shard state and run the inline engine.
        rsc_util::parallel::fail_nth_spawn(1);
        let mut fallback = ReactiveController::builder(tiny())
            .shards(4)
            .pool_threads(4)
            .log_policy(TransitionLogPolicy::CountsOnly)
            .build_sharded()
            .unwrap();
        assert_eq!(fallback.pool_threads(), 1, "fallback engine is inline");
        assert_eq!(fallback.shard_count(), 4, "all shards recovered");

        for window in trace.chunks(257) {
            let a = pooled.observe_chunk(window);
            let b = fallback.observe_chunk(window);
            assert_eq!(a, b, "chunk summaries are bit-identical");
        }
        assert_eq!(pooled.stats(), fallback.stats());
        for b in 0..11u32 {
            let id = BranchId::new(b);
            assert_eq!(pooled.branch_snapshot(id), fallback.branch_snapshot(id));
        }
    }

    #[test]
    fn mid_way_spawn_failure_recovers_every_shard() {
        // Fail the *second* spawn: worker 0 is already live and must be
        // joined, its states reclaimed, and the remainder drained.
        rsc_util::parallel::fail_nth_spawn(2);
        let ctl = ReactiveController::builder(tiny())
            .shards(6)
            .pool_threads(3)
            .build_sharded()
            .unwrap();
        assert_eq!(ctl.pool_threads(), 1);
        assert_eq!(ctl.shard_count(), 6);
    }

    #[test]
    fn builder_pool_threads_overrides_global_cap() {
        rsc_util::parallel::set_max_threads(1);
        let ctl = ReactiveController::builder(tiny())
            .shards(6)
            .pool_threads(3)
            .build_sharded()
            .unwrap();
        rsc_util::parallel::set_max_threads(0);
        assert_eq!(ctl.pool_threads(), 3);
    }

    #[test]
    fn routing_buffers_survive_wildly_different_chunk_sizes() {
        // Same trace, radically different chunk layouts — including an
        // empty chunk, a 1-event chunk, and a chunk larger than any
        // buffer seen before — must leave no stale routing data behind.
        let trace = oscillating(23, 11, 60_000);
        let mut seq = ReactiveController::builder(tiny()).build().unwrap();
        for r in &trace {
            seq.observe(r);
        }
        for cap in [1usize, 4] {
            rsc_util::parallel::set_max_threads(cap);
            let mut shd = ReactiveController::builder(tiny())
                .shards(4)
                .build_sharded()
                .unwrap();
            rsc_util::parallel::set_max_threads(0);
            let mut start = 0usize;
            let mut total = ChunkSummary::default();
            // 4096-event warmup, empty, 1 event, then one chunk far
            // larger than anything routed so far (spanning many blocks),
            // then the tail.
            for len in [4096usize, 0, 1, 50_000, usize::MAX] {
                let end = start.saturating_add(len).min(trace.len());
                let s = shd.observe_chunk(&trace[start..end]);
                assert_eq!(s.events, (end - start) as u64, "cap {cap}: chunk events");
                add_summary(&mut total, s);
                start = end;
            }
            assert_eq!(start, trace.len(), "layout covers the whole trace");
            assert_eq!(shd.stats(), seq.stats(), "cap {cap}: stats");
            assert_eq!(total.correct, seq.stats().correct, "cap {cap}: correct");
            assert_eq!(
                total.incorrect,
                seq.stats().incorrect,
                "cap {cap}: incorrect"
            );
            for b in 0..23u32 {
                let id = BranchId::new(b);
                assert_eq!(
                    shd.branch_snapshot(id),
                    seq.branch_snapshot(id),
                    "cap {cap}: branch {b}"
                );
            }
        }
    }

    #[test]
    fn pooled_engine_clones_and_drops_cleanly() {
        let trace = oscillating(9, 7, 5_000);
        rsc_util::parallel::set_max_threads(4);
        let mut a = ReactiveController::builder(tiny())
            .shards(4)
            .build_sharded()
            .unwrap();
        rsc_util::parallel::set_max_threads(0);
        a.observe_chunk(&trace[..2_500]);
        let mut b = a.clone();
        assert_eq!(b.pool_threads(), a.pool_threads());
        a.observe_chunk(&trace[2_500..]);
        b.observe_chunk(&trace[2_500..]);
        assert_eq!(a.stats(), b.stats(), "clone diverges from original");
        drop(a);
        drop(b); // both pools join cleanly; a hang here fails the test
    }

    #[test]
    fn merged_metrics_counters_match_sequential() {
        let trace = oscillating(6, 8, 4_000);
        let mut seq = ReactiveController::builder(tiny())
            .metrics()
            .build()
            .unwrap();
        let mut shd = ReactiveController::builder(tiny())
            .shards(4)
            .metrics()
            .build_sharded()
            .unwrap();
        seq.observe_chunk(&trace);
        shd.observe_chunk(&trace);
        let sreg = seq.metrics().unwrap();
        let mreg = shd.metrics().unwrap();
        for name in [
            "rsc_events_total",
            "rsc_instructions_total",
            "rsc_spec_correct_total",
            "rsc_spec_incorrect_total",
            "rsc_deploy_requests_total",
        ] {
            assert_eq!(mreg.counter_value(name), sreg.counter_value(name), "{name}");
        }
        for kind in TransitionKind::ALL {
            assert_eq!(
                mreg.counter_value_labeled("rsc_transitions_total", Some(("kind", kind.name()))),
                sreg.counter_value_labeled("rsc_transitions_total", Some(("kind", kind.name()))),
                "{kind:?}"
            );
        }
        assert_eq!(
            mreg.gauge_value("rsc_branches_tracked"),
            sreg.gauge_value("rsc_branches_tracked")
        );
        // Histogram totals are exact even though intervals are shard-local.
        let sh = sreg.histogram_value("rsc_misspec_interval_events").unwrap();
        let mh = mreg.histogram_value("rsc_misspec_interval_events").unwrap();
        assert_eq!(mh.count(), sh.count(), "every misspeculation is counted");
        // Per-shard families sum to the aggregate.
        let per_shard: u64 = (0..4)
            .map(|k| {
                mreg.counter_value_labeled(
                    "rsc_shard_events_total",
                    Some(("shard", k.to_string().as_str())),
                )
                .unwrap()
            })
            .sum();
        assert_eq!(Some(per_shard), mreg.counter_value("rsc_events_total"));
        // A shard's own registry is the standard schema.
        let one = shd.shard_metrics(0).unwrap();
        assert!(one.counter_value("rsc_events_total").is_some());
        assert!(shd.shard_metrics(99).is_none());
    }

    #[test]
    fn builder_rejects_incompatible_configs() {
        let err = ReactiveController::builder(tiny())
            .shards(4)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), Some("shards"));
        let err = ReactiveController::builder(tiny())
            .shards(0)
            .build_sharded()
            .unwrap_err();
        assert_eq!(err.field(), Some("shards"));
        let err = ReactiveController::builder(tiny())
            .resilience(crate::resilience::ResilienceConfig::reliable())
            .shards(2)
            .build_sharded()
            .unwrap_err();
        assert_eq!(err.field(), Some("shards"));
        let err = ReactiveController::builder(tiny())
            .event_sink(std::sync::Arc::new(crate::observe::VecSink::new()))
            .shards(2)
            .build_sharded()
            .unwrap_err();
        assert_eq!(err.field(), Some("shards"));
    }

    #[test]
    fn log_policy_propagates_to_every_shard() {
        let trace = oscillating(4, 50, 2_000);
        let mut shd = ReactiveController::builder(tiny())
            .shards(2)
            .log_policy(TransitionLogPolicy::CountsOnly)
            .build_sharded()
            .unwrap();
        shd.observe_chunk(&trace);
        assert!(shd.transition_count(TransitionKind::EnterBiased) > 0);
        let empties = shd.map_shards(|_, ctl| ctl.transitions().is_empty());
        assert!(
            empties.into_iter().all(|e| e),
            "CountsOnly stores no events"
        );
    }
}
