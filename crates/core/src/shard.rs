//! [`ShardedController`]: a controller engine that partitions branches
//! across N shards, each a plain sequential [`ReactiveController`], and
//! merges their results deterministically.
//!
//! The paper's FSM is *per-branch*: the decision for branch `b` reads
//! only `b`'s own counters and the record's instruction count, never
//! another branch's state. That makes control embarrassingly
//! partitionable — route every record for the same branch to the same
//! shard (preserving arrival order) and each shard's FSM evolves exactly
//! as it would in a sequential run. The engine then merges
//! [`ControlStats`], [`ChunkSummary`], per-kind transition counts, and
//! metrics histograms with **order-independent reductions only** (sums,
//! maxes, bucket-wise adds), so every merged quantity is independent of
//! thread count and scheduling:
//!
//! * identical to a sequential [`ReactiveController`] run over the whole
//!   trace: chunk summaries, stats (with `instructions` as a high-water
//!   max), per-kind transition counts, per-branch snapshots, metric
//!   counters and gauges;
//! * identical to a sequential run over the shard's **projection** of the
//!   trace — the records whose branch the shard owns, in arrival order:
//!   each shard's own stats (`instructions` included), ordered transition
//!   log, histograms and checkpoint body. The ordered log (`event_index`
//!   is a shard-local ordinal) and the interval-style histograms
//!   (misspeculation intervals and residencies in shard-local event time)
//!   are therefore per-shard, not merged back to global form.
//!
//! # Execution: scatter, then one sequential controller per shard
//!
//! `observe_chunk` scatters the chunk once on the caller, in arrival
//! order, into one reusable record buffer per shard (a cached
//! branch → shard table makes that one load and one push per event).
//! Each shard then runs its own [`ReactiveController::observe_chunk`]
//! over its buffer — the same path a 1-shard run takes, and nothing
//! else. A single shard skips the scatter: it *is* the sequential
//! controller.
//!
//! The shards run inline on the caller by default. Only a chunk with at
//! least [`MIN_EVENTS_PER_THREAD`] events per thread fans out, to scoped
//! threads over contiguous shard ranges, with the caller running the
//! first range itself ([`fan_out`]). The thread count is at most
//! `min(shards, cap)`, where the cap is
//! [`pool_threads`](crate::ControllerBuilder::pool_threads) or, by
//! default, the global [`max_threads`](rsc_util::parallel::max_threads).
//! The engine owns no threads: building, cloning or restoring one spawns
//! nothing, and a range whose thread fails to spawn runs on the caller.
//! Since every shard sees the same records in the same order whichever
//! thread runs it, results are bit-identical across thread counts.
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
use rsc_util::parallel::fan_out;

/// Events per thread a chunk must hold before `observe_chunk` spawns
/// threads, so that each thread's share dwarfs its spawn and join. Below
/// it every shard runs on the caller: serve frames and the engine's
/// default 4096-event chunks never create a thread.
pub const MIN_EVENTS_PER_THREAD: usize = 1 << 16;

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

/// Runs each shard's sequential `observe_chunk` over its own buffer and
/// returns the summed summary.
fn observe_shards(shards: &mut [ReactiveController], bufs: &[Vec<BranchRecord>]) -> ChunkSummary {
    let mut sum = ChunkSummary::default();
    for (ctl, buf) in shards.iter_mut().zip(bufs) {
        add_summary(&mut sum, ctl.observe_chunk(buf));
    }
    sum
}

/// A parallel controller: N independent [`ReactiveController`] shards,
/// branches partitioned by a stable hash of [`BranchId`], results merged
/// with order-independent reductions.
///
/// Built via [`ControllerBuilder::build_sharded`](crate::ControllerBuilder::build_sharded);
/// see the [module docs](self) for how chunks run and exactly which
/// quantities are bit-identical to a sequential run and which are
/// per-shard.
pub struct ShardedController {
    shards: Vec<ReactiveController>,
    /// The most threads one `observe_chunk` may use: `min(shards, cap)`.
    threads: usize,
    /// Per-shard record buffers, refilled by every scatter.
    bufs: Vec<Vec<BranchRecord>>,
    /// Branch index → owning shard, grown on demand.
    shard_cache: Vec<u32>,
}

impl ShardedController {
    /// Assembles the engine from already-built shard controllers (empty
    /// from the builder, or carrying state from a checkpoint restore).
    /// The builder guarantees they share parameters and telemetry shape.
    /// `thread_cap` bounds the threads a chunk may fan out to:
    /// `min(shards, thread_cap)`.
    pub(crate) fn from_parts(shards: Vec<ReactiveController>, thread_cap: usize) -> Self {
        assert!(!shards.is_empty(), "builder rejects zero shards");
        let n = shards.len();
        ShardedController {
            threads: thread_cap.clamp(1, n),
            bufs: vec![Vec::new(); n],
            shard_cache: Vec::new(),
            shards,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The most threads one [`observe_chunk`](Self::observe_chunk) call
    /// may use, the caller included: `min(shards, cap)`, fixed at build
    /// time. A call uses that many only for a chunk of at least
    /// `pool_threads() ×` [`MIN_EVENTS_PER_THREAD`] events; smaller
    /// chunks use fewer, down to the caller alone.
    pub fn pool_threads(&self) -> usize {
        self.threads
    }

    /// The shard that owns `branch` under this engine's routing.
    pub fn shard_for(&self, branch: BranchId) -> usize {
        shard_of(branch, self.shards.len())
    }

    /// The shared controller parameters.
    pub fn params(&self) -> &ControllerParams {
        self.shards[0].params()
    }

    /// The shard controllers, in shard order.
    pub(crate) fn shards(&self) -> &[ReactiveController] {
        &self.shards
    }

    fn owner(&self, branch: BranchId) -> &ReactiveController {
        &self.shards[self.shard_for(branch)]
    }

    /// Observes one event, routed to the owning shard.
    pub fn observe(&mut self, r: &BranchRecord) -> SpecDecision {
        let k = self.shard_for(r.branch);
        self.shards[k].observe(r)
    }

    /// Observes a chunk of events: scatters it to the owning shards'
    /// buffers in arrival order, runs each shard's sequential
    /// `observe_chunk` over its buffer (on scoped threads for a large
    /// enough chunk, see the [module docs](self)), and returns the summed
    /// [`ChunkSummary`].
    ///
    /// The summary is bit-identical to a sequential controller's over
    /// the same chunk regardless of shard count, thread count, or
    /// scheduling: each shard's summary depends only on its own records
    /// (in arrival order), and the merge is a sum.
    pub fn observe_chunk(&mut self, records: &[BranchRecord]) -> ChunkSummary {
        let n = self.shards.len();
        if n == 1 {
            return self.shards[0].observe_chunk(records);
        }
        self.scatter(records);
        let threads = self.threads.min(records.len() / MIN_EVENTS_PER_THREAD);
        if threads <= 1 {
            return observe_shards(&mut self.shards, &self.bufs);
        }
        // Contiguous shard ranges, one per thread.
        let mut parts = Vec::with_capacity(threads);
        let (mut shards, mut bufs) = (&mut self.shards[..], &self.bufs[..]);
        for t in 0..threads {
            let len = (t + 1) * n / threads - t * n / threads;
            let (s, rest) = std::mem::take(&mut shards).split_at_mut(len);
            shards = rest;
            let (b, rest) = bufs.split_at(len);
            bufs = rest;
            parts.push((s, b));
        }
        let mut total = ChunkSummary::default();
        for s in fan_out(parts, |(s, b)| observe_shards(s, b)) {
            add_summary(&mut total, s);
        }
        total
    }

    /// Refills the per-shard buffers with `records`, each shard's in
    /// arrival order.
    fn scatter(&mut self, records: &[BranchRecord]) {
        for buf in &mut self.bufs {
            buf.clear();
        }
        for r in records {
            let b = r.branch.index();
            if b >= self.shard_cache.len() {
                self.grow_cache(b);
            }
            self.bufs[self.shard_cache[b] as usize].push(*r);
        }
    }

    /// Extends the branch → shard table to cover branch index `b`.
    #[cold]
    fn grow_cache(&mut self, b: usize) {
        let n = self.shards.len();
        let old = self.shard_cache.len();
        self.shard_cache
            .extend((old..=b).map(|g| shard_of(BranchId::new(g as u32), n) as u32));
    }

    /// Merged aggregate statistics: every field is a sum over shards
    /// except `instructions`, which is a high-water mark of the dynamic
    /// instruction counter and therefore merges as a max.
    pub fn stats(&self) -> ControlStats {
        let mut total = ControlStats::default();
        for s in self.shards.iter().map(ReactiveController::stats) {
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
        self.shards
            .iter()
            .map(|ctl| ctl.transition_log().count(kind))
            .sum()
    }

    /// Times `branch` entered the biased state (from its owning shard).
    pub fn entries(&self, branch: BranchId) -> u32 {
        self.owner(branch).entries(branch)
    }

    /// Times `branch` was evicted from the biased state.
    pub fn evictions(&self, branch: BranchId) -> u32 {
        self.owner(branch).evictions(branch)
    }

    /// Whether `branch` is currently speculated.
    pub fn is_speculating(&self, branch: BranchId) -> bool {
        self.owner(branch).is_speculating(branch)
    }

    /// Whether `branch` has been permanently disabled.
    pub fn is_disabled(&self, branch: BranchId) -> bool {
        self.owner(branch).is_disabled(branch)
    }

    /// Externally comparable snapshot of `branch`'s FSM state, identical
    /// to the sequential controller's for every branch.
    pub fn branch_snapshot(&self, branch: BranchId) -> BranchSnapshot {
        self.owner(branch).branch_snapshot(branch)
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
        let mut merged = ControllerMetrics::new();
        for ctl in &self.shards {
            let cm = ctl.telemetry.as_ref()?.metrics.as_ref()?;
            for (agg, shard) in merged
                .histograms_in_order()
                .into_iter()
                .zip(cm.histograms_in_order())
            {
                merged
                    .registry
                    .histogram_mut(agg)
                    .merge_from(cm.registry.histogram_ref(shard));
            }
        }
        let s = self.stats();
        let transitions = TransitionKind::ALL.map(|kind| self.transition_count(kind));
        let policy = self.shards[0].policy();
        // Sharding rejects the resilience layer, so deployment is
        // implicit (one deployment per re-optimization request) and there
        // is no breaker.
        let mut reg = merged.export(&s, &transitions, s.reopt_requests, 0, policy);
        for (k, ctl) in self.shards.iter().enumerate() {
            let label = k.to_string();
            let ss = ctl.stats();
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
            reg.set_counter(id, ctl.transition_log().total());
        }
        Some(reg)
    }
}

impl Clone for ShardedController {
    /// Clones every shard controller; the scatter buffers start empty.
    fn clone(&self) -> Self {
        ShardedController::from_parts(self.shards.clone(), self.threads)
    }
}

impl std::fmt::Debug for ShardedController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedController")
            .field("shards", &self.shards.len())
            .field("pool_threads", &self.threads)
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
        // Small chunks, then one chunk large enough for 4 threads.
        let big = 4 * MIN_EVENTS_PER_THREAD;
        let trace = oscillating(9, 11, 8_000 + big as u64);
        let run = |cap: usize| {
            let mut ctl = ReactiveController::builder(tiny())
                .shards(5)
                .pool_threads(cap)
                .build_sharded()
                .unwrap();
            let mut summaries = Vec::new();
            for chunk in trace[..8_000].chunks(313) {
                summaries.push(ctl.observe_chunk(chunk));
            }
            summaries.push(ctl.observe_chunk(&trace[8_000..]));
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
        let big = 4 * MIN_EVENTS_PER_THREAD;
        let trace = oscillating(11, 9, 8_000 + big as u64);
        let build = || {
            ReactiveController::builder(tiny())
                .shards(4)
                .pool_threads(4)
                .log_policy(TransitionLogPolicy::CountsOnly)
                .build_sharded()
                .unwrap()
        };
        let mut pooled = build();
        let mut fallback = build();
        assert_eq!(pooled.pool_threads(), 4);
        for window in trace[..8_000].chunks(257) {
            let a = pooled.observe_chunk(window);
            let b = fallback.observe_chunk(window);
            assert_eq!(a, b, "chunk summaries are bit-identical");
        }
        // The big chunk fans out to 4 threads. For the fallback engine
        // the very first spawn fails, so shard range 1 runs on the
        // caller after range 0.
        rsc_util::parallel::fail_nth_spawn(1);
        let b = fallback.observe_chunk(&trace[8_000..]);
        let a = pooled.observe_chunk(&trace[8_000..]);
        assert_eq!(a, b, "threaded chunk summaries are bit-identical");
        assert_eq!(fallback.shard_count(), 4, "all shards kept");
        assert_eq!(pooled.stats(), fallback.stats());
        for b in 0..11u32 {
            let id = BranchId::new(b);
            assert_eq!(pooled.branch_snapshot(id), fallback.branch_snapshot(id));
        }
    }

    #[test]
    fn mid_way_spawn_failure_recovers_every_shard() {
        // Three threads over six shards: range 1 spawns, range 2's spawn
        // (the second) fails and runs on the caller after range 0.
        let trace = oscillating(13, 9, 3 * MIN_EVENTS_PER_THREAD as u64);
        let mut seq = ReactiveController::builder(tiny()).build().unwrap();
        seq.observe_chunk(&trace);
        let mut ctl = ReactiveController::builder(tiny())
            .shards(6)
            .pool_threads(3)
            .build_sharded()
            .unwrap();
        rsc_util::parallel::fail_nth_spawn(2);
        let s = ctl.observe_chunk(&trace);
        assert_eq!(s.events, trace.len() as u64);
        assert_eq!(ctl.pool_threads(), 3, "the cap outlives a failed spawn");
        assert_eq!(ctl.shard_count(), 6);
        assert_eq!(ctl.stats(), seq.stats());
        for b in 0..13u32 {
            let id = BranchId::new(b);
            assert_eq!(ctl.branch_snapshot(id), seq.branch_snapshot(id));
        }
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
        let big = 4 * MIN_EVENTS_PER_THREAD;
        let trace = oscillating(23, 11, 60_000 + big as u64);
        let mut seq = ReactiveController::builder(tiny()).build().unwrap();
        for r in &trace {
            seq.observe(r);
        }
        for cap in [1usize, 4] {
            let mut shd = ReactiveController::builder(tiny())
                .shards(4)
                .pool_threads(cap)
                .build_sharded()
                .unwrap();
            let mut start = 0usize;
            let mut total = ChunkSummary::default();
            // 4096-event warmup, empty, 1 event, then one chunk far
            // larger than anything scattered so far, then one that fans
            // out to every thread under cap 4, then the tail.
            for len in [4096usize, 0, 1, 50_000, big + 1, usize::MAX] {
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
        let mut a = ReactiveController::builder(tiny())
            .shards(4)
            .pool_threads(4)
            .build_sharded()
            .unwrap();
        a.observe_chunk(&trace[..2_500]);
        let mut b = a.clone();
        assert_eq!(b.pool_threads(), a.pool_threads());
        a.observe_chunk(&trace[2_500..]);
        b.observe_chunk(&trace[2_500..]);
        assert_eq!(a.stats(), b.stats(), "clone diverges from original");
        assert_eq!(a.snapshot().as_bytes(), b.snapshot().as_bytes());
    }

    #[test]
    fn each_shard_is_a_sequential_controller_over_its_projection() {
        let pop = rsc_trace::spec2000::benchmark("gcc")
            .unwrap()
            .population(100_000);
        let trace: Vec<BranchRecord> = pop.trace(rsc_trace::InputId::Eval, 300_000, 1).collect();
        let floor = MIN_EVENTS_PER_THREAD;
        // (shards, thread cap, chunk): inline at the engine's default
        // chunk size, then threaded with chunks that reach every thread.
        for (shards, cap, chunk) in [
            (2, 1, 4096),
            (5, 1, 4096),
            (2, 2, 2 * floor),
            (5, 4, 4 * floor),
        ] {
            let mut shd = ReactiveController::builder(ControllerParams::scaled())
                .shards(shards)
                .pool_threads(cap)
                .build_sharded()
                .unwrap();
            for c in trace.chunks(chunk) {
                shd.observe_chunk(c);
            }
            let mut logged = 0;
            for (k, ctl) in shd.shards().iter().enumerate() {
                let mut seq = ReactiveController::builder(ControllerParams::scaled())
                    .build()
                    .unwrap();
                for r in trace.iter().filter(|r| shd.shard_for(r.branch) == k) {
                    seq.observe(r);
                }
                let at = format!("{shards} shards, cap {cap}, chunk {chunk}, shard {k}");
                assert_eq!(ctl.stats(), seq.stats(), "{at}: stats");
                assert_eq!(ctl.transitions(), seq.transitions(), "{at}: ordered log");
                assert_eq!(
                    ctl.snapshot().as_bytes(),
                    seq.snapshot().as_bytes(),
                    "{at}: checkpoint body"
                );
                logged += ctl.transitions().len();
            }
            assert!(logged > 0, "the trace exercises the transition log");
        }
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
        // The merged exposition is the sequential schema plus exactly the
        // three per-shard families.
        let families = |text: &str| -> std::collections::BTreeSet<String> {
            text.lines()
                .filter_map(|l| l.strip_prefix("# TYPE "))
                .map(str::to_owned)
                .collect()
        };
        let mut expect = families(&sreg.render_prometheus());
        for name in [
            "rsc_shard_events_total",
            "rsc_shard_spec_incorrect_total",
            "rsc_shard_transitions_total",
        ] {
            expect.insert(format!("{name} counter"));
        }
        assert_eq!(families(&mreg.render_prometheus()), expect);
        let policy = Some(("policy", "paper-fsm"));
        assert_eq!(
            mreg.counter_value_labeled("rsc_policy_info", policy),
            Some(1)
        );
        assert_eq!(
            mreg.counter_value_labeled("rsc_policy_info", policy),
            sreg.counter_value_labeled("rsc_policy_info", policy)
        );
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
        assert!(
            shd.shards().iter().all(|ctl| ctl.transitions().is_empty()),
            "CountsOnly stores no events"
        );
    }
}
