//! The workloads and what their traced runs share.

pub mod abstract_sweep;
pub mod controller_stream;
pub mod mssp_timing;

use crate::harness::{span_durations, Measured};
use crate::report::{median, Outcome};
use crate::span::{Recorder, SpanId};
use rsc_control::ControlStats;
use rsc_trace::InputId;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Mutex;

/// Exact equality of two experiment rows. `Debug` prints every `f64` in
/// its shortest round-trip form, so equal text means bit-equal values.
pub fn same<T: Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// `rsc_util::parallel::par_map` under a `par.call` span, each item under
/// a `bench.item` span (the experiment's own per-item code).
pub fn traced_par_map<T: Send, R: Send>(
    rec: &Recorder,
    run: u32,
    parent: SpanId,
    items: Vec<T>,
    f: impl Fn(T, SpanId) -> R + Sync,
) -> Vec<R> {
    rec.scope("par.call", Some(parent), run, |call| {
        rsc_util::parallel::par_map(items, |item| {
            rec.scope("bench.item", Some(call), run, |id| f(item, id))
        })
    })
}

/// `par.*` metrics of traced run `run`: items, item time median and
/// maximum, and straggler idle (each call's wall time minus its summed
/// item time divided by the thread count).
pub fn report_par<S, T>(m: &Measured<S, T>, run: u32, threads: usize, out: &mut Outcome) {
    let spans = m.recorder.spans();
    let items = span_durations(m, run, "bench.item");
    let idle: f64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.run == run && s.name == "par.call")
        .map(|(id, call)| {
            let busy: f64 = spans
                .iter()
                .filter(|s| s.parent == Some(id))
                .map(|s| s.duration())
                .sum();
            call.duration() - busy / threads as f64
        })
        .sum();
    out.set("par.items", items.len() as f64);
    if !items.is_empty() {
        out.set("par.item_p50_s", median(&items));
        out.set("par.item_max_s", items.iter().copied().fold(0.0, f64::max));
    }
    out.set("par.idle_s", idle);
}

/// One generated stream: the same key always yields the same records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PassKey {
    pub model: &'static str,
    pub input: InputId,
    pub seed: u64,
}

/// Work counters of one traced iteration, shared across worker threads.
#[derive(Default)]
pub struct Counts {
    pub trace_events: AtomicU64,
    pub trace_passes: AtomicU64,
    streams: Mutex<BTreeSet<PassKey>>,
    pub profile_events: AtomicU64,
    pub control_events: AtomicU64,
    pub transitions: AtomicU64,
    pub speculated: AtomicU64,
    pub misspeculated: AtomicU64,
    pub sim_cycles: AtomicU64,
    pub task_misspecs: AtomicU64,
}

impl Counts {
    pub fn reset(&self) {
        for c in self.atomics() {
            c.store(0, Relaxed);
        }
        self.streams.lock().expect("stream set poisoned").clear();
    }

    fn atomics(&self) -> [&AtomicU64; 9] {
        [
            &self.trace_events,
            &self.trace_passes,
            &self.profile_events,
            &self.control_events,
            &self.transitions,
            &self.speculated,
            &self.misspeculated,
            &self.sim_cycles,
            &self.task_misspecs,
        ]
    }

    /// One generated pass of `events` records over stream `key`.
    pub fn pass(&self, key: PassKey, events: u64) {
        self.trace_passes.fetch_add(1, Relaxed);
        self.trace_events.fetch_add(events, Relaxed);
        self.streams
            .lock()
            .expect("stream set poisoned")
            .insert(key);
    }

    /// One finished controller run.
    pub fn control(&self, stats: &ControlStats) {
        self.control_events.fetch_add(stats.events, Relaxed);
        self.transitions
            .fetch_add(stats.total_entries + stats.total_evictions, Relaxed);
        self.speculated
            .fetch_add(stats.correct + stats.incorrect, Relaxed);
        self.misspeculated.fetch_add(stats.incorrect, Relaxed);
    }

    /// Sets the `trace.*`, `profile.events`, `control.*` and simulated
    /// `mssp.*` counts.
    pub fn report(&self, out: &mut Outcome) {
        let streams = self.streams.lock().expect("stream set poisoned").len();
        out.set("trace.events", self.trace_events.load(Relaxed) as f64);
        out.set("trace.passes", self.trace_passes.load(Relaxed) as f64);
        out.set("trace.distinct_streams", streams as f64);
        out.set("profile.events", self.profile_events.load(Relaxed) as f64);
        out.set("control.events", self.control_events.load(Relaxed) as f64);
        out.set("control.transitions", self.transitions.load(Relaxed) as f64);
        out.set(
            "control.misspec_per_1k_spec",
            1000.0 * self.misspeculated.load(Relaxed) as f64
                / self.speculated.load(Relaxed).max(1) as f64,
        );
        out.set("mssp.sim_cycles", self.sim_cycles.load(Relaxed) as f64);
        out.set(
            "mssp.task_misspecs",
            self.task_misspecs.load(Relaxed) as f64,
        );
    }
}
