//! The observability layer: a zero-dependency metrics registry and a
//! pluggable event sink.
//!
//! The paper's whole argument is closed-loop reaction to *observed*
//! behavior, yet until this module the runtime was open-loop to its own
//! operators: the only visibility was post-hoc scraping of
//! [`ControlStats`] or the transition log. This
//! module makes the controller observable in flight:
//!
//! * [`MetricsRegistry`] — monotonic counters, gauges, and fixed-bucket
//!   histograms (misspeculation intervals, biased-state residency, retry
//!   depth, breaker phase durations), exportable as Prometheus text
//!   ([`MetricsRegistry::render_prometheus`]) or JSON
//!   ([`MetricsRegistry::render_json`]). No external crates, no atomics
//!   on the hot path: histograms update live at rare instrumentation
//!   points, while counters and gauges are synthesized from the
//!   controller's existing exact state at export time.
//! * [`EventSink`] — a trait receiving [`ObsEvent`]s (classification
//!   transitions, deployment attempts, breaker phase changes, checkpoint
//!   saves) as they happen. Ships with [`NullSink`] (drop
//!   everything), [`VecSink`] (buffer in memory, for tests and
//!   programmatic consumers), and [`JsonlSink`] (stream one JSON object
//!   per line to any writer).
//!
//! Telemetry is assembled exclusively through
//! [`ControllerBuilder`](crate::ControllerBuilder):
//!
//! ```
//! use rsc_control::prelude::*;
//! use std::sync::Arc;
//!
//! let sink = Arc::new(VecSink::new());
//! let mut ctl = ReactiveController::builder(ControllerParams::scaled())
//!     .metrics()
//!     .event_sink(sink.clone())
//!     .build()?;
//! # let _ = &mut ctl;
//! let registry = ctl.metrics().expect("metrics were enabled");
//! assert!(registry.render_prometheus().contains("rsc_events_total"));
//! assert!(sink.is_empty());
//! # Ok::<(), InvalidParamsError>(())
//! ```
//!
//! A controller built *without* telemetry carries only a `None` check on
//! the chunked hot path and keeps the in-place fast path.
//! `tests/telemetry_overhead.rs` checks that structurally rather than by
//! timing: it asks the controller which path it takes
//! ([`chunk_fast_path`](crate::ReactiveController::chunk_fast_path)) and
//! that the chunked and per-event runs agree.

use crate::controller::{TransitionEvent, TransitionKind};
use crate::policy::Policy;
use crate::resilience::deployer::{DeployKind, DeployOutcome};
use crate::stats::ControlStats;
use rsc_trace::BranchId;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Metric identity
// ---------------------------------------------------------------------------

/// Handle to a registered counter (index into the registry; cheap Copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A fixed-bucket histogram over `u64` observations.
///
/// `bounds` are inclusive upper bounds (`le` in Prometheus terms), strictly
/// increasing; one implicit `+Inf` bucket catches everything above the last
/// bound. Buckets are stored *non-cumulative*; the Prometheus renderer
/// accumulates them on the way out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Validating constructor: bounds must be strictly increasing, or the
    /// bucket index computed by [`observe`](Histogram::observe) (a
    /// `partition_point` over `bounds`) silently misclassifies values in
    /// release builds.
    fn try_new(bounds: &[u64]) -> Result<Self, &'static str> {
        if !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err("histogram bounds must be strictly increasing");
        }
        Ok(Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        })
    }

    #[cfg(test)]
    fn new(bounds: &[u64]) -> Self {
        Histogram::try_new(bounds).expect("histogram bounds must be strictly increasing")
    }

    #[inline]
    fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| value > b);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The inclusive upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Non-cumulative bucket counts (`bounds.len() + 1` entries; the last
    /// is the `+Inf` bucket).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Checkpoint restore: overwrite the mutable state in place. The
    /// bucket count must match this histogram's shape, and `count` must
    /// equal the bucket total — every observation lands in exactly one
    /// bucket, so a disagreement can only mean a corrupted payload.
    pub(crate) fn set_raw(
        &mut self,
        buckets: Vec<u64>,
        count: u64,
        sum: u64,
    ) -> Result<(), &'static str> {
        if buckets.len() != self.buckets.len() {
            return Err("histogram bucket count disagrees with this build");
        }
        if buckets.iter().sum::<u64>() != count {
            return Err("histogram count disagrees with bucket sum");
        }
        self.buckets = buckets;
        self.count = count;
        self.sum = sum;
        Ok(())
    }

    /// Adds another histogram's observations into this one (used by the
    /// sharded controller's deterministic merge). Both histograms must
    /// share the same bounds.
    pub(crate) fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Test hook: corrupt the observation count without touching the
    /// buckets, to exercise the checkpoint consistency check.
    #[cfg(test)]
    pub(crate) fn force_count(&mut self, count: u64) {
        self.count = count;
    }
}

#[derive(Debug, Clone, PartialEq)]
enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    /// Family name (`rsc_events_total`).
    name: String,
    /// Optional single label pair (`kind` → `enter_biased`).
    label: Option<(&'static str, String)>,
    help: &'static str,
    value: MetricValue,
}

impl Metric {
    /// `name` or `name{key="value"}`.
    fn sample_name(&self) -> String {
        match &self.label {
            None => self.name.clone(),
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", self.name, k, v),
        }
    }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// A zero-dependency metrics registry: monotonic counters, gauges, and
/// fixed-bucket histograms, addressable by cheap integer handles.
///
/// Registration returns a typed id; updates are array indexing, no string
/// hashing. Metrics within one family may differ by a single label pair
/// (used for per-kind transition counters). Export with
/// [`render_prometheus`](MetricsRegistry::render_prometheus) or
/// [`render_json`](MetricsRegistry::render_json).
///
/// # Examples
///
/// ```
/// use rsc_control::observe::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// let hits = reg.counter("cache_hits_total", "cache hits");
/// reg.inc_by(hits, 3);
/// assert_eq!(reg.counter_value("cache_hits_total"), Some(3));
/// assert!(reg.render_prometheus().contains("cache_hits_total 3"));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn find(&self, name: &str, label: Option<(&str, &str)>) -> Option<usize> {
        self.metrics.iter().position(|m| {
            m.name == name && m.label.as_ref().map(|(k, v)| (*k, v.as_str())) == label
        })
    }

    fn register(
        &mut self,
        name: &str,
        label: Option<(&'static str, String)>,
        help: &'static str,
        value: MetricValue,
    ) -> usize {
        let label_ref = label.as_ref().map(|(k, v)| (*k, v.as_str()));
        if let Some(i) = self.find(name, label_ref) {
            assert!(
                std::mem::discriminant(&self.metrics[i].value) == std::mem::discriminant(&value),
                "metric {name} re-registered with a different kind"
            );
            return i;
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            label,
            help,
            value,
        });
        self.metrics.len() - 1
    }

    /// Registers (or finds) a monotonic counter.
    pub fn counter(&mut self, name: &str, help: &'static str) -> CounterId {
        CounterId(self.register(name, None, help, MetricValue::Counter(0)))
    }

    /// Registers (or finds) a counter with one label pair, e.g. a per-kind
    /// member of a family like `rsc_transitions_total{kind="enter_biased"}`.
    pub fn counter_labeled(
        &mut self,
        name: &str,
        key: &'static str,
        value: &str,
        help: &'static str,
    ) -> CounterId {
        CounterId(self.register(
            name,
            Some((key, value.to_string())),
            help,
            MetricValue::Counter(0),
        ))
    }

    /// Registers (or finds) a gauge.
    pub fn gauge(&mut self, name: &str, help: &'static str) -> GaugeId {
        GaugeId(self.register(name, None, help, MetricValue::Gauge(0.0)))
    }

    /// Registers (or finds) a fixed-bucket histogram with the given
    /// inclusive upper bounds (`+Inf` is implicit).
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not strictly increasing: with unordered
    /// or duplicate bounds the bucket search would silently misclassify
    /// observations.
    pub fn histogram(&mut self, name: &str, help: &'static str, bounds: &[u64]) -> HistogramId {
        let h = Histogram::try_new(bounds).expect("histogram bounds must be strictly increasing");
        HistogramId(self.register(name, None, help, MetricValue::Histogram(h)))
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.inc_by(id, 1);
    }

    /// Increments a counter.
    #[inline]
    pub fn inc_by(&mut self, id: CounterId, by: u64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Counter(v) => *v += by,
            _ => unreachable!("CounterId always points at a counter"),
        }
    }

    /// Sets a counter to an absolute value, for counters synchronized from
    /// an external monotonic source (the caller guarantees monotonicity).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Counter(v) => *v = value,
            _ => unreachable!("CounterId always points at a counter"),
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Gauge(v) => *v = value,
            _ => unreachable!("GaugeId always points at a gauge"),
        }
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Histogram(h) => h.observe(value),
            _ => unreachable!("HistogramId always points at a histogram"),
        }
    }

    pub(crate) fn histogram_mut(&mut self, id: HistogramId) -> &mut Histogram {
        match &mut self.metrics[id.0].value {
            MetricValue::Histogram(h) => h,
            _ => unreachable!("HistogramId always points at a histogram"),
        }
    }

    pub(crate) fn histogram_ref(&self, id: HistogramId) -> &Histogram {
        match &self.metrics[id.0].value {
            MetricValue::Histogram(h) => h,
            _ => unreachable!("HistogramId always points at a histogram"),
        }
    }

    /// Looks up an unlabeled counter's value by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counter_value_labeled(name, None)
    }

    /// Looks up a counter's value by name and optional label pair.
    pub fn counter_value_labeled(&self, name: &str, label: Option<(&str, &str)>) -> Option<u64> {
        match &self.metrics[self.find(name, label)?].value {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a gauge's value by name.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match &self.metrics[self.find(name, None)?].value {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a histogram by name.
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        match &self.metrics[self.find(name, None)?].value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Number of registered metrics (labeled family members count
    /// individually).
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Returns `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` headers once per family (in registration
    /// order), then one sample line per metric; histograms expand into
    /// cumulative `_bucket{le=...}` samples plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen_families: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if !seen_families.contains(&m.name.as_str()) {
                seen_families.push(&m.name);
                let ty = match m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                let _ = writeln!(out, "# TYPE {} {}", m.name, ty);
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} {}", m.sample_name(), v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {}", m.sample_name(), fmt_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &b) in h.bounds.iter().enumerate() {
                        cum += h.buckets[i];
                        let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", m.name, b, cum);
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", m.name, h.count);
                    let _ = writeln!(out, "{}_sum {}", m.name, h.sum);
                    let _ = writeln!(out, "{}_count {}", m.name, h.count);
                }
            }
        }
        out
    }

    /// Renders the registry as a JSON object with `counters`, `gauges`,
    /// and `histograms` sections. Hand-rolled (the crate stays
    /// zero-dependency); metric names are used as object keys.
    pub fn render_json(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    if !counters.is_empty() {
                        counters.push(',');
                    }
                    let _ = write!(counters, "{}:{}", json_str(&m.sample_name()), v);
                }
                MetricValue::Gauge(v) => {
                    if !gauges.is_empty() {
                        gauges.push(',');
                    }
                    let _ = write!(gauges, "{}:{}", json_str(&m.sample_name()), fmt_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    if !histograms.is_empty() {
                        histograms.push(',');
                    }
                    let _ = write!(
                        histograms,
                        "{}:{{\"bounds\":{:?},\"buckets\":{:?},\"count\":{},\"sum\":{}}}",
                        json_str(&m.name),
                        h.bounds,
                        h.buckets,
                        h.count,
                        h.sum
                    );
                }
            }
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
        )
    }
}

/// Formats an f64 so integral values print without a fractional part and
/// the output is always a valid Prometheus/JSON number.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Events and sinks
// ---------------------------------------------------------------------------

/// One observability event emitted by the controller.
///
/// Marked `#[non_exhaustive]`: new controller subsystems add event
/// kinds over time (deployment and checkpoint events arrived after the
/// first release of this enum), so downstream matches must keep a
/// wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ObsEvent {
    /// A classification transition (including the global breaker
    /// transitions, which carry the
    /// [`BREAKER_BRANCH`](crate::resilience::BREAKER_BRANCH) sentinel).
    Transition(TransitionEvent),
    /// One deployment attempt went through the pipeline.
    Deploy {
        /// The branch whose code was (re)deployed.
        branch: BranchId,
        /// Optimize or repair.
        kind: DeployKind,
        /// Failed attempts before this one (0 = first try).
        attempt: u32,
        /// Dynamic instruction count at the request.
        instr: u64,
        /// Whether the pipeline accepted the request.
        deployed: bool,
        /// Instructions wasted by a failed attempt (0 when deployed).
        wasted: u64,
    },
    /// [`ReactiveController::snapshot`](crate::ReactiveController::snapshot)
    /// produced a checkpoint.
    CheckpointSaved {
        /// Events observed at save time.
        events: u64,
        /// Serialized size.
        bytes: u64,
    },
}

impl ObsEvent {
    /// Renders the event as one self-contained JSON object (the line
    /// format written by [`JsonlSink`]).
    pub fn to_json(&self) -> String {
        match self {
            ObsEvent::Transition(ev) => {
                let dir = match ev.direction {
                    None => "null".to_string(),
                    Some(d) => json_str(&format!("{d:?}")),
                };
                format!(
                    "{{\"type\":\"transition\",\"kind\":{},\"branch\":{},\"event\":{},\"instr\":{},\"direction\":{}}}",
                    json_str(ev.kind.name()),
                    ev.branch.index(),
                    ev.event_index,
                    ev.instr,
                    dir
                )
            }
            ObsEvent::Deploy {
                branch,
                kind,
                attempt,
                instr,
                deployed,
                wasted,
            } => format!(
                "{{\"type\":\"deploy\",\"kind\":{},\"branch\":{},\"attempt\":{},\"instr\":{},\"deployed\":{},\"wasted\":{}}}",
                json_str(kind.name()),
                branch.index(),
                attempt,
                instr,
                deployed,
                wasted
            ),
            ObsEvent::CheckpointSaved { events, bytes } => format!(
                "{{\"type\":\"checkpoint_saved\",\"events\":{events},\"bytes\":{bytes}}}"
            ),
        }
    }
}

/// Receives [`ObsEvent`]s from a controller.
///
/// Sinks are shared (`Arc`) so a cloned controller keeps streaming to the
/// same destination; implementations use interior mutability and must be
/// cheap — `emit` is called synchronously from the controller's
/// transition, deployment, and checkpoint paths (never per branch event).
pub trait EventSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &ObsEvent);

    /// Flushes any buffered output. Default: no-op.
    fn flush(&self) {}
}

/// Drops every event. Useful as an explicit "no sink" placeholder.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &ObsEvent) {}
}

/// Buffers events in memory behind a mutex. The consumer keeps a clone of
/// the `Arc` handed to the builder and inspects it after (or during) the
/// run.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<ObsEvent>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Copies out everything emitted so far.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        self.events.lock().expect("VecSink mutex").clone()
    }

    /// Removes and returns everything emitted so far.
    pub fn take(&self) -> Vec<ObsEvent> {
        std::mem::take(&mut *self.events.lock().expect("VecSink mutex"))
    }

    /// Events buffered so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("VecSink mutex").len()
    }

    /// Returns `true` if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for VecSink {
    fn emit(&self, event: &ObsEvent) {
        self.events.lock().expect("VecSink mutex").push(*event);
    }
}

/// Streams events as JSON Lines (one [`ObsEvent::to_json`] object per
/// line) to any writer. Write errors never propagate into the controller;
/// they are counted and reported via [`JsonlSink::dropped`].
pub struct JsonlSink {
    out: Mutex<Box<dyn std::io::Write + Send>>,
    dropped: AtomicU64,
}

impl JsonlSink {
    /// Wraps an arbitrary writer.
    pub fn from_writer(w: impl std::io::Write + Send + 'static) -> Self {
        JsonlSink {
            out: Mutex::new(Box::new(w)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Creates (truncating) a file and streams to it through a buffer.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::from_writer(std::io::BufWriter::new(file)))
    }

    /// Events that failed to write (telemetry is best-effort; the
    /// controller never sees sink errors).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &ObsEvent) {
        let mut out = self.out.lock().expect("JsonlSink mutex");
        if writeln!(out, "{}", event.to_json()).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("JsonlSink mutex").flush();
    }
}

// ---------------------------------------------------------------------------
// Controller-side telemetry wiring
// ---------------------------------------------------------------------------

/// Bounds of the four interval-style histograms (misspeculation
/// interval, biased residency, breaker open/half-open durations):
/// event-count intervals spanning tight loops to whole scaled runs
/// (powers of four). Checkpoints carry them, and restore refuses any
/// others.
pub(crate) const INTERVAL_BOUNDS: [u64; 11] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
];

/// Histogram bounds for retry depth (attempt ordinal of each deployment
/// request; retries are bounded by the retry policy, so the range is
/// small).
const RETRY_BOUNDS: [u64; 6] = [0, 1, 2, 3, 4, 8];

/// Handles for every metric the controller maintains, in registration
/// order. The schema is fixed at build time so checkpoints can serialize
/// histogram state positionally.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetricIds {
    pub(crate) events: CounterId,
    pub(crate) instructions: CounterId,
    pub(crate) correct: CounterId,
    pub(crate) incorrect: CounterId,
    pub(crate) transitions: [CounterId; TransitionKind::ALL.len()],
    pub(crate) deploy_requests: CounterId,
    pub(crate) deploy_failures: CounterId,
    pub(crate) deploy_retries: CounterId,
    pub(crate) forced_disables: CounterId,
    pub(crate) suppressed_enters: CounterId,
    pub(crate) branches_tracked: GaugeId,
    pub(crate) branches_disabled: GaugeId,
    pub(crate) breaker_state: GaugeId,
    pub(crate) misspec_interval: HistogramId,
    pub(crate) biased_residency: HistogramId,
    pub(crate) retry_depth: HistogramId,
    pub(crate) breaker_open_duration: HistogramId,
    pub(crate) breaker_half_open_duration: HistogramId,
}

/// Live metric state carried inside a controller when the builder enabled
/// [`metrics`](crate::ControllerBuilder::metrics).
///
/// Only histograms (and the small amount of side state needed to compute
/// them) update on the hot path; counters and gauges are synthesized from
/// the controller's exact counters at export time by
/// [`ReactiveController::metrics`](crate::ReactiveController::metrics).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ControllerMetrics {
    pub(crate) registry: MetricsRegistry,
    pub(crate) ids: MetricIds,
    /// Event ordinal of the most recent misspeculation (None before the
    /// first), feeding the misspec-interval histogram.
    pub(crate) last_misspec_event: Option<u64>,
    /// Per-branch event ordinal of the last `EnterBiased` (`u64::MAX` =
    /// not currently measured), feeding the biased-residency histogram.
    pub(crate) enter_event: Vec<u64>,
    /// Event ordinal at which the breaker last opened.
    pub(crate) breaker_open_since: Option<u64>,
    /// Event ordinal at which the breaker last half-opened.
    pub(crate) breaker_half_since: Option<u64>,
}

/// Sentinel for "branch is not in a measured biased episode".
pub(crate) const NOT_BIASED: u64 = u64::MAX;

impl ControllerMetrics {
    pub(crate) fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let events = registry.counter("rsc_events_total", "dynamic branch events observed");
        let instructions = registry.counter(
            "rsc_instructions_total",
            "dynamic instruction count high-water mark",
        );
        let correct = registry.counter(
            "rsc_spec_correct_total",
            "speculated executions whose outcome matched",
        );
        let incorrect = registry.counter(
            "rsc_spec_incorrect_total",
            "speculated executions whose outcome did not match (misspeculations)",
        );
        let transitions = TransitionKind::ALL.map(|kind| {
            registry.counter_labeled(
                "rsc_transitions_total",
                "kind",
                kind.name(),
                "classification transitions by kind",
            )
        });
        let deploy_requests = registry.counter(
            "rsc_deploy_requests_total",
            "deployment requests issued to the pipeline",
        );
        let deploy_failures = registry.counter(
            "rsc_deploy_failures_total",
            "deployment requests the pipeline rejected",
        );
        let deploy_retries = registry.counter(
            "rsc_deploy_retries_total",
            "deployment retry attempts issued after a failure",
        );
        let forced_disables = registry.counter(
            "rsc_forced_disables_total",
            "branches force-disabled after repair retries ran out",
        );
        let suppressed_enters = registry.counter(
            "rsc_suppressed_enters_total",
            "EnterBiased decisions suppressed by an open storm breaker",
        );
        let branches_tracked = registry.gauge(
            "rsc_branches_tracked",
            "static branches with controller state",
        );
        let branches_disabled = registry.gauge(
            "rsc_branches_disabled",
            "branches permanently disabled (oscillation cap or fail-safe)",
        );
        let breaker_state = registry.gauge(
            "rsc_breaker_state",
            "storm breaker phase (0 closed, 1 half-open, 2 open; 0 when unconfigured)",
        );
        let misspec_interval = registry.histogram(
            "rsc_misspec_interval_events",
            "branch events between consecutive misspeculations",
            &INTERVAL_BOUNDS,
        );
        let biased_residency = registry.histogram(
            "rsc_biased_residency_events",
            "branch events between a branch entering the biased state and its eviction",
            &INTERVAL_BOUNDS,
        );
        let retry_depth = registry.histogram(
            "rsc_retry_depth",
            "failed attempts preceding each deployment request",
            &RETRY_BOUNDS,
        );
        let breaker_open_duration = registry.histogram(
            "rsc_breaker_open_duration_events",
            "branch events the breaker spent open before probing",
            &INTERVAL_BOUNDS,
        );
        let breaker_half_open_duration = registry.histogram(
            "rsc_breaker_half_open_duration_events",
            "branch events the breaker spent half-open before closing or reopening",
            &INTERVAL_BOUNDS,
        );
        ControllerMetrics {
            registry,
            ids: MetricIds {
                events,
                instructions,
                correct,
                incorrect,
                transitions,
                deploy_requests,
                deploy_failures,
                deploy_retries,
                forced_disables,
                suppressed_enters,
                branches_tracked,
                branches_disabled,
                breaker_state,
                misspec_interval,
                biased_residency,
                retry_depth,
                breaker_open_duration,
                breaker_half_open_duration,
            },
            last_misspec_event: None,
            enter_event: Vec::new(),
            breaker_open_since: None,
            breaker_half_since: None,
        }
    }

    /// The controller's histograms in the fixed order the checkpoint
    /// format serializes them.
    pub(crate) fn histograms_in_order(&self) -> [HistogramId; 5] {
        [
            self.ids.misspec_interval,
            self.ids.biased_residency,
            self.ids.retry_depth,
            self.ids.breaker_open_duration,
            self.ids.breaker_half_open_duration,
        ]
    }

    /// Exports a copy of the registry with every counter and gauge filled
    /// in from the controller's exact state: aggregate `stats`, per-kind
    /// `transitions` (indexed by [`TransitionKind::index`]), the
    /// deployment-request count, the storm breaker's gauge code and the
    /// active `policy`. The one place counters and gauges are synthesized:
    /// [`ReactiveController::metrics`](crate::ReactiveController::metrics)
    /// passes its own state, and
    /// [`ShardedController::metrics`](crate::ShardedController::metrics)
    /// the merged state over a registry of merged histograms.
    pub(crate) fn export(
        &self,
        stats: &ControlStats,
        transitions: &[u64; TransitionKind::ALL.len()],
        deploy_requests: u64,
        breaker_phase: u8,
        policy: Policy,
    ) -> MetricsRegistry {
        let mut reg = self.registry.clone();
        let ids = &self.ids;
        reg.set_counter(ids.events, stats.events);
        reg.set_counter(ids.instructions, stats.instructions);
        reg.set_counter(ids.correct, stats.correct);
        reg.set_counter(ids.incorrect, stats.incorrect);
        for (&id, &count) in ids.transitions.iter().zip(transitions) {
            reg.set_counter(id, count);
        }
        reg.set_counter(ids.deploy_requests, deploy_requests);
        reg.set_counter(ids.deploy_failures, stats.deploy_failures);
        reg.set_counter(ids.deploy_retries, stats.deploy_retries);
        reg.set_counter(ids.forced_disables, stats.forced_disables);
        reg.set_counter(ids.suppressed_enters, stats.suppressed_enters);
        reg.set_gauge(ids.branches_tracked, stats.touched as f64);
        reg.set_gauge(ids.branches_disabled, stats.disabled_branches as f64);
        reg.set_gauge(ids.breaker_state, f64::from(breaker_phase));
        // Info-style metric: the label carries the active policy id, the
        // value is always 1. Synthesized at export time so restored or
        // rebuilt controllers always report their current policy.
        let policy_info = reg.counter_labeled(
            "rsc_policy_info",
            "policy",
            policy.id(),
            "Active control policy (value is constant 1; the label is the payload)",
        );
        reg.set_counter(policy_info, 1);
        reg
    }

    /// Hot-path hook: a misspeculation at global event ordinal `now`.
    #[inline]
    pub(crate) fn on_misspeculation(&mut self, now: u64) {
        let interval = now - self.last_misspec_event.unwrap_or(0);
        self.registry.observe(self.ids.misspec_interval, interval);
        self.last_misspec_event = Some(now);
    }

    /// Transition hook (rare path): maintains the residency and breaker
    /// duration histograms.
    pub(crate) fn on_transition(&mut self, ev: &TransitionEvent) {
        match ev.kind {
            TransitionKind::EnterBiased => {
                let idx = ev.branch.index();
                if idx < u32::MAX as usize {
                    if idx >= self.enter_event.len() {
                        self.enter_event.resize(idx + 1, NOT_BIASED);
                    }
                    self.enter_event[idx] = ev.event_index;
                }
            }
            TransitionKind::ExitBiased => {
                let idx = ev.branch.index();
                if let Some(enter) = self.enter_event.get_mut(idx) {
                    if *enter != NOT_BIASED {
                        let residency = ev.event_index.saturating_sub(*enter);
                        self.registry.observe(self.ids.biased_residency, residency);
                        *enter = NOT_BIASED;
                    }
                }
            }
            TransitionKind::BreakerOpened => {
                if let Some(half) = self.breaker_half_since.take() {
                    self.registry.observe(
                        self.ids.breaker_half_open_duration,
                        ev.event_index.saturating_sub(half),
                    );
                }
                self.breaker_open_since = Some(ev.event_index);
            }
            TransitionKind::BreakerHalfOpen => {
                if let Some(open) = self.breaker_open_since.take() {
                    self.registry.observe(
                        self.ids.breaker_open_duration,
                        ev.event_index.saturating_sub(open),
                    );
                }
                self.breaker_half_since = Some(ev.event_index);
            }
            TransitionKind::BreakerClosed => {
                if let Some(half) = self.breaker_half_since.take() {
                    self.registry.observe(
                        self.ids.breaker_half_open_duration,
                        ev.event_index.saturating_sub(half),
                    );
                }
            }
            _ => {}
        }
    }

    /// Deployment hook (rare path): the retry-depth histogram.
    pub(crate) fn on_deploy(&mut self, attempt: u32) {
        self.registry
            .observe(self.ids.retry_depth, u64::from(attempt));
    }
}

/// Everything the builder attached for observability: optional metrics,
/// optional sink. Present on the controller only when at least one was
/// requested, so the disabled fast path stays a single `Option` check.
#[derive(Clone)]
pub(crate) struct Telemetry {
    pub(crate) metrics: Option<ControllerMetrics>,
    pub(crate) sink: Option<Arc<dyn EventSink>>,
}

impl Telemetry {
    /// Emits to the sink, if any.
    #[inline]
    pub(crate) fn emit(&self, ev: &ObsEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(ev);
        }
    }

    /// Transition hook: metrics then sink.
    pub(crate) fn on_transition(&mut self, ev: &TransitionEvent) {
        if let Some(m) = &mut self.metrics {
            m.on_transition(ev);
        }
        if let Some(sink) = &self.sink {
            sink.emit(&ObsEvent::Transition(*ev));
        }
    }

    /// Deployment hook: metrics then sink.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_deploy(
        &mut self,
        branch: BranchId,
        kind: DeployKind,
        attempt: u32,
        instr: u64,
        outcome: DeployOutcome,
    ) {
        if let Some(m) = &mut self.metrics {
            m.on_deploy(attempt);
        }
        if let Some(sink) = &self.sink {
            let (deployed, wasted) = match outcome {
                DeployOutcome::Deployed => (true, 0),
                DeployOutcome::Failed { wasted } => (false, wasted),
            };
            sink.emit(&ObsEvent::Deploy {
                branch,
                kind,
                attempt,
                instr,
                deployed,
                wasted,
            });
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("metrics", &self.metrics.is_some())
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_values_inclusively() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        // le=1: {0,1}; le=4: {2,4}; le=16: {5,16}; +Inf: {17,1000}.
        assert_eq!(h.buckets(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1045);
    }

    #[test]
    fn registry_dedups_by_name_and_label() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("x_total", "x");
        let b = reg.counter("x_total", "x");
        assert_eq!(a, b);
        let l1 = reg.counter_labeled("y_total", "kind", "a", "y");
        let l2 = reg.counter_labeled("y_total", "kind", "b", "y");
        assert_ne!(l1, l2);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn prometheus_text_shape() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter_labeled("t_total", "kind", "enter", "transitions");
        reg.inc_by(c, 5);
        let g = reg.gauge("g", "a gauge");
        reg.set_gauge(g, 1.5);
        let h = reg.histogram("lat", "latency", &[1, 10]);
        reg.observe(h, 3);
        reg.observe(h, 30);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE t_total counter"));
        assert!(text.contains("t_total{kind=\"enter\"} 5"));
        assert!(text.contains("g 1.5"));
        assert!(text.contains("lat_bucket{le=\"1\"} 0"));
        assert!(text.contains("lat_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_sum 33"));
        assert!(text.contains("lat_count 2"));
        // HELP/TYPE emitted once per family.
        assert_eq!(text.matches("# TYPE t_total").count(), 1);
    }

    #[test]
    fn json_render_is_structured() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("c_total", "c");
        reg.inc(c);
        let h = reg.histogram("h", "h", &[2]);
        reg.observe(h, 1);
        let json = reg.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"c_total\":1"));
        assert!(json.contains("\"bounds\":[2]"));
        assert!(json.contains("\"buckets\":[1, 0]"));
    }

    #[test]
    fn vec_sink_buffers_events() {
        let sink = VecSink::new();
        sink.emit(&ObsEvent::CheckpointSaved {
            events: 10,
            bytes: 99,
        });
        assert_eq!(sink.len(), 1);
        let taken = sink.take();
        assert_eq!(taken.len(), 1);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::from_writer(Shared(buf.clone()));
        sink.emit(&ObsEvent::CheckpointSaved {
            events: 1,
            bytes: 2,
        });
        sink.emit(&ObsEvent::Deploy {
            branch: BranchId::new(3),
            kind: DeployKind::Repair,
            attempt: 1,
            instr: 40,
            deployed: false,
            wasted: 5,
        });
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"checkpoint_saved\""));
        assert!(lines[1].contains("\"type\":\"deploy\""));
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn non_monotonic_bounds_are_rejected_for_real() {
        assert!(Histogram::try_new(&[1, 4, 16]).is_ok());
        assert!(Histogram::try_new(&[]).is_ok());
        assert!(Histogram::try_new(&[4, 1]).is_err());
        assert!(Histogram::try_new(&[1, 1]).is_err());
    }

    #[test]
    fn set_raw_rejects_count_bucket_sum_mismatch() {
        let mut h = Histogram::new(&[1, 4]);
        assert_eq!(
            h.set_raw(vec![1, 2], 3, 9).unwrap_err(),
            "histogram bucket count disagrees with this build"
        );
        assert_eq!(
            h.set_raw(vec![1, 2, 3], 7, 9).unwrap_err(),
            "histogram count disagrees with bucket sum"
        );
        h.set_raw(vec![1, 2, 3], 6, 9).unwrap();
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 9);
    }

    #[test]
    fn merge_from_adds_bucketwise() {
        let mut a = Histogram::new(&[1, 4]);
        let mut b = Histogram::new(&[1, 4]);
        for v in [0, 2, 100] {
            a.observe(v);
        }
        for v in [1, 3] {
            b.observe(v);
        }
        a.merge_from(&b);
        assert_eq!(a.buckets(), &[2, 2, 1]);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 106);
    }

    #[test]
    fn misspec_interval_tracks_gaps() {
        let mut m = ControllerMetrics::new();
        m.on_misspeculation(5);
        m.on_misspeculation(9);
        let h = m
            .registry
            .histogram_value("rsc_misspec_interval_events")
            .unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 5 + 4);
    }
}
