//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! nothing inside the measured program is instrumented. A span's name is
//! `<layer>.<what>`, so the layer is the text before the first dot.
//!
//! Two derived quantities:
//!
//! * [`self_times`]: a span's duration minus the part of its interval that
//!   its child spans cover (the union of the children, clipped to the
//!   parent).
//! * [`layer_shares`]: the run's wall time split among layers. Each
//!   instant goes to the innermost spans running at that instant, shared
//!   equally when several run at once on different threads. Without
//!   concurrency a span's share is exactly its self time, and the shares
//!   of one run always add up to the run's wall time.

use rsc_conformance::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span within its recorder.
pub type SpanId = usize;

/// One finished span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, seconds since the recorder epoch.
    pub start: f64,
    /// End, seconds since the recorder epoch.
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Which traced iteration the span belongs to.
    pub run: u32,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent spans it causes, on this thread or another.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let start = self.now();
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
                run,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("span list poisoned")[id].end = end;
        out
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Measure of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.retain_mut(|iv| {
        iv.0 = iv.0.max(lo);
        iv.1 = iv.1.min(hi);
        iv.1 > iv.0
    });
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Each span's self time: its duration minus the part of it its child
/// spans cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for c in spans {
        if let Some(p) = c.parent {
            children[p].push((c.start, c.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - union_len(kids, s.start, s.end))
        .collect()
}

/// Splits the wall time of `root` (and everything under it) among layers.
///
/// Returns `layer -> seconds`; the values add up to `root`'s duration.
/// Time when only `root` itself runs is charged to `root`'s layer.
pub fn layer_shares(spans: &[Span], root: SpanId) -> BTreeMap<&'static str, f64> {
    let mut in_tree = vec![false; spans.len()];
    in_tree[root] = true;
    // Parents are recorded before their children, so one forward pass
    // marks the whole subtree.
    for i in root + 1..spans.len() {
        if let Some(p) = spans[i].parent {
            in_tree[i] = in_tree[p];
        }
    }
    let (lo, hi) = (spans[root].start, spans[root].end);
    let members: Vec<SpanId> = (0..spans.len()).filter(|&i| in_tree[i]).collect();
    let mut cuts: Vec<f64> = members
        .iter()
        .flat_map(|&i| [spans[i].start.clamp(lo, hi), spans[i].end.clamp(lo, hi)])
        .collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    let mut shares: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut has_active_child = vec![false; spans.len()];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mid = 0.5 * (a + b);
        let active: Vec<SpanId> = members
            .iter()
            .copied()
            .filter(|&i| spans[i].start <= mid && mid < spans[i].end)
            .collect();
        for &i in &active {
            if let Some(p) = spans[i].parent {
                has_active_child[p] = true;
            }
        }
        let leaves: Vec<SpanId> = active
            .iter()
            .copied()
            .filter(|&i| !has_active_child[i])
            .collect();
        for &i in &active {
            if let Some(p) = spans[i].parent {
                has_active_child[p] = false;
            }
        }
        let each = (b - a) / leaves.len().max(1) as f64;
        for &i in &leaves {
            *shares.entry(spans[i].layer()).or_default() += each;
        }
    }
    shares
}

/// All spans, each with its self time, as one JSON array for writing
/// out at the end of a run.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .zip(self_times(spans))
            .map(|(s, self_s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start", Json::Num(s.start)),
                    ("end", Json::Num(s.end)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    ),
                    ("run", Json::Int(u64::from(s.run))),
                    ("self_s", Json::Num(self_s)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    /// root [0,10): trace [1,3), profile [3,6) with a child control
    /// [4,5), and bench [8,9).
    fn sequential_tree() -> Vec<Span> {
        vec![
            span("iteration.root", 0.0, 10.0, None),
            span("trace.pass", 1.0, 3.0, Some(0)),
            span("profile.build", 3.0, 6.0, Some(0)),
            span("control.run", 4.0, 5.0, Some(2)),
            span("bench.render", 8.0, 9.0, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = self_times(&sequential_tree());
        // Children cover [1,6) and [8,9): 6 of 10 seconds.
        assert!(close(t[0], 4.0));
        assert!(close(t[1], 2.0));
        assert!(close(t[2], 2.0));
        assert!(close(t[3], 1.0));
        assert!(close(t[4], 1.0));
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("par.call", 0.0, 10.0, None),
            span("bench.item", 1.0, 7.0, Some(0)),
            span("bench.item", 2.0, 9.0, Some(0)),
        ];
        // Union of the items is [1,9).
        assert!(close(self_times(&spans)[0], 2.0));
    }

    #[test]
    fn shares_equal_self_times_without_concurrency_and_sum_to_wall() {
        let spans = sequential_tree();
        let shares = layer_shares(&spans, 0);
        assert!(close(shares["iteration"], self_times(&spans)[0]));
        assert!(close(shares["trace"], 2.0));
        assert!(close(shares["profile"], 2.0));
        assert!(close(shares["control"], 1.0));
        assert!(close(shares["bench"], 1.0));
        assert!(close(shares.values().sum::<f64>(), 10.0));
    }

    #[test]
    fn concurrent_leaves_split_the_instant() {
        // Two threads under one parallel call: trace on [0,4) and
        // control on [2,6); [2,4) is shared between them.
        let spans = vec![
            span("par.call", 0.0, 8.0, None),
            span("trace.pass", 0.0, 4.0, Some(0)),
            span("control.run", 2.0, 6.0, Some(0)),
        ];
        let shares = layer_shares(&spans, 0);
        assert!(close(shares["trace"], 3.0));
        assert!(close(shares["control"], 3.0));
        assert!(close(shares["par"], 2.0));
        assert!(close(shares.values().sum::<f64>(), 8.0));
    }

    #[test]
    fn shares_ignore_spans_of_other_trees() {
        let mut spans = sequential_tree();
        spans.push(span("mssp.policy", 0.0, 10.0, None));
        let shares = layer_shares(&spans, 0);
        assert!(!shares.contains_key("mssp"));
        assert!(close(shares.values().sum::<f64>(), 10.0));
    }

    #[test]
    fn recorder_links_parents_across_threads() {
        let rec = Recorder::default();
        rec.scope("iteration.root", None, 3, |root| {
            std::thread::scope(|s| {
                s.spawn(|| rec.scope("trace.pass", Some(root), 3, |_| ()));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "trace");
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(spans[1].run, 3);
        let text = to_json(&spans).to_string();
        let back = Json::parse(&text).expect("span JSON parses");
        assert_eq!(back.as_arr().map(<[Json]>::len), Some(2));
    }
}
