//! The measurement skeleton every workload shares: repeated set-up, the
//! timed loop, and the untraced/traced split.

use crate::affinity::Affinity;
use crate::report::{median, peak_rss_mb, Outcome};
use crate::span::{layer_shares, Recorder, SpanId};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Before the first iteration, set-up repeats for this many host seconds
/// in the fresh process, so that a set-up of a few milliseconds is sampled
/// hundreds of times.
const SETUP_SECONDS: f64 = 1.0;

/// Layers whose wall-time share a traced run reports as `<layer>.busy_s`.
/// The root span's own share is `unaccounted_s`.
const LAYERS: [(&str, &str); 6] = [
    ("trace", "trace.busy_s"),
    ("profile", "profile.busy_s"),
    ("control", "control.busy_s"),
    ("mssp", "mssp.busy_s"),
    ("par", "par.busy_s"),
    ("bench", "bench.busy_s"),
];

/// Name of the span that encloses one traced iteration.
pub const ROOT: &str = "iteration";

/// What a run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Thread cap for every parallel layer: the host's core count.
    pub threads: usize,
    /// Where traced runs write their spans: `perfbench/out`.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn new(seed: u64, seconds: u64, trace: bool) -> Result<Ctx, String> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        rsc_util::parallel::set_max_threads(threads);
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
        Ok(Ctx {
            seed,
            budget: Duration::from_secs(seconds),
            trace,
            threads,
            out_dir,
        })
    }
}

/// Runs a traced code path outside the timed phase, under a throwaway
/// recorder: for oracles that rebuild results from layer calls.
pub fn unrecorded<T>(f: impl FnOnce(&Recorder, SpanId) -> T) -> T {
    let rec = Recorder::default();
    rec.scope(ROOT, None, 0, |root| f(&rec, root))
}

/// One traced iteration.
pub struct Traced<T> {
    pub wall: f64,
    pub run: u32,
    pub root: SpanId,
    pub output: T,
}

/// Everything the timed phase produced.
pub struct Measured<S, T> {
    /// Seconds of each set-up repetition, one list per CPU the set-up was
    /// pinned to (a single list when the CPU mask cannot be read).
    pub setups: Vec<Vec<f64>>,
    /// What the last set-up built.
    pub state: S,
    /// Wall seconds of each untraced iteration.
    pub walls: Vec<f64>,
    /// Output of each untraced iteration.
    pub outputs: Vec<T>,
    /// Traced iterations (traced runs only).
    pub traced: Vec<Traced<T>>,
    pub recorder: Recorder,
    /// Peak resident memory of set-up and the first iteration, as one
    /// invocation of the program would hold it. Over whole runs the peak
    /// spread by 0.15–0.22 (quartile distance over median) across seeds on
    /// `abstract-sweep`; over the first iteration, by 0.03.
    pub peak_rss_mb: Result<f64, String>,
}

impl<S, T> Measured<S, T> {
    /// `setup_s`: the median over CPUs of each CPU's median set-up time.
    pub fn setup_s(&self) -> f64 {
        let per_cpu: Vec<f64> = self
            .setups
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect();
        median(&per_cpu)
    }

    /// The traced iteration with the median wall time.
    pub fn median_traced(&self) -> &Traced<T> {
        let mut order: Vec<&Traced<T>> = self.traced.iter().collect();
        order.sort_by(|a, b| a.wall.total_cmp(&b.wall));
        order[order.len() / 2]
    }
}

/// The timed phase, in rounds. Set-up runs first, repeated for
/// [`SETUP_SECONDS`]. Each set-up runs pinned to the next of the CPUs the
/// process may use, in turn, so every CPU is sampled. Each round then runs `plain` on the state the last
/// set-up built; traced runs then run `traced`, which records its layer
/// calls under the root span it is given. Between rounds the state is
/// dropped and built again, so that a long set-up is also sampled across
/// the whole run, like the iterations. A new round starts only while the
/// budget, which includes set-up, has room for one more of the longest so
/// far, and there is always at least one.
pub fn measure<S, T>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> S,
    mut plain: impl FnMut(&S) -> T,
    mut traced: impl FnMut(&S, &Recorder, u32, SpanId) -> T,
) -> Measured<S, T> {
    let recorder = Recorder::default();
    let (mut walls, mut outputs, mut traced_runs) = (Vec::new(), Vec::new(), Vec::new());
    let mask = Affinity::current();
    let cpus: Vec<Option<usize>> = match &mask {
        Some(m) if !m.cpus().is_empty() => m.cpus().into_iter().map(Some).collect(),
        _ => vec![None],
    };
    let mut setups = vec![Vec::new(); cpus.len()];
    let mut reps = 0;
    let mut state = None;
    let mut rebuild = |state: &mut Option<S>| {
        // The old state goes first, so that peak memory holds one.
        drop(state.take());
        let slot = reps % cpus.len();
        reps += 1;
        let pinned = cpus[slot].is_some_and(|cpu| Affinity::only(cpu).apply());
        let t = Instant::now();
        *state = Some(std::hint::black_box(setup()));
        setups[slot].push(t.elapsed().as_secs_f64());
        if pinned {
            let restored = mask.as_ref().is_some_and(Affinity::apply);
            assert!(restored, "cannot restore the CPU mask after set-up");
        }
    };
    let start = Instant::now();
    let mut initial = 0;
    while initial < cpus.len() || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        rebuild(&mut state);
        initial += 1;
    }
    let mut longest = 0.0f64;
    let mut first_peak = None;
    loop {
        let round = Instant::now();
        let current = state.as_ref().expect("set-up ran");
        let t = Instant::now();
        outputs.push(plain(current));
        walls.push(t.elapsed().as_secs_f64());
        first_peak.get_or_insert_with(peak_rss_mb);
        if ctx.trace {
            let run = traced_runs.len() as u32;
            let t = Instant::now();
            let (root, output) = recorder.scope(ROOT, None, run, |root| {
                (root, traced(current, &recorder, run, root))
            });
            traced_runs.push(Traced {
                wall: t.elapsed().as_secs_f64(),
                run,
                root,
                output,
            });
        }
        let next = longest.max(round.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + next > ctx.budget.as_secs_f64() {
            break;
        }
        rebuild(&mut state);
        longest = longest.max(round.elapsed().as_secs_f64());
    }
    Measured {
        setups,
        state: state.expect("set-up ran"),
        walls,
        outputs,
        traced: traced_runs,
        recorder,
        peak_rss_mb: first_peak.expect("one iteration ran"),
    }
}

/// Sets the metrics every run reports: the end-to-end set on untraced
/// runs; the layer shares, `unaccounted_s`, `traced_wall_s` and
/// `trace_overhead_s` on traced runs, whose spans are written to
/// `out/spans-<workload>.json`.
pub fn finish<S, T>(
    ctx: &Ctx,
    workload: &str,
    m: &Measured<S, T>,
    events_per_iteration: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    if !ctx.trace {
        let wall = median(&m.walls);
        out.set("wall_s", wall);
        out.set("events_per_s", events_per_iteration as f64 / wall);
        out.set("setup_s", m.setup_s());
        out.set("peak_rss_mb", m.peak_rss_mb.clone()?);
        return Ok(());
    }
    let spans = m.recorder.spans();
    let chosen = m.median_traced();
    let shares = layer_shares(&spans, chosen.root);
    for (layer, metric) in LAYERS {
        out.set(metric, shares.get(layer).copied().unwrap_or(0.0));
    }
    out.set("unaccounted_s", shares.get(ROOT).copied().unwrap_or(0.0));
    out.set("traced_wall_s", spans[chosen.root].duration());
    let traced_walls: Vec<f64> = m.traced.iter().map(|t| t.wall).collect();
    out.set("trace_overhead_s", median(&traced_walls) - median(&m.walls));
    let path = ctx.out_dir.join(format!("spans-{workload}.json"));
    std::fs::write(&path, crate::span::to_json(&spans).to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Sums the durations of the spans named `name` in traced run `run`.
pub fn span_seconds<S, T>(m: &Measured<S, T>, run: u32, name: &str) -> f64 {
    span_durations(m, run, name).iter().sum()
}

/// Durations of the spans named `name` in traced run `run`.
pub fn span_durations<S, T>(m: &Measured<S, T>, run: u32, name: &str) -> Vec<f64> {
    m.recorder
        .spans()
        .iter()
        .filter(|s| s.run == run && s.name == name)
        .map(|s| s.duration())
        .collect()
}
