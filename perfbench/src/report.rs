//! The metric tables and the one-line JSON result.

use rsc_conformance::json::Json;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
pub type MetricSpec = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// Reported by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: [MetricSpec; 5] = [
    ("wall_s", "s", Lower),
    ("events_per_s", "1/s", Higher),
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("paper_err_pp", "pp", Lower),
];

/// Reported by every traced run (`--trace 1`), on every workload. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [MetricSpec; 43] = [
    ("trace.busy_s", "s", Lower),
    ("trace.events", "count", Lower),
    ("trace.passes", "count", Lower),
    ("trace.distinct_streams", "count", Lower),
    ("profile.busy_s", "s", Lower),
    ("profile.events", "count", Lower),
    ("control.busy_s", "s", Lower),
    ("control.events", "count", Lower),
    ("control.events_per_s", "1/s", Higher),
    ("control.transitions", "count", Lower),
    ("control.misspec_per_1k_spec", "count", Lower),
    ("control.shards1.busy_s", "s", Lower),
    ("control.shards2.busy_s", "s", Lower),
    ("control.shard2_speedup", "x", Higher),
    ("mssp.busy_s", "s", Lower),
    ("mssp.baseline_s", "s", Lower),
    ("mssp.policy_s", "s", Lower),
    ("mssp.events", "count", Lower),
    ("mssp.host_ns_per_event", "ns", Lower),
    ("mssp.sim_cycles", "count", Lower),
    ("mssp.task_misspecs", "count", Lower),
    ("par.busy_s", "s", Lower),
    ("par.items", "count", Lower),
    ("par.item_p50_s", "s", Lower),
    ("par.item_max_s", "s", Lower),
    ("par.idle_s", "s", Lower),
    ("par.pool_s", "s", Lower),
    ("checkpoint.save_s", "s", Lower),
    ("checkpoint.restore_s", "s", Lower),
    ("checkpoint.bytes", "B", Lower),
    ("serve.frames", "count", Lower),
    ("serve.shed", "count", Lower),
    ("serve.restored", "count", Lower),
    ("serve.rejects", "count", Lower),
    ("serve.frame_p50_s", "s", Lower),
    ("serve.frame_p75_s", "s", Lower),
    ("serve.load_s", "s", Lower),
    ("serve.save_s", "s", Lower),
    ("bench.busy_s", "s", Lower),
    ("bench.render_s", "s", Lower),
    ("traced_wall_s", "s", Lower),
    ("unaccounted_s", "s", Lower),
    ("trace_overhead_s", "s", Lower),
];

/// The grammar every metric name follows: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Outputs checked against an oracle.
    pub attempted: u64,
    /// Outputs that did not match.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one oracle comparison.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: oracle mismatch: {what}");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Prints every metric with its unit and direction, and the failed
    /// fraction, for a reader of standard error.
    pub fn summarize(&self, table: &[MetricSpec]) {
        for &(name, unit, better) in table {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            eprintln!(
                "{name:>28} {value:>16.6} {unit:<6} ({} is better)",
                better.label()
            );
        }
        eprintln!(
            "{:>28} {:>16.6} ({} of {} checks failed)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
    }

    /// Failed over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line for the metrics in `table`. A metric the run did
    /// not set reads 0; a metric outside `table` is an error.
    pub fn to_json(&self, table: &[MetricSpec]) -> Result<Json, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !table.iter().any(|(n, _, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the reported table"));
        }
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit, _) in table {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} breaks the name grammar"));
            }
            let value = self.values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push((
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::obj([
            (
                "correct",
                Json::Bool(self.attempted > 0 && self.failed == 0),
            ),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs`, `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_follows_the_grammar() {
        for (name, unit, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        let mut names: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
    }

    #[test]
    fn grammar_rejects_bad_names() {
        for bad in ["", ".x", "-x", "a b", "a/b", "wall:s", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("control.shards1.busy_s"));
        assert!(valid_name("p-99"));
    }

    #[test]
    fn an_injected_mismatch_raises_failed_frac() {
        let mut out = Outcome::default();
        out.check(true, "first");
        out.check(true, "second");
        assert_eq!(out.failed_frac(), 0.0);
        out.check(false, "injected");
        assert_eq!(out.attempted, 3);
        assert!((out.failed_frac() - 1.0 / 3.0).abs() < 1e-12);
        let line = out.to_json(&END_TO_END).expect("renders");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn the_result_line_parses_back() {
        let mut out = Outcome::default();
        out.check(true, "ok");
        out.set("wall_s", 1.234_567_891_2);
        out.set("events_per_s", 3.5e7);
        out.set("setup_s", 0.0123);
        out.set("peak_rss_mb", 88.25);
        out.set("paper_err_pp", 6.8);
        let text = out.to_json(&END_TO_END).expect("renders").to_string();
        assert!(!text.contains('\n'));
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(1));
        let metrics = back.get("metrics").expect("metrics");
        for (name, unit, _) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        let wall = metrics.get("wall_s").and_then(|m| m.get("value"));
        assert_eq!(wall.and_then(Json::as_f64), Some(1.234_567_891_2));
    }

    #[test]
    fn unknown_or_non_finite_metrics_are_refused() {
        let mut out = Outcome::default();
        out.set("trace.busy_s", 1.0);
        assert!(out.to_json(&END_TO_END).is_err());
        let mut out = Outcome::default();
        out.set("wall_s", f64::NAN);
        assert!(out.to_json(&END_TO_END).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = spec.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, (name, unit, better)) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(better.label()),
                    "{name}"
                );
            }
        }
    }
}
