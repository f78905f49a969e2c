//! Figure 8 — performance is insensitive to (re)optimization latency.
//!
//! Closed-loop MSSP with three optimization latencies; the paper reports
//! less than 2% difference between 0, 10^5, and 10^6 cycles on 200M-cycle
//! runs. Our MSSP runs are ~15× shorter, so the swept latencies are scaled
//! by the same factor (0 / 10^4 / 10^5 cycles) — the same fraction of the
//! run the paper's values occupy.

use crate::experiments::fig7::mssp_events;
use crate::options::ExpOptions;
use crate::table::TextTable;
use rsc_control::ControllerParams;
use rsc_mssp::{machine, MsspParams};
use rsc_trace::{spec2000, InputId};

/// The latencies swept (in cycles ≈ instructions at IPC ≈ 1), scaled from
/// the paper's 0 / 10^5 / 10^6 by the run-length ratio.
pub const LATENCIES: [u64; 3] = [0, 10_000, 100_000];

/// Normalized performance at each latency for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Normalized performance, one entry per [`LATENCIES`] value.
    pub perf: [f64; 3],
}

/// Runs the latency sweep over all benchmarks.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    run_subset(opts, &spec2000::NAMES)
}

/// Runs the latency sweep over selected benchmarks.
pub fn run_subset(opts: &ExpOptions, names: &[&str]) -> Vec<Row> {
    let events = mssp_events(opts);
    // One master per latency on a single program stream.
    let params = LATENCIES
        .map(|lat| MsspParams::new().with_controller(ControllerParams::scaled().with_latency(lat)));
    crate::parallel::par_map(names.to_vec(), |name| {
        let model = spec2000::benchmark(name).expect("known benchmark");
        let pop = model.population(events);
        let r = machine::run_mssp_many(&pop, InputId::Eval, events, opts.seed, true, &params);
        Row {
            name: model.name,
            perf: [0, 1, 2].map(|i| r[i].baseline_cycles as f64 / r[i].mssp_cycles as f64),
        }
    })
}

/// The worst relative deviation from the zero-latency configuration.
pub fn max_sensitivity(rows: &[Row]) -> f64 {
    rows.iter()
        .flat_map(|r| {
            r.perf[1..]
                .iter()
                .map(move |&p| (1.0 - p / r.perf[0]).abs())
        })
        .fold(0.0, f64::max)
}

/// Renders the latency-sweep table.
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec!["bmark", "B", "lat 0", "lat 1e4", "lat 1e5"]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            "1.000".to_string(),
            format!("{:.3}", r.perf[0]),
            format!("{:.3}", r.perf[1]),
            format!("{:.3}", r.perf[2]),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nmax latency sensitivity: {:.1}% (paper: <2%)\n",
        max_sensitivity(rows) * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_changes_performance_little() {
        let rows = run_subset(
            &ExpOptions::small().with_events(16_000_000),
            &["twolf", "gzip"],
        );
        let s = max_sensitivity(&rows);
        assert!(s < 0.10, "latency sensitivity {s}");
    }

    #[test]
    fn render_reports_sensitivity() {
        let rows = run_subset(&ExpOptions::small().with_events(4_000_000), &["eon"]);
        let s = render(&rows);
        assert!(s.contains("max latency sensitivity"));
    }
}
