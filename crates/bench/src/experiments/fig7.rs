//! Figure 7 — lack of reactivity severely impacts MSSP performance.
//!
//! Four MSSP configurations per benchmark, normalized to a plain
//! superscalar baseline `B = 1.0`:
//!
//! * `c` — closed loop (eviction arc present), 1k-execution monitor;
//! * `o` — open loop (no eviction arc), 1k monitor;
//! * `C` — closed loop, 10k monitor;
//! * `O` — open loop, 10k monitor.
//!
//! The paper reports the open-loop policy trailing the closed-loop one by
//! ~18% (11% with the longer monitor), with some benchmarks dropping below
//! the superscalar baseline.

use crate::options::ExpOptions;
use crate::table::TextTable;
use rsc_control::ControllerParams;
use rsc_mssp::{machine, MsspParams, MsspResult};
use rsc_trace::{spec2000, InputId};

/// Normalized performance of the four configurations for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Closed loop, short monitor (`c`).
    pub closed: f64,
    /// Open loop, short monitor (`o`).
    pub open: f64,
    /// Closed loop, 10× monitor (`C`).
    pub closed_long: f64,
    /// Open loop, 10× monitor (`O`).
    pub open_long: f64,
}

/// MSSP experiments use a fraction of the abstract-model event budget: the
/// timing simulation executes every instruction three times (baseline,
/// master, checker), and the paper's own MSSP runs are short (200M
/// instructions).
pub fn mssp_events(opts: &ExpOptions) -> u64 {
    (opts.events / 8).max(250_000)
}

/// Runs the four configurations over all benchmarks.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    run_subset(opts, &spec2000::NAMES)
}

/// The controllers of `c`, `o`, `C` and `O`, in that order.
pub fn controllers() -> [ControllerParams; 4] {
    let base_ctl = ControllerParams::scaled();
    // The paper extends the monitor from 1k to 10k instances; relative to
    // per-branch execution counts at this scale, a 4x extension occupies
    // the same fraction of a branch's lifetime.
    let long_monitor = base_ctl.monitor_period * 4;
    [
        base_ctl,
        base_ctl.without_eviction(),
        base_ctl.with_monitor_period(long_monitor),
        base_ctl
            .without_eviction()
            .with_monitor_period(long_monitor),
    ]
}

/// Runs the four configurations over selected benchmarks.
pub fn run_subset(opts: &ExpOptions, names: &[&str]) -> Vec<Row> {
    let events = mssp_events(opts);
    // c, o, C, O: one master each on a single program stream.
    let params = controllers().map(|ctl| MsspParams::new().with_controller(ctl));
    crate::parallel::par_map(names.to_vec(), |name| {
        let model = spec2000::benchmark(name).expect("known benchmark");
        let pop = model.population(events);
        let r = machine::run_mssp_many(&pop, InputId::Eval, events, opts.seed, true, &params);
        let perf = |r: &MsspResult| r.baseline_cycles as f64 / r.mssp_cycles as f64;
        Row {
            name: model.name,
            closed: perf(&r[0]),
            open: perf(&r[1]),
            closed_long: perf(&r[2]),
            open_long: perf(&r[3]),
        }
    })
}

/// Mean open-vs-closed performance gaps `(short monitor, long monitor)`.
pub fn gaps(rows: &[Row]) -> (f64, f64) {
    let n = rows.len().max(1) as f64;
    let short: f64 = rows.iter().map(|r| 1.0 - r.open / r.closed).sum::<f64>() / n;
    let long: f64 = rows
        .iter()
        .map(|r| 1.0 - r.open_long / r.closed_long)
        .sum::<f64>()
        / n;
    (short, long)
}

/// Renders the normalized-performance table.
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec!["bmark", "B", "c", "o", "C", "O"]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            "1.000".to_string(),
            format!("{:.3}", r.closed),
            format!("{:.3}", r.open),
            format!("{:.3}", r.closed_long),
            format!("{:.3}", r.open_long),
        ]);
    }
    let (short, long) = gaps(rows);
    let mut out = t.render();
    out.push_str(&format!(
        "\nmean open-loop gap: {:.1}% with short monitor (paper ~18%), \
         {:.1}% with the extended monitor (paper ~11%)\n",
        short * 100.0,
        long * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_trails_closed_loop_on_changing_benchmarks() {
        let rows = run_subset(
            &ExpOptions::small().with_events(16_000_000),
            &["mcf", "crafty"],
        );
        for r in &rows {
            assert!(
                r.open < r.closed,
                "{}: open {} should trail closed {}",
                r.name,
                r.open,
                r.closed
            );
        }
    }

    #[test]
    fn closed_loop_beats_superscalar_baseline() {
        let rows = run_subset(&ExpOptions::small().with_events(16_000_000), &["vortex"]);
        assert!(rows[0].closed > 1.0, "closed loop {}", rows[0].closed);
    }

    #[test]
    fn render_reports_gaps() {
        let rows = run_subset(&ExpOptions::small().with_events(4_000_000), &["gzip"]);
        let s = render(&rows);
        assert!(s.contains("mean open-loop gap"));
        assert!(s.contains("gzip"));
    }
}
