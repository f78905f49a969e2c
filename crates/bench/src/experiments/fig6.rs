//! Figure 6 — instantaneous misprediction rate when a branch leaves the
//! biased state.
//!
//! The paper reports two dominant exit shapes: softening and perfect
//! reversal, with over half of exits showing original-direction bias below
//! 30% in the transition window and ~20% perfectly reversed.

use crate::options::ExpOptions;
use crate::table::{pct, TextTable};
use rsc_control::analysis::transition::{self, EvictionWindow, ExitBehaviorSummary};
use rsc_control::ControllerParams;
use rsc_trace::{spec2000, InputId};

/// Captured windows plus the aggregate Figure 6 series.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// All captured eviction windows across benchmarks.
    pub windows: Vec<EvictionWindow>,
    /// Mean misprediction rate by post-eviction offset.
    pub by_offset: Vec<f64>,
    /// Headline fractions.
    pub summary: ExitBehaviorSummary,
}

/// Window length (the paper captures up to 64 executions).
pub const WINDOW: usize = 64;

/// Runs the experiment across all benchmarks, one model per worker;
/// the windows keep benchmark order.
pub fn run(opts: &ExpOptions) -> Fig6Data {
    let windows: Vec<EvictionWindow> = crate::parallel::par_map(spec2000::all(), |model| {
        let pop = model.population(opts.events);
        transition::eviction_windows(
            ControllerParams::scaled(),
            pop.trace(InputId::Eval, opts.events, opts.seed),
            WINDOW,
        )
        .expect("valid params")
    })
    .into_iter()
    .flatten()
    .collect();
    let by_offset = transition::mean_misprediction_by_offset(&windows, WINDOW);
    let summary = transition::summarize_exits(&windows);
    Fig6Data {
        windows,
        by_offset,
        summary,
    }
}

/// Renders the offset series and the summary fractions.
pub fn render(data: &Fig6Data) -> String {
    let mut t = TextTable::new(vec!["offset after eviction", "mean misprediction rate"]);
    for (i, &rate) in data.by_offset.iter().enumerate() {
        if i % 8 == 0 || i == data.by_offset.len() - 1 {
            t.row(vec![i.to_string(), pct(rate, 1)]);
        }
    }
    let mut out = t.render();
    out.push('\n');
    out.push_str(&format!(
        "exits captured: {}\n\
         original-direction bias < 30% (paper: >50%): {}\n\
         perfectly reversed (paper: ~20%): {}\n\
         merely softened (bias >= 50%): {}\n",
        data.summary.exits,
        pct(data.summary.strongly_degraded_frac, 1),
        pct(data.summary.reversed_frac, 1),
        pct(data.summary.softened_frac, 1),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_exits_with_mixed_shapes() {
        let data = run(&ExpOptions::small().with_events(2_000_000));
        assert!(data.summary.exits > 10, "exits: {}", data.summary.exits);
        // Both shapes must be present.
        assert!(data.summary.reversed_frac > 0.0);
        assert!(data.summary.softened_frac > 0.0);
        // The transition window shows elevated misprediction.
        let mean: f64 = data.by_offset.iter().sum::<f64>() / data.by_offset.len() as f64;
        assert!(mean > 0.2, "mean transition misprediction {mean}");
    }

    #[test]
    fn render_reports_fractions() {
        let data = run(&ExpOptions::small().with_events(1_000_000));
        let s = render(&data);
        assert!(s.contains("exits captured"));
        assert!(s.contains("perfectly reversed"));
    }
}
