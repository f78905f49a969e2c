//! Testing the paper's Section 5 prediction about Dynamo.
//!
//! Dynamo does not monitor individual branches; instead it preemptively
//! flushes its whole fragment cache when it suspects a phase change,
//! forcing re-optimization of everything. The paper predicts: "this policy
//! will likely perform somewhere between closed-loop and open-loop
//! policies." We implement a flush policy — one-shot classification (no
//! eviction, no revisit) plus a periodic whole-table flush — and check the
//! prediction on the abstract model.

use crate::options::ExpOptions;
use crate::table::{pct, TextTable};
use rsc_control::{ControlStats, ControllerParams, ReactiveController, TransitionLogPolicy};
use rsc_trace::{spec2000, BranchRecord, InputId, Population};

/// Misspeculation rates for the three policies on one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Closed loop (baseline reactive).
    pub closed: ControlStats,
    /// Flush policy (open loop + periodic flush).
    pub flush: ControlStats,
    /// Open loop (no eviction, no revisit after first classification).
    pub open: ControlStats,
}

/// The open loop: one-shot classification, no eviction and no revisit.
fn open_loop() -> ControllerParams {
    ControllerParams::scaled()
        .without_eviction()
        .without_revisit()
}

/// The open loop with a periodic whole-table flush, fed chunk by chunk.
/// Dynamo has no per-branch reactivity: no eviction arc, and unbiased
/// fragments are reconsidered only via the flush.
pub struct FlushPolicy {
    ctl: ReactiveController,
    flush_every: u64,
    observed: u64,
    next_flush: u64,
}

impl FlushPolicy {
    /// A flush policy that flushes before every `flush_every`-th event.
    ///
    /// # Panics
    ///
    /// Panics if `flush_every` is 0.
    pub fn new(flush_every: u64) -> Self {
        assert!(flush_every > 0, "flush period must be positive");
        FlushPolicy {
            ctl: ReactiveController::builder(open_loop())
                .log_policy(TransitionLogPolicy::CountsOnly)
                .build()
                .expect("valid params"),
            flush_every,
            observed: 0,
            next_flush: flush_every,
        }
    }

    /// Observes the next chunk of the stream. The chunk is split at flush
    /// points, so each flush lands between the same two events as on the
    /// per-event path.
    pub fn observe_chunk(&mut self, mut chunk: &[BranchRecord]) {
        while !chunk.is_empty() {
            if self.observed >= self.next_flush {
                self.ctl.flush_all();
                self.next_flush += self.flush_every;
            }
            let take = (self.next_flush - self.observed).min(chunk.len() as u64) as usize;
            self.ctl.observe_chunk(&chunk[..take]);
            self.observed += take as u64;
            chunk = &chunk[take..];
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> ControlStats {
        self.ctl.stats()
    }
}

/// Runs a one-shot controller with a periodic whole-table flush.
pub fn run_flush_policy(
    population: &Population,
    events: u64,
    seed: u64,
    flush_every: u64,
) -> ControlStats {
    let mut flush = FlushPolicy::new(flush_every);
    population
        .trace(InputId::Eval, events, seed)
        .for_each_chunk(|chunk| flush.observe_chunk(chunk));
    flush.stats()
}

/// Runs all three policies over the selected benchmarks, on one generation
/// of each benchmark's stream: the closed and open loops side by side, the
/// flush policy on the same chunks. The flush period defaults to a third
/// of the run (a couple of "phase changes" — Dynamo flushes are rare
/// events, and each flush forces every branch through a fresh monitor
/// period).
pub fn run_subset(opts: &ExpOptions, names: &[&str]) -> Vec<Row> {
    crate::parallel::par_map(names.to_vec(), |name| {
        let model = spec2000::benchmark(name).expect("known benchmark");
        let pop = model.population(opts.events);
        let mut flush = FlushPolicy::new(opts.events / 3);
        let [closed, open] = super::run_side_by_side(
            [ControllerParams::scaled(), open_loop()],
            &pop,
            opts,
            |chunk| flush.observe_chunk(chunk),
        );
        Row {
            name: model.name,
            closed,
            flush: flush.stats(),
            open,
        }
    })
}

/// Runs all benchmarks.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    run_subset(opts, &spec2000::NAMES)
}

/// The paper's aggressive-speculation regime: a misspeculation costs about
/// two orders of magnitude more than a correct speculation gains.
pub const PENALTY_RATIO: f64 = 100.0;

/// Net utility of a policy under the paper's cost model:
/// `correct − 100 × incorrect` (fractions of dynamic branches).
pub fn utility(stats: &ControlStats) -> f64 {
    stats.correct_frac() - PENALTY_RATIO * stats.incorrect_frac()
}

/// Renders the three-way comparison.
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec![
        "bmark",
        "closed corr/incorr (util)",
        "flush corr/incorr (util)",
        "open corr/incorr (util)",
    ]);
    let mut between = 0usize;
    for r in rows {
        let (uc, uf, uo) = (utility(&r.closed), utility(&r.flush), utility(&r.open));
        t.row(vec![
            r.name.to_string(),
            format!(
                "{} / {} ({uc:+.2})",
                pct(r.closed.correct_frac(), 1),
                pct(r.closed.incorrect_frac(), 3)
            ),
            format!(
                "{} / {} ({uf:+.2})",
                pct(r.flush.correct_frac(), 1),
                pct(r.flush.incorrect_frac(), 3)
            ),
            format!(
                "{} / {} ({uo:+.2})",
                pct(r.open.correct_frac(), 1),
                pct(r.open.incorrect_frac(), 3)
            ),
        ]);
        if uf >= uo && uf <= uc {
            between += 1;
        }
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nflush-policy utility (correct − 100×incorrect) lies between closed \
         and open loop on {}/{} benchmarks (the paper's Section 5 prediction)\n",
        between,
        rows.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_policy_sits_between_closed_and_open() {
        // mcf and gzip have plenty of behavior-changing branches.
        let rows = run_subset(
            &ExpOptions::small().with_events(8_000_000),
            &["mcf", "gzip"],
        );
        for r in &rows {
            let (uc, uf, uo) = (utility(&r.closed), utility(&r.flush), utility(&r.open));
            assert!(
                uf > uo,
                "{}: flush utility {uf:.3} should beat open loop {uo:.3}",
                r.name
            );
            assert!(
                uf < uc,
                "{}: flush utility {uf:.3} should trail closed loop {uc:.3}",
                r.name
            );
        }
    }

    /// The per-event flush policy the chunked one replaced.
    fn per_event_flush_policy(
        population: &Population,
        events: u64,
        seed: u64,
        flush_every: u64,
    ) -> ControlStats {
        let params = ControllerParams::scaled()
            .without_eviction()
            .without_revisit();
        let mut ctl = ReactiveController::builder(params)
            .log_policy(TransitionLogPolicy::CountsOnly)
            .build()
            .expect("valid params");
        let mut next_flush = flush_every;
        for (i, r) in population.trace(InputId::Eval, events, seed).enumerate() {
            if i as u64 >= next_flush {
                ctl.flush_all();
                next_flush += flush_every;
            }
            ctl.observe(&r);
        }
        ctl.stats()
    }

    #[test]
    fn chunked_flush_policy_equals_per_event() {
        let pop = spec2000::benchmark("vortex").unwrap().population(60_000);
        // Periods below, at and across the chunk size, and one that never
        // fires.
        for flush_every in [1, 777, 4096, 20_000, 60_000] {
            for seed in [3, 11] {
                assert_eq!(
                    run_flush_policy(&pop, 60_000, seed, flush_every),
                    per_event_flush_policy(&pop, 60_000, seed, flush_every),
                    "flush every {flush_every}, seed {seed}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "flush period must be positive")]
    fn zero_flush_period_panics() {
        let pop = spec2000::benchmark("gzip").unwrap().population(1_000);
        run_flush_policy(&pop, 1_000, 1, 0);
    }
}
