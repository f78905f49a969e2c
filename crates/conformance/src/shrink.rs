//! Deterministic counterexample minimization.
//!
//! When the differ finds a divergence over a fuzzed trace, a raw failing
//! trace of tens of thousands of events is nearly useless for debugging.
//! [`shrink`] reduces it in three phases, re-running the differential
//! case after every candidate edit and keeping only edits that preserve
//! failure:
//!
//! 1. **Truncation** — cut everything after the reported divergence
//!    index, repeatedly (the index usually moves earlier as context
//!    shrinks).
//! 2. **Prefix bisection** — binary-search the shortest failing prefix.
//! 3. **Block removal** — ddmin-style deletion of interior blocks at
//!    geometrically shrinking granularity, down to single events.
//!
//! Every phase is a pure function of its inputs, so a shrink is exactly
//! reproducible; the differ itself is deterministic, so "still fails" is
//! a stable predicate. Divergence behavior under chunked mode is not
//! perfectly monotone (removing events shifts every later chunk
//! boundary), which is why each phase keeps the last *failing* candidate
//! rather than assuming smaller is always still failing.

use crate::differ::{run_case, CaseSpec, Divergence};
use rsc_trace::BranchRecord;

/// Hard ceiling on differ invocations per shrink, so pathological cases
/// stay bounded. Each invocation replays at most the current candidate.
pub const DEFAULT_BUDGET: usize = 3_000;

/// Minimizes `trace` while `spec` keeps failing on it.
///
/// Returns the shortest failing trace found and its divergence. The
/// input must fail; the output is guaranteed to fail (it is only ever
/// replaced by a candidate that was re-checked).
///
/// # Panics
///
/// Panics if `trace` does not fail under `spec`.
pub fn shrink(spec: &CaseSpec, trace: &[BranchRecord]) -> (Vec<BranchRecord>, Divergence) {
    shrink_with_budget(spec, trace, DEFAULT_BUDGET)
}

/// [`shrink`] with an explicit differ-invocation budget.
///
/// # Panics
///
/// Panics if `trace` does not fail under `spec`.
pub fn shrink_with_budget(
    spec: &CaseSpec,
    trace: &[BranchRecord],
    budget: usize,
) -> (Vec<BranchRecord>, Divergence) {
    shrink_by(
        trace,
        budget,
        |candidate| run_case(spec, candidate).err(),
        |div| div.index,
    )
}

/// Minimizes `trace` while an arbitrary failure predicate keeps holding.
///
/// This is the generic core of [`shrink`]: `fails` returns `Some`
/// evidence when a candidate still fails (a [`Divergence`] for the
/// differ, a misspeculation budget overrun for the fuzzer's worst-case
/// minimizer, …), and `index_of` maps that evidence to the event index
/// it anchors to — used by the truncation phase; return `trace.len()`
/// if the failure has no meaningful position. `fails` is invoked at
/// most `budget` times after the initial check.
///
/// # Panics
///
/// Panics if `trace` does not fail the predicate.
pub fn shrink_by<E>(
    trace: &[BranchRecord],
    budget: usize,
    mut fails: impl FnMut(&[BranchRecord]) -> Option<E>,
    index_of: impl Fn(&E) -> usize,
) -> (Vec<BranchRecord>, E) {
    let runs = std::cell::Cell::new(0usize);
    let mut fails = |candidate: &[BranchRecord]| -> Option<E> {
        runs.set(runs.get() + 1);
        fails(candidate)
    };
    let runs = || runs.get();

    let mut best = trace.to_vec();
    let mut div = fails(&best).expect("shrink requires a failing trace");

    // Phase 1: truncate to the divergence point until it stops moving.
    loop {
        let cut = (index_of(&div) + 1).min(best.len());
        if cut >= best.len() || runs() >= budget {
            break;
        }
        match fails(&best[..cut]) {
            Some(d) => {
                best.truncate(cut);
                div = d;
            }
            None => break, // end-state divergence needed the tail; keep it
        }
    }

    // Phase 2: binary-search the shortest failing prefix.
    let (mut lo, mut hi) = (0usize, best.len());
    while lo + 1 < hi && runs() < budget {
        let mid = lo + (hi - lo) / 2;
        match fails(&best[..mid]) {
            Some(d) => {
                hi = mid;
                div = d;
            }
            None => lo = mid,
        }
    }
    best.truncate(hi);

    // Phase 3: ddmin-style interior block removal.
    let mut block = (best.len() / 2).max(1);
    while block >= 1 && runs() < budget {
        let mut i = 0;
        while i + block <= best.len() && runs() < budget {
            let mut candidate = Vec::with_capacity(best.len() - block);
            candidate.extend_from_slice(&best[..i]);
            candidate.extend_from_slice(&best[i + block..]);
            if candidate.is_empty() {
                i += block;
                continue;
            }
            match fails(&candidate) {
                Some(d) => {
                    best = candidate;
                    div = d;
                    // Do not advance: the next block slid into position i.
                }
                None => i += block,
            }
        }
        if block == 1 {
            break;
        }
        block /= 2;
    }

    (best, div)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differ::Mode;
    use crate::fault::Fault;
    use rsc_control::{ControllerParams, EvictionMode, Policy, Revisit};
    use rsc_trace::Scenario;

    fn tiny() -> ControllerParams {
        let mut p = ControllerParams::scaled();
        p.monitor_period = 10;
        p.eviction = EvictionMode::Counter {
            up: 50,
            down: 1,
            threshold: 100,
        };
        p.revisit = Revisit::After(20);
        p.oscillation_limit = Some(3);
        p.optimization_latency = 0;
        p
    }

    fn faulty_spec(fault: Fault, mode: Mode) -> CaseSpec {
        CaseSpec {
            subject: fault.apply(tiny()),
            reference: tiny(),
            mode,
            resilience: None,
            policy: Policy::PaperFsm,
        }
    }

    #[test]
    fn shrunk_trace_still_fails_and_is_much_smaller() {
        let spec = faulty_spec(Fault::HysteresisOffByOne, Mode::PerEvent);
        let trace = Scenario::HysteresisStraddle {
            warmup: 10,
            period: 2,
        }
        .generate(20_000, 7);
        assert!(run_case(&spec, &trace).is_err());
        let (small, div) = shrink(&spec, &trace);
        assert!(
            run_case(&spec, &small).is_err(),
            "minimized trace must fail"
        );
        assert!(
            small.len() <= 1_000,
            "expected a short counterexample, got {} events",
            small.len()
        );
        assert!(div.index <= small.len());
    }

    #[test]
    fn shrinking_is_deterministic() {
        let spec = faulty_spec(Fault::MonitorWindowOffByOne, Mode::PerEvent);
        let trace = Scenario::ThresholdOscillator { window: 10 }.generate(8_000, 3);
        let a = shrink(&spec, &trace);
        let b = shrink(&spec, &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_mode_shrinks_too() {
        let spec = faulty_spec(Fault::HysteresisOffByOne, Mode::Chunked { seed: 11 });
        let trace = Scenario::HysteresisStraddle {
            warmup: 10,
            period: 2,
        }
        .generate(20_000, 7);
        assert!(run_case(&spec, &trace).is_err());
        let (small, _) = shrink(&spec, &trace);
        assert!(run_case(&spec, &small).is_err());
        assert!(small.len() <= 1_000, "got {} events", small.len());
    }

    #[test]
    fn shrink_by_minimizes_against_a_custom_predicate() {
        // Fuzzer-style worst-case minimization: "still fails" means the
        // candidate still contains at least 5 not-taken executions.
        let trace = Scenario::UniformRandom { branches: 4 }.generate(5_000, 2);
        let misses = |t: &[rsc_trace::BranchRecord]| t.iter().filter(|r| !r.taken).count();
        assert!(misses(&trace) >= 5);
        let (small, count) = shrink_by(
            &trace,
            DEFAULT_BUDGET,
            |cand| {
                let m = misses(cand);
                (m >= 5).then_some(m)
            },
            |_| trace.len(),
        );
        assert_eq!(count, 5, "minimal witness keeps exactly the budget");
        assert_eq!(small.len(), 5, "everything else is removed");
    }

    #[test]
    #[should_panic(expected = "shrink requires a failing trace")]
    fn shrinking_a_passing_trace_panics() {
        let spec = CaseSpec {
            subject: tiny(),
            reference: tiny(),
            mode: Mode::PerEvent,
            resilience: None,
            policy: Policy::PaperFsm,
        };
        let trace = Scenario::UniformRandom { branches: 4 }.generate(500, 1);
        shrink(&spec, &trace);
    }
}
