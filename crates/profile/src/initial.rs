//! Initial-behavior training: predicting a branch's lifetime bias from its
//! first N executions (the paper's Figure 2 "+" points).

use crate::evaluate::SpecOutcome;
use crate::profile::BranchProfile;
use crate::select::select;
use rsc_trace::{BranchRecord, Direction};

/// Builds a profile from only the first `n` executions of each branch.
///
/// The rest of the trace is consumed (so instruction/event totals remain
/// meaningful) but does not contribute to any branch's counts — exactly the
/// information available to a system that trains on initial behavior.
///
/// # Examples
///
/// ```
/// use rsc_trace::{spec2000, InputId};
/// use rsc_profile::initial;
///
/// let pop = spec2000::benchmark("gap").unwrap().population(30_000);
/// let p = initial::initial_profile(pop.trace(InputId::Eval, 30_000, 1), 100);
/// // No branch accumulates more than 100 profiled executions.
/// for i in 0..p.len() {
///     assert!(p.executions(i) <= 100);
/// }
/// ```
pub fn initial_profile<I: IntoIterator<Item = BranchRecord>>(trace: I, n: u64) -> BranchProfile {
    let mut profile = BranchProfile::new();
    let mut execs: Vec<u64> = Vec::new();
    for r in trace {
        let idx = r.branch.index();
        if idx >= execs.len() {
            execs.resize(idx + 1, 0);
        }
        if execs[idx] < n {
            execs[idx] += 1;
            profile.record(&r);
        }
    }
    profile
}

/// Bias threshold of the initial-behavior sets (the paper's 99%).
const THRESHOLD: f64 = 0.99;

/// Initial-behavior training and its evaluation fused into one streaming
/// consumer.
///
/// Fed a trace chunk by chunk ([`record_chunk`](Self::record_chunk)), its
/// [`outcome`](Self::outcome) equals
///
/// ```text
/// evaluate_after_training(
///     &SpeculationSet::from_profile(&initial_profile(trace, n), 0.99, n.min(100)),
///     trace,
///     n,
/// )
/// ```
///
/// on one generation of the trace instead of two. A branch's decision
/// depends only on its own first `n` executions, so the consumer counts
/// them, fixes the decision at the `n`-th through the same selection rule
/// as [`SpeculationSet::from_profile`](crate::SpeculationSet::from_profile),
/// and scores only the executions after it. A decision taken at the
/// `n`-th execution always has at least `n.min(100)` executions behind
/// it, so that minimum never filters anything here.
///
/// # Examples
///
/// ```
/// use rsc_trace::{spec2000, InputId};
/// use rsc_profile::{evaluate, initial, SpeculationSet};
///
/// let pop = spec2000::benchmark("gap").unwrap().population(30_000);
/// let trace = || pop.trace(InputId::Eval, 30_000, 1);
/// let mut fused = initial::InitialBehavior::new(100);
/// trace().for_each_chunk(|chunk| fused.record_chunk(chunk));
///
/// let set = SpeculationSet::from_profile(&initial::initial_profile(trace(), 100), 0.99, 100);
/// assert_eq!(fused.outcome(), evaluate::evaluate_after_training(&set, trace(), 100));
/// ```
#[derive(Debug, Clone)]
pub struct InitialBehavior {
    training_execs: u64,
    branches: Vec<Trainee>,
    outcome: SpecOutcome,
}

/// One branch's training state.
#[derive(Debug, Clone, Copy, Default)]
struct Trainee {
    /// Executions so far, stopping at the training length.
    execs: u64,
    /// Taken outcomes among those executions.
    taken: u64,
    /// The decision, fixed at the last training execution.
    decision: Option<Direction>,
}

impl InitialBehavior {
    /// A consumer that trains each branch on its first `training_execs`
    /// executions and selects it if its bias over them is at least 99%.
    pub fn new(training_execs: u64) -> Self {
        InitialBehavior {
            training_execs,
            branches: Vec::new(),
            outcome: SpecOutcome::default(),
        }
    }

    /// Consumes the next chunk of the trace.
    pub fn record_chunk(&mut self, records: &[BranchRecord]) {
        let Some(max_idx) = records.iter().map(|r| r.branch.index()).max() else {
            return;
        };
        if max_idx >= self.branches.len() {
            self.branches.resize(max_idx + 1, Trainee::default());
        }
        let n = self.training_execs;
        let mut out = self.outcome;
        for r in records {
            out.instructions = out.instructions.max(r.instr);
            let b = &mut self.branches[r.branch.index()];
            if b.execs < n {
                b.execs += 1;
                b.taken += u64::from(r.taken);
                if b.execs == n {
                    b.decision = select(n, b.taken, THRESHOLD, 1);
                }
            } else if let Some(dir) = b.decision {
                if dir.matches(r.taken) {
                    out.correct += 1;
                } else {
                    out.incorrect += 1;
                }
            }
        }
        out.events += records.len() as u64;
        self.outcome = out;
    }

    /// The outcome over everything consumed so far: executions past each
    /// branch's training window, scored against its decision.
    pub fn outcome(&self) -> SpecOutcome {
        self.outcome
    }
}

/// The paper's five initial-training lengths (1k, 10k, 100k, 300k, 1M
/// executions).
pub const PAPER_TRAINING_LENGTHS: [u64; 5] = [1_000, 10_000, 100_000, 300_000, 1_000_000];

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::BranchId;

    fn rec(b: u32, taken: bool, instr: u64) -> BranchRecord {
        BranchRecord {
            branch: BranchId::new(b),
            taken,
            instr,
        }
    }

    #[test]
    fn caps_per_branch_executions() {
        let trace: Vec<_> = (0..100).map(|i| rec(0, true, i)).collect();
        let p = initial_profile(trace, 10);
        assert_eq!(p.executions(0), 10);
    }

    #[test]
    fn captures_initial_not_overall_bias() {
        // Taken for first 10, then not-taken for 90: initial profile with
        // n=10 sees a 100% taken-biased branch.
        let trace: Vec<_> = (0..100).map(|i| rec(0, i < 10, i)).collect();
        let p = initial_profile(trace, 10);
        assert_eq!(p.bias(0), Some(1.0));
        assert_eq!(p.taken(0), 10);
    }

    #[test]
    fn independent_caps_per_branch() {
        let mut trace = Vec::new();
        for i in 0..20 {
            trace.push(rec(0, true, 2 * i));
            trace.push(rec(1, false, 2 * i + 1));
        }
        let p = initial_profile(trace, 5);
        assert_eq!(p.executions(0), 5);
        assert_eq!(p.executions(1), 5);
    }

    #[test]
    fn zero_length_training_profiles_nothing() {
        let trace = vec![rec(0, true, 1)];
        let p = initial_profile(trace, 0);
        assert_eq!(p.executions(0), 0);
    }

    #[test]
    fn paper_training_lengths_are_increasing() {
        for w in PAPER_TRAINING_LENGTHS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
