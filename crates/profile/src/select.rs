//! Static speculation sets: which branches to speculate, and in which
//! direction.

use crate::profile::{bias_of, majority_of, BranchProfile};
use rsc_trace::{BranchId, Direction};

/// A static decision table: for each branch, an optional speculated
/// direction.
///
/// This is what a non-reactive (open-loop) control technique produces once
/// and never revises — the paper's Section 2.2 baselines.
///
/// # Examples
///
/// ```
/// use rsc_trace::{spec2000, InputId};
/// use rsc_profile::{BranchProfile, SpeculationSet};
///
/// let pop = spec2000::benchmark("gzip").unwrap().population(50_000);
/// let profile = BranchProfile::from_trace(pop.trace(InputId::Eval, 50_000, 1));
/// let set = SpeculationSet::from_profile(&profile, 0.99, 1);
/// assert!(set.speculated_count() > 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpeculationSet {
    decisions: Vec<Option<Direction>>,
}

impl SpeculationSet {
    /// Creates an empty set (speculates on nothing).
    pub fn new() -> Self {
        SpeculationSet::default()
    }

    /// Selects every branch whose bias meets `threshold` over at least
    /// `min_execs` profiled executions, speculating in its majority
    /// direction.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0.5, 1.0]`.
    pub fn from_profile(profile: &BranchProfile, threshold: f64, min_execs: u64) -> Self {
        assert!(
            threshold > 0.5 && threshold <= 1.0,
            "threshold must be in (0.5, 1.0], got {threshold}"
        );
        let decisions = (0..profile.len())
            .map(|i| {
                select(
                    profile.executions(i),
                    profile.taken(i),
                    threshold,
                    min_execs,
                )
            })
            .collect();
        SpeculationSet { decisions }
    }

    /// Sets the decision for one branch (used by tests and custom policies).
    pub fn set(&mut self, branch: BranchId, dir: Option<Direction>) {
        let idx = branch.index();
        if idx >= self.decisions.len() {
            self.decisions.resize(idx + 1, None);
        }
        self.decisions[idx] = dir;
    }

    /// The speculated direction for `branch`, if any.
    pub fn decision(&self, branch: BranchId) -> Option<Direction> {
        self.decisions.get(branch.index()).copied().flatten()
    }

    /// Number of branch slots.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Number of branches selected for speculation.
    pub fn speculated_count(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_some()).count()
    }

    /// Iterates over `(BranchId, Direction)` of selected branches.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, Direction)> + '_ {
        self.decisions
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|dir| (BranchId::new(i as u32), dir)))
    }
}

/// The selection rule for one branch with `taken` of `executions`
/// profiled outcomes: speculate in the majority direction if the branch
/// has at least `min_execs` (and at least one) executions and its bias
/// meets `threshold`.
///
/// [`SpeculationSet::from_profile`] and the fused initial-behavior
/// consumer ([`crate::initial::InitialBehavior`]) both decide through
/// this one function, so they agree bit for bit.
pub(crate) fn select(
    executions: u64,
    taken: u64,
    threshold: f64,
    min_execs: u64,
) -> Option<Direction> {
    match bias_of(executions, taken) {
        Some(bias) if executions >= min_execs && bias >= threshold => {
            majority_of(executions, taken)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::BranchRecord;

    fn profile_of(events: &[(u32, bool)]) -> BranchProfile {
        BranchProfile::from_trace(events.iter().enumerate().map(|(i, &(b, t))| BranchRecord {
            branch: BranchId::new(b),
            taken: t,
            instr: i as u64,
        }))
    }

    #[test]
    fn selects_only_biased_branches() {
        // Branch 0: 100% taken (4 execs). Branch 1: 50/50.
        let p = profile_of(&[
            (0, true),
            (0, true),
            (0, true),
            (0, true),
            (1, true),
            (1, false),
        ]);
        let set = SpeculationSet::from_profile(&p, 0.99, 1);
        assert_eq!(set.decision(BranchId::new(0)), Some(Direction::Taken));
        assert_eq!(set.decision(BranchId::new(1)), None);
        assert_eq!(set.speculated_count(), 1);
    }

    #[test]
    fn min_execs_filters_cold_branches() {
        let p = profile_of(&[(0, true), (1, true), (1, true), (1, true)]);
        let set = SpeculationSet::from_profile(&p, 0.99, 2);
        assert_eq!(set.decision(BranchId::new(0)), None, "one exec is too few");
        assert_eq!(set.decision(BranchId::new(1)), Some(Direction::Taken));
    }

    #[test]
    fn speculates_not_taken_majority() {
        let p = profile_of(&[(0, false), (0, false), (0, false)]);
        let set = SpeculationSet::from_profile(&p, 0.99, 1);
        assert_eq!(set.decision(BranchId::new(0)), Some(Direction::NotTaken));
    }

    #[test]
    fn threshold_is_inclusive() {
        // 3 of 4 taken = 0.75.
        let p = profile_of(&[(0, true), (0, true), (0, true), (0, false)]);
        let set = SpeculationSet::from_profile(&p, 0.75, 1);
        assert_eq!(set.decision(BranchId::new(0)), Some(Direction::Taken));
        let set = SpeculationSet::from_profile(&p, 0.76, 1);
        assert_eq!(set.decision(BranchId::new(0)), None);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn rejects_bad_threshold() {
        SpeculationSet::from_profile(&BranchProfile::new(), 0.5, 1);
    }

    #[test]
    fn manual_set_and_out_of_range_decision() {
        let mut set = SpeculationSet::new();
        assert_eq!(set.decision(BranchId::new(10)), None);
        set.set(BranchId::new(10), Some(Direction::Taken));
        assert_eq!(set.decision(BranchId::new(10)), Some(Direction::Taken));
        set.set(BranchId::new(10), None);
        assert_eq!(set.speculated_count(), 0);
    }

    #[test]
    fn iter_yields_selected_pairs() {
        let mut set = SpeculationSet::new();
        set.set(BranchId::new(2), Some(Direction::NotTaken));
        set.set(BranchId::new(5), Some(Direction::Taken));
        let v: Vec<_> = set.iter().collect();
        assert_eq!(
            v,
            vec![
                (BranchId::new(2), Direction::NotTaken),
                (BranchId::new(5), Direction::Taken)
            ]
        );
    }
}
