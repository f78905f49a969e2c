//! Transition logging with exact per-kind counters.
//!
//! [`TransitionLog`] keeps the per-kind counters exact under both
//! policies: `Full` also stores every [`TransitionEvent`] (the ordered log
//! behind the eviction windows and distances), while `CountsOnly` stores
//! none and keeps long runs at O(1) memory.

use crate::controller::{TransitionEvent, TransitionKind};

/// How much of the transition stream a controller retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionLogPolicy {
    /// Keep every transition event (the default).
    Full,
    /// Keep no events, only the per-kind counters — O(1) memory, the right
    /// choice for throughput runs.
    CountsOnly,
}

/// A transition log with a retention policy and exact per-kind counters.
///
/// Counters are maintained under both policies, so
/// [`count`](TransitionLog::count) is always the true number of
/// transitions regardless of whether events are retained.
///
/// # Examples
///
/// ```
/// use rsc_control::translog::{TransitionLog, TransitionLogPolicy};
/// use rsc_control::TransitionKind;
///
/// let log = TransitionLog::new(TransitionLogPolicy::CountsOnly);
/// assert_eq!(log.count(TransitionKind::EnterBiased), 0);
/// assert!(log.as_slice().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TransitionLog {
    policy: TransitionLogPolicy,
    events: Vec<TransitionEvent>,
    counts: [u64; TransitionKind::ALL.len()],
}

impl TransitionLog {
    /// Creates an empty log with the given retention policy.
    pub fn new(policy: TransitionLogPolicy) -> Self {
        TransitionLog {
            policy,
            events: Vec::new(),
            counts: [0; TransitionKind::ALL.len()],
        }
    }

    /// The active retention policy.
    pub fn policy(&self) -> TransitionLogPolicy {
        self.policy
    }

    /// Records one transition (counters always; the event under `Full`).
    #[inline]
    pub fn push(&mut self, ev: TransitionEvent) {
        self.counts[ev.kind.index()] += 1;
        if self.policy == TransitionLogPolicy::Full {
            self.events.push(ev);
        }
    }

    /// The retained events, oldest first: everything under `Full`,
    /// nothing under `CountsOnly`.
    pub fn as_slice(&self) -> &[TransitionEvent] {
        &self.events
    }

    /// Exact number of transitions of `kind` seen so far (independent of
    /// retention).
    pub fn count(&self, kind: TransitionKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Exact total number of transitions seen so far.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TransitionLog {
    /// Raw internal storage for checkpointing: the retained events plus
    /// the exact per-kind counters.
    pub(crate) fn raw_storage(&self) -> (&[TransitionEvent], &[u64; TransitionKind::ALL.len()]) {
        (&self.events, &self.counts)
    }

    pub(crate) fn from_raw_storage(
        policy: TransitionLogPolicy,
        events: Vec<TransitionEvent>,
        counts: [u64; TransitionKind::ALL.len()],
    ) -> Self {
        TransitionLog {
            policy,
            events,
            counts,
        }
    }
}

impl Default for TransitionLog {
    fn default() -> Self {
        TransitionLog::new(TransitionLogPolicy::Full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::BranchId;

    fn ev(i: u64, kind: TransitionKind) -> TransitionEvent {
        TransitionEvent {
            branch: BranchId::new(0),
            kind,
            event_index: i,
            instr: i * 10,
            direction: None,
        }
    }

    #[test]
    fn full_retains_everything_in_order() {
        let mut log = TransitionLog::new(TransitionLogPolicy::Full);
        for i in 0..100 {
            log.push(ev(i, TransitionKind::EnterBiased));
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.as_slice()[0].event_index, 0);
        assert_eq!(log.as_slice()[99].event_index, 99);
        assert_eq!(log.count(TransitionKind::EnterBiased), 100);
    }

    #[test]
    fn counts_only_counts_without_storing() {
        let mut log = TransitionLog::new(TransitionLogPolicy::CountsOnly);
        for i in 0..50 {
            let kind = if i % 2 == 0 {
                TransitionKind::EnterBiased
            } else {
                TransitionKind::ExitBiased
            };
            log.push(ev(i, kind));
        }
        assert!(log.is_empty());
        assert_eq!(log.count(TransitionKind::EnterBiased), 25);
        assert_eq!(log.count(TransitionKind::ExitBiased), 25);
        assert_eq!(log.total(), 50);
    }
}
