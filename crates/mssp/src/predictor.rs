//! Branch predictors: gshare, return-address stack, and an indirect-target
//! table (the paper's Table 5 front end).

use crate::program::BRANCH_PC_BASE;

/// A gshare conditional-branch predictor: a table of 2-bit saturating
/// counters indexed by `pc ^ global_history`.
///
/// # Examples
///
/// ```
/// use rsc_mssp::predictor::Gshare;
/// let mut g = Gshare::new(4096);
/// // Train on an always-taken branch until the history saturates.
/// for _ in 0..32 {
///     let _ = g.predict_and_update(0x40_0000, true);
/// }
/// assert!(g.predict_and_update(0x40_0000, true));
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    history: u64,
    history_mask: u64,
    index_mask: u64,
}

impl Gshare {
    /// Creates a predictor with `counters` 2-bit entries (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `counters` is not a power of two or is zero.
    pub fn new(counters: u32) -> Self {
        assert!(
            counters.is_power_of_two() && counters > 0,
            "counter count must be a power of two"
        );
        let bits = counters.trailing_zeros() as u64;
        Gshare {
            counters: vec![1; counters as usize], // weakly not-taken
            history: 0,
            history_mask: (1 << bits.min(16)) - 1,
            index_mask: (counters - 1) as u64,
        }
    }

    /// The counter a branch at `pc` indexes under global history
    /// `history`.
    #[inline(always)]
    fn index(&self, pc: u64, history: u64) -> usize {
        (((pc >> 2) ^ (history & self.history_mask)) & self.index_mask) as usize
    }

    /// Predicts the branch at `pc`, then updates the counter and history
    /// with the actual outcome. Returns whether the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc, self.history);
        let mispredicted = train(&mut self.counters[idx], taken);
        self.history = (self.history << 1) | u64::from(taken);
        !mispredicted
    }

    /// [`Gshare::predict_and_update`] over a block's conditional-branch
    /// arm (`(static_index << 1) | taken` words, see
    /// [`InstrBlock::cond_ops`]) in order; returns the mispredictions.
    /// The history stays in a local for the whole arm, and every branch
    /// goes through the same [`train`] with no branch on its outcome.
    ///
    /// [`InstrBlock::cond_ops`]: crate::program::InstrBlock::cond_ops
    pub(crate) fn step_cond_arm(&mut self, cond_ops: &[u32]) -> u64 {
        let mut history = self.history;
        let mut mispredicts = 0u64;
        for &entry in cond_ops {
            let pc = BRANCH_PC_BASE + u64::from(entry >> 1) * 64;
            let taken = entry & 1 != 0;
            let idx = self.index(pc, history);
            mispredicts += u64::from(train(&mut self.counters[idx], taken));
            history = (history << 1) | u64::from(taken);
        }
        self.history = history;
        mispredicts
    }
}

/// One 2-bit counter's prediction and update: the counter moves toward
/// the outcome through a select between its saturating increment and
/// decrement, not a branch on the outcome. Returns whether the counter
/// mispredicted.
#[inline(always)]
fn train(counter: &mut u8, taken: bool) -> bool {
    let c = *counter;
    let up = (c + 1).min(3);
    let down = c.saturating_sub(1);
    *counter = if taken { up } else { down };
    (c >= 2) != taken
}

/// A return-address stack with a bounded depth.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    stack: Vec<u64>,
    capacity: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: u32) -> Self {
        assert!(entries > 0, "RAS needs at least one entry");
        ReturnAddressStack {
            stack: Vec::new(),
            capacity: entries as usize,
        }
    }

    /// Records a call's return address; overflow discards the oldest entry.
    pub fn push(&mut self, return_addr: u64) {
        if self.stack.len() >= self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(return_addr);
    }

    /// Predicts a return target; returns whether it matched `actual`.
    pub fn predict_return(&mut self, actual: u64) -> bool {
        match self.stack.pop() {
            Some(top) => top == actual,
            None => false,
        }
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

/// A direct-mapped indirect-target predictor (last-target table).
#[derive(Debug, Clone)]
pub struct IndirectPredictor {
    targets: Vec<u64>,
    mask: u64,
}

impl IndirectPredictor {
    /// Creates a table with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or is zero.
    pub fn new(entries: u32) -> Self {
        assert!(
            entries.is_power_of_two() && entries > 0,
            "entry count must be a power of two"
        );
        IndirectPredictor {
            targets: vec![0; entries as usize],
            mask: (entries - 1) as u64,
        }
    }

    /// Predicts the target of the indirect jump at `pc`, updates the table
    /// with the actual target, and returns whether the prediction matched.
    pub fn predict_and_update(&mut self, pc: u64, actual: u64) -> bool {
        let idx = ((pc >> 2) & self.mask) as usize;
        let correct = self.targets[idx] == actual;
        self.targets[idx] = actual;
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gshare_learns_stable_bias() {
        let mut g = Gshare::new(1024);
        let mut correct = 0;
        for i in 0..1000 {
            if g.predict_and_update(0x1000, true) && i >= 10 {
                correct += 1;
            }
        }
        assert!(correct >= 980, "correct: {correct}");
    }

    #[test]
    fn gshare_struggles_on_random_pattern() {
        let mut g = Gshare::new(1024);
        // A pseudo-random but deterministic outcome stream.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut correct = 0;
        let n = 10_000;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if g.predict_and_update(0x2000, x & 1 == 1) {
                correct += 1;
            }
        }
        let rate = correct as f64 / n as f64;
        assert!(rate < 0.65, "accuracy on random stream: {rate}");
    }

    #[test]
    fn gshare_uses_history_to_learn_alternation() {
        let mut g = Gshare::new(4096);
        let mut correct_late = 0;
        for i in 0..2000u32 {
            let taken = i % 2 == 0;
            if g.predict_and_update(0x3000, taken) && i >= 1000 {
                correct_late += 1;
            }
        }
        assert!(correct_late >= 950, "late accuracy: {correct_late}/1000");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The batched arm against `predict_and_update` one branch at a
        /// time: the same counters, history and mispredictions, with the
        /// arm split into blocks at random so the history carries across
        /// calls. Runs of one `(pc, taken)` up to 80 long saturate the
        /// history and the counter, and a small index range makes runs
        /// alias each other.
        #[test]
        fn cond_arm_matches_per_branch_updates(
            counters in prop::sample::select(vec![64u32, 4096, 65536]),
            runs in prop::collection::vec((0u32..8192, any::<bool>(), 1usize..80, any::<bool>()), 1..64),
            cuts in prop::collection::vec(0usize..4096, 0..8),
        ) {
            let entries: Vec<u32> = runs
                .iter()
                .flat_map(|&(index, taken, len, narrow)| {
                    let index = if narrow { index % 8 } else { index };
                    std::iter::repeat_n((index << 1) | u32::from(taken), len)
                })
                .collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (entries.len() + 1)).collect();
            cuts.push(0);
            cuts.push(entries.len());
            cuts.sort_unstable();
            let mut batched = Gshare::new(counters);
            let mut single = batched.clone();
            let mut batched_mispredicts = 0;
            for pair in cuts.windows(2) {
                batched_mispredicts += batched.step_cond_arm(&entries[pair[0]..pair[1]]);
            }
            let mut single_mispredicts = 0;
            for &entry in &entries {
                let pc = BRANCH_PC_BASE + u64::from(entry >> 1) * 64;
                single_mispredicts += u64::from(!single.predict_and_update(pc, entry & 1 != 0));
            }
            prop_assert_eq!(batched_mispredicts, single_mispredicts);
            prop_assert_eq!(batched.history, single.history);
            prop_assert!(batched.counters == single.counters, "counters differ");
        }
    }

    #[test]
    fn ras_matches_nested_calls() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(100);
        ras.push(200);
        assert!(ras.predict_return(200));
        assert!(ras.predict_return(100));
        assert!(!ras.predict_return(100), "empty stack mispredicts");
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // drops 1
        assert!(ras.predict_return(3));
        assert!(ras.predict_return(2));
        assert!(!ras.predict_return(1));
    }

    #[test]
    fn indirect_remembers_last_target() {
        let mut ip = IndirectPredictor::new(16);
        assert!(!ip.predict_and_update(0x100, 0xA));
        assert!(ip.predict_and_update(0x100, 0xA));
        assert!(!ip.predict_and_update(0x100, 0xB), "target changed");
        assert!(ip.predict_and_update(0x100, 0xB));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn gshare_rejects_non_power_of_two() {
        Gshare::new(1000);
    }
}
