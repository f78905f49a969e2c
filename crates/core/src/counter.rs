//! The saturating hysteresis counter behind the eviction decision.

/// An asymmetric saturating counter in `[0, threshold]`.
///
/// The paper's eviction rule adds 50 on a misspeculation and subtracts 1 on
/// a correct speculation, evicting at 10,000. The asymmetry sets the
/// steady-state misspeculation rate at which eviction engages
/// (`down / (up + down)` ≈ 2%), while the distance to the threshold sets
/// how long a burst must last (at least `threshold / up` = 200
/// misspeculations) — tolerating short bursts from otherwise biased
/// branches.
///
/// # Examples
///
/// ```
/// use rsc_control::counter::HysteresisCounter;
/// let mut c = HysteresisCounter::new(50, 1, 200);
/// for _ in 0..3 {
///     c.misspeculation();
/// }
/// assert!(!c.should_evict());
/// c.misspeculation();
/// assert!(c.should_evict());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HysteresisCounter {
    value: u32,
    up: u32,
    down: u32,
    threshold: u32,
}

impl HysteresisCounter {
    /// Creates a counter at zero.
    ///
    /// # Panics
    ///
    /// Panics if `up == 0`, `down == 0`, or `threshold < up`.
    pub fn new(up: u32, down: u32, threshold: u32) -> Self {
        assert!(up > 0, "up increment must be positive");
        assert!(down > 0, "down decrement must be positive");
        assert!(threshold >= up, "threshold must be at least up");
        HysteresisCounter {
            value: 0,
            up,
            down,
            threshold,
        }
    }

    /// Records a misspeculation; saturates at the threshold.
    pub fn misspeculation(&mut self) {
        self.value = self.next(self.value, false);
    }

    /// Records a correct speculation; saturates at zero.
    pub fn correct(&mut self) {
        self.value = self.next(self.value, true);
    }

    /// The value after one speculation from `value` under this counter's
    /// shape. A controller keeps one shape and a bare value per branch.
    #[inline(always)]
    pub(crate) fn next(&self, value: u32, correct: bool) -> u32 {
        if correct {
            value.saturating_sub(self.down)
        } else {
            value.saturating_add(self.up).min(self.threshold)
        }
    }

    /// Returns `true` once the counter has reached the eviction threshold.
    pub fn should_evict(&self) -> bool {
        self.value >= self.threshold
    }

    /// Current counter value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The per-misspeculation increment.
    pub fn up(&self) -> u32 {
        self.up
    }

    /// The per-correct-speculation decrement.
    pub fn down(&self) -> u32 {
        self.down
    }

    /// The eviction threshold (also the saturation ceiling).
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Resets to zero (used when re-entering the biased state).
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Restores a checkpointed value (clamped to the saturation range).
    pub(crate) fn set_value(&mut self, value: u32) {
        self.value = value.min(self.threshold);
    }

    /// The misspeculation rate above which the counter drifts upward:
    /// `down / (up + down)`.
    pub fn engagement_rate(&self) -> f64 {
        self.down as f64 / (self.up + self.down) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_minimum_misspeculations() {
        let mut c = HysteresisCounter::new(50, 1, 10_000);
        for _ in 0..199 {
            c.misspeculation();
        }
        assert!(!c.should_evict());
        c.misspeculation();
        assert!(c.should_evict());
    }

    #[test]
    fn correct_speculations_push_back() {
        let mut c = HysteresisCounter::new(50, 1, 10_000);
        c.misspeculation();
        assert_eq!(c.value(), 50);
        for _ in 0..50 {
            c.correct();
        }
        assert_eq!(c.value(), 0);
        c.correct();
        assert_eq!(c.value(), 0, "saturates at zero");
    }

    #[test]
    fn saturates_at_threshold() {
        let mut c = HysteresisCounter::new(50, 1, 100);
        for _ in 0..10 {
            c.misspeculation();
        }
        assert_eq!(c.value(), 100);
    }

    #[test]
    fn engagement_rate_is_two_percent_for_paper_params() {
        let c = HysteresisCounter::new(50, 1, 10_000);
        assert!((c.engagement_rate() - 1.0 / 51.0).abs() < 1e-12);
    }

    #[test]
    fn below_engagement_rate_never_evicts() {
        // 1% misspeculation: expected drift is negative; in a deterministic
        // 1-in-100 pattern the counter should stay far from the threshold.
        let mut c = HysteresisCounter::new(50, 1, 10_000);
        for i in 0..1_000_000u64 {
            if i % 100 == 0 {
                c.misspeculation();
            } else {
                c.correct();
            }
            assert!(!c.should_evict(), "evicted at iteration {i}");
        }
    }

    #[test]
    fn above_engagement_rate_evicts() {
        // 10% misspeculation drifts upward and must eventually evict.
        let mut c = HysteresisCounter::new(50, 1, 10_000);
        let mut evicted_at = None;
        for i in 0..1_000_000u64 {
            if i % 10 == 0 {
                c.misspeculation();
            } else {
                c.correct();
            }
            if c.should_evict() {
                evicted_at = Some(i);
                break;
            }
        }
        let at = evicted_at.expect("must evict");
        // Drift is (0.1*50 - 0.9) ≈ +4.1 per execution → ~2,440 executions.
        assert!((2_000..4_000).contains(&at), "evicted at {at}");
    }

    #[test]
    fn reset_clears_value() {
        let mut c = HysteresisCounter::new(50, 1, 100);
        c.misspeculation();
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "threshold must be at least up")]
    fn rejects_threshold_below_up() {
        HysteresisCounter::new(50, 1, 10);
    }
}
