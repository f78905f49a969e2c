//! Shared experiment options.

/// Common knobs for the reproduction experiments.
///
/// `events` is the number of dynamic branch events simulated per benchmark.
/// The paper runs benchmarks to completion (9–45 billion instructions); the
/// default here (16 million events ≈ 100 million instructions) reproduces
/// the qualitative shapes in seconds. `--full` in the CLI raises it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpOptions {
    /// Dynamic branch events per benchmark run.
    pub events: u64,
    /// Root seed for trace generation.
    pub seed: u64,
}

impl ExpOptions {
    /// Default options used by the `repro` harness.
    pub fn new() -> Self {
        ExpOptions {
            events: 16_000_000,
            seed: 42,
        }
    }

    /// Sets the event count.
    pub fn with_events(mut self, events: u64) -> Self {
        self.events = events;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A small configuration for unit tests.
    pub fn small() -> Self {
        ExpOptions {
            events: 300_000,
            seed: 42,
        }
    }
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_fields() {
        let o = ExpOptions::new().with_events(1000).with_seed(7);
        assert_eq!(o.events, 1000);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn small_is_smaller_than_default() {
        assert!(ExpOptions::small().events < ExpOptions::new().events);
    }
}
