//! Seed-driven differential fuzzing campaigns.
//!
//! A campaign sweeps a seed range over the cross-product of a controller
//! parameter matrix, the adversarial scenarios tuned to each parameter
//! set, and both execution modes (per-event and chunked). The first
//! divergence aborts the sweep: the failing trace is shrunk and packaged
//! as a [`Counterexample`].
//!
//! With no [`Fault`] injected, a campaign is the conformance check
//! proper — it must find nothing. With a fault, it is a self-test of the
//! harness — it must find something, quickly and minimally.

use crate::artifact::Counterexample;
use crate::differ::{run_case, run_policy_case, CaseSpec, Mode};
use crate::fault::Fault;
use crate::shrink::shrink;
use rsc_control::{ControllerParams, EvictionMode, Revisit, BUILTIN_POLICY_IDS};
use rsc_trace::rng::SplitMix64;
use rsc_trace::Scenario;

/// What to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Events per generated trace.
    pub events: u64,
    /// Fault to inject into the subject (harness self-test mode).
    pub fault: Option<Fault>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed_start: 0,
            seed_end: 64,
            events: 2_000,
            fault: None,
        }
    }
}

/// Outcome of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Differential cases executed (trace × mode pairs).
    pub cases: u64,
    /// Total events fed to each controller.
    pub events_fed: u64,
    /// The first divergence found, already shrunk. `None` is conformance.
    pub counterexample: Option<Counterexample>,
}

/// The controller parameterizations every campaign sweeps.
///
/// All time constants are deliberately tiny so that every FSM arc —
/// selection, eviction, revisit, oscillation disable, deployment latency
/// — fires many times within a few thousand events. (At the paper's
/// Table 2 scale a 2,000-event trace would never leave the monitor
/// state, and the fuzzer would certify an implementation that had never
/// speculated.)
pub fn param_matrix() -> Vec<(&'static str, ControllerParams)> {
    let mut tiny = ControllerParams::scaled();
    tiny.monitor_period = 10;
    tiny.eviction = EvictionMode::Counter {
        up: 50,
        down: 1,
        threshold: 100,
    };
    tiny.revisit = Revisit::After(20);
    tiny.oscillation_limit = Some(3);
    tiny.optimization_latency = 0;

    let mut sampled = tiny.with_monitor_sampling(2);
    sampled.eviction = EvictionMode::Sampling {
        period: 20,
        samples: 10,
        bias_threshold: 0.98,
    };

    let mut short_scaled = ControllerParams::scaled();
    short_scaled.monitor_period = 100;
    short_scaled.eviction = EvictionMode::Counter {
        up: 50,
        down: 1,
        threshold: 200,
    };
    short_scaled.revisit = Revisit::After(200);
    short_scaled.optimization_latency = 500;

    vec![
        ("tiny", tiny),
        ("tiny-latency", tiny.with_latency(40)),
        ("tiny-sampled", sampled),
        ("tiny-confidence", tiny.with_confidence_monitor(2.58, 4, 32)),
        ("tiny-open", tiny.without_eviction().without_revisit()),
        ("short-scaled", short_scaled),
    ]
}

/// The adversarial scenarios for one parameter set, with periodicities
/// aliased against its time constants.
pub fn scenarios_for(p: &ControllerParams) -> Vec<Scenario> {
    let monitor = p.monitor_period;
    let revisit = match p.revisit {
        Revisit::After(n) => n,
        Revisit::Never => 2 * monitor,
    };
    vec![
        Scenario::PhaseFlip {
            branches: 4,
            flip_after: 5 * monitor,
        },
        Scenario::HysteresisStraddle {
            warmup: monitor,
            period: 2,
        },
        Scenario::HysteresisStraddle {
            warmup: monitor,
            period: 3,
        },
        Scenario::RevisitAlias {
            period: monitor + revisit,
        },
        Scenario::ThresholdOscillator { window: monitor },
        Scenario::BurstyHotSet {
            hot: 3,
            burst: 4 * monitor,
        },
        Scenario::UniformRandom { branches: 8 },
    ]
}

/// Runs the campaign, stopping at the first divergence.
///
/// Every (seed, params, scenario) cell runs in three modes: per-event,
/// chunked, and sharded (the shard count cycles through 1..=8 with the
/// case's sub-seed, so a sweep of a few seeds covers every count).
pub fn run(config: &CampaignConfig) -> CampaignReport {
    sweep(config, &|sub_seed| {
        vec![
            Mode::PerEvent,
            Mode::Chunked { seed: sub_seed },
            Mode::Sharded {
                shards: 1 + (sub_seed % 8) as usize,
                seed: sub_seed,
            },
        ]
    })
}

/// A divergence found by the policy-zoo sweep. Policy cases compare a
/// fast path against the same policy's per-event semantics, so there is
/// no cross-implementation artifact to shrink and replay — the sweep
/// reports the cell instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyDivergence {
    /// Id of the diverging policy.
    pub policy: &'static str,
    /// Scenario that produced the trace.
    pub scenario: String,
    /// Seed the trace (and chunk layout) derived from.
    pub seed: u64,
    /// How the subject consumed the trace.
    pub mode: Mode,
    /// Human-readable description of what differed.
    pub detail: String,
}

impl std::fmt::Display for PolicyDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "policy {} diverged ({}, scenario {}, seed {}): {}",
            self.policy,
            self.mode.name(),
            self.scenario,
            self.seed,
            self.detail
        )
    }
}

/// Outcome of the policy-zoo sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCampaignReport {
    /// Differential cases executed (trace × policy × mode).
    pub cases: u64,
    /// Total events fed to each controller.
    pub events_fed: u64,
    /// The first divergence found. `None` is conformance.
    pub failure: Option<PolicyDivergence>,
}

/// Runs the policy-zoo sweep: every builtin policy, over the same seed ×
/// parameter-matrix × scenario grid as [`run`], each cell checked in
/// chunked and sharded mode against the policy's own per-event
/// semantics (`paper-fsm` is additionally held to the golden
/// [`ReferenceController`](rsc_control::ReferenceController)).
///
/// A configured [`Fault`] perturbs the *subject's* parameters only, so
/// the sweep doubles as a harness self-test — though only faults in
/// machinery a policy actually consults (e.g. the monitor window) are
/// observable for every policy.
pub fn run_policies(config: &CampaignConfig) -> PolicyCampaignReport {
    let matrix = param_matrix();
    let mut cases = 0u64;
    let mut events_fed = 0u64;

    for seed in config.seed_start..config.seed_end {
        for (pi, (_, params)) in matrix.iter().enumerate() {
            let subject = match config.fault {
                Some(f) => f.apply(*params),
                None => *params,
            };
            for (si, scenario) in scenarios_for(params).into_iter().enumerate() {
                let sub_seed = SplitMix64::new(
                    seed.wrapping_mul(0x0100_0000_01b3) ^ ((pi as u64) << 32) ^ (si as u64),
                )
                .next_u64();
                let trace = scenario.generate(config.events, sub_seed);
                for policy in BUILTIN_POLICY_IDS {
                    for mode in [
                        Mode::Chunked { seed: sub_seed },
                        Mode::Sharded {
                            shards: 1 + (sub_seed % 8) as usize,
                            seed: sub_seed,
                        },
                    ] {
                        cases += 1;
                        events_fed += trace.len() as u64;
                        if let Err(div) = run_policy_case(policy, subject, *params, mode, &trace) {
                            return PolicyCampaignReport {
                                cases,
                                events_fed,
                                failure: Some(PolicyDivergence {
                                    policy,
                                    scenario: scenario.name().to_string(),
                                    seed: sub_seed,
                                    mode,
                                    detail: div.to_string(),
                                }),
                            };
                        }
                    }
                }
            }
        }
    }

    PolicyCampaignReport {
        cases,
        events_fed,
        failure: None,
    }
}

/// Runs a sharded-only campaign: every cell runs the sharded lockstep
/// once per shard count in `1..=max_shards`. This is the exhaustive
/// shard-count sweep behind `repro conformance --shards N`.
pub fn run_sharded(config: &CampaignConfig, max_shards: usize) -> CampaignReport {
    sweep(config, &|sub_seed| {
        (1..=max_shards.max(1))
            .map(|shards| Mode::Sharded {
                shards,
                seed: sub_seed,
            })
            .collect()
    })
}

/// The sweep skeleton shared by [`run`] and [`run_sharded`]: seed ×
/// parameter matrix × scenario, with the per-cell mode list supplied by
/// the caller.
fn sweep(config: &CampaignConfig, modes_for: &dyn Fn(u64) -> Vec<Mode>) -> CampaignReport {
    let matrix = param_matrix();
    let mut cases = 0u64;
    let mut events_fed = 0u64;

    for seed in config.seed_start..config.seed_end {
        for (pi, (_, params)) in matrix.iter().enumerate() {
            let subject = match config.fault {
                Some(f) => f.apply(*params),
                None => *params,
            };
            for (si, scenario) in scenarios_for(params).into_iter().enumerate() {
                let sub_seed = SplitMix64::new(
                    seed.wrapping_mul(0x0100_0000_01b3) ^ ((pi as u64) << 32) ^ (si as u64),
                )
                .next_u64();
                let trace = scenario.generate(config.events, sub_seed);
                for mode in modes_for(sub_seed) {
                    let spec = CaseSpec {
                        subject,
                        reference: *params,
                        mode,
                        // The campaign pins the legacy layerless behavior;
                        // resilient lockstep has its own differ tests.
                        resilience: None,
                    };
                    cases += 1;
                    events_fed += trace.len() as u64;
                    if run_case(&spec, &trace).is_err() {
                        let (minimized, div) = shrink(&spec, &trace);
                        return CampaignReport {
                            cases,
                            events_fed,
                            counterexample: Some(Counterexample {
                                scenario: scenario.name().to_string(),
                                seed: sub_seed,
                                fault: config.fault,
                                params: *params,
                                mode,
                                trace: minimized,
                                detail: div.to_string(),
                            }),
                        };
                    }
                }
            }
        }
    }

    CampaignReport {
        cases,
        events_fed,
        counterexample: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_campaign_finds_nothing() {
        let report = run(&CampaignConfig {
            seed_start: 0,
            seed_end: 2,
            events: 1_200,
            fault: None,
        });
        assert!(
            report.counterexample.is_none(),
            "unexpected divergence: {:?}",
            report.counterexample.map(|c| c.detail)
        );
        assert!(report.cases > 0);
        assert_eq!(report.events_fed, report.cases * 1_200);
    }

    #[test]
    fn campaign_is_deterministic() {
        let config = CampaignConfig {
            seed_start: 3,
            seed_end: 4,
            events: 800,
            fault: Some(Fault::HysteresisOffByOne),
        };
        assert_eq!(run(&config), run(&config));
    }

    #[test]
    fn sharded_sweep_conforms_and_counts_every_shard_count() {
        let config = CampaignConfig {
            seed_start: 0,
            seed_end: 1,
            events: 1_000,
            fault: None,
        };
        let report = run_sharded(&config, 8);
        assert!(
            report.counterexample.is_none(),
            "unexpected divergence: {:?}",
            report.counterexample.map(|c| c.detail)
        );
        // 6 param sets × 7 scenarios × 8 shard counts per seed.
        assert_eq!(report.cases, 6 * 7 * 8);
        assert_eq!(report.events_fed, report.cases * 1_000);
    }

    #[test]
    fn policy_sweep_conforms_across_the_zoo() {
        let config = CampaignConfig {
            seed_start: 0,
            seed_end: 1,
            events: 1_000,
            fault: None,
        };
        let report = run_policies(&config);
        assert!(
            report.failure.is_none(),
            "unexpected divergence: {}",
            report.failure.unwrap()
        );
        // 6 param sets × 7 scenarios × 3 policies × 2 modes per seed.
        assert_eq!(report.cases, 6 * 7 * 3 * 2);
        assert_eq!(report.events_fed, report.cases * 1_000);
    }

    #[test]
    fn policy_sweep_catches_monitor_faults_for_every_policy() {
        // The monitor window is machinery every policy consults, so an
        // off-by-one there must surface no matter which policy runs.
        let config = CampaignConfig {
            seed_start: 0,
            seed_end: 2,
            events: 1_200,
            fault: Some(Fault::MonitorWindowOffByOne),
        };
        let report = run_policies(&config);
        assert!(report.failure.is_some(), "fault must be caught");
    }

    #[test]
    fn sharded_sweep_catches_injected_faults() {
        let config = CampaignConfig {
            seed_start: 0,
            seed_end: 2,
            events: 1_200,
            fault: Some(Fault::HysteresisOffByOne),
        };
        let report = run_sharded(&config, 4);
        let cx = report.counterexample.expect("fault must be caught");
        assert!(matches!(cx.mode, Mode::Sharded { .. }));
        assert!(cx.replay().is_err(), "artifact must reproduce");
    }
}
