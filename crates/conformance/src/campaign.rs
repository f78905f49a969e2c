//! Seed-driven differential fuzzing campaigns.
//!
//! A campaign sweeps a seed range over the cross-product of a controller
//! parameter matrix, the adversarial scenarios tuned to each parameter
//! set, the selected policies, and the execution modes (per-event,
//! chunked and sharded). A policy's first divergence ends that policy's
//! sweep: the failing trace is shrunk and packaged as a
//! [`Counterexample`], and the other policies sweep on.
//!
//! With no [`Fault`] injected, a campaign is the conformance check
//! proper — it must find nothing. With a fault, it is a self-test of the
//! harness — it must find something, quickly and minimally.

use crate::artifact::Counterexample;
use crate::differ::{run_case, CaseSpec, Mode};
use crate::fault::Fault;
use crate::shrink::shrink;
use rsc_control::{ControllerParams, EvictionMode, Policy, Revisit, BUILTIN_POLICY_IDS};
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
    /// Sweep every built-in policy, not only `paper-fsm`.
    pub all_policies: bool,
    /// Replace the per-cell modes with the sharded lockstep at every
    /// shard count in `1..=N`.
    pub shards: Option<usize>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed_start: 0,
            seed_end: 64,
            events: 2_000,
            fault: None,
            all_policies: false,
            shards: None,
        }
    }
}

/// Outcome of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Differential cases executed (trace × policy × mode).
    pub cases: u64,
    /// Total events fed to each controller.
    pub events_fed: u64,
    /// Each diverging policy's first divergence, already shrunk, in
    /// policy order. Empty is conformance.
    pub counterexamples: Vec<Counterexample>,
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

/// Runs the campaign. Each policy stops at its own first divergence,
/// which is shrunk and returned as a [`Counterexample`]; the sweep ends
/// early once every policy has diverged.
///
/// Every (seed, params, scenario) cell runs once per policy and mode:
/// `paper-fsm` alone, or every built-in policy with
/// [`all_policies`](CampaignConfig::all_policies); per-event, chunked and
/// sharded (the shard count cycles through 1..=8 with the case's
/// sub-seed, so a sweep of a few seeds covers every count), or sharded
/// once per shard count in `1..=N` with [`shards`](CampaignConfig::shards).
///
/// A configured [`Fault`] perturbs the *subject's* parameters only, so
/// the sweep doubles as a harness self-test — though only faults in
/// machinery a policy actually consults (e.g. the monitor window) are
/// observable for every policy.
pub fn run(config: &CampaignConfig) -> CampaignReport {
    let policies: Vec<Policy> = if config.all_policies {
        BUILTIN_POLICY_IDS
            .iter()
            .map(|id| Policy::builtin(id).expect("builtin policy id"))
            .collect()
    } else {
        vec![Policy::PaperFsm]
    };
    let modes = |sub_seed: u64| -> Vec<Mode> {
        match config.shards {
            Some(n) => (1..=n.max(1))
                .map(|shards| Mode::Sharded {
                    shards,
                    seed: sub_seed,
                })
                .collect(),
            None => vec![
                Mode::PerEvent,
                Mode::Chunked { seed: sub_seed },
                Mode::Sharded {
                    shards: 1 + (sub_seed % 8) as usize,
                    seed: sub_seed,
                },
            ],
        }
    };
    let matrix = param_matrix();
    let mut cases = 0u64;
    let mut events_fed = 0u64;
    let mut counterexamples: Vec<Counterexample> = Vec::new();

    'sweep: for seed in config.seed_start..config.seed_end {
        for (pi, (_, params)) in matrix.iter().enumerate() {
            let subject = match config.fault {
                Some(f) => f.apply(*params),
                None => *params,
            };
            for (si, scenario) in scenarios_for(params).into_iter().enumerate() {
                let sub_seed = SplitMix64::new(
                    seed.wrapping_mul(rsc_trace::codec::FNV_PRIME)
                        ^ ((pi as u64) << 32)
                        ^ (si as u64),
                )
                .next_u64();
                let trace = scenario.generate(config.events, sub_seed);
                for &policy in &policies {
                    if counterexamples.iter().any(|c| c.policy == policy) {
                        continue;
                    }
                    for mode in modes(sub_seed) {
                        let spec = CaseSpec {
                            subject,
                            reference: *params,
                            mode,
                            // The campaign pins the legacy layerless
                            // behavior; resilient lockstep has its own
                            // differ tests.
                            resilience: None,
                            policy,
                        };
                        cases += 1;
                        events_fed += trace.len() as u64;
                        if run_case(&spec, &trace).is_err() {
                            let (minimized, div) = shrink(&spec, &trace);
                            counterexamples.push(Counterexample {
                                scenario: scenario.name().to_string(),
                                seed: sub_seed,
                                fault: config.fault,
                                policy,
                                params: *params,
                                mode,
                                trace: minimized,
                                detail: div.to_string(),
                            });
                            if counterexamples.len() == policies.len() {
                                break 'sweep;
                            }
                            break;
                        }
                    }
                }
            }
        }
    }

    // Report in policy order, whichever diverged first.
    counterexamples.sort_by_key(|c| policies.iter().position(|&p| p == c.policy));
    CampaignReport {
        cases,
        events_fed,
        counterexamples,
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
            ..CampaignConfig::default()
        });
        assert!(
            report.counterexamples.is_empty(),
            "unexpected divergence: {:?}",
            report.counterexamples.first().map(|c| &c.detail)
        );
        // 6 param sets × 7 scenarios × 3 modes per seed.
        assert_eq!(report.cases, 2 * 6 * 7 * 3);
        assert_eq!(report.events_fed, report.cases * 1_200);
    }

    #[test]
    fn campaign_is_deterministic() {
        let config = CampaignConfig {
            seed_start: 3,
            seed_end: 4,
            events: 800,
            fault: Some(Fault::HysteresisOffByOne),
            ..CampaignConfig::default()
        };
        assert_eq!(run(&config), run(&config));
    }

    #[test]
    fn sharded_sweep_conforms_and_counts_every_shard_count() {
        let config = CampaignConfig {
            seed_start: 0,
            seed_end: 1,
            events: 1_000,
            shards: Some(8),
            ..CampaignConfig::default()
        };
        let report = run(&config);
        assert!(
            report.counterexamples.is_empty(),
            "unexpected divergence: {:?}",
            report.counterexamples.first().map(|c| &c.detail)
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
            all_policies: true,
            ..CampaignConfig::default()
        };
        let report = run(&config);
        assert!(
            report.counterexamples.is_empty(),
            "unexpected divergence: {:?}",
            report.counterexamples.first().map(|c| &c.detail)
        );
        // 6 param sets × 7 scenarios × 3 policies × 3 modes per seed.
        assert_eq!(report.cases, 6 * 7 * 3 * 3);
        assert_eq!(report.events_fed, report.cases * 1_000);
    }

    #[test]
    fn policies_and_shards_compose() {
        let config = CampaignConfig {
            seed_start: 0,
            seed_end: 1,
            events: 600,
            all_policies: true,
            shards: Some(2),
            ..CampaignConfig::default()
        };
        let report = run(&config);
        assert!(report.counterexamples.is_empty());
        // 6 param sets × 7 scenarios × 3 policies × 2 shard counts.
        assert_eq!(report.cases, 6 * 7 * 3 * 2);
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
            all_policies: true,
            ..CampaignConfig::default()
        };
        let report = run(&config);
        let ids: Vec<&str> = report
            .counterexamples
            .iter()
            .map(|c| c.policy.id())
            .collect();
        assert_eq!(ids, BUILTIN_POLICY_IDS, "every policy must diverge");
        for cx in &report.counterexamples {
            assert!(
                cx.replay().is_err(),
                "{} artifact must reproduce",
                cx.policy.id()
            );
        }
    }

    #[test]
    fn each_policy_stops_at_its_own_first_divergence() {
        // Every policy diverges behaviorally under the monitor fault. The
        // sweep must go on past the first policy's divergence, and
        // `paper-fsm`'s counterexample must be the one a `paper-fsm`-only
        // sweep finds.
        let config = CampaignConfig {
            seed_start: 0,
            seed_end: 1,
            events: 1_000,
            fault: Some(Fault::MonitorWindowOffByOne),
            ..CampaignConfig::default()
        };
        let alone = run(&config);
        let all = run(&CampaignConfig {
            all_policies: true,
            ..config
        });
        let ids: Vec<&str> = all.counterexamples.iter().map(|c| c.policy.id()).collect();
        assert_eq!(ids, BUILTIN_POLICY_IDS);
        assert_eq!(alone.counterexamples.len(), 1);
        assert_eq!(all.counterexamples[0], alone.counterexamples[0]);
        assert!(all.cases > alone.cases);
        for cx in &all.counterexamples {
            assert!(
                !cx.detail.contains("checkpoint bytes"),
                "{}: the faulted params alone must not count as a divergence: {}",
                cx.policy.id(),
                cx.detail
            );
        }
    }

    #[test]
    fn sharded_sweep_catches_injected_faults() {
        let config = CampaignConfig {
            seed_start: 0,
            seed_end: 2,
            events: 1_200,
            fault: Some(Fault::HysteresisOffByOne),
            shards: Some(4),
            ..CampaignConfig::default()
        };
        let report = run(&config);
        let [cx] = &report.counterexamples[..] else {
            panic!(
                "one policy, one counterexample: {:?}",
                report.counterexamples
            );
        };
        assert!(matches!(cx.mode, Mode::Sharded { .. }));
        assert!(cx.replay().is_err(), "artifact must reproduce");
    }
}
