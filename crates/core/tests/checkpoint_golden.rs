//! Golden v4 checkpoints: blobs committed under `tests/fixtures/` were
//! written by an earlier build of the controller, before its per-branch
//! record was compacted. Each must restore and re-snapshot to the same
//! bytes, and this build must write the same bytes from the same run, so
//! a layout change inside the controller never changes the format.
//!
//! The scenarios between them leave branches in every FSM state and every
//! eviction tracker, under all three built-in policies, with a faulty
//! deployer (retry states), a storm breaker (its per-branch miss ranks),
//! a metrics registry and both log policies.
//!
//! `write_golden_fixtures` (ignored) regenerates the files; run it only on
//! purpose, with
//! `cargo test -p rsc-control --test checkpoint_golden -- --ignored`.

use rsc_control::resilience::{
    BreakerConfig, DeployerSpec, FaultMode, FaultScope, FaultSpec, RetryPolicy,
};
use rsc_control::{
    BranchStateView, ControllerCheckpoint, ControllerParams, CostAware, EvictionMode,
    MonitorPolicy, Perceptron, Policy, ReactiveController, ResilienceConfig, Revisit, TrackerView,
    TransitionLogPolicy,
};
use rsc_trace::rng::SplitMix64;
use rsc_trace::{BranchId, BranchRecord};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Static branches in the generated stream.
const BRANCHES: u32 = 16;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn tiny_params() -> ControllerParams {
    ControllerParams {
        monitor_period: 60,
        monitor_policy: MonitorPolicy::FixedWindow,
        monitor_sample_rate: 1,
        selection_threshold: 0.9,
        eviction: EvictionMode::Counter {
            up: 50,
            down: 1,
            threshold: 150,
        },
        revisit: Revisit::After(400),
        oscillation_limit: Some(3),
        optimization_latency: 600,
    }
}

/// Branches of four kinds: stable (b % 4 == 0), phase-flipping every 700
/// events (1), a coin (2), and 95% biased (3).
fn stream(seed: u64, n: u64) -> Vec<BranchRecord> {
    let mut rng = SplitMix64::new(seed);
    let mut instr = 0u64;
    (0..n)
        .map(|i| {
            let branch = (rng.next_u64() % u64::from(BRANCHES)) as u32;
            let roll = rng.next_u64() % 1000;
            let taken = match branch % 4 {
                0 => roll < 999,
                1 => ((i / 700) % 2 == 0) == (roll < 970),
                2 => roll < 500,
                _ => roll < 950,
            };
            instr += 3 + rng.next_u64() % 8;
            BranchRecord {
                branch: BranchId::new(branch),
                taken,
                instr,
            }
        })
        .collect()
}

fn faulty(breaker: bool) -> ResilienceConfig {
    ResilienceConfig {
        deployer: DeployerSpec::Faulty(FaultSpec {
            seed: 31,
            mode: FaultMode::FixedRate { per_mille: 450 },
            scope: FaultScope::All,
            wasted: 15,
        }),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: 400,
            max_backoff: 1_600,
        },
        breaker: breaker.then_some(BreakerConfig {
            bucket_events: 50,
            buckets: 3,
            open_threshold: 0.15,
            close_threshold: 0.05,
            cooldown_events: 100,
            probe_events: 60,
            mass_evict_top_k: 2,
        }),
    }
}

/// One golden scenario: a controller and the events fed to it before
/// each snapshot.
struct Scenario {
    name: &'static str,
    build: fn() -> ReactiveController,
    seed: u64,
    snapshots_at: &'static [u64],
}

const SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "paper-fsm-counter-faulty",
        build: || {
            ReactiveController::builder(tiny_params())
                .resilience(faulty(false))
                .build()
                .unwrap()
        },
        seed: 1,
        snapshots_at: &[900, 2_600, 5_000],
    },
    Scenario {
        name: "paper-fsm-breaker",
        build: || {
            ReactiveController::builder(tiny_params())
                .resilience(faulty(true))
                .log_policy(TransitionLogPolicy::CountsOnly)
                .build()
                .unwrap()
        },
        seed: 2,
        snapshots_at: &[1_300, 4_100],
    },
    Scenario {
        name: "paper-fsm-sampling",
        build: || {
            let mut p = tiny_params().without_revisit().with_latency(0);
            p.eviction = EvictionMode::Sampling {
                period: 40,
                samples: 10,
                bias_threshold: 0.98,
            };
            ReactiveController::builder(p).build().unwrap()
        },
        seed: 3,
        snapshots_at: &[1_100, 3_900],
    },
    Scenario {
        name: "paper-fsm-open-loop-confidence",
        build: || {
            let p = tiny_params()
                .without_eviction()
                .with_monitor_sampling(2)
                .with_confidence_monitor(2.58, 8, 90);
            ReactiveController::builder(p).metrics().build().unwrap()
        },
        seed: 4,
        snapshots_at: &[700, 3_300],
    },
    Scenario {
        name: "perceptron",
        build: || {
            ReactiveController::builder(tiny_params())
                .policy(Policy::Perceptron(Perceptron {
                    theta: 12,
                    w_max: 64,
                    miss_weight: 8,
                }))
                .build()
                .unwrap()
        },
        seed: 5,
        snapshots_at: &[800, 3_700],
    },
    Scenario {
        name: "cost-aware",
        build: || {
            ReactiveController::builder(tiny_params())
                .policy(Policy::CostAware(CostAware::default()))
                .metrics()
                .build()
                .unwrap()
        },
        seed: 6,
        snapshots_at: &[1_200, 4_400],
    },
];

/// Every `(file name, blob)` this build writes for the scenarios.
fn blobs() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for s in &SCENARIOS {
        let last = *s.snapshots_at.last().expect("at least one snapshot");
        let records = stream(s.seed, last);
        let mut ctl = (s.build)();
        let mut fed = 0u64;
        for &at in s.snapshots_at {
            for r in &records[fed as usize..at as usize] {
                ctl.observe(r);
            }
            fed = at;
            out.push((format!("{}-{at}.rsck", s.name), ctl.snapshot().into_bytes()));
        }
    }
    out
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn golden_checkpoints_restore_and_resnapshot_byte_identically() {
    for (name, _) in blobs() {
        let golden = read_fixture(&name);
        let ctl = ReactiveController::restore(&ControllerCheckpoint::from_bytes(golden.clone()))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            ctl.snapshot().as_bytes() == golden.as_slice(),
            "{name}: re-snapshot differs from the golden bytes"
        );
    }
}

#[test]
fn this_build_writes_the_golden_bytes() {
    for (name, blob) in blobs() {
        assert!(
            blob == read_fixture(&name),
            "{name}: this build's snapshot differs from the golden bytes"
        );
    }
}

#[test]
fn golden_checkpoints_cover_every_state_tracker_and_policy() {
    let mut states = BTreeSet::new();
    let mut policies = BTreeSet::new();
    for (name, _) in blobs() {
        let cp = ControllerCheckpoint::from_bytes(read_fixture(&name));
        let ctl = ReactiveController::restore(&cp).unwrap();
        policies.insert(ctl.policy_id());
        for b in 0..BRANCHES {
            let state = match ctl.branch_snapshot(BranchId::new(b)).state {
                BranchStateView::Monitor { .. } => "monitor",
                BranchStateView::PendingBiased { .. } => "pending-biased",
                BranchStateView::Biased { tracker, .. } => match tracker {
                    TrackerView::Counter { .. } => "biased-counter",
                    TrackerView::Sampling { .. } => "biased-sampling",
                    TrackerView::Never => "biased-never",
                },
                BranchStateView::PendingMonitor { .. } => "pending-monitor",
                BranchStateView::Unbiased { remaining: Some(_) } => "unbiased-revisit",
                BranchStateView::Unbiased { remaining: None } => "unbiased-never",
                BranchStateView::Disabled => "disabled",
                BranchStateView::RetryBiased { .. } => "retry-biased",
                BranchStateView::RetryMonitor { .. } => "retry-monitor",
            };
            states.insert(state);
        }
    }
    let want: BTreeSet<_> = [
        "monitor",
        "pending-biased",
        "biased-counter",
        "biased-sampling",
        "biased-never",
        "pending-monitor",
        "unbiased-revisit",
        "unbiased-never",
        "disabled",
        "retry-biased",
        "retry-monitor",
    ]
    .into();
    assert_eq!(states, want);
    assert_eq!(policies, ["cost-aware", "paper-fsm", "perceptron"].into());
}

#[test]
#[ignore = "rewrites the committed golden fixtures"]
fn write_golden_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, blob) in blobs() {
        std::fs::write(dir.join(name), blob).unwrap();
    }
}
