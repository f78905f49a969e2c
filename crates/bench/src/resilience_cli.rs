//! The `repro resilience` subcommand: drives the resilient runtime layer
//! through a fixed scenario matrix and emits a deterministic JSON report.
//!
//! Four scenarios run over the same phase-flip workload:
//!
//! * `fault-free` — resilience plumbing attached, infallible pipeline
//!   (the behavioral baseline);
//! * `flaky-pipeline` — seeded random deployment failures with
//!   retry/backoff;
//! * `repair-outage` — every repair request fails, so retries run out and
//!   the controller force-disables the affected branches (the fail-safe);
//! * `storm-breaker` — a misspeculation-rate circuit breaker with mass
//!   eviction layered on top of the flaky pipeline.
//!
//! Each scenario also snapshots the controller halfway, restores it, and
//! replays the remainder, checking resume-equals-straight-run. The
//! process exits `0` only when every built-in invariant holds (see
//! `Invariant`), so CI can treat the subcommand as a smoke test; the
//! JSON is a pure function of `--seed` and `--events`.

use crate::cli::Args;
use rsc_conformance::json::Json;
use rsc_control::resilience::{
    BreakerConfig, DeployerSpec, FaultMode, FaultScope, FaultSpec, RetryPolicy,
};
use rsc_control::{
    ControlStats, ControllerParams, ReactiveController, ResilienceConfig, TransitionKind,
};
use rsc_trace::{BranchRecord, Scenario};
use std::path::Path;

/// Runs the parsed subcommand and returns the process exit code.
///
/// # Errors
///
/// Returns a usage error for an out-of-range flag value.
pub(crate) fn run(args: &Args) -> Result<i32, String> {
    let events = args.int("--events")?;
    let seed = args.int("--seed")?;
    let out = Path::new(args.text("--out"));
    let metrics_out = args.text_opt("--metrics-out").map(Path::new);
    println!("resilience smoke: {events} events, seed {seed}");
    let trace = Scenario::PhaseFlip {
        branches: 6,
        flip_after: 900,
    }
    .generate(events, seed);

    let mut scenarios = Vec::new();
    let mut failures = Vec::new();
    let mut baseline_incorrect = 0u64;
    let mut storm_registry = None;
    for (name, config) in scenario_matrix(seed) {
        let outcome = run_scenario(name, config, &trace, metrics_out.is_some());
        if name == "fault-free" {
            baseline_incorrect = outcome.stats.incorrect;
        }
        if name == "storm-breaker" {
            storm_registry = outcome.registry.clone();
        }
        for inv in outcome.check(baseline_incorrect) {
            failures.push(format!("{name}: {inv}"));
        }
        println!(
            "  {name:<15} incorrect {:>8}  deploy failures {:>5}  retries {:>4}  \
             forced disables {:>3}  suppressed {:>4}  checkpoint {}",
            outcome.stats.incorrect,
            outcome.stats.deploy_failures,
            outcome.stats.deploy_retries,
            outcome.stats.forced_disables,
            outcome.stats.suppressed_enters,
            if outcome.checkpoint_ok {
                "ok"
            } else {
                "MISMATCH"
            },
        );
        scenarios.push(outcome.to_json());
    }

    let verdict = failures.is_empty();
    let report = Json::obj([
        ("experiment", Json::str("resilience")),
        ("seed", Json::Int(seed)),
        ("events", Json::Int(events)),
        ("scenarios", Json::Arr(scenarios)),
        (
            "failed_invariants",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
        ("pass", Json::Bool(verdict)),
    ]);
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create report directory");
        }
    }
    std::fs::write(out, report.to_string()).expect("write report");
    println!("wrote {}", out.display());

    if let Some(mpath) = metrics_out {
        // The storm-breaker scenario is the metric-richest run (deploy
        // faults, retries, and breaker phase changes all fire).
        let registry = storm_registry.expect("storm-breaker scenario always runs");
        crate::observe_cli::export_metrics(&registry, mpath);
        println!("wrote {}", mpath.display());
    }

    if verdict {
        println!("all resilience invariants hold");
        return Ok(0);
    }
    for f in &failures {
        println!("FAIL: {f}");
    }
    Ok(1)
}

/// Parameters sized so the phase-flip workload exercises selection,
/// eviction, revisit, and the retry machinery many times per run: the
/// monitor window fits well inside one 900-execution bias phase, and the
/// eviction threshold trips after ~10 misspeculations.
fn params() -> ControllerParams {
    let mut p = ControllerParams::scaled();
    p.monitor_period = 150;
    p.eviction = rsc_control::EvictionMode::Counter {
        up: 50,
        down: 1,
        threshold: 500,
    };
    p.revisit = rsc_control::Revisit::After(2_000);
    p.oscillation_limit = Some(20);
    p.optimization_latency = 200;
    p
}

fn scenario_matrix(seed: u64) -> [(&'static str, ResilienceConfig); 4] {
    let retry = RetryPolicy {
        max_attempts: 4,
        base_backoff: 300,
        max_backoff: 2_400,
    };
    [
        ("fault-free", ResilienceConfig::reliable()),
        (
            "flaky-pipeline",
            ResilienceConfig {
                deployer: DeployerSpec::Faulty(FaultSpec {
                    seed,
                    mode: FaultMode::FixedRate { per_mille: 350 },
                    scope: FaultScope::All,
                    wasted: 150,
                }),
                retry,
                breaker: None,
            },
        ),
        (
            "repair-outage",
            ResilienceConfig {
                deployer: DeployerSpec::Faulty(FaultSpec {
                    seed,
                    mode: FaultMode::FixedRate { per_mille: 1000 },
                    scope: FaultScope::RepairOnly,
                    wasted: 150,
                }),
                retry,
                breaker: None,
            },
        ),
        (
            "storm-breaker",
            ResilienceConfig {
                deployer: DeployerSpec::Faulty(FaultSpec {
                    seed,
                    mode: FaultMode::FixedRate { per_mille: 350 },
                    scope: FaultScope::All,
                    wasted: 150,
                }),
                retry,
                breaker: Some(BreakerConfig {
                    bucket_events: 400,
                    buckets: 4,
                    open_threshold: 0.08,
                    close_threshold: 0.02,
                    cooldown_events: 3_000,
                    probe_events: 1_500,
                    mass_evict_top_k: 3,
                }),
            },
        ),
    ]
}

struct ScenarioOutcome {
    name: &'static str,
    stats: ControlStats,
    breaker_openings: u64,
    checkpoint_ok: bool,
    checkpoint_bytes: usize,
    /// The scenario's metrics registry, when telemetry was requested
    /// (`--metrics-out`). Not part of the JSON report.
    registry: Option<rsc_control::MetricsRegistry>,
}

impl ScenarioOutcome {
    /// The invariants the smoke test enforces; empty means pass.
    fn check(&self, baseline_incorrect: u64) -> Vec<Invariant> {
        let mut out = Vec::new();
        if !self.checkpoint_ok {
            out.push(Invariant::CheckpointDiverged);
        }
        match self.name {
            "repair-outage" => {
                // The fail-safe must fire, and the damage from stale
                // speculating code must stay bounded relative to the
                // fault-free run.
                if self.stats.forced_disables == 0 {
                    out.push(Invariant::NoForcedDisables);
                }
                if self.stats.incorrect > 2 * baseline_incorrect.max(1) {
                    out.push(Invariant::UnboundedMisspeculation);
                }
            }
            "storm-breaker" if self.breaker_openings == 0 => {
                out.push(Invariant::BreakerNeverOpened);
            }
            _ => {}
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("events", Json::Int(self.stats.events)),
            ("correct", Json::Int(self.stats.correct)),
            ("incorrect", Json::Int(self.stats.incorrect)),
            ("reopt_requests", Json::Int(self.stats.reopt_requests)),
            ("deploy_failures", Json::Int(self.stats.deploy_failures)),
            ("deploy_retries", Json::Int(self.stats.deploy_retries)),
            ("forced_disables", Json::Int(self.stats.forced_disables)),
            ("suppressed_enters", Json::Int(self.stats.suppressed_enters)),
            ("breaker_openings", Json::Int(self.breaker_openings)),
            ("checkpoint_ok", Json::Bool(self.checkpoint_ok)),
            ("checkpoint_bytes", Json::Int(self.checkpoint_bytes as u64)),
        ])
    }
}

enum Invariant {
    NoForcedDisables,
    UnboundedMisspeculation,
    BreakerNeverOpened,
    CheckpointDiverged,
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invariant::NoForcedDisables => {
                write!(f, "total repair outage produced no forced disables")
            }
            Invariant::UnboundedMisspeculation => write!(
                f,
                "misspeculation under repair outage exceeded 2x the fault-free run"
            ),
            Invariant::BreakerNeverOpened => {
                write!(f, "storm breaker never opened under sustained faults")
            }
            Invariant::CheckpointDiverged => {
                write!(f, "snapshot/restore replay diverged from the straight run")
            }
        }
    }
}

fn run_scenario(
    name: &'static str,
    config: ResilienceConfig,
    trace: &[BranchRecord],
    metrics: bool,
) -> ScenarioOutcome {
    let builder = |config: ResilienceConfig| {
        let mut b = ReactiveController::builder(params()).resilience(config);
        if metrics {
            b = b.metrics();
        }
        b
    };
    let mut ctl = builder(config).build().expect("config validates");
    for r in trace {
        ctl.observe(r);
    }

    // Checkpoint pillar: snapshot halfway, restore, replay the tail, and
    // demand bit-identical end state (byte equality of the re-snapshot).
    // With `metrics` on, the telemetry section rides along, so this also
    // proves histogram state replays identically after a restore.
    let mut first = builder(config).build().expect("validated");
    for r in &trace[..trace.len() / 2] {
        first.observe(r);
    }
    let cp = first.snapshot();
    let checkpoint_bytes = cp.len();
    let mut resumed = ReactiveController::restore(&cp).expect("own snapshot restores");
    for r in &trace[trace.len() / 2..] {
        resumed.observe(r);
    }
    let checkpoint_ok = resumed.snapshot() == ctl.snapshot();

    ScenarioOutcome {
        name,
        stats: ctl.stats(),
        breaker_openings: ctl.transition_log().count(TransitionKind::BreakerOpened),
        checkpoint_ok,
        checkpoint_bytes,
        registry: ctl.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{parse_as, run_as};

    #[test]
    fn parse_defaults_and_flags() {
        let d = parse_as("resilience", &[]).unwrap();
        assert_eq!(d.int("--events"), Ok(200_000u64));
        assert_eq!(d.int("--seed"), Ok(42u64));
        assert_eq!(
            d.text("--out"),
            "resilience-artifacts/RESILIENCE_report.json"
        );
        assert_eq!(d.text_opt("--metrics-out"), None);
        let p = parse_as(
            "resilience",
            &[
                "--events",
                "9000",
                "--seed",
                "3",
                "--out",
                "r.json",
                "--metrics-out",
                "r.prom",
            ],
        )
        .unwrap();
        assert_eq!(p.int("--events"), Ok(9000u64));
        assert_eq!(p.int("--seed"), Ok(3u64));
        assert_eq!(p.text("--out"), "r.json");
        assert_eq!(p.text_opt("--metrics-out"), Some("r.prom"));
    }

    #[test]
    fn parse_diagnoses_bad_input_without_panicking() {
        assert_eq!(
            parse_as("resilience", &["--events"]).unwrap_err(),
            "--events needs a value"
        );
        assert_eq!(
            parse_as("resilience", &["--seed", "lots"]).unwrap_err(),
            "--seed needs an integer, got \"lots\""
        );
        assert_eq!(
            parse_as("resilience", &["--bogus"]).unwrap_err(),
            "unknown resilience option: --bogus"
        );
    }

    #[test]
    fn usage_error_exits_two() {
        assert_eq!(run_as("resilience", &["--bogus"]), 2);
        assert_eq!(run_as("resilience", &["--events", "lots"]), 2);
    }

    #[test]
    fn report_is_deterministic_for_a_fixed_seed() {
        let trace = Scenario::PhaseFlip {
            branches: 6,
            flip_after: 900,
        }
        .generate(20_000, 9);
        // Only determinism and the checkpoint property here — the
        // scale-dependent fail-safe/breaker invariants get a full-size
        // run in `repair_outage_forces_disables_with_bounded_damage`.
        let render = || {
            let mut out = Vec::new();
            for (name, config) in scenario_matrix(9) {
                let o = run_scenario(name, config, &trace, true);
                assert!(o.checkpoint_ok, "{name} checkpoint replay diverged");
                out.push(o.to_json().to_string());
            }
            out.join("\n")
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn repair_outage_forces_disables_with_bounded_damage() {
        let trace = Scenario::PhaseFlip {
            branches: 6,
            flip_after: 900,
        }
        .generate(60_000, 42);
        let matrix = scenario_matrix(42);
        let baseline = run_scenario(matrix[0].0, matrix[0].1, &trace, false);
        let outage = run_scenario(matrix[2].0, matrix[2].1, &trace, false);
        assert_eq!(outage.name, "repair-outage");
        assert!(outage.stats.forced_disables > 0, "fail-safe must fire");
        assert!(
            outage.stats.incorrect <= 2 * baseline.stats.incorrect.max(1),
            "outage misspeculation {} vs fault-free {}",
            outage.stats.incorrect,
            baseline.stats.incorrect
        );
        assert!(outage.checkpoint_ok);
    }
}
