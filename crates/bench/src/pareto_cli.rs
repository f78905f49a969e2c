//! The `repro pareto` subcommand: Fig. 2-style benefit-vs-misspeculation
//! sweeps across the built-in control policies.
//!
//! Each policy traces one curve: its aggressiveness knob is swept over
//! five settings, each run over a fixed set of adversarial workloads,
//! and the aggregate correct/incorrect speculation counts per 1,000
//! events become one point. Together the curves show what the policy
//! seam buys — how much speculation benefit each control strategy
//! harvests at a given misspeculation budget:
//!
//! * `paper-fsm` sweeps `selection_threshold` (how biased a branch must
//!   look before it is optimized);
//! * `perceptron` sweeps its confidence margin `theta`;
//! * `cost-aware` sweeps the assumed recovery penalty in cycles.
//!
//! Results are written to `BENCH_pareto.json`. `--check` additionally
//! asserts that every policy's curve is *monotone-sane* (benefit and
//! misspeculation both non-decreasing as the knob loosens, within slack)
//! and harvests some benefit at its loosest setting — the CI smoke gate
//! for the policies. An all-zero curve (a run too short for anything to
//! deploy) fails it.

use crate::cli::Args;
use rsc_conformance::json::Json;
use rsc_control::{
    ControllerParams, CostAware, Perceptron, Policy, ReactiveController, TransitionLogPolicy,
    BUILTIN_POLICY_IDS,
};
use rsc_trace::Scenario;
use std::path::Path;

/// Chunk size for the chunked fast path.
const CHUNK: usize = 4_096;

/// Relative slack for the `--check` monotonicity gate: adjacent points
/// may regress by up to this fraction before the curve is called
/// non-monotone. Absorbs knee flatness without accepting inversions.
const SLACK: f64 = 0.02;

/// One point on a policy's curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Name of the swept knob.
    pub knob: &'static str,
    /// Knob setting (most conservative first).
    pub value: f64,
    /// Events fed across all scenarios.
    pub events: u64,
    /// Correct speculations across all scenarios.
    pub correct: u64,
    /// Misspeculations across all scenarios.
    pub incorrect: u64,
}

impl ParetoPoint {
    /// Correct speculations per 1,000 events — the benefit axis.
    pub fn benefit_per_1k(&self) -> f64 {
        1_000.0 * self.correct as f64 / self.events.max(1) as f64
    }

    /// Misspeculations per 1,000 events — the cost axis.
    pub fn misspec_per_1k(&self) -> f64 {
        1_000.0 * self.incorrect as f64 / self.events.max(1) as f64
    }
}

/// One policy's swept curve, points ordered most-conservative first.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoCurve {
    /// Policy id (one of [`BUILTIN_POLICY_IDS`]).
    pub policy: &'static str,
    /// Curve points, one per knob setting.
    pub points: Vec<ParetoPoint>,
}

impl ParetoCurve {
    /// Whether the curve is monotone-sane: walking from the most
    /// conservative knob setting to the loosest, benefit and
    /// misspeculation must both be non-decreasing within `SLACK`.
    pub fn is_monotone_sane(&self) -> bool {
        self.points.windows(2).all(|w| {
            let ok = |a: f64, b: f64| b >= a * (1.0 - SLACK) - 1e-9;
            ok(w[0].benefit_per_1k(), w[1].benefit_per_1k())
                && ok(w[0].misspec_per_1k(), w[1].misspec_per_1k())
        })
    }

    /// What `--check` requires of every curve: monotone-sane, and some
    /// correct speculation at the loosest setting.
    pub fn passes_check(&self) -> bool {
        self.is_monotone_sane() && self.points.last().is_some_and(|p| p.correct > 0)
    }
}

/// The workloads every cell runs: biased phases that invalidate, a
/// churning hot set, and an unstructured baseline. Periodicities are in
/// scaled-model time constants.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::PhaseFlip {
            branches: 8,
            flip_after: 4_000,
        },
        Scenario::BurstyHotSet {
            hot: 6,
            burst: 2_000,
        },
        Scenario::UniformRandom { branches: 16 },
    ]
}

/// The knob sweep for one policy: (knob name, settings, point builder).
/// Settings are ordered most-conservative first so the emitted curve
/// reads left-to-right along the risk axis.
fn sweep_for(policy: &'static str) -> (&'static str, Vec<f64>) {
    match policy {
        "paper-fsm" => ("selection_threshold", vec![0.999, 0.99, 0.9, 0.75, 0.55]),
        "perceptron" => ("theta", vec![192.0, 96.0, 48.0, 16.0, 4.0]),
        "cost-aware" => ("recovery", vec![1_600.0, 800.0, 400.0, 200.0, 100.0]),
        other => unreachable!("unknown builtin policy {other}"),
    }
}

/// Builds the (params, policy) pair for one cell of the sweep.
fn cell(policy: &'static str, value: f64) -> (ControllerParams, Policy) {
    let mut params = ControllerParams::scaled();
    match policy {
        "paper-fsm" => {
            params.selection_threshold = value;
            (params, Policy::PaperFsm)
        }
        "perceptron" => (
            params,
            Policy::Perceptron(Perceptron {
                theta: value as u32,
                ..Perceptron::default()
            }),
        ),
        "cost-aware" => (
            params,
            Policy::CostAware(CostAware {
                recovery: value as u32,
                ..CostAware::default()
            }),
        ),
        other => unreachable!("unknown builtin policy {other}"),
    }
}

/// Runs the full sweep: one curve per builtin policy.
pub fn run_sweep(events: u64, seed: u64) -> Vec<ParetoCurve> {
    BUILTIN_POLICY_IDS
        .iter()
        .map(|&policy| {
            let (knob, values) = sweep_for(policy);
            let points = values
                .into_iter()
                .map(|value| {
                    let mut point = ParetoPoint {
                        knob,
                        value,
                        events: 0,
                        correct: 0,
                        incorrect: 0,
                    };
                    for (si, scenario) in scenarios().into_iter().enumerate() {
                        let trace = scenario.generate(events, seed ^ (si as u64) << 8);
                        let (params, policy) = cell(policy, value);
                        let mut ctl = ReactiveController::builder(params)
                            .policy(policy)
                            .log_policy(TransitionLogPolicy::CountsOnly)
                            .build()
                            .expect("scaled params validate");
                        for chunk in trace.chunks(CHUNK) {
                            ctl.observe_chunk(chunk);
                        }
                        let s = ctl.stats();
                        point.events += s.events;
                        point.correct += s.correct;
                        point.incorrect += s.incorrect;
                    }
                    point
                })
                .collect();
            ParetoCurve { policy, points }
        })
        .collect()
}

/// The curves as the `BENCH_pareto.json` document.
pub fn to_json(curves: &[ParetoCurve], events: u64, seed: u64) -> Json {
    let point = |p: &ParetoPoint| {
        Json::obj([
            ("knob", Json::str(p.knob)),
            ("value", Json::Num(p.value)),
            ("events", Json::Int(p.events)),
            ("correct", Json::Int(p.correct)),
            ("incorrect", Json::Int(p.incorrect)),
            ("benefit_per_1k", Json::Num(p.benefit_per_1k())),
            ("misspec_per_1k", Json::Num(p.misspec_per_1k())),
        ])
    };
    let curve = |c: &ParetoCurve| {
        Json::obj([
            ("policy", Json::str(c.policy)),
            ("monotone_sane", Json::Bool(c.is_monotone_sane())),
            ("points", Json::Arr(c.points.iter().map(point).collect())),
        ])
    };
    Json::obj([
        ("benchmark", Json::str("pareto")),
        ("events_per_cell", Json::Int(events)),
        ("seed", Json::Int(seed)),
        (
            "scenarios",
            Json::Arr(scenarios().iter().map(|s| Json::str(s.name())).collect()),
        ),
        ("policies", Json::Arr(curves.iter().map(curve).collect())),
    ])
}

/// Renders the human-readable table.
pub fn render(curves: &[ParetoCurve]) -> String {
    let mut out = String::new();
    for c in curves {
        out.push_str(&format!(
            "{} ({}{})\n",
            c.policy,
            c.points.first().map_or("", |p| p.knob),
            if c.is_monotone_sane() {
                ", monotone"
            } else {
                ", NON-MONOTONE"
            }
        ));
        for p in &c.points {
            out.push_str(&format!(
                "  {:>8} -> benefit {:>8.1}/1k  misspec {:>7.3}/1k\n",
                p.value,
                p.benefit_per_1k(),
                p.misspec_per_1k()
            ));
        }
    }
    out
}

/// Runs the parsed subcommand and returns the process exit code.
///
/// # Errors
///
/// Returns a usage error for an out-of-range flag value.
pub(crate) fn run(args: &Args) -> Result<i32, String> {
    let events = args.int("--events")?;
    let seed = args.int("--seed")?;
    let out = Path::new(args.text("--out"));

    println!(
        "== Pareto sweep: benefit vs misspeculation across the policy zoo ==\n\
         {} events/cell, seed {}, policies {}",
        events,
        seed,
        BUILTIN_POLICY_IDS.join(", ")
    );
    let curves = run_sweep(events, seed);
    println!("{}", render(&curves));

    if let Some(dir) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return Ok(1);
        }
    }
    if let Err(e) = std::fs::write(out, format!("{}\n", to_json(&curves, events, seed))) {
        eprintln!("cannot write {}: {e}", out.display());
        return Ok(1);
    }
    println!("wrote {}", out.display());

    if let Some(mpath) = args.text_opt("--metrics-out") {
        export_sweep_metrics(events, seed, mpath.as_ref());
    }

    if args.given("--check") {
        let passing = curves.iter().filter(|c| c.passes_check()).count();
        println!(
            "check: {passing}/{} policies monotone-sane with benefit at the loosest setting",
            curves.len()
        );
        if passing < curves.len() {
            println!("FAIL: every policy's curve must be monotone-sane and end above zero benefit");
            return Ok(1);
        }
    }
    Ok(0)
}

/// The `--metrics-out` payload: one instrumented run of the sweep's
/// first cell, so the exposition carries the `rsc_policy_info` family
/// alongside the usual controller metrics.
fn export_sweep_metrics(events: u64, seed: u64, path: &std::path::Path) {
    let policy = BUILTIN_POLICY_IDS[0];
    let (_, values) = sweep_for(policy);
    let (params, cell_policy) = cell(policy, values[0]);
    let trace = scenarios()[0].generate(events, seed);
    let mut ctl = ReactiveController::builder(params)
        .policy(cell_policy)
        .log_policy(TransitionLogPolicy::CountsOnly)
        .metrics()
        .build()
        .expect("scaled params validate");
    for chunk in trace.chunks(CHUNK) {
        ctl.observe_chunk(chunk);
    }
    let registry = ctl.metrics().expect("metrics were enabled");
    crate::observe_cli::export_metrics(&registry, path);
    println!("wrote {} (policy {policy})", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::run_as;

    #[test]
    fn every_builtin_policy_is_sweepable() {
        for &policy in BUILTIN_POLICY_IDS.iter() {
            let (knob, values) = sweep_for(policy);
            assert!(!knob.is_empty());
            assert_eq!(values.len(), 5);
            for v in values {
                let (params, cell_policy) = cell(policy, v);
                assert!(params.validate().is_ok());
                assert_eq!(cell_policy.id(), policy);
            }
            assert!(Policy::builtin(policy).is_some());
        }
    }

    #[test]
    fn small_sweep_produces_points_for_every_policy() {
        let curves = run_sweep(4_000, 7);
        assert_eq!(curves.len(), BUILTIN_POLICY_IDS.len());
        for c in &curves {
            assert_eq!(c.points.len(), 5, "{}", c.policy);
            for p in &c.points {
                assert_eq!(p.events, 3 * 4_000, "{}", c.policy);
            }
        }
        let json = Json::parse(&to_json(&curves, 4_000, 7).to_string()).unwrap();
        let policies: Vec<&str> = json
            .get("policies")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| c.get("policy").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(policies, BUILTIN_POLICY_IDS);
        let first = &json.get("policies").and_then(Json::as_arr).unwrap()[0];
        let point = &first.get("points").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(point.get("events").and_then(Json::as_u64), Some(3 * 4_000));
    }

    #[test]
    fn monotone_gate_accepts_flat_and_rejects_inversion() {
        let mk = |pairs: &[(u64, u64)]| ParetoCurve {
            policy: "paper-fsm",
            points: pairs
                .iter()
                .map(|&(c, i)| ParetoPoint {
                    knob: "selection_threshold",
                    value: 0.9,
                    events: 1_000,
                    correct: c,
                    incorrect: i,
                })
                .collect(),
        };
        assert!(mk(&[(100, 1), (200, 2), (200, 2)]).is_monotone_sane());
        assert!(mk(&[(100, 1), (200, 2), (200, 2)]).passes_check());
        assert!(!mk(&[(500, 5), (100, 1)]).is_monotone_sane());
        assert!(!mk(&[(500, 5), (100, 1)]).passes_check());
        // A run too short for anything to deploy reads flat zero: sane
        // in shape, but the check refuses it.
        let zero = mk(&[(0, 0), (0, 0), (0, 0)]);
        assert!(zero.is_monotone_sane());
        assert!(!zero.passes_check());
    }

    #[test]
    fn cli_writes_the_artifact_and_checks() {
        let dir = std::env::temp_dir().join("rsc_pareto_cli_test");
        std::fs::remove_dir_all(&dir).ok();
        let out = dir.join("BENCH_pareto.json");
        let code = run_as(
            "pareto",
            &[
                "--events",
                "50000",
                "--out",
                out.to_str().unwrap(),
                "--check",
            ],
        );
        assert_eq!(code, 0, "check gate must pass at smoke scale");
        let json = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            json.get("events_per_cell").and_then(Json::as_u64),
            Some(50_000)
        );
        let last = json.get("policies").and_then(Json::as_arr).unwrap().last();
        assert_eq!(
            last.and_then(|c| c.get("policy")).and_then(Json::as_str),
            Some("cost-aware")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        assert_eq!(run_as("pareto", &["--bogus"]), 2);
        assert_eq!(run_as("pareto", &["--events", "lots"]), 2);
    }
}
