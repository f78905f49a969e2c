//! The `repro conformance` subcommand: differential fuzzing of the
//! optimized controller against the golden reference, plus replay of
//! saved counterexample artifacts.
//!
//! Exit status encodes the verdict for CI:
//!
//! * plain campaign — `0` when no divergence is found, `1` when one is
//!   (the shrunk counterexample is written to the artifact directory);
//! * `--inject-fault` self-test — inverted: `0` when the fault IS
//!   caught, `1` when the harness misses it;
//! * `--replay` — `1` while the stored divergence still reproduces, `0`
//!   once it no longer does.

use crate::cli::Args;
use rsc_conformance::{campaign, CampaignConfig, Counterexample, Fault};
use std::path::Path;

/// Runs the parsed subcommand and returns the process exit code.
///
/// # Errors
///
/// Returns a usage error for a malformed `--seeds` range or an unknown
/// `--inject-fault` name.
pub(crate) fn run(args: &Args) -> Result<i32, String> {
    let seeds = args.text("--seeds");
    let (seed_start, seed_end) =
        parse_seeds(seeds).ok_or_else(|| format!("--seeds must be N or A..B, got {seeds:?}"))?;
    let fault = match args.text_opt("--inject-fault") {
        Some(name) => Some(Fault::from_name(name).ok_or_else(|| {
            let names: Vec<&str> = Fault::ALL.iter().map(|f| f.name()).collect();
            format!("unknown fault {name:?}; known faults: {}", names.join(", "))
        })?),
        None => None,
    };
    let config = CampaignConfig {
        seed_start,
        seed_end,
        events: args.int("--events")?,
        fault,
    };

    if let Some(path) = args.text_opt("--replay") {
        return Ok(run_replay(path.as_ref()));
    }
    let code = if args.given("--policies") {
        run_policy_campaign(&config)
    } else {
        let shards = args.int_opt("--shards")?;
        run_campaign(&config, shards, args.text("--artifact-dir").as_ref())
    };
    if let Some(mpath) = args.text_opt("--metrics-out") {
        export_campaign_metrics(&config, mpath.as_ref());
    }
    Ok(code)
}

/// The `--metrics-out` payload: one instrumented controller run over the
/// campaign's first parameter set and first seed, so the exported
/// families describe a representative adversarial case rather than the
/// whole (multi-controller) campaign.
fn export_campaign_metrics(config: &CampaignConfig, path: &Path) {
    use rsc_conformance::campaign::{param_matrix, scenarios_for};
    use rsc_control::{ReactiveController, TransitionLogPolicy};

    let (name, params) = param_matrix()[0];
    let scenario = scenarios_for(&params)[0];
    let trace = scenario.generate(config.events, config.seed_start);
    let mut ctl = ReactiveController::builder(params)
        .log_policy(TransitionLogPolicy::CountsOnly)
        .metrics()
        .build()
        .expect("campaign params validate");
    for r in &trace {
        ctl.observe(r);
    }
    let registry = ctl.metrics().expect("metrics were enabled");
    crate::observe_cli::export_metrics(&registry, path);
    println!(
        "wrote {} (param set {name:?}, scenario {scenario:?})",
        path.display()
    );
}

fn run_replay(path: &Path) -> i32 {
    let cx = match Counterexample::load(path) {
        Ok(cx) => cx,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "replaying {}: scenario {}, seed {}, mode {}, {} events{}",
        path.display(),
        cx.scenario,
        cx.seed,
        cx.mode.name(),
        cx.trace.len(),
        match cx.fault {
            Some(f) => format!(", injected fault {f}"),
            None => String::new(),
        },
    );
    match cx.replay() {
        Err(div) => {
            println!("divergence reproduces: {div}");
            1
        }
        Ok(()) => {
            println!("divergence no longer reproduces (fixed?)");
            0
        }
    }
}

/// The `--policies` sweep: every builtin policy locksteps its chunked
/// and sharded fast paths against its own per-event semantics (and the
/// paper FSM against the golden reference). Exit semantics mirror the
/// plain campaign: with a fault injected, catching it is success.
fn run_policy_campaign(config: &CampaignConfig) -> i32 {
    println!(
        "policy-zoo campaign: seeds {}..{}, {} events/trace, policies {}{}",
        config.seed_start,
        config.seed_end,
        config.events,
        rsc_control::BUILTIN_POLICY_IDS.join(", "),
        match config.fault {
            Some(f) => format!(", injected fault {f}"),
            None => String::new(),
        },
    );
    let report = campaign::run_policies(config);
    println!(
        "ran {} differential cases ({} events per controller)",
        report.cases, report.events_fed
    );
    match (report.failure, config.fault) {
        (None, None) => {
            println!("no divergences: every policy's fast paths match its per-event semantics");
            0
        }
        (None, Some(fault)) => {
            println!("FAIL: injected fault {fault} was NOT caught");
            1
        }
        (Some(div), fault) => {
            println!("{div}");
            if fault.is_some() {
                println!("injected fault caught: harness self-test passed");
                0
            } else {
                1
            }
        }
    }
}

fn run_campaign(config: &CampaignConfig, shards: Option<usize>, artifact_dir: &Path) -> i32 {
    println!(
        "conformance campaign: seeds {}..{}, {} events/trace{}{}",
        config.seed_start,
        config.seed_end,
        config.events,
        match shards {
            Some(n) => format!(", sharded lockstep over 1..={n} shards"),
            None => String::new(),
        },
        match config.fault {
            Some(f) => format!(", injected fault {f}"),
            None => String::new(),
        },
    );
    let report = match shards {
        Some(n) => campaign::run_sharded(config, n),
        None => campaign::run(config),
    };
    println!(
        "ran {} differential cases ({} events per controller)",
        report.cases, report.events_fed
    );

    match (report.counterexample, config.fault) {
        (None, None) => {
            println!("no divergences: optimized controller conforms to the reference");
            0
        }
        (None, Some(fault)) => {
            println!("FAIL: injected fault {fault} was NOT caught");
            1
        }
        (Some(cx), fault) => {
            let path =
                artifact_dir.join(format!("counterexample-{}-{}.json", cx.scenario, cx.seed));
            println!(
                "divergence found ({} events after shrinking): {}",
                cx.trace.len(),
                cx.detail
            );
            match cx.save(&path) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write artifact: {e}"),
            }
            if fault.is_some() {
                println!("injected fault caught and minimized: harness self-test passed");
                0
            } else {
                println!("replay with: repro conformance --replay {}", path.display());
                1
            }
        }
    }
}

fn parse_seeds(v: &str) -> Option<(u64, u64)> {
    if let Some((a, b)) = v.split_once("..") {
        let start = a.parse().ok()?;
        let end = b.parse().ok()?;
        (start < end).then_some((start, end))
    } else {
        let n: u64 = v.parse().ok()?;
        (n > 0).then_some((0, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::run_as;

    #[test]
    fn seed_ranges_parse() {
        assert_eq!(parse_seeds("64"), Some((0, 64)));
        assert_eq!(parse_seeds("3..9"), Some((3, 9)));
        assert_eq!(parse_seeds("9..3"), None);
        assert_eq!(parse_seeds("0"), None);
        assert_eq!(parse_seeds("x"), None);
    }

    #[test]
    fn self_test_catches_fault_and_writes_artifact() {
        let dir = std::env::temp_dir().join("rsc_conformance_cli_test");
        std::fs::remove_dir_all(&dir).ok();
        let code = run_as(
            "conformance",
            &[
                "--seeds",
                "0..2",
                "--events",
                "1500",
                "--inject-fault",
                "hysteresis-off-by-one",
                "--artifact-dir",
                dir.to_str().unwrap(),
            ],
        );
        assert_eq!(code, 0, "self-test should catch the fault");
        let artifacts: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(artifacts.len(), 1, "exactly one artifact expected");
        let path = artifacts[0].as_ref().unwrap().path();
        assert_eq!(
            run_as("conformance", &["--replay", path.to_str().unwrap()]),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_smoke_campaign_exits_zero() {
        assert_eq!(
            run_as("conformance", &["--seeds", "0..1", "--events", "1000"]),
            0
        );
    }

    #[test]
    fn policy_campaign_exits_zero() {
        let code = run_as(
            "conformance",
            &["--seeds", "0..1", "--events", "600", "--policies"],
        );
        assert_eq!(code, 0);
    }

    #[test]
    fn sharded_campaign_exits_zero() {
        let code = run_as(
            "conformance",
            &["--seeds", "0..1", "--events", "800", "--shards", "3"],
        );
        assert_eq!(code, 0);
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        assert_eq!(run_as("conformance", &["--bogus"]), 2);
        assert_eq!(run_as("conformance", &["--shards", "0"]), 2);
        assert_eq!(run_as("conformance", &["--seeds", "9..3"]), 2);
        assert_eq!(run_as("conformance", &["--inject-fault", "nope"]), 2);
    }
}
