//! The `repro fuzz` subcommand: coverage-guided scenario fuzzing of the
//! reactive controller with an analytic misspeculation oracle.
//!
//! Exit status encodes the verdict for CI:
//!
//! * `0` — campaign ran; every analytically-checked corpus entry agreed
//!   with simulation (or the oracle was off);
//! * `1` — at least one corpus entry diverged from the Markov model
//!   beyond the documented tolerance (the divergence is written as a
//!   structured artifact, never a silent pass);
//! * `2` — usage error.

use crate::cli::Args;
use rsc_conformance::json::Json;
use rsc_conformance::params_to_json;
use rsc_fuzz::corpus::save_entries;
use rsc_fuzz::{fuzz, AnalyticCheck, FuzzConfig, FuzzReport};
use std::path::Path;

/// The campaign configuration the flags ask for. The analytic oracle is
/// opt-in on the command line.
fn config(args: &Args) -> Result<FuzzConfig, String> {
    Ok(FuzzConfig {
        iters: args.int("--iters")?,
        seed: args.int("--seed")?,
        events: args.int("--events")?,
        minimize: args.given("--minimize"),
        analytic_check: args.given("--analytic-check"),
        ..FuzzConfig::new()
    })
}

/// Runs the parsed subcommand and returns the process exit code.
///
/// # Errors
///
/// Returns a usage error for an out-of-range flag value.
pub(crate) fn run(args: &Args) -> Result<i32, String> {
    let config = config(args)?;
    println!(
        "fuzz campaign: {} iterations, seed {}, {} events/baseline{}{}",
        config.iters,
        config.seed,
        config.events,
        if config.minimize {
            ", minimizing worst case"
        } else {
            ""
        },
        if config.analytic_check {
            ", analytic oracle on"
        } else {
            ""
        },
    );
    let report = fuzz(&config);

    println!(
        "coverage: baseline {} points (7 hand-written scenarios), fuzz {} points ({})",
        report.baseline_points,
        report.fuzz_points,
        if report.beat_baseline() {
            "fuzzing beat the hand-written campaign"
        } else {
            "no gain over the hand-written campaign"
        },
    );
    println!(
        "corpus: {} entries ({} fuzz finds)",
        report.corpus.len(),
        report.corpus.len().saturating_sub(7),
    );
    if let Some(w) = &report.worst {
        println!(
            "worst case: entry {} ({}), misspec rate {:.5} ({} misses / {} events){}",
            w.entry,
            report.corpus[w.entry].genome.describe(),
            w.misspec_rate,
            w.misses,
            w.events,
            match &w.minimized {
                Some(t) => format!(", minimized to {} events", t.len()),
                None => String::new(),
            },
        );
    }
    for &i in &report.divergences {
        if let AnalyticCheck::Checked {
            predicted,
            simulated,
            ..
        } = &report.corpus[i].analytic
        {
            println!(
                "ANALYTIC DIVERGENCE: entry {i} ({}): predicted {predicted:.5}, \
                 simulated {simulated:.5}",
                report.corpus[i].genome.describe(),
            );
        }
    }

    if let Some(dir) = args.text_opt("--corpus-dir") {
        let dir = Path::new(dir);
        match write_artifacts(dir, &report) {
            Ok(()) => println!("wrote corpus artifacts to {}", dir.display()),
            Err(e) => {
                eprintln!("failed to write corpus artifacts: {e}");
                return Ok(1);
            }
        }
    }

    if report.divergences.is_empty() {
        if config.analytic_check {
            println!("analytic oracle agrees with simulation on every corpus entry");
        }
        return Ok(0);
    }
    {
        println!(
            "FAIL: {} corpus entr{} diverged from the analytic model",
            report.divergences.len(),
            if report.divergences.len() == 1 {
                "y"
            } else {
                "ies"
            },
        );
    }
    Ok(1)
}

/// Writes `entry-NNN.json` per corpus entry, a campaign `report.json`,
/// and (when minimization ran) `worst-case.json` with the minimized
/// trace, under `dir`.
fn write_artifacts(dir: &Path, report: &FuzzReport) -> std::io::Result<()> {
    save_entries(dir, &report.corpus)?;
    std::fs::write(dir.join("report.json"), report_json(report).to_string())?;
    if let Some(w) = &report.worst {
        if let Some(trace) = &w.minimized {
            let doc = Json::obj([
                ("format", Json::Int(1)),
                ("entry", Json::Int(w.entry as u64)),
                ("misspec_rate", Json::Num(w.misspec_rate)),
                ("params", params_to_json(&report.config.params)),
                (
                    "genome",
                    rsc_fuzz::genome::genome_to_json(&report.corpus[w.entry].genome),
                ),
                (
                    "trace",
                    Json::Arr(
                        trace
                            .iter()
                            .map(|r| {
                                Json::Arr(vec![
                                    Json::Int(r.branch.index() as u64),
                                    Json::Bool(r.taken),
                                    Json::Int(r.instr),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]);
            std::fs::write(dir.join("worst-case.json"), doc.to_string())?;
        }
    }
    Ok(())
}

/// The structured campaign summary (`report.json`).
fn report_json(report: &FuzzReport) -> Json {
    Json::obj([
        ("format", Json::Int(1)),
        ("iters", Json::Int(report.config.iters)),
        ("seed", Json::Int(report.config.seed)),
        ("events", Json::Int(report.config.events)),
        ("params", params_to_json(&report.config.params)),
        (
            "baseline_points",
            Json::Int(u64::from(report.baseline_points)),
        ),
        ("fuzz_points", Json::Int(u64::from(report.fuzz_points))),
        ("beat_baseline", Json::Bool(report.beat_baseline())),
        ("corpus_entries", Json::Int(report.corpus.len() as u64)),
        (
            "kinds_seen",
            Json::Arr(
                report
                    .coverage
                    .kinds_seen()
                    .into_iter()
                    .map(Json::str)
                    .collect(),
            ),
        ),
        (
            "divergences",
            Json::Arr(
                report
                    .divergences
                    .iter()
                    .map(|&i| Json::Int(i as u64))
                    .collect(),
            ),
        ),
        (
            "worst_case",
            match &report.worst {
                Some(w) => Json::obj([
                    ("entry", Json::Int(w.entry as u64)),
                    ("misspec_rate", Json::Num(w.misspec_rate)),
                    ("misses", Json::Int(w.misses)),
                    ("events", Json::Int(w.events)),
                    (
                        "minimized_events",
                        match &w.minimized {
                            Some(t) => Json::Int(t.len() as u64),
                            None => Json::Null,
                        },
                    ),
                ]),
                None => Json::Null,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{parse_as, run_as};

    #[test]
    fn defaults_match_fuzz_config_with_oracle_opt_in() {
        let args = parse_as("fuzz", &[]).unwrap();
        assert_eq!(
            config(&args).unwrap(),
            FuzzConfig {
                analytic_check: false,
                ..FuzzConfig::new()
            }
        );
        assert_eq!(args.text_opt("--corpus-dir"), None);
    }

    #[test]
    fn all_flags_parse_together() {
        let args = parse_as(
            "fuzz",
            &[
                "--iters",
                "50",
                "--seed",
                "7",
                "--events",
                "900",
                "--corpus-dir",
                "out",
                "--minimize",
                "--analytic-check",
            ],
        )
        .unwrap();
        let config = config(&args).unwrap();
        assert_eq!(config.iters, 50);
        assert_eq!(config.seed, 7);
        assert_eq!(config.events, 900);
        assert!(config.minimize);
        assert!(config.analytic_check);
        assert_eq!(args.text_opt("--corpus-dir"), Some("out"));
    }

    #[test]
    fn bad_values_are_diagnosed_not_panicked() {
        assert_eq!(
            parse_as("fuzz", &["--iters"]).unwrap_err(),
            "--iters needs a value"
        );
        assert_eq!(
            parse_as("fuzz", &["--iters", "lots"]).unwrap_err(),
            "--iters needs an integer, got \"lots\""
        );
        assert_eq!(
            parse_as("fuzz", &["--iters", "0"]).unwrap_err(),
            "--iters must be at least 1"
        );
        assert_eq!(
            parse_as("fuzz", &["--events", "0"]).unwrap_err(),
            "--events must be at least 1"
        );
        assert_eq!(
            parse_as("fuzz", &["--corpus-dir"]).unwrap_err(),
            "--corpus-dir needs a value"
        );
        assert_eq!(
            parse_as("fuzz", &["--bogus"]).unwrap_err(),
            "unknown fuzz option: --bogus"
        );
    }

    #[test]
    fn tiny_campaign_writes_artifacts_and_exits_zero() {
        let dir = std::env::temp_dir().join("rsc_fuzz_cli_test");
        std::fs::remove_dir_all(&dir).ok();
        let code = run_as(
            "fuzz",
            &[
                "--iters",
                "10",
                "--events",
                "600",
                "--minimize",
                "--analytic-check",
                "--corpus-dir",
                dir.to_str().unwrap(),
            ],
        );
        assert_eq!(code, 0, "tiny campaign must agree with the oracle");
        assert!(dir.join("report.json").exists());
        assert!(dir.join("entry-000.json").exists());
        assert!(dir.join("worst-case.json").exists());
        let report =
            Json::parse(&std::fs::read_to_string(dir.join("report.json")).unwrap()).unwrap();
        assert_eq!(report.get("format").and_then(Json::as_u64), Some(1));
        assert!(report
            .get("divergences")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_error_exits_two() {
        assert_eq!(run_as("fuzz", &["--bogus"]), 2);
        assert_eq!(run_as("fuzz", &["--iters", "0"]), 2);
    }
}
