//! The `repro load` subcommand: drive a seeded multi-client storm —
//! optionally with chaos clients in the mix — at a running `repro
//! serve` daemon and write a structured `BENCH_serve.json` report.
//!
//! # Determinism boundary
//!
//! The run is a pure function of `--seed` *up to network timing*: the
//! tenant partition, every frame's scenario and trace bytes, and every
//! chaos roll derive from `Xoshiro256::seed_from(seed)` forked per
//! client (see [`rsc_serve::client_plan`]). Counts in the report
//! (frames sent/acked/rejected, events acked, chaos injections) repeat
//! exactly for a fixed seed against a fresh daemon; latencies and
//! throughput are wall-clock measurements and do not.
//!
//! Exit status: `0` when every request resolved to an `Ack` or a
//! structured `Reject` (and, with `--drain`, every tenant flushed);
//! `1` when transport failed even after retries or the drain lost
//! state; `2` for usage errors.

use crate::cli::Args;
use rsc_conformance::json::Json;
use rsc_serve::{
    request_drain, run_load, ChaosConfig, Endpoint, LoadConfig, LoadReport, RejectCode,
};
use std::path::Path;

/// The load-engine configuration the flags ask for.
///
/// # Errors
///
/// Returns a usage error for `--addr` together with `--unix`, an
/// unknown `--chaos` profile, or an out-of-range flag value.
fn load_config(args: &Args) -> Result<LoadConfig, String> {
    if args.given("--addr") && args.given("--unix") {
        return Err("--addr and --unix are mutually exclusive".to_string());
    }
    let endpoint = match args.text_opt("--unix") {
        Some(path) => Endpoint::Unix(path.into()),
        None => Endpoint::Tcp(args.text("--addr").to_string()),
    };
    let seed = args.int("--seed")?;
    let mut load = LoadConfig::new(endpoint);
    load.clients = args.int("--clients")?;
    load.tenants = args.int("--tenants")?;
    load.frames_per_tenant = args.int("--frames")?;
    load.events_per_frame = args.int("--events")?;
    load.seed = seed;
    let chaos_seed = args.int_opt("--chaos-seed")?.unwrap_or(seed);
    load.chaos = ChaosConfig::profile(args.text("--chaos"), chaos_seed)?;
    Ok(load)
}

/// The structured report (`BENCH_serve.json`).
fn report_json(
    load: &LoadConfig,
    chaos_profile: &str,
    report: &LoadReport,
    drain: Option<(u64, u64)>,
) -> Json {
    Json::obj([
        ("format", Json::Int(1)),
        ("experiment", Json::str("serve-load")),
        ("seed", Json::Int(load.seed)),
        ("clients", Json::Int(report.clients as u64)),
        ("tenants", Json::Int(report.tenants)),
        (
            "frames_per_tenant",
            Json::Int(load.frames_per_tenant as u64),
        ),
        ("events_per_frame", Json::Int(load.events_per_frame)),
        ("chaos_profile", Json::str(chaos_profile)),
        ("frames_sent", Json::Int(report.frames_sent)),
        ("frames_acked", Json::Int(report.frames_acked)),
        ("frames_rejected", Json::Int(report.frames_rejected)),
        (
            "rejects_by_code",
            Json::obj(
                RejectCode::ALL
                    .iter()
                    .zip(report.rejects_by_code.iter())
                    .map(|(code, n)| (code.label(), Json::Int(*n)))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("failed_requests", Json::Int(report.failed_requests)),
        ("events_acked", Json::Int(report.events_acked)),
        ("retries", Json::Int(report.retries)),
        ("chaos_torn", Json::Int(report.chaos_torn)),
        ("chaos_disconnects", Json::Int(report.chaos_disconnects)),
        ("chaos_loris", Json::Int(report.chaos_loris)),
        ("elapsed_ms", Json::Int(report.elapsed.as_millis() as u64)),
        ("p50_us", Json::Int(report.p50_us)),
        ("p99_us", Json::Int(report.p99_us)),
        ("max_us", Json::Int(report.max_us)),
        ("tenants_per_sec", Json::Num(report.tenants_per_sec())),
        ("frames_per_sec", Json::Num(report.frames_per_sec())),
        (
            "drain",
            match drain {
                Some((flushed, failed)) => Json::obj([
                    ("flushed", Json::Int(flushed)),
                    ("failed", Json::Int(failed)),
                ]),
                None => Json::Null,
            },
        ),
    ])
}

/// Runs the parsed subcommand and returns the process exit code.
///
/// # Errors
///
/// Returns the usage errors of [`load_config`].
pub(crate) fn run(args: &Args) -> Result<i32, String> {
    let load = load_config(args)?;
    let chaos_profile = args.text("--chaos");
    let out = Path::new(args.text("--out"));

    println!(
        "load: {} client(s) x {} tenant(s), {} frame(s)/tenant, {} events/frame, \
         seed {}, chaos {}",
        load.clients,
        load.tenants,
        load.frames_per_tenant,
        load.events_per_frame,
        load.seed,
        chaos_profile,
    );
    let report = run_load(&load);
    println!(
        "  {} frames sent: {} acked, {} rejected, {} failed transport; \
         {} events acked, {} retries",
        report.frames_sent,
        report.frames_acked,
        report.frames_rejected,
        report.failed_requests,
        report.events_acked,
        report.retries,
    );
    for (code, n) in RejectCode::ALL.iter().zip(report.rejects_by_code.iter()) {
        if *n > 0 {
            println!("    rejected {}: {n}", code.label());
        }
    }
    if load.chaos.enabled() {
        println!(
            "  chaos injected: {} torn frame(s), {} disconnect(s), {} slow-loris send(s)",
            report.chaos_torn, report.chaos_disconnects, report.chaos_loris,
        );
    }
    println!(
        "  latency p50 {} us, p99 {} us, max {} us; {:.1} tenants/s, {:.1} frames/s",
        report.p50_us,
        report.p99_us,
        report.max_us,
        report.tenants_per_sec(),
        report.frames_per_sec(),
    );

    let drain = if args.given("--drain") {
        match request_drain(&load.endpoint) {
            Ok((flushed, failed)) => {
                println!("  drain: {flushed} tenant(s) flushed, {failed} failed");
                Some((flushed, failed))
            }
            Err(e) => {
                eprintln!("load: drain request failed: {e}");
                Some((0, u64::MAX))
            }
        }
    } else {
        None
    };

    let doc = report_json(&load, chaos_profile, &report, drain);
    if let Some(dir) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("load: cannot create {}: {e}", dir.display());
            return Ok(1);
        }
    }
    if let Err(e) = std::fs::write(out, doc.to_string()) {
        eprintln!("load: cannot write {}: {e}", out.display());
        return Ok(1);
    }
    println!("wrote {}", out.display());

    let drained_clean = drain.map(|(_, failed)| failed == 0).unwrap_or(true);
    Ok(if report.failed_requests == 0 && drained_clean {
        0
    } else {
        1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{parse_as, run_as};

    #[test]
    fn parse_defaults_and_flags() {
        let d = parse_as("load", &[]).unwrap();
        let load = load_config(&d).unwrap();
        assert_eq!(load.endpoint, Endpoint::Tcp("127.0.0.1:7433".to_string()));
        assert_eq!(load.clients, 4);
        assert_eq!(load.tenants, 16);
        assert_eq!(load.frames_per_tenant, 4);
        assert_eq!(load.events_per_frame, 500);
        assert_eq!(load.seed, 42);
        assert!(!load.chaos.enabled());
        assert_eq!(d.text("--out"), "BENCH_serve.json");
        assert!(!d.given("--drain"));
        let p = parse_as(
            "load",
            &[
                "--addr",
                "10.0.0.1:9",
                "--clients",
                "2",
                "--tenants",
                "6",
                "--frames",
                "3",
                "--events",
                "100",
                "--seed",
                "7",
                "--chaos",
                "heavy",
                "--out",
                "out/b.json",
                "--drain",
            ],
        )
        .unwrap();
        let load = load_config(&p).unwrap();
        assert_eq!(load.endpoint, Endpoint::Tcp("10.0.0.1:9".to_string()));
        assert_eq!(load.clients, 2);
        assert_eq!(load.tenants, 6);
        assert_eq!(load.frames_per_tenant, 3);
        assert_eq!(load.events_per_frame, 100);
        assert_eq!(load.seed, 7);
        assert!(load.chaos.enabled());
        // --chaos-seed defaults to --seed so the whole run keys off one
        // number.
        assert_eq!(load.chaos.seed, 7);
        assert_eq!(p.text("--chaos"), "heavy");
        assert!(p.given("--drain"));
    }

    #[test]
    fn unix_endpoint_and_explicit_chaos_seed() {
        let p = parse_as(
            "load",
            &[
                "--unix",
                "/tmp/s.sock",
                "--chaos",
                "light",
                "--chaos-seed",
                "99",
            ],
        )
        .unwrap();
        let load = load_config(&p).unwrap();
        assert_eq!(load.endpoint, Endpoint::Unix("/tmp/s.sock".into()));
        assert_eq!(load.chaos.seed, 99);
    }

    #[test]
    fn parse_diagnoses_bad_input_without_panicking() {
        assert_eq!(
            parse_as("load", &["--clients", "0"]).unwrap_err(),
            "--clients must be at least 1"
        );
        assert_eq!(
            parse_as("load", &["--tenants", "many"]).unwrap_err(),
            "--tenants needs an integer, got \"many\""
        );
        assert_eq!(
            parse_as("load", &["--out"]).unwrap_err(),
            "--out needs a value"
        );
        assert_eq!(
            parse_as("load", &["--bogus"]).unwrap_err(),
            "unknown load option: --bogus"
        );
        let both = parse_as("load", &["--addr", "a:1", "--unix", "s"]).unwrap();
        assert_eq!(
            load_config(&both).unwrap_err(),
            "--addr and --unix are mutually exclusive"
        );
        let chaos = parse_as("load", &["--chaos", "mild"]).unwrap();
        assert!(load_config(&chaos).is_err());
    }

    #[test]
    fn usage_error_exits_two() {
        assert_eq!(run_as("load", &["--bogus"]), 2);
        assert_eq!(run_as("load", &["--clients", "0"]), 2);
    }

    #[test]
    fn report_json_covers_every_reject_code() {
        let load = load_config(&parse_as("load", &[]).unwrap()).unwrap();
        let report = LoadReport {
            rejects_by_code: [1, 2, 3, 4, 5, 6],
            frames_rejected: 21,
            ..LoadReport::default()
        };
        let doc = report_json(&load, "off", &report, Some((5, 0)));
        let text = doc.to_string();
        for code in RejectCode::ALL {
            assert!(text.contains(code.label()), "{text}");
        }
        assert!(text.contains("\"drain\""));
    }
}
