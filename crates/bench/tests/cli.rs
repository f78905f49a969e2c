//! End-to-end checks of the `repro` binary's top-level argument
//! handling: bad or missing flag values must produce a usage message on
//! stderr and exit status 2, never a panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// Declares one test per row: `repro ARGS` must exit 2 with `NEEDLE` and
/// the usage text on stderr, and must not panic.
macro_rules! usage_errors {
    ($($name:ident: [$($arg:expr),*] => $needle:expr;)*) => {$(
        #[test]
        fn $name() {
            let out = repro(&[$($arg),*]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "exit code; stderr: {err}");
            assert!(err.contains($needle), "stderr should mention {:?}: {err}", $needle);
            assert!(err.contains("usage: repro"), "stderr should print usage: {err}");
            assert!(!err.contains("panicked"), "usage errors must not panic: {err}");
        }
    )*};
}

usage_errors! {
    non_integer_flag_value_is_a_usage_error: ["perf", "--events", "lots"] => "--events";
    missing_flag_value_is_a_usage_error: ["perf", "--csv"] => "--csv needs a value";
    zero_shards_is_a_usage_error: ["conformance", "--shards", "0"] => "--shards must be at least 1";
    perf_shards_is_an_unknown_option: ["perf", "--shards", "4"] => "unknown option: --shards";
    serve_shards_is_an_unknown_option: ["serve", "--shards", "2"] => "unknown serve option: --shards";
    unknown_option_is_a_usage_error: ["--bogus"] => "unknown option: --bogus";
    unknown_experiment_still_exits_2: ["definitely-not-an-experiment"] => "unknown experiment";
    fuzz_non_integer_iters_is_a_usage_error: ["fuzz", "--iters", "lots"] => "--iters needs an integer";
    fuzz_missing_flag_value_is_a_usage_error: ["fuzz", "--corpus-dir"] => "--corpus-dir needs a value";
    fuzz_zero_iters_is_a_usage_error: ["fuzz", "--iters", "0"] => "--iters must be at least 1";
    fuzz_unknown_option_is_a_usage_error: ["fuzz", "--bogus"] => "unknown fuzz option: --bogus";
    resilience_non_integer_events_is_a_usage_error:
        ["resilience", "--events", "lots"] => "--events needs an integer";
    resilience_missing_flag_value_is_a_usage_error: ["resilience", "--out"] => "--out needs a value";
    resilience_unknown_option_is_a_usage_error:
        ["resilience", "--bogus"] => "unknown resilience option: --bogus";
    observe_non_integer_seed_is_a_usage_error: ["observe", "--seed", "lots"] => "--seed needs an integer";
    observe_missing_flag_value_is_a_usage_error:
        ["observe", "--metrics-out"] => "--metrics-out needs a value";
    observe_unknown_benchmark_is_a_usage_error: ["observe", "--bench", "nonesuch"] => "unknown benchmark";
    observe_unknown_option_is_a_usage_error: ["observe", "--bogus"] => "unknown observe option: --bogus";
    serve_zero_queue_depth_is_a_usage_error:
        ["serve", "--queue-depth", "0"] => "--queue-depth must be at least 1";
    serve_unknown_chaos_profile_is_a_usage_error: ["serve", "--chaos", "apocalyptic"] => "apocalyptic";
    serve_conflicting_endpoints_are_a_usage_error:
        ["serve", "--addr", "a:1", "--unix", "s.sock"] => "--addr and --unix are mutually exclusive";
    serve_unknown_option_is_a_usage_error: ["serve", "--bogus"] => "unknown serve option: --bogus";
    load_zero_clients_is_a_usage_error: ["load", "--clients", "0"] => "--clients must be at least 1";
    load_missing_flag_value_is_a_usage_error: ["load", "--seed"] => "--seed needs a value";
    load_unknown_option_is_a_usage_error: ["load", "--bogus"] => "unknown load option: --bogus";
    conformance_non_integer_events_is_a_usage_error:
        ["conformance", "--events", "lots"] => "--events needs an integer, got \"lots\"";
    conformance_reversed_seed_range_is_a_usage_error:
        ["conformance", "--seeds", "9..3"] => "--seeds must be N or A..B";
    conformance_unknown_fault_is_a_usage_error:
        ["conformance", "--inject-fault", "nope"] => "unknown fault \"nope\"";
    conformance_missing_shards_value_is_a_usage_error:
        ["conformance", "--shards"] => "--shards needs a value";
    pareto_non_integer_events_is_a_usage_error:
        ["pareto", "--events", "lots"] => "--events needs an integer, got \"lots\"";
    pareto_unknown_option_is_a_usage_error: ["pareto", "--bogus"] => "unknown pareto option: --bogus";
}

/// Kills the serve child if the test panics before its clean exit.
struct ServeGuard(std::process::Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_load_drain_roundtrip_over_the_real_binary() {
    let dir = std::env::temp_dir().join("rsc_repro_serve_e2e");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let bench_json = dir.join("BENCH_serve.json");
    let state = dir.join("state");

    let child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--checkpoint-dir",
            state.to_str().unwrap(),
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut guard = ServeGuard(child);

    // The daemon writes the bound address atomically once it listens.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            break addr;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve never wrote {}",
            port_file.display()
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };

    let out = repro(&[
        "load",
        "--addr",
        addr.trim(),
        "--clients",
        "2",
        "--tenants",
        "6",
        "--frames",
        "2",
        "--events",
        "200",
        "--seed",
        "7",
        "--out",
        bench_json.to_str().unwrap(),
        "--drain",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "load stdout: {stdout}");
    assert!(stdout.contains("frames sent"), "{stdout}");
    assert!(stdout.contains("drain:"), "{stdout}");
    let report = rsc_conformance::json::Json::parse(
        &std::fs::read_to_string(&bench_json).expect("BENCH_serve.json written"),
    )
    .expect("report parses");
    let get = |k: &str| report.get(k).and_then(rsc_conformance::json::Json::as_u64);
    assert_eq!(get("failed_requests"), Some(0), "{report}");
    assert_eq!(get("frames_acked"), Some(12), "{report}");
    assert_eq!(get("events_acked"), Some(2400), "{report}");
    let drain = report.get("drain").expect("drain section");
    assert_eq!(
        drain
            .get("failed")
            .and_then(rsc_conformance::json::Json::as_u64),
        Some(0),
        "{report}"
    );

    // The client-requested drain shuts the daemon down by itself, exit 0.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = guard.0.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve did not exit after the drain"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    assert!(status.success(), "serve exit: {status:?}");
    // Drained tenants persisted under the checkpoint dir.
    let records = std::fs::read_dir(&state).unwrap().count();
    assert!(records >= 6, "expected >= 6 tenant records, got {records}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_smoke_run_writes_corpus_artifacts_and_exits_zero() {
    let dir = std::env::temp_dir().join("rsc_repro_fuzz_e2e");
    std::fs::remove_dir_all(&dir).ok();
    let out = repro(&[
        "fuzz",
        "--iters",
        "10",
        "--seed",
        "42",
        "--events",
        "600",
        "--analytic-check",
        "--corpus-dir",
        dir.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("coverage: baseline"), "{stdout}");
    assert!(dir.join("report.json").exists());
    assert!(dir.join("entry-000.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}
