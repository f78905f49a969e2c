//! The `repro observe` subcommand: run an instrumented controller over a
//! seeded workload and export its telemetry.
//!
//! Outputs, all optional and composable:
//!
//! * `--metrics-out PATH` — Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]); without the flag the text
//!   goes to stdout;
//! * `--json-out PATH` — the same registry as JSON
//!   ([`MetricsRegistry::render_json`]);
//! * `--events-out PATH` — the observability event stream
//!   ([`rsc_control::ObsEvent`]) as JSON Lines, via a [`JsonlSink`];
//! * `--check` — validate the Prometheus text with the built-in parser
//!   ([`validate_prometheus`]) and fail the process if it is malformed
//!   (the CI smoke job runs with this flag).
//!
//! `--resilience` layers a seeded flaky deployment pipeline plus a storm
//! breaker over the run so the deploy/breaker metric families and event
//! kinds are exercised; without it the export covers the base controller
//! families only. The output is a pure function of `--bench`, `--events`,
//! `--seed`, and `--resilience`.

use crate::cli::Args;
use rsc_control::resilience::{
    BreakerConfig, DeployerSpec, FaultMode, FaultScope, FaultSpec, RetryPolicy,
};
use rsc_control::{
    EventSink, JsonlSink, MetricsRegistry, ReactiveController, ResilienceConfig,
    TransitionLogPolicy,
};
use rsc_trace::{spec2000, InputId};
use std::path::Path;
use std::sync::Arc;

/// Runs the parsed subcommand and returns the process exit code.
///
/// # Errors
///
/// Returns a usage error for an unknown `--bench` name or an
/// out-of-range flag value.
pub(crate) fn run(args: &Args) -> Result<i32, String> {
    let bench = args.text("--bench");
    let events = args.int("--events")?;
    let seed = args.int("--seed")?;
    let model = spec2000::benchmark(bench).ok_or_else(|| {
        format!(
            "unknown benchmark {bench:?}; known: {}",
            spec2000::NAMES.join(", ")
        )
    })?;
    let pop = model.population(events);

    let mut builder = ReactiveController::builder(rsc_control::ControllerParams::scaled())
        .log_policy(TransitionLogPolicy::CountsOnly)
        .metrics();
    if args.given("--resilience") {
        builder = builder.resilience(observe_resilience_config(seed));
    }
    let events_out = args.text_opt("--events-out").map(Path::new);
    let sink = match events_out {
        Some(path) => {
            if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).expect("failed to create events-out directory");
            }
            let sink = Arc::new(JsonlSink::create(path).expect("failed to open events-out file"));
            builder = builder.event_sink(sink.clone());
            Some(sink)
        }
        None => None,
    };

    let (result, ctl) =
        rsc_control::run_population_chunked_with(builder, &pop, InputId::Eval, events, seed)
            .expect("observe configuration validates");
    let registry = ctl.metrics().expect("metrics were enabled");
    eprintln!(
        "observe: {bench} {events} events, seed {seed}: \
         {} transitions, {:.3}% misspeculated",
        ctl.transition_log().total(),
        result.stats.incorrect_frac() * 100.0,
    );

    let text = registry.render_prometheus();
    if args.given("--check") {
        if let Err(e) = validate_prometheus(&text) {
            eprintln!("observe: invalid Prometheus exposition: {e}");
            return Ok(1);
        }
        eprintln!(
            "observe: Prometheus exposition validated ({} metrics)",
            registry.len()
        );
    }
    match args.text_opt("--metrics-out") {
        Some(path) => write_output(path.as_ref(), &text, "metrics"),
        None => print!("{text}"),
    }
    if let Some(path) = args.text_opt("--json-out") {
        write_output(path.as_ref(), &registry.render_json(), "JSON metrics");
    }
    if let Some(sink) = sink {
        sink.flush();
        if sink.dropped() > 0 {
            eprintln!(
                "observe: {} events dropped by the JSONL sink",
                sink.dropped()
            );
            return Ok(1);
        }
        eprintln!(
            "observe: event stream written to {}",
            events_out.unwrap_or(Path::new("?")).display()
        );
    }
    Ok(0)
}

/// Writes `contents` to `path`, creating parent directories.
fn write_output(path: &Path, contents: &str, what: &str) {
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("failed to create output directory");
    }
    std::fs::write(path, contents)
        .unwrap_or_else(|e| panic!("failed to write {what} to {}: {e}", path.display()));
    eprintln!("observe: {what} written to {}", path.display());
}

/// The resilience layer used by `--resilience`: a seeded flaky pipeline
/// with retry/backoff plus a storm breaker, chosen so every deploy- and
/// breaker-related metric family sees traffic.
fn observe_resilience_config(seed: u64) -> ResilienceConfig {
    ResilienceConfig {
        deployer: DeployerSpec::Faulty(FaultSpec {
            seed,
            mode: FaultMode::FixedRate { per_mille: 350 },
            scope: FaultScope::All,
            wasted: 150,
        }),
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff: 300,
            max_backoff: 2_400,
        },
        breaker: Some(BreakerConfig {
            bucket_events: 400,
            buckets: 4,
            open_threshold: 0.08,
            close_threshold: 0.02,
            cooldown_events: 3_000,
            probe_events: 1_500,
            mass_evict_top_k: 3,
        }),
    }
}

/// Exports a registry as Prometheus text to `path` (used by the
/// `--metrics-out` flag on the other subcommands).
pub fn export_metrics(registry: &MetricsRegistry, path: &Path) {
    write_output(path, &registry.render_prometheus(), "metrics");
}

/// Validates a Prometheus text exposition: every sample line parses, every
/// family is declared with `# HELP` and `# TYPE` before its first sample,
/// families are not re-declared, and histogram families are internally
/// consistent (cumulative non-decreasing buckets, a `+Inf` bucket equal to
/// `_count`, and all three of `_bucket`/`_sum`/`_count` present).
///
/// This is a format checker for the subset this workspace emits, not a
/// general scraper: it exists so CI fails when the exposition regresses.
///
/// # Errors
///
/// Returns a description of the first malformed line or inconsistent
/// family.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    struct Family {
        typ: String,
        has_help: bool,
        // Histogram bookkeeping.
        last_bucket: Option<u64>,
        inf_bucket: Option<u64>,
        sum: Option<u64>,
        count: Option<u64>,
    }
    let mut families: Vec<(String, Family)> = Vec::new();

    fn family_of<'a>(families: &'a mut [(String, Family)], name: &str) -> Option<&'a mut Family> {
        families.iter_mut().find(|(n, _)| n == name).map(|(_, f)| f)
    }

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: comment missing metric name"))?;
            let body = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if body.is_empty() {
                        return Err(format!("line {lineno}: HELP {name} has no text"));
                    }
                    if family_of(&mut families, name).is_some() {
                        return Err(format!("line {lineno}: family {name} re-declared"));
                    }
                    families.push((
                        name.to_string(),
                        Family {
                            typ: String::new(),
                            has_help: true,
                            last_bucket: None,
                            inf_bucket: None,
                            sum: None,
                            count: None,
                        },
                    ));
                }
                "TYPE" => {
                    if !matches!(body, "counter" | "gauge" | "histogram") {
                        return Err(format!("line {lineno}: unknown TYPE {body:?}"));
                    }
                    let f = family_of(&mut families, name)
                        .ok_or_else(|| format!("line {lineno}: TYPE {name} before HELP"))?;
                    if !f.typ.is_empty() {
                        return Err(format!("line {lineno}: TYPE {name} re-declared"));
                    }
                    f.typ = body.to_string();
                }
                other => return Err(format!("line {lineno}: unknown comment keyword {other:?}")),
            }
            continue;
        }

        // Sample line: `name[{labels}] value`.
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample has no value"))?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                (n, Some(labels))
            }
            None => (name_labels, None),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        if let Some(labels) = labels {
            for pair in labels.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {lineno}: bad label pair {pair:?}"))?;
                if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                    return Err(format!("line {lineno}: bad label {k}={v}"));
                }
            }
        }
        value
            .parse::<f64>()
            .map_err(|_| format!("line {lineno}: bad sample value {value:?}"))?;

        // Histogram samples attach to their base family.
        let (base, suffix) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s).map(|b| (b, *s)))
            .filter(|(b, _)| family_of(&mut families, b).is_some_and(|f| f.typ == "histogram"))
            .unwrap_or((name, ""));
        let f = family_of(&mut families, base)
            .ok_or_else(|| format!("line {lineno}: sample for undeclared family {base:?}"))?;
        if !f.has_help || f.typ.is_empty() {
            return Err(format!("line {lineno}: family {base} missing HELP or TYPE"));
        }
        if f.typ == "histogram" {
            let v: u64 = value
                .parse()
                .map_err(|_| format!("line {lineno}: non-integer histogram sample {value:?}"))?;
            match suffix {
                "_bucket" => {
                    let le = labels
                        .and_then(|l| l.strip_prefix("le=\""))
                        .and_then(|l| l.strip_suffix('"'))
                        .ok_or_else(|| format!("line {lineno}: _bucket without le label"))?;
                    if let Some(prev) = f.last_bucket {
                        if v < prev {
                            return Err(format!(
                                "line {lineno}: bucket counts not cumulative in {base}"
                            ));
                        }
                    }
                    f.last_bucket = Some(v);
                    if le == "+Inf" {
                        f.inf_bucket = Some(v);
                    }
                }
                "_sum" => f.sum = Some(v),
                "_count" => f.count = Some(v),
                _ => {
                    return Err(format!(
                        "line {lineno}: bare sample {name} for histogram family"
                    ))
                }
            }
        }
    }

    for (name, f) in &families {
        if f.typ == "histogram" {
            let (Some(inf), Some(count), Some(_)) = (f.inf_bucket, f.count, f.sum) else {
                return Err(format!("histogram {name} missing _bucket/_sum/_count"));
            };
            if inf != count {
                return Err(format!(
                    "histogram {name}: +Inf bucket {inf} != _count {count}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{parse_as, run_as};
    use rsc_control::prelude::*;

    fn seeded_registry() -> MetricsRegistry {
        let pop = spec2000::benchmark("gzip").unwrap().population(40_000);
        let builder = ReactiveController::builder(ControllerParams::scaled())
            .log_policy(TransitionLogPolicy::CountsOnly)
            .metrics()
            .resilience(observe_resilience_config(9));
        let (_, ctl) =
            rsc_control::run_population_chunked_with(builder, &pop, InputId::Eval, 40_000, 9)
                .unwrap();
        ctl.metrics().unwrap()
    }

    #[test]
    fn real_exposition_validates() {
        let reg = seeded_registry();
        validate_prometheus(&reg.render_prometheus()).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_text() {
        // Sample before declaration.
        assert!(validate_prometheus("foo_total 3\n").is_err());
        // Bad value.
        let text = "# HELP x h\n# TYPE x counter\nx nope\n";
        assert!(validate_prometheus(text).is_err());
        // Histogram whose +Inf bucket disagrees with _count.
        let text = "# HELP h h\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 4\nh_count 3\n";
        assert!(validate_prometheus(text).is_err());
        // Non-cumulative buckets.
        let text = "# HELP h h\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\n\
                    h_bucket{le=\"+Inf\"} 2\nh_sum 4\nh_count 2\n";
        assert!(validate_prometheus(text).is_err());
        // Re-declared family.
        let text = "# HELP x h\n# TYPE x counter\n# HELP x h\n";
        assert!(validate_prometheus(text).is_err());
    }

    #[test]
    fn parse_defaults_and_flags() {
        let d = parse_as("observe", &[]).unwrap();
        assert_eq!(d.text("--bench"), "gcc");
        assert_eq!(d.int("--events"), Ok(1_000_000u64));
        assert_eq!(d.int("--seed"), Ok(42u64));
        assert!(!d.given("--resilience") && !d.given("--check"));
        let p = parse_as(
            "observe",
            &[
                "--bench",
                "gzip",
                "--events",
                "5000",
                "--seed",
                "7",
                "--resilience",
                "--check",
                "--metrics-out",
                "m.prom",
                "--json-out",
                "m.json",
                "--events-out",
                "e.jsonl",
            ],
        )
        .unwrap();
        assert_eq!(p.text("--bench"), "gzip");
        assert_eq!(p.int("--events"), Ok(5000u64));
        assert_eq!(p.int("--seed"), Ok(7u64));
        assert!(p.given("--resilience") && p.given("--check"));
        assert_eq!(p.text_opt("--metrics-out"), Some("m.prom"));
        assert_eq!(p.text_opt("--json-out"), Some("m.json"));
        assert_eq!(p.text_opt("--events-out"), Some("e.jsonl"));
    }

    #[test]
    fn parse_diagnoses_bad_input_without_panicking() {
        assert_eq!(
            parse_as("observe", &["--events"]).unwrap_err(),
            "--events needs a value"
        );
        assert_eq!(
            parse_as("observe", &["--events", "lots"]).unwrap_err(),
            "--events needs an integer, got \"lots\""
        );
        assert_eq!(
            parse_as("observe", &["--bogus"]).unwrap_err(),
            "unknown observe option: --bogus"
        );
        let args = parse_as("observe", &["--bench", "nope"]).unwrap();
        assert!(run(&args)
            .unwrap_err()
            .starts_with("unknown benchmark \"nope\""));
    }

    #[test]
    fn usage_error_exits_two() {
        assert_eq!(run_as("observe", &["--bogus"]), 2);
        assert_eq!(run_as("observe", &["--bench", "nope"]), 2);
    }

    #[test]
    fn validator_accepts_minimal_families() {
        let text = "# HELP a ok\n# TYPE a counter\na 1\n\
                    # HELP g ok\n# TYPE g gauge\ng{kind=\"x\"} -2.5\n\
                    # HELP h ok\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n";
        validate_prometheus(text).unwrap();
    }
}
