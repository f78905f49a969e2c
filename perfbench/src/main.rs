//! The repository benchmark: end-to-end metrics from untraced runs and a
//! per-layer breakdown from traced runs, over three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <abstract-sweep|mssp-timing|controller-stream> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` beside
//! this crate for what each workload and metric means.

mod affinity;
mod harness;
mod report;
mod span;
mod workloads;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>\n\
                     workloads: abstract-sweep mssp-timing controller-stream";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = harness::Ctx::new(args.seed, args.seconds, args.trace)?;
    match args.workload.as_str() {
        "abstract-sweep" => workloads::abstract_sweep::run(&ctx),
        "mssp-timing" => workloads::mssp_timing::run(&ctx),
        "controller-stream" => workloads::controller_stream::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let line = run(&args).and_then(|out| {
        out.summarize(table);
        out.to_json(table)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload mssp-timing --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "mssp-timing".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload x --seed 1 --seconds 1",
            "--workload x --seed one --seconds 1 --trace 0",
            "--workload x --seed 1 --seconds 0 --trace 0",
            "--workload x --seed 1 --seconds 1 --trace 2",
            "--workload x --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
