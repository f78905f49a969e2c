//! The `repro` command table: every command and its flags, declared once.
//!
//! One `Command` entry per command — the top-level experiments command
//! and each subcommand — names its flags, their kinds, defaults, and help
//! lines. `parse` is the only flag parser and [`run`] the only place a
//! usage error is printed: any `Err`, whether from parsing or from a
//! command's own validation (`--seeds` ranges, fault names, chaos
//! profiles, …), prints `error: …` plus the usage text generated from the
//! table and exits with status 2.

use crate::{
    conformance_cli, experiments_cli, fuzz_cli, load_cli, observe_cli, pareto_cli, resilience_cli,
    serve_cli,
};

/// What a flag takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// No value; present or absent.
    Switch,
    /// A free-form value, shown in usage as the given metavariable.
    Text(&'static str),
    /// A non-negative integer no smaller than `min`.
    Int {
        /// The smallest accepted value.
        min: u64,
    },
}

/// One command-line flag.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flag {
    /// The flag as typed, `--name`.
    pub(crate) name: &'static str,
    /// What it takes.
    pub(crate) kind: Kind,
    /// The value used when the flag is absent (`None`: unset).
    pub(crate) default: Option<&'static str>,
    /// One-line help.
    pub(crate) help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        kind: Kind::Switch,
        default: None,
        help,
    }
}

const fn text(
    name: &'static str,
    meta: &'static str,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        kind: Kind::Text(meta),
        default,
        help,
    }
}

const fn int(
    name: &'static str,
    min: u64,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        kind: Kind::Int { min },
        default,
        help,
    }
}

impl Flag {
    /// Checks a value given on the command line against the flag's kind.
    fn check(&self, v: &str) -> Result<(), String> {
        if let Kind::Int { min } = self.kind {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("{} needs an integer, got {v:?}", self.name))?;
            if n < min {
                return Err(format!("{} must be at least {min}", self.name));
            }
        }
        Ok(())
    }

    /// The flag as usage shows it: `--name`, `--name N` or `--name META`.
    fn spec(&self) -> String {
        match self.kind {
            Kind::Switch => self.name.to_string(),
            Kind::Text(meta) => format!("{} {meta}", self.name),
            Kind::Int { .. } => format!("{} N", self.name),
        }
    }

    fn usage_line(&self, width: usize) -> String {
        let mut notes = Vec::new();
        if let Some(d) = self.default {
            notes.push(format!("default {d}"));
        }
        if let Kind::Int { min } = self.kind {
            if min > 0 {
                notes.push(format!("N >= {min}"));
            }
        }
        let notes = if notes.is_empty() {
            String::new()
        } else {
            format!(" ({})", notes.join(", "))
        };
        format!("  {:<width$}  {}{notes}", self.spec(), self.help)
    }
}

/// One `repro` command.
pub(crate) struct Command {
    /// The subcommand word; empty for the top-level experiments command,
    /// which takes experiment names as positional arguments instead.
    pub(crate) name: &'static str,
    /// One-line summary for the top-level usage text.
    pub(crate) summary: &'static str,
    /// Every flag the command accepts.
    pub(crate) flags: &'static [Flag],
    /// Runs the parsed command and returns the process exit code. An
    /// `Err` is a usage error.
    pub(crate) run: fn(&Args) -> Result<i32, String>,
}

/// The command table. The first entry is the top-level experiments
/// command; every other entry is selected by its name as the first
/// argument and owns the rest of the argument list.
#[rustfmt::skip]
pub(crate) static COMMANDS: &[Command] = &[
    Command {
        name: "",
        summary: "regenerate the paper's tables and figures",
        flags: &[
            int("--events", 0, Some("16000000"), "dynamic branch events per run"),
            switch("--full", "shorthand for --events 40000000 (wins over --events)"),
            int("--seed", 0, Some("42"), "root trace seed"),
            int("--threads", 1, None, "worker-thread cap for parallel stages"),
            text("--csv", "DIR", None, "write CSV/JSON outputs under DIR"),
            text("--metrics-out", "F", None, "write a Prometheus exposition of the perf run to F"),
        ],
        run: experiments_cli::run,
    },
    Command {
        name: "conformance",
        summary: "differential fuzzing campaign / artifact replay (--shards: sharded engine)",
        flags: &[
            text("--seeds", "A..B", Some("0..64"), "trace seeds; a bare N means 0..N"),
            int("--events", 0, Some("2000"), "events per generated trace"),
            text("--inject-fault", "NAME", None, "seed a known fault; catching it exits 0 (self-test)"),
            text("--replay", "FILE", None, "replay a saved counterexample; exits 1 while it reproduces"),
            text("--artifact-dir", "DIR", Some("conformance-artifacts"), "where counterexamples are written"),
            text("--metrics-out", "F", None, "export one instrumented campaign run's metrics to F"),
            int("--shards", 1, None, "sharded lockstep over 1..=N shards (the sharded engine's only CLI path)"),
            switch("--policies", "lockstep every builtin policy, not only paper-fsm"),
        ],
        run: conformance_cli::run,
    },
    Command {
        name: "resilience",
        summary: "resilient-runtime drills",
        flags: &[
            int("--events", 0, Some("200000"), "events per scenario"),
            int("--seed", 0, Some("42"), "workload and fault seed"),
            text("--out", "PATH", Some("resilience-artifacts/RESILIENCE_report.json"), "JSON report path"),
            text("--metrics-out", "F", None, "export the storm-breaker scenario's metrics to F"),
        ],
        run: resilience_cli::run,
    },
    Command {
        name: "observe",
        summary: "metrics exposition smoke",
        flags: &[
            text("--bench", "NAME", Some("gcc"), "benchmark model driving the workload"),
            int("--events", 0, Some("1000000"), "dynamic branch events to run"),
            int("--seed", 0, Some("42"), "trace seed"),
            switch("--resilience", "layer a flaky deploy pipeline + storm breaker over the run"),
            switch("--check", "validate the Prometheus exposition; malformed text exits 1"),
            text("--metrics-out", "F", None, "write the Prometheus exposition to F (else stdout)"),
            text("--json-out", "F", None, "also write the metrics registry as JSON to F"),
            text("--events-out", "F", None, "write the observability event stream as JSON Lines to F"),
        ],
        run: observe_cli::run,
    },
    Command {
        name: "fuzz",
        summary: "coverage-guided scenario fuzzing with analytic oracle",
        flags: &[
            int("--iters", 1, Some("200"), "mutation iterations after seeding"),
            int("--seed", 0, Some("42"), "master seed for mutations and baselines"),
            int("--events", 1, Some("3000"), "events per baseline scenario"),
            text("--corpus-dir", "DIR", None, "write corpus entries, report.json and the worst case under DIR"),
            switch("--minimize", "ddmin-minimize the worst misspeculation trace"),
            switch("--analytic-check", "cross-check the corpus against the Markov oracle; divergence exits 1"),
        ],
        run: fuzz_cli::run,
    },
    Command {
        name: "serve",
        summary: "multi-tenant controller daemon (quotas, drain, chaos)",
        flags: &[
            text("--addr", "HOST:PORT", Some("127.0.0.1:7433"), "TCP listen address (port 0 picks a free port)"),
            text("--unix", "PATH", None, "listen on a Unix socket instead of TCP"),
            text("--checkpoint-dir", "DIR", Some("serve-state"), "where drained and evicted tenants persist"),
            int("--quota-events", 0, Some("0"), "per-tenant lifetime event quota (0 = unlimited)"),
            int("--quota-bytes", 0, Some("0"), "per-tenant lifetime payload-byte quota (0 = unlimited)"),
            int("--queue-depth", 1, Some("8"), "per-tenant concurrent-operation bound"),
            int("--max-live", 0, Some("0"), "live tenants before coldest-first eviction (0 = never shed)"),
            text("--chaos", "PROFILE", Some("off"), "storage fault-injection profile: off|light|heavy"),
            int("--chaos-seed", 0, Some("0"), "chaos RNG seed"),
            text("--port-file", "PATH", None, "write the bound address here once listening"),
        ],
        run: serve_cli::run,
    },
    Command {
        name: "load",
        summary: "seeded load/chaos storm against a serve daemon",
        flags: &[
            text("--addr", "HOST:PORT", Some("127.0.0.1:7433"), "daemon TCP address"),
            text("--unix", "PATH", None, "daemon Unix socket path"),
            int("--clients", 1, Some("4"), "concurrent clients"),
            int("--tenants", 1, Some("16"), "distinct tenants across all clients"),
            int("--frames", 1, Some("4"), "event frames per tenant"),
            int("--events", 1, Some("500"), "events per frame"),
            int("--seed", 0, Some("42"), "root seed; counts are a pure function of it"),
            text("--chaos", "PROFILE", Some("off"), "client fault profile: off|light|heavy"),
            int("--chaos-seed", 0, None, "chaos RNG seed (default: the --seed value)"),
            text("--out", "PATH", Some("BENCH_serve.json"), "report path"),
            switch("--drain", "request a graceful drain after the storm and fold it into the verdict"),
        ],
        run: load_cli::run,
    },
    Command {
        name: "pareto",
        summary: "benefit-vs-misspeculation sweeps across the policy zoo",
        flags: &[
            int("--events", 0, Some("200000"), "events per (policy, knob, scenario) cell"),
            int("--seed", 0, Some("42"), "trace seed"),
            text("--out", "PATH", Some("BENCH_pareto.json"), "report path"),
            text("--metrics-out", "F", None, "export the first sweep cell's metrics to F"),
            switch("--check", "require monotone-sane, nonzero curves; failing exits 1"),
        ],
        run: pareto_cli::run,
    },
];

/// The flag values of one parsed invocation. Values given on the command
/// line were checked against their flag's kind when parsed; absent flags
/// read as the table's default.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    flags: &'static [Flag],
    given: Vec<Option<String>>,
    /// Positional arguments (experiment names), in order.
    pub(crate) positional: Vec<String>,
}

impl Args {
    fn value(&self, name: &str) -> (bool, Option<&str>) {
        let i = self
            .flags
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("flag {name} is not in this command's table"));
        match &self.given[i] {
            Some(v) => (true, Some(v)),
            None => (false, self.flags[i].default),
        }
    }

    /// Whether the flag (a switch, say) was given on the command line.
    pub(crate) fn given(&self, name: &str) -> bool {
        self.value(name).0
    }

    /// A text flag's value, if given or defaulted.
    pub(crate) fn text_opt(&self, name: &str) -> Option<&str> {
        self.value(name).1
    }

    /// A text flag's value; the flag must have a default.
    pub(crate) fn text(&self, name: &str) -> &str {
        self.text_opt(name)
            .unwrap_or_else(|| panic!("{name} has no default"))
    }

    /// An integer flag's value as `T`, if given or defaulted.
    ///
    /// # Errors
    ///
    /// Returns a usage error if the value does not fit in `T`.
    pub(crate) fn int_opt<T: TryFrom<u64>>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(v) = self.value(name).1 else {
            return Ok(None);
        };
        let n: u64 = v.parse().expect("integer flags are checked when parsed");
        T::try_from(n)
            .map(Some)
            .map_err(|_| format!("{name} is out of range: {n}"))
    }

    /// An integer flag's value as `T`; the flag must have a default.
    ///
    /// # Errors
    ///
    /// Returns a usage error if the value does not fit in `T`.
    pub(crate) fn int<T: TryFrom<u64>>(&self, name: &str) -> Result<T, String> {
        Ok(self
            .int_opt(name)?
            .unwrap_or_else(|| panic!("{name} has no default")))
    }
}

/// Parses `argv` (everything after the command word) against `cmd`'s
/// flags. Pure: no printing, no process exit, no global state.
///
/// # Errors
///
/// Returns a one-line diagnostic for a missing flag value, a
/// non-numeric value, a value below the flag's lower bound, or an
/// unknown argument.
pub(crate) fn parse(cmd: &Command, argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        flags: cmd.flags,
        given: vec![None; cmd.flags.len()],
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let Some(i) = cmd.flags.iter().position(|f| f.name == a) else {
            if cmd.name.is_empty() && !a.starts_with('-') {
                args.positional.push(a.clone());
                continue;
            }
            return Err(match cmd.name {
                "" => format!("unknown option: {a}"),
                name => format!("unknown {name} option: {a}"),
            });
        };
        let flag = &cmd.flags[i];
        args.given[i] = Some(if flag.kind == Kind::Switch {
            String::new()
        } else {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            flag.check(v)?;
            v.clone()
        });
    }
    Ok(args)
}

/// The usage text for `cmd`, generated from the table. The experiments
/// command's text also lists the subcommands and the experiments.
pub(crate) fn usage(cmd: &Command) -> String {
    let width = cmd.flags.iter().map(|f| f.spec().len()).max().unwrap_or(0);
    let mut out = if cmd.name.is_empty() {
        let mut s = String::from("usage: repro [SUBCOMMAND | EXPERIMENT...] [FLAGS]\n\n");
        s.push_str("subcommands (own their argument lists):\n");
        for c in &COMMANDS[1..] {
            s.push_str(&format!("  {:<14}  {}\n", c.name, c.summary));
        }
        s.push_str("\nexperiments (default: all):\n");
        let names: Vec<&str> = experiments_cli::EXPERIMENTS
            .iter()
            .map(|e| e.name)
            .chain(["all"])
            .collect();
        for line in names.chunks(10) {
            s.push_str(&format!("  {}\n", line.join(" ")));
        }
        s
    } else {
        format!("usage: repro {} [FLAGS]\n  {}\n", cmd.name, cmd.summary)
    };
    out.push_str("\nflags:");
    for f in cmd.flags {
        out.push('\n');
        out.push_str(&f.usage_line(width));
    }
    out
}

/// Runs a whole `repro` argument list (everything after the program
/// name) and returns the process exit code.
pub fn run(argv: &[String]) -> i32 {
    let (top, subcommands) = COMMANDS.split_first().expect("the table is not empty");
    let (cmd, rest) = match argv
        .first()
        .and_then(|a| subcommands.iter().find(|c| c.name == a))
    {
        Some(cmd) => (cmd, &argv[1..]),
        None => (top, argv),
    };
    match parse(cmd, rest).and_then(|args| (cmd.run)(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage(cmd));
            2
        }
    }
}

/// Test shorthand: the command called `name` (empty for the experiments
/// command).
#[cfg(test)]
fn command(name: &str) -> &'static Command {
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .expect("a table entry")
}

/// Test shorthand: parses `parts` as the flags of the command `name`.
#[cfg(test)]
pub(crate) fn parse_as(name: &str, parts: &[&str]) -> Result<Args, String> {
    let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    parse(command(name), &argv)
}

/// Test shorthand: runs `repro NAME PARTS...` and returns the exit code.
#[cfg(test)]
pub(crate) fn run_as(name: &str, parts: &[&str]) -> i32 {
    let argv: Vec<String> = std::iter::once(name)
        .filter(|n| !n.is_empty())
        .chain(parts.iter().copied())
        .map(String::from)
        .collect();
    run(&argv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ExpOptions;

    #[test]
    fn defaults_match_exp_options() {
        let args = parse_as("", &[]).unwrap();
        assert_eq!(
            crate::experiments_cli::options(&args),
            Ok(ExpOptions::new())
        );
        assert!(args.positional.is_empty());
        assert_eq!(args.int_opt::<usize>("--threads"), Ok(None));
    }

    #[test]
    fn flags_and_experiments_parse_together() {
        let args = parse_as(
            "",
            &[
                "perf",
                "--events",
                "1234",
                "--seed",
                "9",
                "--threads",
                "2",
                "--csv",
                "out",
                "--metrics-out",
                "m.prom",
            ],
        )
        .unwrap();
        assert_eq!(args.positional, vec!["perf"]);
        assert_eq!(args.int("--events"), Ok(1234u64));
        assert_eq!(args.int("--seed"), Ok(9u64));
        assert_eq!(args.int_opt("--threads"), Ok(Some(2usize)));
        assert_eq!(args.text_opt("--csv"), Some("out"));
        assert_eq!(args.text_opt("--metrics-out"), Some("m.prom"));
    }

    #[test]
    fn full_raises_events() {
        let events = |parts: &[&str]| {
            crate::experiments_cli::options(&parse_as("", parts).unwrap())
                .unwrap()
                .events
        };
        assert_eq!(events(&["--full"]), 40_000_000);
        assert_eq!(events(&["--events", "5", "--full"]), 40_000_000);
        assert_eq!(events(&["--events", "5"]), 5);
    }

    #[test]
    fn bad_values_are_diagnosed_not_panicked() {
        let err = |parts: &[&str]| parse_as("", parts).unwrap_err();
        assert_eq!(err(&["--events"]), "--events needs a value");
        assert_eq!(
            err(&["--events", "lots"]),
            "--events needs an integer, got \"lots\""
        );
        assert_eq!(err(&["--threads", "0"]), "--threads must be at least 1");
        assert_eq!(err(&["--bogus"]), "unknown option: --bogus");
        assert_eq!(
            parse_as("fuzz", &["stray"]).unwrap_err(),
            "unknown fuzz option: stray"
        );
    }

    #[test]
    fn every_default_is_a_value_its_flag_accepts() {
        for cmd in COMMANDS {
            for f in cmd.flags {
                if let Some(d) = f.default {
                    assert_ne!(f.kind, Kind::Switch, "{}", f.name);
                    f.check(d).unwrap();
                }
            }
            let mut names: Vec<&str> = cmd.flags.iter().map(|f| f.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(
                names.len(),
                cmd.flags.len(),
                "duplicate flag in {:?}",
                cmd.name
            );
        }
    }

    #[test]
    fn usage_lists_every_command_experiment_and_flag() {
        let top = usage(command(""));
        for c in &COMMANDS[1..] {
            assert!(top.contains(c.name), "{}", c.name);
            let text = usage(c);
            assert!(text.starts_with(&format!("usage: repro {} [FLAGS]", c.name)));
            for f in c.flags {
                assert!(text.contains(f.name), "{} {}", c.name, f.name);
            }
        }
        for e in crate::experiments_cli::EXPERIMENTS {
            assert!(top.contains(e.name), "{}", e.name);
        }
        assert!(usage(command("fuzz")).contains("--iters N"));
        assert!(usage(command("fuzz")).contains("(default 200, N >= 1)"));
    }
}
