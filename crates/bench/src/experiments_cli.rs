//! The top-level `repro [EXPERIMENT...]` command: one `Experiment`
//! entry per table or figure. Dispatch, the `all` order, and the usage
//! text's experiment list all read `EXPERIMENTS`.

use crate::cli::Args;
use crate::experiments::{
    clustering, confidence, dynamo, fig2, fig3, fig5, fig6, fig7, fig8, fig9, oscillation, perf,
    regions, table1, table2, table3, table4, table5, variance,
};
use crate::export;
use crate::options::ExpOptions;
use std::path::PathBuf;

/// One experiment `repro` can run by name.
pub(crate) struct Experiment {
    /// The name on the command line (and of its CSV file).
    pub(crate) name: &'static str,
    /// Printed as `== header ==` before the output.
    pub(crate) header: &'static str,
    /// Whether `all` runs it.
    pub(crate) in_all: bool,
    /// Runs the experiment and renders it: the stdout block and, for
    /// experiments with a CSV export, the CSV text.
    pub(crate) run: fn(&ExpOptions, &Args) -> (String, Option<String>),
}

/// Every experiment, in the order `all` runs them.
#[rustfmt::skip]
pub(crate) static EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", header: "Table 1: simulation data sets and run lengths", in_all: true,
        run: |o, _| (table1::render(o), None) },
    Experiment { name: "table2", header: "Table 2: model parameters", in_all: true,
        run: |_, _| (table2::render(), None) },
    Experiment { name: "fig2", header: "Figure 2: correct/incorrect speculation trade-off", in_all: true,
        run: |o, _| {
            let rows = fig2::run(o);
            let (benefit, misspec) = fig2::cross_input_summary(&rows);
            let text = format!(
                "{}\ncross-input averages: benefit loss {benefit:.1}x (paper ~3x), \
                 misspec gain {misspec:.1}x (paper ~10x)",
                fig2::render(&rows)
            );
            (text, Some(export::fig2_csv(&rows)))
        } },
    Experiment { name: "fig3", header: "Figure 3: initially-invariant gap branches", in_all: true,
        run: |o, _| (fig3::render(&fig3::run(o)), None) },
    Experiment { name: "fig5", header: "Figure 5: reactive control vs self-training", in_all: true,
        run: |o, _| { let r = fig5::run(o); (fig5::render(&r), Some(export::fig5_csv(&r))) } },
    Experiment { name: "table3", header: "Table 3: model transition data (p = paper, m = measured)", in_all: true,
        run: |o, _| { let r = table3::run(o); (table3::render(&r), Some(export::table3_csv(&r))) } },
    Experiment { name: "table4", header: "Table 4: model sensitivity (p = paper, m = measured)", in_all: true,
        run: |o, _| { let r = table4::run(o); (table4::render(&r), Some(export::table4_csv(&r))) } },
    Experiment { name: "fig6", header: "Figure 6: misprediction rate at biased-state exit", in_all: true,
        run: |o, _| (fig6::render(&fig6::run(o)), None) },
    Experiment { name: "fig9", header: "Figure 9: correlated behavior changes (vortex)", in_all: true,
        run: |o, _| (fig9::render(&fig9::run(o), 40), None) },
    Experiment { name: "oscillation", header: "Oscillation cap: re-optimization load", in_all: true,
        run: |o, _| { let r = oscillation::run(o); (oscillation::render(&r), Some(export::oscillation_csv(&r))) } },
    Experiment { name: "dynamo", header: "Dynamo-style flush policy vs closed/open loop", in_all: true,
        run: |o, _| { let r = dynamo::run(o); (dynamo::render(&r), Some(export::dynamo_csv(&r))) } },
    Experiment { name: "confidence", header: "Confidence-bound monitoring vs fixed window", in_all: true,
        run: |o, _| (confidence::render(&confidence::run(o)), None) },
    Experiment { name: "regions", header: "Correlated re-optimization batching", in_all: true,
        run: |o, _| (regions::render(&regions::run(o)), None) },
    Experiment { name: "variance", header: "Seed sensitivity of the baseline controller", in_all: true,
        run: |o, _| (variance::render(&variance::run(o)), None) },
    Experiment { name: "table5", header: "Table 5: MSSP simulation parameters", in_all: true,
        run: |_, _| (table5::render(), None) },
    Experiment { name: "fig7", header: "Figure 7: closed- vs open-loop MSSP performance", in_all: true,
        run: |o, _| { let r = fig7::run(o); (fig7::render(&r), Some(export::fig7_csv(&r))) } },
    Experiment { name: "fig8", header: "Figure 8: optimization-latency insensitivity", in_all: true,
        run: |o, _| { let r = fig8::run(o); (fig8::render(&r), Some(export::fig8_csv(&r))) } },
    Experiment { name: "clustering", header: "Task-granularity misspeculation clustering", in_all: true,
        run: |o, _| (clustering::render(&clustering::run(o)), None) },
    Experiment { name: "perf", header: "Pipeline throughput: per-event vs chunked hot path", in_all: false,
        run: |o, args| (run_perf(o, args), None) },
];

/// Runs the experiments named on the command line (default `all`).
///
/// # Errors
///
/// Returns `unknown experiment: NAME` before running anything if any
/// name is neither an experiment nor `all`.
pub(crate) fn run(args: &Args) -> Result<i32, String> {
    let mut which: Vec<&Experiment> = Vec::new();
    let names = match args.positional.as_slice() {
        [] => &["all".to_string()][..],
        names => names,
    };
    for name in names {
        match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => which.push(e),
            None if name == "all" => which.extend(EXPERIMENTS.iter().filter(|e| e.in_all)),
            None => return Err(format!("unknown experiment: {name}")),
        }
    }
    let opts = options(args)?;
    // Checked here so perf cannot fail after earlier experiments ran.
    args.int_opt::<usize>("--shards")?;
    if let Some(n) = args.int_opt("--threads")? {
        crate::parallel::set_max_threads(n);
    }
    for e in which {
        println!("== {} ==", e.header);
        let (text, csv) = (e.run)(&opts, args);
        println!("{text}");
        if let (Some(dir), Some(csv)) = (args.text_opt("--csv"), csv) {
            export::write(dir.as_ref(), e.name, &csv).expect("failed to write CSV");
        }
    }
    Ok(0)
}

/// The experiment options the flags ask for; `--full` wins over
/// `--events`.
pub(crate) fn options(args: &Args) -> Result<ExpOptions, String> {
    let events = if args.given("--full") {
        40_000_000
    } else {
        args.int("--events")?
    };
    Ok(ExpOptions::new()
        .with_events(events)
        .with_seed(args.int("--seed")?))
}

/// `repro perf`: the stage table, the optional `--shards` sweep, and the
/// `BENCH_pipeline.json` (plus `--metrics-out`) exports.
fn run_perf(opts: &ExpOptions, args: &Args) -> String {
    let shards = args
        .int_opt("--shards")
        .expect("--shards is checked before any experiment runs");
    let rows = perf::run(opts);
    let mut out = perf::render(&rows);
    let shard_rows = match shards {
        Some(n) => {
            out.push_str(&format!(
                "\n== Shard scaling: controller phase, {} worker thread(s) ==\n",
                crate::parallel::max_threads()
            ));
            let srows = perf::run_shards(opts, &perf::shard_counts(n));
            out.push_str(&perf::render_shards(&srows));
            srows
        }
        None => Vec::new(),
    };
    let path = args
        .text_opt("--csv")
        .map(|d| PathBuf::from(d).join("BENCH_pipeline.json"))
        .unwrap_or_else(|| PathBuf::from("BENCH_pipeline.json"));
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("failed to create output directory");
    }
    let json = perf::to_json(&rows, &shard_rows, opts);
    std::fs::write(&path, format!("{json}\n")).expect("failed to write BENCH_pipeline.json");
    out.push_str(&format!("\nwrote {}", path.display()));
    if let Some(mpath) = args.text_opt("--metrics-out") {
        let registry = match shards {
            Some(n) if n > 1 => perf::instrumented_sharded_registry(opts, n),
            _ => perf::instrumented_registry(opts),
        };
        crate::observe_cli::export_metrics(&registry, mpath.as_ref());
        out.push_str(&format!("\nwrote {mpath}"));
    }
    out
}
