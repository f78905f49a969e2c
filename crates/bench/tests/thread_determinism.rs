//! Multi-seed and multi-thread determinism: controller runs are pure
//! functions of their seeds, and the `--threads` knob only changes *how*
//! the experiment fan-out is scheduled, never *what* it computes.
//!
//! `set_max_threads` is process-global, so everything lives in one test
//! function — Rust's default parallel test runner would otherwise race on
//! the cap.

use rsc_bench::experiments::{confidence, dynamo, fig2, fig5, oscillation, table3, table4};
use rsc_bench::options::ExpOptions;
use rsc_bench::parallel::set_max_threads;
use rsc_control::{engine, ControlStats, ControllerParams};
use rsc_profile::offline;
use rsc_trace::{spec2000, InputId};

const EVENTS: u64 = 120_000;

#[test]
fn seeds_and_thread_counts_are_deterministic() {
    // Part 1: same seed → bit-identical run (stats AND full transition
    // log), different seed → different outcome, across several seeds.
    let pop = spec2000::benchmark("vortex").unwrap().population(EVENTS);
    let run = |seed| {
        engine::run_population(
            ControllerParams::scaled(),
            &pop,
            InputId::Eval,
            EVENTS,
            seed,
        )
        .unwrap()
    };
    let mut per_seed = Vec::new();
    for seed in [7u64, 42, 1234] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.stats, b.stats, "seed {seed}: stats");
        assert_eq!(a.transitions, b.transitions, "seed {seed}: transitions");
        per_seed.push(a.stats);
    }
    assert_ne!(per_seed[0], per_seed[1], "seeds 7 and 42 should differ");
    assert_ne!(per_seed[1], per_seed[2], "seeds 42 and 1234 should differ");

    // Part 2: the experiment fan-out (`repro --threads N` routes to
    // `set_max_threads`) must yield identical `ControlStats` for every
    // thread count, including the sequential baseline.
    let opts = ExpOptions::small().with_events(EVENTS);
    let stats_at = |threads: usize| -> Vec<(&'static str, ControlStats)> {
        set_max_threads(threads);
        let rows = table3::run(&opts);
        set_max_threads(0);
        rows.into_iter().map(|r| (r.name, r.stats)).collect()
    };
    let sequential = stats_at(1);
    assert_eq!(sequential.len(), spec2000::NAMES.len());
    for threads in [2, 4, 8] {
        assert_eq!(
            sequential,
            stats_at(threads),
            "--threads {threads} changed experiment results"
        );
    }

    // The experiments that fan out over models compute the same rows at
    // one thread and at two: fig. 2's fused pass, and the controller sets
    // that share one generation per model (Table 4 and Fig. 5's seven,
    // oscillation's and confidence's pairs, dynamo's closed and open loops
    // with the flush policy). `{:?}` prints each f64 exactly.
    let rows_at = |threads: usize| {
        set_max_threads(threads);
        let rows = [
            format!("{:?}", fig2::run(&opts)),
            format!("{:?}", oscillation::run(&opts)),
            format!("{:?}", table4::run(&opts)),
            format!("{:?}", fig5::run(&opts)),
            format!("{:?}", dynamo::run(&opts)),
            format!("{:?}", confidence::run(&opts)),
        ];
        set_max_threads(0);
        rows
    };
    let (one, two) = (rows_at(1), rows_at(2));
    for (experiment, (a, b)) in [
        "fig2",
        "oscillation",
        "table4",
        "fig5",
        "dynamo",
        "confidence",
    ]
    .into_iter()
    .zip(one.iter().zip(&two))
    {
        assert_eq!(a, b, "--threads 2 changed {experiment} rows");
    }

    // Part 3: the sharded profiler merges shards in seed order, so the
    // averaged profile is also thread-count independent.
    let profile_at = |threads: usize| {
        set_max_threads(threads);
        let p = offline::averaged_profile(&pop, EVENTS, 100, 6);
        set_max_threads(0);
        p
    };
    let one = profile_at(1);
    for threads in [3, 6] {
        assert_eq!(
            one,
            profile_at(threads),
            "--threads {threads} changed the averaged profile"
        );
    }
}
