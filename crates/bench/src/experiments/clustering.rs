//! The paper's Section 4.3 observation: because MSSP speculates at task
//! granularity, multiple branch misspeculations inside one task cost a
//! single task squash — the machine's misspeculation rate is *lower* than
//! the abstract model predicts. The effect grows with task size.
//!
//! The squash counts need no timing simulation. The MSSP master's
//! controller reads only the trace records of the program stream, and a
//! task squashes exactly when one of its branches misspeculates. So one
//! controller pass per model, with the machine's controller over the
//! machine's stream, counts the squashes at every task size at once.

use crate::experiments::fig7::mssp_events;
use crate::options::ExpOptions;
use crate::table::TextTable;
use rsc_control::{ControllerParams, ReactiveController, TransitionLogPolicy};
use rsc_mssp::MsspParams;
use rsc_trace::{spec2000, InputId, Population};

/// Task sizes swept (branch events per task).
pub const TASK_SIZES: [u64; 3] = [16, 64, 256];

/// Clustering data for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Dynamic branch misspeculations; the same at every task size.
    pub branch_misspecs: u64,
    /// Task squashes (tasks holding at least one branch misspeculation)
    /// at each entry of [`TASK_SIZES`].
    pub task_misspecs: [u64; TASK_SIZES.len()],
}

impl Row {
    /// Branch-misspeculations per task squash at each task size (≥ 1 when
    /// any squash happened; larger = more clustering).
    pub fn clustering_factors(&self) -> Vec<f64> {
        let b = self.branch_misspecs as f64;
        self.task_misspecs
            .iter()
            .map(|&t| if t == 0 { 1.0 } else { b / t as f64 })
            .collect()
    }

    /// Runs an MSSP master's controller, built from `params`, over
    /// `population`'s evaluation stream, and counts its branch
    /// misspeculations and the tasks they squash at each task size. Tasks
    /// are consecutive runs of `task_events` events, as the machine cuts
    /// them, so a short last task counts too.
    fn measure(
        name: &'static str,
        params: ControllerParams,
        population: &Population,
        events: u64,
        seed: u64,
    ) -> Row {
        let mut controller = ReactiveController::builder(params)
            .log_policy(TransitionLogPolicy::CountsOnly)
            .build()
            .expect("controller parameters must be valid");
        controller.reserve_branches(population.static_branches());
        let mut row = Row {
            name,
            branch_misspecs: 0,
            task_misspecs: [0; TASK_SIZES.len()],
        };
        // The index of the last task counted as squashed, per size.
        let mut squashed = [u64::MAX; TASK_SIZES.len()];
        let mut seen = 0u64;
        let trace = population.trace(InputId::Eval, events, seed);
        trace.for_each_chunk(|mut chunk| {
            while !chunk.is_empty() {
                // Stop at the next task boundary of any size, so the slice
                // lies inside one task at every size.
                let to_boundary = TASK_SIZES
                    .iter()
                    .map(|&s| s - seen % s)
                    .fold(u64::MAX, u64::min);
                let take = chunk.len().min(to_boundary as usize);
                let (slice, rest) = chunk.split_at(take);
                let incorrect = controller.observe_chunk(slice).incorrect;
                row.branch_misspecs += incorrect;
                for (i, size) in TASK_SIZES.into_iter().enumerate() {
                    if incorrect > 0 && squashed[i] != seen / size {
                        squashed[i] = seen / size;
                        row.task_misspecs[i] += 1;
                    }
                }
                seen += take as u64;
                chunk = rest;
            }
        });
        row
    }
}

/// Runs the task-size sweep over selected benchmarks.
pub fn run_subset(opts: &ExpOptions, names: &[&str]) -> Vec<Row> {
    let events = mssp_events(opts);
    let params = MsspParams::new().controller;
    crate::parallel::par_map(names.to_vec(), |name| {
        let model = spec2000::benchmark(name).expect("known benchmark");
        let population = model.population(events);
        Row::measure(model.name, params, &population, events, opts.seed)
    })
}

/// Runs all benchmarks.
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    run_subset(opts, &spec2000::NAMES)
}

/// Renders misspeculation clustering per task size.
pub fn render(rows: &[Row]) -> String {
    let mut headers = vec!["bmark".to_string()];
    for &t in &TASK_SIZES {
        headers.push(format!("task={t}: br-misspec/squash"));
    }
    let mut t = TextTable::new(headers);
    let mut grows = 0usize;
    for r in rows {
        let factors = r.clustering_factors();
        let mut cells = vec![r.name.to_string()];
        for (f, s) in factors.iter().zip(r.task_misspecs) {
            cells.push(format!("{}/{s} ({f:.2}x)", r.branch_misspecs));
        }
        t.row(cells);
        if factors.last() >= factors.first() {
            grows += 1;
        }
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nclustering grows (or holds) with task size on {}/{} benchmarks — \
         the paper's \"multiple failed speculations within one task\" effect\n",
        grows,
        rows.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_mssp::machine;

    #[test]
    fn tasks_cluster_branch_misspeculations() {
        let rows = run_subset(
            &ExpOptions::small().with_events(16_000_000),
            &["mcf", "gap"],
        );
        for r in &rows {
            let factors = r.clustering_factors();
            // At least one squash must exist to measure anything.
            assert!(r.task_misspecs.iter().any(|&t| t > 0), "{}", r.name);
            // Larger tasks absorb at least as many branch misspecs each.
            assert!(
                factors.last().unwrap() >= factors.first().unwrap(),
                "{}: factors {:?}",
                r.name,
                factors
            );
            // Clustering means strictly more than one branch misspec per
            // squash at the largest task size.
            assert!(
                *factors.last().unwrap() > 1.0,
                "{}: no clustering at large tasks: {:?}",
                r.name,
                factors
            );
        }
    }

    /// The controller pass counts what the timing simulator counts, at
    /// every task size. 250,000 events is not a multiple of 256, so the
    /// machine's short last task is compared too.
    #[test]
    fn squashes_equal_the_machine() {
        let opts = ExpOptions::small();
        let events = mssp_events(&opts);
        assert_eq!(events, 250_000);
        assert_ne!(events % TASK_SIZES[2], 0, "the last task must be short");
        // The experiment's controller misspeculates only a few times at
        // this length. This one classifies a branch after 16 executions,
        // deploys at once and never evicts, so its misspeculations sit
        // close enough together that moving a task boundary by one event
        // changes the counts.
        let dense = ControllerParams::scaled()
            .with_monitor_period(16)
            .with_latency(0)
            .without_eviction();
        let names = ["bzip2", "gzip", "crafty"];
        let rows = run_subset(&opts, &names);
        for (row, name) in rows.iter().zip(names) {
            let pop = spec2000::benchmark(name).unwrap().population(events);
            let machine_row = |controller| {
                let results = TASK_SIZES.map(|task_events| {
                    let params = MsspParams {
                        task_events,
                        ..MsspParams::new().with_controller(controller)
                    };
                    let runs = std::slice::from_ref(&params);
                    machine::run_mssp_many(&pop, InputId::Eval, events, opts.seed, false, runs)[0]
                });
                let branch_misspecs = results[0].branch_misspecs;
                for r in &results {
                    assert_eq!(r.branch_misspecs, branch_misspecs, "{name}");
                }
                Row {
                    name,
                    branch_misspecs,
                    task_misspecs: results.map(|r| r.task_misspecs),
                }
            };
            assert_eq!(*row, machine_row(MsspParams::new().controller));
            let dense_row = Row::measure(name, dense, &pop, events, opts.seed);
            assert_eq!(dense_row, machine_row(dense), "{name}: dense controller");
        }
    }
}
