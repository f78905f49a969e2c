//! The paper's Section 4.3 observation: because MSSP speculates at task
//! granularity, multiple branch misspeculations inside one task cost a
//! single task squash — the machine's misspeculation rate is *lower* than
//! the abstract model predicts. The effect grows with task size.

use crate::experiments::fig7::mssp_events;
use crate::options::ExpOptions;
use crate::table::TextTable;
use rsc_mssp::{machine, MsspParams};
use rsc_trace::{spec2000, InputId};

/// Task sizes swept (branch events per task).
pub const TASK_SIZES: [u64; 3] = [16, 64, 256];

/// Clustering data for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// `(task size, branch misspecs, task squashes)` per swept size.
    pub sweeps: Vec<(u64, u64, u64)>,
}

impl Row {
    /// Branch-misspeculations per task squash at each task size (≥ 1 when
    /// any squash happened; larger = more clustering).
    pub fn clustering_factors(&self) -> Vec<f64> {
        self.sweeps
            .iter()
            .map(|&(_, b, t)| if t == 0 { 1.0 } else { b as f64 / t as f64 })
            .collect()
    }
}

/// Runs the task-size sweep over selected benchmarks.
pub fn run_subset(opts: &ExpOptions, names: &[&str]) -> Vec<Row> {
    let events = mssp_events(opts);
    crate::parallel::par_map(names.to_vec(), |name| {
        let model = spec2000::benchmark(name).expect("known benchmark");
        let pop = model.population(events);
        // Each task size cuts the stream into different blocks, so each
        // is its own one-master run.
        let sweeps = TASK_SIZES
            .iter()
            .map(|&task_events| {
                let mut params = MsspParams::new();
                params.task_events = task_events;
                let r =
                    machine::run_mssp_only_chunked(&pop, InputId::Eval, events, opts.seed, &params);
                (task_events, r.branch_misspecs, r.task_misspecs)
            })
            .collect();
        Row {
            name: model.name,
            sweeps,
        }
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
        for (i, f) in factors.iter().enumerate() {
            let (_, b, s) = r.sweeps[i];
            cells.push(format!("{b}/{s} ({f:.2}x)"));
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

    #[test]
    fn tasks_cluster_branch_misspeculations() {
        let rows = run_subset(
            &ExpOptions::small().with_events(16_000_000),
            &["mcf", "gap"],
        );
        for r in &rows {
            let factors = r.clustering_factors();
            // At least one squash must exist to measure anything.
            assert!(r.sweeps.iter().any(|&(_, _, t)| t > 0), "{}", r.name);
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
}
