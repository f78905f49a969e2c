//! One module per table/figure of the paper.

pub mod clustering;
pub mod confidence;
pub mod dynamo;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod oscillation;
pub mod perf;
pub mod regions;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod variance;

use crate::options::ExpOptions;
use rsc_control::{ControlStats, ControllerParams, ReactiveController, TransitionLogPolicy};
use rsc_trace::{BranchRecord, InputId, Population};

/// Runs one controller per `params` (counts-only logs) side by side on one
/// chunked generation of `population`'s Eval stream at `opts`, handing
/// each chunk to `on_chunk` as well, and returns their stats in order.
pub fn run_side_by_side<const N: usize>(
    params: [ControllerParams; N],
    population: &Population,
    opts: &ExpOptions,
    on_chunk: impl FnMut(&[BranchRecord]),
) -> [ControlStats; N] {
    let builders =
        params.map(|p| ReactiveController::builder(p).log_policy(TransitionLogPolicy::CountsOnly));
    let stats: Vec<ControlStats> = rsc_control::run_population_chunked_many(
        builders,
        population,
        InputId::Eval,
        opts.events,
        opts.seed,
        on_chunk,
    )
    .expect("valid params")
    .into_iter()
    .map(|(result, _)| result.stats)
    .collect();
    stats.try_into().expect("one run per controller")
}

#[cfg(test)]
mod tests {
    use rsc_control::{ControllerParams, EvictionStep, MonitorStep, ReactiveController};

    fn step_rules(params: ControllerParams) -> Option<(MonitorStep, EvictionStep)> {
        ReactiveController::builder(params)
            .build()
            .expect("valid params")
            .step_rules()
    }

    /// Which compiled in-place step `observe_chunk` runs for each
    /// controller of Table 4 (in its row order) and of Fig. 7's masters
    /// (`c`, `o`, `C`, `O`): checked from the controller's own choice, as
    /// `chunk_fast_path` is, not by timing.
    #[test]
    fn table4_and_fig7_controllers_run_the_expected_step() {
        use EvictionStep::{Counter, Never, Sampling};
        use MonitorStep::{FixedWindow, General};
        let table4 = super::table4::CONFIG_NAMES
            .map(|name| step_rules(super::table4::config(ControllerParams::scaled(), name)));
        assert_eq!(
            table4,
            [
                Some((FixedWindow, Counter)),
                Some((FixedWindow, Counter)),
                Some((FixedWindow, Sampling)),
                Some((FixedWindow, Counter)),
                Some((General, Counter)),
                Some((FixedWindow, Counter)),
                Some((FixedWindow, Never)),
            ]
        );
        let fig7 = super::fig7::controllers().map(step_rules);
        assert_eq!(
            fig7,
            [
                Some((FixedWindow, Counter)),
                Some((FixedWindow, Never)),
                Some((FixedWindow, Counter)),
                Some((FixedWindow, Never)),
            ]
        );
        // Telemetry takes every event through the full FSM instead.
        let metered = ReactiveController::builder(ControllerParams::scaled())
            .metrics()
            .build()
            .expect("valid params");
        assert_eq!(metered.step_rules(), None);
    }

    /// The cells of a fixed-width `results_all.txt` line: columns are
    /// separated by two or more spaces, so names with one space survive.
    fn columns(line: &str) -> Vec<&str> {
        line.split("  ")
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .collect()
    }

    /// A cell as both files print it: bold, thousands separators and
    /// percent signs dropped.
    fn norm(cell: &str) -> String {
        cell.replace("**", "").replace([',', '%'], "")
    }

    /// The header and rows of the `results_all.txt` block titled `title`.
    fn results_block<'a>(results: &'a str, title: &str) -> (Vec<&'a str>, Vec<Vec<&'a str>>) {
        let block = results
            .split("\n== ")
            .find(|b| b.starts_with(title))
            .unwrap_or_else(|| panic!("results_all.txt has no `== {title}` block"));
        let mut lines = block.lines().skip(1).take_while(|l| !l.trim().is_empty());
        let header = columns(lines.next().expect("block header"));
        let rows = lines.skip(1).map(columns).collect();
        (header, rows)
    }

    /// The rows of the first markdown table after `heading`, header and
    /// rule dropped.
    fn md_table<'a>(md: &'a str, heading: &str) -> Vec<Vec<&'a str>> {
        let section = &md[md.find(heading).expect("EXPERIMENTS.md section")..];
        section
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2)
            .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
            .collect()
    }

    /// EXPERIMENTS.md quotes the committed `results_all.txt`: every cell
    /// of its Table 3 and Table 4 tables, paper and measured, must equal
    /// the matching `== Table 3` / `== Table 4` block. The first stale
    /// cell is named.
    #[test]
    fn experiments_tables_quote_results_all() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read = |name: &str| std::fs::read_to_string(format!("{root}/{name}")).unwrap();
        let (md, results) = (read("EXPERIMENTS.md"), read("results_all.txt"));

        // Table 3: each doc cell is `paper / measured`; the block prints
        // them as two columns, after a `touch` column the doc leaves out.
        let (header, rows) = results_block(&results, "Table 3:");
        let doc = md_table(&md, "## Table 3 —");
        assert_eq!(doc.len(), rows.len(), "Table 3: row count");
        let names = &header[header.len() - 10..];
        for (doc_row, row) in doc.iter().zip(&rows) {
            assert_eq!(norm(doc_row[0]), row[0], "Table 3: row order");
            let cells = &row[row.len() - 10..];
            for (i, doc_cell) in doc_row[1..].iter().enumerate() {
                let (p, m) = doc_cell.split_once(" / ").expect("a `p / m` cell");
                for (got, (want, column)) in [p, m]
                    .iter()
                    .zip(cells[2 * i..].iter().zip(&names[2 * i..]))
                {
                    assert_eq!(
                        norm(got),
                        norm(want),
                        "EXPERIMENTS.md Table 3: row {}, column {column} is stale against results_all.txt",
                        row[0]
                    );
                }
            }
        }

        // Table 4: one doc column per block column.
        let (header, rows) = results_block(&results, "Table 4:");
        let doc = md_table(&md, "## Figure 5 / Table 4 —");
        assert_eq!(doc.len(), rows.len(), "Table 4: row count");
        for (doc_row, row) in doc.iter().zip(&rows) {
            assert_eq!(norm(doc_row[0]), row[0], "Table 4: row order");
            for ((got, want), column) in doc_row.iter().zip(row).zip(&header).skip(1) {
                assert_eq!(
                    norm(got),
                    norm(want),
                    "EXPERIMENTS.md Table 4: row {}, column {column} is stale against results_all.txt",
                    row[0]
                );
            }
        }
    }
}
