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

    /// The text of the `results_all.txt` block titled `title`.
    fn block_text<'a>(results: &'a str, title: &str) -> &'a str {
        results
            .split("\n== ")
            .find(|b| b.starts_with(title))
            .unwrap_or_else(|| panic!("results_all.txt has no `== {title}` block"))
    }

    /// The header and rows of the `results_all.txt` block titled `title`.
    fn results_block<'a>(results: &'a str, title: &str) -> (Vec<&'a str>, Vec<Vec<&'a str>>) {
        let block = block_text(results, title);
        let mut lines = block.lines().skip(1).take_while(|l| !l.trim().is_empty());
        let header = columns(lines.next().expect("block header"));
        let rows = lines.skip(1).map(columns).collect();
        (header, rows)
    }

    /// The EXPERIMENTS.md section that opens with `heading`.
    fn md_section<'a>(md: &'a str, heading: &str) -> &'a str {
        let section = &md[md.find(heading).expect("EXPERIMENTS.md section")..];
        &section[..section[1..].find("\n## ").map_or(section.len(), |i| i + 1)]
    }

    /// The measured percentages of a summary line (`39.5%`), leaving out
    /// the paper's (`~18%`, `<2%`).
    fn measured_percents(line: &str) -> Vec<&str> {
        line.split_whitespace()
            .map(|w| w.trim_end_matches([',', ')']))
            .filter(|w| w.ends_with('%') && w.starts_with(|c: char| c.is_ascii_digit()))
            .collect()
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
    /// the matching `== Table 3` / `== Table 4` block; every Figure 7
    /// cell must round the `== Figure 7` block's value; and the bolded
    /// percentages of the Figure 7 and Figure 8 sections must be the
    /// blocks' summary lines. The first stale cell is named.
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

        // Figure 7: the doc prints fewer decimals than the block, so each
        // cell must lie within half a unit of its own last digit of the
        // block's value (bzip2 `C`, 1.145, is printed as 1.15). The doc
        // leaves out the block's constant `B` column.
        let (header, rows) = results_block(&results, "Figure 7:");
        assert_eq!(header, ["bmark", "B", "c", "o", "C", "O"]);
        let doc = md_table(&md, "## Figure 7 —");
        assert_eq!(doc.len(), rows.len(), "Figure 7: row count");
        for (doc_row, row) in doc.iter().zip(&rows) {
            assert_eq!(doc_row[0], row[0], "Figure 7: row order");
            for ((got, want), column) in doc_row[1..].iter().zip(&row[2..]).zip(&header[2..]) {
                let decimals = got.split_once('.').map_or(0, |(_, frac)| frac.len());
                let half_unit = 0.5 * 10f64.powi(-(decimals as i32));
                let (g, w): (f64, f64) = (got.parse().unwrap(), want.parse().unwrap());
                assert!(
                    (g - w).abs() <= half_unit + 1e-9,
                    "EXPERIMENTS.md Figure 7: row {}, column {column}: {got} does not round {want}",
                    row[0]
                );
            }
        }

        // Bolded headline percentages quote the blocks' summary lines.
        for (heading, title, summary) in [
            ("## Figure 7 —", "Figure 7:", "mean open-loop gap:"),
            ("## Figure 8 —", "Figure 8:", "max latency sensitivity:"),
        ] {
            let bold: Vec<&str> = md_section(&md, heading)
                .split("**")
                .skip(1)
                .step_by(2)
                .filter(|b| b.ends_with('%'))
                .collect();
            let line = block_text(&results, title)
                .lines()
                .find(|l| l.starts_with(summary))
                .unwrap_or_else(|| panic!("`== {title}` block has no `{summary}` line"));
            assert!(!bold.is_empty(), "EXPERIMENTS.md {title}: no bolded number");
            assert_eq!(
                bold,
                measured_percents(line),
                "EXPERIMENTS.md {title} bolded numbers are stale against results_all.txt"
            );
        }
    }
}
