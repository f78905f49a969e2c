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
