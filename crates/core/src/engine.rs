//! Convenience drivers: run a controller over traces and collect results.

use crate::builder::ControllerBuilder;
use crate::controller::{ReactiveController, TransitionEvent};
use crate::params::{ControllerParams, InvalidParamsError};
use crate::stats::ControlStats;
use crate::translog::TransitionLogPolicy;
use rsc_trace::{BranchRecord, InputId, Population};

/// Chunk size used by the chunked drivers (re-exported from
/// [`rsc_trace::workload`], whose [`Trace::for_each_chunk`] they all run on).
///
/// [`Trace::for_each_chunk`]: rsc_trace::Trace::for_each_chunk
pub use rsc_trace::DEFAULT_CHUNK_EVENTS;

/// The outcome of one controller run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Aggregate counters.
    pub stats: ControlStats,
    /// The transition log.
    pub transitions: Vec<TransitionEvent>,
}

/// Runs a controller over an arbitrary record stream.
///
/// # Errors
///
/// Returns an error if `params` are inconsistent.
///
/// # Examples
///
/// ```
/// use rsc_control::{engine, ControllerParams};
/// use rsc_trace::{spec2000, InputId};
///
/// let pop = spec2000::benchmark("mcf").unwrap().population(100_000);
/// let result = engine::run_trace(
///     ControllerParams::scaled(),
///     pop.trace(InputId::Eval, 100_000, 1),
/// )?;
/// assert_eq!(result.stats.events, 100_000);
/// # Ok::<(), rsc_control::InvalidParamsError>(())
/// ```
pub fn run_trace<I: IntoIterator<Item = BranchRecord>>(
    params: ControllerParams,
    trace: I,
) -> Result<RunResult, InvalidParamsError> {
    let (result, _) = run_trace_with(ReactiveController::builder(params), trace)?;
    Ok(result)
}

/// Runs a fully configured [`ControllerBuilder`] over a record stream and
/// returns the finished controller alongside the summary, so callers can
/// export telemetry ([`ReactiveController::metrics`]), snapshot it, or
/// keep observing.
///
/// # Errors
///
/// Returns an error if the builder's configuration is inconsistent.
///
/// # Examples
///
/// ```
/// use rsc_control::{engine, prelude::*};
/// use rsc_trace::{spec2000, InputId};
///
/// let pop = spec2000::benchmark("mcf").unwrap().population(50_000);
/// let builder = ReactiveController::builder(ControllerParams::scaled()).metrics();
/// let (result, ctl) = engine::run_trace_with(builder, pop.trace(InputId::Eval, 50_000, 1))?;
/// let registry = ctl.metrics().unwrap();
/// assert_eq!(registry.counter_value("rsc_events_total"), Some(result.stats.events));
/// # Ok::<(), InvalidParamsError>(())
/// ```
pub fn run_trace_with<I: IntoIterator<Item = BranchRecord>>(
    builder: ControllerBuilder,
    trace: I,
) -> Result<(RunResult, ReactiveController), InvalidParamsError> {
    let mut ctl = builder.build()?;
    for r in trace {
        ctl.observe(&r);
    }
    let stats = ctl.stats();
    let transitions = ctl.transitions().to_vec();
    Ok((RunResult { stats, transitions }, ctl))
}

/// Runs a controller over one benchmark population.
///
/// # Errors
///
/// Returns an error if `params` are inconsistent.
pub fn run_population(
    params: ControllerParams,
    population: &Population,
    input: InputId,
    events: u64,
    seed: u64,
) -> Result<RunResult, InvalidParamsError> {
    run_trace(params, population.trace(input, events, seed))
}

/// Runs a controller over one benchmark population through the chunked
/// hot path ([`rsc_trace::Trace::for_each_chunk`] into
/// [`ReactiveController::observe_chunk`]).
///
/// Produces bit-identical `stats` and `transitions` to [`run_population`]
/// for the same inputs; it is simply faster. `log_policy` selects how much
/// of the transition stream to retain — pass
/// [`TransitionLogPolicy::Full`] to match `run_population` exactly, or
/// [`TransitionLogPolicy::CountsOnly`] for maximum throughput.
///
/// # Errors
///
/// Returns an error if `params` are inconsistent.
pub fn run_population_chunked(
    params: ControllerParams,
    population: &Population,
    input: InputId,
    events: u64,
    seed: u64,
    log_policy: TransitionLogPolicy,
) -> Result<RunResult, InvalidParamsError> {
    let builder = ReactiveController::builder(params).log_policy(log_policy);
    let (result, _) = run_population_chunked_with(builder, population, input, events, seed)?;
    Ok(result)
}

/// Chunked-driver counterpart of [`run_trace_with`]: runs a fully
/// configured [`ControllerBuilder`] over one benchmark population through
/// [`ReactiveController::observe_chunk`] and returns the finished
/// controller alongside the summary.
///
/// # Errors
///
/// Returns an error if the builder's configuration is inconsistent.
pub fn run_population_chunked_with(
    builder: ControllerBuilder,
    population: &Population,
    input: InputId,
    events: u64,
    seed: u64,
) -> Result<(RunResult, ReactiveController), InvalidParamsError> {
    let mut ctl = builder.build()?;
    population
        .trace(input, events, seed)
        .for_each_chunk(|chunk| {
            ctl.observe_chunk(chunk);
        });
    let stats = ctl.stats();
    let transitions = ctl.transitions().to_vec();
    Ok((RunResult { stats, transitions }, ctl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::spec2000;

    #[test]
    fn run_population_produces_consistent_stats() {
        let pop = spec2000::benchmark("gzip").unwrap().population(50_000);
        let r = run_population(ControllerParams::scaled(), &pop, InputId::Eval, 50_000, 3).unwrap();
        assert_eq!(r.stats.events, 50_000);
        assert!(r.stats.touched > 0);
        assert!(r.stats.correct + r.stats.incorrect <= r.stats.events);
    }

    #[test]
    fn deterministic_across_runs() {
        let pop = spec2000::benchmark("vpr").unwrap().population(30_000);
        let a = run_population(ControllerParams::scaled(), &pop, InputId::Eval, 30_000, 5).unwrap();
        let b = run_population(ControllerParams::scaled(), &pop, InputId::Eval, 30_000, 5).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.transitions.len(), b.transitions.len());
    }

    #[test]
    fn chunked_run_is_bit_identical_to_per_event() {
        let pop = spec2000::benchmark("gcc").unwrap().population(60_000);
        let a =
            run_population(ControllerParams::scaled(), &pop, InputId::Eval, 60_000, 11).unwrap();
        let b = run_population_chunked(
            ControllerParams::scaled(),
            &pop,
            InputId::Eval,
            60_000,
            11,
            TransitionLogPolicy::Full,
        )
        .unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn chunked_counts_only_matches_stats() {
        let pop = spec2000::benchmark("gzip").unwrap().population(40_000);
        let a = run_population(ControllerParams::scaled(), &pop, InputId::Eval, 40_000, 2).unwrap();
        let b = run_population_chunked(
            ControllerParams::scaled(),
            &pop,
            InputId::Eval,
            40_000,
            2,
            TransitionLogPolicy::CountsOnly,
        )
        .unwrap();
        assert_eq!(a.stats, b.stats);
        assert!(b.transitions.is_empty());
    }

    #[test]
    fn invalid_params_error_out() {
        let pop = spec2000::benchmark("vpr").unwrap().population(1000);
        let mut p = ControllerParams::scaled();
        p.monitor_period = 0;
        assert!(run_population(p, &pop, InputId::Eval, 1000, 1).is_err());
    }
}
