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
/// controller alongside the summary. The one-controller case of
/// [`run_population_chunked_many`].
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
    let mut runs =
        run_population_chunked_many(vec![builder], population, input, events, seed, |_| {})?;
    Ok(runs.pop().expect("one run per builder"))
}

/// Runs every builder's controller side by side over **one** generation
/// of a population's trace: [`rsc_trace::Trace::for_each_chunk`] hands
/// each chunk to every controller's
/// [`observe_chunk`](ReactiveController::observe_chunk), then to
/// `on_chunk`, which lets another consumer (a profile, a controller with
/// its own chunk handling) ride on the same stream.
///
/// Each controller's results are bit-identical to running it alone on its
/// own generation; only the generation is shared. Returns one summary and
/// controller per builder, in order.
///
/// # Errors
///
/// Returns an error if any builder's configuration is inconsistent.
///
/// # Examples
///
/// ```
/// use rsc_control::{engine, prelude::*};
/// use rsc_trace::{spec2000, InputId};
///
/// let pop = spec2000::benchmark("mcf").unwrap().population(50_000);
/// let builders = [ControllerParams::scaled(), ControllerParams::scaled().without_eviction()]
///     .map(ReactiveController::builder);
/// let mut seen = 0;
/// let runs = engine::run_population_chunked_many(builders, &pop, InputId::Eval, 50_000, 1, |c| {
///     seen += c.len()
/// })?;
/// assert_eq!(seen, 50_000);
/// assert!(runs[0].0.stats.incorrect <= runs[1].0.stats.incorrect);
/// # Ok::<(), InvalidParamsError>(())
/// ```
pub fn run_population_chunked_many(
    builders: impl IntoIterator<Item = ControllerBuilder>,
    population: &Population,
    input: InputId,
    events: u64,
    seed: u64,
    mut on_chunk: impl FnMut(&[BranchRecord]),
) -> Result<Vec<(RunResult, ReactiveController)>, InvalidParamsError> {
    let mut ctls = builders
        .into_iter()
        .map(ControllerBuilder::build)
        .collect::<Result<Vec<_>, _>>()?;
    population
        .trace(input, events, seed)
        .for_each_chunk(|chunk| {
            for ctl in &mut ctls {
                ctl.observe_chunk(chunk);
            }
            on_chunk(chunk);
        });
    Ok(ctls
        .into_iter()
        .map(|ctl| {
            let stats = ctl.stats();
            let transitions = ctl.transitions().to_vec();
            (RunResult { stats, transitions }, ctl)
        })
        .collect())
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
    fn fused_runs_equal_separate_runs() {
        let pop = spec2000::benchmark("gcc").unwrap().population(60_000);
        let params = [
            ControllerParams::scaled(),
            ControllerParams::scaled().without_revisit(),
            ControllerParams::scaled().with_sampled_eviction(),
        ];
        let mut profile_events = 0;
        let fused = run_population_chunked_many(
            params.map(ReactiveController::builder),
            &pop,
            InputId::Eval,
            60_000,
            11,
            |chunk| profile_events += chunk.len(),
        )
        .unwrap();
        assert_eq!(profile_events, 60_000);
        for (p, (got, _)) in params.into_iter().zip(&fused) {
            let alone = run_population(p, &pop, InputId::Eval, 60_000, 11).unwrap();
            assert_eq!(got.stats, alone.stats);
            assert_eq!(got.transitions, alone.transitions);
        }
    }

    #[test]
    fn invalid_params_error_out() {
        let pop = spec2000::benchmark("vpr").unwrap().population(1000);
        let mut p = ControllerParams::scaled();
        p.monitor_period = 0;
        assert!(run_population(p, &pop, InputId::Eval, 1000, 1).is_err());
    }
}
