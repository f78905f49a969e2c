//! Structural guard for the disabled-telemetry fast path.
//!
//! A controller built without `.metrics()`/`.event_sink(...)` must keep
//! the in-place steady-state step that `observe` and `observe_chunk`
//! share. The failure mode this guards against is structural: if
//! telemetry ever became unconditionally attached, every event would run
//! the full FSM. The tests ask the controller which path it takes
//! ([`ReactiveController::chunk_fast_path`], the same predicate both
//! entry points read) instead of timing the two, so their outcome does
//! not depend on the host's load.

use rsc_control::prelude::*;
use rsc_control::{run_population_chunked, run_population_chunked_with, TransitionLogPolicy};
use rsc_trace::{spec2000, InputId};
use std::sync::Arc;

const EVENTS: u64 = 400_000;

fn builder() -> ControllerBuilder {
    ReactiveController::builder(ControllerParams::scaled())
        .log_policy(TransitionLogPolicy::CountsOnly)
}

#[test]
fn disabled_telemetry_keeps_the_chunked_fast_path() {
    let pop = spec2000::benchmark("gcc").unwrap().population(EVENTS);
    let legacy = run_population_chunked(
        ControllerParams::scaled(),
        &pop,
        InputId::Eval,
        EVENTS,
        7,
        TransitionLogPolicy::CountsOnly,
    )
    .unwrap();
    let (built, ctl) =
        run_population_chunked_with(builder(), &pop, InputId::Eval, EVENTS, 7).unwrap();
    assert_eq!(
        legacy.stats, built.stats,
        "the two drivers must be behaviorally identical"
    );
    assert!(
        ctl.chunk_fast_path(),
        "a builder with no .metrics() or sink must take the chunked fast path"
    );

    // The predicate is not vacuous: either kind of telemetry turns it off.
    assert!(!builder().metrics().build().unwrap().chunk_fast_path());
    let sink: Arc<dyn EventSink> = Arc::new(NullSink);
    assert!(!builder()
        .event_sink(sink)
        .build()
        .unwrap()
        .chunk_fast_path());
}

#[test]
fn disabled_telemetry_chunked_run_matches_per_event_on_the_fast_path() {
    let pop = spec2000::benchmark("gzip").unwrap().population(EVENTS);
    let mut per_event = builder().build().unwrap();
    for r in pop.trace(InputId::Eval, EVENTS, 3) {
        per_event.observe(&r);
    }
    let (chunked, ctl) =
        run_population_chunked_with(builder(), &pop, InputId::Eval, EVENTS, 3).unwrap();
    assert_eq!(
        per_event.stats(),
        chunked.stats,
        "the two paths must be behaviorally identical"
    );
    assert!(
        ctl.chunk_fast_path(),
        "the telemetry-free chunked run must not fall back to per-event"
    );
}
