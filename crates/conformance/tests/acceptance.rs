//! Acceptance criteria for the conformance subsystem (ISSUE 2):
//!
//! * a clean campaign finds zero divergences between the optimized
//!   controller (per-event and chunked) and the golden reference;
//! * every seeded fault IS caught, shrunk to ≤ 1,000 events, and
//!   packaged as an artifact that replays the divergence after a JSON
//!   round-trip.

use rsc_conformance::json::Json;
use rsc_conformance::{campaign, CampaignConfig, Counterexample, Fault};

#[test]
fn clean_campaign_finds_zero_divergences() {
    let report = campaign::run(&CampaignConfig {
        seed_start: 0,
        seed_end: 8,
        events: 2_000,
        ..CampaignConfig::default()
    });
    assert!(
        report.counterexamples.is_empty(),
        "optimized controller diverged from the reference: {:?}",
        report.counterexamples.first().map(|c| &c.detail)
    );
    assert!(report.cases >= 8 * 6 * 7 * 2, "campaign under-covered");
}

#[test]
fn every_seeded_fault_is_caught_shrunk_and_replayable() {
    for fault in Fault::ALL {
        let report = campaign::run(&CampaignConfig {
            seed_start: 0,
            seed_end: 8,
            events: 2_000,
            fault: Some(fault),
            ..CampaignConfig::default()
        });
        let [cx] = &report.counterexamples[..] else {
            panic!("{fault} was not caught exactly once by the one policy swept");
        };
        assert!(
            cx.trace.len() <= 1_000,
            "{fault}: counterexample not minimal enough ({} events)",
            cx.trace.len()
        );
        assert!(
            cx.replay().is_err(),
            "{fault}: minimized counterexample must still diverge"
        );

        let text = cx.to_json().to_string();
        let reloaded = Counterexample::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(&reloaded, cx, "{fault}: artifact must round-trip");
        let div = reloaded
            .replay()
            .expect_err("reloaded artifact must reproduce the divergence");
        assert!(!div.detail.is_empty());
    }
}

#[test]
fn fault_free_replay_of_a_faulty_artifact_passes() {
    // The same trace, replayed with the fault removed, must conform —
    // proving the divergence comes from the fault, not the harness.
    let report = campaign::run(&CampaignConfig {
        seed_start: 0,
        seed_end: 8,
        events: 2_000,
        fault: Some(Fault::HysteresisOffByOne),
        ..CampaignConfig::default()
    });
    let mut cx = report
        .counterexamples
        .into_iter()
        .next()
        .expect("fault should be caught");
    cx.fault = None;
    assert!(cx.replay().is_ok());
}
