//! The fused initial-behavior consumer against its per-event oracle:
//! `initial_profile` → `SpeculationSet::from_profile` →
//! `evaluate_after_training`, each over its own copy of the trace.

use proptest::prelude::*;
use rsc_profile::evaluate::{evaluate_after_training, SpecOutcome};
use rsc_profile::initial::{initial_profile, InitialBehavior};
use rsc_profile::SpeculationSet;
use rsc_trace::{BranchId, BranchRecord};

const CHUNK_SIZES: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 4096];
const TRAINING_LENGTHS: [u64; 5] = [0, 1, 2, 5, 100];

/// Record streams over up to 24 branches of three kinds, by id mod 3:
/// always taken, not taken with a rare flip, and a fair coin. The first
/// two get selected after training; the flips and coins misspeculate.
fn records() -> impl Strategy<Value = Vec<BranchRecord>> {
    prop::collection::vec((0u32..24, any::<u8>(), 1u64..12), 0..1_200).prop_map(|entries| {
        let mut instr = 0;
        entries
            .into_iter()
            .map(|(b, coin, gap)| {
                instr += gap;
                let taken = match b % 3 {
                    0 => true,
                    1 => coin % 64 == 0,
                    _ => coin % 2 == 0,
                };
                BranchRecord {
                    branch: BranchId::new(b),
                    taken,
                    instr,
                }
            })
            .collect()
    })
}

fn oracle(trace: &[BranchRecord], n: u64) -> SpecOutcome {
    let profile = initial_profile(trace.iter().copied(), n);
    let set = SpeculationSet::from_profile(&profile, 0.99, n.min(100));
    evaluate_after_training(&set, trace.iter().copied(), n)
}

fn fused(trace: &[BranchRecord], chunk: usize, n: u64) -> SpecOutcome {
    let mut consumer = InitialBehavior::new(n);
    for c in trace.chunks(chunk) {
        consumer.record_chunk(c);
    }
    consumer.outcome()
}

fn rec(b: u32, taken: bool, instr: u64) -> BranchRecord {
    BranchRecord {
        branch: BranchId::new(b),
        taken,
        instr,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every chunk size and training length.
    #[test]
    fn fused_consumer_matches_the_per_event_oracle(trace in records()) {
        for n in TRAINING_LENGTHS {
            let expected = oracle(&trace, n);
            for chunk in CHUNK_SIZES {
                prop_assert_eq!(
                    fused(&trace, chunk, n),
                    expected,
                    "n {} chunk {}", n, chunk
                );
            }
        }
    }
}

#[test]
fn zero_training_decides_nothing_and_scores_no_nan() {
    let trace: Vec<_> = (0..50)
        .map(|i| rec(i % 3, true, u64::from(i) + 1))
        .collect();
    for chunk in CHUNK_SIZES {
        let out = fused(&trace, chunk, 0);
        assert_eq!(out, oracle(&trace, 0));
        assert_eq!((out.correct, out.incorrect, out.events), (0, 0, 50));
        assert_eq!(out.correct_frac(), 0.0);
        assert_eq!(out.incorrect_frac(), 0.0);
    }
    let empty = InitialBehavior::new(0).outcome();
    assert_eq!(empty, SpecOutcome::default());
    assert!(!empty.correct_frac().is_nan() && !empty.incorrect_frac().is_nan());
}

#[test]
fn branches_short_of_the_training_length_are_never_scored() {
    // Branch 0 runs 10 times, branch 1 only 4: with n = 5, branch 1
    // never finishes training and contributes nothing.
    let mut trace: Vec<_> = (0..10).map(|i| rec(0, true, 2 * i + 1)).collect();
    trace.extend((0..4).map(|i| rec(1, false, 100 + i)));
    for chunk in CHUNK_SIZES {
        let out = fused(&trace, chunk, 5);
        assert_eq!(out, oracle(&trace, 5));
        assert_eq!((out.correct, out.incorrect, out.events), (5, 0, 14));
    }
}

#[test]
fn ids_first_seen_mid_chunk_grow_the_table() {
    // Branch 9 first appears at position 3 of a 7-record chunk, branch 30
    // in a later chunk; both train and are then scored.
    let mut trace = vec![
        rec(0, true, 1),
        rec(0, true, 2),
        rec(0, true, 3),
        rec(9, false, 4),
        rec(9, false, 5),
        rec(0, true, 6),
        rec(9, true, 7),
    ];
    trace.extend((0..6).map(|i| rec(30, true, 8 + i)));
    trace.extend((0..4).map(|i| rec(9, false, 20 + i)));
    for chunk in CHUNK_SIZES {
        let out = fused(&trace, chunk, 2);
        assert_eq!(out, oracle(&trace, 2), "chunk {chunk}");
    }
    let out = fused(&trace, 7, 2);
    // Branch 0: 2 scored, correct. Branch 9: trained not-taken, then one
    // taken (incorrect) and four not-taken. Branch 30: 4 scored, correct.
    assert_eq!((out.correct, out.incorrect), (2 + 4 + 4, 1));
}
