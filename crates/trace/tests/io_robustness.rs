//! Property-based robustness tests for the hardened trace reader: no
//! input — arbitrary garbage, truncations, bit flips, or lying length
//! headers — may ever panic, hang, or size an allocation from untrusted
//! bytes. Every outcome must be `Ok` or a typed [`TraceIoError`].
//!
//! The serve daemon feeds client-supplied payloads straight into this
//! decoder, so these properties are the first line of its fault
//! isolation: a malicious tenant can at worst earn itself a
//! `BadPayload` reject.

use proptest::prelude::*;
use rsc_trace::adversary::Scenario;
use rsc_trace::codec::put_varint;
use rsc_trace::io::{read_trace, read_trace_with_limit, write_trace, TraceIoError};

/// A syntactically valid version-2 stream to mutate.
fn valid_trace(events: u64, seed: u64) -> Vec<u8> {
    let records = Scenario::UniformRandom { branches: 32 }.generate(events, seed);
    let mut buf = Vec::new();
    write_trace(&mut buf, records).expect("writing to a Vec cannot fail");
    buf
}

/// Instruction deltas whose running sum overflows u64 are corrupt at the
/// event that overflows, in debug and release builds alike (an unchecked
/// sum panics in one and wraps in the other).
#[test]
fn instruction_count_overflow_is_a_typed_error() {
    let delta = u64::MAX >> 1;
    let mut buf = b"RSCT\x01".to_vec();
    put_varint(&mut buf, 3);
    let mut events = Vec::new();
    for _ in 0..3 {
        events.push(buf.len() as u64);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, delta << 1);
    }
    match read_trace(&mut buf.as_slice()) {
        Err(TraceIoError::Corrupt { what, offset }) => {
            assert_eq!(what, "instruction count overflows u64");
            assert_eq!(offset, events[2]);
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // Two such events still fit: 2 * (2^63 - 1) = 2^64 - 2.
    let two = [&b"RSCT\x01\x02"[..], &buf[6..events[2] as usize]].concat();
    let records = read_trace(&mut two.as_slice()).expect("two deltas fit");
    assert_eq!(records[1].instr, u64::MAX - 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes decode to Ok or a typed error, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_trace(&mut bytes.as_slice());
    }

    /// Same, with the magic and a plausible version prepended so the
    /// fuzz pressure lands on the length header and body decoding
    /// instead of bouncing off the magic check.
    #[test]
    fn garbage_after_a_valid_header_never_panics(
        version in 0u8..4,
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = b"RSCT".to_vec();
        bytes.push(version);
        bytes.extend_from_slice(&body);
        let _ = read_trace(&mut bytes.as_slice());
    }

    /// Every strict truncation of a valid stream is a typed error.
    #[test]
    fn truncations_are_typed_errors(
        events in 1u64..200,
        seed in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let mut buf = valid_trace(events, seed);
        let cut = (cut % buf.len() as u64) as usize;
        buf.truncate(cut);
        prop_assert!(read_trace(&mut buf.as_slice()).is_err());
    }

    /// Any single bit flip in a version-2 stream is detected: the
    /// checksum footer covers every preceding byte, so damaged varints
    /// that still decode cannot smuggle altered events through.
    #[test]
    fn single_bit_flips_are_detected(
        events in 1u64..200,
        seed in any::<u64>(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut buf = valid_trace(events, seed);
        let pos = (pos % buf.len() as u64) as usize;
        buf[pos] ^= 1 << bit;
        prop_assert!(
            read_trace(&mut buf.as_slice()).is_err(),
            "flip at byte {pos} bit {bit} went undetected"
        );
    }

    /// A length header may claim anything; the reader bounds it before
    /// allocating and reports the claim faithfully.
    #[test]
    fn lying_length_headers_are_bounded_before_allocation(
        claimed in any::<u64>(),
        limit in 0u64..10_000,
    ) {
        // Hand-build `magic | version | count varint` with no body.
        let mut buf = b"RSCT".to_vec();
        buf.push(2);
        put_varint(&mut buf, claimed);
        match read_trace_with_limit(&mut buf.as_slice(), limit) {
            Err(TraceIoError::TooLong { count, limit: l }) => {
                prop_assert_eq!(count, claimed);
                prop_assert_eq!(l, limit);
                prop_assert!(claimed > limit);
            }
            Err(_) => prop_assert!(claimed <= limit, "in-bound claim got the wrong error"),
            Ok(records) => {
                prop_assert_eq!(claimed, 0);
                prop_assert!(records.is_empty());
            }
        }
        // A count varint that overflows u64 is no claim at all: it is
        // corrupt at its first byte, not an empty version-1 trace.
        let overflow = [&b"RSCT\x01"[..], &[0x80; 9], &[0x02]].concat();
        prop_assert!(matches!(
            read_trace_with_limit(&mut overflow.as_slice(), limit),
            Err(TraceIoError::Corrupt { offset: 5, .. })
        ));
    }

    /// The reader's event limit is exact on valid streams: everything at
    /// or under the limit round-trips, everything over is `TooLong`.
    #[test]
    fn limit_is_exact_on_valid_streams(
        events in 1u64..200,
        seed in any::<u64>(),
        slack in 0u64..100,
    ) {
        let buf = valid_trace(events, seed);
        let ok = read_trace_with_limit(&mut buf.as_slice(), events + slack);
        prop_assert_eq!(ok.unwrap().len() as u64, events);
        prop_assert!(matches!(
            read_trace_with_limit(&mut buf.as_slice(), events - 1),
            Err(TraceIoError::TooLong { .. })
        ));
    }
}
