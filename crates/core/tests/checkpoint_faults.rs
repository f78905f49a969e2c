//! Fault-injection tests for checkpoint decode: truncations, bit
//! flips, version confusion, cross-format confusion, and torn file
//! writes must all surface as typed [`CheckpointError`]s — never a
//! panic, never a silently wrong controller.
//!
//! The serve daemon restores tenants from disk on every cold touch and
//! after every crash, so the strict decoder is what stands between a
//! damaged checkpoint file and a corrupted tenant. The torn-write tests
//! document the required storage discipline: write to a temporary file,
//! then atomically rename into place.

use rsc_control::{
    CheckpointError, ControllerCheckpoint, ControllerParams, ReactiveController, ShardedController,
};
use rsc_trace::Scenario;

/// A controller with telemetry enabled and real traffic behind it, so
/// the blob exercises every section of the format.
fn seeded_checkpoint(shards: usize) -> ControllerCheckpoint {
    let trace = Scenario::PhaseFlip {
        branches: 8,
        flip_after: 300,
    }
    .generate(4_000, 11);
    if shards > 1 {
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .metrics()
            .shards(shards)
            .build_sharded()
            .unwrap();
        ctl.observe_chunk(&trace);
        ctl.snapshot()
    } else {
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .metrics()
            .build()
            .unwrap();
        for r in &trace {
            ctl.observe(r);
        }
        ctl.snapshot()
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    for shards in [1, 3] {
        let cp = seeded_checkpoint(shards);
        let bytes = cp.as_bytes();
        for cut in 0..bytes.len() {
            let partial = ControllerCheckpoint::from_bytes(&bytes[..cut]);
            let plain = ReactiveController::restore(&partial);
            let sharded = ShardedController::restore(&partial);
            assert!(
                plain.is_err() && sharded.is_err(),
                "prefix of {cut}/{} bytes (shards={shards}) restored",
                bytes.len()
            );
        }
        // The full blob still restores: the sweep did not mutate it.
        assert!(ShardedController::restore(&cp).is_ok());
    }
}

#[test]
fn bit_flip_sweep_never_panics_and_leaves_restored_controllers_usable() {
    let cp = seeded_checkpoint(2);
    let bytes = cp.as_bytes();
    let mut survived = 0u32;
    for pos in 0..bytes.len() {
        let mut damaged = bytes.to_vec();
        damaged[pos] ^= 1 << (pos % 8);
        match ShardedController::restore(&ControllerCheckpoint::from_bytes(damaged)) {
            // The format has no checksum footer, so a flip inside a
            // value payload can decode to a *different but structurally
            // valid* state. That is in-contract; what the strict decoder
            // guarantees is that such a controller is fully usable.
            Ok(ctl) => {
                survived += 1;
                let _ = ctl.stats();
                assert!(ShardedController::restore(&ctl.snapshot()).is_ok());
            }
            Err(
                CheckpointError::BadMagic
                | CheckpointError::UnsupportedVersion(_)
                | CheckpointError::Truncated { .. }
                | CheckpointError::Corrupt { .. }
                | CheckpointError::Invalid(_)
                | CheckpointError::UnknownPolicy { .. }
                | CheckpointError::PolicyMismatch { .. },
            ) => {}
        }
    }
    // The decoder must still be strict: structural damage dominates.
    assert!(
        u64::from(survived) < bytes.len() as u64 / 2,
        "{survived}/{} flips decoded",
        bytes.len()
    );
}

#[test]
fn version_confusion_is_rejected_with_the_offending_byte() {
    let cp = seeded_checkpoint(1);
    // Format versions older than the v4 floor, a future version, and
    // junk: all must name the version they saw, not misparse the body.
    for bad in [0u8, 1, 2, 3, 5, 99] {
        let mut bytes = cp.as_bytes().to_vec();
        bytes[4] = bad;
        let err =
            ReactiveController::restore(&ControllerCheckpoint::from_bytes(bytes)).unwrap_err();
        assert_eq!(err, CheckpointError::UnsupportedVersion(bad));
    }
}

#[test]
fn cross_format_confusion_is_bad_magic_both_ways() {
    // A trace stream handed to the checkpoint decoder.
    let records = Scenario::UniformRandom { branches: 16 }.generate(200, 3);
    let mut trace_bytes = Vec::new();
    rsc_trace::io::write_trace(&mut trace_bytes, records).unwrap();
    let err =
        ReactiveController::restore(&ControllerCheckpoint::from_bytes(trace_bytes)).unwrap_err();
    assert_eq!(err, CheckpointError::BadMagic);

    // A checkpoint handed to the trace decoder.
    let cp = seeded_checkpoint(1);
    assert!(matches!(
        rsc_trace::io::read_trace(&mut cp.as_bytes()),
        Err(rsc_trace::io::TraceIoError::BadMagic)
    ));
}

#[test]
fn empty_and_trailing_garbage_blobs_are_typed() {
    assert!(matches!(
        ReactiveController::restore(&ControllerCheckpoint::from_bytes(Vec::new())),
        Err(CheckpointError::Truncated { .. })
    ));
    let mut bytes = seeded_checkpoint(1).into_bytes();
    bytes.extend_from_slice(b"extra");
    assert!(matches!(
        ReactiveController::restore(&ControllerCheckpoint::from_bytes(bytes)),
        Err(CheckpointError::Corrupt { .. })
    ));
}

/// A torn write of the checkpoint file itself (the crash window of a
/// naive `fs::write`) is always caught by the strict decoder, which is
/// what makes write-to-temp-then-rename sufficient for crash safety.
#[test]
fn torn_file_writes_are_detected_and_atomic_rename_avoids_them() {
    let dir = std::env::temp_dir().join("rsc_checkpoint_faults");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tenant-7.rsck");
    let cp = seeded_checkpoint(2);

    // Crash mid-write: only a prefix reached the disk.
    std::fs::write(&path, &cp.as_bytes()[..cp.len() / 2]).unwrap();
    let torn = std::fs::read(&path).unwrap();
    assert!(ShardedController::restore(&ControllerCheckpoint::from_bytes(torn)).is_err());

    // The required discipline: finish the bytes in a temp file, then
    // rename over the final path. Readers see the old blob or the new
    // blob, never the torn middle state.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, cp.as_bytes()).unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    let clean = std::fs::read(&path).unwrap();
    let restored = ShardedController::restore(&ControllerCheckpoint::from_bytes(clean)).unwrap();
    assert_eq!(
        restored.snapshot(),
        cp,
        "restore round-trips bit-identically"
    );

    // A crash between the temp write and the rename leaves a stale
    // `.tmp` orphan; the final path is untouched and still restores.
    std::fs::write(&tmp, &cp.as_bytes()[..3]).unwrap();
    let survivor = std::fs::read(&path).unwrap();
    assert!(ShardedController::restore(&ControllerCheckpoint::from_bytes(survivor)).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
