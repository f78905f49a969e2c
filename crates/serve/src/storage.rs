//! Durable tenant state: checkpoint files with a torn-write-proof
//! protocol.
//!
//! Each tenant persists as one file, `tenant-<id>.rsvt`, holding a small
//! header (the ingest counters that live outside the controller), the
//! controller checkpoint blob (v4, via
//! [`rsc_control::ControllerCheckpoint`]), and a checksum footer over
//! everything before it:
//!
//! ```text
//! magic "RSVT" | version u8 | tenant varint | bytes varint |
//! rejected varint | digest varint | blob len varint | blob | fnv64 LE
//! ```
//!
//! The varints are [`rsc_trace::codec`] varints (one that overflows
//! `u64` is [`StoreError::Corrupt`]) and the footer is the codec's
//! FNV-1a.
//!
//! Writes follow **write-then-atomic-rename**: the bytes go to
//! `tenant-<id>.rsvt.tmp` first and are renamed over the final name only
//! after the write completed. A crash mid-write therefore leaves either
//! the old complete file or an orphaned `.tmp` — never a half-written
//! final file. [`CheckpointStore::list`] ignores (and sweeps) orphans,
//! and every load re-verifies the footer and the strict checkpoint
//! decode, so corruption that reaches disk anyway (the chaos seam flips
//! bits deliberately) surfaces as a typed [`StoreError`], never a panic.

use crate::chaos::{ChaosConfig, ChaosDie};
use rsc_control::{CheckpointError, ControllerCheckpoint};
use rsc_trace::codec::{self, fnv1a, put_varint, CodecError, FNV_OFFSET};
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"RSVT";
const VERSION: u8 = 1;

/// A tenant's durable state: the controller checkpoint plus the ingest
/// counters the checkpoint does not carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRecord {
    /// Tenant id (also encoded in the file name; both must agree).
    pub tenant: u64,
    /// Lifetime payload bytes accepted.
    pub bytes_ingested: u64,
    /// Lifetime events refused by quota or payload checks.
    pub rejected_events: u64,
    /// Running FNV-1a digest over every accepted payload, in order.
    pub stream_digest: u64,
    /// The controller state.
    pub checkpoint: ControllerCheckpoint,
}

/// Why a tenant record failed to load or save.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure (including injected ones).
    Io(io::Error),
    /// The file does not start with the `RSVT` magic.
    BadMagic,
    /// Unsupported record version.
    BadVersion(u8),
    /// The file ended before the structure was complete.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// A field is structurally invalid.
    Corrupt {
        /// What was wrong.
        what: &'static str,
    },
    /// The footer checksum disagrees with the bytes on disk.
    ChecksumMismatch {
        /// Checksum recomputed over the file body.
        computed: u64,
        /// Checksum stored in the footer.
        stored: u64,
    },
    /// The embedded controller checkpoint failed its strict decode.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => f.write_str("not a tenant record (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported tenant record version {v}"),
            StoreError::Truncated { offset } => write!(f, "tenant record truncated at {offset}"),
            StoreError::Corrupt { what } => write!(f, "corrupt tenant record: {what}"),
            StoreError::ChecksumMismatch { computed, stored } => write!(
                f,
                "tenant record checksum mismatch: computed {computed:#018x}, stored {stored:#018x}"
            ),
            StoreError::Checkpoint(e) => write!(f, "embedded checkpoint invalid: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CheckpointError> for StoreError {
    fn from(e: CheckpointError) -> Self {
        StoreError::Checkpoint(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated(offset) => StoreError::Truncated { offset },
            CodecError::Overflow(_) => StoreError::Corrupt {
                what: codec::OVERFLOW,
            },
        }
    }
}

/// Serializes a [`TenantRecord`] (header, blob, checksum footer).
pub fn encode_record(rec: &TenantRecord) -> Vec<u8> {
    let blob = rec.checkpoint.as_bytes();
    let mut out = Vec::with_capacity(blob.len() + 32);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_varint(&mut out, rec.tenant);
    put_varint(&mut out, rec.bytes_ingested);
    put_varint(&mut out, rec.rejected_events);
    put_varint(&mut out, rec.stream_digest);
    put_varint(&mut out, blob.len() as u64);
    out.extend_from_slice(blob);
    let checksum = fnv1a(FNV_OFFSET, &out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes a [`TenantRecord`], verifying the footer and the embedded
/// blob length. The controller checkpoint inside is *not* decoded here —
/// restore does that strictly when the state is actually needed.
///
/// # Errors
///
/// Returns a typed [`StoreError`] for every malformed input.
pub fn decode_record(bytes: &[u8]) -> Result<TenantRecord, StoreError> {
    let header = codec::Reader::new(bytes).take(MAGIC.len() + 1)?;
    if header[..MAGIC.len()] != MAGIC[..] {
        return Err(StoreError::BadMagic);
    }
    if header[MAGIC.len()] != VERSION {
        return Err(StoreError::BadVersion(header[MAGIC.len()]));
    }
    if bytes.len() < header.len() + 8 {
        return Err(StoreError::Truncated {
            offset: bytes.len(),
        });
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(footer.try_into().expect("8 bytes"));
    let computed = fnv1a(FNV_OFFSET, body);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { computed, stored });
    }
    // Fields are read from the checksummed body only: a varint cannot
    // run on into the footer.
    let mut r = codec::Reader::new(body);
    r.take(header.len())?;
    let tenant = r.varint()?;
    let bytes_ingested = r.varint()?;
    let rejected_events = r.varint()?;
    let stream_digest = r.varint()?;
    let blob_len = r.varint()?;
    let blob = r.rest();
    if blob_len != blob.len() as u64 {
        return Err(StoreError::Corrupt {
            what: "blob length disagrees with file size",
        });
    }
    Ok(TenantRecord {
        tenant,
        bytes_ingested,
        rejected_events,
        stream_digest,
        checkpoint: ControllerCheckpoint::from_bytes(blob),
    })
}

/// On-disk tenant store rooted at one directory, with chaos seams on the
/// write path.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    chaos: ChaosConfig,
    die: ChaosDie,
    /// Spurious write errors injected so far.
    pub injected_write_errors: u64,
    /// Blob corruptions injected so far.
    pub injected_corruptions: u64,
}

impl CheckpointStore {
    /// Chaos stream id for the storage seam (documented so tests can
    /// predict the roll sequence).
    pub const CHAOS_STREAM: u64 = 0x5705;

    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>, chaos: ChaosConfig) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            die: chaos.die(Self::CHAOS_STREAM),
            dir,
            chaos,
            injected_write_errors: 0,
            injected_corruptions: 0,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn final_path(&self, tenant: u64) -> PathBuf {
        self.dir.join(format!("tenant-{tenant}.rsvt"))
    }

    fn tmp_path(&self, tenant: u64) -> PathBuf {
        self.dir.join(format!("tenant-{tenant}.rsvt.tmp"))
    }

    /// Persists a tenant record: encode, write to `.tmp`, atomically
    /// rename over the final name.
    ///
    /// Chaos seams fire here: a spurious [`StoreError::Io`] before
    /// anything is written, or a single flipped bit in the encoded bytes
    /// (which the rename still publishes — modeling a disk that lied —
    /// so the *next load* detects it via the checksum footer).
    ///
    /// # Errors
    ///
    /// Returns a typed [`StoreError`] on real or injected failures. On
    /// error the previous complete record (if any) is still in place.
    pub fn save(&mut self, rec: &TenantRecord) -> Result<(), StoreError> {
        if self.die.roll(self.chaos.write_error_per_mille) {
            self.injected_write_errors += 1;
            return Err(StoreError::Io(io::Error::other(
                "injected: spurious checkpoint write failure",
            )));
        }
        let mut bytes = encode_record(rec);
        if self.die.roll(self.chaos.corrupt_blob_per_mille) {
            self.injected_corruptions += 1;
            let at = self.die.below(bytes.len() as u64) as usize;
            let bit = self.die.below(8) as u8;
            bytes[at] ^= 1 << bit;
        }
        let tmp = self.tmp_path(rec.tenant);
        let fin = self.final_path(rec.tenant);
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &fin)?;
        Ok(())
    }

    /// Loads a tenant record, or `Ok(None)` when no complete record
    /// exists. An orphaned `.tmp` (torn write) is swept and does not
    /// count as state.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StoreError`] when a *complete* record exists
    /// but fails validation (checksum, structure).
    pub fn load(&self, tenant: u64) -> Result<Option<TenantRecord>, StoreError> {
        // A leftover `.tmp` is evidence of a torn write; remove it so it
        // can never be confused for state.
        let _ = std::fs::remove_file(self.tmp_path(tenant));
        let bytes = match std::fs::read(self.final_path(tenant)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let rec = decode_record(&bytes)?;
        if rec.tenant != tenant {
            return Err(StoreError::Corrupt {
                what: "record tenant id disagrees with file name",
            });
        }
        Ok(Some(rec))
    }

    /// Deletes a tenant's record (and any orphaned `.tmp`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the file being absent.
    pub fn remove(&self, tenant: u64) -> Result<(), StoreError> {
        let _ = std::fs::remove_file(self.tmp_path(tenant));
        match std::fs::remove_file(self.final_path(tenant)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// Tenant ids with a complete record on disk, sorted. Orphaned
    /// `.tmp` files are swept as they are found.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn list(&self) -> Result<Vec<u64>, StoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(stem) = name.strip_suffix(".rsvt.tmp") {
                if stem.starts_with("tenant-") {
                    let _ = std::fs::remove_file(entry.path());
                }
                continue;
            }
            if let Some(id) = name
                .strip_prefix("tenant-")
                .and_then(|s| s.strip_suffix(".rsvt"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push(id);
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_control::{ControllerParams, ReactiveController};

    fn record(tenant: u64) -> TenantRecord {
        let ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        TenantRecord {
            tenant,
            bytes_ingested: 123,
            rejected_events: 4,
            stream_digest: 0x5eed_d16e_5700_0000,
            checkpoint: ctl.snapshot(),
        }
    }

    #[test]
    fn roundtrip_through_disk() {
        let dir = std::env::temp_dir().join("rsc_store_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir, ChaosConfig::off()).unwrap();
        let rec = record(7);
        store.save(&rec).unwrap();
        assert_eq!(store.load(7).unwrap().as_ref(), Some(&rec));
        assert_eq!(store.list().unwrap(), vec![7]);
        assert!(store.load(8).unwrap().is_none());
        store.remove(7).unwrap();
        assert!(store.load(7).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_is_swept_not_loaded() {
        let dir = std::env::temp_dir().join("rsc_store_tmp_sweep");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir, ChaosConfig::off()).unwrap();
        let rec = record(3);
        store.save(&rec).unwrap();
        // Simulate a crash mid-write: a half-record under the tmp name.
        std::fs::write(dir.join("tenant-3.rsvt.tmp"), b"RSVT\x01half").unwrap();
        std::fs::write(dir.join("tenant-9.rsvt.tmp"), b"torn").unwrap();
        // The complete record is untouched; the orphans are ignored.
        assert_eq!(store.load(3).unwrap().as_ref(), Some(&rec));
        assert_eq!(store.list().unwrap(), vec![3]);
        assert!(!dir.join("tenant-9.rsvt.tmp").exists(), "orphan swept");
        assert!(store.load(9).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_record_is_a_typed_error() {
        let dir = std::env::temp_dir().join("rsc_store_corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir, ChaosConfig::off()).unwrap();
        store.save(&record(5)).unwrap();
        let path = dir.join("tenant-5.rsvt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(5),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // A tenant varint that overflows u64, under a valid footer, is
        // corrupt rather than tenant u64::MAX (canonically ff x9 01).
        let mut bytes = encode_record(&record(u64::MAX));
        assert_eq!(bytes[5..15], [[0xff; 9].as_slice(), &[0x01]].concat());
        bytes[14] = 0x7f;
        let body_end = bytes.len() - 8;
        let footer = fnv1a(FNV_OFFSET, &bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&footer);
        assert!(matches!(
            decode_record(&bytes),
            Err(StoreError::Corrupt {
                what: codec::OVERFLOW
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_varints_cannot_run_into_the_footer() {
        // A record that ends after four header varints, under a valid
        // footer whose first byte is 0x00: read from the whole file,
        // that byte would pass for a zero blob length past the body.
        let (bytes, body_end) = (0u64..)
            .map(|tenant| {
                let mut bytes = MAGIC.to_vec();
                bytes.push(VERSION);
                for v in [tenant, 1, 2, 3] {
                    put_varint(&mut bytes, v);
                }
                let body_end = bytes.len();
                let footer = fnv1a(FNV_OFFSET, &bytes);
                bytes.extend_from_slice(&footer.to_le_bytes());
                (bytes, body_end)
            })
            .find(|(bytes, body_end)| bytes[*body_end] == 0)
            .expect("some tenant id gives a footer that starts with 0x00");
        assert!(matches!(
            decode_record(&bytes),
            Err(StoreError::Truncated { offset }) if offset == body_end
        ));
    }

    #[test]
    fn injected_write_error_leaves_previous_record_intact() {
        let dir = std::env::temp_dir().join("rsc_store_chaos_write");
        let _ = std::fs::remove_dir_all(&dir);
        let chaos = ChaosConfig {
            seed: 11,
            write_error_per_mille: 1000,
            ..ChaosConfig::off()
        };
        let mut store = CheckpointStore::open(&dir, chaos).unwrap();
        // Seed the good record through a chaos-free store.
        let rec = record(2);
        CheckpointStore::open(&dir, ChaosConfig::off())
            .unwrap()
            .save(&rec)
            .unwrap();
        let mut newer = rec.clone();
        newer.bytes_ingested = 999;
        assert!(matches!(store.save(&newer), Err(StoreError::Io(_))));
        assert_eq!(store.injected_write_errors, 1);
        assert_eq!(store.load(2).unwrap().as_ref(), Some(&rec));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corruption_is_caught_on_the_next_load() {
        let dir = std::env::temp_dir().join("rsc_store_chaos_corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let chaos = ChaosConfig {
            seed: 11,
            corrupt_blob_per_mille: 1000,
            ..ChaosConfig::off()
        };
        let mut store = CheckpointStore::open(&dir, chaos).unwrap();
        store.save(&record(1)).unwrap();
        assert_eq!(store.injected_corruptions, 1);
        assert!(
            store.load(1).is_err(),
            "deliberately corrupted record must not load cleanly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncations_of_a_valid_record_never_panic() {
        let rec = record(6);
        let bytes = encode_record(&rec);
        for cut in 0..bytes.len() {
            let err = decode_record(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded cleanly");
        }
        assert_eq!(decode_record(&bytes).unwrap(), rec);
    }
}
