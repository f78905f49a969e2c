//! Compact binary serialization of branch traces.
//!
//! Lets a workload be generated once, stored, and replayed elsewhere
//! (e.g., to feed the controller in another process, or to archive the
//! exact trace behind a reported number). The format is a small
//! delta/varint encoding:
//!
//! ```text
//! magic "RSCT" | version u8 | event count varint |
//! per event: branch-id varint | (instr-delta << 1 | taken) varint |
//! checksum u64 LE (version >= 2)
//! ```
//!
//! Instruction counts are strictly increasing in valid traces, so deltas
//! are small and most events take 2–4 bytes. Every varint is a
//! [`codec`] varint: one that overflows `u64` is corrupt,
//! and so is a stream whose instruction count would.
//!
//! The checksum footer is the codec's FNV-1a over every preceding byte of
//! the file (header included), so any bit flip in the body is caught even
//! when the damaged varints still decode. Version-1 streams (no footer)
//! remain readable. Decode errors carry the byte offset at which the
//! stream went bad.

use crate::codec::{self, fnv1a, put_varint, FNV_OFFSET};
use crate::ids::BranchId;
use crate::record::BranchRecord;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"RSCT";
/// Newest format version; what [`write_trace`] emits.
const VERSION: u8 = 2;
/// Oldest version [`read_trace`] still accepts (pre-checksum streams).
const MIN_VERSION: u8 = 1;

/// Hard ceiling on the event count [`read_trace`] will accept from an
/// untrusted length header. Every event costs at least two body bytes, so
/// any genuine trace at this limit is multiple gigabytes; headers beyond
/// it are rejected *before* any allocation is sized from them. Use
/// [`read_trace_with_limit`] to tighten the bound further.
pub const MAX_TRACE_EVENTS: u64 = 1 << 32;

/// Errors produced when decoding a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The length header claims more events than the reader's limit; the
    /// header is rejected before any allocation is sized from it.
    TooLong {
        /// Event count claimed by the header.
        count: u64,
        /// The reader's limit ([`MAX_TRACE_EVENTS`] by default).
        limit: u64,
    },
    /// The body is structurally malformed: a varint overflowed `u64`, a
    /// field exceeded its domain, or the stream ended early.
    Corrupt {
        /// What was being decoded when the stream went bad.
        what: &'static str,
        /// Byte offset (from the start of the stream) of the failure.
        offset: u64,
    },
    /// Every field decoded, but the footer checksum does not match the
    /// bytes that were read: the stream was altered in transit.
    ChecksumMismatch {
        /// Checksum recomputed over the bytes actually read.
        computed: u64,
        /// Checksum stored in the footer.
        stored: u64,
        /// Byte offset of the footer.
        offset: u64,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic => f.write_str("not a trace file (bad magic)"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::TooLong { count, limit } => {
                write!(f, "length header claims {count} events (limit {limit})")
            }
            TraceIoError::Corrupt { what, offset } => {
                write!(f, "corrupt trace at byte {offset}: {what}")
            }
            TraceIoError::ChecksumMismatch {
                computed,
                stored,
                offset,
            } => write!(
                f,
                "checksum mismatch at byte {offset}: computed {computed:#018x}, stored {stored:#018x}"
            ),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Reader wrapper that tracks the byte offset (for error reporting) and
/// a running FNV-1a hash (for the version-2 footer check) of everything
/// read through it.
struct HashingReader<R> {
    inner: R,
    offset: u64,
    fnv: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader {
            inner,
            offset: 0,
            fnv: FNV_OFFSET,
        }
    }

    /// Like `read_exact`, but a short read becomes a typed corruption
    /// error naming `what` was being decoded and where the stream ended.
    fn fill(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), TraceIoError> {
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.fnv = fnv1a(self.fnv, buf);
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(TraceIoError::Corrupt {
                what,
                offset: self.offset,
            }),
            Err(e) => Err(TraceIoError::Io(e)),
        }
    }

    fn read_varint(&mut self, what: &'static str) -> Result<u64, TraceIoError> {
        let offset = self.offset;
        codec::read_varint(
            || {
                let mut byte = [0u8; 1];
                self.fill(&mut byte, what)?;
                Ok(byte[0])
            },
            || TraceIoError::Corrupt {
                what: codec::OVERFLOW,
                offset,
            },
        )
    }
}

/// Writes a trace to `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use rsc_trace::io::{read_trace, write_trace};
/// use rsc_trace::{spec2000, InputId};
///
/// let pop = spec2000::benchmark("gzip").unwrap().population(1_000);
/// let events: Vec<_> = pop.trace(InputId::Eval, 1_000, 7).collect();
/// let mut buf = Vec::new();
/// write_trace(&mut buf, events.iter().copied()).unwrap();
/// let back = read_trace(&mut buf.as_slice()).unwrap();
/// assert_eq!(back, events);
/// ```
pub fn write_trace<W: Write, I: IntoIterator<Item = BranchRecord>>(
    w: &mut W,
    records: I,
) -> io::Result<()> {
    // Buffer the body so the count can go in the header without requiring
    // an ExactSizeIterator.
    let mut body = Vec::new();
    let mut count = 0u64;
    let mut last_instr = 0u64;
    for r in records {
        put_varint(&mut body, r.branch.index() as u64);
        let delta = r.instr.saturating_sub(last_instr);
        last_instr = r.instr;
        put_varint(&mut body, (delta << 1) | u64::from(r.taken));
        count += 1;
    }
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(MAGIC);
    header.push(VERSION);
    put_varint(&mut header, count);
    let checksum = fnv1a(fnv1a(FNV_OFFSET, &header), &body);
    w.write_all(&header)?;
    w.write_all(&body)?;
    w.write_all(&checksum.to_le_bytes())
}

/// Reads a whole trace from `r`, accepting at most [`MAX_TRACE_EVENTS`]
/// events.
///
/// # Errors
///
/// Returns [`TraceIoError`] on malformed input or I/O failure.
pub fn read_trace<R: Read>(r: &mut R) -> Result<Vec<BranchRecord>, TraceIoError> {
    read_trace_with_limit(r, MAX_TRACE_EVENTS)
}

/// Reads a whole trace from `r`, rejecting length headers above
/// `max_events` before sizing any allocation from them.
///
/// # Errors
///
/// Returns [`TraceIoError`] on malformed input, an over-limit header, or
/// I/O failure.
pub fn read_trace_with_limit<R: Read>(
    r: &mut R,
    max_events: u64,
) -> Result<Vec<BranchRecord>, TraceIoError> {
    let mut r = HashingReader::new(r);
    let mut magic = [0u8; 4];
    r.fill(&mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let mut version = [0u8; 1];
    r.fill(&mut version, "version")?;
    if !(MIN_VERSION..=VERSION).contains(&version[0]) {
        return Err(TraceIoError::BadVersion(version[0]));
    }
    let count = r.read_varint("event count")?;
    if count > max_events {
        return Err(TraceIoError::TooLong {
            count,
            limit: max_events,
        });
    }
    // The header has passed the bound check but is still untrusted: cap
    // the initial reservation so a lying count inside the limit cannot
    // reserve gigabytes for a stream that ends after three bytes.
    let mut records = Vec::with_capacity(count.min(1 << 24) as usize);
    let mut instr = 0u64;
    for _ in 0..count {
        let at = r.offset;
        let branch = r.read_varint("branch id")?;
        if branch > u64::from(u32::MAX) {
            return Err(TraceIoError::Corrupt {
                what: "branch id exceeds u32",
                offset: at,
            });
        }
        let packed = r.read_varint("event payload")?;
        instr = instr
            .checked_add(packed >> 1)
            .ok_or(TraceIoError::Corrupt {
                what: "instruction count overflows u64",
                offset: at,
            })?;
        records.push(BranchRecord {
            branch: BranchId::new(branch as u32),
            taken: packed & 1 == 1,
            instr,
        });
    }
    if version[0] >= 2 {
        // Snapshot the running hash before the footer bytes pass through
        // the reader: the footer covers everything before itself.
        let computed = r.fnv;
        let offset = r.offset;
        let mut footer = [0u8; 8];
        r.fill(&mut footer, "checksum footer")?;
        let stored = u64::from_le_bytes(footer);
        if stored != computed {
            return Err(TraceIoError::ChecksumMismatch {
                computed,
                stored,
                offset,
            });
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(b: u32, taken: bool, instr: u64) -> BranchRecord {
        BranchRecord {
            branch: BranchId::new(b),
            taken,
            instr,
        }
    }

    #[test]
    fn roundtrip_simple() {
        let events = vec![rec(0, true, 5), rec(3, false, 11), rec(0, true, 12)];
        let mut buf = Vec::new();
        write_trace(&mut buf, events.iter().copied()).unwrap();
        assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), events);
    }

    #[test]
    fn roundtrip_empty() {
        let mut buf = Vec::new();
        write_trace(&mut buf, std::iter::empty()).unwrap();
        assert!(read_trace(&mut buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn encoding_is_compact() {
        // 10k events with small deltas should take only a few bytes each.
        let events: Vec<_> = (0..10_000u64)
            .map(|i| rec((i % 64) as u32, i % 3 == 0, (i + 1) * 6))
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, events.iter().copied()).unwrap();
        assert!(buf.len() < 10_000 * 4, "encoded size {} bytes", buf.len());
        assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), events);
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOPE\x01\x00".to_vec();
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::BadMagic)
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"RSCT");
        buf.push(99);
        buf.push(0);
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::BadVersion(99))
        ));
    }

    #[test]
    fn rejects_truncated_body() {
        let events = [rec(0, true, 5), rec(1, false, 9)];
        let mut buf = Vec::new();
        write_trace(&mut buf, events.iter().copied()).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_trace(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_absurd_length_header_before_allocating() {
        // A syntactically valid header claiming 2^60 events. Decoding must
        // fail fast on the bound check, not attempt a 2^60-slot read loop
        // (or any allocation sized from the header).
        let mut buf = Vec::new();
        buf.extend_from_slice(b"RSCT");
        buf.push(VERSION);
        put_varint(&mut buf, 1u64 << 60);
        match read_trace(&mut buf.as_slice()) {
            Err(TraceIoError::TooLong { count, limit }) => {
                assert_eq!(count, 1 << 60);
                assert_eq!(limit, MAX_TRACE_EVENTS);
            }
            other => panic!("expected TooLong, got {other:?}"),
        }
    }

    #[test]
    fn custom_limit_is_enforced() {
        let events = vec![rec(0, true, 5), rec(1, false, 9), rec(2, true, 14)];
        let mut buf = Vec::new();
        write_trace(&mut buf, events.iter().copied()).unwrap();
        assert!(matches!(
            read_trace_with_limit(&mut buf.as_slice(), 2),
            Err(TraceIoError::TooLong { count: 3, limit: 2 })
        ));
        assert_eq!(
            read_trace_with_limit(&mut buf.as_slice(), 3).unwrap(),
            events
        );
    }

    #[test]
    fn roundtrip_large_values() {
        let events = vec![rec(u32::MAX, true, 1), rec(0, false, u64::MAX / 4)];
        let mut buf = Vec::new();
        write_trace(&mut buf, events.iter().copied()).unwrap();
        assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), events);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(TraceIoError::BadMagic.to_string().contains("magic"));
        assert!(TraceIoError::BadVersion(3).to_string().contains('3'));
        let corrupt = TraceIoError::Corrupt {
            what: "branch id",
            offset: 17,
        };
        assert!(corrupt.to_string().contains("branch id"));
        assert!(corrupt.to_string().contains("17"));
        let mismatch = TraceIoError::ChecksumMismatch {
            computed: 1,
            stored: 2,
            offset: 33,
        };
        assert!(mismatch.to_string().contains("33"));
    }

    /// Encodes `events` in the version-1 layout (no checksum footer).
    fn write_v1(events: &[BranchRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"RSCT");
        buf.push(1);
        put_varint(&mut buf, events.len() as u64);
        let mut last = 0u64;
        for r in events {
            put_varint(&mut buf, u64::from(r.branch.index() as u32));
            let delta = r.instr - last;
            last = r.instr;
            put_varint(&mut buf, (delta << 1) | u64::from(r.taken));
        }
        buf
    }

    #[test]
    fn reads_version_1_streams_without_footer() {
        let events = vec![rec(0, true, 5), rec(3, false, 11), rec(0, true, 12)];
        let buf = write_v1(&events);
        assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), events);
    }

    #[test]
    fn detects_body_bit_flip_via_checksum() {
        // Flip the taken bit of the second event. The varints still
        // decode — only the checksum can tell this stream was altered.
        let events = [rec(0, true, 5), rec(1, true, 9), rec(2, true, 14)];
        let mut buf = Vec::new();
        write_trace(&mut buf, events.iter().copied()).unwrap();
        let footer_at = (buf.len() - 8) as u64;
        let mid = buf.len() - 10;
        buf[mid] ^= 1;
        match read_trace(&mut buf.as_slice()) {
            Err(TraceIoError::ChecksumMismatch {
                computed,
                stored,
                offset,
            }) => {
                assert_ne!(computed, stored);
                assert_eq!(offset, footer_at);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_footer_is_typed_with_offset() {
        let mut buf = Vec::new();
        write_trace(&mut buf, [rec(0, true, 5)]).unwrap();
        let body_end = (buf.len() - 8) as u64;
        buf.truncate(buf.len() - 5);
        match read_trace(&mut buf.as_slice()) {
            Err(TraceIoError::Corrupt { what, offset }) => {
                assert_eq!(what, "checksum footer");
                assert_eq!(offset, body_end);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_reports_byte_offset() {
        let events = [rec(0, true, 5), rec(1, false, 9)];
        let buf = write_v1(&events);
        let cut = buf.len() - 1;
        let mut short = buf;
        short.truncate(cut);
        match read_trace(&mut short.as_slice()) {
            Err(TraceIoError::Corrupt { offset, .. }) => assert_eq!(offset, cut as u64),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
