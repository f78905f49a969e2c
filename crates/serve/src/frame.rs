//! The serve wire protocol: length-prefixed, checksummed frames.
//!
//! Every frame on a serve connection is
//!
//! ```text
//! body length u32 LE | body | FNV-1a u64 LE over the body
//! body := kind u8 | kind-specific payload
//! ```
//!
//! mirroring the hardened trace format's defenses at the transport
//! layer: the length header is bounds-checked against a hard ceiling
//! *before* any allocation is sized from it, and the checksum footer
//! catches bit flips whose fields still decode. Event payloads are a
//! complete `rsc_trace::io` stream (magic, version, count, checksum),
//! so the event data is covered by *two* independent checksums and the
//! server can hand the payload to the hardened trace reader unchanged.
//! Integers in a body are [`rsc_trace::codec`] varints, and the footer
//! is the codec's FNV-1a.
//!
//! Decoding never panics: every malformed input, a varint that
//! overflows `u64` included, maps to a typed [`FrameError`]. A
//! connection closed cleanly *between* frames is
//! [`FrameError::Eof`], distinct from a mid-frame truncation
//! ([`FrameError::Truncated`]) — the server treats the first as a
//! normal goodbye and the second as a torn frame worth counting.

use rsc_trace::codec::{self, fnv1a, put_varint, CodecError, FNV_OFFSET};
use std::io::{self, Read, Write};

/// Hard ceiling on the body length [`read_frame`] accepts (16 MiB).
/// Roughly 4M events at the trace encoding's worst case — far above any
/// sane chunk, far below an allocation bomb.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Smallest valid body: one kind byte.
const MIN_FRAME_LEN: u32 = 1;

/// Why a tenant's events were refused. Carried inside [`Frame::Reject`]
/// so clients always learn *which* defense fired.
///
/// Marked `#[non_exhaustive]`: every new server-side defense mints a
/// new code, and clients must treat unknown codes as a generic refusal
/// rather than failing to compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectCode {
    /// The tenant's lifetime event quota would be exceeded.
    QuotaEvents,
    /// The tenant's lifetime byte quota would be exceeded.
    QuotaBytes,
    /// The server is draining and no longer accepts events.
    Draining,
    /// The event payload failed the hardened trace decoder.
    BadPayload,
    /// The tenant's ingest queue stayed full past the backpressure
    /// deadline.
    Overloaded,
    /// The tenant's state could not be restored from its checkpoint.
    TenantUnavailable,
}

impl RejectCode {
    /// All codes, for metrics enumeration.
    pub const ALL: [RejectCode; 6] = [
        RejectCode::QuotaEvents,
        RejectCode::QuotaBytes,
        RejectCode::Draining,
        RejectCode::BadPayload,
        RejectCode::Overloaded,
        RejectCode::TenantUnavailable,
    ];

    /// Stable wire tag.
    fn tag(self) -> u8 {
        match self {
            RejectCode::QuotaEvents => 0,
            RejectCode::QuotaBytes => 1,
            RejectCode::Draining => 2,
            RejectCode::BadPayload => 3,
            RejectCode::Overloaded => 4,
            RejectCode::TenantUnavailable => 5,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        RejectCode::ALL.into_iter().find(|c| c.tag() == tag)
    }

    /// Stable label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            RejectCode::QuotaEvents => "quota_events",
            RejectCode::QuotaBytes => "quota_bytes",
            RejectCode::Draining => "draining",
            RejectCode::BadPayload => "bad_payload",
            RejectCode::Overloaded => "overloaded",
            RejectCode::TenantUnavailable => "tenant_unavailable",
        }
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One protocol message. Client→server kinds come first, server→client
/// kinds second; the server answers every request frame with exactly one
/// response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A batch of branch events for one tenant. `payload` is a complete
    /// `rsc_trace::io` stream (the server decodes it with
    /// [`rsc_trace::io::read_trace_with_limit`]).
    Events {
        /// Tenant the events belong to.
        tenant: u64,
        /// Serialized trace stream.
        payload: Vec<u8>,
    },
    /// Request the Prometheus exposition. `tenants_only` restricts the
    /// text to per-tenant families, which are a pure function of the
    /// ingested streams (server-process counters are not).
    MetricsRequest {
        /// Omit server-process families from the exposition.
        tenants_only: bool,
    },
    /// Administrative drain request: equivalent to SIGTERM.
    Drain,
    /// Liveness probe.
    Ping,

    /// Events accepted and applied.
    Ack {
        /// Echoed tenant id.
        tenant: u64,
        /// Events accepted from this frame.
        accepted: u64,
        /// Tenant's lifetime accepted-event total, after this frame.
        tenant_events: u64,
    },
    /// Events refused; nothing was applied.
    Reject {
        /// Echoed tenant id.
        tenant: u64,
        /// Which defense fired.
        code: RejectCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The Prometheus text exposition.
    MetricsText {
        /// Rendered exposition.
        text: String,
    },
    /// Drain acknowledged / liveness answer.
    Pong,
    /// The request frame could not be served (decode failure, internal
    /// error). The connection stays usable.
    ServerError {
        /// What went wrong.
        detail: String,
    },
}

/// Why a frame failed to decode.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// Underlying I/O failure (including timeouts surfaced by the
    /// transport).
    Io(io::Error),
    /// The length header exceeds [`MAX_FRAME_LEN`] (or is below the
    /// 1-byte minimum); rejected before any allocation is sized from it.
    BadLength {
        /// Length claimed by the header.
        len: u32,
        /// The enforced ceiling.
        limit: u32,
    },
    /// The stream ended (or timed out) mid-frame: a torn frame.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// The body checksum does not match the footer.
    ChecksumMismatch {
        /// Checksum recomputed over the received body.
        computed: u64,
        /// Checksum stored in the footer.
        stored: u64,
    },
    /// Unknown frame kind byte.
    BadKind(u8),
    /// A field inside the body is malformed.
    Corrupt {
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => f.write_str("connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadLength { len, limit } => {
                write!(f, "frame length {len} outside 1..={limit}")
            }
            FrameError::Truncated { what } => write!(f, "torn frame while reading {what}"),
            FrameError::ChecksumMismatch { computed, stored } => write!(
                f,
                "frame checksum mismatch: computed {computed:#018x}, stored {stored:#018x}"
            ),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Corrupt { what } => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Maps a codec error met while decoding the body field `what`.
fn field(what: &'static str) -> impl Fn(CodecError) -> FrameError {
    move |e| match e {
        CodecError::Truncated(_) => FrameError::Truncated { what },
        CodecError::Overflow(_) => FrameError::Corrupt {
            what: codec::OVERFLOW,
        },
    }
}

/// The rest of the body as text.
fn rest_utf8(b: &mut codec::Reader<'_>, what: &'static str) -> Result<String, FrameError> {
    String::from_utf8(b.rest().to_vec()).map_err(|_| FrameError::Corrupt { what })
}

impl Frame {
    /// Serializes the frame: length prefix, body, checksum footer.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(16);
        match self {
            Frame::Events { tenant, payload } => {
                body.push(0x01);
                put_varint(&mut body, *tenant);
                body.extend_from_slice(payload);
            }
            Frame::MetricsRequest { tenants_only } => {
                body.push(0x02);
                body.push(u8::from(*tenants_only));
            }
            Frame::Drain => body.push(0x03),
            Frame::Ping => body.push(0x04),
            Frame::Ack {
                tenant,
                accepted,
                tenant_events,
            } => {
                body.push(0x81);
                put_varint(&mut body, *tenant);
                put_varint(&mut body, *accepted);
                put_varint(&mut body, *tenant_events);
            }
            Frame::Reject {
                tenant,
                code,
                detail,
            } => {
                body.push(0x82);
                put_varint(&mut body, *tenant);
                body.push(code.tag());
                body.extend_from_slice(detail.as_bytes());
            }
            Frame::MetricsText { text } => {
                body.push(0x83);
                body.extend_from_slice(text.as_bytes());
            }
            Frame::Pong => body.push(0x84),
            Frame::ServerError { detail } => {
                body.push(0x85);
                body.extend_from_slice(detail.as_bytes());
            }
        }
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        let checksum = fnv1a(FNV_OFFSET, &body);
        out.extend_from_slice(&body);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a frame from its body bytes (between the length prefix
    /// and the footer).
    ///
    /// # Errors
    ///
    /// Returns a typed [`FrameError`] for every malformed input; never
    /// panics.
    pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let mut b = codec::Reader::new(body);
        let kind = b.u8().map_err(field("frame kind"))?;
        let frame = match kind {
            0x01 => Frame::Events {
                tenant: b.varint().map_err(field("tenant id"))?,
                payload: b.rest().to_vec(),
            },
            0x02 => {
                let flag = b.u8().map_err(field("metrics scope"))?;
                if flag > 1 {
                    return Err(FrameError::Corrupt {
                        what: "metrics scope flag",
                    });
                }
                Frame::MetricsRequest {
                    tenants_only: flag == 1,
                }
            }
            0x03 => Frame::Drain,
            0x04 => Frame::Ping,
            0x81 => Frame::Ack {
                tenant: b.varint().map_err(field("ack tenant"))?,
                accepted: b.varint().map_err(field("ack accepted"))?,
                tenant_events: b.varint().map_err(field("ack total"))?,
            },
            0x82 => {
                let tenant = b.varint().map_err(field("reject tenant"))?;
                let tag = b.u8().map_err(field("reject code"))?;
                let code = RejectCode::from_tag(tag).ok_or(FrameError::Corrupt {
                    what: "unknown reject code",
                })?;
                Frame::Reject {
                    tenant,
                    code,
                    detail: rest_utf8(&mut b, "reject detail not utf-8")?,
                }
            }
            0x83 => Frame::MetricsText {
                text: rest_utf8(&mut b, "metrics text not utf-8")?,
            },
            0x84 => Frame::Pong,
            0x85 => Frame::ServerError {
                detail: rest_utf8(&mut b, "error detail not utf-8")?,
            },
            other => return Err(FrameError::BadKind(other)),
        };
        if b.remaining() != 0 {
            return Err(FrameError::Corrupt {
                what: "trailing bytes in frame body",
            });
        }
        Ok(frame)
    }
}

/// Writes one frame to `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Reads exactly `buf.len()` bytes, mapping a clean EOF on the *first*
/// byte to `on_empty` and any later short read to a torn-frame error.
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
    mut on_empty: Option<FrameError>,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(match on_empty.take() {
                    Some(e) if filled == 0 => e,
                    _ => FrameError::Truncated { what },
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame, enforcing `max_len` on the length header before any
/// allocation is sized from it.
///
/// # Errors
///
/// [`FrameError::Eof`] when the peer closed cleanly between frames; a
/// typed error for every torn, oversized, corrupted, or unknown frame.
pub fn read_frame_with_limit<R: Read>(r: &mut R, max_len: u32) -> Result<Frame, FrameError> {
    let mut len_bytes = [0u8; 4];
    read_exact_or(r, &mut len_bytes, "frame length", Some(FrameError::Eof))?;
    let len = u32::from_le_bytes(len_bytes);
    if !(MIN_FRAME_LEN..=max_len).contains(&len) {
        return Err(FrameError::BadLength {
            len,
            limit: max_len,
        });
    }
    let mut body = vec![0u8; len as usize];
    read_exact_or(r, &mut body, "frame body", None)?;
    let mut footer = [0u8; 8];
    read_exact_or(r, &mut footer, "frame checksum", None)?;
    let stored = u64::from_le_bytes(footer);
    let computed = fnv1a(FNV_OFFSET, &body);
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { computed, stored });
    }
    Frame::decode_body(&body)
}

/// [`read_frame_with_limit`] at the default [`MAX_FRAME_LEN`].
///
/// # Errors
///
/// See [`read_frame_with_limit`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    read_frame_with_limit(r, MAX_FRAME_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        let back = read_frame(&mut bytes.as_slice()).expect("frame roundtrips");
        assert_eq!(back, frame);
    }

    #[test]
    fn every_kind_roundtrips() {
        roundtrip(Frame::Events {
            tenant: 0,
            payload: vec![],
        });
        roundtrip(Frame::Events {
            tenant: u64::MAX,
            payload: b"RSCT...".to_vec(),
        });
        roundtrip(Frame::MetricsRequest { tenants_only: true });
        roundtrip(Frame::MetricsRequest {
            tenants_only: false,
        });
        roundtrip(Frame::Drain);
        roundtrip(Frame::Ping);
        roundtrip(Frame::Ack {
            tenant: 3,
            accepted: 1000,
            tenant_events: 123_456,
        });
        for code in RejectCode::ALL {
            roundtrip(Frame::Reject {
                tenant: 9,
                code,
                detail: format!("because {code}"),
            });
        }
        roundtrip(Frame::MetricsText {
            text: "# HELP x\n".into(),
        });
        roundtrip(Frame::Pong);
        roundtrip(Frame::ServerError {
            detail: "broken".into(),
        });
    }

    #[test]
    fn clean_eof_is_distinct_from_torn_frame() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut &*empty), Err(FrameError::Eof)));
        let bytes = Frame::Ping.encode();
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn oversized_length_header_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        match read_frame(&mut bytes.as_slice()) {
            Err(FrameError::BadLength { len, limit }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(limit, MAX_FRAME_LEN);
            }
            other => panic!("expected BadLength, got {other:?}"),
        }
        // Zero-length bodies are equally invalid.
        let zero = 0u32.to_le_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut zero.as_slice()),
            Err(FrameError::BadLength { len: 0, .. })
        ));
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let frame = Frame::Ack {
            tenant: 5,
            accepted: 77,
            tenant_events: 1234,
        };
        let clean = frame.encode();
        for i in 4..clean.len() - 8 {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x40;
            let err = read_frame(&mut bytes.as_slice()).unwrap_err();
            assert!(
                matches!(err, FrameError::ChecksumMismatch { .. }),
                "flip at {i} gave {err}"
            );
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_typed() {
        assert!(matches!(
            Frame::decode_body(&[0x7f]),
            Err(FrameError::BadKind(0x7f))
        ));
        assert!(matches!(
            Frame::decode_body(&[0x04, 0x00]),
            Err(FrameError::Corrupt { .. })
        ));
        assert!(matches!(
            Frame::decode_body(&[0x02, 0x05]),
            Err(FrameError::Corrupt { .. })
        ));
        assert!(matches!(
            Frame::decode_body(&[0x82, 0x01, 0xff]),
            Err(FrameError::Corrupt { .. })
        ));
        // A tenant varint that overflows u64 is refused, not read as
        // u64::MAX (whose canonical encoding is ff x9 01).
        let overflow = [&[0x01][..], &[0xff; 9], &[0x7f]].concat();
        assert!(matches!(
            Frame::decode_body(&overflow),
            Err(FrameError::Corrupt {
                what: codec::OVERFLOW
            })
        ));
    }
}
