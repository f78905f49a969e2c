//! The byte codec every binary format in the workspace shares: `RSCT`
//! trace files ([`crate::io`]), the `RSCK` controller checkpoint, and the
//! serve daemon's `RSVT` tenant records and wire frames. They write
//! integers with [`put_varint`], read them through [`read_varint`]
//! (directly, or via the slice [`Reader`]), and checksum with [`fnv1a`].
//!
//! A varint is unsigned LEB128: seven payload bits per byte, low group
//! first, the high bit set on every byte but the last. It is at most 10
//! bytes long, and a 10th byte may only be `0x00` or `0x01` (bit 63). A
//! longer varint, or a 10th byte that sets bits above bit 63, overflows
//! `u64` and is refused rather than wrapped, so every accepted varint
//! names exactly one value. Padded encodings that fit (`0x80 0x00` for
//! zero) still decode; the writer never produces them.

/// FNV-1a 64-bit offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// What every format reports for a varint that overflows `u64`.
pub const OVERFLOW: &str = "varint overflows u64";

/// Folds `bytes` into the running FNV-1a digest `hash` (start from
/// [`FNV_OFFSET`]). Folding two slices in turn equals folding their
/// concatenation, so a digest can be continued.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Appends `v` to `buf` as a varint of 1–10 bytes.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decodes one varint from a byte source, one byte per call of `next`:
/// the one decode rule, shared by the slice [`Reader`] and the streaming
/// trace reader. Errors from `next` pass through; a varint that
/// overflows `u64` fails with `overflow()`.
#[inline]
pub fn read_varint<E>(
    mut next: impl FnMut() -> Result<u8, E>,
    overflow: impl FnOnce() -> E,
) -> Result<u64, E> {
    let (mut value, mut shift) = (0u64, 0);
    loop {
        let byte = next()?;
        if shift == 63 && byte > 1 {
            return Err(overflow());
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Why a [`Reader`] could not decode a value; each format maps it into
/// its own typed error. Each variant holds the byte offset at which the
/// failed value starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside the value.
    Truncated(usize),
    /// The varint overflows `u64`.
    Overflow(usize),
}

/// A bounds-checked cursor over a byte slice: it never reads past the
/// end and never panics.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One raw byte, or [`CodecError::Truncated`] at the end.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// One varint, or the [`CodecError`] that refused it.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let (buf, offset) = (self.buf, self.pos);
        if let Some(&byte @ 0..=0x7f) = buf.get(offset) {
            self.pos += 1;
            return Ok(u64::from(byte));
        }
        let (mut bytes, truncated) = (buf[offset..].iter(), CodecError::Truncated(offset));
        let value = read_varint(
            || bytes.next().copied().ok_or(truncated),
            || CodecError::Overflow(offset),
        )?;
        self.pos = buf.len() - bytes.len();
        Ok(value)
    }

    /// The next `n` raw bytes, or [`CodecError::Truncated`] if fewer
    /// remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Truncated(self.pos));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    /// Everything not yet read (possibly nothing).
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical encodings at the edges of each varint length.
    const CASES: [(u64, &[u8]); 6] = [
        (0, &[0x00]),
        (127, &[0x7f]),
        (128, &[0x80, 0x01]),
        (1 << 32, &[0x80, 0x80, 0x80, 0x80, 0x10]),
        (
            1 << 63,
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
        ),
        (
            u64::MAX,
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
        ),
    ];

    fn decode(bytes: &[u8]) -> Result<u64, CodecError> {
        let mut r = Reader::new(bytes);
        let v = r.varint()?;
        assert_eq!(r.remaining(), 0, "{bytes:02x?} left bytes unread");
        Ok(v)
    }

    #[test]
    fn varints_round_trip_refuse_truncation_and_refuse_overflow() {
        for (value, bytes) in CASES {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            assert_eq!(buf, bytes, "encoding of {value}");
            assert_eq!(decode(bytes), Ok(value), "decoding of {value}");
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode(&bytes[..cut]),
                    Err(CodecError::Truncated(0)),
                    "{value} cut to {cut} bytes"
                );
            }
        }
        let refused = [
            // 11 bytes: ten continuation bytes, then a terminator.
            [[0x80; 10].as_slice(), &[0x00]].concat(),
            // 10 bytes whose last sets bits above bit 63.
            [[0x80; 9].as_slice(), &[0x02]].concat(),
            [[0xff; 9].as_slice(), &[0x7f]].concat(),
            // A 10th byte that continues is refused without an 11th.
            [[0xff; 9].as_slice(), &[0x81]].concat(),
        ];
        for bytes in refused {
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint(), Err(CodecError::Overflow(0)), "{bytes:02x?}");
        }
        // Padded encodings that fit are still values.
        assert_eq!(decode(&[0x80, 0x00]), Ok(0));
        assert_eq!(decode(&[[0x80; 9].as_slice(), &[0x00]].concat()), Ok(0));
    }

    #[test]
    fn reader_errors_name_the_failed_value() {
        let mut r = Reader::new(&[0x05, 0x80, 0x80]);
        assert_eq!(r.take(2), Ok([0x05, 0x80].as_slice()));
        assert_eq!(r.take(2), Err(CodecError::Truncated(2)));
        assert_eq!(r.varint(), Err(CodecError::Truncated(2)));
        let mut r = Reader::new(&[0x01, 0x02]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.rest(), [0x02]);
        assert_eq!(r.u8(), Err(CodecError::Truncated(2)));
    }

    #[test]
    fn fnv1a_matches_the_reference_and_continues() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }
}
