//! Canonical binary encoding for wire messages.
//!
//! The paper's implementation serializes messages with serde/bincode; this
//! crate provides an equivalent hand-rolled binary codec. The encoding is
//! *canonical* — a given value has exactly one encoding — which matters
//! because digests and signatures are computed over encoded bytes.
//!
//! Format summary:
//!
//! - fixed-width integers are little-endian;
//! - lengths and `u64` values in variable positions use LEB128 varints;
//! - `Option<T>` is a `0`/`1` tag byte followed by the value;
//! - sequences are a varint length followed by the elements;
//! - structs/enums are field-by-field (enums: varint discriminant first).
//!
//! # Examples
//!
//! ```
//! use nt_codec::{decode_from_slice, encode_to_vec};
//!
//! let value: (u64, Vec<u8>) = (7, vec![1, 2, 3]);
//! let bytes = encode_to_vec(&value);
//! let back: (u64, Vec<u8>) = decode_from_slice(&bytes).unwrap();
//! assert_eq!(value, back);
//! ```

use std::fmt;

pub mod frame;
mod impls;

pub use frame::{Envelope, EnvelopeRef, MAX_FRAME_LEN, PROTOCOL_VERSION};

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEnd,
    /// A tag or discriminant byte had an invalid value.
    InvalidTag(u64),
    /// A varint was malformed (too long or non-minimal).
    InvalidVarint,
    /// A length prefix exceeded the configured sanity bound.
    LengthOverflow(u64),
    /// Trailing bytes remained after decoding a complete value.
    TrailingBytes(usize),
    /// A UTF-8 string was invalid.
    InvalidUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::InvalidTag(t) => write!(f, "invalid tag value {t}"),
            DecodeError::InvalidVarint => write!(f, "malformed varint"),
            DecodeError::LengthOverflow(n) => write!(f, "length {n} exceeds sanity bound"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on any single length prefix; guards against memory-exhaustion
/// from corrupt input.
pub const MAX_SEQUENCE_LEN: u64 = 64 * 1024 * 1024;

/// Types that can be canonically encoded.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Length in bytes of the canonical encoding.
    ///
    /// The default implementation encodes into a scratch buffer; hot types
    /// should override it.
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// Types that can be decoded from the canonical encoding.
pub trait Decode: Sized {
    /// Reads a value from `reader`.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Types that can be decoded *borrowing* from the input buffer.
///
/// The zero-copy counterpart of [`Decode`]: byte sequences come back as
/// `&'a [u8]` slices into the input instead of freshly allocated vectors.
/// The wire format is identical — a borrowed decode accepts exactly the
/// bytes its owned counterpart accepts — so hot read paths (the runtime's
/// frame drain, batch ingestion) can defer or skip materialization.
pub trait DecodeBorrowed<'a>: Sized {
    /// Reads a value from `reader`, borrowing byte sequences from the
    /// underlying input.
    fn decode_borrowed(reader: &mut Reader<'a>) -> Result<Self, DecodeError>;
}

impl<'a> DecodeBorrowed<'a> for &'a [u8] {
    fn decode_borrowed(reader: &mut Reader<'a>) -> Result<Self, DecodeError> {
        let len = reader.take_len()?;
        reader.take(len)
    }
}

impl<'a, T: DecodeBorrowed<'a>> DecodeBorrowed<'a> for Vec<T> {
    fn decode_borrowed(reader: &mut Reader<'a>) -> Result<Self, DecodeError> {
        let len = reader.take_len()?;
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode_borrowed(reader)?);
        }
        Ok(out)
    }
}

macro_rules! borrow_via_decode {
    ($($t:ty),*) => {$(
        impl<'a> DecodeBorrowed<'a> for $t {
            fn decode_borrowed(reader: &mut Reader<'a>) -> Result<Self, DecodeError> {
                <$t as Decode>::decode(reader)
            }
        }
    )*};
}
borrow_via_decode!(u8, u16, u32, u64, bool);

/// A cursor over input bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn take_byte(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a LEB128 varint.
    pub fn take_varint(&mut self) -> Result<u64, DecodeError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take_byte()?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError::InvalidVarint);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                // Reject non-minimal encodings (a trailing 0x00 continuation).
                if byte == 0 && shift != 0 {
                    return Err(DecodeError::InvalidVarint);
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::InvalidVarint);
            }
        }
    }

    /// Reads a length prefix, enforcing [`MAX_SEQUENCE_LEN`].
    pub fn take_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.take_varint()?;
        if n > MAX_SEQUENCE_LEN {
            return Err(DecodeError::LengthOverflow(n));
        }
        Ok(n as usize)
    }
}

/// Writes `value` as a LEB128 varint into `out` and returns the bytes
/// written: the varint for writers that are not a `Vec` (a hasher).
/// ([`put_varint`] keeps its own push loop: it is the inner loop of batch
/// encoding, where one-byte varints dominate.)
pub fn varint_bytes(mut value: u64, out: &mut [u8; 10]) -> &[u8] {
    let mut len = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        len += 1;
        if value == 0 {
            out[len - 1] = byte;
            return &out[..len];
        }
        out[len - 1] = byte | 0x80;
    }
}

/// Appends a LEB128 varint to `buf`.
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Length in bytes of the varint encoding of `value`.
pub fn varint_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    (64 - value.leading_zeros() as usize).div_ceil(7)
}

/// Encodes a value to a fresh vector.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    buf
}

/// Decodes a value, requiring the input to be fully consumed.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut reader = Reader::new(bytes);
    let value = T::decode(&mut reader)?;
    if reader.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(reader.remaining()));
    }
    Ok(value)
}

/// Decodes a value borrowing from `bytes`, requiring full consumption.
pub fn decode_borrowed_from_slice<'a, T: DecodeBorrowed<'a>>(
    bytes: &'a [u8],
) -> Result<T, DecodeError> {
    let mut reader = Reader::new(bytes);
    let value = T::decode_borrowed(&mut reader)?;
    if reader.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(reader.remaining()));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len for {v}");
            assert_eq!(varint_bytes(v, &mut [0; 10]), &buf[..], "bytes for {v}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.take_varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_rejects_non_minimal() {
        // 0x80 0x00 encodes zero non-minimally.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert_eq!(r.take_varint(), Err(DecodeError::InvalidVarint));
    }

    #[test]
    fn varint_rejects_overflow() {
        let bytes = [0xffu8; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_varint(), Err(DecodeError::InvalidVarint));
    }

    #[test]
    fn take_guards_end() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.take(4).is_err());
        assert_eq!(r.take(3).unwrap(), &[1, 2, 3]);
        assert!(r.take_byte().is_err());
    }

    #[test]
    fn borrowed_bytes_round_trip_without_copying() {
        let value: Vec<u8> = (0u8..200).collect();
        let bytes = encode_to_vec(&value);
        let view: &[u8] = decode_borrowed_from_slice(&bytes).unwrap();
        assert_eq!(view, &value[..]);
        // The view aliases the input buffer — no allocation happened.
        assert_eq!(view.as_ptr(), bytes[bytes.len() - 200..].as_ptr());
        // Nested sequences borrow element-wise.
        let nested: Vec<Vec<u8>> = vec![vec![1, 2], vec![], vec![3]];
        let bytes = encode_to_vec(&nested);
        let views: Vec<&[u8]> = decode_borrowed_from_slice(&bytes).unwrap();
        assert_eq!(views, vec![&[1u8, 2][..], &[][..], &[3][..]]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let bytes = encode_to_vec(&5u32);
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_from_slice::<u32>(&extended),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    #[test]
    fn length_bound_enforced() {
        let mut buf = Vec::new();
        put_varint(&mut buf, MAX_SEQUENCE_LEN + 1);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.take_len(), Err(DecodeError::LengthOverflow(_))));
    }
}
