//! [`Encode`]/[`Decode`] implementations for primitives and containers.

use crate::{put_bytes, put_varint, varint_len, Decode, DecodeError, Encode, Reader};

impl Encode for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for u8 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        reader.take_byte()
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.take_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::InvalidTag(t as u64)),
        }
    }
}

macro_rules! impl_fixed_int {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
        }
        impl Decode for $ty {
            fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = reader.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("exact size")))
            }
        }
    )*};
}

impl_fixed_int!(u16, u32, i32, i64);

// `u64` uses varints: round numbers, counts and sizes are usually small.
impl Encode for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl Decode for u64 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        reader.take_varint()
    }
}

impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self as u64);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Decode for usize {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(reader.take_varint()? as usize)
    }
}

macro_rules! impl_byte_array {
    ($($n:literal),*) => {$(
        impl Encode for [u8; $n] {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(self);
            }
            fn encoded_len(&self) -> usize {
                $n
            }
        }
        impl Decode for [u8; $n] {
            fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = reader.take($n)?;
                Ok(bytes.try_into().expect("exact size"))
            }
        }
    )*};
}

impl_byte_array!(16, 32, 64);

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.take_byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(reader)?)),
            t => Err(DecodeError::InvalidTag(t as u64)),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = reader.take_len()?;
        // Avoid pre-allocating attacker-controlled lengths beyond remaining
        // input (each element takes at least one byte).
        let mut out = Vec::with_capacity(len.min(reader.remaining()));
        for _ in 0..len {
            out.push(T::decode(reader)?);
        }
        Ok(out)
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Decode for String {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bytes = reader.take_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(reader)?, B::decode(reader)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(reader)?, B::decode(reader)?, C::decode(reader)?))
    }
}

#[cfg(test)]
mod tests {
    use crate::{decode_from_slice, encode_to_vec, put_bytes, Reader};
    use proptest::prelude::*;

    fn roundtrip<T: crate::Encode + crate::Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        assert_eq!(bytes.len(), value.encoded_len());
        let back: T = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(42u8);
        roundtrip(true);
        roundtrip(0xdeadu16);
        roundtrip(0xdead_beefu32);
        roundtrip(-7i32);
        roundtrip(-7i64);
        roundtrip(u64::MAX);
        roundtrip(12345usize);
        roundtrip([9u8; 32]);
        roundtrip(Some(5u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(String::from("hello"));
        roundtrip((1u64, vec![2u8, 3]));
        roundtrip((1u64, String::from("x"), false));
    }

    fn put_bytes_is_the_vec_encoding(bytes: &[u8]) {
        let mut buf = Vec::new();
        put_bytes(&mut buf, bytes);
        assert_eq!(buf, encode_to_vec(&bytes.to_vec()));
        assert_eq!(Reader::new(&buf).take_bytes(), Ok(bytes));
    }

    #[test]
    fn put_bytes_matches_the_vec_encoding_across_varint_widths() {
        // One-, two- and three-byte length prefixes, and a batch-sized one.
        for len in [0, 127, 128, 16_383, 16_384, 500_000] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            put_bytes_is_the_vec_encoding(&bytes);
        }
    }

    #[test]
    fn nested_containers_roundtrip() {
        roundtrip(vec![vec![1u64, 2], vec![], vec![3]]);
        roundtrip(Some(vec![Some(1u64), None]));
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v in any::<u64>()) {
            roundtrip(v);
        }

        #[test]
        fn prop_bytes_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..512)) {
            roundtrip(v);
        }

        #[test]
        fn prop_put_bytes_matches_the_vec_encoding(v in proptest::collection::vec(any::<u8>(), 0..512)) {
            put_bytes_is_the_vec_encoding(&v);
        }

        #[test]
        fn prop_strings_roundtrip(s in ".*") {
            roundtrip(s);
        }

        #[test]
        fn prop_pairs_roundtrip(a in any::<u64>(), b in proptest::collection::vec(any::<u64>(), 0..64)) {
            roundtrip((a, b));
        }

        #[test]
        fn prop_random_input_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding arbitrary bytes must fail gracefully, never panic.
            let _ = decode_from_slice::<Vec<(u64, String)>>(&bytes);
            let _ = decode_from_slice::<(u64, u64, u64)>(&bytes);
            let _ = decode_from_slice::<Option<Vec<u8>>>(&bytes);
        }
    }
}
