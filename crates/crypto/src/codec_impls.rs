//! Canonical [`Encode`]/[`Decode`] implementations for crypto types.
//!
//! These live here (rather than in `nt-types`) because Rust's orphan rules
//! require the impl to be in the crate of either the trait or the type.

use crate::coin::CoinShare;
use crate::digest::Digest;
use crate::keys::{PublicKey, Signature};
use nt_codec::{Decode, DecodeError, Encode, Reader};

impl Encode for Digest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for Digest {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Digest(<[u8; 32]>::decode(reader)?))
    }
}

impl Encode for PublicKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for PublicKey {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PublicKey(<[u8; 32]>::decode(reader)?))
    }
}

impl Encode for Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        64
    }
}

impl Decode for Signature {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Signature(<[u8; 64]>::decode(reader)?))
    }
}

impl Encode for CoinShare {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.author.encode(buf);
        self.wave.encode(buf);
        self.signature.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.author.encoded_len() + self.wave.encoded_len() + self.signature.encoded_len()
    }
}

impl Decode for CoinShare {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CoinShare {
            author: PublicKey::decode(reader)?,
            wave: u64::decode(reader)?,
            signature: Signature::decode(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyPair, Scheme};
    use nt_codec::{decode_from_slice, encode_to_vec};

    #[test]
    fn digest_roundtrip() {
        let d = Digest::of(b"abc");
        let back: Digest = decode_from_slice(&encode_to_vec(&d)).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn coin_share_roundtrip() {
        let kp = KeyPair::for_index(Scheme::Insecure, 0);
        let share = CoinShare::new(&kp, 5);
        let bytes = encode_to_vec(&share);
        assert_eq!(bytes.len(), share.encoded_len());
        let back: CoinShare = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, share);
    }
}
