//! Ed25519 signatures per RFC 8032.
//!
//! The paper's implementation signs every mempool block, vote and certificate
//! with ed25519-dalek; this module is a from-scratch replacement validated
//! against the RFC 8032 test vectors (see `tests/`).
//!
//! Signing and key derivation multiply the base point through its
//! fixed-base table ([`Point::mul_base`]); verification checks
//! `[s]B − [k]A == R` as one two-term multiscalar multiplication over the
//! base point's window table and the key's own, which a [`VerifyingKey`]
//! builds once. None of it is constant-time (see [`field`] and [`point`]).

pub mod field;
pub mod point;
pub mod scalar;

use crate::sha2::Sha512;
use point::{NafTable, Point};
use scalar::Scalar;

/// An expanded Ed25519 secret key: the clamped scalar and the hash prefix.
#[derive(Clone)]
pub struct ExpandedSecret {
    /// The clamped signing scalar `a`.
    pub a: Scalar,
    /// The 32-byte prefix used to derive deterministic nonces.
    pub prefix: [u8; 32],
    /// The compressed public key `A = a * B`.
    pub public: [u8; 32],
}

/// Derives the expanded secret and public key from a 32-byte seed.
pub fn expand_seed(seed: &[u8; 32]) -> ExpandedSecret {
    let h = {
        let mut hasher = Sha512::new();
        hasher.update(seed);
        hasher.finalize()
    };
    let mut a_bytes = [0u8; 32];
    a_bytes.copy_from_slice(&h[..32]);
    clamp(&mut a_bytes);
    let a = Scalar::from_bytes(&a_bytes);
    let mut prefix = [0u8; 32];
    prefix.copy_from_slice(&h[32..]);
    let public = Point::mul_base(&a_bytes).compress();
    ExpandedSecret { a, prefix, public }
}

/// Clamps a scalar per RFC 8032 §5.1.5.
fn clamp(bytes: &mut [u8; 32]) {
    bytes[0] &= 0xf8;
    bytes[31] &= 0x7f;
    bytes[31] |= 0x40;
}

/// Signs `message` with the expanded secret, returning the 64-byte signature.
pub fn sign(secret: &ExpandedSecret, message: &[u8]) -> [u8; 64] {
    // r = H(prefix || M) mod l.
    let r = {
        let mut h = Sha512::new();
        h.update(&secret.prefix);
        h.update(message);
        Scalar::from_bytes_wide(&h.finalize())
    };
    let r_point = Point::mul_base(&r.to_bytes()).compress();
    // k = H(R || A || M) mod l.
    let k = {
        let mut h = Sha512::new();
        h.update(&r_point);
        h.update(&secret.public);
        h.update(message);
        Scalar::from_bytes_wide(&h.finalize())
    };
    // s = r + k * a mod l.
    let s = k.mul_add(secret.a, r);
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(&r_point);
    sig[32..].copy_from_slice(&s.to_bytes());
    sig
}

/// A public key decompressed once: its bytes, and the window table of
/// `−A` every verification under it multiplies through.
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    bytes: [u8; 32],
    minus_a: NafTable,
}

/// The two halves of a signature, `R` still compressed and `s` checked
/// canonical (`s < l`, RFC 8032's malleability rule).
pub(crate) fn split_signature(signature: &[u8; 64]) -> Option<([u8; 32], Scalar)> {
    let (r_bytes, s_bytes) = signature.split_at(32);
    let s = Scalar::from_canonical_bytes(s_bytes.try_into().expect("32 bytes"))?;
    Some((r_bytes.try_into().expect("32 bytes"), s))
}

impl VerifyingKey {
    /// Decompresses `public`; `None` if it does not encode a curve point.
    pub fn from_bytes(public: &[u8; 32]) -> Option<VerifyingKey> {
        let a = Point::decompress(public)?;
        Some(VerifyingKey {
            bytes: *public,
            minus_a: NafTable::new(&a.neg()),
        })
    }

    /// The compressed key.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// The window table of `−A`.
    pub(crate) fn minus_a(&self) -> &NafTable {
        &self.minus_a
    }

    /// The per-signature challenge `k = H(R ‖ A ‖ M) mod l` of RFC 8032.
    pub(crate) fn challenge(&self, r_bytes: &[u8; 32], message: &[u8]) -> Scalar {
        let mut h = Sha512::new();
        h.update(r_bytes);
        h.update(&self.bytes);
        h.update(message);
        Scalar::from_bytes_wide(&h.finalize())
    }

    /// Verifies an Ed25519 signature. Returns `true` iff valid.
    pub fn verify(&self, message: &[u8], signature: &[u8; 64]) -> bool {
        let Some((r_bytes, s)) = split_signature(signature) else {
            return false;
        };
        let Some(r) = Point::decompress(&r_bytes) else {
            return false;
        };
        let k = self.challenge(&r_bytes, message);
        // Check [s]B − [k]A == R.
        Point::multiscalar_mul(&[
            (&s.to_bytes(), NafTable::base()),
            (&k.to_bytes(), &self.minus_a),
        ])
        .eq_point(&r)
    }
}

/// Verifies an Ed25519 signature under a key given as bytes: prepares the
/// key, then [`VerifyingKey::verify`]. Returns `true` iff valid.
pub fn verify(public: &[u8; 32], message: &[u8], signature: &[u8; 64]) -> bool {
    VerifyingKey::from_bytes(public).is_some_and(|key| key.verify(message, signature))
}

/// Single verification exactly as the parent commit computed it —
/// `[s]B == R + [k]A`, every key decompressed on the spot, both products by
/// bit-at-a-time double-and-add that doubles by addition. The oracle the
/// table-driven paths are held to, verdict for verdict.
#[cfg(test)]
pub(crate) fn verify_as_parent(public: &[u8; 32], message: &[u8], signature: &[u8; 64]) -> bool {
    let r_bytes: [u8; 32] = signature[..32].try_into().expect("32 bytes");
    let s_bytes: [u8; 32] = signature[32..].try_into().expect("32 bytes");
    let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
        return false;
    };
    let (Some(a), Some(r)) = (Point::decompress(public), Point::decompress(&r_bytes)) else {
        return false;
    };
    let k = {
        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(public);
        h.update(message);
        Scalar::from_bytes_wide(&h.finalize())
    };
    let lhs = Point::base().mul(&s.to_bytes());
    let rhs = r.add(&a.mul(&k.to_bytes()));
    lhs.eq_point(&rhs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
            .collect()
    }

    fn vector(seed_hex: &str, pk_hex: &str, msg_hex: &str, sig_hex: &str) {
        let seed: [u8; 32] = from_hex(seed_hex).try_into().expect("32 bytes");
        let pk: [u8; 32] = from_hex(pk_hex).try_into().expect("32 bytes");
        let msg = from_hex(msg_hex);
        let sig: [u8; 64] = from_hex(sig_hex).try_into().expect("64 bytes");

        let secret = expand_seed(&seed);
        assert_eq!(secret.public, pk, "public key derivation");
        assert_eq!(sign(&secret, &msg), sig, "signature");
        assert!(verify(&pk, &msg, &sig), "verification");
    }

    /// RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test1() {
        vector(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        );
    }

    /// RFC 8032 §7.1 TEST 2 (one byte).
    #[test]
    fn rfc8032_test2() {
        vector(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        );
    }

    /// RFC 8032 §7.1 TEST 3 (two bytes).
    #[test]
    fn rfc8032_test3() {
        vector(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        );
    }

    #[test]
    fn tampered_message_fails() {
        let seed = [7u8; 32];
        let secret = expand_seed(&seed);
        let sig = sign(&secret, b"hello");
        assert!(verify(&secret.public, b"hello", &sig));
        assert!(!verify(&secret.public, b"hellp", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let seed = [9u8; 32];
        let secret = expand_seed(&seed);
        let mut sig = sign(&secret, b"msg");
        sig[3] ^= 1;
        assert!(!verify(&secret.public, b"msg", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let s1 = expand_seed(&[1u8; 32]);
        let s2 = expand_seed(&[2u8; 32]);
        let sig = sign(&s1, b"msg");
        assert!(!verify(&s2.public, b"msg", &sig));
    }
}
