//! Key pairs and the pluggable signature scheme.
//!
//! The protocol code signs blocks, votes and certificates through
//! [`KeyPair::sign`] and verifies through [`PublicKey::verify_with`]. Two
//! schemes are provided:
//!
//! - [`Scheme::Ed25519`]: real RFC 8032 signatures, used by the examples,
//!   tests and the socket runtime.
//! - [`Scheme::Insecure`]: a keyed-hash stand-in whose cost is negligible,
//!   used by the discrete-event simulator, which *separately accounts* the
//!   CPU time of the real scheme in its cost model. This is how the
//!   simulation reaches the paper's 100k+ signatures/sec scales while keeping
//!   byte-exact protocol behaviour.

use crate::digest::Digest;
use crate::ed25519::{self, ExpandedSecret, VerifyingKey};
use crate::sha2::Sha256;
use std::fmt;

/// Which signature scheme a committee runs with.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scheme {
    /// RFC 8032 Ed25519.
    #[default]
    Ed25519,
    /// Keyed hash; NOT unforgeable. For simulation only.
    Insecure,
}

/// A 32-byte public key (Ed25519 point encoding, or hash commitment for the
/// insecure scheme).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PublicKey(pub [u8; 32]);

/// A 32-byte secret seed.
#[derive(Clone, Copy)]
pub struct SecretKey(pub [u8; 32]);

/// A 64-byte signature.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

impl Default for Signature {
    fn default() -> Self {
        Signature([0u8; 64])
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A signing key pair bound to a [`Scheme`].
#[derive(Clone)]
pub struct KeyPair {
    scheme: Scheme,
    secret: SecretKey,
    /// Present only for the Ed25519 scheme.
    expanded: Option<Box<ExpandedSecret>>,
    public: PublicKey,
}

impl KeyPair {
    /// Derives a key pair deterministically from a 32-byte seed.
    pub fn from_seed(scheme: Scheme, seed: [u8; 32]) -> Self {
        match scheme {
            Scheme::Ed25519 => {
                let expanded = ed25519::expand_seed(&seed);
                let public = PublicKey(expanded.public);
                KeyPair {
                    scheme,
                    secret: SecretKey(seed),
                    expanded: Some(Box::new(expanded)),
                    public,
                }
            }
            Scheme::Insecure => {
                // Public key is a hash commitment to the seed so that distinct
                // seeds yield distinct identities.
                let mut h = Sha256::new();
                h.update(b"nt-insecure-pk");
                h.update(&seed);
                KeyPair {
                    scheme,
                    secret: SecretKey(seed),
                    expanded: None,
                    public: PublicKey(h.finalize()),
                }
            }
        }
    }

    /// The seed of the i-th key pair of a test committee: what a key file
    /// for [`KeyPair::for_index`]'s identity holds.
    pub fn index_seed(index: usize) -> [u8; 32] {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&(index as u64).to_le_bytes());
        seed[8] = 0xc0;
        seed
    }

    /// Derives the i-th key pair of a test committee.
    pub fn for_index(scheme: Scheme, index: usize) -> Self {
        Self::from_seed(scheme, Self::index_seed(index))
    }

    /// The public key.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// The scheme this key pair signs with.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Signs an arbitrary message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        match self.scheme {
            Scheme::Ed25519 => {
                let expanded = self.expanded.as_ref().expect("ed25519 keys are expanded");
                Signature(ed25519::sign(expanded, message))
            }
            Scheme::Insecure => Signature(insecure_sign(&self.public, &self.secret, message)),
        }
    }

    /// Signs a digest (the common case in the protocol).
    pub fn sign_digest(&self, digest: &Digest) -> Signature {
        self.sign(digest.as_bytes())
    }
}

impl PublicKey {
    /// Verifies `signature` over `message` under `scheme`: prepares the key
    /// for this one call, then [`PreparedKey::verify`].
    pub fn verify_with(&self, scheme: Scheme, message: &[u8], signature: &Signature) -> bool {
        PreparedKey::new(scheme, *self).verify(message, signature)
    }

    /// Verifies a signature over a digest.
    pub fn verify_digest(&self, scheme: Scheme, digest: &Digest, signature: &Signature) -> bool {
        self.verify_with(scheme, digest.as_bytes(), signature)
    }
}

/// A public key made ready to verify under one [`Scheme`], so that the work
/// which depends on the key alone is done once: for Ed25519 the point is
/// decompressed and its window table built; the insecure scheme has nothing
/// to prepare. A committee prepares its members' keys at construction.
///
/// Bytes that do not decode to a curve point still prepare: every
/// verification under such a key fails, as it does from the bytes.
#[derive(Clone)]
pub struct PreparedKey {
    public: PublicKey,
    scheme: Scheme,
    /// `Some` iff the scheme is Ed25519 and the bytes decode.
    ed25519: Option<VerifyingKey>,
}

impl PreparedKey {
    /// Prepares `public` for verification under `scheme`.
    pub fn new(scheme: Scheme, public: PublicKey) -> Self {
        let ed25519 = match scheme {
            Scheme::Ed25519 => VerifyingKey::from_bytes(&public.0),
            Scheme::Insecure => None,
        };
        PreparedKey {
            public,
            scheme,
            ed25519,
        }
    }

    /// The key as bytes.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// The decompressed key, if the scheme is Ed25519 and the bytes decode.
    pub(crate) fn ed25519(&self) -> Option<&VerifyingKey> {
        self.ed25519.as_ref()
    }

    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        match self.scheme {
            Scheme::Ed25519 => self
                .ed25519
                .as_ref()
                .is_some_and(|key| key.verify(message, &signature.0)),
            Scheme::Insecure => {
                // Recompute the keyed hash. Anyone can forge this: the
                // "secret" is derived from the public key. Simulation only.
                let expect = insecure_sign_pk(&self.public, message);
                expect == signature.0
            }
        }
    }

    /// Verifies a signature over a digest.
    pub fn verify_digest(&self, digest: &Digest, signature: &Signature) -> bool {
        self.verify(digest.as_bytes(), signature)
    }
}

impl fmt::Debug for PreparedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.public)
    }
}

fn insecure_sign(public: &PublicKey, _secret: &SecretKey, message: &[u8]) -> [u8; 64] {
    insecure_sign_pk(public, message)
}

fn insecure_sign_pk(public: &PublicKey, message: &[u8]) -> [u8; 64] {
    let mut h1 = Sha256::new();
    h1.update(b"nt-insecure-sig-1");
    h1.update(&public.0);
    h1.update(message);
    let mut h2 = Sha256::new();
    h2.update(b"nt-insecure-sig-2");
    h2.update(&public.0);
    h2.update(message);
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(&h1.finalize());
    out[32..].copy_from_slice(&h2.finalize());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ed25519_sign_verify() {
        let kp = KeyPair::for_index(Scheme::Ed25519, 0);
        let sig = kp.sign(b"block digest");
        assert!(kp
            .public()
            .verify_with(Scheme::Ed25519, b"block digest", &sig));
        assert!(!kp.public().verify_with(Scheme::Ed25519, b"other", &sig));
    }

    #[test]
    fn insecure_sign_verify() {
        let kp = KeyPair::for_index(Scheme::Insecure, 3);
        let sig = kp.sign(b"payload");
        assert!(kp.public().verify_with(Scheme::Insecure, b"payload", &sig));
        assert!(!kp.public().verify_with(Scheme::Insecure, b"payloae", &sig));
    }

    #[test]
    fn distinct_indices_distinct_keys() {
        for scheme in [Scheme::Ed25519, Scheme::Insecure] {
            let a = KeyPair::for_index(scheme, 0).public();
            let b = KeyPair::for_index(scheme, 1).public();
            assert_ne!(a, b);
        }
    }

    #[test]
    fn digest_helpers_match_raw() {
        let kp = KeyPair::for_index(Scheme::Insecure, 1);
        let d = Digest::of(b"abc");
        let sig = kp.sign_digest(&d);
        assert!(kp.public().verify_digest(Scheme::Insecure, &d, &sig));
    }
}
