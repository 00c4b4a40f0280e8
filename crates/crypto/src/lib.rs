//! From-scratch cryptography for the Narwhal/Tusk reproduction.
//!
//! The paper's implementation uses `ed25519-dalek` for signatures and SHA-2
//! style digests throughout (block digests, batch digests, certificates).
//! This crate implements the same primitives from first principles:
//!
//! - [`sha2`]: SHA-256 and SHA-512 (FIPS 180-4), validated against the
//!   standard test vectors.
//! - [`ed25519`]: Ed25519 signatures per RFC 8032 over a from-scratch
//!   Curve25519 field/scalar/point implementation (a fixed-base table for
//!   signing, signed-window tables for verification), validated against
//!   the RFC 8032 test vectors and against the bit-at-a-time arithmetic it
//!   replaced, which the tests keep as their oracle.
//! - [`keys`]: key pairs and a pluggable signature scheme. The simulator can
//!   swap the real scheme for a fast hash-based one (`Scheme::Insecure`)
//!   while accounting for the real scheme's CPU cost, which is how the
//!   discrete-event benchmarks reach paper-scale throughput. A
//!   [`PreparedKey`] is a public key with the per-key work of verification
//!   (decompression, window table) done once.
//! - [`batch`]: amortized ed25519 verification — a certificate's `2f + 1`
//!   signature set is checked as one multiscalar equation whose doubling
//!   chain is shared across every term, with a sequential fallback that
//!   identifies the offending signer; over prepared keys
//!   ([`verify_prepared`]) or keys as bytes ([`verify_batch`]).
//! - [`coin`]: the threshold random coin Tusk uses to elect wave leaders
//!   (§5 of the paper). See `DESIGN.md` for the substitution of the paper's
//!   BLS threshold signature by a hash-based share scheme.

pub mod batch;
pub mod codec_impls;
pub mod coin;
pub mod digest;
pub mod ed25519;
pub mod keys;
pub mod sha2;

pub use batch::{verify_batch, verify_each, verify_prepared, BatchItem, PreparedItem};
pub use coin::{combine_shares, CoinShare};
pub use digest::{Digest, Hashable, DIGEST_LEN};
pub use keys::{KeyPair, PreparedKey, PublicKey, Scheme, SecretKey, Signature};
pub use sha2::{sha256, sha512, Sha256, Sha512};
