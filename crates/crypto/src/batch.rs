//! Batch signature verification (the Rorqual observation: Narwhal's
//! critical path is dominated by per-signature ed25519 verification).
//!
//! A certificate carries `2f + 1` signatures over the same vote message;
//! verifying them one at a time costs a full doubling chain each. This
//! module instead checks the single combined equation
//!
//! ```text
//! [Σ zᵢ·sᵢ] B  −  Σ [zᵢ] Rᵢ  −  Σ [zᵢ·kᵢ] Aᵢ  ==  identity
//! ```
//!
//! with independent random-looking coefficients `zᵢ`, as one interleaved
//! multiscalar multiplication ([`Point::multiscalar_mul`]) whose doubling
//! chain is shared by every term; each `−Aᵢ` comes as the window table its
//! [`PreparedKey`] already holds, each `−Rᵢ` gets a table built for the
//! call, and `B`'s is a static ([`NafTable::base`]). If any signature is
//! invalid the combined sum is the identity only with negligible
//! probability (the `zᵢ` are derived Fiat–Shamir style from the whole
//! batch, so an adversary cannot choose signatures against known
//! coefficients); on failure the batch is re-verified one by one to
//! identify the culprit.
//!
//! Coefficients are *deterministic* (hash-derived, no entropy source): the
//! workspace requires byte-identical behaviour across reruns, and the
//! container has no RNG to consume. This keeps the standard batch-soundness
//! argument because the coefficients still depend unpredictably on every
//! byte of the batch being checked.
//!
//! Two entry points, one equation: [`verify_prepared`] takes keys prepared
//! beforehand (a committee's), [`verify_batch`] takes keys as bytes and
//! prepares them for the call. Like the rest of the crate, variable-time.

use crate::ed25519::point::{NafTable, Point};
use crate::ed25519::scalar::Scalar;
use crate::ed25519::split_signature;
use crate::keys::{PreparedKey, PublicKey, Scheme, Signature};
use crate::sha2::Sha512;

/// One signature to check as part of a batch, its key given as bytes.
#[derive(Clone, Copy)]
pub struct BatchItem<'a> {
    /// The claimed signer.
    pub public: PublicKey,
    /// The signed message.
    pub message: &'a [u8],
    /// The signature to verify.
    pub signature: Signature,
}

/// One signature to check as part of a batch, its key prepared beforehand.
#[derive(Clone, Copy)]
pub struct PreparedItem<'a> {
    /// The claimed signer.
    pub key: &'a PreparedKey,
    /// The signed message.
    pub message: &'a [u8],
    /// The signature to verify.
    pub signature: Signature,
}

/// Verifies every item, amortizing the scalar-multiplication cost across
/// the whole batch for Ed25519 keys.
///
/// Returns `Err(i)` with the index of the first invalid item (identified by
/// the one-by-one fallback pass, exactly as sequential verification would
/// report it). The insecure scheme has no algebraic structure to amortize
/// and is checked sequentially.
pub fn verify_prepared(items: &[PreparedItem<'_>]) -> Result<(), usize> {
    if items.len() >= 2 && combined_equation_holds(items) {
        return Ok(());
    }
    // Small batches, the insecure scheme, and combined-equation failures all
    // take the sequential path, which pins down the first offender.
    match items
        .iter()
        .position(|item| !item.key.verify(item.message, &item.signature))
    {
        Some(culprit) => Err(culprit),
        None => Ok(()),
    }
}

/// [`verify_prepared`] for keys given as bytes: prepares each item's key
/// under `scheme` for this one call.
pub fn verify_batch(scheme: Scheme, items: &[BatchItem<'_>]) -> Result<(), usize> {
    let keys: Vec<PreparedKey> = items
        .iter()
        .map(|item| PreparedKey::new(scheme, item.public))
        .collect();
    let prepared: Vec<PreparedItem<'_>> = items
        .iter()
        .zip(&keys)
        .map(|(item, key)| PreparedItem {
            key,
            message: item.message,
            signature: item.signature,
        })
        .collect();
    verify_prepared(&prepared)
}

/// Sequential verification: the exact per-item semantics of
/// [`PublicKey::verify_with`], reporting the first failing index.
pub fn verify_each(scheme: Scheme, items: &[BatchItem<'_>]) -> Result<(), usize> {
    for (i, item) in items.iter().enumerate() {
        if !item
            .public
            .verify_with(scheme, item.message, &item.signature)
        {
            return Err(i);
        }
    }
    Ok(())
}

/// A zero coefficient would drop its term from the combined equation
/// entirely; substitute 1 (probability ~2⁻²⁵², but the guard is free).
fn nonzero(z: Scalar) -> Scalar {
    if z == Scalar::ZERO {
        Scalar::ONE
    } else {
        z
    }
}

/// The combined-equation check. `true` means every signature is valid
/// (up to the negligible coefficient-collision probability); `false` means
/// at least one is bad, some encoding failed to parse, *or* some key is not
/// an Ed25519 key at all.
fn combined_equation_holds(items: &[PreparedItem<'_>]) -> bool {
    // Before any hashing: the insecure scheme ends here.
    let Some(keys) = items
        .iter()
        .map(|item| item.key.ed25519())
        .collect::<Option<Vec<_>>>()
    else {
        return false;
    };
    // Fiat–Shamir transcript over the entire batch: every coefficient
    // depends on every signature, key and message being checked.
    let transcript = {
        let mut h = Sha512::new();
        h.update(b"nt-batch-verify-v1");
        h.update(&(items.len() as u64).to_le_bytes());
        for (item, key) in items.iter().zip(&keys) {
            h.update(&item.signature.0);
            h.update(key.as_bytes());
            h.update(&(item.message.len() as u64).to_le_bytes());
            h.update(item.message);
        }
        h.finalize()
    };

    let mut b_coeff = Scalar::ZERO;
    // Per item: [z](−R), with the table built here, and [z·k](−A).
    let mut r_terms: Vec<([u8; 32], NafTable)> = Vec::with_capacity(items.len());
    let mut a_scalars: Vec<[u8; 32]> = Vec::with_capacity(items.len());
    for (i, (item, key)) in items.iter().zip(&keys).enumerate() {
        let Some((r_bytes, s)) = split_signature(&item.signature.0) else {
            return false;
        };
        let Some(r) = Point::decompress(&r_bytes) else {
            return false;
        };
        let k = key.challenge(&r_bytes, item.message);
        let z = {
            let mut h = Sha512::new();
            h.update(b"nt-batch-coeff");
            h.update(&transcript);
            h.update(&(i as u64).to_le_bytes());
            nonzero(Scalar::from_bytes_wide(&h.finalize()))
        };
        b_coeff = b_coeff.add(z.mul(s));
        r_terms.push((z.to_bytes(), NafTable::new(&r.neg())));
        a_scalars.push(z.mul(k).to_bytes());
    }
    let b_coeff = b_coeff.to_bytes();
    let terms: Vec<(&[u8; 32], &NafTable)> = r_terms
        .iter()
        .map(|(z, table)| (z, table))
        .chain(a_scalars.iter().zip(keys.iter().map(|key| key.minus_a())))
        .chain([(&b_coeff, NafTable::base())])
        .collect();
    Point::multiscalar_mul(&terms).is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn signed_set(scheme: Scheme, n: usize, message: &'static [u8]) -> Vec<BatchItem<'static>> {
        (0..n)
            .map(|i| {
                let kp = KeyPair::for_index(scheme, i);
                BatchItem {
                    public: kp.public(),
                    message,
                    signature: kp.sign(message),
                }
            })
            .collect()
    }

    #[test]
    fn valid_batch_accepts() {
        for n in [0, 1, 2, 3, 7, 14] {
            let items = signed_set(Scheme::Ed25519, n, b"vote message");
            assert_eq!(verify_batch(Scheme::Ed25519, &items), Ok(()), "n={n}");
        }
    }

    #[test]
    fn distinct_messages_accept() {
        let messages: [&'static [u8]; 3] = [b"alpha", b"bravo", b"charlie"];
        let items: Vec<BatchItem<'static>> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let kp = KeyPair::for_index(Scheme::Ed25519, i);
                BatchItem {
                    public: kp.public(),
                    message: m,
                    signature: kp.sign(m),
                }
            })
            .collect();
        assert_eq!(verify_batch(Scheme::Ed25519, &items), Ok(()));
    }

    #[test]
    fn one_bad_signature_identified() {
        for bad in 0..5 {
            let mut items = signed_set(Scheme::Ed25519, 5, b"msg");
            items[bad].signature.0[7] ^= 1;
            assert_eq!(
                verify_batch(Scheme::Ed25519, &items),
                Err(bad),
                "flip at {bad}"
            );
        }
    }

    #[test]
    fn swapped_signatures_rejected() {
        let mut items = signed_set(Scheme::Ed25519, 4, b"msg");
        let tmp = items[0].signature;
        items[0].signature = items[1].signature;
        items[1].signature = tmp;
        assert_eq!(verify_batch(Scheme::Ed25519, &items), Err(0));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut items = signed_set(Scheme::Ed25519, 3, b"msg");
        items[2].message = b"other";
        assert_eq!(verify_batch(Scheme::Ed25519, &items), Err(2));
    }

    #[test]
    fn non_canonical_s_rejected() {
        let mut items = signed_set(Scheme::Ed25519, 3, b"msg");
        // Force s >= l by setting the top bits.
        for b in items[1].signature.0[32..].iter_mut() {
            *b = 0xff;
        }
        assert_eq!(verify_batch(Scheme::Ed25519, &items), Err(1));
    }

    /// The combined equation exactly as the parent commit computed it: keys
    /// decompressed per call, the same transcript and coefficients, every
    /// term a separate bit-at-a-time multiplication.
    fn combined_equation_as_parent(items: &[BatchItem<'_>]) -> bool {
        let transcript = {
            let mut h = Sha512::new();
            h.update(b"nt-batch-verify-v1");
            h.update(&(items.len() as u64).to_le_bytes());
            for item in items {
                h.update(&item.signature.0);
                h.update(&item.public.0);
                h.update(&(item.message.len() as u64).to_le_bytes());
                h.update(item.message);
            }
            h.finalize()
        };
        let mut b_coeff = Scalar::ZERO;
        let mut sum = Point::identity();
        for (i, item) in items.iter().enumerate() {
            let r_bytes: [u8; 32] = item.signature.0[..32].try_into().unwrap();
            let s_bytes: [u8; 32] = item.signature.0[32..].try_into().unwrap();
            let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
                return false;
            };
            let Some(a) = Point::decompress(&item.public.0) else {
                return false;
            };
            let Some(r) = Point::decompress(&r_bytes) else {
                return false;
            };
            let k = {
                let mut h = Sha512::new();
                h.update(&r_bytes);
                h.update(&item.public.0);
                h.update(item.message);
                Scalar::from_bytes_wide(&h.finalize())
            };
            let z = {
                let mut h = Sha512::new();
                h.update(b"nt-batch-coeff");
                h.update(&transcript);
                h.update(&(i as u64).to_le_bytes());
                let z = Scalar::from_bytes_wide(&h.finalize());
                if z == Scalar::ZERO {
                    Scalar::ONE
                } else {
                    z
                }
            };
            b_coeff = b_coeff.add(z.mul(s));
            sum = sum.add(&r.neg().mul(&z.to_bytes()));
            sum = sum.add(&a.neg().mul(&z.mul(k).to_bytes()));
        }
        sum.add(&Point::base().mul(&b_coeff.to_bytes()))
            .is_identity()
    }

    /// `verify_batch` as the parent commit composed it.
    fn verify_batch_as_parent(items: &[BatchItem<'_>]) -> Result<(), usize> {
        if items.len() >= 2 && combined_equation_as_parent(items) {
            return Ok(());
        }
        match items.iter().position(|item| {
            !crate::ed25519::verify_as_parent(&item.public.0, item.message, &item.signature.0)
        }) {
            Some(culprit) => Err(culprit),
            None => Ok(()),
        }
    }

    /// The encodings signature checks must not be fooled or crashed by:
    /// `(what, key, message, signature)`.
    type Edge = (&'static str, PublicKey, Vec<u8>, Signature);

    fn edge_cases() -> Vec<Edge> {
        // y = 1 is the identity; y = p + 1 spells it non-canonically.
        let mut identity = [0u8; 32];
        identity[0] = 1;
        let mut identity_non_canonical = [0xffu8; 32];
        identity_non_canonical[0] = 0xee;
        identity_non_canonical[31] = 0x7f;
        let torsion = crate::ed25519::point::TORSION;
        let not_a_point = (0u8..=255)
            .map(|b| {
                let mut bytes = [0x55u8; 32];
                bytes[0] = b;
                bytes
            })
            .find(|bytes| Point::decompress(bytes).is_none())
            .expect("half of all y have no x");
        let mut five = [0u8; 32];
        five[0] = 5;
        let five_b = Point::mul_base(&five).compress();
        let sig = |r: &[u8; 32], s: &[u8; 32]| {
            let mut bytes = [0u8; 64];
            bytes[..32].copy_from_slice(r);
            bytes[32..].copy_from_slice(s);
            Signature(bytes)
        };
        let honest = KeyPair::for_index(Scheme::Ed25519, 9);
        let honest_sig = honest.sign(b"edge");
        // s + l: the same residue, not canonical.
        let s_plus_l = {
            let mut s = [0u64; 4];
            for (limb, chunk) in s.iter_mut().zip(honest_sig.0[32..].chunks_exact(8)) {
                *limb = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            let mut carry = 0u128;
            let mut out = [0u8; 32];
            for (i, limb) in s.iter().enumerate() {
                let v = *limb as u128 + crate::ed25519::scalar::L[i] as u128 + carry;
                out[i * 8..i * 8 + 8].copy_from_slice(&(v as u64).to_le_bytes());
                carry = v >> 64;
            }
            out
        };
        let mut cases: Vec<Edge> = vec![
            ("honest", honest.public(), b"edge".to_vec(), honest_sig),
            (
                "s + l",
                honest.public(),
                b"edge".to_vec(),
                sig(&honest_sig.0[..32].try_into().unwrap(), &s_plus_l),
            ),
            (
                "identity key, R = [s]B",
                PublicKey(identity),
                b"any message".to_vec(),
                sig(&five_b, &five),
            ),
            (
                "non-canonical identity key, R = [s]B",
                PublicKey(identity_non_canonical),
                b"any message".to_vec(),
                sig(&five_b, &five),
            ),
            (
                "identity key and R, s = 0",
                PublicKey(identity),
                b"any message".to_vec(),
                sig(&identity, &[0u8; 32]),
            ),
            (
                "identity key, non-canonical identity R, s = 0",
                PublicKey(identity),
                b"any message".to_vec(),
                sig(&identity_non_canonical, &[0u8; 32]),
            ),
            (
                "honest key, s = 0",
                honest.public(),
                b"edge".to_vec(),
                sig(&honest_sig.0[..32].try_into().unwrap(), &[0u8; 32]),
            ),
            (
                "key that is no point",
                PublicKey(not_a_point),
                b"edge".to_vec(),
                honest_sig,
            ),
            (
                "R that is no point",
                honest.public(),
                b"edge".to_vec(),
                sig(&not_a_point, &honest_sig.0[32..].try_into().unwrap()),
            ),
        ];
        // Small-order key and R: whether [s]B == R + [k]A holds depends on
        // k mod 8, i.e. on the message. Sixteen messages see both verdicts.
        for m in 0u8..16 {
            cases.push((
                "small-order key, R = [s]B",
                PublicKey(torsion),
                vec![m],
                sig(&five_b, &five),
            ));
            cases.push((
                "small-order key and R, s = 0",
                PublicKey(torsion),
                vec![m],
                sig(&torsion, &[0u8; 32]),
            ));
        }
        cases
    }

    /// Single verification — from bytes and through a prepared key — gives
    /// the parent's verdict on every edge encoding, and the verdicts that
    /// do not hang on a hash are the ones written here.
    #[test]
    fn edge_verdicts_are_the_parents_on_every_single_path() {
        let mut small_order_accepts = 0;
        for (what, public, message, signature) in edge_cases() {
            let parent = crate::ed25519::verify_as_parent(&public.0, &message, &signature.0);
            let from_bytes = public.verify_with(Scheme::Ed25519, &message, &signature);
            let prepared = PreparedKey::new(Scheme::Ed25519, public).verify(&message, &signature);
            assert_eq!(from_bytes, parent, "{what}, from bytes");
            assert_eq!(prepared, parent, "{what}, prepared");
            let pinned = match what {
                "honest" => Some(true),
                "s + l" | "honest key, s = 0" => Some(false),
                "key that is no point" | "R that is no point" => Some(false),
                w if w.starts_with("small-order") => None,
                _ => Some(true), // identity keys accept any message
            };
            match pinned {
                Some(expect) => assert_eq!(parent, expect, "{what}"),
                None => small_order_accepts += usize::from(parent),
            }
        }
        assert!(
            (1..32).contains(&small_order_accepts),
            "small-order cases must show both verdicts, {small_order_accepts}/32 accepted"
        );
    }

    /// Batches — from bytes and prepared — give the parent's verdict and
    /// culprit with an edge encoding planted among honest signatures, and
    /// the combined equation itself agrees term for term with the parent's.
    #[test]
    fn edge_verdicts_are_the_parents_on_every_batched_path() {
        let honest = signed_set(Scheme::Ed25519, 3, b"vote message");
        let edges = edge_cases();
        for (e, (what, public, message, signature)) in edges.iter().enumerate() {
            let edge = BatchItem {
                public: *public,
                message,
                signature: *signature,
            };
            // Alone with one honest item, in the middle of three, and beside
            // the next edge case (two defects at once).
            let (next_what, next_public, next_message, next_signature) =
                &edges[(e + 1) % edges.len()];
            let next = BatchItem {
                public: *next_public,
                message: next_message,
                signature: *next_signature,
            };
            for items in [
                vec![edge, honest[0]],
                vec![honest[0], edge, honest[1], honest[2]],
                vec![honest[0], edge, next],
            ] {
                let keys: Vec<PreparedKey> = items
                    .iter()
                    .map(|item| PreparedKey::new(Scheme::Ed25519, item.public))
                    .collect();
                let prepared: Vec<PreparedItem<'_>> = items
                    .iter()
                    .zip(&keys)
                    .map(|(item, key)| PreparedItem {
                        key,
                        message: item.message,
                        signature: item.signature,
                    })
                    .collect();
                let context = format!("{what} (then {next_what}), {} items", items.len());
                assert_eq!(
                    combined_equation_holds(&prepared),
                    combined_equation_as_parent(&items),
                    "combined equation, {context}"
                );
                let parent = verify_batch_as_parent(&items);
                assert_eq!(verify_batch(Scheme::Ed25519, &items), parent, "{context}");
                assert_eq!(verify_prepared(&prepared), parent, "{context}");
                assert_eq!(verify_each(Scheme::Ed25519, &items), {
                    let first_bad = items.iter().position(|item| {
                        !crate::ed25519::verify_as_parent(
                            &item.public.0,
                            item.message,
                            &item.signature.0,
                        )
                    });
                    first_bad.map_or(Ok(()), Err)
                });
            }
        }
    }

    #[test]
    fn a_zero_coefficient_becomes_one() {
        assert_eq!(nonzero(Scalar::ZERO), Scalar::ONE);
        assert_eq!(nonzero(Scalar::ONE), Scalar::ONE);
        let seven = Scalar([7, 0, 0, 0]);
        assert_eq!(nonzero(seven), seven);
    }

    #[test]
    fn insecure_scheme_sequential() {
        let items = signed_set(Scheme::Insecure, 4, b"payload");
        assert_eq!(verify_batch(Scheme::Insecure, &items), Ok(()));
        let mut bad = items.clone();
        bad[3].signature.0[0] ^= 1;
        assert_eq!(verify_batch(Scheme::Insecure, &bad), Err(3));
    }
}
