//! Equivalence of amortized batch verification against one-by-one checks.
//!
//! `verify_batch` is the certificate-ingress hot path: it folds all
//! signatures of a batch into one combined Ed25519 equation, falling back
//! to the sequential pass only to pin down an offender. The contract is
//! strict equivalence with `verify_each` — the batch path accepts exactly
//! the sets the sequential path accepts, and on rejection reports the same
//! culprit (the first invalid index), so swapping one for the other can
//! never change which certificates a validator admits.

use nt_crypto::{
    verify_batch, verify_each, verify_prepared, BatchItem, Digest, KeyPair, PreparedItem,
    PreparedKey, Scheme, Signature,
};
use proptest::prelude::*;

/// How one item of the batch is corrupted (or not).
#[derive(Clone, Copy, Debug)]
enum Tamper {
    /// A correctly signed item.
    Valid,
    /// Signed over a different message than the one presented.
    WrongMessage,
    /// Signed by a different key than the claimed public key.
    WrongSigner,
}

fn tamper_strategy() -> impl Strategy<Value = Tamper> {
    prop_oneof![
        4 => Just(Tamper::Valid),
        1 => Just(Tamper::WrongMessage),
        1 => Just(Tamper::WrongSigner),
    ]
}

/// Builds the signed (message, signature) pairs; messages are owned here
/// so the borrowed `BatchItem`s can reference them.
fn sign_all(scheme: Scheme, spec: &[(u8, Tamper)]) -> Vec<(KeyPair, Digest, Signature)> {
    spec.iter()
        .enumerate()
        .map(|(i, &(key_idx, tamper))| {
            let kp = KeyPair::for_index(scheme, key_idx as usize);
            let message = Digest::of(&(i as u64).to_le_bytes());
            let signature = match tamper {
                Tamper::Valid => kp.sign_digest(&message),
                Tamper::WrongMessage => kp.sign_digest(&Digest::of(b"something else")),
                Tamper::WrongSigner => {
                    KeyPair::for_index(scheme, key_idx as usize + 64).sign_digest(&message)
                }
            };
            (kp, message, signature)
        })
        .collect()
}

fn items(signed: &[(KeyPair, Digest, Signature)]) -> Vec<BatchItem<'_>> {
    signed
        .iter()
        .map(|(kp, message, signature)| BatchItem {
            public: kp.public(),
            message: message.as_bytes(),
            signature: *signature,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batch path accepts exactly what the sequential path accepts,
    /// and rejects with the same first-offender index — across empty,
    /// singleton (below the combining threshold), and mixed-validity sets,
    /// for both schemes.
    #[test]
    fn batch_equals_single(
        spec in proptest::collection::vec((0u8..10, tamper_strategy()), 0..12),
        ed25519 in any::<bool>(),
    ) {
        let scheme = if ed25519 { Scheme::Ed25519 } else { Scheme::Insecure };
        let signed = sign_all(scheme, &spec);
        let items = items(&signed);
        let single = verify_each(scheme, &items);
        let batch = verify_batch(scheme, &items);
        prop_assert_eq!(batch, single);
        // Cross-check the expected verdict against the tamper plan: the
        // first non-valid item is the culprit, a clean set is accepted.
        let expected = match spec.iter().position(|(_, t)| !matches!(t, Tamper::Valid)) {
            Some(i) => Err(i),
            None => Ok(()),
        };
        prop_assert_eq!(single, expected);
    }

    /// One bad signature hidden in an otherwise valid 2f+1 set — the
    /// certificate-shaped case the combined equation must not paper over:
    /// the batch path identifies exactly the planted culprit.
    #[test]
    fn one_bad_signature_is_pinpointed(
        culprit in 0usize..7,
        kind in prop_oneof![Just(Tamper::WrongMessage), Just(Tamper::WrongSigner)],
    ) {
        let spec: Vec<(u8, Tamper)> = (0..7)
            .map(|i| (i as u8, if i == culprit { kind } else { Tamper::Valid }))
            .collect();
        let signed = sign_all(Scheme::Ed25519, &spec);
        let items = items(&signed);
        prop_assert_eq!(verify_batch(Scheme::Ed25519, &items), Err(culprit));
        prop_assert_eq!(verify_each(Scheme::Ed25519, &items), Err(culprit));
    }

    /// Keys prepared beforehand and keys prepared by the from-bytes adapter
    /// run the same equation: same verdict, same culprit, for batches and
    /// for each item on its own, under both schemes — including when
    /// several items share one prepared key, as a block signature and its
    /// coin share do.
    #[test]
    fn prepared_keys_equal_the_from_bytes_adapter(
        spec in proptest::collection::vec((0u8..4, tamper_strategy()), 0..10),
        ed25519 in any::<bool>(),
    ) {
        let scheme = if ed25519 { Scheme::Ed25519 } else { Scheme::Insecure };
        let signed = sign_all(scheme, &spec);
        let items = items(&signed);
        // One prepared key per identity, shared by every item that names it.
        let keys: Vec<PreparedKey> = (0..4)
            .map(|i| PreparedKey::new(scheme, KeyPair::for_index(scheme, i).public()))
            .collect();
        let prepared: Vec<PreparedItem<'_>> = spec
            .iter()
            .zip(&items)
            .map(|(&(key_idx, _), item)| PreparedItem {
                key: &keys[key_idx as usize],
                message: item.message,
                signature: item.signature,
            })
            .collect();
        prop_assert_eq!(verify_prepared(&prepared), verify_batch(scheme, &items));
        for (p, item) in prepared.iter().zip(&items) {
            prop_assert_eq!(p.key.public(), item.public);
            prop_assert_eq!(
                p.key.verify(p.message, &p.signature),
                item.public.verify_with(scheme, item.message, &item.signature)
            );
        }
    }
}
