//! Equivalence of the folded header/certificate verification against the
//! sequential checks it replaced.
//!
//! `Header::verify`, `Certificate::verify` and `Certificate::verify_all`
//! fold the block signature, the coin share and the `2f + 1` votes into one
//! `verify_batch` equation. The contract is strict equivalence with the
//! one-signature-at-a-time order kept below as the oracle: the same inputs
//! are accepted, and a rejected one gets the same error, whatever mix of
//! defects it carries, under both schemes.
//!
//! `Certificate::verify_given` / `verify_all_given` skip the block when the
//! caller has already verified it. Their contract is the same equivalence:
//! told the truth, they return what `verify` / `verify_all` return.

use nt_crypto::{CoinShare, Digest, Hashable, KeyPair, Scheme};
use nt_types::certificate::CertificateError;
use nt_types::header::HeaderError;
use nt_types::vote::vote_message;
use nt_types::{Certificate, Committee, Header, ValidatorId, Vote, WorkerId};
use proptest::prelude::*;

/// The pre-fold `Header::verify`: structure, then the block signature,
/// then the coin share, each on its own.
fn unfolded_header(header: &Header, committee: &Committee) -> Result<(), HeaderError> {
    if !committee.contains(header.author) {
        return Err(HeaderError::UnknownAuthor);
    }
    let need = committee.quorum_threshold();
    if header.round > 0 && header.parents.len() < need {
        return Err(HeaderError::InsufficientParents {
            got: header.parents.len(),
            need,
        });
    }
    if header.round == 0 {
        return if *header == Header::genesis(header.author) {
            Ok(())
        } else {
            Err(HeaderError::InvalidGenesis)
        };
    }
    let mut sorted = header.parents.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != header.parents.len() {
        return Err(HeaderError::DuplicateParents);
    }
    let public = committee.public_key(header.author);
    if !public.verify_digest(committee.scheme(), &header.digest(), &header.signature) {
        return Err(HeaderError::InvalidSignature);
    }
    if let Some(share) = &header.coin_share {
        if share.author != public || !share.verify(committee.scheme()) {
            return Err(HeaderError::InvalidCoinShare);
        }
    }
    Ok(())
}

/// The pre-fold `Certificate::verify`: the header as above, the vote set,
/// then the votes in order.
fn unfolded_cert(cert: &Certificate, committee: &Committee) -> Result<(), CertificateError> {
    unfolded_header(&cert.header, committee).map_err(CertificateError::BadHeader)?;
    if cert.round() == 0 {
        return Ok(());
    }
    let mut voters: Vec<ValidatorId> = cert.votes.iter().map(|(id, _)| *id).collect();
    voters.sort_unstable();
    voters.dedup();
    if voters.len() != cert.votes.len() {
        return Err(CertificateError::DuplicateVoters);
    }
    let need = committee.quorum_threshold();
    if cert.votes.len() < need {
        return Err(CertificateError::InsufficientVotes {
            got: cert.votes.len(),
            need,
        });
    }
    if let Some((voter, _)) = cert.votes.iter().find(|(v, _)| !committee.contains(*v)) {
        return Err(CertificateError::UnknownVoter(*voter));
    }
    let message = vote_message(&cert.header_digest(), cert.round(), cert.origin());
    for (voter, signature) in &cert.votes {
        let public = committee.public_key(*voter);
        if !public.verify_with(committee.scheme(), &message, signature) {
            return Err(CertificateError::InvalidSignature(*voter));
        }
    }
    Ok(())
}

/// One defect planted in an otherwise valid certificate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Defect {
    HeaderSignature,
    /// The share's signature is broken (needs a share; otherwise a no-op).
    ShareSignature,
    /// The share was made by another validator's key, block validly signed.
    ForeignShare,
    /// The `k`-th vote's signature (modulo the vote count).
    Vote(usize),
    DuplicateVoter,
    SubQuorum,
    UnknownVoter,
}

fn defect() -> impl Strategy<Value = Defect> {
    prop_oneof![
        Just(Defect::HeaderSignature),
        Just(Defect::ShareSignature),
        Just(Defect::ForeignShare),
        (0usize..4).prop_map(Defect::Vote),
        Just(Defect::DuplicateVoter),
        Just(Defect::SubQuorum),
        Just(Defect::UnknownVoter),
    ]
}

/// What one certificate looks like before defects: `(author, round, share?,
/// all four vote instead of 2f + 1?)`.
type Shape = (u32, u64, bool, bool);

fn shape() -> impl Strategy<Value = Shape> {
    (0u32..4, 1u64..40, any::<bool>(), any::<bool>())
}

fn build(
    committee: &Committee,
    kps: &[KeyPair],
    (author, round, share, full): Shape,
    defects: &[Defect],
) -> Certificate {
    let me = author as usize;
    let share_by = if defects.contains(&Defect::ForeignShare) {
        Some((me + 1) % kps.len())
    } else {
        share.then_some(me)
    };
    let parents: Vec<Digest> = (0..committee.quorum_threshold())
        .map(|i| Digest::of(&[i as u8, round as u8]))
        .collect();
    let header = Header::new(
        &kps[me],
        ValidatorId(author),
        round,
        vec![(Digest::of(b"batch"), WorkerId(0))],
        parents,
        share_by.map(|by| CoinShare::new(&kps[by], round)),
    );
    let voters = if full { 4 } else { 3 };
    let votes: Vec<Vote> = (0..voters)
        .map(|v| {
            Vote::new(
                &kps[v],
                ValidatorId(v as u32),
                header.digest(),
                round,
                header.author,
            )
        })
        .collect();
    let mut cert = Certificate::from_votes(committee, header, &votes).expect("quorum");
    for defect in defects {
        match *defect {
            Defect::HeaderSignature => cert.header.signature.0[40] ^= 1,
            Defect::ShareSignature => {
                if let Some(share) = &mut cert.header.coin_share {
                    // The share is hashed into the block digest: re-sign,
                    // so only the share itself is bad.
                    share.signature.0[40] ^= 1;
                    cert.header.signature = kps[me].sign_digest(&cert.header.digest());
                    let resigned = cert.header.digest();
                    for (voter, signature) in &mut cert.votes {
                        // (An earlier defect may have planted a non-member.)
                        if let Some(kp) = kps.get(voter.0 as usize) {
                            *signature = Vote::new(kp, *voter, resigned, round, cert.header.author)
                                .signature;
                        }
                    }
                }
            }
            Defect::ForeignShare => {}
            Defect::Vote(k) => {
                let k = k % cert.votes.len();
                cert.votes[k].1 .0[40] ^= 1;
            }
            Defect::DuplicateVoter => cert.votes[1].0 = cert.votes[0].0,
            Defect::SubQuorum => cert.votes.truncate(2),
            Defect::UnknownVoter => cert.votes[0].0 = ValidatorId(77),
        }
    }
    cert
}

fn committee(ed25519: bool) -> (Committee, Vec<KeyPair>) {
    let scheme = if ed25519 {
        Scheme::Ed25519
    } else {
        Scheme::Insecure
    };
    Committee::deterministic(4, 1, scheme)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any mix of defects — none, one, or several that compete for which
    /// error is reported — gets the oracle's verdict, for the certificate
    /// and for its block alone.
    #[test]
    fn folded_equals_unfolded(
        shape in shape(),
        defects in proptest::collection::vec(defect(), 0..3),
        ed25519 in any::<bool>(),
    ) {
        let (committee, kps) = committee(ed25519);
        let cert = build(&committee, &kps, shape, &defects);
        prop_assert_eq!(cert.verify(&committee), unfolded_cert(&cert, &committee));
        prop_assert_eq!(cert.header.verify(&committee), unfolded_header(&cert.header, &committee));
        if defects.is_empty() {
            prop_assert_eq!(cert.verify(&committee), Ok(()));
        }
    }

    /// One corrupted signature is named exactly: the block's, the share's,
    /// or the one voter's.
    #[test]
    fn one_bad_signature_is_named(
        (author, round, _, full) in shape(),
        which in 0usize..6,
        ed25519 in any::<bool>(),
    ) {
        let (committee, kps) = committee(ed25519);
        let (defect, expected) = match which {
            0 => (
                Defect::HeaderSignature,
                CertificateError::BadHeader(HeaderError::InvalidSignature),
            ),
            1 => (
                Defect::ShareSignature,
                CertificateError::BadHeader(HeaderError::InvalidCoinShare),
            ),
            k => {
                let k = (k - 2) % if full { 4 } else { 3 };
                (
                    Defect::Vote(k),
                    CertificateError::InvalidSignature(ValidatorId(k as u32)),
                )
            }
        };
        let cert = build(&committee, &kps, (author, round, true, full), &[defect]);
        prop_assert_eq!(cert.verify(&committee), Err(expected));
    }

    /// `verify_all` accepts a clean group and otherwise reports the first
    /// bad certificate, with the error `verify` gives it on its own.
    #[test]
    fn verify_all_reports_the_first_bad_certificate(
        group in proptest::collection::vec((shape(), any::<bool>(), defect()), 0..5),
        genesis_at in 0usize..10,
        ed25519 in any::<bool>(),
    ) {
        let (committee, kps) = committee(ed25519);
        let mut certs: Vec<Certificate> = group
            .iter()
            .map(|(shape, bad, defect)| {
                build(&committee, &kps, *shape, bad.then_some(*defect).as_slice())
            })
            .collect();
        // Half the groups carry an unsigned genesis certificate somewhere.
        if genesis_at <= certs.len() {
            certs.insert(genesis_at, Certificate::genesis(ValidatorId(1)));
        }
        let expected = certs
            .iter()
            .enumerate()
            .find_map(|(c, cert)| unfolded_cert(cert, &committee).err().map(|e| (c, e)));
        prop_assert_eq!(Certificate::verify_all(&committee, &certs), expected.map_or(Ok(()), Err));
    }

    /// Telling `verify_given` that a block is verified — when it is —
    /// changes no verdict: whatever is wrong with the votes is reported as
    /// `verify` reports it, and a clean certificate is accepted. A block
    /// that is *not* valid is never claimed verified (the memo only learns
    /// from `Header::verify`), so those cases run cold on both sides.
    #[test]
    fn a_verified_header_changes_no_verdict(
        shape in shape(),
        defects in proptest::collection::vec(defect(), 0..3),
        ed25519 in any::<bool>(),
    ) {
        let (committee, kps) = committee(ed25519);
        let cert = build(&committee, &kps, shape, &defects);
        let known = cert.header.verify(&committee).is_ok();
        prop_assert_eq!(cert.verify_given(&committee, known), cert.verify(&committee));
        prop_assert_eq!(cert.verify_given(&committee, false), cert.verify(&committee));
        // Genesis is certified by equality and ignores the flag.
        let genesis = Certificate::genesis(ValidatorId(shape.0));
        prop_assert_eq!(genesis.verify_given(&committee, true), Ok(()));
    }

    /// The same for a group: flags set exactly for the valid blocks leave
    /// `verify_all`'s verdict — which certificate, which error — alone.
    #[test]
    fn verified_headers_change_no_group_verdict(
        group in proptest::collection::vec((shape(), any::<bool>(), defect(), any::<bool>()), 0..5),
        genesis_at in 0usize..10,
        ed25519 in any::<bool>(),
    ) {
        let (committee, kps) = committee(ed25519);
        let mut certs: Vec<Certificate> = group
            .iter()
            .map(|(shape, bad, defect, _)| {
                build(&committee, &kps, *shape, bad.then_some(*defect).as_slice())
            })
            .collect();
        // Only some of the valid blocks were seen before.
        let mut seen: Vec<bool> = group.iter().map(|(_, _, _, seen)| *seen).collect();
        if genesis_at <= certs.len() {
            certs.insert(genesis_at, Certificate::genesis(ValidatorId(1)));
            seen.insert(genesis_at, true);
        }
        let known: Vec<bool> = certs
            .iter()
            .zip(&seen)
            .map(|(cert, seen)| *seen && cert.header.verify(&committee).is_ok())
            .collect();
        prop_assert_eq!(
            Certificate::verify_all_given(&committee, &certs, |c| known[c]),
            Certificate::verify_all(&committee, &certs)
        );
    }
}
