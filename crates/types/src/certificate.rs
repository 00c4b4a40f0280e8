//! Certificates of availability (§3.1).
//!
//! `2f + 1` votes over the same `(digest, round, origin)` triple form a
//! certificate: proof that at least `f + 1` honest validators store the
//! block, so it is retrievable forever. Certificates are the vertices
//! consensus orders. Like the paper's open-source implementation, a
//! certificate embeds the block it certifies, so receiving a certificate is
//! enough to extend the local DAG (no separate header fetch).

use crate::committee::{Committee, ValidatorId};
use crate::header::{Header, HeaderError, SignedParts};
use crate::vote::{vote_message, Vote};
use crate::{Round, WireSize};
use nt_codec::{Decode, DecodeError, Encode, Reader};
use nt_crypto::{verify_prepared, Digest, Hashable, PreparedItem, Signature};

/// A certificate of availability for one block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// The certified block.
    pub header: Header,
    /// At least `2f + 1` `(voter, signature)` pairs over the block digest,
    /// round and origin. Empty for genesis certificates.
    pub votes: Vec<(ValidatorId, Signature)>,
}

impl Certificate {
    /// Assembles a certificate from a block and matching votes.
    ///
    /// Returns `None` if the votes do not form a quorum for this block.
    pub fn from_votes(
        committee: &Committee,
        header: Header,
        votes: &[Vote],
    ) -> Option<Certificate> {
        let digest = header.digest();
        let mut pairs: Vec<(ValidatorId, Signature)> = votes
            .iter()
            .filter(|v| {
                v.header_digest == digest && v.round == header.round && v.origin == header.author
            })
            .map(|v| (v.voter, v.signature))
            .collect();
        pairs.sort_by_key(|(id, _)| *id);
        pairs.dedup_by_key(|(id, _)| *id);
        if pairs.len() < committee.quorum_threshold() {
            return None;
        }
        Some(Certificate {
            header,
            votes: pairs,
        })
    }

    /// The genesis certificate of `author` (certifies the canonical empty
    /// round-0 block; valid by construction).
    pub fn genesis(author: ValidatorId) -> Certificate {
        Certificate {
            header: Header::genesis(author),
            votes: Vec::new(),
        }
    }

    /// All genesis certificates for a committee.
    pub fn genesis_set(committee: &Committee) -> Vec<Certificate> {
        committee.ids().map(Certificate::genesis).collect()
    }

    /// Digest of the certified block.
    pub fn header_digest(&self) -> Digest {
        self.header.digest()
    }

    /// Round of the certified block.
    pub fn round(&self) -> Round {
        self.header.round
    }

    /// Creator of the certified block.
    pub fn origin(&self) -> ValidatorId {
        self.header.author
    }

    /// Verifies the embedded block, quorum size, voter uniqueness and every
    /// signature: [`Certificate::verify_given`] for a block nothing is
    /// known about.
    pub fn verify(&self, committee: &Committee) -> Result<(), CertificateError> {
        self.verify_given(committee, false)
    }

    /// Verifies the certificate, given whether its embedded block is already
    /// known to be valid.
    ///
    /// `header_verified` is a promise by the caller that *this exact block* —
    /// same digest, same block signature — has passed [`Header::verify`]
    /// under `committee`. Then nothing about the block is checked again and
    /// only the votes go into the signature batch; the verdict is the one
    /// `header_verified = false` returns for the same certificate. (Genesis
    /// certificates ignore the flag: they are checked by equality.)
    ///
    /// The block signature, its coin share and the `2f + 1` vote signatures
    /// are checked as one batched multiscalar equation
    /// ([`verify_prepared`]) under the committee's prepared keys; a bad
    /// batch falls back to the sequential pass to name the offender.
    pub fn verify_given(
        &self,
        committee: &Committee,
        header_verified: bool,
    ) -> Result<(), CertificateError> {
        let Some(signed) = self.structural_checks(committee, header_verified)? else {
            // Genesis: nothing is signed.
            return Ok(());
        };
        let mut items = Vec::with_capacity(self.votes.len() + 2);
        self.push_items(committee, &signed, &mut items);
        verify_prepared(&items).map_err(|i| self.culprit(&signed, i))
    }

    /// Verifies a group of certificates in one multiscalar equation,
    /// amortizing the doubling chain across *all* their signatures (used
    /// for bulk ingress: `CertResponse` pulls and snapshot frontiers).
    ///
    /// Returns the index of the first certificate that fails together with
    /// its error. Structural checks (headers, quorums, voter sets) stay
    /// per-certificate; only the signature algebra is shared.
    pub fn verify_all(
        committee: &Committee,
        certs: &[Certificate],
    ) -> Result<(), (usize, CertificateError)> {
        Certificate::verify_all_given(committee, certs, |_| false)
    }

    /// [`Certificate::verify_all`], given for each index into `certs`
    /// whether that certificate's block is already known to be valid (the
    /// promise of [`Certificate::verify_given`]).
    pub fn verify_all_given(
        committee: &Committee,
        certs: &[Certificate],
        header_verified: impl Fn(usize) -> bool,
    ) -> Result<(), (usize, CertificateError)> {
        // The signed messages must outlive the batch items borrowing them.
        let mut signed: Vec<(usize, Signed)> = Vec::with_capacity(certs.len());
        let mut malformed = None;
        for (c, cert) in certs.iter().enumerate() {
            match cert.structural_checks(committee, header_verified(c)) {
                Ok(Some(parts)) => signed.push((c, parts)),
                Ok(None) => {}
                // Certificates before this one may still fail a signature.
                Err(e) => {
                    malformed = Some((c, e));
                    break;
                }
            }
        }
        let mut items: Vec<PreparedItem<'_>> = Vec::new();
        // Per signed certificate: its first item, and its index in `signed`.
        let mut starts: Vec<(usize, usize)> = Vec::with_capacity(signed.len());
        for (s, (c, parts)) in signed.iter().enumerate() {
            starts.push((items.len(), s));
            certs[*c].push_items(committee, parts, &mut items);
        }
        verify_prepared(&items).map_err(|i| {
            let (start, s) = starts[starts.partition_point(|&(start, _)| start <= i) - 1];
            let (c, parts) = &signed[s];
            (*c, certs[*c].culprit(parts, i - start))
        })?;
        malformed.map_or(Ok(()), Err)
    }

    /// The non-signature half of [`Certificate::verify_given`]: header
    /// validity (unless already known), voter membership/uniqueness and
    /// quorum size. Returns the messages the signatures must cover, or
    /// `None` for genesis certificates.
    fn structural_checks(
        &self,
        committee: &Committee,
        header_verified: bool,
    ) -> Result<Option<Signed>, CertificateError> {
        let (header, digest) = if header_verified && self.round() > 0 {
            (None, self.header_digest())
        } else {
            let Some(parts) = self
                .header
                .structural_checks(committee)
                .map_err(CertificateError::BadHeader)?
            else {
                // Genesis certificates carry no votes and are valid iff the
                // header is the canonical genesis (checked above).
                return Ok(None);
            };
            let digest = parts.digest;
            (Some(parts), digest)
        };
        if let Err(e) = self.vote_set_checks(committee) {
            // A bad block signature outranks a malformed vote set.
            if header.is_some() {
                self.header
                    .verify(committee)
                    .map_err(CertificateError::BadHeader)?;
            }
            return Err(e);
        }
        let vote_message = vote_message(&digest, self.round(), self.origin());
        Ok(Some(Signed {
            header,
            vote_message,
        }))
    }

    fn vote_set_checks(&self, committee: &Committee) -> Result<(), CertificateError> {
        let mut voters: Vec<ValidatorId> = self.votes.iter().map(|(id, _)| *id).collect();
        voters.sort_unstable();
        voters.dedup();
        if voters.len() != self.votes.len() {
            return Err(CertificateError::DuplicateVoters);
        }
        if self.votes.len() < committee.quorum_threshold() {
            return Err(CertificateError::InsufficientVotes {
                got: self.votes.len(),
                need: committee.quorum_threshold(),
            });
        }
        match self.votes.iter().find(|(v, _)| !committee.contains(*v)) {
            Some((voter, _)) => Err(CertificateError::UnknownVoter(*voter)),
            None => Ok(()),
        }
    }

    /// Appends every signature of this certificate still to be checked to a
    /// batch: the block's own unless it is already verified, then the votes
    /// in order.
    fn push_items<'a>(
        &self,
        committee: &'a Committee,
        signed: &'a Signed,
        items: &mut Vec<PreparedItem<'a>>,
    ) {
        if let Some(header) = &signed.header {
            self.header.push_items(committee, header, items);
        }
        items.extend(self.votes.iter().map(|(voter, signature)| PreparedItem {
            key: committee.key(*voter),
            message: &signed.vote_message,
            signature: *signature,
        }));
    }

    /// The error for the `index`-th item [`Certificate::push_items`] appended.
    fn culprit(&self, signed: &Signed, index: usize) -> CertificateError {
        let header_items = match signed.header {
            Some(_) => self.header.signed_items(),
            None => 0,
        };
        match index.checked_sub(header_items) {
            None => CertificateError::BadHeader(Header::culprit(index)),
            Some(vote) => CertificateError::InvalidSignature(self.votes[vote].0),
        }
    }
}

/// The byte strings a certificate's signatures cover.
struct Signed {
    /// The block's own, or `None` when the block is already verified.
    header: Option<SignedParts>,
    vote_message: Vec<u8>,
}

/// Why a certificate failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertificateError {
    /// The embedded block is invalid.
    BadHeader(HeaderError),
    /// A voter is not a committee member.
    UnknownVoter(ValidatorId),
    /// A voter appears more than once.
    DuplicateVoters,
    /// Fewer than `2f + 1` votes.
    InsufficientVotes {
        /// Votes present.
        got: usize,
        /// Votes required.
        need: usize,
    },
    /// A vote signature does not verify.
    InvalidSignature(ValidatorId),
}

impl std::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateError::BadHeader(e) => write!(f, "bad header: {e}"),
            CertificateError::UnknownVoter(v) => write!(f, "unknown voter {v}"),
            CertificateError::DuplicateVoters => write!(f, "duplicate voters"),
            CertificateError::InsufficientVotes { got, need } => {
                write!(f, "{got} votes, need {need}")
            }
            CertificateError::InvalidSignature(v) => write!(f, "invalid signature from {v}"),
        }
    }
}

impl std::error::Error for CertificateError {}

impl Hashable for Certificate {
    /// The certificate identity covers only `(digest, round, origin)`: two
    /// certificates with different vote sets for the same block are the same
    /// certificate for deduplication and DAG purposes.
    fn digest(&self) -> Digest {
        let mut buf = Vec::with_capacity(48);
        self.header_digest().encode(&mut buf);
        self.round().encode(&mut buf);
        self.origin().encode(&mut buf);
        Digest::of_parts(&[b"certificate", &buf])
    }
}

impl Encode for Certificate {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.header.encode(buf);
        (self.votes.len() as u64).encode(buf);
        for (id, sig) in &self.votes {
            id.encode(buf);
            sig.encode(buf);
        }
    }
}

impl Decode for Certificate {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let header = Header::decode(reader)?;
        let n = reader.take_len()?;
        let mut votes = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let id = ValidatorId::decode(reader)?;
            let sig = Signature(<[u8; 64]>::decode(reader)?);
            votes.push((id, sig));
        }
        Ok(Certificate { header, votes })
    }
}

impl WireSize for Certificate {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::committee::WorkerId;
    use nt_crypto::{KeyPair, Scheme};

    fn setup() -> (Committee, Vec<KeyPair>) {
        Committee::deterministic(4, 1, Scheme::Ed25519)
    }

    fn make_header(committee: &Committee, kps: &[KeyPair], author: usize) -> Header {
        let parents: Vec<Digest> = Certificate::genesis_set(committee)
            .iter()
            .map(Hashable::digest)
            .collect();
        Header::new(
            &kps[author],
            ValidatorId(author as u32),
            1,
            vec![(Digest::of(b"batch"), WorkerId(0))],
            parents,
            None,
        )
    }

    fn make_votes(kps: &[KeyPair], header: &Header) -> Vec<Vote> {
        kps.iter()
            .enumerate()
            .map(|(i, kp)| {
                Vote::new(
                    kp,
                    ValidatorId(i as u32),
                    header.digest(),
                    header.round,
                    header.author,
                )
            })
            .collect()
    }

    #[test]
    fn quorum_certificate_verifies() {
        let (c, kps) = setup();
        let h = make_header(&c, &kps, 0);
        let votes = make_votes(&kps[..3], &h);
        let cert = Certificate::from_votes(&c, h, &votes).expect("quorum");
        assert_eq!(cert.verify(&c), Ok(()));
        assert_eq!(cert.round(), 1);
        assert_eq!(cert.origin(), ValidatorId(0));
    }

    #[test]
    fn sub_quorum_rejected() {
        let (c, kps) = setup();
        let h = make_header(&c, &kps, 0);
        let votes = make_votes(&kps[..2], &h);
        assert!(Certificate::from_votes(&c, h, &votes).is_none());
    }

    #[test]
    fn duplicate_votes_do_not_count() {
        let (c, kps) = setup();
        let h = make_header(&c, &kps, 0);
        let mut votes = make_votes(&kps[..2], &h);
        votes.push(votes[0]);
        assert!(Certificate::from_votes(&c, h, &votes).is_none());
    }

    #[test]
    fn votes_for_other_blocks_filtered() {
        let (c, kps) = setup();
        let h = make_header(&c, &kps, 0);
        let other = make_header(&c, &kps, 1);
        let mut votes = make_votes(&kps[..2], &h);
        votes.extend(make_votes(&kps[2..3], &other));
        assert!(Certificate::from_votes(&c, h, &votes).is_none());
    }

    #[test]
    fn forged_signature_rejected() {
        let (c, kps) = setup();
        let h = make_header(&c, &kps, 0);
        let votes = make_votes(&kps[..3], &h);
        let mut cert = Certificate::from_votes(&c, h, &votes).expect("quorum");
        cert.votes[1].1 = cert.votes[0].1;
        assert!(matches!(
            cert.verify(&c),
            Err(CertificateError::InvalidSignature(_))
        ));
    }

    #[test]
    fn tampered_header_rejected() {
        let (c, kps) = setup();
        let h = make_header(&c, &kps, 0);
        let votes = make_votes(&kps[..3], &h);
        let mut cert = Certificate::from_votes(&c, h, &votes).expect("quorum");
        cert.header.round = 2;
        assert!(matches!(
            cert.verify(&c),
            Err(CertificateError::BadHeader(_))
        ));
    }

    #[test]
    fn genesis_set_verifies() {
        let (c, _) = setup();
        let genesis = Certificate::genesis_set(&c);
        assert_eq!(genesis.len(), 4);
        for g in &genesis {
            assert_eq!(g.verify(&c), Ok(()));
            assert_eq!(g.round(), 0);
        }
    }

    #[test]
    fn digest_ignores_vote_set() {
        let (c, kps) = setup();
        let h = make_header(&c, &kps, 0);
        let cert_a = Certificate::from_votes(&c, h.clone(), &make_votes(&kps[..3], &h)).unwrap();
        let cert_b = Certificate::from_votes(&c, h.clone(), &make_votes(&kps[1..4], &h)).unwrap();
        assert_ne!(cert_a.votes, cert_b.votes);
        assert_eq!(cert_a.digest(), cert_b.digest());
    }

    #[test]
    fn verify_all_accepts_and_names_offender() {
        let (c, kps) = setup();
        let certs: Vec<Certificate> = (0..3)
            .map(|author| {
                let h = make_header(&c, &kps, author);
                let votes = make_votes(&kps[..3], &h);
                Certificate::from_votes(&c, h, &votes).expect("quorum")
            })
            .collect();
        assert_eq!(Certificate::verify_all(&c, &certs), Ok(()));
        assert_eq!(Certificate::verify_all(&c, &[]), Ok(()));
        // Mixing genesis (no votes) with signed certificates works.
        let mut with_genesis = certs.clone();
        with_genesis.insert(0, Certificate::genesis(ValidatorId(2)));
        assert_eq!(Certificate::verify_all(&c, &with_genesis), Ok(()));
        // A corrupted signature is attributed to the right certificate.
        let mut bad = certs;
        bad[1].votes[2].1 .0[5] ^= 1;
        let voter = bad[1].votes[2].0;
        assert_eq!(
            Certificate::verify_all(&c, &bad),
            Err((1, CertificateError::InvalidSignature(voter)))
        );
    }

    #[test]
    fn roundtrip() {
        let (c, kps) = setup();
        let h = make_header(&c, &kps, 0);
        let votes = make_votes(&kps[..3], &h);
        let cert = Certificate::from_votes(&c, h, &votes).unwrap();
        let back: Certificate =
            nt_codec::decode_from_slice(&nt_codec::encode_to_vec(&cert)).unwrap();
        assert_eq!(back, cert);
    }
}
