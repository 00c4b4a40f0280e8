//! Votes: signed acknowledgments of a block (§3.1).
//!
//! A validator that accepts a block "acknowledges it by signing its block
//! digest, round number, and creator's identity". `2f + 1` votes combine
//! into a [`crate::Certificate`].

use crate::committee::{Committee, ValidatorId};
use crate::Round;
use nt_codec::{Decode, DecodeError, Encode, Reader};
use nt_crypto::{Digest, KeyPair, Signature};

/// A vote over `(block digest, round, origin)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Vote {
    /// Digest of the block being acknowledged.
    pub header_digest: Digest,
    /// Round of that block.
    pub round: Round,
    /// Creator of that block.
    pub origin: ValidatorId,
    /// The voting validator.
    pub voter: ValidatorId,
    /// Signature over the vote message.
    pub signature: Signature,
}

impl Vote {
    /// Creates a signed vote.
    pub fn new(
        keypair: &KeyPair,
        voter: ValidatorId,
        header_digest: Digest,
        round: Round,
        origin: ValidatorId,
    ) -> Self {
        let msg = vote_message(&header_digest, round, origin);
        Vote {
            header_digest,
            round,
            origin,
            voter,
            signature: keypair.sign(&msg),
        }
    }

    /// Verifies the vote signature against the committee.
    pub fn verify(&self, committee: &Committee) -> bool {
        if !committee.contains(self.voter) || !committee.contains(self.origin) {
            return false;
        }
        let msg = vote_message(&self.header_digest, self.round, self.origin);
        committee.key(self.voter).verify(&msg, &self.signature)
    }
}

/// The canonical byte string a vote signs.
///
/// Shared with [`crate::Certificate`] verification: certificates aggregate
/// exactly these signatures.
pub fn vote_message(header_digest: &Digest, round: Round, origin: ValidatorId) -> Vec<u8> {
    let mut msg = Vec::with_capacity(64);
    msg.extend_from_slice(b"nt-vote");
    msg.extend_from_slice(header_digest.as_bytes());
    msg.extend_from_slice(&round.to_le_bytes());
    msg.extend_from_slice(&origin.0.to_le_bytes());
    msg
}

impl Encode for Vote {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.header_digest.encode(buf);
        self.round.encode(buf);
        self.origin.encode(buf);
        self.voter.encode(buf);
        self.signature.0.encode(buf);
    }
}

impl Decode for Vote {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Vote {
            header_digest: Digest::decode(reader)?,
            round: u64::decode(reader)?,
            origin: ValidatorId::decode(reader)?,
            voter: ValidatorId::decode(reader)?,
            signature: Signature(<[u8; 64]>::decode(reader)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_crypto::Scheme;

    #[test]
    fn vote_verifies() {
        let (c, kps) = Committee::deterministic(4, 1, Scheme::Ed25519);
        let d = Digest::of(b"block");
        let v = Vote::new(&kps[2], ValidatorId(2), d, 5, ValidatorId(0));
        assert!(v.verify(&c));
    }

    #[test]
    fn vote_wrong_voter_fails() {
        let (c, kps) = Committee::deterministic(4, 1, Scheme::Ed25519);
        let d = Digest::of(b"block");
        let mut v = Vote::new(&kps[2], ValidatorId(2), d, 5, ValidatorId(0));
        v.voter = ValidatorId(1);
        assert!(!v.verify(&c));
    }

    #[test]
    fn vote_tampered_round_fails() {
        let (c, kps) = Committee::deterministic(4, 1, Scheme::Ed25519);
        let d = Digest::of(b"block");
        let mut v = Vote::new(&kps[2], ValidatorId(2), d, 5, ValidatorId(0));
        v.round = 6;
        assert!(!v.verify(&c));
    }

    #[test]
    fn vote_out_of_committee_fails() {
        let (c, kps) = Committee::deterministic(4, 1, Scheme::Ed25519);
        let d = Digest::of(b"block");
        let mut v = Vote::new(&kps[2], ValidatorId(2), d, 5, ValidatorId(0));
        v.voter = ValidatorId(9);
        assert!(!v.verify(&c));
    }

    #[test]
    fn roundtrip() {
        let (_, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let v = Vote::new(&kps[0], ValidatorId(0), Digest::of(b"x"), 1, ValidatorId(3));
        let back: Vote = nt_codec::decode_from_slice(&nt_codec::encode_to_vec(&v)).unwrap();
        assert_eq!(back, v);
    }
}
