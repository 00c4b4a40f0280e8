//! Mempool blocks ("headers"): the vertices of the Narwhal DAG (§3.1).
//!
//! Each block carries its creator, a round number, the digests of the worker
//! batches it makes available, references to `2f + 1` certificates of the
//! previous round (its DAG parents), an optional coin share for Tusk, and
//! the creator's signature.

use crate::committee::{Committee, ValidatorId, WorkerId};
use crate::{Round, WireSize};
use nt_codec::{varint_bytes, Decode, DecodeError, Encode, Reader};
use nt_crypto::{
    verify_prepared, CoinShare, Digest, Hashable, KeyPair, PreparedItem, PublicKey, Sha256,
    Signature,
};

/// A Narwhal mempool block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Header {
    /// The block creator.
    pub author: ValidatorId,
    /// The DAG round this block belongs to.
    pub round: Round,
    /// Digests of worker batches whose data this block commits to, along
    /// with the worker that holds them.
    pub payload: Vec<(Digest, WorkerId)>,
    /// Digests of `>= 2f + 1` certificates from round `round - 1`
    /// (empty only at round 0, the genesis layer).
    pub parents: Vec<Digest>,
    /// This validator's threshold-coin share for the Tusk wave containing
    /// this round. Carried in every block so the coin never needs extra
    /// messages (§5: "zero-message overhead").
    pub coin_share: Option<CoinShare>,
    /// Creator signature over the block digest.
    pub signature: Signature,
}

impl Header {
    /// Builds and signs a block.
    pub fn new(
        keypair: &KeyPair,
        author: ValidatorId,
        round: Round,
        payload: Vec<(Digest, WorkerId)>,
        parents: Vec<Digest>,
        coin_share: Option<CoinShare>,
    ) -> Self {
        let mut header = Header {
            author,
            round,
            payload,
            parents,
            coin_share,
            signature: Signature::default(),
        };
        header.signature = keypair.sign_digest(&header.digest());
        header
    }

    /// Verifies the creator signature and structural validity against the
    /// committee (§3.1 conditions 1 and 3; conditions 2 and 4 are stateful
    /// and checked by the primary).
    ///
    /// The block signature and the coin share are checked as one batched
    /// multiscalar equation ([`verify_prepared`]) under the author's
    /// prepared committee key.
    pub fn verify(&self, committee: &Committee) -> Result<(), HeaderError> {
        let Some(signed) = self.structural_checks(committee)? else {
            return Ok(());
        };
        let mut items = Vec::with_capacity(2);
        self.push_items(committee, &signed, &mut items);
        verify_prepared(&items).map_err(Header::culprit)
    }

    /// The non-signature half of [`Header::verify`]. Returns the byte
    /// strings the signatures must cover, or `None` for a genesis block,
    /// which carries none.
    pub(crate) fn structural_checks(
        &self,
        committee: &Committee,
    ) -> Result<Option<SignedParts>, HeaderError> {
        if !committee.contains(self.author) {
            return Err(HeaderError::UnknownAuthor);
        }
        if self.round > 0 && self.parents.len() < committee.quorum_threshold() {
            return Err(HeaderError::InsufficientParents {
                got: self.parents.len(),
                need: committee.quorum_threshold(),
            });
        }
        if self.round == 0 {
            // Genesis blocks are deterministic and unsigned; they are valid
            // iff they equal the canonical genesis for their author.
            return if *self == Header::genesis(self.author) {
                Ok(None)
            } else {
                Err(HeaderError::InvalidGenesis)
            };
        }
        let mut sorted = self.parents.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != self.parents.len() {
            return Err(HeaderError::DuplicateParents);
        }
        let digest = self.digest();
        let key = committee.key(self.author);
        if self
            .coin_share
            .is_some_and(|share| share.author != key.public())
        {
            // A bad block signature outranks a foreign share.
            return Err(if key.verify_digest(&digest, &self.signature) {
                HeaderError::InvalidCoinShare
            } else {
                HeaderError::InvalidSignature
            });
        }
        Ok(Some(SignedParts {
            digest,
            share: self.coin_share.map(|share| share.message()),
        }))
    }

    /// Appends this block's signatures to a batch: the block signature,
    /// then the coin share if there is one.
    pub(crate) fn push_items<'a>(
        &self,
        committee: &'a Committee,
        signed: &'a SignedParts,
        items: &mut Vec<PreparedItem<'a>>,
    ) {
        let key = committee.key(self.author);
        items.push(PreparedItem {
            key,
            message: signed.digest.as_bytes(),
            signature: self.signature,
        });
        if let (Some(share), Some(message)) = (&self.coin_share, &signed.share) {
            items.push(PreparedItem {
                key,
                message,
                signature: share.signature,
            });
        }
    }

    /// How many items [`Header::push_items`] appends.
    pub(crate) fn signed_items(&self) -> usize {
        1 + usize::from(self.coin_share.is_some())
    }

    /// The error for the `index`-th item [`Header::push_items`] appended.
    pub(crate) fn culprit(index: usize) -> HeaderError {
        match index {
            0 => HeaderError::InvalidSignature,
            _ => HeaderError::InvalidCoinShare,
        }
    }

    /// The signing key's public identity under `committee`.
    pub fn public_key(&self, committee: &Committee) -> PublicKey {
        committee.public_key(self.author)
    }

    /// A signed *equivocation twin* of this block: same author, round,
    /// payload, and parents, but a different digest — the optional coin
    /// share is flipped (dropped if present, minted if absent; the share
    /// is hashed, so the digest moves) and the result is re-signed.
    ///
    /// Both twins pass [`Header::verify`]: the coin share is only checked
    /// when present, so a Byzantine creator can offer each half of the
    /// committee a different valid block for the same `(round, author)`
    /// slot. The fuzzer's equivocation adversary is built on this.
    pub fn twin(&self, keypair: &KeyPair) -> Header {
        let coin_share = match &self.coin_share {
            Some(_) => None,
            None => Some(CoinShare::new(keypair, self.round)),
        };
        Header::new(
            keypair,
            self.author,
            self.round,
            self.payload.clone(),
            self.parents.clone(),
            coin_share,
        )
    }

    /// The deterministic genesis block of `author` (round 0, empty, unsigned).
    ///
    /// Genesis blocks are valid by construction: every validator can
    /// recompute them, so no signature is needed (the paper initializes the
    /// system with validators creating and certifying empty round-0 blocks).
    pub fn genesis(author: ValidatorId) -> Header {
        Header {
            author,
            round: 0,
            payload: Vec::new(),
            parents: Vec::new(),
            coin_share: None,
            signature: Signature::default(),
        }
    }
}

/// The byte strings a block's signatures cover, computed once so that the
/// items of a batched check can borrow them.
pub(crate) struct SignedParts {
    /// The block digest: what the creator signed.
    pub(crate) digest: Digest,
    /// The coin share's message, if the block carries a share.
    share: Option<[u8; 16]>,
}

/// Why a block failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeaderError {
    /// The author is not a committee member.
    UnknownAuthor,
    /// Fewer than `2f + 1` parent certificates.
    InsufficientParents {
        /// Parents present.
        got: usize,
        /// Parents required.
        need: usize,
    },
    /// A round-0 block must equal the canonical genesis for its author.
    InvalidGenesis,
    /// Duplicate parent references.
    DuplicateParents,
    /// The creator signature does not verify.
    InvalidSignature,
    /// The embedded coin share is malformed.
    InvalidCoinShare,
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::UnknownAuthor => write!(f, "unknown author"),
            HeaderError::InsufficientParents { got, need } => {
                write!(f, "{got} parents, need {need}")
            }
            HeaderError::InvalidGenesis => write!(f, "non-canonical genesis block"),
            HeaderError::DuplicateParents => write!(f, "duplicate parents"),
            HeaderError::InvalidSignature => write!(f, "invalid signature"),
            HeaderError::InvalidCoinShare => write!(f, "invalid coin share"),
        }
    }
}

impl std::error::Error for HeaderError {}

impl Hashable for Header {
    /// `Digest::of_parts(&[b"header", fields])`, where `fields` is the
    /// canonical encoding of everything but the signature (which signs this
    /// digest) — fed to the hasher field by field instead of through a
    /// buffer, the length prefix `of_parts` writes taken from `encoded_len`.
    fn digest(&self) -> Digest {
        fn varint(h: &mut Sha256, value: u64) {
            h.update(varint_bytes(value, &mut [0; 10]));
        }
        let tag = b"header";
        let fields = self.author.encoded_len()
            + self.round.encoded_len()
            + self.payload.encoded_len()
            + self.parents.encoded_len()
            + self.coin_share.encoded_len();
        let mut h = Sha256::new();
        h.update(&(tag.len() as u64).to_le_bytes());
        h.update(tag);
        h.update(&(fields as u64).to_le_bytes());
        h.update(&self.author.0.to_le_bytes());
        varint(&mut h, self.round);
        varint(&mut h, self.payload.len() as u64);
        for (batch, worker) in &self.payload {
            h.update(batch.as_bytes());
            h.update(&worker.0.to_le_bytes());
        }
        varint(&mut h, self.parents.len() as u64);
        for parent in &self.parents {
            h.update(parent.as_bytes());
        }
        match &self.coin_share {
            None => h.update(&[0]),
            Some(share) => {
                h.update(&[1]);
                h.update(&share.author.0);
                varint(&mut h, share.wave);
                h.update(&share.signature.0)
            }
        };
        Digest(h.finalize())
    }
}

impl Encode for Header {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.author.encode(buf);
        self.round.encode(buf);
        self.payload.encode(buf);
        self.parents.encode(buf);
        self.coin_share.encode(buf);
        self.signature.0.encode(buf);
    }
}

impl Decode for Header {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Header {
            author: ValidatorId::decode(reader)?,
            round: u64::decode(reader)?,
            payload: Vec::<(Digest, WorkerId)>::decode(reader)?,
            parents: Vec::<Digest>::decode(reader)?,
            coin_share: Option::<CoinShare>::decode(reader)?,
            signature: Signature(<[u8; 64]>::decode(reader)?),
        })
    }
}

impl WireSize for Header {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_codec::{decode_from_slice, encode_to_vec};
    use nt_crypto::Scheme;
    use proptest::prelude::*;

    fn setup() -> (Committee, Vec<KeyPair>) {
        Committee::deterministic(4, 1, Scheme::Ed25519)
    }

    fn make_header(committee: &Committee, kp: &KeyPair, round: Round) -> Header {
        let parents: Vec<Digest> = if round == 0 {
            vec![]
        } else {
            (0..committee.quorum_threshold())
                .map(|i| Digest::of(&[i as u8, round as u8]))
                .collect()
        };
        Header::new(
            kp,
            committee.id_of(&kp.public()).unwrap(),
            round,
            vec![(Digest::of(b"batch0"), WorkerId(0))],
            parents,
            None,
        )
    }

    #[test]
    fn valid_header_verifies() {
        let (c, kps) = setup();
        let h = make_header(&c, &kps[0], 1);
        assert_eq!(h.verify(&c), Ok(()));
    }

    #[test]
    fn genesis_verifies_without_parents() {
        let (c, _) = setup();
        let h = Header::genesis(ValidatorId(1));
        assert_eq!(h.verify(&c), Ok(()));
    }

    #[test]
    fn non_canonical_genesis_rejected() {
        let (c, kps) = setup();
        // A round-0 block with payload is not the canonical genesis.
        let h = make_header(&c, &kps[1], 0);
        assert_eq!(h.verify(&c), Err(HeaderError::InvalidGenesis));
    }

    #[test]
    fn too_few_parents_rejected() {
        let (c, kps) = setup();
        let mut h = make_header(&c, &kps[0], 1);
        h.parents.truncate(2);
        assert!(matches!(
            h.verify(&c),
            Err(HeaderError::InsufficientParents { got: 2, need: 3 })
        ));
    }

    #[test]
    fn duplicate_parents_rejected() {
        let (c, kps) = setup();
        let mut h = make_header(&c, &kps[0], 1);
        h.parents[1] = h.parents[0];
        // Re-sign so only the duplicate check can fail.
        h.signature = kps[0].sign_digest(&h.digest());
        assert_eq!(h.verify(&c), Err(HeaderError::DuplicateParents));
    }

    #[test]
    fn tampered_header_rejected() {
        let (c, kps) = setup();
        let mut h = make_header(&c, &kps[0], 1);
        h.round = 2;
        assert_eq!(h.verify(&c), Err(HeaderError::InvalidSignature));
    }

    #[test]
    fn forged_author_rejected() {
        let (c, kps) = setup();
        let mut h = make_header(&c, &kps[0], 1);
        // Author claims to be validator 1 but signed with key 0.
        h.author = ValidatorId(1);
        h.signature = kps[0].sign_digest(&h.digest());
        assert_eq!(h.verify(&c), Err(HeaderError::InvalidSignature));
    }

    #[test]
    fn twin_is_a_distinct_valid_block_for_the_same_slot() {
        let (c, kps) = setup();
        let mut h = make_header(&c, &kps[0], 1);
        h.coin_share = Some(CoinShare::new(&kps[0], 1));
        h.signature = kps[0].sign_digest(&h.digest());
        assert_eq!(h.verify(&c), Ok(()));

        let t = h.twin(&kps[0]);
        assert_eq!(t.verify(&c), Ok(()), "the twin must be validly signed");
        assert_eq!((t.author, t.round), (h.author, h.round));
        assert_eq!(t.payload, h.payload);
        assert_eq!(t.parents, h.parents);
        assert_ne!(t.digest(), h.digest(), "the twin must be a different block");

        // Flipping back mints a share again: still valid, still distinct.
        let tt = t.twin(&kps[0]);
        assert_eq!(tt.verify(&c), Ok(()));
        assert_ne!(tt.digest(), t.digest());
    }

    /// The digest as it was computed before it was streamed: the fields
    /// encoded into a buffer, hashed as the second part of two.
    fn buffered_digest(h: &Header) -> Digest {
        let mut buf = Vec::new();
        h.author.encode(&mut buf);
        h.round.encode(&mut buf);
        h.payload.encode(&mut buf);
        h.parents.encode(&mut buf);
        h.coin_share.encode(&mut buf);
        Digest::of_parts(&[b"header", &buf])
    }

    proptest! {
        /// Streaming the fields into the hasher changes no digest: with and
        /// without a coin share, empty and long payloads and parent lists,
        /// rounds and waves on both sides of every varint length.
        #[test]
        fn streamed_digest_equals_buffered_digest(
            author in 0u32..1000,
            round in any::<u64>(),
            round_bits in 0u32..64,
            payload in proptest::collection::vec(
                (any::<[u8; 32]>(), any::<u32>()),
                0..200,
            ),
            parents in proptest::collection::vec(any::<[u8; 32]>(), 0..140),
            wave in any::<u64>(),
            with_share in any::<bool>(),
        ) {
            let kp = KeyPair::for_index(Scheme::Insecure, 0);
            let round = round >> round_bits;
            let header = Header {
                author: ValidatorId(author),
                round,
                payload: payload.into_iter().map(|(d, w)| (Digest(d), WorkerId(w))).collect(),
                parents: parents.into_iter().map(Digest).collect(),
                coin_share: with_share.then(|| CoinShare::new(&kp, wave >> round_bits)),
                signature: kp.sign(b"excluded from the digest"),
            };
            prop_assert_eq!(header.digest(), buffered_digest(&header));
        }
    }

    #[test]
    fn roundtrip() {
        let (c, kps) = setup();
        let share = CoinShare::new(&kps[0], 3);
        let mut h = make_header(&c, &kps[0], 1);
        h.coin_share = Some(share);
        h.signature = kps[0].sign_digest(&h.digest());
        let back: Header = decode_from_slice(&encode_to_vec(&h)).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.digest(), h.digest());
    }
}
