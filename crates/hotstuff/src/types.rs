//! HotStuff wire types: blocks, votes, quorum and timeout certificates.

use nt_crypto::{Digest, Hashable, KeyPair, Signature};
use nt_types::{Batch, Committee, ValidatorId, WireSize};

/// A quorum certificate: `2f + 1` vote signatures over one block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Qc {
    /// The certified block id.
    pub block: Digest,
    /// The certified block's view.
    pub view: u64,
    /// `(voter, signature)` pairs (empty only for the genesis QC).
    pub votes: Vec<(ValidatorId, Signature)>,
}

impl Qc {
    /// The QC certifying the genesis block (view 0).
    pub fn genesis() -> Qc {
        Qc {
            block: genesis_id(),
            view: 0,
            votes: Vec::new(),
        }
    }

    /// Verifies quorum size, voter uniqueness and signatures.
    pub fn verify(&self, committee: &Committee) -> bool {
        if self.view == 0 {
            return self.block == genesis_id() && self.votes.is_empty();
        }
        let mut voters: Vec<ValidatorId> = self.votes.iter().map(|(v, _)| *v).collect();
        voters.sort_unstable();
        voters.dedup();
        if voters.len() != self.votes.len() || voters.len() < committee.quorum_threshold() {
            return false;
        }
        let msg = vote_msg(&self.block, self.view);
        self.votes.iter().all(|(voter, sig)| {
            committee.contains(*voter)
                && committee
                    .public_key(*voter)
                    .verify_with(committee.scheme(), &msg, sig)
        })
    }
}

/// The id of the implicit genesis block.
pub fn genesis_id() -> Digest {
    Digest::of(b"nt-hotstuff-genesis")
}

/// Canonical bytes signed by a vote for `(block, view)`.
pub fn vote_msg(block: &Digest, view: u64) -> Vec<u8> {
    let mut msg = Vec::with_capacity(48);
    msg.extend_from_slice(b"hs-vote");
    msg.extend_from_slice(block.as_bytes());
    msg.extend_from_slice(&view.to_le_bytes());
    msg
}

/// Canonical bytes signed by a timeout for `view`.
pub fn timeout_msg(view: u64) -> Vec<u8> {
    let mut msg = Vec::with_capacity(16);
    msg.extend_from_slice(b"hs-tmo");
    msg.extend_from_slice(&view.to_le_bytes());
    msg
}

/// A timeout certificate: `2f + 1` timeout signatures for one view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tc {
    /// The timed-out view.
    pub view: u64,
    /// `(voter, signature, high_qc_view)` triples.
    pub timeouts: Vec<(ValidatorId, Signature, u64)>,
}

impl Tc {
    /// Verifies quorum size, uniqueness and signatures.
    pub fn verify(&self, committee: &Committee) -> bool {
        let mut voters: Vec<ValidatorId> = self.timeouts.iter().map(|(v, _, _)| *v).collect();
        voters.sort_unstable();
        voters.dedup();
        if voters.len() != self.timeouts.len() || voters.len() < committee.quorum_threshold() {
            return false;
        }
        let msg = timeout_msg(self.view);
        self.timeouts.iter().all(|(voter, sig, _)| {
            committee.contains(*voter)
                && committee
                    .public_key(*voter)
                    .verify_with(committee.scheme(), &msg, sig)
        })
    }
}

/// Proposal payloads for the three mempool configurations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HsPayload {
    /// Narwhal certificate digests (Narwhal-HS, §3.2).
    Certs(Vec<Digest>),
    /// Batch digests (Batched-HS; Prism-style).
    Batches(Vec<Digest>),
    /// Inline transaction data (Baseline-HS). Reuses [`Batch`] as the
    /// container; synthetic payloads keep simulation costs low while
    /// declaring the real wire size.
    Txs(Batch),
    /// No payload (keep-alive block).
    Empty,
}

impl HsPayload {
    /// Wire size of the payload.
    pub fn wire_size(&self) -> usize {
        match self {
            HsPayload::Certs(d) | HsPayload::Batches(d) => 8 + 32 * d.len(),
            HsPayload::Txs(batch) => batch.wire_size(),
            HsPayload::Empty => 1,
        }
    }

    /// A content digest for block identity.
    pub fn digest(&self) -> Digest {
        match self {
            HsPayload::Certs(ds) => {
                let bytes: Vec<u8> = ds.iter().flat_map(|d| d.0).collect();
                Digest::of_parts(&[b"certs", &bytes])
            }
            HsPayload::Batches(ds) => {
                let bytes: Vec<u8> = ds.iter().flat_map(|d| d.0).collect();
                Digest::of_parts(&[b"batches", &bytes])
            }
            HsPayload::Txs(batch) => Digest::of_parts(&[b"txs", batch.digest().as_bytes()]),
            HsPayload::Empty => Digest::of(b"empty"),
        }
    }
}

/// A HotStuff block (one per view).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HsBlock {
    /// The proposal view.
    pub view: u64,
    /// The proposer.
    pub author: ValidatorId,
    /// QC for the parent block (the chain justification).
    pub justify: Qc,
    /// Timeout certificate justifying a view jump, if any.
    pub tc: Option<Tc>,
    /// The payload.
    pub payload: HsPayload,
    /// Proposer signature over the block id.
    pub signature: Signature,
}

impl HsBlock {
    /// Builds and signs a block.
    pub fn new(
        keypair: &KeyPair,
        author: ValidatorId,
        view: u64,
        justify: Qc,
        tc: Option<Tc>,
        payload: HsPayload,
    ) -> HsBlock {
        let mut block = HsBlock {
            view,
            author,
            justify,
            tc,
            payload,
            signature: Signature::default(),
        };
        block.signature = keypair.sign_digest(&block.id());
        block
    }

    /// Content-addressed block id (excludes the signature).
    pub fn id(&self) -> Digest {
        let mut buf = Vec::with_capacity(96);
        buf.extend_from_slice(&self.view.to_le_bytes());
        buf.extend_from_slice(&self.author.0.to_le_bytes());
        buf.extend_from_slice(self.justify.block.as_bytes());
        buf.extend_from_slice(&self.justify.view.to_le_bytes());
        buf.extend_from_slice(self.payload.digest().as_bytes());
        Digest::of_parts(&[b"hs-block", &buf])
    }

    /// The parent block id (via the justify QC).
    pub fn parent(&self) -> Digest {
        self.justify.block
    }

    /// Verifies signatures and certificates.
    pub fn verify(&self, committee: &Committee) -> bool {
        if !committee.contains(self.author) {
            return false;
        }
        if !committee.public_key(self.author).verify_digest(
            committee.scheme(),
            &self.id(),
            &self.signature,
        ) {
            return false;
        }
        if !self.justify.verify(committee) {
            return false;
        }
        if let Some(tc) = &self.tc {
            if !tc.verify(committee) {
                return false;
            }
        }
        true
    }
}

/// A vote for one block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HsVote {
    /// The voted block id.
    pub block: Digest,
    /// The voted block's view.
    pub view: u64,
    /// The voter.
    pub voter: ValidatorId,
    /// Signature over [`vote_msg`].
    pub signature: Signature,
}

impl HsVote {
    /// Creates a signed vote.
    pub fn new(keypair: &KeyPair, voter: ValidatorId, block: Digest, view: u64) -> HsVote {
        HsVote {
            block,
            view,
            voter,
            signature: keypair.sign(&vote_msg(&block, view)),
        }
    }

    /// Verifies the signature.
    pub fn verify(&self, committee: &Committee) -> bool {
        committee.contains(self.voter)
            && committee.public_key(self.voter).verify_with(
                committee.scheme(),
                &vote_msg(&self.block, self.view),
                &self.signature,
            )
    }
}

/// A view timeout declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HsTimeout {
    /// The timed-out view.
    pub view: u64,
    /// The sender's highest QC (carried so the next leader can extend it).
    pub high_qc: Qc,
    /// The sender.
    pub voter: ValidatorId,
    /// Signature over [`timeout_msg`].
    pub signature: Signature,
}

impl HsTimeout {
    /// Creates a signed timeout.
    pub fn new(keypair: &KeyPair, voter: ValidatorId, view: u64, high_qc: Qc) -> HsTimeout {
        HsTimeout {
            view,
            high_qc,
            voter,
            signature: keypair.sign(&timeout_msg(view)),
        }
    }

    /// Verifies the signature and the carried QC.
    pub fn verify(&self, committee: &Committee) -> bool {
        committee.contains(self.voter)
            && committee.public_key(self.voter).verify_with(
                committee.scheme(),
                &timeout_msg(self.view),
                &self.signature,
            )
            && self.high_qc.verify(committee)
    }
}

/// All messages of the standalone HotStuff systems (baseline and batched);
/// Narwhal-HS uses only the consensus subset via `NarwhalMsg::Ext`.
#[derive(Clone, Debug)]
pub enum HsMsg {
    /// A block proposal.
    Proposal(HsBlock),
    /// A vote, sent to the next leader.
    Vote(HsVote),
    /// A view timeout, broadcast.
    Timeout(HsTimeout),
    /// Gossiped client transactions (Baseline-HS). The batch is a carrier
    /// for a burst of individually-verified transactions.
    GossipBurst(Batch),
    /// An out-of-critical-path batch (Batched-HS).
    Batch(Batch),
    /// Pull request for missing batches (Batched-HS availability).
    BatchFetch {
        /// Wanted batch digests.
        digests: Vec<Digest>,
    },
    /// Response with batch data.
    BatchData {
        /// The found batches.
        batches: Vec<Batch>,
    },
}

impl nt_network::SimMessage for HsMsg {
    fn wire_size(&self) -> usize {
        match self {
            HsMsg::Proposal(b) => {
                64 + 68 * b.justify.votes.len()
                    + b.tc.as_ref().map_or(0, |tc| 16 + 76 * tc.timeouts.len())
                    + b.payload.wire_size()
                    + 64
            }
            HsMsg::Vote(_) => 32 + 8 + 4 + 64,
            HsMsg::Timeout(t) => 16 + 64 + 44 + 68 * t.high_qc.votes.len(),
            HsMsg::GossipBurst(b) | HsMsg::Batch(b) => b.wire_size(),
            HsMsg::BatchFetch { digests } => 8 + 32 * digests.len(),
            HsMsg::BatchData { batches } => {
                8 + batches.iter().map(WireSize::wire_size).sum::<usize>()
            }
        }
    }

    fn verify_count(&self) -> usize {
        match self {
            HsMsg::Proposal(b) => {
                let payload_verifies = match &b.payload {
                    // Baseline blocks carry raw transactions, re-verified
                    // on receipt like any mempool admission.
                    HsPayload::Txs(batch) => batch.tx_count() as usize,
                    _ => 0,
                };
                1 + b.justify.votes.len()
                    + b.tc.as_ref().map_or(0, |tc| tc.timeouts.len())
                    + payload_verifies
            }
            HsMsg::Vote(_) => 1,
            HsMsg::Timeout(t) => 1 + t.high_qc.votes.len(),
            // Baseline gossip pays per-transaction admission (signature
            // verification plus mempool bookkeeping, modelled as two
            // verifications) — the cost that caps the baseline (§7.1).
            HsMsg::GossipBurst(b) => 2 * b.tx_count() as usize,
            // A batch carries one creator signature, amortized over ~1000
            // transactions — the Batched-HS advantage.
            HsMsg::Batch(_) => 1,
            HsMsg::BatchFetch { .. } => 0,
            HsMsg::BatchData { batches } => batches.len(),
        }
    }

    fn sign_count(&self) -> usize {
        match self {
            HsMsg::Vote(_) | HsMsg::Timeout(_) => 1,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_crypto::Scheme;

    fn setup() -> (Committee, Vec<KeyPair>) {
        Committee::deterministic(4, 0, Scheme::Ed25519)
    }

    fn make_qc(committee: &Committee, kps: &[KeyPair], block: Digest, view: u64) -> Qc {
        let msg = vote_msg(&block, view);
        Qc {
            block,
            view,
            votes: kps
                .iter()
                .take(committee.quorum_threshold())
                .enumerate()
                .map(|(i, kp)| (ValidatorId(i as u32), kp.sign(&msg)))
                .collect(),
        }
    }

    #[test]
    fn genesis_qc_verifies() {
        let (c, _) = setup();
        assert!(Qc::genesis().verify(&c));
    }

    #[test]
    fn quorum_qc_verifies_and_subquorum_fails() {
        let (c, kps) = setup();
        let block = Digest::of(b"b1");
        let qc = make_qc(&c, &kps, block, 1);
        assert!(qc.verify(&c));
        let mut small = qc.clone();
        small.votes.truncate(2);
        assert!(!small.verify(&c));
        let mut dup = qc.clone();
        dup.votes[1] = dup.votes[0];
        assert!(!dup.verify(&c));
    }

    #[test]
    fn block_sign_verify_roundtrip() {
        let (c, kps) = setup();
        let qc = Qc::genesis();
        let block = HsBlock::new(&kps[1], ValidatorId(1), 1, qc, None, HsPayload::Empty);
        assert!(block.verify(&c));
        let mut forged = block.clone();
        forged.view = 2;
        assert!(!forged.verify(&c));
    }

    #[test]
    fn vote_and_timeout_verify() {
        let (c, kps) = setup();
        let v = HsVote::new(&kps[2], ValidatorId(2), Digest::of(b"b"), 3);
        assert!(v.verify(&c));
        let t = HsTimeout::new(&kps[2], ValidatorId(2), 3, Qc::genesis());
        assert!(t.verify(&c));
        let mut bad = t.clone();
        bad.view = 4;
        assert!(!bad.verify(&c));
    }

    #[test]
    fn payload_digests_are_distinct() {
        let a = HsPayload::Certs(vec![Digest::of(b"x")]);
        let b = HsPayload::Batches(vec![Digest::of(b"x")]);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), HsPayload::Empty.digest());
    }

    #[test]
    fn gossip_burst_charges_per_tx_verification() {
        use nt_network::SimMessage;
        let burst = Batch::synthetic(ValidatorId(0), nt_types::WorkerId(0), 0, 50, 25_600, vec![]);
        assert_eq!(HsMsg::GossipBurst(burst.clone()).verify_count(), 100);
        assert_eq!(HsMsg::Batch(burst).verify_count(), 1);
    }
}
