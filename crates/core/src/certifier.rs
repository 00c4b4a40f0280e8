//! The certifier: votes, vote locks and certificate assembly (§3.1), and
//! the §4.1 retransmission of this round's own artifacts.
//!
//! Owns `voted` (the one-block-per-creator-per-round locks) and the own
//! block in flight with the votes collected for it (`current_header`,
//! `current_votes`). A lock is on disk before the vote it licenses is in the
//! [`Context`]; the own proposal is on disk, behind a barrier, before its
//! broadcast is — to the other primaries, and to this validator's own
//! workers, whose batch clock it is (`worker.rs`). The locks of one round
//! double as the list of blocks this validator helped certify, own
//! included: the proposer is lent them ([`Certifier::locks`]) to wait for
//! those certificates before it builds on the round.
//!
//! Deviation from §3.1 condition (2), "the block is at the local round":
//! a block of any *retained* round at or below the local one gets a vote.
//! The reference implementation does the same, and it costs nothing in
//! safety — the lock is per (creator, round), whatever the local round. It
//! is what lets a block whose broadcast lost the race against the round
//! advance still certify, instead of being abandoned by a committee that
//! every member of then waits out the header delay for.
//!
//! Outcomes: [`Certifier::vote`] queues the vote, if one is due;
//! [`Certifier::certify`] returns the assembled certificate, already
//! broadcast, for the caller to insert.

use crate::dag::Dag;
use crate::messages::NarwhalMsg;
use crate::primary::{Ctx, Identity};
use crate::store::{fail_stop, BlockStore, BlockStoreError};
use nt_crypto::{Digest, Hashable};
use nt_types::{Certificate, Header, Round, ValidatorId, Vote};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

#[derive(Default)]
pub(crate) struct Certifier {
    /// Our own block still collecting votes, if any.
    pub(crate) current_header: Option<Header>,
    current_votes: Vec<Vote>,
    /// The block digest we acknowledged per (round, creator): enforces
    /// §3.1 condition 4 (one block per creator per round) while keeping
    /// votes idempotent — re-delivered blocks get the same vote again,
    /// which is what makes the §4.1 retransmission recover lost votes.
    voted: BTreeMap<Round, HashMap<ValidatorId, Digest>>,
}

/// §3.1 validity: parents must be certified blocks of exactly the previous
/// round.
pub(crate) fn parents_certified(header: &Header, dag: &Dag) -> bool {
    header
        .parents
        .iter()
        .all(|parent| match dag.get_by_digest(parent) {
            Some(cert) => cert.round() + 1 == header.round,
            // Below the GC boundary: accept (we cannot check, §3.3).
            None => header.round <= dag.first_retained_round(),
        })
}

impl Certifier {
    /// Recovers the vote locks (so the new incarnation cannot acknowledge
    /// an equivocation) and re-arms the in-flight proposal (see
    /// `BlockStore::put_own_header`): if our last signed proposal never
    /// certified, only its retransmission can complete the round — we may
    /// not sign a replacement, and with two validators in this state one
    /// round of a 4-validator committee would sit below quorum forever.
    /// Returns the highest round we signed a block of our own for.
    pub(crate) fn recover(
        &mut self,
        store: &BlockStore,
        dag: &Dag,
        id: &Identity,
    ) -> Result<Round, BlockStoreError> {
        self.voted = store.load_votes()?;
        if let Some(header) = store.own_header()? {
            if header.round >= dag.first_retained_round() && dag.get(header.round, id.me).is_none()
            {
                self.hold(header, id);
            }
        }
        let mut signed = self.voted.iter().rev();
        let own = signed.find(|(_, locks)| locks.contains_key(&id.me));
        Ok(own.map_or(0, |(round, _)| *round))
    }

    /// Makes `header` the own block in flight, holding our own vote for it.
    fn hold(&mut self, header: Header, id: &Identity) {
        let own_vote = Vote::new(&id.keypair, id.me, header.digest(), header.round, id.me);
        self.current_votes = vec![own_vote];
        self.current_header = Some(header);
    }

    /// Locks, persists and broadcasts our freshly signed block.
    pub(crate) fn adopt<E>(&mut self, header: Header, id: &Identity, ctx: &mut Ctx<E>) {
        let digest = header.digest();
        self.voted
            .entry(header.round)
            .or_default()
            .insert(id.me, digest);
        let s = &id.store;
        fail_stop(s.put_vote(header.round, id.me, &digest));
        // Persist the in-flight proposal and sync, both *before* the
        // broadcast below leaves (effects drain after this handler): a
        // primary that crashes between proposing and certifying can neither
        // re-propose the round (condition 4) nor retransmit a header it no
        // longer has — with two such losses at one round, a 4-validator
        // committee wedges below quorum forever (found by `sim_fuzz`, seeds
        // 19 and 378). Recovery re-arms the slot and §4.1 retransmission
        // completes the round.
        fail_stop(s.put_own_header(&header));
        fail_stop(s.barrier());
        for node in id.addr.other_primaries(id.me) {
            ctx.send(node, NarwhalMsg::Header(header.clone()));
        }
        // The batch clock (`worker.rs`): the block that just left is what
        // tells our workers to seal what they buffered for the next one.
        for node in id.addr.own_workers(id.me) {
            ctx.send(node, NarwhalMsg::Header(header.clone()));
        }
        self.hold(header, id);
    }

    /// The blocks of `round` we signed a vote for, our own included.
    pub(crate) fn locks(&self, round: Round) -> Option<&HashMap<ValidatorId, Digest>> {
        self.voted.get(&round)
    }

    /// Votes for a block whose dependencies are all satisfied, of any
    /// retained round up to our local `round`, unless its creator already
    /// got our vote for another one of its round.
    pub(crate) fn vote<E>(
        &mut self,
        header: &Header,
        round: Round,
        dag: &Dag,
        id: &Identity,
        ctx: &mut Ctx<E>,
    ) {
        // Condition (2), relaxed (module doc): not above our round — newer
        // blocks became current via their parents — and not below the GC
        // boundary, where the lock could not be kept.
        if header.round > round || header.round < dag.first_retained_round() {
            return;
        }
        // Condition (4): first block from this creator in this round. A
        // re-delivery of the block we already acknowledged gets the same
        // (deterministic) vote again — acknowledgments are idempotent, so
        // the creator's retransmission recovers votes lost in transit.
        let digest = header.digest();
        match self
            .voted
            .entry(header.round)
            .or_default()
            .entry(header.author)
        {
            Entry::Occupied(e) => {
                if *e.get() != digest {
                    return; // Equivocation: never sign a second block.
                }
            }
            Entry::Vacant(e) => {
                e.insert(digest);
                // Persist the lock *before* the vote leaves: a restarted
                // incarnation must remember what it signed (§3.1 cond. 4).
                fail_stop(id.store.put_vote(header.round, header.author, &digest));
            }
        }
        let vote = Vote::new(&id.keypair, id.me, digest, header.round, header.author);
        ctx.send(id.addr.primary(header.author), NarwhalMsg::Vote(vote));
    }

    /// Counts a peer's vote for our block in flight; `true` if it is new.
    pub(crate) fn on_vote(&mut self, vote: Vote, id: &Identity) -> bool {
        let Some(current) = &self.current_header else {
            return false;
        };
        if vote.header_digest != current.digest() || vote.origin != id.me {
            return false;
        }
        if !vote.verify(&id.committee) {
            return false;
        }
        if self.current_votes.iter().any(|v| v.voter == vote.voter) {
            return false;
        }
        self.current_votes.push(vote);
        true
    }

    /// Assembles and broadcasts the certificate once a quorum voted.
    pub(crate) fn certify<E>(&mut self, id: &Identity, ctx: &mut Ctx<E>) -> Option<Certificate> {
        if self.current_votes.len() < id.committee.quorum_threshold() {
            return None;
        }
        let current = self.current_header.take()?;
        // Invariant: `on_vote` admits only verified votes of distinct
        // voters for exactly this header, and a quorum of them is held.
        let cert = Certificate::from_votes(&id.committee, current, &self.current_votes)
            .expect("quorum of matching votes");
        self.current_votes.clear();
        for node in id.addr.other_primaries(id.me) {
            ctx.send(node, NarwhalMsg::Certificate(cert.clone()));
        }
        Some(cert)
    }

    /// §4.1 retransmission: until the local round advances, keep
    /// re-sending this round's own artifacts — the un-certified block to
    /// validators whose acknowledgments are missing, or, once certified,
    /// the certificate itself (peers may have lost it and cannot advance
    /// without a quorum of certificates). Both stop implicitly when the
    /// round moves on.
    pub(crate) fn retransmit<E>(&self, round: Round, dag: &Dag, id: &Identity, ctx: &mut Ctx<E>) {
        if let Some(header) = &self.current_header {
            let voted: HashSet<ValidatorId> = self.current_votes.iter().map(|v| v.voter).collect();
            for peer in id.committee.ids() {
                if peer != id.me && !voted.contains(&peer) {
                    ctx.send(id.addr.primary(peer), NarwhalMsg::Header(header.clone()));
                }
            }
        } else if let Some(cert) = dag.get(round, id.me) {
            for node in id.addr.other_primaries(id.me) {
                ctx.send(node, NarwhalMsg::Certificate(cert.clone()));
            }
        }
    }

    /// Drops the locks below `boundary` (the DAG's first retained round).
    pub(crate) fn prune(&mut self, boundary: Round) {
        self.voted = self.voted.split_off(&boundary);
    }

    /// A snapshot install voids the block in flight.
    pub(crate) fn reset(&mut self, boundary: Round) {
        self.current_header = None;
        self.current_votes.clear();
        self.prune(boundary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NarwhalConfig;
    use crate::consensus::{NoConsensus, NoExt};
    use crate::deployment::AddressBook;
    use crate::testing::fixture::{effects, identity, Msg};
    use crate::testing::{certify, DagBench};
    use nt_network::NodeId;
    use nt_storage::{Store, StoreError};
    use nt_types::WorkerId;
    use std::sync::Arc;

    type Ctx = crate::primary::Ctx<NoExt>;

    /// Validator 1's round-1 block over genesis, carrying `payload`.
    fn block(bench: &DagBench<NoConsensus>, payload: &[u8]) -> Header {
        let payload = payload.iter().map(|b| (Digest::of(&[*b]), WorkerId(0)));
        Header::new(
            &bench.keypairs[1],
            ValidatorId(1),
            1,
            payload.collect(),
            bench.parents(0),
            None,
        )
    }

    fn votes(sends: &[(NodeId, Msg)]) -> Vec<&Vote> {
        let mut votes = Vec::new();
        for (_, msg) in sends {
            if let NarwhalMsg::Vote(vote) = msg {
                votes.push(vote);
            }
        }
        votes
    }

    /// A disk that is full.
    struct Failing;

    impl Store for Failing {
        fn put(&self, _: &[u8], _: &[u8]) -> Result<(), StoreError> {
            Err(std::io::Error::other("disk full").into())
        }
        fn get(&self, _: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
            Ok(None)
        }
        fn delete(&self, _: &[u8]) -> Result<(), StoreError> {
            Ok(())
        }
        fn keys_with_prefix(&self, _: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
            Ok(Vec::new())
        }
        fn len(&self) -> Result<usize, StoreError> {
            Ok(0)
        }
    }

    #[test]
    fn a_redelivered_block_gets_the_same_vote_and_its_twin_none() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let mut certifier = Certifier::default();
        let (original, twin) = (block(&bench, &[]), block(&bench, b"x"));
        let mut ctx = Ctx::new(0, 0);
        certifier.vote(&original, 1, &bench.dag, &id, &mut ctx);
        certifier.vote(&original, 1, &bench.dag, &id, &mut ctx);
        let (sends, _) = effects(&mut ctx, 0);
        let cast = votes(&sends);
        assert_eq!(cast.len(), 2);
        assert_eq!(cast[0], cast[1], "acknowledgments are idempotent");
        certifier.vote(&twin, 1, &bench.dag, &id, &mut ctx);
        assert!(
            ctx.is_empty(),
            "second block from the same creator in the same round is not signed"
        );
        assert!(sends
            .iter()
            .all(|(to, _)| *to == id.addr.primary(ValidatorId(1))));
        // The lock outlives the incarnation that took it.
        let mut revived = Certifier::default();
        let signed = revived.recover(&id.store, &bench.dag, &id);
        assert_eq!(signed.expect("store"), 0);
        assert_eq!(revived.voted, certifier.voted);
        revived.vote(&twin, 1, &bench.dag, &id, &mut ctx);
        assert!(ctx.is_empty());
    }

    /// Rule 3: the local round has moved on, the block still gets its vote —
    /// under the lock of its own round, and not below the GC boundary.
    #[test]
    fn a_late_block_of_a_retained_round_gets_its_vote_and_one_below_the_boundary_none() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let (late, twin) = (block(&bench, &[]), block(&bench, b"x"));
        for round in 1..=3 {
            bench.full_round(round);
        }
        let mut certifier = Certifier::default();
        let mut ctx = Ctx::new(0, 0);
        let ahead = Header::new(
            &bench.keypairs[1],
            ValidatorId(1),
            5,
            vec![],
            bench.parents(3),
            None,
        );
        certifier.vote(&ahead, 4, &bench.dag, &id, &mut ctx);
        assert!(
            ctx.is_empty(),
            "a block above our round is not ours to judge yet"
        );
        certifier.vote(&late, 4, &bench.dag, &id, &mut ctx);
        assert_eq!(votes(&effects(&mut ctx, 0).0).len(), 1);
        certifier.vote(&twin, 4, &bench.dag, &id, &mut ctx);
        assert!(
            ctx.is_empty(),
            "one vote per (creator, round), whenever it is cast"
        );
        let locks = certifier.locks(1).expect("locked");
        assert_eq!(locks.get(&ValidatorId(1)), Some(&late.digest()));
        assert!(certifier.locks(4).is_none(), "not under the local round");
        // GC passes round 1: the lock goes, and so does the right to a vote.
        bench.dag.gc(1);
        certifier.prune(bench.dag.first_retained_round());
        certifier.vote(&late, 4, &bench.dag, &id, &mut ctx);
        assert!(ctx.is_empty() && certifier.locks(1).is_none());
    }

    #[test]
    fn a_lock_that_misses_the_disk_stops_the_validator_before_the_vote_is_queued() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let id = Identity {
            store: BlockStore::new(Arc::new(Failing)),
            ..identity(&bench, 0)
        };
        let mut certifier = Certifier::default();
        let mut ctx = Ctx::new(0, 0);
        let header = block(&bench, &[]);
        let vote =
            std::panic::AssertUnwindSafe(|| certifier.vote(&header, 1, &bench.dag, &id, &mut ctx));
        assert!(std::panic::catch_unwind(vote).is_err(), "fail-stop");
        assert!(
            ctx.is_empty(),
            "the lock is on disk before the vote is in the context"
        );
        // The own proposal likewise: persisted before it is broadcast.
        let adopt = std::panic::AssertUnwindSafe(|| certifier.adopt(header, &id, &mut ctx));
        assert!(std::panic::catch_unwind(adopt).is_err(), "fail-stop");
        assert!(ctx.is_empty());
    }

    #[test]
    fn a_quorum_of_distinct_votes_certifies_the_adopted_block_once() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let mut certifier = Certifier::default();
        let mut ctx = Ctx::new(0, 0);
        let header = Header::new(&id.keypair, id.me, 1, vec![], bench.parents(0), None);
        certifier.adopt(header.clone(), &id, &mut ctx);
        let (sent, _) = effects(&mut ctx, 0);
        let to: Vec<NodeId> = sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, vec![1, 2, 3, 4], "3 peers, then our own worker");
        let is_proposal =
            |(_, msg): &(NodeId, Msg)| matches!(msg, NarwhalMsg::Header(h) if *h == header);
        assert!(sent.iter().all(is_proposal));
        let peer_vote = |v: u32| {
            let kp = &bench.keypairs[v as usize];
            Vote::new(kp, ValidatorId(v), header.digest(), 1, id.me)
        };
        assert!(certifier.on_vote(peer_vote(1), &id));
        assert!(!certifier.on_vote(peer_vote(1), &id), "same voter twice");
        assert!(certifier.certify(&id, &mut ctx).is_none(), "2 of 3");
        // Until certified, the block is retransmitted to the silent peers.
        certifier.retransmit(1, &bench.dag, &id, &mut ctx);
        let silent: Vec<NodeId> = effects(&mut ctx, 0).0.iter().map(|(to, _)| *to).collect();
        assert_eq!(silent, vec![2, 3]);
        assert!(certifier.on_vote(peer_vote(2), &id));
        let cert = certifier.certify(&id, &mut ctx).expect("quorum");
        assert_eq!(cert.header_digest(), header.digest());
        assert_eq!(effects(&mut ctx, 0).0.len(), 3, "certificate broadcast");
        assert!(certifier.current_header.is_none());
        assert!(!certifier.on_vote(peer_vote(3), &id), "nothing in flight");
        // A restart before certification re-arms the persisted proposal.
        let mut revived = Certifier::default();
        let signed = revived.recover(&id.store, &bench.dag, &id);
        assert_eq!(signed.expect("store"), 1);
        assert_eq!(revived.current_header, Some(header));
    }

    /// The batch clock: every own worker hears the block leave, after the
    /// peers do, whether it takes client transactions or generates its own
    /// (the simulator's synthetic load).
    #[test]
    fn an_adopted_block_is_queued_for_own_workers_whatever_their_load() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let adopted_by = |id: Identity| {
            let mut ctx = Ctx::new(0, 0);
            let header = Header::new(&id.keypair, id.me, 1, vec![], bench.parents(0), None);
            Certifier::default().adopt(header, &id, &mut ctx);
            let (sent, _) = effects(&mut ctx, 0);
            assert!(sent
                .iter()
                .all(|(_, msg)| matches!(msg, NarwhalMsg::Header(h) if h.author == id.me)));
            sent.iter().map(|(to, _)| *to).collect::<Vec<NodeId>>()
        };
        let three_workers = Identity {
            addr: AddressBook::new(4, 3),
            ..identity(&bench, 1)
        };
        assert_eq!(adopted_by(three_workers), vec![0, 2, 3, 7, 8, 9]);
        let synthetic = Identity {
            config: NarwhalConfig::with_load(10_000.0),
            ..identity(&bench, 1)
        };
        assert_eq!(adopted_by(synthetic), vec![0, 2, 3, 5]);
    }

    #[test]
    fn parents_must_be_certified_blocks_of_the_previous_round() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        bench.full_round(1);
        let over = |round, parents| {
            Header::new(
                &bench.keypairs[1],
                ValidatorId(1),
                round,
                vec![],
                parents,
                None,
            )
        };
        assert!(parents_certified(&over(2, bench.parents(1)), &bench.dag));
        assert!(!parents_certified(&over(3, bench.parents(1)), &bench.dag));
        let unknown = certify(&bench.committee, &bench.keypairs, 2, 1, vec![]);
        let parents = vec![unknown.header_digest()];
        assert!(!parents_certified(&over(2, parents.clone()), &bench.dag));
        // At the GC boundary parents cannot be checked, and are not.
        bench.dag.gc(1);
        assert!(parents_certified(&over(2, parents), &bench.dag));
    }
}
