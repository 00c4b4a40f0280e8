//! A bench for commit-rule tests: hand-built rounds, recorded DAGs, and
//! replay in any delivery order. The primary's component tests build their
//! DAGs on it too.
//!
//! Every certificate carries all `n` votes and a coin share (the rules
//! without a coin ignore it), under the `Insecure` scheme: the rules read
//! the DAG's shape, never its signatures.

use crate::consensus::{ConsensusOut, DagConsensus, NoExt};
use crate::dag::Dag;
use nt_crypto::{CoinShare, Digest, Hashable, KeyPair, Scheme};
use nt_types::{Certificate, Committee, Header, Round, ValidatorId, Vote};
use std::collections::HashSet;

/// Block identities in commit order.
pub type CommitSeq = Vec<(Round, ValidatorId)>;

/// `author`'s round-`round` block over `parents`, certified by everyone.
pub fn certify(
    committee: &Committee,
    keypairs: &[KeyPair],
    author: u32,
    round: Round,
    parents: Vec<Digest>,
) -> Certificate {
    let kp = &keypairs[author as usize];
    let share = Some(CoinShare::new(kp, round));
    let header = Header::new(kp, ValidatorId(author), round, vec![], parents, share);
    certify_header(committee, keypairs, header)
}

/// `header`, certified by everyone.
pub fn certify_header(committee: &Committee, keypairs: &[KeyPair], header: Header) -> Certificate {
    let (digest, round) = (header.digest(), header.round);
    let votes: Vec<Vote> = (0u32..)
        .zip(keypairs)
        .map(|(v, kp)| Vote::new(kp, ValidatorId(v), digest, round, header.author))
        .collect();
    // Invariant of the bench: all `n` votes are for this header.
    Certificate::from_votes(committee, header, &votes).expect("quorum")
}

/// One validator's DAG and commit rule, fed round by round.
pub struct DagBench<C> {
    pub committee: Committee,
    pub keypairs: Vec<KeyPair>,
    pub dag: Dag,
    pub rule: C,
    /// Every anchor `rule` has committed, in commit order.
    pub anchors: Vec<Certificate>,
}

impl<C: DagConsensus> DagBench<C> {
    /// An `n`-validator committee at genesis, under `rule(&committee)`.
    pub fn new(n: usize, rule: impl FnOnce(&Committee) -> C) -> Self {
        let (committee, keypairs) = Committee::deterministic(n, 1, Scheme::Insecure);
        let mut dag = Dag::new();
        dag.insert_genesis(Certificate::genesis_set(&committee));
        DagBench {
            rule: rule(&committee),
            committee,
            keypairs,
            dag,
            anchors: Vec::new(),
        }
    }

    /// The digests of the DAG's round-`round` blocks.
    pub fn parents(&self, round: Round) -> Vec<Digest> {
        let blocks = self.dag.round_certs(round);
        blocks.map(Certificate::header_digest).collect()
    }

    /// One block per listed author, each over the parents `parents_of`
    /// gives it. Not fed: hand the result to [`DagBench::feed`].
    pub fn make_round(
        &self,
        round: Round,
        authors: &[u32],
        parents_of: impl Fn(u32) -> Vec<Digest>,
    ) -> Vec<Certificate> {
        let block = |&a| certify(&self.committee, &self.keypairs, a, round, parents_of(a));
        authors.iter().map(block).collect()
    }

    /// Inserts each certificate and shows it to the rule.
    pub fn feed(&mut self, certs: Vec<Certificate>) {
        for cert in certs {
            self.dag.insert(cert.clone());
            let mut out = ConsensusOut::default();
            self.rule.on_certificate(&self.dag, &cert, &mut out);
            self.anchors.extend(out.anchors);
        }
    }

    /// Feeds round `round` with a block from each of `authors`, every
    /// block referencing all previous-round blocks.
    pub fn round(&mut self, round: Round, authors: &[u32]) {
        let parents = self.parents(round - 1);
        self.feed(self.make_round(round, authors, |_| parents.clone()));
    }

    /// Feeds round `round` with a block from everyone, in which only
    /// `voters` reference `shunned`'s previous-round block.
    pub fn round_shunning(&mut self, round: Round, shunned: ValidatorId, voters: &[u32]) {
        let all = self.parents(round - 1);
        let others = self
            .dag
            .round_certs(round - 1)
            .filter(|c| c.origin() != shunned);
        let rest: Vec<Digest> = others.map(Certificate::header_digest).collect();
        let parents_of = |a| if voters.contains(&a) { &all } else { &rest }.clone();
        self.feed(self.make_round(round, &self.everyone(), parents_of));
    }

    /// [`DagBench::round`] with every validator.
    pub fn full_round(&mut self, round: Round) {
        self.round(round, &self.everyone());
    }

    fn everyone(&self) -> Vec<u32> {
        (0..self.committee.size() as u32).collect()
    }

    /// The committed anchors as `(round, author)`.
    pub fn decided(&self) -> Vec<(Round, u32)> {
        let id = |c: &Certificate| (c.round(), c.origin().0);
        self.anchors.iter().map(id).collect()
    }
}

/// The linear congruential generator every recorded DAG and delivery order
/// is drawn from.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed | 1)
    }

    /// The next draw, in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        (self.0 >> 33) as usize % bound
    }

    /// A permutation of `0..len`.
    pub fn shuffled(mut self, len: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Records a `rounds`-round DAG like a real execution would build it,
/// genesis first: the validators in `dead` never produce a block, and every
/// other block drops the parents `drop(candidates)` indexes, one at a time,
/// while it has more than `2f + 1` (`None` keeps the rest).
pub fn record_dag(
    n: usize,
    rounds: Round,
    dead: &[u32],
    mut drop: impl FnMut(usize) -> Option<usize>,
) -> (Committee, Vec<Certificate>) {
    let (committee, keypairs) = Committee::deterministic(n, 1, Scheme::Insecure);
    let mut all = Certificate::genesis_set(&committee);
    let mut prev: Vec<Digest> = all.iter().map(Certificate::header_digest).collect();
    for round in 1..=rounds {
        let mut next = Vec::new();
        for author in (0..n as u32).filter(|a| !dead.contains(a)) {
            let mut parents = prev.clone();
            while parents.len() > committee.quorum_threshold() {
                let Some(pick) = drop(parents.len()) else {
                    break;
                };
                parents.remove(pick);
            }
            let cert = certify(&committee, &keypairs, author, round, parents);
            next.push(cert.header_digest());
            all.push(cert);
        }
        prev = next;
    }
    (committee, all)
}

/// [`record_dag`] with everyone alive, dropping the parents the bytes of
/// `edges` pick (a proptest's handle on the DAG's shape).
pub fn random_dag(n: usize, rounds: Round, edges: &[u8]) -> (Committee, Vec<Certificate>) {
    let mut picks = edges.iter();
    let pick = |len| Some(picks.next().copied().unwrap_or(7) as usize % len);
    record_dag(n, rounds, &[], pick)
}

/// One validator's view of a recorded DAG: delivers `certs` in `order`,
/// deferring those whose parents are missing (the primary's suspension
/// discipline), and returns the committed anchors plus the linearized
/// sequence obtained by flushing each anchor's not-yet-ordered causal
/// history. With `gc_depth`, prunes the DAG that far behind every anchor, as
/// the primary does, and drops deliveries below the pruned horizon.
pub fn replay(
    rule: &mut dyn DagConsensus<Ext = NoExt>,
    certs: &[Certificate],
    order: &[usize],
    gc_depth: Option<Round>,
) -> (CommitSeq, CommitSeq) {
    let mut dag = Dag::new();
    let (mut anchors, mut linearized) = (Vec::new(), Vec::new());
    let mut ordered: HashSet<Digest> = HashSet::new();
    let mut pending: Vec<&Certificate> = order.iter().map(|&i| &certs[i]).collect();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|&cert| {
            if cert.round() < dag.first_retained_round() {
                return false;
            }
            if !dag.missing_parents(cert).is_empty() {
                return true;
            }
            dag.insert(cert.clone());
            let mut out = ConsensusOut::default();
            rule.on_certificate(&dag, cert, &mut out);
            for anchor in out.anchors {
                anchors.push((anchor.round(), anchor.origin()));
                let history = dag.collect_history(&anchor, &ordered);
                // Invariant of the bench: deliveries wait for their parents.
                for c in history.expect("complete causal cone") {
                    ordered.insert(c.header_digest());
                    linearized.push((c.round(), c.origin()));
                }
                let gc_round = gc_depth.map_or(0, |depth| anchor.round().saturating_sub(depth));
                if gc_round > 0 {
                    for pruned in dag.gc(gc_round) {
                        ordered.remove(&pruned.header_digest());
                    }
                }
            }
            false
        });
        assert!(pending.len() < before, "delivery must make progress");
    }
    (anchors, linearized)
}

/// What the primary's component tests share: one validator's identity, a
/// store, a worker report, and a look into the effect buffer.
#[cfg(test)]
pub(crate) mod fixture {
    use super::DagBench;
    use crate::config::NarwhalConfig;
    use crate::consensus::NoExt;
    use crate::deployment::AddressBook;
    use crate::messages::{BatchInfo, NarwhalMsg};
    use crate::primary::{Ctx, Identity};
    use crate::store::BlockStore;
    use nt_crypto::Digest;
    use nt_network::{Effect, NodeId, Time};
    use nt_types::{ValidatorId, WorkerId};
    use std::sync::Arc;

    pub(crate) type Msg = NarwhalMsg<NoExt>;

    /// Validator `me` of `bench`'s committee, volatile, under the default
    /// config.
    pub(crate) fn identity<C>(bench: &DagBench<C>, me: u32) -> Identity {
        Identity {
            committee: bench.committee.clone(),
            config: NarwhalConfig::default(),
            addr: AddressBook::new(bench.committee.size(), 1),
            me: ValidatorId(me),
            keypair: bench.keypairs[me as usize].clone(),
            store: None,
        }
    }

    /// A durable primary's store handle, over memory.
    pub(crate) fn durable() -> Option<BlockStore> {
        Some(BlockStore::new(Arc::new(nt_storage::MemStore::new())))
    }

    /// The report of `creator`'s worker-0 batch number `seq`.
    pub(crate) fn batch(creator: u32, seq: u64) -> BatchInfo {
        BatchInfo {
            digest: Digest::of(&[creator as u64, seq].map(u64::to_le_bytes).concat()),
            worker: WorkerId(0),
            creator: ValidatorId(creator),
            tx_count: 100,
            tx_bytes: 51_200,
            samples: vec![],
        }
    }

    /// Drains `ctx` into its sends and the delays of its `tag` timers.
    pub(crate) fn effects(ctx: &mut Ctx<NoExt>, tag: u64) -> (Vec<(NodeId, Msg)>, Vec<Time>) {
        let (mut sends, mut timers) = (Vec::new(), Vec::new());
        for effect in ctx.drain() {
            match effect {
                Effect::Send { to, msg } => sends.push((to, msg)),
                Effect::Timer { delay, tag: t } if t == tag => timers.push(delay),
                _ => {}
            }
        }
        (sends, timers)
    }
}
