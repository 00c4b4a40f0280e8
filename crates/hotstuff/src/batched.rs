//! Batched-HS: HotStuff with Prism-style out-of-band batch dissemination.
//!
//! "Batched-HS separates the task of data dissemination and consensus in
//! the same way as Prism. It first disseminates batches of transactions,
//! then the leader proposes hashes of batches to amortize the cost of the
//! initial broadcast. The goal of this version is to show that this
//! solution already gives benefits in a stable network but is not robust
//! enough for a real deployment." (§6)
//!
//! The fragility is structural: batches are broadcast best-effort (no
//! availability certificates), so a replica receiving a proposal may lack
//! referenced batches and must fetch them from the leader before voting —
//! and under crash faults, view changes stall the pipeline while batch
//! catch-up is bounded per block ([`MAX_DIGESTS_PER_BLOCK`]).

use crate::core::{HotStuffCore, HsAction};
use crate::types::{HsMsg, HsPayload};
use crate::TICK;
use narwhal::worker::SAMPLES_PER_BATCH;
use nt_crypto::{Digest, Hashable, KeyPair};
use nt_network::{Actor, ActorFactory, Context, NodeId};
use nt_types::{Batch, CommitEvent, Committee, TxSample, ValidatorId, WorkerId, TX_BYTES};
use std::collections::{HashMap, HashSet, VecDeque};

const TAG_TICK: u64 = 1;
const TAG_VIEW_BASE: u64 = 1 << 32;

/// Maximum batch digests per proposal. Bounds catch-up after stalls, which
/// is what makes Batched-HS fragile under faults.
pub const MAX_DIGESTS_PER_BLOCK: usize = 64;
/// Target batch size for dissemination (the paper's 500 KB).
const BATCH_BYTES: usize = 500_000;

struct BatchMeta {
    creator: ValidatorId,
    tx_count: u64,
    tx_bytes: u64,
    samples: Vec<TxSample>,
}

struct PendingProposal {
    block_id: Digest,
    missing: HashSet<Digest>,
}

/// A Batched-HS validator (consensus + batch mempool on one host).
pub struct BatchedValidator {
    core: HotStuffCore,
    /// Synthetic client rate (tx/s) into this validator; 0 for none.
    rate_per_validator: f64,
    me: ValidatorId,
    n: usize,
    /// Batch digests eligible for proposing, in arrival order.
    pool: VecDeque<Digest>,
    stored: HashMap<Digest, BatchMeta>,
    /// Full batch data kept for serving fetches.
    data: HashMap<Digest, Batch>,
    committed_batches: HashSet<Digest>,
    pending: Vec<PendingProposal>,
    seq: u64,
    sample_seq: u64,
    commit_seq: u64,
}

impl BatchedValidator {
    /// Creates the validator (node id == validator id; no workers), whose
    /// clients submit `rate_per_validator` transactions per second.
    pub fn new(
        committee: Committee,
        rate_per_validator: f64,
        me: ValidatorId,
        keypair: KeyPair,
    ) -> Self {
        let n = committee.size();
        BatchedValidator {
            core: HotStuffCore::new(committee, me, keypair),
            rate_per_validator,
            me,
            n,
            pool: VecDeque::new(),
            stored: HashMap::new(),
            data: HashMap::new(),
            committed_batches: HashSet::new(),
            pending: Vec::new(),
            seq: 0,
            sample_seq: 0,
            commit_seq: 0,
        }
    }

    fn peers(&self) -> Vec<NodeId> {
        (0..self.n).filter(|p| *p != self.me.0 as usize).collect()
    }

    fn apply(&mut self, actions: Vec<HsAction>, ctx: &mut Context<HsMsg>) {
        for action in actions {
            match action {
                HsAction::Broadcast(msg) => ctx.broadcast(self.peers(), &msg),
                HsAction::Send(to, msg) => ctx.send(to.0 as usize, msg),
                HsAction::ArmViewTimer { view, delay } => {
                    ctx.timer(delay, TAG_VIEW_BASE + view);
                }
                HsAction::ReadyToPropose { .. } => {
                    let payload = self.next_payload();
                    let acts = self.core.propose(payload);
                    self.apply(acts, ctx);
                }
                HsAction::Commit(block) => {
                    self.commit_seq += 1;
                    let mut event = CommitEvent {
                        sequence: self.commit_seq,
                        round: block.view,
                        anchor_round: block.view,
                        author: self.me,
                        ..Default::default()
                    };
                    if let HsPayload::Batches(digests) = &block.payload {
                        for digest in digests {
                            if !self.committed_batches.insert(*digest) {
                                continue; // Already committed earlier.
                            }
                            if let Some(meta) = self.stored.get(digest) {
                                // Count each batch once system-wide: at its
                                // creator.
                                if meta.creator == self.me {
                                    event.tx_count += meta.tx_count;
                                    event.tx_bytes += meta.tx_bytes;
                                    event.samples.extend(meta.samples.iter().copied());
                                }
                            }
                        }
                    }
                    ctx.commit(event);
                }
            }
        }
    }

    /// Selects up to [`MAX_DIGESTS_PER_BLOCK`] uncommitted pooled batches.
    fn next_payload(&mut self) -> HsPayload {
        // Lazily drop committed digests from the pool head.
        while let Some(front) = self.pool.front() {
            if self.committed_batches.contains(front) {
                self.pool.pop_front();
            } else {
                break;
            }
        }
        let digests: Vec<Digest> = self
            .pool
            .iter()
            .filter(|d| !self.committed_batches.contains(*d))
            .take(MAX_DIGESTS_PER_BLOCK)
            .copied()
            .collect();
        if digests.is_empty() {
            HsPayload::Empty
        } else {
            HsPayload::Batches(digests)
        }
    }

    fn seal_batch(&mut self, ctx: &mut Context<HsMsg>) {
        let rate = self.rate_per_validator;
        if rate <= 0.0 {
            return;
        }
        let interval = self.batch_interval();
        let count = ((rate * interval as f64) / nt_network::SEC as f64).round() as u64;
        if count == 0 {
            return;
        }
        let bytes = count * TX_BYTES as u64;
        let k = SAMPLES_PER_BATCH;
        let samples: Vec<TxSample> = (0..k)
            .map(|i| {
                self.sample_seq += 1;
                TxSample {
                    id: ((self.me.0 as u64) << 48) | self.sample_seq,
                    submit_ns: ctx.now().saturating_sub(interval * (i + 1) / (k + 1)),
                }
            })
            .collect();
        self.seq += 1;
        let batch = Batch::synthetic(self.me, WorkerId(0), self.seq, count, bytes, samples);
        let digest = batch.digest();
        self.remember(digest, &batch);
        self.pool.push_back(digest);
        ctx.broadcast(self.peers(), &HsMsg::Batch(batch));
    }

    fn batch_interval(&self) -> nt_network::Time {
        let rate = self.rate_per_validator.max(1.0);
        let per_batch = (BATCH_BYTES / TX_BYTES) as f64;
        let secs = per_batch / rate;
        ((secs * nt_network::SEC as f64) as nt_network::Time).clamp(nt_network::MS, TICK)
    }

    fn remember(&mut self, digest: Digest, batch: &Batch) {
        self.stored.entry(digest).or_insert_with(|| BatchMeta {
            creator: batch.creator,
            tx_count: batch.tx_count(),
            tx_bytes: batch.tx_bytes(),
            samples: batch.samples.clone(),
        });
        self.data.entry(digest).or_insert_with(|| batch.clone());
    }

    fn on_batch_stored(&mut self, digest: Digest, ctx: &mut Context<HsMsg>) {
        let mut ready = Vec::new();
        self.pending.retain_mut(|p| {
            p.missing.remove(&digest);
            if p.missing.is_empty() {
                ready.push(p.block_id);
                false
            } else {
                true
            }
        });
        for block_id in ready {
            let actions = self.core.on_payload_available(block_id);
            self.apply(actions, ctx);
        }
    }
}

impl Actor for BatchedValidator {
    type Message = HsMsg;

    fn on_start(&mut self, ctx: &mut Context<HsMsg>) {
        let actions = self.core.start();
        self.apply(actions, ctx);
        ctx.timer(self.batch_interval(), TAG_TICK);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<HsMsg>) {
        if tag >= TAG_VIEW_BASE {
            let actions = self.core.on_view_timer(tag - TAG_VIEW_BASE);
            self.apply(actions, ctx);
            return;
        }
        if tag == TAG_TICK {
            self.seal_batch(ctx);
            ctx.timer(self.batch_interval(), TAG_TICK);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: HsMsg, ctx: &mut Context<HsMsg>) {
        match msg {
            HsMsg::Batch(batch) => {
                let digest = batch.digest();
                let first = !self.stored.contains_key(&digest);
                self.remember(digest, &batch);
                if first {
                    self.pool.push_back(digest);
                }
                self.on_batch_stored(digest, ctx);
            }
            HsMsg::Proposal(block) => {
                let missing: HashSet<Digest> = match &block.payload {
                    HsPayload::Batches(ds) => ds
                        .iter()
                        .filter(|d| !self.stored.contains_key(*d))
                        .copied()
                        .collect(),
                    _ => HashSet::new(),
                };
                if missing.is_empty() {
                    let actions = self.core.on_proposal(block, true);
                    self.apply(actions, ctx);
                } else {
                    // Availability gap: fetch from the leader before voting
                    // — the extra round trip that hurts under faults.
                    ctx.send(
                        block.author.0 as usize,
                        HsMsg::BatchFetch {
                            digests: missing.iter().copied().collect(),
                        },
                    );
                    let block_id = block.id();
                    self.pending.push(PendingProposal { block_id, missing });
                    let actions = self.core.on_proposal(block, false);
                    self.apply(actions, ctx);
                }
            }
            HsMsg::BatchFetch { digests } => {
                let batches: Vec<Batch> = digests
                    .iter()
                    .filter_map(|d| self.data.get(d).cloned())
                    .collect();
                if !batches.is_empty() {
                    ctx.send(from, HsMsg::BatchData { batches });
                }
            }
            HsMsg::BatchData { batches } => {
                for batch in batches {
                    let digest = batch.digest();
                    self.remember(digest, &batch);
                    self.on_batch_stored(digest, ctx);
                }
            }
            HsMsg::Vote(vote) => {
                let actions = self.core.on_vote(vote);
                self.apply(actions, ctx);
            }
            HsMsg::Timeout(timeout) => {
                let actions = self.core.on_timeout_msg(timeout);
                self.apply(actions, ctx);
            }
            HsMsg::GossipBurst(_) => {}
        }
    }
}

/// Builds a Batched-HS deployment: one factory per validator, each host fed
/// `rate_per_validator` transactions per second.
pub fn build_batched_hs_actors(n: usize, rate_per_validator: f64) -> Vec<ActorFactory<HsMsg>> {
    crate::validator_factories(n, move |committee, v, keypair| {
        BatchedValidator::new(committee, rate_per_validator, v, keypair)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_crypto::Scheme;
    use nt_network::{Effect, MS};

    fn setup(rate: f64) -> BatchedValidator {
        let (committee, kps) = Committee::deterministic(4, 0, Scheme::Insecure);
        BatchedValidator::new(committee, rate, ValidatorId(0), kps[0].clone())
    }

    #[test]
    fn seal_broadcasts_and_pools() {
        let mut v = setup(10_000.0);
        let mut ctx = Context::new(200 * MS, 0);
        v.seal_batch(&mut ctx);
        let sends = ctx
            .drain()
            .into_iter()
            .filter(|e| matches!(e, Effect::Send { .. }))
            .count();
        assert_eq!(sends, 3);
        assert_eq!(v.pool.len(), 1);
    }

    #[test]
    fn payload_skips_committed_and_caps() {
        let mut v = setup(0.0);
        let digests: Vec<Digest> = (0..100u64).map(|i| Digest::of(&i.to_le_bytes())).collect();
        for d in &digests {
            v.pool.push_back(*d);
        }
        v.committed_batches.insert(digests[0]);
        match v.next_payload() {
            HsPayload::Batches(ds) => {
                assert_eq!(ds.len(), MAX_DIGESTS_PER_BLOCK);
                assert!(!ds.contains(&digests[0]), "committed digest skipped");
            }
            other => panic!("expected batches, got {other:?}"),
        }
    }

    #[test]
    fn missing_batches_trigger_fetch_and_deferred_vote() {
        let (committee, kps) = Committee::deterministic(4, 0, Scheme::Insecure);
        // Leader of view 1 proposes a batch nobody else has.
        let mut leader =
            BatchedValidator::new(committee.clone(), 0.0, ValidatorId(1), kps[1].clone());
        // Replica 3 is not the next leader (leader(2) = 2), so its vote is
        // an explicit Send.
        let mut replica = BatchedValidator::new(committee, 0.0, ValidatorId(3), kps[3].clone());
        // Start the cores directly (the actor `on_start` would auto-propose
        // an empty block for view 1, consuming the leader's proposal slot).
        let _ = leader.core.start();
        let _ = replica.core.start();

        let batch = Batch::synthetic(ValidatorId(1), WorkerId(0), 1, 100, 51_200, vec![]);
        let digest = batch.digest();
        leader.remember(digest, &batch);
        leader.pool.push_back(digest);
        let payload = leader.next_payload();
        let actions = leader.core.propose(payload);
        let block = actions
            .iter()
            .find_map(|a| match a {
                HsAction::Broadcast(HsMsg::Proposal(b)) => Some(b.clone()),
                _ => None,
            })
            .expect("proposal");

        let mut ctx = Context::new(MS, 3);
        replica.on_message(1, HsMsg::Proposal(block), &mut ctx);
        let effects = ctx.drain();
        let fetched = effects.iter().any(|e| {
            matches!(
                e,
                Effect::Send {
                    to: 1,
                    msg: HsMsg::BatchFetch { .. }
                }
            )
        });
        assert!(fetched, "fetch sent to the leader");
        assert!(
            !effects.iter().any(|e| matches!(
                e,
                Effect::Send {
                    msg: HsMsg::Vote(_),
                    ..
                }
            )),
            "vote deferred"
        );

        // Batch data arrives: the vote is released.
        let mut ctx = Context::new(2 * MS, 3);
        replica.on_message(
            1,
            HsMsg::BatchData {
                batches: vec![batch],
            },
            &mut ctx,
        );
        let effects = ctx.drain();
        assert!(
            effects.iter().any(|e| matches!(
                e,
                Effect::Send {
                    msg: HsMsg::Vote(_),
                    ..
                }
            )),
            "vote after fetch completes"
        );
    }
}
