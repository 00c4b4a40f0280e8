//! Baseline-HS: HotStuff over a best-effort transaction-gossip mempool.
//!
//! "Established blockchains implement a best-effort gossip Mempool. A
//! transaction submitted to one validator is gossiped to all others. This
//! leads to fine-grained double transmissions: most transactions are shared
//! first by the Mempool, and then the miner/leader creates a block that
//! re-shares them." (§2.2)
//!
//! Costs modelled: every gossiped transaction is verified individually on
//! mempool entry (the per-transaction CPU tax that caps the baseline around
//! 2k tx/s in §7.1), and leader proposals carry *full transaction data*, so
//! the leader's NIC serializes `(n-1) x 500 KB` per block.

use crate::core::{HotStuffCore, HsAction};
use crate::types::{HsMsg, HsPayload};
use crate::TICK;
use narwhal::worker::SAMPLES_PER_BATCH;
use nt_crypto::KeyPair;
use nt_network::{Actor, ActorFactory, Context, NodeId};
use nt_types::{Batch, CommitEvent, Committee, TxSample, ValidatorId, WorkerId, TX_BYTES};
use std::collections::VecDeque;

const TAG_TICK: u64 = 1;
/// View timers use tags above this base (tag = base + view).
const TAG_VIEW_BASE: u64 = 1 << 32;

/// Maximum proposal payload in bytes (paper: 500 KB max block size).
const MAX_BLOCK_BYTES: usize = 500_000;
/// Max transactions per proposal.
const MAX_TXS_PER_BLOCK: u64 = (MAX_BLOCK_BYTES / TX_BYTES) as u64;

/// One chunk of pooled transactions (a gossip burst kept intact so latency
/// samples stay attached to their transactions).
struct PoolChunk {
    count: u64,
    bytes: u64,
    samples: Vec<TxSample>,
}

/// A Baseline-HS validator (consensus + gossip mempool on one host).
pub struct BaselineValidator {
    core: HotStuffCore,
    /// Synthetic client rate (tx/s) into this validator; 0 for none.
    rate_per_validator: f64,
    me: ValidatorId,
    n: usize,
    pool: VecDeque<PoolChunk>,
    pooled_txs: u64,
    seq: u64,
    sample_seq: u64,
    commit_seq: u64,
}

impl BaselineValidator {
    /// Creates the validator (node id == validator id; no workers), whose
    /// clients submit `rate_per_validator` transactions per second.
    pub fn new(
        committee: Committee,
        rate_per_validator: f64,
        me: ValidatorId,
        keypair: KeyPair,
    ) -> Self {
        let n = committee.size();
        BaselineValidator {
            core: HotStuffCore::new(committee, me, keypair),
            rate_per_validator,
            me,
            n,
            pool: VecDeque::new(),
            pooled_txs: 0,
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
                    if let HsPayload::Txs(batch) = &block.payload {
                        // Count each block's transactions once system-wide:
                        // at its proposer, since every replica commits it and
                        // the run's statistics sum every replica's events.
                        if block.author == self.me {
                            event.tx_count = batch.tx_count();
                            event.tx_bytes = batch.tx_bytes();
                            event.samples = batch.samples.clone();
                        } else {
                            // Mempool dedup-on-commit: gossip put the same
                            // transactions in every pool; drop the committed
                            // amount so they are not re-proposed.
                            self.drop_from_pool(batch.tx_count());
                        }
                    }
                    ctx.commit(event);
                }
            }
        }
    }

    /// Drains up to one block's worth of pooled transactions.
    fn next_payload(&mut self) -> HsPayload {
        let max = MAX_TXS_PER_BLOCK;
        let mut count = 0u64;
        let mut bytes = 0u64;
        let mut samples = Vec::new();
        while count < max {
            let Some(chunk) = self.pool.front() else {
                break;
            };
            if count + chunk.count > max && count > 0 {
                break;
            }
            let chunk = self.pool.pop_front().expect("present");
            count += chunk.count;
            bytes += chunk.bytes;
            samples.extend(chunk.samples);
        }
        self.pooled_txs -= count.min(self.pooled_txs);
        if count == 0 {
            return HsPayload::Empty;
        }
        self.seq += 1;
        HsPayload::Txs(Batch::synthetic(
            self.me,
            WorkerId(0),
            self.seq,
            count,
            bytes,
            samples,
        ))
    }

    /// Removes `count` transactions from the pool head (FIFO approximation
    /// of per-transaction dedup: pools are gossip-ordered similarly at all
    /// validators, so the committed prefix matches the local prefix).
    fn drop_from_pool(&mut self, mut count: u64) {
        while count > 0 {
            let Some(front) = self.pool.front_mut() else {
                break;
            };
            if front.count <= count {
                count -= front.count;
                self.pooled_txs -= front.count.min(self.pooled_txs);
                self.pool.pop_front();
            } else {
                front.count -= count;
                front.bytes -= (count * TX_BYTES as u64).min(front.bytes);
                self.pooled_txs -= count.min(self.pooled_txs);
                count = 0;
            }
        }
    }

    fn generate_burst(&mut self, ctx: &mut Context<HsMsg>) {
        let rate = self.rate_per_validator;
        if rate <= 0.0 {
            return;
        }
        let interval = TICK;
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
        let burst = Batch::synthetic(self.me, WorkerId(0), self.seq, count, bytes, samples);
        // Into our own pool, and gossiped to every peer (the double
        // transmission the paper's intro criticizes).
        self.pool.push_back(PoolChunk {
            count,
            bytes,
            samples: burst.samples.clone(),
        });
        self.pooled_txs += count;
        ctx.broadcast(self.peers(), &HsMsg::GossipBurst(burst));
    }
}

impl Actor for BaselineValidator {
    type Message = HsMsg;

    fn on_start(&mut self, ctx: &mut Context<HsMsg>) {
        let actions = self.core.start();
        self.apply(actions, ctx);
        ctx.timer(TICK, TAG_TICK);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<HsMsg>) {
        if tag >= TAG_VIEW_BASE {
            let actions = self.core.on_view_timer(tag - TAG_VIEW_BASE);
            self.apply(actions, ctx);
            return;
        }
        if tag == TAG_TICK {
            self.generate_burst(ctx);
            ctx.timer(TICK, TAG_TICK);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: HsMsg, ctx: &mut Context<HsMsg>) {
        match msg {
            HsMsg::GossipBurst(burst)
                // Bound the pool: a saturated mempool drops the oldest
                // gossip (clients must resubmit, §8.4).
                if self.pooled_txs < 2_000_000 => {
                    self.pooled_txs += burst.tx_count();
                    self.pool.push_back(PoolChunk {
                        count: burst.tx_count(),
                        bytes: burst.tx_bytes(),
                        samples: burst.samples,
                    });
                }
            HsMsg::Proposal(block) => {
                // Baseline payloads are inline: always available.
                let actions = self.core.on_proposal(block, true);
                self.apply(actions, ctx);
            }
            HsMsg::Vote(vote) => {
                let actions = self.core.on_vote(vote);
                self.apply(actions, ctx);
            }
            HsMsg::Timeout(timeout) => {
                let actions = self.core.on_timeout_msg(timeout);
                self.apply(actions, ctx);
            }
            _ => {}
        }
    }
}

/// Builds a Baseline-HS deployment: one factory per validator, each host fed
/// `rate_per_validator` transactions per second.
pub fn build_baseline_hs_actors(n: usize, rate_per_validator: f64) -> Vec<ActorFactory<HsMsg>> {
    crate::validator_factories(n, move |committee, v, keypair| {
        BaselineValidator::new(committee, rate_per_validator, v, keypair)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_crypto::Scheme;
    use nt_network::{Effect, MS};

    #[test]
    fn burst_generation_gossips_and_pools() {
        let (committee, kps) = Committee::deterministic(4, 0, Scheme::Insecure);
        let mut v = BaselineValidator::new(committee, 1_000.0, ValidatorId(0), kps[0].clone());
        let mut ctx = Context::new(200 * MS, 0);
        v.generate_burst(&mut ctx);
        let sends = ctx
            .drain()
            .into_iter()
            .filter(|e| matches!(e, Effect::Send { .. }))
            .count();
        assert_eq!(sends, 3, "gossip to 3 peers");
        assert_eq!(v.pooled_txs, 100, "1000 tps x 100 ms");
    }

    #[test]
    fn payload_respects_block_size() {
        let (committee, kps) = Committee::deterministic(4, 0, Scheme::Insecure);
        let mut v = BaselineValidator::new(committee, 0.0, ValidatorId(0), kps[0].clone());
        for _ in 0..20 {
            v.pool.push_back(PoolChunk {
                count: 100,
                bytes: 51_200,
                samples: vec![],
            });
            v.pooled_txs += 100;
        }
        match v.next_payload() {
            HsPayload::Txs(batch) => {
                assert!(batch.tx_count() <= MAX_TXS_PER_BLOCK);
                assert!(batch.tx_count() >= 900, "fills close to the limit");
            }
            other => panic!("expected txs, got {other:?}"),
        }
        assert!(v.pooled_txs > 0, "remainder stays pooled");
    }

    #[test]
    fn empty_pool_proposes_empty() {
        let (committee, kps) = Committee::deterministic(4, 0, Scheme::Insecure);
        let mut v = BaselineValidator::new(committee, 0.0, ValidatorId(0), kps[0].clone());
        assert!(matches!(v.next_payload(), HsPayload::Empty));
    }
}
