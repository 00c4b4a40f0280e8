//! Narwhal-HS: HotStuff ordering Narwhal certificates (§3.2).
//!
//! "Instead of proposing a block of transactions, a leader can propose one
//! or more certificates of availability created in Narwhal. Upon commit,
//! the full uncommitted causal history of the certificates is
//! deterministically ordered and committed."
//!
//! The module implements [`narwhal::DagConsensus`]: HotStuff messages ride
//! the primary's channels as extension messages, proposals reference the
//! digests of the newest DAG layer (a few kilobytes regardless of load),
//! replicas vote only once they hold the referenced certificates (pulling
//! missing ones through the §4.1 synchronizer), and committed certificate
//! digests flow back to the primary as anchors for causal linearization.

use crate::core::{HotStuffCore, HsAction};
use crate::types::{HsMsg, HsPayload};
use narwhal::{ConsensusOut, Dag, DagConsensus, NarwhalConfig};
use nt_crypto::{Digest, KeyPair};
use nt_network::ActorFactory;
use nt_types::{Committee, ValidatorId};
use std::collections::HashSet;

struct PendingProposal {
    block_id: Digest,
    missing: HashSet<Digest>,
}

/// HotStuff as a Narwhal consensus plug-in.
pub struct NarwhalHsConsensus {
    core: HotStuffCore,
    /// Proposals whose referenced certificates are not yet local.
    pending: Vec<PendingProposal>,
    /// Cap on certificate digests per proposal.
    max_certs: usize,
}

impl NarwhalHsConsensus {
    /// Creates the plug-in for validator `me`.
    pub fn new(committee: Committee, me: ValidatorId, keypair: KeyPair) -> Self {
        NarwhalHsConsensus {
            core: HotStuffCore::new(committee, me, keypair),
            pending: Vec::new(),
            max_certs: 16,
        }
    }

    /// Current HotStuff view (tests/metrics).
    pub fn view(&self) -> u64 {
        self.core.view()
    }

    fn payload_from_dag(&self, dag: &Dag) -> HsPayload {
        // Propose the newest complete-ish layer: certificates of the
        // highest round. Their causal histories cover everything below, so
        // one small proposal commits the whole backlog (the §3.2 economy).
        let round = dag.highest_round();
        let digests: Vec<Digest> = dag
            .round_certs(round)
            .take(self.max_certs)
            .map(|c| c.header_digest())
            .collect();
        if digests.is_empty() {
            HsPayload::Empty
        } else {
            HsPayload::Certs(digests)
        }
    }

    fn map_actions(&mut self, actions: Vec<HsAction>, dag: &Dag, out: &mut ConsensusOut<HsMsg>) {
        for action in actions {
            match action {
                HsAction::Broadcast(msg) => out.broadcasts.push(msg),
                HsAction::Send(to, msg) => out.sends.push((to, msg)),
                HsAction::ArmViewTimer { view, delay } => out.timers.push((delay, view)),
                HsAction::ReadyToPropose { .. } => {
                    let payload = self.payload_from_dag(dag);
                    let acts = self.core.propose(payload);
                    self.map_actions(acts, dag, out);
                }
                HsAction::Commit(block) => {
                    if let HsPayload::Certs(digests) = &block.payload {
                        for digest in digests {
                            out.anchor_digests.push((*digest, block.author));
                        }
                    }
                }
            }
        }
    }
}

impl DagConsensus for NarwhalHsConsensus {
    type Ext = HsMsg;

    fn on_start(&mut self, out: &mut ConsensusOut<HsMsg>) {
        let actions = self.core.start();
        // No DAG access here; map with an empty DAG (proposals at view 1
        // are empty keep-alives, which is fine).
        let empty = Dag::new();
        self.map_actions(actions, &empty, out);
    }

    fn on_certificate(
        &mut self,
        dag: &Dag,
        cert: &nt_types::Certificate,
        out: &mut ConsensusOut<HsMsg>,
    ) {
        // A new certificate may complete pending proposals.
        let digest = cert.header_digest();
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
            self.map_actions(actions, dag, out);
        }
    }

    fn on_message(
        &mut self,
        _from: ValidatorId,
        msg: HsMsg,
        dag: &Dag,
        out: &mut ConsensusOut<HsMsg>,
    ) {
        match msg {
            HsMsg::Proposal(block) => {
                let missing: HashSet<Digest> = match &block.payload {
                    HsPayload::Certs(ds) => ds
                        .iter()
                        .filter(|d| !dag.contains_digest(d))
                        .copied()
                        .collect(),
                    _ => HashSet::new(),
                };
                if missing.is_empty() {
                    let actions = self.core.on_proposal(block, true);
                    self.map_actions(actions, dag, out);
                } else {
                    for digest in &missing {
                        out.request_certs.push((*digest, block.author));
                    }
                    let block_id = block.id();
                    self.pending.push(PendingProposal { block_id, missing });
                    let actions = self.core.on_proposal(block, false);
                    self.map_actions(actions, dag, out);
                }
            }
            HsMsg::Vote(vote) => {
                let actions = self.core.on_vote(vote);
                self.map_actions(actions, dag, out);
            }
            HsMsg::Timeout(timeout) => {
                let actions = self.core.on_timeout_msg(timeout);
                self.map_actions(actions, dag, out);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, dag: &Dag, out: &mut ConsensusOut<HsMsg>) {
        let actions = self.core.on_view_timer(tag);
        self.map_actions(actions, dag, out);
    }
}

/// Builds a Narwhal-HS deployment through [`narwhal::committee_factories`]:
/// `n` primaries (each embedding a HotStuff replica) followed by `workers`
/// workers per validator, each writing through a fresh store in memory.
pub fn build_narwhal_hs_actors(
    n: usize,
    workers: u32,
    config: &NarwhalConfig,
) -> Vec<ActorFactory<narwhal::NarwhalMsg<HsMsg>>> {
    let (committee, kps) = Committee::deterministic(n, workers, nt_crypto::Scheme::Insecure);
    let keys = kps.clone();
    let rule = move |v: u32, c: &Committee| {
        NarwhalHsConsensus::new(c.clone(), ValidatorId(v), keys[v as usize].clone())
    };
    narwhal::committee_factories(&committee, &kps, config, rule, |_, b| b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_crypto::Scheme;

    #[test]
    fn builder_produces_full_deployment() {
        let config = NarwhalConfig::with_load(1_000.0);
        let factories = build_narwhal_hs_actors(4, 2, &config);
        assert_eq!(factories.len(), 12);
    }

    #[test]
    fn payload_tracks_highest_round() {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let hs = NarwhalHsConsensus::new(committee.clone(), ValidatorId(0), kps[0].clone());
        let mut dag = Dag::new();
        dag.insert_genesis(nt_types::Certificate::genesis_set(&committee));
        match hs.payload_from_dag(&dag) {
            HsPayload::Certs(ds) => assert_eq!(ds.len(), 4, "genesis layer proposed"),
            other => panic!("expected certs, got {other:?}"),
        }
    }

    #[test]
    fn empty_dag_gives_empty_payload() {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let hs = NarwhalHsConsensus::new(committee, ValidatorId(0), kps[0].clone());
        assert!(matches!(hs.payload_from_dag(&Dag::new()), HsPayload::Empty));
    }
}
