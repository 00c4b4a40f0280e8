//! The sans-io chained HotStuff core.
//!
//! This is the 2-chain ("Jolteon"/DiemBFT-v4 style) variant — the same
//! protocol family as the paper's open-source HotStuff implementation. One
//! block per view, chained: the QC a leader assembles from view `v` votes
//! rides inside its view `v+1` proposal.
//!
//! Rules:
//!
//! - **Vote** for block `B` at view `v` iff `v` is the current view, `v`
//!   is higher than the last voted view, and either `B.justify` certifies
//!   view `v - 1` (happy path) or a TC for `v - 1` is attached and
//!   `B.justify` is at least as high as the highest QC reported in that TC
//!   (the Jolteon safety condition).
//! - **Commit** block `b` when a QC certifies its child `b'` with
//!   `b.view + 1 = b'.view` (2-chain rule).
//! - **Pacemaker**: view timers broadcast `Timeout` messages carrying the
//!   sender's highest QC; `2f + 1` form a TC that advances the view. The
//!   delay is fixed ([`VIEW_TIMEOUT`]), like the paper's open-source
//!   artifact: exponential backoff compounds multi-view stalls under crash
//!   faults far beyond the latencies reported in Figure 8.

use crate::types::{genesis_id, HsBlock, HsMsg, HsPayload, HsTimeout, HsVote, Qc, Tc};
use nt_crypto::{Digest, KeyPair};
use nt_network::{Time, SEC};
use nt_types::{Committee, ValidatorId};
use std::collections::{HashMap, HashSet};

/// Effects requested by the core; the embedding adapter executes them.
#[derive(Debug)]
pub enum HsAction {
    /// Broadcast to all other validators.
    Broadcast(HsMsg),
    /// Send to one validator.
    Send(ValidatorId, HsMsg),
    /// A block is committed (emitted in commit order, ancestors first).
    Commit(HsBlock),
    /// Arm a timer that calls `on_view_timer(view)` after `delay`.
    ArmViewTimer {
        /// View to watch.
        view: u64,
        /// Delay until the timeout fires.
        delay: Time,
    },
    /// The caller is leader of `view` and should call `propose` now.
    ReadyToPropose {
        /// The view to propose in.
        view: u64,
    },
}

/// How long a view may go without progress before this replica broadcasts
/// its `Timeout`, and again every time after until the view changes.
pub const VIEW_TIMEOUT: Time = 5 * SEC;

/// Chained HotStuff replica state.
pub struct HotStuffCore {
    committee: Committee,
    me: ValidatorId,
    keypair: KeyPair,
    cur_view: u64,
    last_voted_view: u64,
    high_qc: Qc,
    /// TC that justified entering the current view, if any.
    last_tc: Option<Tc>,
    last_proposed_view: u64,
    blocks: HashMap<Digest, HsBlock>,
    votes: HashMap<Digest, Vec<HsVote>>,
    timeouts: HashMap<u64, HashMap<ValidatorId, HsTimeout>>,
    committed: HashSet<Digest>,
    last_committed_view: u64,
    commits_total: u64,
}

impl HotStuffCore {
    /// Creates a replica; call [`Self::start`] to begin view 1.
    pub fn new(committee: Committee, me: ValidatorId, keypair: KeyPair) -> Self {
        let mut blocks = HashMap::new();
        // The implicit genesis block anchors the chain at view 0.
        blocks.insert(
            genesis_id(),
            HsBlock {
                view: 0,
                author: ValidatorId(0),
                justify: Qc::genesis(),
                tc: None,
                payload: HsPayload::Empty,
                signature: Default::default(),
            },
        );
        let mut committed = HashSet::new();
        committed.insert(genesis_id());
        HotStuffCore {
            committee,
            me,
            keypair,
            cur_view: 0,
            last_voted_view: 0,
            high_qc: Qc::genesis(),
            last_tc: None,
            last_proposed_view: 0,
            blocks,
            votes: HashMap::new(),
            timeouts: HashMap::new(),
            committed,
            last_committed_view: 0,
            commits_total: 0,
        }
    }

    /// The current view (tests/metrics).
    pub fn view(&self) -> u64 {
        self.cur_view
    }

    /// Total committed blocks (tests/metrics).
    pub fn commits_total(&self) -> u64 {
        self.commits_total
    }

    /// The validator id of this replica.
    pub fn id(&self) -> ValidatorId {
        self.me
    }

    /// Enters view 1 (arms the first timer; leader 1 gets a propose cue).
    pub fn start(&mut self) -> Vec<HsAction> {
        let mut actions = Vec::new();
        self.enter_view(1, &mut actions);
        actions
    }

    fn leader(&self, view: u64) -> ValidatorId {
        self.committee.leader(view)
    }

    fn enter_view(&mut self, view: u64, actions: &mut Vec<HsAction>) {
        if view <= self.cur_view {
            return;
        }
        self.cur_view = view;
        actions.push(HsAction::ArmViewTimer {
            view,
            delay: VIEW_TIMEOUT,
        });
        if self.leader(view) == self.me {
            actions.push(HsAction::ReadyToPropose { view });
        }
        // Old accumulators can never complete now.
        self.timeouts.retain(|v, _| *v + 1 >= view);
    }

    /// Proposes a block for the current view (call after `ReadyToPropose`).
    pub fn propose(&mut self, payload: HsPayload) -> Vec<HsAction> {
        let mut actions = Vec::new();
        if self.leader(self.cur_view) != self.me || self.last_proposed_view >= self.cur_view {
            return actions;
        }
        let tc = self
            .last_tc
            .as_ref()
            .filter(|tc| tc.view + 1 == self.cur_view)
            .cloned();
        let block = HsBlock::new(
            &self.keypair,
            self.me,
            self.cur_view,
            self.high_qc.clone(),
            tc,
            payload,
        );
        self.last_proposed_view = self.cur_view;
        actions.push(HsAction::Broadcast(HsMsg::Proposal(block.clone())));
        // Process our own proposal (stores it and votes for it).
        self.handle_proposal_inner(block, &mut actions);
        actions
    }

    /// Handles a proposal from the network.
    ///
    /// `available` must be true only when the payload's data dependencies
    /// are satisfied locally (batches stored / certificates held); the
    /// mempool adapters gate this (§3.2, §4.2). When false, chain state
    /// still advances from the embedded certificates, but no vote is cast
    /// until [`Self::on_payload_available`].
    pub fn on_proposal(&mut self, block: HsBlock, available: bool) -> Vec<HsAction> {
        let mut actions = Vec::new();
        if !block.verify(&self.committee) {
            return actions;
        }
        if available {
            self.handle_proposal_inner(block, &mut actions);
        } else {
            self.blocks
                .entry(block.id())
                .or_insert_with(|| block.clone());
            self.update_qc(block.justify.clone(), &mut actions);
            if let Some(tc) = &block.tc {
                self.observe_tc(tc.clone(), &mut actions);
            }
        }
        actions
    }

    /// Re-evaluates a stored proposal whose payload just became available.
    pub fn on_payload_available(&mut self, block_id: Digest) -> Vec<HsAction> {
        let mut actions = Vec::new();
        if let Some(block) = self.blocks.get(&block_id).cloned() {
            self.maybe_vote(&block, &mut actions);
        }
        actions
    }

    fn handle_proposal_inner(&mut self, block: HsBlock, actions: &mut Vec<HsAction>) {
        self.blocks
            .entry(block.id())
            .or_insert_with(|| block.clone());
        self.update_qc(block.justify.clone(), actions);
        if let Some(tc) = &block.tc {
            self.observe_tc(tc.clone(), actions);
        }
        self.maybe_vote(&block, actions);
    }

    fn maybe_vote(&mut self, block: &HsBlock, actions: &mut Vec<HsAction>) {
        let v = block.view;
        if v != self.cur_view || v <= self.last_voted_view {
            return;
        }
        if block.author != self.leader(v) {
            return;
        }
        // Jolteon voting rule.
        let safe = if block.justify.view + 1 == v {
            true
        } else if let Some(tc) = &block.tc {
            let max_reported = tc.timeouts.iter().map(|(_, _, hv)| *hv).max().unwrap_or(0);
            tc.view + 1 == v && block.justify.view >= max_reported
        } else {
            false
        };
        if !safe {
            return;
        }
        self.last_voted_view = v;
        let vote = HsVote::new(&self.keypair, self.me, block.id(), v);
        let next_leader = self.leader(v + 1);
        if next_leader == self.me {
            let follow_up = self.on_vote(vote);
            actions.extend(follow_up);
        } else {
            actions.push(HsAction::Send(next_leader, HsMsg::Vote(vote)));
        }
    }

    /// Handles a vote (meaningful only at the leader of `vote.view + 1`).
    pub fn on_vote(&mut self, vote: HsVote) -> Vec<HsAction> {
        let mut actions = Vec::new();
        if self.leader(vote.view + 1) != self.me || !vote.verify(&self.committee) {
            return actions;
        }
        let entry = self.votes.entry(vote.block).or_default();
        if entry.iter().any(|v| v.voter == vote.voter) {
            return actions;
        }
        entry.push(vote);
        if entry.len() == self.committee.quorum_threshold() {
            let qc = Qc {
                block: vote.block,
                view: vote.view,
                votes: entry.iter().map(|v| (v.voter, v.signature)).collect(),
            };
            self.votes.remove(&vote.block);
            self.update_qc(qc, &mut actions);
        }
        actions
    }

    /// Handles a peer timeout message.
    pub fn on_timeout_msg(&mut self, timeout: HsTimeout) -> Vec<HsAction> {
        let mut actions = Vec::new();
        if !timeout.verify(&self.committee) {
            return actions;
        }
        self.update_qc(timeout.high_qc.clone(), &mut actions);
        let view = timeout.view;
        if view + 1 < self.cur_view {
            return actions;
        }
        let quorum = self.committee.quorum_threshold();
        let entry = self.timeouts.entry(view).or_default();
        entry.insert(timeout.voter, timeout);
        if entry.len() == quorum {
            let tc = Tc {
                view,
                timeouts: entry
                    .values()
                    .map(|t| (t.voter, t.signature, t.high_qc.view))
                    .collect(),
            };
            self.observe_tc(tc, &mut actions);
        }
        actions
    }

    fn observe_tc(&mut self, tc: Tc, actions: &mut Vec<HsAction>) {
        if tc.view < self.cur_view {
            return;
        }
        self.last_tc = Some(tc.clone());
        self.enter_view(tc.view + 1, actions);
    }

    /// The view timer fired for `view`.
    pub fn on_view_timer(&mut self, view: u64) -> Vec<HsAction> {
        let mut actions = Vec::new();
        if view != self.cur_view {
            return actions;
        }
        let timeout = HsTimeout::new(&self.keypair, self.me, view, self.high_qc.clone());
        actions.push(HsAction::Broadcast(HsMsg::Timeout(timeout.clone())));
        // Count our own timeout and keep ringing until the view changes.
        let follow_up = self.on_timeout_msg(timeout);
        actions.extend(follow_up);
        if view == self.cur_view {
            actions.push(HsAction::ArmViewTimer {
                view,
                delay: VIEW_TIMEOUT,
            });
        }
        actions
    }

    fn update_qc(&mut self, qc: Qc, actions: &mut Vec<HsAction>) {
        if !qc.verify(&self.committee) {
            return;
        }
        if qc.view > self.high_qc.view {
            self.high_qc = qc.clone();
            self.enter_view(qc.view + 1, actions);
        }
        // 2-chain commit: QC certifies b'; commit b' s parent if the views
        // are consecutive.
        let Some(certified) = self.blocks.get(&qc.block).cloned() else {
            return;
        };
        let Some(parent) = self.blocks.get(&certified.parent()).cloned() else {
            return;
        };
        if parent.view + 1 == certified.view && parent.view > 0 {
            self.commit_chain(parent, actions);
        }
        self.gc_blocks();
    }

    fn commit_chain(&mut self, tip: HsBlock, actions: &mut Vec<HsAction>) {
        if self.committed.contains(&tip.id()) {
            return;
        }
        // Collect uncommitted ancestors, then emit oldest first.
        let mut chain = vec![tip.clone()];
        let mut cursor = tip.parent();
        while let Some(block) = self.blocks.get(&cursor) {
            if self.committed.contains(&block.id()) || block.view == 0 {
                break;
            }
            chain.push(block.clone());
            cursor = block.parent();
        }
        chain.reverse();
        for block in chain {
            self.committed.insert(block.id());
            self.last_committed_view = self.last_committed_view.max(block.view);
            self.commits_total += 1;
            actions.push(HsAction::Commit(block));
        }
    }

    fn gc_blocks(&mut self) {
        // Keep a generous window behind the committed frontier.
        let horizon = self.last_committed_view.saturating_sub(128);
        if horizon == 0 {
            return;
        }
        let genesis = genesis_id();
        self.blocks
            .retain(|id, b| b.view >= horizon || *id == genesis);
        let blocks = &self.blocks;
        self.committed
            .retain(|id| *id == genesis || blocks.contains_key(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_crypto::Scheme;

    /// In-memory network of cores with instantaneous routing; proposals are
    /// capped at `view_cap` so runs terminate.
    struct Net {
        cores: Vec<HotStuffCore>,
        commits: Vec<Vec<HsBlock>>,
        queue: std::collections::VecDeque<(usize, HsMsg)>,
        crashed: Vec<bool>,
        view_cap: u64,
    }

    impl Net {
        fn new(n: usize, view_cap: u64) -> Net {
            let (committee, kps) = Committee::deterministic(n, 0, Scheme::Insecure);
            let cores = (0..n)
                .map(|i| {
                    HotStuffCore::new(committee.clone(), ValidatorId(i as u32), kps[i].clone())
                })
                .collect();
            Net {
                cores,
                commits: vec![Vec::new(); n],
                queue: std::collections::VecDeque::new(),
                crashed: vec![false; n],
                view_cap,
            }
        }

        fn apply(&mut self, node: usize, actions: Vec<HsAction>) {
            let n = self.cores.len();
            for action in actions {
                match action {
                    HsAction::Broadcast(msg) => {
                        for peer in 0..n {
                            if peer != node {
                                self.queue.push_back((peer, msg.clone()));
                            }
                        }
                    }
                    HsAction::Send(to, msg) => self.queue.push_back((to.0 as usize, msg)),
                    HsAction::Commit(block) => self.commits[node].push(block),
                    HsAction::ReadyToPropose { view } => {
                        if view <= self.view_cap {
                            let acts = self.cores[node].propose(HsPayload::Empty);
                            self.apply(node, acts);
                        }
                    }
                    HsAction::ArmViewTimer { .. } => {}
                }
            }
        }

        fn start_all(&mut self) {
            for node in 0..self.cores.len() {
                if !self.crashed[node] {
                    let actions = self.cores[node].start();
                    self.apply(node, actions);
                }
            }
        }

        fn route_all(&mut self) {
            let mut hops = 0;
            while let Some((to, msg)) = self.queue.pop_front() {
                hops += 1;
                assert!(hops < 200_000, "routing must terminate");
                if self.crashed[to] {
                    continue;
                }
                let actions = match msg {
                    HsMsg::Proposal(b) => self.cores[to].on_proposal(b, true),
                    HsMsg::Vote(v) => self.cores[to].on_vote(v),
                    HsMsg::Timeout(t) => self.cores[to].on_timeout_msg(t),
                    _ => Vec::new(),
                };
                self.apply(to, actions);
            }
        }

        /// Fires the view timer at every live node for its current view.
        fn fire_timers(&mut self) {
            for node in 0..self.cores.len() {
                if !self.crashed[node] {
                    let view = self.cores[node].view();
                    let actions = self.cores[node].on_view_timer(view);
                    self.apply(node, actions);
                }
            }
            self.route_all();
        }

        fn assert_prefix_consistent(&self) {
            let shortest = self
                .commits
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.crashed[*i])
                .map(|(_, c)| c.len())
                .min()
                .unwrap_or(0);
            for k in 0..shortest {
                let reference = self
                    .commits
                    .iter()
                    .enumerate()
                    .find(|(i, _)| !self.crashed[*i])
                    .map(|(_, c)| c[k].id())
                    .unwrap();
                for (i, commits) in self.commits.iter().enumerate() {
                    if !self.crashed[i] {
                        assert_eq!(commits[k].id(), reference, "commit {k} diverges at {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn happy_path_commits_blocks() {
        let mut net = Net::new(4, 12);
        net.start_all();
        net.route_all();
        for (i, commits) in net.commits.iter().enumerate() {
            assert!(
                commits.len() >= 8,
                "validator {i} committed {} blocks (view {})",
                commits.len(),
                net.cores[i].view()
            );
        }
        net.assert_prefix_consistent();
        // Views are consecutive in the committed sequence (no timeouts).
        let views: Vec<u64> = net.commits[0].iter().map(|b| b.view).collect();
        for w in views.windows(2) {
            assert_eq!(w[0] + 1, w[1]);
        }
    }

    #[test]
    fn crashed_leader_recovers_via_timeouts() {
        let mut net = Net::new(4, 40);
        net.crashed[1] = true; // Leader of views 1, 5, 9, ...
        net.start_all();
        net.route_all();
        let before: usize = net.commits.iter().map(Vec::len).sum();
        for _ in 0..12 {
            net.fire_timers();
        }
        let after: usize = net
            .commits
            .iter()
            .enumerate()
            .filter(|(i, _)| !net.crashed[*i])
            .map(|(_, c)| c.len())
            .sum();
        assert!(after > before, "liveness after leader crash");
        net.assert_prefix_consistent();
    }

    #[test]
    fn safety_holds_when_messages_are_lost() {
        // Drop everything in flight after start (a burst of asynchrony),
        // then let timeouts recover the protocol.
        let mut net = Net::new(4, 30);
        net.start_all();
        net.queue.clear();
        for _ in 0..6 {
            net.fire_timers();
        }
        net.route_all();
        net.assert_prefix_consistent();
        let total: usize = net.commits.iter().map(Vec::len).sum();
        assert!(total > 0, "recovers liveness after loss");
    }

    #[test]
    fn view_advances_monotonically_and_together() {
        let mut net = Net::new(4, 10);
        net.start_all();
        net.route_all();
        let views: Vec<u64> = net.cores.iter().map(HotStuffCore::view).collect();
        assert!(views.iter().all(|v| *v >= 10), "views: {views:?}");
        let max = views.iter().max().unwrap();
        let min = views.iter().min().unwrap();
        assert!(max - min <= 1, "views: {views:?}");
    }

    #[test]
    fn non_leader_cannot_propose() {
        let (committee, kps) = Committee::deterministic(4, 0, Scheme::Insecure);
        let mut core = HotStuffCore::new(committee, ValidatorId(2), kps[2].clone());
        let _ = core.start();
        let actions = core.propose(HsPayload::Empty);
        assert!(actions.is_empty(), "validator 2 is not leader of view 1");
    }

    #[test]
    fn unavailable_payload_defers_vote_until_available() {
        let (committee, kps) = Committee::deterministic(4, 0, Scheme::Insecure);
        let mut leader = HotStuffCore::new(committee.clone(), ValidatorId(1), kps[1].clone());
        // Validator 3 is not the next leader, so its vote is a Send.
        let mut replica = HotStuffCore::new(committee, ValidatorId(3), kps[3].clone());
        let _ = leader.start();
        let _ = replica.start();
        let actions = leader.propose(HsPayload::Batches(vec![Digest::of(b"missing")]));
        let block = actions
            .iter()
            .find_map(|a| match a {
                HsAction::Broadcast(HsMsg::Proposal(b)) => Some(b.clone()),
                _ => None,
            })
            .expect("proposal broadcast");
        // Replica lacks the batch: no vote.
        let acts = replica.on_proposal(block.clone(), false);
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, HsAction::Send(_, HsMsg::Vote(_)))),
            "no vote while payload is unavailable"
        );
        // Batch arrives: vote goes out.
        let acts = replica.on_payload_available(block.id());
        assert!(
            acts.iter()
                .any(|a| matches!(a, HsAction::Send(_, HsMsg::Vote(_)))),
            "vote after availability"
        );
    }
}
