//! The primary: a router over five state machines (§3.1, §3.3, §4.1, §8.4).
//!
//! The primary builds the DAG. Each of its jobs is a plain struct in its own
//! file that owns a disjoint slice of the state, knows none of the others,
//! and talks to the outside only through the [`Context`] it is handed:
//!
//! - `proposer`: when the next own block leaves, and with what;
//! - `certifier`: votes, vote locks, certificate assembly,
//!   retransmission;
//! - `synchronizer`: blocks and certificates waiting on what is
//!   not held yet, and the pulls that fetch it;
//! - `executor`: decided anchors to the committed, applied sequence;
//! - `state_transfer`: signed snapshots past the GC horizon.
//!
//! [`Primary`] keeps what they all read — the [`Dag`], the local round, the
//! consensus plug-in ([`DagConsensus`]: Tusk interprets the DAG locally with
//! zero extra messages; Narwhal-HotStuff exchanges extension messages
//! through the same primary) and the validator's `Identity`, store handle
//! included — and the order in which they are called. A certificate whose
//! ancestry is complete runs one re-entrant sequence:
//!
//! ```text
//! insert_certificate    dag.insert, persist (barrier before an own broadcast),
//!                         executor.on_certified (payload now awaits its anchor)
//!  1 wake voters        synchronizer.next_ready -> maybe_vote
//!  2 advance_round      2f + 1 certificates of the round -> try_propose
//!  3 consensus          on_certificate -> pulls, anchors
//!  4 try_propose        proposer.try_propose (told: executor.awaits_anchor,
//!                         certifier.locks) -> certifier.adopt -> certify
//!                         -> process_certificate -> insert_certificate (re-entrant)
//!  5 drain_anchors      executor.next_anchor -> commit_block.., prune, checkpoint,
//!                         snapshot base, drain_execution
//! ```
//!
//! The order is pinned because it is observable: votes leave before the
//! round they may complete advances, a block is proposed on the DAG
//! consensus has already seen, an own certificate re-enters at step 4 of
//! the insertion that certified it, and anchors drain last so one handler's
//! commits follow everything it sent. The seed-42 commit folds of the
//! determinism suite hold every step in place.
//!
//! Durability (§6, "data-structures are persisted using RocksDB"): every
//! primary writes through a [`BlockStore`] (the one given to
//! [`NodeBuilder::store`](crate::NodeBuilder::store), or a fresh one in
//! memory) — certificates on DAG insert, vote locks on acknowledgment,
//! ordered markers and the sequence counter on commit, the consensus
//! checkpoint after every settled anchor — and deletes with garbage
//! collection. On start it recovers all of it, so a crashed validator
//! resumes from its persisted frontier instead of genesis and never
//! re-commits or equivocates across the outage; a fresh store recovers
//! genesis. A disk error is fail-stop.

use crate::certifier::{parents_certified, Certifier};
use crate::config::{NarwhalConfig, RESEND_DELAY, SYNC_RETRY_DELAY};
use crate::consensus::{ConsensusOut, DagConsensus};
use crate::dag::{Dag, InsertOutcome};
use crate::deployment::AddressBook;
use crate::executor::Executor;
use crate::messages::{BatchInfo, NarwhalMsg};
use crate::proposer::{Proposer, RoundState};
use crate::state_transfer::StateTransfer;
use crate::store::{fail_stop, BlockStore, BlockStoreError};
use crate::synchronizer::{serve_digests, serve_range, Synchronizer, Wait};
use nt_crypto::{Digest, KeyPair};
use nt_execution::{Execution, SnapshotPackage};
use nt_network::{Actor, Context, NodeId, Time};
use nt_types::{
    Certificate, CommitEvent, Committee, Header, ProposalCounts, Round, ValidatorId, Vote,
};

pub(crate) const TAG_PROPOSE: u64 = 1;
const TAG_RETRY: u64 = 2;
/// Consensus timer tags are namespaced above this base.
const CONSENSUS_TAG_BASE: u64 = 1 << 32;

/// The effect buffer every component writes into.
pub(crate) type Ctx<E> = Context<NarwhalMsg<E>>;

/// Who this primary is and where it persists: lent to every component,
/// owned by none.
pub(crate) struct Identity {
    pub(crate) committee: Committee,
    pub(crate) config: NarwhalConfig,
    pub(crate) addr: AddressBook,
    pub(crate) me: ValidatorId,
    pub(crate) keypair: KeyPair,
    /// Durable write-through store.
    pub(crate) store: BlockStore,
}

/// The primary of one validator, generic over the consensus plug-in.
pub struct Primary<C: DagConsensus> {
    id: Identity,
    dag: Dag,
    /// The round we currently propose and vote in.
    round: Round,
    round_entered: Time,
    consensus: C,
    proposer: Proposer,
    certifier: Certifier,
    synchronizer: Synchronizer,
    executor: Executor,
    transfer: StateTransfer,
}

impl<C: DagConsensus> Primary<C> {
    pub(crate) fn build(id: Identity, consensus: C, engine: Option<Box<dyn Execution>>) -> Self {
        Primary {
            id,
            dag: Dag::new(),
            round: 0,
            round_entered: 0,
            consensus,
            proposer: Proposer::default(),
            certifier: Certifier::default(),
            synchronizer: Synchronizer::default(),
            executor: Executor::new(engine),
            transfer: StateTransfer::default(),
        }
    }

    /// Current local round (tests/metrics).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The local DAG (tests/metrics).
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Why each block so far was proposed (also on every [`CommitEvent`]).
    pub fn proposal_counts(&self) -> ProposalCounts {
        self.proposer.proposals
    }

    /// Rebuilds state from the block store: what a crashed incarnation
    /// persisted, or genesis from a fresh store.
    fn recover(&mut self, now: Time) {
        self.dag = fail_stop(self.load());
        self.transfer.rebase(self.executor.sequence);
        self.resume_round(now);
    }

    /// Loads the certified DAG (verified against the committee) and its GC
    /// boundary, then each component's slice of the store, then the
    /// consensus checkpoint.
    fn load(&mut self) -> Result<Dag, BlockStoreError> {
        let (id, s) = (&self.id, &self.id.store);
        let mut dag = s.load_dag(&id.committee)?;
        if let Some(gc_round) = s.gc_round()? {
            // Restore the GC boundary; the pruned certificates were
            // already deleted, so this only prunes the freshly
            // re-inserted genesis.
            dag.gc(gc_round);
        }
        self.executor.recover(s, &dag)?;
        let last_signed = self.certifier.recover(s, &dag, id)?;
        let unfinished = self.certifier.current_header.as_ref();
        let ordered = &self.executor.ordered;
        self.proposer
            .recover(s, &dag, ordered, last_signed, unfinished, id)?;
        if let Some(blob) = s.consensus_checkpoint()? {
            self.consensus.restore(&blob);
        }
        Ok(dag)
    }

    /// Resumes at the highest round our DAG holds a full quorum for
    /// (`advance_round` lifts it one further from there). Crawling up
    /// from the GC boundary instead would wedge on any hole below the
    /// frontier — e.g. a round whose certificates a torn tail half
    /// deleted — that peers have long since garbage collected and can
    /// no longer serve.
    fn resume_round(&mut self, now: Time) {
        let quorum = self.id.committee.quorum_threshold();
        self.round = (self.dag.first_retained_round()..=self.dag.highest_round())
            .rev()
            .find(|r| self.dag.round_size(*r) >= quorum)
            .unwrap_or_else(|| self.dag.first_retained_round());
        self.round_entered = now;
    }

    fn apply_consensus_out(&mut self, out: ConsensusOut<C::Ext>, ctx: &mut Ctx<C::Ext>) {
        for (to, msg) in out.sends {
            ctx.send(self.id.addr.primary(to), NarwhalMsg::Ext(msg));
        }
        for msg in out.broadcasts {
            for node in self.id.addr.other_primaries(self.id.me) {
                ctx.send(node, NarwhalMsg::Ext(msg.clone()));
            }
        }
        for (delay, tag) in out.timers {
            ctx.timer(delay, CONSENSUS_TAG_BASE + tag);
        }
        for (digest, hint) in out.request_certs {
            self.synchronizer
                .request(digest, hint, &self.dag, &self.id, ctx);
        }
        if self.executor.enqueue(out.anchors, out.anchor_digests) {
            self.drain_anchors(ctx);
        }
    }

    /// Commits pending anchors whose causal history is locally complete,
    /// strictly in order, garbage-collecting behind each.
    fn drain_anchors(&mut self, ctx: &mut Ctx<C::Ext>) {
        let mut settled_any = false;
        loop {
            let (anchor, history) = match self.executor.next_anchor(&self.dag) {
                Ok(Some(settled)) => settled,
                Ok(None) => break,
                Err(missing) => {
                    for (digest, hint) in missing {
                        self.synchronizer
                            .request(digest, hint, &self.dag, &self.id, ctx);
                    }
                    return;
                }
            };
            settled_any = true;
            for cert in history {
                self.commit_block(&cert, anchor.round(), ctx);
            }
            let gc_round = anchor.round().saturating_sub(self.id.config.gc_depth);
            if gc_round > 0 {
                self.prune(gc_round);
            }
            self.transfer.schedule(self.executor.sequence, &self.id);
        }
        // Checkpoint consensus only once every decided anchor is
        // linearized (the queue is empty), so the persisted consensus
        // state never runs ahead of the persisted ordered markers. The
        // consensus plug-in advances its settled wave the moment it
        // *decides* — possibly several waves per pass — so a per-anchor
        // checkpoint could claim a wave whose history markers are not yet
        // written; a torn tail cutting between them would then restart the
        // validator with "wave settled" but its blocks unmarked, and the
        // replay would fold those blocks into a later anchor's history,
        // forking the commit order (found by `sim_fuzz`, seed 300). The
        // early return above (missing certificates) skips the checkpoint
        // for the same reason.
        if settled_any {
            if let Some(blob) = self.consensus.checkpoint() {
                fail_stop(self.id.store.put_consensus_checkpoint(&blob));
            }
            // The drained-checkpoint moment is the only one where the
            // consensus checkpoint, the ordered markers and the DAG frontier
            // are mutually consistent — capture the snapshot base here.
            let sequence = self.executor.sequence;
            self.transfer
                .capture_base(&self.dag, &self.consensus, sequence, &self.id);
            self.drain_execution(ctx);
        }
    }

    fn commit_block(&mut self, cert: &Certificate, anchor_round: Round, ctx: &mut Ctx<C::Ext>) {
        let header_digest = cert.header_digest();
        let (direct_commits, indirect_commits) = self.consensus.commit_counts();
        let mut event = CommitEvent {
            sequence: self.executor.order(header_digest, &self.id),
            round: cert.round(),
            author: cert.origin(),
            anchor_round,
            payload: cert.header.payload.clone(),
            decided_round: self.dag.highest_round(),
            direct_commits,
            indirect_commits,
            proposals: self.proposer.proposals,
            header_digest,
            ..Default::default()
        };
        if cert.origin() == self.id.me {
            self.proposer.on_own_commit(cert, &mut event, &self.id);
        }
        self.executor.deliver(event, ctx);
    }

    /// Garbage collection (§3.3): prunes the DAG, then every component's
    /// per-round state and the store behind it.
    fn prune(&mut self, gc_round: Round) {
        let pruned = self.dag.gc(gc_round);
        if pruned.is_empty() {
            return;
        }
        let boundary = self.dag.first_retained_round();
        // Durable GC is an intent log: record the floor sequence and the
        // new boundary *before* any deletion. A torn tail then leaves
        // either the full pre-GC state or "GC declared, deletes partially
        // applied" — and recovery prunes everything at or below the
        // declared boundary anyway, so partial deletes below it are
        // invisible. The old order (marker last) let a tear keep some
        // deletions while forgetting the boundary, leaving a recovered
        // validator with a boundary round it could never assemble a quorum
        // for — wedging it permanently (found by `sim_fuzz` seed 19).
        let s = &self.id.store;
        fail_stop(s.put_sequence(self.executor.sequence));
        fail_stop(s.put_gc_round(gc_round));
        let forgotten = self.proposer.prune(gc_round, &pruned, &self.id);
        self.executor.prune(&pruned, &forgotten, &self.id);
        self.synchronizer.prune(boundary, &pruned);
        self.certifier.prune(boundary);
        // Mirror the prune in the durable store: certificates and vote
        // locks below the boundary go (the boundary itself was recorded
        // up front, before the first delete).
        fail_stop(s.gc_certificates_below(boundary));
        fail_stop(s.gc_votes_below(boundary));
    }

    /// Re-evaluates the local round from certificate quorums: "once
    /// certificates for round r − 1 are accumulated from 2f + 1 distinct
    /// validators, a validator moves the local round to r" (§3.1).
    fn advance_round(&mut self, ctx: &mut Ctx<C::Ext>) {
        let quorum = self.id.committee.quorum_threshold();
        let mut advanced = false;
        while self.dag.round_size(self.round) >= quorum {
            self.round += 1;
            advanced = true;
        }
        if advanced {
            self.round_entered = ctx.now();
            // Votes for rounds we left behind are no longer needed; pending
            // transmissions for them are dropped implicitly (sans-io).
            self.try_propose(ctx);
        }
    }

    fn try_propose(&mut self, ctx: &mut Ctx<C::Ext>) {
        let at = RoundState {
            round: self.round,
            entered: self.round_entered,
            live: self.executor.awaits_anchor(),
            voted: self.certifier.locks(self.round.saturating_sub(1)),
        };
        let proposed = self
            .proposer
            .try_propose(at, &self.dag, &self.consensus, &self.id, ctx);
        if let Some(header) = proposed {
            self.certifier.adopt(header, &self.id, ctx);
            self.maybe_certify(ctx);
        }
    }

    fn handle_header(&mut self, header: Header, ctx: &mut Ctx<C::Ext>) {
        let stored = &self.proposer.stored_batches;
        let ready = self
            .synchronizer
            .on_header(header, &self.dag, stored, &self.id, ctx);
        if let Some(header) = ready {
            self.maybe_vote(header, ctx);
        }
    }

    /// Votes for a block whose dependencies are all satisfied, if the §3.1
    /// validity conditions hold.
    fn maybe_vote(&mut self, header: Header, ctx: &mut Ctx<C::Ext>) {
        if !parents_certified(&header, &self.dag) {
            return;
        }
        self.advance_round(ctx);
        self.certifier
            .vote(&header, self.round, &self.dag, &self.id, ctx);
    }

    fn handle_vote(&mut self, vote: Vote, ctx: &mut Ctx<C::Ext>) {
        if self.certifier.on_vote(vote, &self.id) {
            self.maybe_certify(ctx);
        }
    }

    fn maybe_certify(&mut self, ctx: &mut Ctx<C::Ext>) {
        if let Some(cert) = self.certifier.certify(&self.id, ctx) {
            let digest = cert.header_digest();
            self.process_certificate(cert, digest, ctx);
        }
    }

    /// A peer's certificate: dropped if it is behind GC, already held or
    /// does not verify. The block digest computed here is the one every
    /// later step uses.
    fn handle_certificate(&mut self, cert: Certificate, ctx: &mut Ctx<C::Ext>) {
        let digest = cert.header_digest();
        let committee = &self.id.committee;
        if cert.round() < self.dag.first_retained_round()
            || self.dag.contains_digest(&digest)
            || self.synchronizer.verify(&cert, &digest, committee).is_err()
        {
            return;
        }
        self.transfer.maybe_trigger(&cert, &self.dag, &self.id, ctx);
        self.synchronizer
            .maybe_range_pull(&cert, self.round, &self.dag, &self.id, ctx);
        self.process_certificate(cert, digest, ctx);
    }

    /// Accepts a verified certificate, whose block has digest `digest`:
    /// inserts it if its ancestry is locally complete (the synchronizer
    /// suspends it otherwise), then resumes suspended descendants,
    /// cascading.
    fn process_certificate(&mut self, cert: Certificate, digest: Digest, ctx: &mut Ctx<C::Ext>) {
        let (dag, id) = (&self.dag, &self.id);
        let Some(cert) = self.synchronizer.admit(cert, digest, dag, id, ctx) else {
            return;
        };
        let mut ready = vec![digest];
        self.insert_certificate(cert, digest, ctx);
        while let Some(parent) = ready.pop() {
            for child in self.synchronizer.suspended_on(&parent) {
                let digest = child.header_digest();
                if self.synchronizer.release(&child, &digest, &self.dag) {
                    ready.push(digest);
                    self.insert_certificate(child, digest, ctx);
                }
            }
        }
    }

    /// Inserts an ancestry-complete certificate (its block's digest
    /// `digest`) into the DAG and runs all downstream reactions, in the
    /// module doc's order.
    fn insert_certificate(&mut self, cert: Certificate, digest: Digest, ctx: &mut Ctx<C::Ext>) {
        match self.dag.insert(cert.clone()) {
            InsertOutcome::BelowGc | InsertOutcome::Duplicate => return,
            InsertOutcome::Inserted => {}
        }
        fail_stop(self.id.store.put_certificate(&cert));
        // Sync before our own certificate's broadcast leaves (the effects
        // of this handler drain after it returns): once peers can hold the
        // certificate, a torn tail must not erase our record of having
        // proposed its payload, or a restarted incarnation re-proposes
        // those batches and the committee commits them twice. Found by
        // `sim_fuzz` (seed 219) before this barrier existed.
        if cert.origin() == self.id.me {
            fail_stop(self.id.store.barrier());
        }
        self.synchronizer.arrived(&digest);
        self.executor.on_certified(digest, &cert);
        // Wake any block proposal that waited on this certificate.
        self.wake(Wait::Parent, &digest, ctx);
        self.advance_round(ctx);
        let mut out = ConsensusOut::default();
        self.consensus.on_certificate(&self.dag, &cert, &mut out);
        self.apply_consensus_out(out, ctx);
        self.try_propose(ctx);
        self.drain_anchors(ctx);
    }

    /// Votes for every block that waited on `digest` alone.
    fn wake(&mut self, wait: Wait, digest: &Digest, ctx: &mut Ctx<C::Ext>) {
        while let Some(header) = self.synchronizer.next_ready(wait, digest) {
            self.maybe_vote(header, ctx);
        }
    }

    fn handle_report(&mut self, info: BatchInfo, ctx: &mut Ctx<C::Ext>) {
        let digest = info.digest;
        if self.proposer.on_report(info, &self.id) {
            self.try_propose(ctx);
        }
        self.wake(Wait::Batch, &digest, ctx);
        self.executor.on_report(digest);
        self.drain_execution(ctx);
    }

    fn handle_retry(&mut self, ctx: &mut Ctx<C::Ext>) {
        let now = ctx.now();
        self.synchronizer.retry(now, &self.id, ctx);
        if now.saturating_sub(self.round_entered) >= RESEND_DELAY {
            self.certifier
                .retransmit(self.round, &self.dag, &self.id, ctx);
        }
        self.transfer.retry(now, &self.id, ctx);
        self.executor.rearm_fetch();
        self.drain_anchors(ctx);
        self.drain_execution(ctx);
        ctx.timer(SYNC_RETRY_DELAY, TAG_RETRY);
    }

    /// Pushes the committed sequence through the engine; also the finish
    /// point for due snapshots — with or without an engine.
    fn drain_execution(&mut self, ctx: &mut Ctx<C::Ext>) {
        let (due, app) = (self.transfer.due, &mut self.transfer.app);
        self.executor.drain(due, app, &self.id, ctx);
        let has_engine = self.executor.has_engine();
        self.transfer.try_finish(has_engine, &self.id, ctx);
    }

    /// Installs a fully-downloaded, verified, quorum-signed snapshot: replaces the
    /// DAG, the ordered set, the sequence counter, consensus and app state
    /// wholesale, persists the new basis (install marker included, so
    /// checkers and recovery can license the sequence jump), and resumes
    /// normal DAG participation.
    fn install_snapshot(&mut self, package: SnapshotPackage, ctx: &mut Ctx<C::Ext>) {
        let base = &package.base;
        // Replace the DAG with the served window.
        let mut dag = Dag::new();
        dag.insert_genesis(Certificate::genesis_set(&self.id.committee));
        if let Some(gc_round) = base.gc_round {
            dag.gc(gc_round);
        }
        let mut frontier = base.frontier.clone();
        frontier.sort_by_key(Certificate::round);
        for cert in &frontier {
            dag.insert(cert.clone());
        }
        if !self.executor.install(&package, &dag, &self.id) {
            return; // the engine rejects the app state: keep ours
        }
        self.dag = dag;
        if !base.consensus.is_empty() {
            self.consensus.restore(&base.consensus);
        }
        // Everything queued against the pre-install view is void.
        let boundary = self.dag.first_retained_round();
        let sequence = self.executor.sequence;
        self.synchronizer.reset();
        self.certifier.reset(boundary);
        self.transfer.rebase(sequence);
        let ordered = &self.executor.ordered;
        let presumed_committed = self.proposer.reconcile(&self.dag, ordered, &self.id);
        fail_stop(self.persist_install(&package, &frontier, &presumed_committed));
        // Resume normal participation from the installed frontier.
        self.resume_round(ctx.now());
        self.advance_round(ctx);
        self.try_propose(ctx);
        self.drain_execution(ctx);
    }

    /// Persists the basis `install_snapshot` just adopted (`frontier` is
    /// the package's, sorted by round), then deletes what it supersedes.
    fn persist_install(
        &self,
        package: &SnapshotPackage,
        frontier: &[Certificate],
        presumed_committed: &[Digest],
    ) -> Result<(), BlockStoreError> {
        let (s, base) = (&self.id.store, &package.base);
        let (sequence, ordered) = (self.executor.sequence, &self.executor.ordered);
        // Old markers at sequences the install supersedes; collected before
        // the new basis lands so the cleanup below can tell them apart from
        // freshly-written ones.
        let stale_refs = s.ordered_refs()?;
        // Persist the new basis. Order matters against a torn tail: content
        // first (certificates, checkpoint, markers ascending, counter,
        // install marker, app state), the GC boundary last among state keys
        // — an unpruned DAG merely makes recovery descend into a hole,
        // stall, and re-fetch a snapshot; a pruned DAG with no recorded
        // basis would commit wrong content. The barrier seals the basis
        // before any deletion.
        for cert in frontier {
            s.put_certificate(cert)?;
        }
        s.put_consensus_checkpoint(&base.consensus)?;
        let mut refs = base.ordered.clone();
        refs.sort_by_key(|r| r.sequence);
        for r in &refs {
            s.put_ordered(&r.digest, r.sequence)?;
        }
        s.put_sequence(sequence)?;
        s.put_snapshot_install(sequence)?;
        if let Some(gc_round) = base.gc_round {
            s.put_gc_round(gc_round)?;
        }
        for digest in presumed_committed {
            s.put_committed_batch(digest)?;
        }
        s.put_app_state(package.manifest.sequence, &package.app)?;
        s.put_snapshot(package)?;
        s.barrier()?;
        // Cleanup: superseded markers, pruned certificates and votes.
        for (digest, seq) in stale_refs {
            if seq <= sequence && !ordered.contains(&digest) {
                s.delete_ordered(&digest)?;
            }
        }
        let boundary = self.dag.first_retained_round();
        s.gc_certificates_below(boundary)?;
        s.gc_votes_below(boundary)
    }
}

impl<C: DagConsensus> Actor for Primary<C> {
    type Message = NarwhalMsg<C::Ext>;

    fn on_start(&mut self, ctx: &mut Context<Self::Message>) {
        self.recover(ctx.now());
        let mut out = ConsensusOut::default();
        self.consensus.on_start(&mut out);
        self.apply_consensus_out(out, ctx);
        self.advance_round(ctx);
        self.try_propose(ctx);
        // Replay recovered commits through the engine before new ones land.
        self.drain_execution(ctx);
        ctx.timer(SYNC_RETRY_DELAY, TAG_RETRY);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<Self::Message>) {
        if tag >= CONSENSUS_TAG_BASE {
            let mut out = ConsensusOut::default();
            self.consensus
                .on_timer(tag - CONSENSUS_TAG_BASE, &self.dag, &mut out);
            self.apply_consensus_out(out, ctx);
            return;
        }
        match tag {
            TAG_PROPOSE => self.try_propose(ctx),
            TAG_RETRY => self.handle_retry(ctx),
            _ => {}
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>) {
        match msg {
            NarwhalMsg::Header(header) => self.handle_header(header, ctx),
            NarwhalMsg::Vote(vote) => self.handle_vote(vote, ctx),
            NarwhalMsg::Certificate(cert) => self.handle_certificate(cert, ctx),
            NarwhalMsg::CertRequest { digests } => serve_digests(&digests, from, &self.dag, ctx),
            NarwhalMsg::CertRangeRequest { from: lo, to: hi } => {
                serve_range(lo, hi, from, &self.dag, ctx)
            }
            NarwhalMsg::CertResponse { certs } => {
                for (digest, cert) in self.synchronizer.verified(certs, &self.dag, &self.id) {
                    self.process_certificate(cert, digest, ctx);
                }
                self.drain_anchors(ctx);
            }
            // A report vouches that our own store holds the batch (§4.2):
            // only our own workers can say so.
            NarwhalMsg::ReportBatch(info)
                if self.id.addr.worker_of(from).map(|(v, _)| v) == Some(self.id.me) =>
            {
                self.handle_report(info, ctx)
            }
            NarwhalMsg::SnapshotVote {
                sequence,
                manifest,
                sig,
            } => self.transfer.on_vote(sequence, manifest, sig, &self.id),
            NarwhalMsg::SnapshotRequest { sequence, cursor } => self
                .transfer
                .on_request(sequence, cursor, from, &self.id, ctx),
            response @ NarwhalMsg::SnapshotResponse { .. } => {
                if let Some(package) = self.transfer.on_response(response, from, &self.id, ctx) {
                    self.install_snapshot(package, ctx);
                }
            }
            NarwhalMsg::Ext(ext) => {
                if let Some(peer) = self.id.addr.primary_of(from) {
                    let mut out = ConsensusOut::default();
                    self.consensus.on_message(peer, ext, &self.dag, &mut out);
                    self.apply_consensus_out(out, ctx);
                }
            }
            // Worker-to-worker traffic is never addressed to primaries.
            _ => {}
        }
    }
}

/// The whole-primary checks: what only the router's order of calls decides.
/// Each component's own behaviour is tested in its file.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{NoConsensus, NoExt};
    use crate::node::NodeBuilder;
    use crate::testing::fixture::{batch, effects, Msg};
    use crate::testing::{certify, certify_header};
    use nt_crypto::{Hashable, Scheme};
    use nt_network::{Effect, MS};
    use nt_storage::{DynStore, MemStore};
    use nt_types::WorkerId;
    use std::collections::VecDeque;
    use std::sync::Arc;

    type Committed = (Committee, Vec<KeyPair>, Vec<Primary<NoConsensus>>);

    /// Four primaries (over `stores`, if given), started, with batch `v` of
    /// every validator `v` reported everywhere (workers replicate every
    /// batch before its digest is proposed, §4.2), and every message of a
    /// round up to `rounds` routed, at one instant and with no timer fired,
    /// until none is left. (Nothing orders the payload here, so the
    /// committee would go on for ever: blocks above `rounds` are lost.)
    fn certified_rounds(rounds: Round, stores: Option<&[DynStore]>) -> Committed {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let build = |v: usize| {
            let builder = NodeBuilder::new(committee.clone(), v as u32).keypair(kps[v].clone());
            match stores {
                Some(stores) => builder.store(stores[v].clone()),
                None => builder,
            }
            .build_primary(NoConsensus)
        };
        let mut primaries: Vec<Primary<NoConsensus>> = (0..4).map(build).collect();
        let mut queue: VecDeque<(NodeId, NodeId, Msg)> = VecDeque::new();
        for (v, primary) in primaries.iter_mut().enumerate() {
            let mut ctx = Context::new(0, v);
            primary.on_start(&mut ctx);
            for creator in 0..4 {
                let report = NarwhalMsg::ReportBatch(batch(creator, creator as u64));
                primary.on_message(4 + v, report, &mut ctx);
            }
            queue.extend(effects(&mut ctx, 0).0.into_iter().map(|(to, m)| (v, to, m)));
        }
        let round_of = |msg: &Msg| match msg {
            NarwhalMsg::Header(header) => header.round,
            NarwhalMsg::Vote(vote) => vote.round,
            NarwhalMsg::Certificate(cert) => cert.round(),
            _ => 0,
        };
        let mut hops = 0;
        while let Some((from, to, msg)) = queue.pop_front() {
            hops += 1;
            assert!(hops < 10_000, "message routing must terminate");
            if round_of(&msg) > rounds {
                continue;
            }
            if let Some(primary) = primaries.get_mut(to) {
                let mut ctx = Context::new(2 * MS, to);
                primary.on_message(from, msg, &mut ctx);
                queue.extend(effects(&mut ctx, 0).0.into_iter().map(|(n, m)| (to, n, m)));
            }
        }
        (committee, kps, primaries)
    }

    /// Headers -> votes -> certificates -> round 2, across four primaries.
    #[test]
    fn full_round_certifies_and_advances() {
        let (_, _, primaries) = certified_rounds(1, None);
        for (v, p) in primaries.iter().enumerate() {
            assert_eq!(p.round(), 2, "validator {v}");
            assert_eq!(p.dag().round_size(1), 4, "all round-1 blocks certified");
        }
    }

    /// Rules 1 and 2 across four primaries: round 1 certified everyone's
    /// batch and nothing orders it, so every later round is proposed in the
    /// handler that completes the one before — no timer fires, the clock
    /// never moves — and over all four blocks of it, not the first three.
    #[test]
    fn certified_payload_keeps_rounds_coming_at_message_speed_and_orphans_nothing() {
        let (_, _, primaries) = certified_rounds(5, None);
        for (v, p) in primaries.iter().enumerate() {
            assert_eq!(p.round(), 6, "validator {v}");
            let counts = p.proposal_counts();
            assert_eq!(
                (counts.payload, counts.followed, counts.deadline),
                (1, 5, 0),
                "validator {v}"
            );
            assert!(p.executor.awaits_anchor());
            for round in 2..=5 {
                let mut blocks = p.dag().round_certs(round);
                assert!(blocks.all(|c| c.header.parents.len() == 4), "round {round}");
                assert_eq!(p.dag().round_size(round), 4);
            }
        }
    }

    #[test]
    fn restarted_primary_recovers_dag_round_and_vote_locks() {
        let stores: Vec<DynStore> = (0..4).map(|_| Arc::new(MemStore::new()) as _).collect();
        let (committee, kps, primaries) = certified_rounds(1, Some(&stores));
        let old = &primaries[0];
        assert_eq!(old.round(), 2, "round 1 certified everywhere");
        let in_flight = old.certifier.current_header.clone();
        assert_eq!(in_flight.as_ref().map(|h| h.round), Some(2), "and left");
        // Crash validator 0 and boot a fresh incarnation over its store.
        let mut revived = NodeBuilder::new(committee.clone(), 0)
            .keypair(kps[0].clone())
            .store(stores[0].clone())
            .build_primary(NoConsensus);
        let mut ctx = Context::new(5 * MS, 0);
        revived.on_start(&mut ctx);
        assert_eq!(revived.round(), old.round(), "round recovered from quorums");
        assert_eq!(
            revived.dag().len(),
            old.dag().len(),
            "DAG recovered, not genesis"
        );
        assert_eq!(revived.dag().round_size(1), 4);
        assert!(revived.executor.awaits_anchor(), "round 1 carries payload");
        // Round 2 is signed already: its block is re-armed, never replaced.
        let (sent, _) = effects(&mut ctx, 0);
        let proposal = |(_, m): &(NodeId, Msg)| matches!(m, NarwhalMsg::Header(_));
        assert!(
            !sent.iter().any(proposal),
            "never re-proposes a signed round"
        );
        assert_eq!(revived.certifier.current_header, in_flight);
        // Our round-1 block carried our own batch and is certified but not
        // committed (NoConsensus): the recovered worker's re-report must NOT
        // queue the batch for a second proposal (its transactions would
        // commit twice). Round 2 closes without our block; at the header
        // delay the round-3 block replaces it, and is empty.
        revived.on_message(4, NarwhalMsg::ReportBatch(batch(0, 0)), &mut ctx);
        let parents: Vec<Digest> = revived
            .dag()
            .round_certs(1)
            .map(|c| c.header_digest())
            .collect();
        for author in 1..4 {
            let cert = certify(&committee, &kps, author, 2, parents.clone());
            revived.on_message(author as NodeId, NarwhalMsg::Certificate(cert), &mut ctx);
        }
        assert_eq!(revived.round(), 3);
        assert!(!effects(&mut ctx, 0).0.iter().any(proposal), "rule 2");
        let mut ctx = Context::new(5 * MS + revived.id.config.max_header_delay, 0);
        revived.on_timer(TAG_PROPOSE, &mut ctx);
        match &effects(&mut ctx, 0).0[0].1 {
            NarwhalMsg::Header(header) => assert_eq!((header.round, header.payload.len()), (3, 0)),
            other => panic!("expected the round-3 block, got {other:?}"),
        }
    }

    /// Orders every block the moment it is certified.
    struct AnchorEveryBlock;

    impl DagConsensus for AnchorEveryBlock {
        type Ext = NoExt;

        fn on_certificate(&mut self, _: &Dag, cert: &Certificate, out: &mut ConsensusOut<NoExt>) {
            out.anchors.push(cert.clone());
        }
    }

    /// With one WAL per role (`narwhal-node`) the primary's GC never reaches
    /// its worker's store, and a worker that restarts alone re-reports all
    /// of it — own batches that committed rounds ago, whose blocks are long
    /// pruned, included. None of them may leave in a second block.
    #[test]
    fn a_worker_restarting_alone_cannot_make_its_primary_propose_a_committed_batch_again() {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let config = NarwhalConfig {
            gc_depth: 1,
            ..NarwhalConfig::default()
        };
        let deadline = config.max_header_delay;
        let mut p = NodeBuilder::new(committee.clone(), 0)
            .keypair(kps[0].clone())
            .config(config)
            .store(Arc::new(MemStore::new()))
            .build_primary(AnchorEveryBlock);
        let mut ctx: Ctx<NoExt> = Context::new(0, 0);
        p.on_start(&mut ctx);
        // Our batch leaves in our round-1 block, which certifies and commits.
        let own = batch(0, 1);
        p.on_message(4, NarwhalMsg::ReportBatch(own.clone()), &mut ctx);
        let block = p.certifier.current_header.clone().expect("proposed");
        assert_eq!(block.payload, vec![(own.digest, own.worker)]);
        for (v, kp) in kps.iter().enumerate().skip(1).take(2) {
            let vote = Vote::new(kp, ValidatorId(v as u32), block.digest(), 1, p.id.me);
            p.on_message(v, NarwhalMsg::Vote(vote), &mut ctx);
        }
        // The peers' rounds 1 and 2: round 2's anchors move GC past it.
        let mut parents: Vec<Digest> = p.dag.round_certs(0).map(|c| c.header_digest()).collect();
        for round in 1..=2 {
            let certs = (1..4).map(|a| certify(&committee, &kps, a, round, parents.clone()));
            let certs: Vec<Certificate> = certs.collect();
            parents = certs.iter().map(Certificate::header_digest).collect();
            for cert in certs {
                p.on_message(
                    cert.origin().0 as NodeId,
                    NarwhalMsg::Certificate(cert),
                    &mut ctx,
                );
            }
        }
        assert_eq!((p.round(), p.dag.first_retained_round()), (3, 2));
        let carried_txs =
            |e: &Effect<Msg>| matches!(e, Effect::Commit(event) if event.tx_count > 0);
        let commits = ctx.drain().into_iter().filter(carried_txs).count();
        assert_eq!(commits, 1, "our batch committed, once");
        // The worker restarts and reports the batch again: no block now, and
        // an empty one when the idle round's deadline comes.
        p.on_message(4, NarwhalMsg::ReportBatch(own), &mut ctx);
        assert!(effects(&mut ctx, 0).0.is_empty(), "nothing to propose");
        let mut ctx = Context::new(deadline, 0);
        p.on_timer(TAG_PROPOSE, &mut ctx);
        match &effects(&mut ctx, 0).0[0].1 {
            NarwhalMsg::Header(header) => assert_eq!((header.round, header.payload.len()), (3, 0)),
            other => panic!("expected the round-3 block, got {other:?}"),
        }
    }

    /// Only this validator's own workers vouch for a batch. A report from a
    /// client, a peer primary or a peer's worker is dropped whole: it joins
    /// no proposal and releases no vote (§4.2's availability check). The
    /// same reports from our own worker do both.
    #[test]
    fn batch_reports_count_only_from_our_own_workers() {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let mut p = NodeBuilder::new(committee.clone(), 0)
            .keypair(kps[0].clone())
            .build_primary(NoConsensus);
        p.on_start(&mut Context::new(0, 0));
        let (own, peer) = (batch(0, 1), batch(2, 7));
        let genesis = Certificate::genesis_set(&committee);
        let parents: Vec<Digest> = genesis.iter().map(Certificate::header_digest).collect();
        let payload = vec![(peer.digest, peer.worker)];
        let header = Header::new(&kps[2], ValidatorId(2), 1, payload, parents, None);
        let deliver = |p: &mut Primary<NoConsensus>, from: NodeId, msg: Msg| {
            let mut ctx: Ctx<NoExt> = Context::new(MS, 0);
            p.on_message(from, msg, &mut ctx);
            effects(&mut ctx, TAG_PROPOSE).0
        };
        // A client, validator 1's primary, validator 2's worker.
        for from in [nt_network::CLIENT, 1, 6] {
            for info in [&own, &peer] {
                let sends = deliver(&mut p, from, NarwhalMsg::ReportBatch(info.clone()));
                assert!(sends.is_empty(), "a report from {from} was acted on");
            }
        }
        assert!(p.certifier.current_header.is_none(), "nothing proposed");
        let sends = deliver(&mut p, 2, NarwhalMsg::Header(header));
        let voted = sends.iter().any(|(_, m)| matches!(m, NarwhalMsg::Vote(_)));
        assert!(!voted, "no vote for a batch our workers lack");
        // Our own worker is node 4.
        let sends = deliver(&mut p, 4, NarwhalMsg::ReportBatch(peer));
        assert!(
            matches!(&sends[..], [(2, NarwhalMsg::Vote(_))]),
            "{sends:?}"
        );
        deliver(&mut p, 4, NarwhalMsg::ReportBatch(own.clone()));
        let proposed = p.certifier.current_header.as_ref().expect("proposed");
        assert_eq!(proposed.payload, vec![(own.digest, own.worker)]);
    }

    /// A payload-bearing block gets its vote once its batch is stored, and
    /// releases nothing: only its certificate makes the round live (rule 1),
    /// and an idle primary proposes in the very handler that inserts it. A
    /// block of the round behind gets its vote too (rule 3), and releases
    /// nothing either.
    #[test]
    fn a_stored_batch_releases_the_vote_and_certified_payload_our_block() {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let mut p = NodeBuilder::new(committee.clone(), 0)
            .keypair(kps[0].clone())
            .build_primary(NoConsensus);
        p.on_start(&mut Context::new(0, 0));
        let genesis = Certificate::genesis_set(&committee);
        let parents: Vec<Digest> = genesis.iter().map(Certificate::header_digest).collect();
        let block = |author: usize, payload: Vec<(Digest, WorkerId)>| {
            let author_id = ValidatorId(author as u32);
            Header::new(&kps[author], author_id, 1, payload, parents.clone(), None)
        };
        let deliver = |p: &mut Primary<NoConsensus>, from: NodeId, msg: Msg, now: Time| {
            let mut ctx: Ctx<NoExt> = Context::new(now, 0);
            p.on_message(from, msg, &mut ctx);
            let (sends, timers) = effects(&mut ctx, TAG_PROPOSE);
            let voted = sends.iter().any(|(_, m)| matches!(m, NarwhalMsg::Vote(_)));
            let proposed = sends
                .iter()
                .any(|(_, m)| matches!(m, NarwhalMsg::Header(_)));
            (voted, proposed, timers.len())
        };
        let empty = NarwhalMsg::Header(block(1, vec![]));
        assert_eq!(
            deliver(&mut p, 1, empty, MS),
            (true, false, 0),
            "the timer is armed already"
        );
        let held = batch(2, 7);
        let loaded = block(2, vec![(held.digest, held.worker)]);
        assert_eq!(
            deliver(&mut p, 2, NarwhalMsg::Header(loaded.clone()), 2 * MS),
            (false, false, 0),
            "batch not stored: no vote"
        );
        let report = NarwhalMsg::ReportBatch(held.clone());
        assert_eq!(
            deliver(&mut p, 4, report, 3 * MS),
            (true, false, 0),
            "the report releases the vote only"
        );
        // Validator 2's certified payload awaits an anchor: round 1 is live,
        // and our block leaves in the handler that inserts the certificate.
        let empty = certify_header(&committee, &kps, block(1, vec![]));
        let empty = deliver(&mut p, 1, NarwhalMsg::Certificate(empty), 4 * MS);
        assert_eq!(empty, (false, false, 0), "no payload, not live");
        let loaded = certify_header(&committee, &kps, loaded);
        let loaded = deliver(&mut p, 2, NarwhalMsg::Certificate(loaded), 4 * MS);
        assert_eq!(loaded, (false, true, 0), "rule 1");
        // Round 2 opens on the certificates of validators 1 and 2 and our
        // own. The round is live, and every block we voted for is
        // certified: our next block leaves in the handler that completes
        // our certificate.
        let vote = |v: usize, header: &Header| {
            let voter = ValidatorId(v as u32);
            Vote::new(&kps[v], voter, header.digest(), header.round, header.author)
        };
        let own = p.certifier.current_header.clone().expect("in flight");
        let first_vote = deliver(&mut p, 1, NarwhalMsg::Vote(vote(1, &own)), 4 * MS);
        assert_eq!(first_vote, (false, false, 0), "two of three");
        assert_eq!(
            deliver(&mut p, 2, NarwhalMsg::Vote(vote(2, &own)), 5 * MS),
            (false, true, 0),
            "certified, round 2 entered and proposed in, all at once"
        );
        // Validator 3's round-1 block arrives only now: a block of the round
        // behind still gets its vote (rule 3), and releases nothing.
        let late = NarwhalMsg::Header(block(3, vec![(held.digest, held.worker)]));
        assert_eq!(deliver(&mut p, 3, late, 6 * MS), (true, false, 0));
        let counts = p.proposal_counts();
        assert_eq!(
            (p.round(), counts.followed, counts.payload, counts.deadline),
            (2, 2, 0, 0)
        );
        let proposed = p.certifier.current_header.as_ref().expect("in flight");
        assert_eq!((proposed.round, proposed.parents.len()), (2, 3));
    }
}
