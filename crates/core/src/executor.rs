//! The executor: from decided anchors to the committed, numbered, applied
//! sequence (§5 linearization, §8.4 execution).
//!
//! Owns the anchors awaiting a complete causal history (`pending_anchors`),
//! the set of blocks already in the sequence (`ordered`) and its counter
//! (`sequence`), its complement among the payload-bearing blocks of the DAG
//! (`unordered_payload`: what the committee still owes an anchor, and so
//! what keeps a round live), the execution engine, and the engine's backlog
//! with its three bookkeeping sets (`exec_*`).
//!
//! Outcomes: [`Executor::next_anchor`] returns the next anchor with the
//! history to commit under it, or the certificates that history still
//! misses; [`Executor::drain`] leaves the app bytes of a due snapshot point
//! the engine just reached.

use crate::dag::Dag;
use crate::messages::NarwhalMsg;
use crate::primary::{Ctx, Identity};
use crate::store::{disk, fail_stop, BlockStore, BlockStoreError};
use nt_crypto::Digest;
use nt_execution::{BatchData, Execution, SnapshotPackage};
use nt_types::{Certificate, CommitEvent, ValidatorId};
use std::collections::{HashSet, VecDeque};

/// An anchor pending linearization: either a held certificate or a digest
/// still being resolved (Narwhal-HS commits digests).
// The size gap between variants is fine: the queue is short-lived and small.
#[allow(clippy::large_enum_variant)]
enum AnchorKey {
    Cert(Certificate),
    Digest(Digest, ValidatorId),
}

/// An anchor with the history to commit under it.
type Settled = (Certificate, Vec<Certificate>);

#[derive(Default)]
pub(crate) struct Executor {
    /// Headers already ordered into the committed sequence.
    pub(crate) ordered: HashSet<Digest>,
    /// Payload-bearing blocks of the DAG no anchor has ordered yet: filled
    /// as they are certified, emptied as they are ordered or pruned.
    unordered_payload: HashSet<Digest>,
    /// Anchors waiting for their causal history to be locally complete.
    pending_anchors: VecDeque<AnchorKey>,
    /// The number of blocks committed so far.
    pub(crate) sequence: u64,
    /// Execution engine consuming the committed sequence (§8.4), if any.
    engine: Option<Box<dyn Execution>>,
    /// Commits awaiting batch resolution and engine apply. The flag says
    /// whether the event is emitted after apply (`false` replays history
    /// that was already externalized before a restart or install).
    backlog: VecDeque<(CommitEvent, bool)>,
    /// Batch digest the backlog front is blocked on (fetch in flight).
    waiting: Option<Digest>,
    /// Batches whose fetch round-trip completed but whose bytes the
    /// primary's store cannot serve (split primary/worker stores): folded
    /// as [`BatchData::Missing`] from then on. Every validator of such a
    /// deployment folds identically, so app roots still agree.
    unresolved: HashSet<Digest>,
    /// Batch deletions GC owed but could not take because the execution
    /// backlog still needed the bytes; settled after the engine applies
    /// the referencing commit.
    deferred_delete: HashSet<Digest>,
}

impl Executor {
    pub(crate) fn new(engine: Option<Box<dyn Execution>>) -> Self {
        Executor {
            engine,
            ..Self::default()
        }
    }

    pub(crate) fn has_engine(&self) -> bool {
        self.engine.is_some()
    }

    /// Recovers the ordered markers and the commit-sequence counter, then
    /// restores the engine: loads the persisted app state and queues any
    /// ordered markers above it for re-apply. The app record is written
    /// after each commit's ordered marker, so it can only be at or behind
    /// the recovered counter.
    pub(crate) fn recover(&mut self, store: &BlockStore, dag: &Dag) -> Result<(), BlockStoreError> {
        let (ordered, marker_seq) = store.load_ordered()?;
        self.ordered = ordered;
        self.rebuild_unordered(dag);
        // The counter resumes at the highest sequence any surviving marker
        // carries; the separately-persisted floor covers markers GC
        // deleted. Taking the max keeps both torn-tail cuts consistent.
        self.sequence = store.sequence()?.max(marker_seq);
        let Some(engine) = self.engine.as_mut() else {
            return Ok(());
        };
        let restored = match store.app_state()? {
            Some(state) => Some(state),
            // No per-commit record (an engine newly attached over an old
            // store): fall back to our latest snapshot, if any.
            None => store
                .latest_snapshot()?
                .map(|package| (package.manifest.sequence, package.app)),
        };
        let mut floor = 0;
        if let Some((sequence, bytes)) = restored {
            // What this validator wrote itself and the store checksummed
            // does not parse: no state to resume from.
            fail_stop(engine.restore(sequence, &bytes));
            floor = sequence;
        }
        let refs = store.ordered_refs()?;
        self.replay(refs, floor, dag);
        Ok(())
    }

    /// Queues committed blocks in `(floor, sequence]` for re-apply through
    /// the engine (without re-emitting them), resolving each position from
    /// the DAG by its ordered marker. Positions whose markers or
    /// certificates are gone are already folded into the restored state.
    fn replay(&mut self, refs: impl IntoIterator<Item = (Digest, u64)>, floor: u64, dag: &Dag) {
        for (digest, seq) in refs {
            if seq <= floor || seq > self.sequence {
                continue;
            }
            let Some(cert) = dag.get_by_digest(&digest) else {
                continue;
            };
            let event = CommitEvent {
                sequence: seq,
                round: cert.round(),
                author: cert.origin(),
                payload: cert.header.payload.clone(),
                header_digest: digest,
                ..Default::default()
            };
            self.backlog.push_back((event, false));
        }
    }

    /// `cert`, whose block digest is `digest`, entered the DAG: if it
    /// carries payload, the committee owes it an anchor from now on.
    pub(crate) fn on_certified(&mut self, digest: Digest, cert: &Certificate) {
        if !cert.header.payload.is_empty() && !self.ordered.contains(&digest) {
            self.unordered_payload.insert(digest);
        }
    }

    /// Whether the DAG holds certified payload that awaits its anchor.
    pub(crate) fn awaits_anchor(&self) -> bool {
        !self.unordered_payload.is_empty()
    }

    /// Re-derives `unordered_payload` from a wholesale-replaced `dag` and
    /// `ordered` set (recovery, snapshot install).
    fn rebuild_unordered(&mut self, dag: &Dag) {
        self.unordered_payload.clear();
        for round in dag.first_retained_round()..=dag.highest_round() {
            for cert in dag.round_certs(round) {
                self.on_certified(cert.header_digest(), cert);
            }
        }
    }

    /// Queues decided anchors; `true` if there is anything to drain.
    pub(crate) fn enqueue(
        &mut self,
        anchors: Vec<Certificate>,
        anchor_digests: Vec<(Digest, ValidatorId)>,
    ) -> bool {
        let had_anchors = !anchors.is_empty() || !anchor_digests.is_empty();
        self.pending_anchors
            .extend(anchors.into_iter().map(AnchorKey::Cert));
        self.pending_anchors.extend(
            anchor_digests
                .into_iter()
                .map(|(d, hint)| AnchorKey::Digest(d, hint)),
        );
        had_anchors
    }

    /// Pops the front anchor once its causal history is locally complete,
    /// strictly in order (§5: the committed leader sequence is common to
    /// all validators, so linearization must not skip ahead). `Ok(None)`:
    /// the queue is drained. `Err`: the front anchor stays until these
    /// certificates, each with whom to ask, are pulled.
    pub(crate) fn next_anchor(
        &mut self,
        dag: &Dag,
    ) -> Result<Option<Settled>, Vec<(Digest, ValidatorId)>> {
        while let Some(key) = self.pending_anchors.front() {
            let anchor = match key {
                AnchorKey::Cert(cert) => cert.clone(),
                // Already linearized via an earlier anchor.
                AnchorKey::Digest(digest, _) if self.ordered.contains(digest) => {
                    self.pending_anchors.pop_front();
                    continue;
                }
                AnchorKey::Digest(digest, hint) => match dag.get_by_digest(digest) {
                    Some(cert) => cert.clone(),
                    None => return Err(vec![(*digest, *hint)]),
                },
            };
            if anchor.round() < dag.first_retained_round() {
                // The whole wave was garbage collected (we were far behind);
                // skip it — peers committed it long ago.
                self.pending_anchors.pop_front();
                continue;
            }
            return match dag.collect_history(&anchor, &self.ordered) {
                Ok(history) => {
                    self.pending_anchors.pop_front();
                    Ok(Some((anchor, history)))
                }
                Err(missing) => Err(missing.into_iter().map(|d| (d, anchor.origin())).collect()),
            };
        }
        Ok(None)
    }

    /// Enters `digest` into the committed sequence; returns its position.
    pub(crate) fn order(&mut self, digest: Digest, id: &Identity) -> u64 {
        self.ordered.insert(digest);
        self.unordered_payload.remove(&digest);
        self.sequence += 1;
        // One record carries the marker AND its sequence number, so a
        // torn tail can only lose whole commits — never leave the
        // counter and the ordered set disagreeing (recovery would then
        // renumber the replay and diverge from the committee).
        if !id.config.bugs.skip_ordered_persist {
            let persisted_seq = if id.config.bugs.skip_sequence_persist {
                0
            } else {
                self.sequence
            };
            disk(&id.store, |s| s.put_ordered(&digest, persisted_seq));
        }
        self.sequence
    }

    /// Externalizes a commit: at once, or — with an engine — only after
    /// the engine applies it (and stamps `app_root`), in [`Executor::drain`].
    pub(crate) fn deliver<E>(&mut self, event: CommitEvent, ctx: &mut Ctx<E>) {
        if self.engine.is_some() {
            self.backlog.push_back((event, true));
        } else {
            ctx.commit(event);
        }
    }

    /// Garbage collection: drops the ordered markers of the `pruned` blocks
    /// and the bytes of the `forgotten` batches — except batch bytes the
    /// execution backlog has yet to apply: a validator catching up after
    /// an outage commits (and GCs) far ahead of its engine, and deleting
    /// these now would force the engine to fold them as missing while
    /// every peer applied them in full — a permanent app-root split.
    /// Deletion is deferred to the apply point instead ([`Executor::drain`]).
    pub(crate) fn prune(&mut self, pruned: &[Certificate], forgotten: &[Digest], id: &Identity) {
        let store = &id.store;
        for cert in pruned {
            let digest = cert.header_digest();
            self.ordered.remove(&digest);
            self.unordered_payload.remove(&digest);
            disk(store, |s| s.delete_ordered(&digest));
        }
        let backlog = self.backlog.iter();
        let pending: HashSet<&Digest> = backlog
            .flat_map(|(event, _)| event.payload.iter().map(|(digest, _)| digest))
            .collect();
        for batch_digest in forgotten {
            self.unresolved.remove(batch_digest);
            if pending.contains(batch_digest) {
                self.deferred_delete.insert(*batch_digest);
            } else {
                disk(store, |s| s.delete_batch(batch_digest));
            }
        }
    }

    /// Our worker reported `digest`; if the backlog front was blocked on
    /// it, the fetch round-trip completed. If the store still cannot serve
    /// the bytes (split primary/worker stores), the digest is folded as
    /// missing from here on; `drain` re-checks the store first, so this
    /// mark is moot wherever it can read.
    pub(crate) fn on_report(&mut self, digest: Digest) {
        if self.waiting == Some(digest) {
            self.waiting = None;
            self.unresolved.insert(digest);
        }
    }

    /// Re-arms a possibly-lost batch fetch the backlog blocks on: clearing
    /// the in-flight marker lets `drain` re-send.
    pub(crate) fn rearm_fetch(&mut self) {
        self.waiting = None;
    }

    /// Pushes the committed sequence through the execution engine, in
    /// order, resolving each commit's batches first. The front of the
    /// backlog blocks (at most one fetch in flight) until its batches are
    /// either served by the store or deterministically folded as missing.
    /// Leaves the app bytes in `snapshot_app` when the engine reaches
    /// exactly the `snapshot_due` sequence.
    pub(crate) fn drain<E>(
        &mut self,
        snapshot_due: Option<u64>,
        snapshot_app: &mut Option<Vec<u8>>,
        id: &Identity,
        ctx: &mut Ctx<E>,
    ) {
        let store = &id.store;
        while let (Some(engine), Some((front, _))) = (self.engine.as_mut(), self.backlog.front()) {
            let mut batches: Vec<BatchData> = Vec::with_capacity(front.payload.len());
            let mut missing = None;
            for (digest, worker) in &front.payload {
                match disk(store, |s| s.get_batch(digest)).flatten() {
                    Some(batch) => batches.push(BatchData::Full(batch)),
                    None if store.is_some() && !self.unresolved.contains(digest) => {
                        missing = Some((*digest, *worker));
                        break;
                    }
                    // No store at all (the primary never sees batch
                    // bytes) or a completed fetch the store still cannot
                    // serve (split primary/worker stores): fold the
                    // commitment. Deterministic per deployment.
                    None => batches.push(BatchData::Missing(*digest)),
                }
            }
            if let Some((digest, worker)) = missing {
                if self.waiting != Some(digest) {
                    self.waiting = Some(digest);
                    let creator = front.author;
                    ctx.send(
                        id.addr.worker(id.me, worker),
                        NarwhalMsg::FetchBatch {
                            digest,
                            worker,
                            creator,
                        },
                    );
                }
                break;
            }
            self.waiting = None;
            let Some((mut event, emit)) = self.backlog.pop_front() else {
                break;
            };
            event.app_root = engine.apply(&event, &batches);
            // Settle deletions GC deferred on this commit's behalf —
            // unless a later backlog entry also references the digest.
            let still_needed = |digest: &Digest| {
                self.backlog
                    .iter()
                    .any(|(e, _)| e.payload.iter().any(|(d, _)| d == digest))
            };
            for (digest, _) in &event.payload {
                if self.deferred_delete.contains(digest) && !still_needed(digest) {
                    self.deferred_delete.remove(digest);
                    disk(store, |s| s.delete_batch(digest));
                }
            }
            // Written after the commit's ordered marker, so recovery sees
            // app state at or behind the replay floor.
            disk(store, |s| {
                s.put_app_state(event.sequence, &engine.snapshot())
            });
            if snapshot_due == Some(event.sequence) {
                *snapshot_app = Some(engine.snapshot());
            }
            if emit {
                ctx.commit(event);
            }
        }
    }

    /// Installs a verified snapshot `package` over the rebuilt `dag`:
    /// restores the engine, adopts the served order and counter, and queues
    /// the `(manifest.sequence, checkpoint_seq]` gap for re-apply without
    /// re-emitting (the committee externalized these long ago). `false`,
    /// with nothing replaced, if the engine rejects the app bytes.
    pub(crate) fn install(&mut self, package: &SnapshotPackage, dag: &Dag, id: &Identity) -> bool {
        let floor = package.manifest.sequence;
        if let Some(engine) = self.engine.as_mut() {
            if engine.restore(floor, &package.app).is_err() {
                return false;
            }
        }
        let base = &package.base;
        self.ordered = base.ordered.iter().map(|r| r.digest).collect();
        self.sequence = base.checkpoint_seq;
        self.rebuild_unordered(dag);
        // Everything queued against the pre-install view is void.
        self.pending_anchors.clear();
        self.backlog.clear();
        self.waiting = None;
        // The discarded backlog will never apply, so the deletions GC
        // deferred on its behalf are due now — the installed app state
        // already covers those commits.
        for digest in std::mem::take(&mut self.deferred_delete) {
            disk(&id.store, |s| s.delete_batch(&digest));
        }
        if self.engine.is_some() {
            let refs = base.ordered.iter().map(|r| (r.digest, r.sequence));
            self.replay(refs, floor, dag);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{NoConsensus, NoExt};
    use crate::testing::fixture::{durable, effects, identity};
    use crate::testing::{certify_header, DagBench};
    use nt_execution::{LedgerApp, OrderedRef, SnapshotBase, SnapshotManifest};
    use nt_network::Effect;
    use nt_types::{Batch, Header, WorkerId};

    type Ctx = crate::primary::Ctx<NoExt>;

    fn with_engine() -> Executor {
        Executor::new(Some(Box::new(LedgerApp::new())))
    }

    /// Validator 0 of four, durable.
    fn durable_identity() -> Identity {
        Identity {
            store: durable(),
            ..identity(&DagBench::new(4, |_| NoConsensus), 0)
        }
    }

    /// Peer batch number `seq`, stored if a store is given: its digest.
    fn peer_batch(seq: u64, store: Option<&BlockStore>) -> Digest {
        let batch = Batch::synthetic(ValidatorId(1), WorkerId(0), seq, 10, 1_000, vec![]);
        let (digest, bytes) = BlockStore::encode_batch(&batch);
        if let Some(store) = store {
            store.put_batch(&digest, &bytes).expect("store");
        }
        digest
    }

    /// Orders a block carrying `batches` and hands its commit to `executor`.
    fn commit(executor: &mut Executor, batches: &[Digest], id: &Identity, ctx: &mut Ctx) {
        let block = Digest::of_parts(&[b"block", &executor.sequence.to_le_bytes()]);
        let event = CommitEvent {
            sequence: executor.order(block, id),
            payload: batches.iter().map(|d| (*d, WorkerId(0))).collect(),
            ..Default::default()
        };
        executor.deliver(event, ctx);
    }

    fn commits(ctx: &mut Ctx) -> Vec<CommitEvent> {
        let commit = |effect| match effect {
            Effect::Commit(event) => Some(event),
            _ => None,
        };
        ctx.drain().into_iter().filter_map(commit).collect()
    }

    #[test]
    fn anchors_settle_strictly_in_order_and_name_what_they_miss() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        bench.full_round(1);
        let held = bench.dag.get(1, ValidatorId(0)).expect("fed").clone();
        let absent = bench.make_round(2, &[1], |_| bench.parents(1)).remove(0);
        let mut executor = Executor::default();
        assert!(!executor.enqueue(vec![], vec![]));
        let by_digest = vec![(absent.header_digest(), ValidatorId(1))];
        assert!(executor.enqueue(vec![held.clone()], by_digest.clone()));
        let settled = executor.next_anchor(&bench.dag).expect("complete");
        let (anchor, history) = settled.expect("queued");
        assert_eq!(anchor, held);
        assert_eq!(history.len(), 5, "genesis and the anchor itself");
        // The second anchor is a digest we do not hold: it stays in front.
        assert_eq!(executor.next_anchor(&bench.dag), Err(by_digest.clone()));
        assert_eq!(executor.next_anchor(&bench.dag), Err(by_digest));
        bench.feed(vec![absent.clone()]);
        let settled = executor.next_anchor(&bench.dag).expect("complete");
        assert_eq!(settled.expect("queued").0, absent);
        assert_eq!(executor.next_anchor(&bench.dag), Ok(None));
    }

    /// Validator `author`'s round-1 block over genesis, certified, carrying
    /// one batch if `loaded`.
    fn round_one(bench: &DagBench<NoConsensus>, author: u32, loaded: bool) -> Certificate {
        let payload = loaded.then(|| (peer_batch(author as u64, None), WorkerId(0)));
        let header = Header::new(
            &bench.keypairs[author as usize],
            ValidatorId(author),
            1,
            payload.into_iter().collect(),
            bench.parents(0),
            None,
        );
        certify_header(&bench.committee, &bench.keypairs, header)
    }

    /// Rule 1, the set: a payload-bearing block awaits its anchor from the
    /// moment it is certified until it is ordered or pruned; an empty block
    /// never does.
    #[test]
    fn certified_payload_awaits_its_anchor_until_it_is_ordered_or_pruned() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let [empty, ordered, pruned] = [(0, false), (1, true), (2, true)]
            .map(|(author, loaded)| round_one(&bench, author, loaded));
        let mut executor = Executor::default();
        executor.on_certified(empty.header_digest(), &empty);
        assert!(!executor.awaits_anchor(), "an empty block owes nothing");
        executor.on_certified(ordered.header_digest(), &ordered);
        executor.on_certified(pruned.header_digest(), &pruned);
        assert!(executor.awaits_anchor());
        executor.order(ordered.header_digest(), &id);
        assert!(executor.awaits_anchor(), "the other one still does");
        executor.prune(std::slice::from_ref(&pruned), &[], &id);
        assert!(!executor.awaits_anchor(), "idle again");
        // A block the sequence already holds (re-delivered after an install).
        executor.on_certified(ordered.header_digest(), &ordered);
        assert!(!executor.awaits_anchor());
    }

    /// Rule 1 across a restart and a snapshot install: the set is derived
    /// state, rebuilt from the DAG and the ordered markers that replace it.
    #[test]
    fn recovery_and_install_rebuild_what_awaits_an_anchor() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        let id = durable_identity();
        let (first, second) = (round_one(&bench, 1, true), round_one(&bench, 2, true));
        bench.feed(vec![first.clone(), second.clone()]);
        let mut executor = Executor::default();
        executor.order(first.header_digest(), &id);
        let s = id.store.as_ref().expect("durable");
        let mut revived = Executor::default();
        revived.recover(s, &bench.dag).expect("store");
        let awaited = HashSet::from([second.header_digest()]);
        assert_eq!(revived.unordered_payload, awaited);
        // The served order covers both blocks: nothing is owed any more.
        let refs = [&first, &second].map(|c| OrderedRef {
            digest: c.header_digest(),
            sequence: c.origin().0 as u64,
        });
        let package = SnapshotPackage {
            manifest: SnapshotManifest::for_app(2, &[]),
            signatures: vec![],
            base: SnapshotBase {
                ordered: refs.to_vec(),
                checkpoint_seq: 2,
                ..Default::default()
            },
            app: vec![],
        };
        assert!(revived.install(&package, &bench.dag, &id));
        assert!(!revived.awaits_anchor());
        // And a window served with one of them still unordered owes it.
        let mut package = package;
        package.base.ordered.pop();
        assert!(revived.install(&package, &bench.dag, &id));
        assert_eq!(revived.unordered_payload, awaited);
    }

    #[test]
    fn the_sequence_and_its_markers_survive_a_restart() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let (id, mut ctx) = (durable_identity(), Ctx::new(0, 0));
        let mut executor = Executor::default();
        commit(&mut executor, &[], &id, &mut ctx);
        commit(&mut executor, &[], &id, &mut ctx);
        let sequences: Vec<u64> = commits(&mut ctx).iter().map(|e| e.sequence).collect();
        assert_eq!(sequences, vec![1, 2], "no engine: commits leave at once");
        let mut revived = Executor::default();
        let s = id.store.as_ref().expect("durable");
        revived.recover(s, &bench.dag).expect("store");
        assert_eq!(revived.sequence, 2);
        assert_eq!(revived.ordered, executor.ordered);
    }

    #[test]
    fn gc_defers_deleting_the_bytes_the_backlog_still_needs() {
        let (id, mut ctx) = (durable_identity(), Ctx::new(0, 0));
        let s = id.store.as_ref().expect("durable");
        let (needed, idle) = (peer_batch(1, Some(s)), peer_batch(2, Some(s)));
        let mut executor = with_engine();
        commit(&mut executor, &[needed], &id, &mut ctx);
        assert!(ctx.is_empty(), "an engine: a commit leaves after its apply");
        // GC passes both batches before the engine got to the commit.
        executor.prune(&[], &[needed, idle], &id);
        let held = |digest| s.has_batch(digest).expect("store");
        assert!(held(&needed) && !held(&idle), "deferred, not deleted");
        let mut app = None;
        executor.drain(Some(1), &mut app, &id, &mut ctx);
        let applied = commits(&mut ctx);
        assert_eq!(applied.len(), 1);
        assert_ne!(applied[0].app_root, Digest::default(), "engine-stamped");
        assert!(app.is_some(), "the engine reached the due snapshot point");
        assert!(!held(&needed), "settled at the apply point");
        assert_eq!(s.app_state().expect("store").map(|(seq, _)| seq), Some(1));
    }

    #[test]
    fn a_missing_batch_is_fetched_once_then_folded_after_the_round_trip() {
        let (id, mut ctx) = (durable_identity(), Ctx::new(0, 0));
        let elsewhere = peer_batch(1, None);
        let mut executor = with_engine();
        commit(&mut executor, &[elsewhere], &id, &mut ctx);
        let worker = id.addr.worker(id.me, WorkerId(0));
        for resend in [true, false, true] {
            executor.drain(None, &mut None, &id, &mut ctx);
            let (fetches, _) = effects(&mut ctx, 0);
            let fetch = matches!(
                &fetches[..],
                [(to, NarwhalMsg::FetchBatch { digest, .. })] if *to == worker && *digest == elsewhere
            );
            assert_eq!(fetch, resend, "one fetch in flight until re-armed");
            assert_eq!(fetches.len(), resend as usize);
            if !resend {
                executor.rearm_fetch();
            }
        }
        // The worker answers, but our store (not shared with it) still
        // cannot serve the bytes: fold the commitment.
        executor.on_report(elsewhere);
        executor.drain(None, &mut None, &id, &mut ctx);
        assert_eq!(commits(&mut ctx).len(), 1);
    }

    #[test]
    fn an_install_the_engine_rejects_replaces_nothing() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let (id, mut ctx) = (durable_identity(), Ctx::new(0, 0));
        let mut executor = with_engine();
        commit(&mut executor, &[], &id, &mut ctx);
        let mut donor = LedgerApp::new();
        let first = CommitEvent {
            sequence: 1,
            ..Default::default()
        };
        donor.apply(&first, &[]);
        let package = |app: Vec<u8>| SnapshotPackage {
            manifest: SnapshotManifest::for_app(1, &app),
            signatures: vec![],
            base: SnapshotBase {
                checkpoint_seq: 40,
                ..Default::default()
            },
            app,
        };
        assert!(!executor.install(&package(b"not a ledger".to_vec()), &bench.dag, &id));
        assert_eq!((executor.sequence, executor.backlog.len()), (1, 1));
        assert!(executor.install(&package(donor.snapshot()), &bench.dag, &id));
        assert_eq!((executor.sequence, executor.backlog.len()), (40, 0));
        assert!(executor.ordered.is_empty());
    }
}
