//! State transfer: producing, co-signing, serving and fetching signed
//! snapshots, for validators beyond the pull-sync horizon (§3.3: garbage
//! collection only holds in practice if state transfer replaces replay
//! past `gc_depth`; the vocabulary is `nt_execution::snapshot`).
//!
//! Owns the producing side (`due`, `last_point`, the captured `base` and
//! `app` halves, buffered peer `votes`) and the fetching side (`fetch`).
//! Produced packages live in the primary's store, and peers count on our
//! signature over them. All of it is off when `snapshot_interval` is 0 (a
//! run that never restarts a validator): nothing is produced, served or
//! asked for.
//!
//! Outcomes: [`StateTransfer::on_response`] returns the downloaded package
//! once it is complete and verified, for the caller to install.

use crate::config::SYNC_RETRY_DELAY;
use crate::consensus::DagConsensus;
use crate::dag::Dag;
use crate::messages::NarwhalMsg;
use crate::primary::{Ctx, Identity};
use crate::store::fail_stop;
use nt_crypto::Digest;
use nt_execution::{
    chunk_of, OrderedRef, SnapshotBase, SnapshotManifest, SnapshotPackage, SnapshotSig,
};
use nt_network::{NodeId, Time};
use nt_types::{Certificate, ValidatorId};
use std::collections::BTreeMap;

/// An in-flight snapshot state transfer: a validator beyond the pull-sync
/// horizon downloading a 2f+1-signed snapshot chunk by chunk. Chunks verify
/// individually against the manifest, so a transfer resumes seamlessly when
/// the retry rotation switches serving validators.
struct SnapshotFetch {
    /// Rotation base for retry targets.
    hint: ValidatorId,
    attempts: u32,
    last: Time,
    manifest: Option<SnapshotManifest>,
    signatures: Vec<SnapshotSig>,
    base: Option<SnapshotBase>,
    chunks: Vec<Option<Vec<u8>>>,
}

impl SnapshotFetch {
    /// Starts the download over: on `manifest`, or on whatever the next
    /// server offers.
    fn restart(&mut self, manifest: Option<SnapshotManifest>) {
        self.chunks = vec![None; manifest.as_ref().map_or(0, SnapshotManifest::chunk_count)];
        self.signatures.clear();
        self.base = None;
        self.manifest = manifest;
    }
}

#[derive(Default)]
pub(crate) struct StateTransfer {
    /// Snapshot point currently due for production (a committed sequence).
    pub(crate) due: Option<u64>,
    /// The last snapshot point chosen; a new point is due when the
    /// committed sequence crosses the next `snapshot_interval` multiple.
    last_point: u64,
    /// Serving-side base captured for the due point (checkpoint moment).
    base: Option<SnapshotBase>,
    /// App bytes captured when the engine reached exactly the due point.
    pub(crate) app: Option<Vec<u8>>,
    /// Buffered peer votes for snapshot points not yet produced locally.
    votes: BTreeMap<u64, Vec<(Digest, SnapshotSig)>>,
    /// In-flight state transfer, when we are beyond the sync horizon.
    fetch: Option<SnapshotFetch>,
}

fn snapshot_request<E>(to: NodeId, sequence: u64, cursor: u64, ctx: &mut Ctx<E>) {
    ctx.send(to, NarwhalMsg::SnapshotRequest { sequence, cursor });
}

impl StateTransfer {
    /// Whether this validator produces, serves and fetches snapshots.
    fn enabled(id: &Identity) -> bool {
        id.config.snapshot_interval > 0
    }

    /// Never re-produce a snapshot bucket that was in progress when the
    /// basis at `sequence` replaced ours (a crash, an install): peers'
    /// quorum covers it, and the next grid crossing puts us back on the
    /// committee-wide snapshot schedule.
    pub(crate) fn rebase(&mut self, sequence: u64) {
        self.due = None;
        self.base = None;
        self.app = None;
        self.last_point = sequence;
    }

    /// An anchor settled at committed `sequence`. Snapshot points sit on
    /// the grid of `snapshot_interval` multiples, evaluated at anchor
    /// boundaries — a pure function of the committed sequence, so every
    /// validator picks the identical points and the 2f+1 signature
    /// aggregation has something to aggregate over.
    pub(crate) fn schedule(&mut self, sequence: u64, id: &Identity) {
        if Self::enabled(id)
            && sequence / id.config.snapshot_interval
                > self.last_point / id.config.snapshot_interval
        {
            self.rebase(sequence);
            self.due = Some(sequence);
            self.votes = self.votes.split_off(&sequence);
        }
    }

    /// Captures the serving-side base for the due snapshot point. Called
    /// only at the drained-checkpoint moment: the consensus checkpoint,
    /// the ordered markers and the DAG frontier are mutually consistent
    /// exactly when the anchor queue has fully drained.
    pub(crate) fn capture_base<C: DagConsensus>(
        &mut self,
        dag: &Dag,
        consensus: &C,
        sequence: u64,
        id: &Identity,
    ) {
        if self.due.is_none() || self.base.is_some() {
            return;
        }
        let refs = fail_stop(id.store.ordered_refs());
        // Skip round 0: genesis is implied, every joiner regenerates it.
        let frontier = (dag.first_retained_round().max(1)..=dag.highest_round())
            .flat_map(|r| dag.round_certs(r).cloned())
            .collect();
        let ordered = refs
            .into_iter()
            .map(|(digest, sequence)| OrderedRef { digest, sequence })
            .collect();
        self.base = Some(SnapshotBase {
            frontier,
            ordered,
            consensus: consensus.checkpoint().unwrap_or_default(),
            checkpoint_seq: sequence,
            gc_round: dag.first_retained_round().checked_sub(1),
        });
    }

    /// Finishes the due snapshot once both halves exist: the base (captured
    /// at the checkpoint moment) and the app bytes (captured when the
    /// engine applied exactly the due sequence; empty without an engine).
    /// Persists the package and broadcasts our manifest signature.
    pub(crate) fn try_finish<E>(&mut self, has_engine: bool, id: &Identity, ctx: &mut Ctx<E>) {
        // A point is only ever due with snapshots on (`schedule`).
        let Some(point) = self.due else {
            return;
        };
        let app = match &self.app {
            Some(bytes) if has_engine => bytes.clone(),
            None if has_engine => return, // the engine has not reached the point yet
            _ => Vec::new(),
        };
        let Some(base) = self.base.take() else {
            return;
        };
        let manifest = SnapshotManifest::for_app(point, &app);
        let digest = manifest.digest();
        let sig = SnapshotSig::sign(id.me, &id.keypair, &manifest);
        let mut package = SnapshotPackage {
            manifest,
            signatures: vec![sig.clone()],
            base,
            app,
        };
        // Fold in peer votes that arrived before we finished producing.
        for (vote_digest, vote_sig) in self.votes.remove(&point).unwrap_or_default() {
            if vote_digest == digest {
                package.add_signature(vote_sig);
            }
        }
        fail_stop(id.store.put_snapshot(&package));
        self.due = None;
        self.app = None;
        for node in id.addr.other_primaries(id.me) {
            ctx.send(
                node,
                NarwhalMsg::SnapshotVote {
                    sequence: point,
                    manifest: digest,
                    sig: sig.clone(),
                },
            );
        }
    }

    /// Accepts a peer's signature over a snapshot manifest: merged into the
    /// stored package if we already produced that point, buffered (bounded)
    /// if the point is still ahead of us.
    pub(crate) fn on_vote(
        &mut self,
        sequence: u64,
        manifest: Digest,
        sig: SnapshotSig,
        id: &Identity,
    ) {
        if !Self::enabled(id) || !sig.verify_digest(&id.committee, &manifest) {
            return;
        }
        if let Some(mut package) = fail_stop(id.store.snapshot(sequence)) {
            if package.manifest.digest() == manifest && package.add_signature(sig.clone()) {
                fail_stop(id.store.put_snapshot(&package));
            }
            return; // a point we produced: merged, if it signs our manifest
        }
        if sequence < self.last_point {
            return; // a point we passed without producing (or pruned)
        }
        if self.votes.len() >= 8 && !self.votes.contains_key(&sequence) {
            return; // bound the buffer against junk points
        }
        let votes = self.votes.entry(sequence).or_default();
        if votes.len() < id.committee.size() && !votes.iter().any(|(_, s)| s.signer == sig.signer) {
            votes.push((manifest, sig));
        }
    }

    /// Serves one chunk of a quorum-signed snapshot. `sequence == 0` asks
    /// for our latest servable point; the base rides on chunk 0 only.
    pub(crate) fn on_request<E>(
        &self,
        sequence: u64,
        cursor: u64,
        from: NodeId,
        id: &Identity,
        ctx: &mut Ctx<E>,
    ) {
        if !Self::enabled(id) {
            return;
        }
        let sequences = match sequence {
            0 => fail_stop(id.store.snapshot_sequences()),
            point => vec![point],
        };
        let servable = sequences.into_iter().rev().find_map(|seq| {
            let package = fail_stop(id.store.snapshot(seq))?;
            package.has_quorum(&id.committee).then_some(package)
        });
        let Some(package) = servable else {
            return;
        };
        let Some(chunk) = chunk_of(&package.app, cursor as usize) else {
            return;
        };
        ctx.send(
            from,
            NarwhalMsg::SnapshotResponse {
                manifest: package.manifest.clone(),
                signatures: package.signatures.clone(),
                chunk_index: cursor,
                chunk: chunk.to_vec(),
                base: (cursor == 0).then(|| package.base.clone()),
            },
        );
    }

    /// Starts a snapshot state transfer when a verified certificate proves
    /// the committee is beyond our pull-sync horizon: per-certificate §4.1
    /// sync cannot close a gap wider than `gc_depth` (peers pruned it).
    pub(crate) fn maybe_trigger<E>(
        &mut self,
        cert: &Certificate,
        dag: &Dag,
        id: &Identity,
        ctx: &mut Ctx<E>,
    ) {
        if !Self::enabled(id) || self.fetch.is_some() {
            return;
        }
        if cert.round() <= dag.highest_round() + id.config.gc_depth {
            return;
        }
        let hint = id.addr.rotate(id.me, cert.origin(), 0);
        self.fetch = Some(SnapshotFetch {
            hint,
            attempts: 0,
            last: ctx.now(),
            manifest: None,
            signatures: Vec::new(),
            base: None,
            chunks: Vec::new(),
        });
        snapshot_request(id.addr.primary(hint), 0, 0, ctx);
    }

    /// Retries an in-flight state transfer against rotating servers; the
    /// manifest-relative cursor makes the transfer resume, not restart.
    pub(crate) fn retry<E>(&mut self, now: Time, id: &Identity, ctx: &mut Ctx<E>) {
        let Some(fetch) = self.fetch.as_mut() else {
            return;
        };
        if now.saturating_sub(fetch.last) < SYNC_RETRY_DELAY {
            return;
        }
        fetch.attempts += 1;
        fetch.last = now;
        if fetch.attempts % (2 * id.committee.size() as u32) == 0 {
            // A full rotation with no progress: the point we chased may be
            // pruned committee-wide. Start over on whatever latest quorum
            // snapshot the next server holds.
            fetch.restart(None);
        }
        let target = id.addr.rotate(id.me, fetch.hint, fetch.attempts);
        let (sequence, cursor) = match &fetch.manifest {
            Some(m) => (
                m.sequence,
                fetch.chunks.iter().position(Option::is_none).unwrap_or(0) as u64,
            ),
            None => (0, 0),
        };
        snapshot_request(id.addr.primary(target), sequence, cursor, ctx);
    }

    /// Accepts one chunk of an in-flight state transfer and pumps the next
    /// request. Once chunks, base and a signature quorum are all in hand,
    /// ends the transfer and returns what it downloaded, if that verifies.
    /// Chunks verify individually against the manifest, so a transfer
    /// survives switching serving validators mid-way.
    pub(crate) fn on_response<E>(
        &mut self,
        response: NarwhalMsg<E>,
        from: NodeId,
        id: &Identity,
        ctx: &mut Ctx<E>,
    ) -> Option<SnapshotPackage> {
        let NarwhalMsg::SnapshotResponse {
            manifest,
            signatures,
            chunk_index,
            chunk,
            base,
        } = response
        else {
            return None;
        };
        let fetch = self.fetch.as_mut()?;
        let digest = manifest.digest();
        let adopt = match &fetch.manifest {
            None => true,
            Some(current) if current.digest() == digest => false,
            // A newer point appeared mid-transfer (ours may be pruned
            // committee-wide): restart on it. Older/conflicting: ignore.
            Some(current) if manifest.sequence > current.sequence => true,
            Some(_) => return None,
        };
        if adopt {
            // No signature covers the manifest yet: its lengths are the
            // serving peer's word, and everything below is sized by them.
            if !manifest.is_well_formed() {
                return None;
            }
            fetch.restart(Some(manifest.clone()));
        }
        // Every chunk repeats the signature list: check only signers not
        // held yet, and those together.
        let held =
            |sigs: &[SnapshotSig], sig: &SnapshotSig| sigs.iter().any(|s| s.signer == sig.signer);
        let mut fresh = signatures;
        fresh.retain(|sig| !held(&fetch.signatures, sig));
        SnapshotSig::retain_valid(&id.committee, &digest, &mut fresh);
        for sig in fresh {
            if !held(&fetch.signatures, &sig) {
                fetch.signatures.push(sig);
            }
        }
        if fetch.base.is_none() {
            fetch.base = base;
        }
        if let Some(slot) = fetch.chunks.get_mut(chunk_index as usize) {
            if slot.is_none() && manifest.verify_chunk(chunk_index as usize, &chunk) {
                *slot = Some(chunk);
            }
        }
        fetch.last = ctx.now();
        if let Some(idx) = fetch.chunks.iter().position(Option::is_none) {
            snapshot_request(from, manifest.sequence, idx as u64, ctx);
            return None;
        }
        if fetch.base.is_none() {
            // All chunks but no base: we joined mid-transfer past chunk 0.
            snapshot_request(from, manifest.sequence, 0, ctx);
            return None;
        }
        let quorum = fetch.signatures.len() >= id.committee.quorum_threshold();
        quorum.then(|| self.take_verified(id)).flatten()
    }

    /// Ends the transfer and verifies what it downloaded: the app bytes
    /// against the manifest and every frontier certificate against the
    /// committee. A package that fails is dropped with the transfer;
    /// still-arriving far-future certificates re-trigger one against
    /// another server.
    fn take_verified(&mut self, id: &Identity) -> Option<SnapshotPackage> {
        let fetch = self.fetch.take()?;
        let (manifest, base) = (fetch.manifest?, fetch.base?);
        let mut app = Vec::new();
        for chunk in fetch.chunks.iter().flatten() {
            app.extend_from_slice(chunk);
        }
        if app.len() as u64 != manifest.app_len || Digest::of(&app) != manifest.app_root {
            return None; // cannot happen with verified chunks; abort defensively
        }
        if base.checkpoint_seq < manifest.sequence {
            return None; // malformed base: the capture moment precedes the point
        }
        // An honest capture's window sits above its own GC boundary; one
        // that does not would install an empty DAG at a forged round.
        let top = base.frontier.iter().map(Certificate::round).max();
        if base.gc_round.is_some_and(|gc_round| Some(gc_round) >= top) {
            return None;
        }
        // One multiscalar equation covers every frontier certificate's
        // vote set (Certificate::verify_all), instead of per-certificate
        // per-signature scalar multiplications.
        Certificate::verify_all(&id.committee, &base.frontier).ok()?;
        Some(SnapshotPackage {
            manifest,
            signatures: fetch.signatures,
            base,
            app,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NarwhalConfig;
    use crate::consensus::{NoConsensus, NoExt};
    use crate::testing::fixture::{effects, identity, Msg};
    use crate::testing::{certify, DagBench};
    use nt_types::Round;

    type Ctx = crate::primary::Ctx<NoExt>;

    /// The first snapshot point of the default grid.
    const POINT: u64 = 32;

    fn sends(ctx: &mut Ctx) -> Vec<(NodeId, Msg)> {
        effects(ctx, 0).0
    }

    /// Validator 1 produces the snapshot at [`POINT`] over a two-round DAG,
    /// validators 2 and 3 co-sign it, and validator 0's request for the
    /// latest point is served: the response, as validator 0 receives it.
    fn served_snapshot(bench: &DagBench<NoConsensus>) -> Msg {
        let id = identity(bench, 1);
        let mut ctx = Ctx::new(0, 1);
        let mut server = StateTransfer::default();
        server.schedule(POINT - 1, &id);
        assert_eq!(server.due, None, "off the grid");
        server.schedule(POINT, &id);
        assert_eq!(server.due, Some(POINT));
        server.try_finish(false, &id, &mut ctx);
        assert!(
            ctx.is_empty(),
            "no base yet: the anchor queue has not drained"
        );
        server.capture_base(&bench.dag, &bench.rule, POINT, &id);
        server.try_finish(false, &id, &mut ctx);
        let votes = sends(&mut ctx);
        assert_eq!(votes.len(), 3, "our signature goes to every peer");
        let NarwhalMsg::SnapshotVote { manifest, .. } = votes[0].1 else {
            panic!("expected a vote, got {:?}", votes[0].1);
        };
        server.on_request(0, 0, 0, &id, &mut ctx);
        assert!(
            ctx.is_empty(),
            "one signature is not a quorum: not servable"
        );
        let empty = SnapshotManifest::for_app(POINT, &[]);
        assert_eq!(
            manifest,
            empty.digest(),
            "no engine: the app state is empty"
        );
        for peer in [2, 3] {
            let sig = SnapshotSig::sign(ValidatorId(peer), &bench.keypairs[peer as usize], &empty);
            server.on_vote(POINT, manifest, sig, &id);
        }
        server.on_request(0, 0, 0, &id, &mut ctx);
        let mut served = sends(&mut ctx);
        assert_eq!(served.len(), 1);
        served.remove(0).1
    }

    /// Validator 0, at genesis, learns the committee is `gc_depth` ahead.
    fn lagging(bench: &DagBench<NoConsensus>) -> (Identity, StateTransfer) {
        let genesis = DagBench::new(4, |_| NoConsensus).dag;
        let id = identity(bench, 0);
        let mut transfer = StateTransfer::default();
        let mut ctx = Ctx::new(0, 0);
        let round: Round = id.config.gc_depth;
        let near = certify(&bench.committee, &bench.keypairs, 1, round, vec![]);
        transfer.maybe_trigger(&near, &genesis, &id, &mut ctx);
        assert!(ctx.is_empty(), "pull sync still reaches that far");
        let far = certify(&bench.committee, &bench.keypairs, 1, round + 1, vec![]);
        transfer.maybe_trigger(&far, &genesis, &id, &mut ctx);
        transfer.maybe_trigger(&far, &genesis, &id, &mut ctx);
        match &sends(&mut ctx)[..] {
            [(
                1,
                NarwhalMsg::SnapshotRequest {
                    sequence: 0,
                    cursor: 0,
                },
            )] => {}
            other => panic!("expected one request to the certificate's author, got {other:?}"),
        }
        (id, transfer)
    }

    /// With the interval at 0 nobody serves a snapshot, so a validator past
    /// the pull-sync horizon asks nobody for one either.
    #[test]
    fn a_snapshot_is_asked_for_only_where_snapshots_are_served() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let defaults = NarwhalConfig::default();
        let far = certify(
            &bench.committee,
            &bench.keypairs,
            1,
            defaults.gc_depth + 1,
            vec![],
        );
        for (interval, asks) in [(0, false), (defaults.snapshot_interval, true)] {
            let mut id = identity(&bench, 0);
            id.config.snapshot_interval = interval;
            let mut ctx = Ctx::new(0, 0);
            StateTransfer::default().maybe_trigger(&far, &bench.dag, &id, &mut ctx);
            assert_eq!(!sends(&mut ctx).is_empty(), asks, "interval {interval}");
        }
    }

    /// Delivers `response` from validator 1 to lagging validator 0: what
    /// the transfer hands over for install, and what it asks for next.
    fn deliver(bench: &DagBench<NoConsensus>, response: Msg) -> (Option<SnapshotPackage>, Ctx) {
        let (id, mut transfer) = lagging(bench);
        let mut ctx = Ctx::new(0, 0);
        (transfer.on_response(response, 1, &id, &mut ctx), ctx)
    }

    #[test]
    fn a_produced_cosigned_served_snapshot_installs_at_a_lagging_validator() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        bench.full_round(1);
        bench.full_round(2);
        let (package, ctx) = deliver(&bench, served_snapshot(&bench));
        assert!(ctx.is_empty(), "one chunk, base on it: nothing more to ask");
        let package = package.expect("complete, and verifies");
        assert_eq!(package.manifest.sequence, POINT);
        assert_eq!(package.base.frontier.len(), 8, "rounds 1, 2; not genesis");
        assert_eq!(package.base.checkpoint_seq, POINT);
        assert!(package.has_quorum(&bench.committee));
    }

    /// Both forgeries panicked a debug build before this component existed:
    /// the manifest in `verify_chunk` (`0 - 1 * SNAPSHOT_CHUNK`), the base
    /// in `Dag::gc` (`u64::MAX + 1`).
    #[test]
    fn forged_lengths_and_boundaries_are_rejected_not_computed_with() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        bench.full_round(1);
        let genuine = served_snapshot(&bench);
        // No signature covers a manifest when it is adopted: any peer can
        // claim two chunks of an empty state and send the second.
        let forged = NarwhalMsg::SnapshotResponse {
            manifest: SnapshotManifest {
                sequence: POINT + 32,
                app_root: Digest::of(b"root"),
                app_len: 0,
                chunks: vec![Digest::of(b"d0"), Digest::of(b"d1")],
            },
            signatures: vec![],
            chunk_index: 1,
            chunk: vec![],
            base: None,
        };
        let (package, ctx) = deliver(&bench, forged);
        assert!(package.is_none());
        assert!(ctx.is_empty(), "not adopted: no chunk of it is asked for");
        // The base rides outside the signed manifest: a genuine snapshot
        // can carry a boundary with no round above it.
        for gc_round in [Round::MAX, Round::MAX - 1, 1] {
            let mut response = genuine.clone();
            if let NarwhalMsg::SnapshotResponse { base, .. } = &mut response {
                base.as_mut().expect("chunk 0").gc_round = Some(gc_round);
            }
            assert!(deliver(&bench, response).0.is_none(), "boundary {gc_round}");
        }
        let package = deliver(&bench, genuine).0.expect("the honest capture");
        assert_eq!(package.base.gc_round, None);
    }

    #[test]
    fn a_stalled_transfer_rotates_servers_and_starts_over_after_two_laps() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let (id, mut transfer) = lagging(&bench);
        let mut ctx = Ctx::new(0, 0);
        let manifest = SnapshotManifest::for_app(POINT, &vec![7u8; 3 * 64 * 1024]);
        let first = NarwhalMsg::SnapshotResponse {
            manifest: manifest.clone(),
            signatures: vec![],
            chunk_index: 0,
            chunk: vec![7u8; 64 * 1024],
            base: Some(SnapshotBase::default()),
        };
        assert!(transfer.on_response(first, 1, &id, &mut ctx).is_none());
        match &sends(&mut ctx)[..] {
            [(
                1,
                NarwhalMsg::SnapshotRequest {
                    sequence: POINT,
                    cursor: 1,
                },
            )] => {}
            other => panic!("expected the next chunk to be asked for, got {other:?}"),
        }
        let delay = SYNC_RETRY_DELAY;
        transfer.retry(delay - 1, &id, &mut ctx);
        assert!(ctx.is_empty(), "not yet");
        let mut asked = Vec::new();
        for attempt in 1..=8u64 {
            transfer.retry(attempt * delay, &id, &mut ctx);
            match sends(&mut ctx).pop() {
                Some((to, NarwhalMsg::SnapshotRequest { sequence, cursor })) => {
                    asked.push((to, sequence, cursor))
                }
                other => panic!("expected a request, got {other:?}"),
            }
        }
        // The cursor resumes the download at each next server; after two
        // laps without progress the point itself is given up.
        let resumed = |to| (to, POINT, 1);
        let mut expected: Vec<_> = [2, 3, 1, 1, 2, 3, 1].map(resumed).to_vec();
        expected.push((1, 0, 0));
        assert_eq!(asked, expected);
    }
}
