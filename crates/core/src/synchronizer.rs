//! The synchronizer: everything that waits on something not yet held, and
//! the pulls that fetch it (§4.1 quorum-based reliable broadcast with
//! pull-based synchronization).
//!
//! Owns the peer blocks waiting for parents or batches (`pending_headers`
//! and the two `waiting_on_*` indexes), the certificates waiting for
//! ancestry (`suspended`), the outstanding per-digest pulls
//! (`missing_certs`) and the batched round-range pull's rate limiter. One
//! dependency wait serves both kinds: [`Synchronizer::next_ready`].
//!
//! It also verifies every peer block, and so is the one place that
//! remembers having done it: `verified` holds the `(digest, block
//! signature)` of the latest verified block per `(round, author)` slot. A
//! certificate embeds its whole block; when that block is the remembered
//! one, [`Synchronizer::verify`] checks the votes alone, and a re-delivered
//! block costs no curve work at all. The digest covers everything but the
//! block signature (the coin share and its signature included), so the pair
//! identifies one byte string: an equivocating twin has another digest, a
//! re-signed or corrupted block another signature, and neither is found.
//!
//! Outcomes: [`Synchronizer::on_header`] and [`Synchronizer::next_ready`]
//! return a header now ready to vote on; [`Synchronizer::admit`] returns a
//! certificate whose ancestry is complete; [`Synchronizer::release`] says
//! whether a suspended one has become so.

use crate::dag::Dag;
use crate::messages::NarwhalMsg;
use crate::primary::{Ctx, Identity};
use nt_crypto::{Digest, Hashable, Signature};
use nt_network::{NodeId, Time};
use nt_types::certificate::CertificateError;
use nt_types::{Certificate, Committee, Header, Round, ValidatorId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A verified certificate this many rounds above the local round proves the
/// committee has moved on without us; trigger a batched round-range pull
/// (§4.1 catch-up) instead of walking ancestry one suspended-parent
/// round-trip per DAG round.
const RANGE_PULL_LAG: Round = 5;
/// Rounds served per range response: bounds the responder's work and the
/// response size against malicious (or merely enormous) ranges; the
/// requester re-pulls as its round advances.
const RANGE_PULL_MAX_ROUNDS: Round = 32;

struct PendingHeader {
    header: Header,
    missing_parents: HashSet<Digest>,
    missing_batches: HashSet<Digest>,
}

struct MissingCert {
    hint: ValidatorId,
    attempts: u32,
    last: Time,
}

/// What a pending header waits on.
#[derive(Clone, Copy)]
pub(crate) enum Wait {
    Parent,
    Batch,
}

#[derive(Default)]
pub(crate) struct Synchronizer {
    /// Peer blocks waiting for parents or batch availability.
    pending_headers: HashMap<Digest, PendingHeader>,
    waiting_on_parent: HashMap<Digest, Vec<Digest>>,
    waiting_on_batch: HashMap<Digest, Vec<Digest>>,
    /// Certified blocks referenced but not yet held (pull sync, §4.1).
    /// Ordered map: the retry loop emits requests in iteration order, and
    /// message order must be a pure function of state for seeded runs to
    /// reproduce (hash-map order is randomized per process).
    missing_certs: BTreeMap<Digest, MissingCert>,
    /// Certificates whose ancestry is incomplete, keyed by a missing parent.
    ///
    /// The DAG (and thus consensus) only ever sees certificates whose full
    /// causal history is local. This is the invariant that makes Tusk's
    /// path queries evaluate over complete causal cones, so every validator
    /// computing the commit recursion over the same anchor gets the same
    /// answer.
    suspended: HashMap<Digest, Vec<Certificate>>,
    /// Digests currently suspended (deduplication).
    suspended_digests: HashSet<Digest>,
    /// The latest peer block per slot that passed `Header::verify`, as its
    /// `(digest, block signature)`. Slots run from the GC boundary to
    /// [`RANGE_PULL_LAG`] rounds above the DAG, so it holds at most that
    /// many rounds × `n` entries; starts empty after recovery and install.
    verified: BTreeMap<(Round, ValidatorId), (Digest, Signature)>,
    /// Batched catch-up: when the last round-range pull left, and the
    /// rotation counter choosing its target (a dead or Byzantine peer costs
    /// one retry interval, not the whole recovery).
    range_pull_last: Time,
    range_pull_attempts: u32,
}

fn cert_request<E>(target: ValidatorId, digest: Digest, id: &Identity, ctx: &mut Ctx<E>) {
    let digests = vec![digest];
    ctx.send(id.addr.primary(target), NarwhalMsg::CertRequest { digests });
}

/// Serves a digest pull from the DAG.
pub(crate) fn serve_digests<E>(digests: &[Digest], from: NodeId, dag: &Dag, ctx: &mut Ctx<E>) {
    let certs: Vec<Certificate> = digests
        .iter()
        .filter_map(|d| dag.get_by_digest(d).cloned())
        .collect();
    if !certs.is_empty() {
        ctx.send(from, NarwhalMsg::CertResponse { certs });
    }
}

/// Serves a round-range pull from the DAG.
pub(crate) fn serve_range<E>(lo: Round, hi: Round, from: NodeId, dag: &Dag, ctx: &mut Ctx<E>) {
    // Malformed ranges are rejected at ingress: no honest requester sends
    // an inverted or zero-round range, and the clamping below must never
    // turn one into real work.
    if lo > hi || hi == 0 {
        return;
    }
    // Serve ascending rounds so the requester's insertions cascade without
    // re-suspending; the cap bounds our work no matter what range was
    // asked for.
    let lo = lo.max(dag.first_retained_round()).max(1);
    let hi = hi
        .min(lo.saturating_add(RANGE_PULL_MAX_ROUNDS - 1))
        .min(dag.highest_round());
    let mut certs = Vec::new();
    for round in lo..=hi {
        certs.extend(dag.round_certs(round).cloned());
    }
    if !certs.is_empty() {
        ctx.send(from, NarwhalMsg::CertResponse { certs });
    }
}

impl Synchronizer {
    /// Whether exactly this block — `digest` and block signature — is the
    /// one remembered as verified for its slot.
    fn is_verified(&self, header: &Header, digest: &Digest) -> bool {
        self.verified
            .get(&(header.round, header.author))
            .is_some_and(|(d, signature)| d == digest && *signature == header.signature)
    }

    /// Verifies a peer's certificate, whose block has digest `digest`: the
    /// votes alone if the block is one this validator already verified.
    pub(crate) fn verify(
        &self,
        cert: &Certificate,
        digest: &Digest,
        committee: &Committee,
    ) -> Result<(), CertificateError> {
        cert.verify_given(committee, self.is_verified(&cert.header, digest))
    }

    /// The certificates of a pull response worth processing, each with its
    /// block's digest. Verifies the whole wanted set in one multiscalar
    /// pass; a response with a bad certificate degrades to per-certificate
    /// checks so the valid ones still land. Re-checking GC and duplicates
    /// at insertion makes the one-shot filter safe even as earlier
    /// certificates insert.
    pub(crate) fn verified(
        &self,
        certs: Vec<Certificate>,
        dag: &Dag,
        id: &Identity,
    ) -> Vec<(Digest, Certificate)> {
        let mut digests = Vec::with_capacity(certs.len());
        let mut wanted = certs;
        wanted.retain(|c| {
            let digest = c.header_digest();
            let keep = c.round() >= dag.first_retained_round() && !dag.contains_digest(&digest);
            if keep {
                digests.push(digest);
            }
            keep
        });
        let known = |c: usize| self.is_verified(&wanted[c].header, &digests[c]);
        let all_valid = Certificate::verify_all_given(&id.committee, &wanted, known).is_ok();
        digests
            .into_iter()
            .zip(wanted)
            .filter(|(d, c)| all_valid || self.verify(c, d, &id.committee).is_ok())
            .collect()
    }

    /// Pulls the certified block `digest`, first from `hint`.
    pub(crate) fn request<E>(
        &mut self,
        digest: Digest,
        hint: ValidatorId,
        dag: &Dag,
        id: &Identity,
        ctx: &mut Ctx<E>,
    ) {
        if dag.contains_digest(&digest) || id.config.bugs.disable_cert_pull {
            return;
        }
        let entry = self.missing_certs.entry(digest).or_insert(MissingCert {
            hint,
            attempts: 0,
            last: ctx.now(),
        });
        if entry.attempts == 0 {
            entry.attempts = 1;
            cert_request(id.addr.rotate(id.me, hint, 0), digest, id, ctx);
        }
    }

    /// The certified block `digest` is in the DAG: its pull is over.
    pub(crate) fn arrived(&mut self, digest: &Digest) {
        self.missing_certs.remove(digest);
    }

    /// Retries missing-certificate pulls against rotating targets.
    pub(crate) fn retry<E>(&mut self, now: Time, id: &Identity, ctx: &mut Ctx<E>) {
        if id.config.bugs.disable_cert_pull {
            self.missing_certs.clear();
        }
        for (digest, missing) in self.missing_certs.iter_mut() {
            if now.saturating_sub(missing.last) >= id.config.sync_retry_delay {
                missing.attempts += 1;
                missing.last = now;
                let target = id.addr.rotate(id.me, missing.hint, missing.attempts);
                cert_request(target, *digest, id, ctx);
            }
        }
    }

    /// Accepts a peer's block: returns it if it can be voted on now,
    /// otherwise parks it and pulls what it waits on — parent certificates
    /// from its author, batches through our worker.
    pub(crate) fn on_header<E>(
        &mut self,
        header: Header,
        dag: &Dag,
        stored: &HashSet<Digest>,
        id: &Identity,
        ctx: &mut Ctx<E>,
    ) -> Option<Header> {
        if header.round < dag.first_retained_round() {
            return None;
        }
        let digest = header.digest();
        // Parked means verified when it was parked: nothing to do twice.
        if self.pending_headers.contains_key(&digest) {
            return None;
        }
        if !self.is_verified(&header, &digest) {
            if header.verify(&id.committee).is_err() {
                return None;
            }
            // Genesis blocks are unsigned and certified by equality: there
            // is no verdict to remember. Blocks far above the DAG are parked
            // and re-checked with their certificate, so the set stays
            // bounded by the rounds this validator can act on.
            if (1..=dag.highest_round() + RANGE_PULL_LAG).contains(&header.round) {
                let verdict = (digest, header.signature);
                self.verified.insert((header.round, header.author), verdict);
            }
        }
        // Track missing dependencies: parent certificates and batch data.
        let missing_parents: HashSet<Digest> = header
            .parents
            .iter()
            .filter(|d| !dag.contains_digest(d))
            .copied()
            .collect();
        let missing_batches: HashSet<Digest> = header
            .payload
            .iter()
            .filter(|(d, _)| !stored.contains(d))
            .map(|(d, _)| *d)
            .collect();
        if missing_parents.is_empty() && missing_batches.is_empty() {
            return Some(header);
        }
        // Iterate the header's parent list, not the set: set order varies
        // per process, and the first `CertRequest` it produces must not
        // (replays and crash-recovery re-execution depend on it).
        for parent in header
            .parents
            .iter()
            .filter(|d| missing_parents.contains(*d))
        {
            self.waiting_on_parent
                .entry(*parent)
                .or_default()
                .push(digest);
            self.request(*parent, header.author, dag, id, ctx);
        }
        for (batch_digest, worker) in &header.payload {
            if missing_batches.contains(batch_digest) {
                self.waiting_on_batch
                    .entry(*batch_digest)
                    .or_default()
                    .push(digest);
                ctx.send(
                    id.addr.worker(id.me, *worker),
                    NarwhalMsg::FetchBatch {
                        digest: *batch_digest,
                        worker: *worker,
                        creator: header.author,
                    },
                );
            }
        }
        self.pending_headers.insert(
            digest,
            PendingHeader {
                header,
                missing_parents,
                missing_batches,
            },
        );
        None
    }

    /// The dependency `digest` arrived: strikes it off the blocks waiting
    /// on it, one per call and in arrival order, and returns the next one
    /// that now waits on nothing. The caller votes between calls, and a
    /// vote can re-enter here for another digest.
    pub(crate) fn next_ready(&mut self, wait: Wait, digest: &Digest) -> Option<Header> {
        let waiting = match wait {
            Wait::Parent => &mut self.waiting_on_parent,
            Wait::Batch => &mut self.waiting_on_batch,
        };
        loop {
            let waiters = waiting.get_mut(digest)?;
            if waiters.is_empty() {
                waiting.remove(digest);
                return None;
            }
            let waiter = waiters.remove(0);
            let Some(pending) = self.pending_headers.get_mut(&waiter) else {
                continue;
            };
            match wait {
                Wait::Parent => pending.missing_parents.remove(digest),
                Wait::Batch => pending.missing_batches.remove(digest),
            };
            if pending.missing_parents.is_empty() && pending.missing_batches.is_empty() {
                return self.pending_headers.remove(&waiter).map(|p| p.header);
            }
        }
    }

    /// Admits a verified certificate, whose block has digest `digest`:
    /// returns it if its ancestry is locally complete, or suspends it and
    /// pulls the missing parents (§4.1).
    pub(crate) fn admit<E>(
        &mut self,
        cert: Certificate,
        digest: Digest,
        dag: &Dag,
        id: &Identity,
        ctx: &mut Ctx<E>,
    ) -> Option<Certificate> {
        if dag.contains_digest(&digest) || self.suspended_digests.contains(&digest) {
            return None;
        }
        let missing = dag.missing_parents(&cert);
        if missing.is_empty() {
            return Some(cert);
        }
        self.suspended_digests.insert(digest);
        for parent in missing {
            if !self.suspended_digests.contains(&parent) {
                self.request(parent, cert.origin(), dag, id, ctx);
            }
            self.suspended.entry(parent).or_default().push(cert.clone());
        }
        None
    }

    /// The certificates suspended on `parent`, which just landed.
    pub(crate) fn suspended_on(&mut self, parent: &Digest) -> Vec<Certificate> {
        self.suspended.remove(parent).unwrap_or_default()
    }

    /// Whether `child` (its block's digest `digest`), suspended until now,
    /// can resume: `false` if it already resumed via another parent or
    /// still misses one.
    pub(crate) fn release(&mut self, child: &Certificate, digest: &Digest, dag: &Dag) -> bool {
        self.suspended_digests.contains(digest)
            && dag.missing_parents(child).is_empty()
            && self.suspended_digests.remove(digest)
    }

    /// Batched §4.1 catch-up: a verified certificate more than
    /// [`RANGE_PULL_LAG`] rounds above the local round proves the committee
    /// has moved on, so pull the whole missing round range in one request.
    /// Without this, recovery walks ancestry one suspended parent — one
    /// network round-trip — per DAG round, and a validator restarting a few
    /// dozen rounds behind burns seconds it may not have before the run (or
    /// its peers' patience) ends; a Byzantine equivocator's header spam
    /// makes the walk strictly worse. Rate-limited by `sync_retry_delay`
    /// and target-rotated like digest pulls.
    pub(crate) fn maybe_range_pull<E>(
        &mut self,
        cert: &Certificate,
        round: Round,
        dag: &Dag,
        id: &Identity,
        ctx: &mut Ctx<E>,
    ) {
        // The range pull is part of §4.1 pull synchronization; the
        // `disable_cert_pull` self-test arm must take down both sync paths
        // or the checkers would never see the stall it exists to prove.
        if id.config.bugs.disable_cert_pull {
            return;
        }
        if cert.round() <= round + RANGE_PULL_LAG {
            return;
        }
        let now = ctx.now();
        if now.saturating_sub(self.range_pull_last) < id.config.sync_retry_delay
            && self.range_pull_attempts > 0
        {
            return;
        }
        self.range_pull_last = now;
        let target = id
            .addr
            .rotate(id.me, cert.origin(), self.range_pull_attempts);
        self.range_pull_attempts += 1;
        // Start two rounds below the local round: the local quorum that
        // advanced us here need not be the quorum our suspended descendants
        // reference, so the immediately preceding rounds can still have
        // holes only the range response fills in one shot.
        let from = round
            .saturating_sub(2)
            .max(dag.first_retained_round())
            .max(1);
        let to = cert.round();
        ctx.send(
            id.addr.primary(target),
            NarwhalMsg::CertRangeRequest { from, to },
        );
    }

    /// Garbage collection: nothing below `boundary` will ever be needed.
    pub(crate) fn prune(&mut self, boundary: Round, pruned: &[Certificate]) {
        for cert in pruned {
            let digest = cert.header_digest();
            self.pending_headers.remove(&digest);
            self.missing_certs.remove(&digest);
        }
        self.suspended.retain(|_, children| {
            children.retain(|c| c.round() >= boundary);
            !children.is_empty()
        });
        self.suspended_digests = self
            .suspended
            .values()
            .flatten()
            .map(Certificate::header_digest)
            .collect();
        self.verified = self.verified.split_off(&(boundary, ValidatorId(0)));
    }

    /// Everything queued against a pre-install view is void.
    pub(crate) fn reset(&mut self) {
        *self = Synchronizer {
            range_pull_last: self.range_pull_last,
            range_pull_attempts: self.range_pull_attempts,
            ..Synchronizer::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{NoConsensus, NoExt};
    use crate::testing::fixture::{effects, identity, Msg};
    use crate::testing::{certify, DagBench};
    use nt_types::WorkerId;

    type Ctx = crate::primary::Ctx<NoExt>;

    /// Validator 1's round-2 block over `parents`, carrying `batches`.
    fn block(bench: &DagBench<NoConsensus>, parents: Vec<Digest>, batches: &[Digest]) -> Header {
        let payload = batches.iter().map(|d| (*d, WorkerId(0))).collect();
        Header::new(
            &bench.keypairs[1],
            ValidatorId(1),
            2,
            payload,
            parents,
            None,
        )
    }

    fn sends(ctx: &mut Ctx) -> Vec<(NodeId, Msg)> {
        effects(ctx, 0).0
    }

    #[test]
    fn a_block_over_unknown_parents_is_parked_and_its_parents_pulled_from_its_author() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let mut sync = Synchronizer::default();
        let mut ctx = Ctx::new(0, 0);
        let unknown: Vec<Digest> = (0..3u8).map(|i| Digest::of(&[i, 99])).collect();
        let header = block(&bench, unknown.clone(), &[]);
        let stored = HashSet::new();
        let ready = sync.on_header(header.clone(), &bench.dag, &stored, &id, &mut ctx);
        assert!(ready.is_none(), "no vote");
        let pulls = sends(&mut ctx);
        assert_eq!(pulls.len(), 3, "one pull per parent, in the header's order");
        for ((to, msg), parent) in pulls.iter().zip(&unknown) {
            assert_eq!(*to, id.addr.primary(ValidatorId(1)));
            assert!(matches!(msg, NarwhalMsg::CertRequest { digests } if digests == &[*parent]));
        }
        // A re-delivery neither parks it twice nor pulls again.
        assert!(sync
            .on_header(header, &bench.dag, &stored, &id, &mut ctx)
            .is_none());
        assert!(ctx.is_empty());
        // A silent author: each retry asks another validator, never us.
        for (retry, target) in [(1, 3), (2, 1), (3, 1), (4, 2)] {
            sync.retry(retry * id.config.sync_retry_delay, &id, &mut ctx);
            let retried = sends(&mut ctx);
            assert_eq!(retried.len(), 3);
            assert!(retried.iter().all(|(to, _)| *to == target), "retry {retry}");
        }
    }

    #[test]
    fn a_block_waiting_on_a_parent_and_a_batch_is_ready_once_after_the_second() {
        for parent_first in [true, false] {
            let mut bench = DagBench::new(4, |_| NoConsensus);
            let id = identity(&bench, 0);
            bench.round(1, &[0, 1, 2]);
            let late = certify(&bench.committee, &bench.keypairs, 3, 1, bench.parents(0));
            let mut parents = bench.parents(1);
            parents.push(late.header_digest());
            let batch = Digest::of(b"some batch");
            let header = block(&bench, parents, &[batch]);
            let mut sync = Synchronizer::default();
            let mut ctx = Ctx::new(0, 0);
            let mut stored = HashSet::new();
            let parked = sync.on_header(header.clone(), &bench.dag, &stored, &id, &mut ctx);
            assert!(parked.is_none());
            let asked = sends(&mut ctx);
            let worker = id.addr.worker(id.me, WorkerId(0));
            assert!(matches!(asked[0].1, NarwhalMsg::CertRequest { .. }));
            assert!(
                matches!(asked[1], (to, NarwhalMsg::FetchBatch { digest, .. }) if to == worker && digest == batch),
                "the primary instructs its worker to fetch the batch"
            );
            let (first, second) = if parent_first {
                ((Wait::Parent, late.header_digest()), (Wait::Batch, batch))
            } else {
                ((Wait::Batch, batch), (Wait::Parent, late.header_digest()))
            };
            assert!(sync.next_ready(first.0, &first.1).is_none(), "one to go");
            assert!(sync.next_ready(first.0, &first.1).is_none());
            assert_eq!(sync.next_ready(second.0, &second.1), Some(header.clone()));
            assert!(sync.next_ready(second.0, &second.1).is_none(), "once");
            // With both at hand, the same block needs no wait at all.
            bench.feed(vec![late]);
            stored.insert(batch);
            let ready = sync.on_header(header.clone(), &bench.dag, &stored, &id, &mut ctx);
            assert_eq!(ready, Some(header));
        }
    }

    #[test]
    fn a_certificate_is_suspended_until_its_ancestry_is_complete() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let round_one = bench.make_round(1, &[0, 1, 2], |_| bench.parents(0));
        let parents: Vec<Digest> = round_one.iter().map(Certificate::header_digest).collect();
        let child = certify(&bench.committee, &bench.keypairs, 1, 2, parents.clone());
        let mut sync = Synchronizer::default();
        let mut ctx = Ctx::new(0, 0);
        let child_digest = child.header_digest();
        assert!(sync
            .admit(child.clone(), child_digest, &bench.dag, &id, &mut ctx)
            .is_none());
        assert_eq!(sends(&mut ctx).len(), 3, "every missing parent is pulled");
        assert!(sync
            .admit(child.clone(), child_digest, &bench.dag, &id, &mut ctx)
            .is_none());
        assert!(
            ctx.is_empty(),
            "a suspended certificate is not suspended twice"
        );
        for (landed, parent) in round_one.into_iter().enumerate() {
            let digest = parent.header_digest();
            let parent = sync
                .admit(parent, digest, &bench.dag, &id, &mut ctx)
                .expect("over genesis");
            bench.feed(vec![parent]);
            sync.arrived(&digest);
            let resumable: Vec<bool> = sync
                .suspended_on(&digest)
                .iter()
                .map(|c| sync.release(c, &child_digest, &bench.dag))
                .collect();
            assert_eq!(
                resumable,
                vec![landed == 2],
                "released by its last parent only"
            );
        }
        sync.retry(id.config.sync_retry_delay, &id, &mut ctx);
        assert!(ctx.is_empty(), "nothing is left to pull");
    }

    /// The `CertRangeRequest` ingress path: inverted and zero-length
    /// ranges are dropped without a response, and an arbitrarily wide
    /// range is clamped to `RANGE_PULL_MAX_ROUNDS` of locally retained
    /// history instead of trusting the requester.
    #[test]
    fn malformed_cert_range_requests_are_rejected_or_clamped() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        bench.full_round(1);
        let range = |lo: Round, hi: Round| -> Vec<Certificate> {
            let mut ctx = Ctx::new(0, 0);
            serve_range(lo, hi, 1, &bench.dag, &mut ctx);
            match sends(&mut ctx).pop() {
                Some((1, NarwhalMsg::CertResponse { certs })) => certs,
                _ => Vec::new(),
            }
        };
        // Inverted and zero-length ranges answer nothing at all.
        assert!(range(2, 1).is_empty(), "inverted range");
        assert!(range(u64::MAX, 0).is_empty(), "extreme inverted range");
        assert!(range(0, 0).is_empty(), "zero-length range");
        // A well-formed request is served...
        assert_eq!(range(1, 1).len(), 4, "round 1 has four certificates");
        // ...and an absurdly wide one is clamped to what the cap and the
        // local DAG actually hold, not the requested size.
        let clamped = range(1, u64::MAX);
        assert_eq!(clamped.len(), 4, "only retained rounds are served");
        assert!(clamped.iter().all(|c| c.round() == 1));
    }

    #[test]
    fn digest_pulls_are_served_from_the_dag_and_responses_filtered() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let genesis = Certificate::genesis(ValidatorId(2)).header_digest();
        let mut ctx = Ctx::new(0, 0);
        serve_digests(&[genesis, Digest::of(b"unknown")], 1, &bench.dag, &mut ctx);
        match &sends(&mut ctx)[..] {
            [(1, NarwhalMsg::CertResponse { certs })] => {
                assert_eq!(certs.len(), 1);
                assert_eq!(certs[0].header_digest(), genesis);
            }
            other => panic!("expected one response, got {other:?}"),
        }
        serve_digests(&[Digest::of(b"unknown")], 1, &bench.dag, &mut ctx);
        assert!(ctx.is_empty(), "nothing held, nothing said");
        // A response: held and forged certificates drop out, the rest stay.
        let round_one = bench.make_round(1, &[0, 1, 2], |_| bench.parents(0));
        bench.feed(vec![round_one[0].clone()]);
        let mut forged = round_one[1].clone();
        forged.header.round = 7;
        let response = vec![round_one[0].clone(), forged, round_one[2].clone()];
        let kept = Synchronizer::default().verified(response, &bench.dag, &id);
        let expect = round_one[2].clone();
        assert_eq!(kept, vec![(expect.header_digest(), expect)]);
    }

    /// The verified-block memo: only the exact block found, one entry per
    /// slot, nothing above the window or below the boundary, empty after a
    /// reset.
    #[test]
    fn only_the_exact_verified_block_is_remembered_within_the_retained_rounds() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        bench.full_round(1);
        let (committee, kps) = (bench.committee.clone(), bench.keypairs.clone());
        let stored = HashSet::new();
        let mut sync = Synchronizer::default();
        let mut ctx = Ctx::new(0, 0);
        let header = block(&bench, bench.parents(1), &[]);
        let digest = header.digest();
        let cert = crate::testing::certify_header(&committee, &kps, header.clone());
        // Before the block was seen, and after: the same verdict.
        assert!(!sync.is_verified(&header, &digest));
        assert_eq!(sync.verify(&cert, &digest, &committee), Ok(()));
        let ready = sync.on_header(header.clone(), &bench.dag, &stored, &id, &mut ctx);
        assert_eq!(ready, Some(header.clone()));
        assert!(sync.is_verified(&header, &digest));
        assert_eq!(sync.verify(&cert, &digest, &committee), Ok(()));
        // A re-delivery is still a block to vote on (the vote lock dedups).
        let again = sync.on_header(header.clone(), &bench.dag, &stored, &id, &mut ctx);
        assert_eq!(again, Some(header.clone()));
        assert_eq!(sync.verified.len(), 1);

        // A twin has another digest; a block signed by another key, or with
        // a corrupted signature, has the known digest and another signature.
        // None is found, so each gets the cold verdict.
        let twin = header.twin(&kps[1]);
        assert!(!sync.is_verified(&twin, &twin.digest()));
        let mut resigned = header.clone();
        resigned.signature = kps[2].sign_digest(&digest);
        let mut garbage = header.clone();
        garbage.signature.0[9] ^= 1;
        for forged in [resigned, garbage] {
            assert_eq!(forged.digest(), digest);
            assert!(!sync.is_verified(&forged, &digest));
            let mut forged_cert = cert.clone();
            forged_cert.header = forged;
            let verdict = sync.verify(&forged_cert, &digest, &committee);
            assert_eq!(verdict, forged_cert.verify(&committee));
            assert!(
                verdict.is_err(),
                "a forged block signature never rides the memo"
            );
        }
        // The twin, once verified, takes the slot: one entry per slot.
        sync.on_header(twin.clone(), &bench.dag, &stored, &id, &mut ctx);
        assert!(sync.is_verified(&twin, &twin.digest()));
        assert!(!sync.is_verified(&header, &digest));
        assert_eq!(sync.verified.len(), 1);

        // Bounded: every author floods every round up to 40; only rounds
        // within RANGE_PULL_LAG of the DAG (highest round 1) are remembered.
        for round in 1..=40 {
            for author in 0..4u32 {
                let parents = (0..3u8).map(|i| Digest::of(&[i, round as u8])).collect();
                let flood = Header::new(
                    &kps[author as usize],
                    ValidatorId(author),
                    round,
                    vec![],
                    parents,
                    None,
                );
                sync.on_header(flood, &bench.dag, &stored, &id, &mut ctx);
            }
        }
        let window = bench.dag.highest_round() + RANGE_PULL_LAG;
        assert_eq!(sync.verified.len() as u64, window * 4);
        assert!(sync.verified.keys().all(|(round, _)| *round <= window));
        // Pruned with the GC boundary, and empty after a reset.
        sync.prune(4, &[]);
        assert_eq!(sync.verified.len() as u64, (window - 3) * 4);
        assert!(sync.verified.keys().all(|(round, _)| *round >= 4));
        sync.reset();
        assert!(sync.verified.is_empty());
    }

    #[test]
    fn a_certificate_far_ahead_pulls_the_round_range_once_per_retry_delay() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let ahead = certify(&bench.committee, &bench.keypairs, 1, 9, vec![]);
        let mut sync = Synchronizer::default();
        let mut ctx = Ctx::new(0, 0);
        let near = certify(
            &bench.committee,
            &bench.keypairs,
            1,
            1 + RANGE_PULL_LAG,
            vec![],
        );
        sync.maybe_range_pull(&near, 1, &bench.dag, &id, &mut ctx);
        assert!(ctx.is_empty(), "within reach of per-certificate pulls");
        sync.maybe_range_pull(&ahead, 1, &bench.dag, &id, &mut ctx);
        sync.maybe_range_pull(&ahead, 1, &bench.dag, &id, &mut ctx);
        match &sends(&mut ctx)[..] {
            [(1, NarwhalMsg::CertRangeRequest { from: 1, to: 9 })] => {}
            other => panic!("expected one range pull, got {other:?}"),
        }
        let mut later = Ctx::new(id.config.sync_retry_delay, 0);
        sync.maybe_range_pull(&ahead, 1, &bench.dag, &id, &mut later);
        assert_eq!(sends(&mut later)[0].0, 2, "rotated");
    }
}
