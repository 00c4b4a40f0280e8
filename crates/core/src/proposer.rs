//! The proposer: when this validator's next block leaves, and with what
//! (§3.1 block creation, §3.3 re-injection).
//!
//! # Pacing: rounds follow the commit, the clock is the fallback
//!
//! The block of round r + 1 needs 2f + 1 certificates of round r, and then
//! leaves as soon as none of the waits below holds it. The only clock is
//! `round_entered + max_header_delay` (the *deadline*); consensus wishes
//! keep their own bounds.
//!
//! 1. **A round is live while certified payload awaits its anchor.** An
//!    idle primary (no own digest pending) waits for the deadline only if
//!    the round is not live. It is live once we voted for a peer's
//!    payload-bearing block of it, and for as long as the DAG holds a
//!    payload-bearing certificate no anchor has ordered: the 3-4 rounds a
//!    block still needs to reach its anchor run at network speed instead of
//!    each waiting for somebody's next batch (§3.1: a validator moves on as
//!    soon as it holds 2f + 1 certificates). With no payload anywhere, an
//!    empty block at the deadline keeps the DAG and consensus advancing: an
//!    all-idle committee makes one round per `max_header_delay`.
//! 2. **Every block we voted for is waited for.** Until the deadline, the
//!    block of round r + 1 waits for the certificate of every round-r block
//!    this validator signed a vote for, its own included: a block that
//!    gathered votes becomes a parent of the next round instead of an
//!    orphan no anchor reaches. An author that collects votes and withholds
//!    the certificate costs the committee one deadline per round, never
//!    more.
//! 3. **Late blocks still get their vote** — the certifier's rule; see its
//!    module doc. Without it, one block that lost the race against the
//!    round advance never certifies, and rule 2 stalls every validator that
//!    voted for it.
//! 4. **An own block is given up only when its replacement is built, and
//!    the replacement carries its payload first.** The certifier holds one
//!    block in flight; adopting the next voids the previous, so if that one
//!    is not certified by then it never will be, and its digests lead the
//!    new block rather than waiting `gc_depth` rounds for GC re-injection
//!    (which remains for blocks that certified and were pruned unordered).
//!
//! Consensus wishes sit beside these. A *parent* wish (Bullshark's wave
//! leader) is the one certificate whose absence costs a whole wave, so it
//! is worth the leader timeout — a WAN round-trip. *Coverage* wishes (an
//! anchor sweeping the slowest regions' chains) are opportunistic and must
//! stay inside the quorum slack before the 2f + 1st certificate the round
//! advance waits for, or the wait stretches the cadence; fig-7 WAN
//! stragglers trail round entry by tens of milliseconds, so 3/8 of the
//! header delay catches them. Chain continuity — the wait for one's own
//! previous certificate — is rule 2's own-block case, not a wish.
//!
//! # State
//!
//! Owns the round pacing state (`last_proposed`, `live_round`, the
//! [`ProposalWait`] in force, the [`ProposalCounts`] it feeds), the queue of
//! own digests awaiting a block (`pending_digests`), what each own block
//! carried (`own_payloads`), and the three batch-bookkeeping sets. Two of
//! those gate and feed proposals — `committed_batches` keeps a re-reported
//! batch out of a second block, `batch_meta` is what re-injection re-queues
//! and an own commit is accounted from — and `stored_batches` is filled by
//! the same report and emptied by the same prune; its one outside reader,
//! the vote's availability check, is lent the set.
//!
//! Outcomes: [`Proposer::try_propose`] returns the signed header to certify,
//! or arms the one `TAG_PROPOSE` timer of the wait it is in;
//! [`Proposer::prune`] returns the batch digests no retained block names.

use crate::consensus::DagConsensus;
use crate::dag::Dag;
use crate::messages::BatchInfo;
use crate::primary::{Ctx, Identity, TAG_PROPOSE};
use crate::store::{disk, BlockStore, BlockStoreError};
use nt_crypto::{CoinShare, Digest};
use nt_network::Time;
use nt_types::{Certificate, CommitEvent, Header, ProposalCounts, Round, ValidatorId};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// The proposal wait in force: its round, the due time of the one
/// `TAG_PROPOSE` timer armed for it, and whether only a wish still held it.
#[derive(Default)]
struct ProposalWait {
    round: Round,
    until: Time,
    by_wish: bool,
}

/// What the proposer is told about the round it is to propose in.
pub(crate) struct RoundState<'a> {
    pub(crate) round: Round,
    pub(crate) entered: Time,
    /// Certified payload awaits its anchor (rule 1).
    pub(crate) live: bool,
    /// The blocks of `round - 1` this validator signed a vote for, by
    /// creator (rule 2).
    pub(crate) voted: Option<&'a HashMap<ValidatorId, Digest>>,
}

#[derive(Default)]
pub(crate) struct Proposer {
    last_proposed: Round,
    /// The latest round in which we voted for a payload-bearing block: the
    /// committee has work in that round, so an idle proposal need not wait.
    pub(crate) live_round: Round,
    wait: ProposalWait,
    /// Why each block so far was proposed.
    pub(crate) proposals: ProposalCounts,
    /// Own-batch digests ready for inclusion (from own workers).
    pending_digests: VecDeque<BatchInfo>,
    /// Digests queued or included but not yet committed (for re-injection).
    batch_meta: HashMap<Digest, BatchInfo>,
    /// Batches our workers hold (availability condition for voting, §4.2).
    pub(crate) stored_batches: HashSet<Digest>,
    /// Own batches that reached the committed sequence.
    committed_batches: HashSet<Digest>,
    /// Payload digests of our own proposed blocks, per round (§3.3).
    own_payloads: BTreeMap<Round, Vec<Digest>>,
}

fn payload_digests(header: &Header) -> Vec<Digest> {
    header.payload.iter().map(|(d, _)| *d).collect()
}

impl Proposer {
    /// Recovers own committed batches (so they are not re-proposed) and
    /// the payloads of our own certified-but-not-yet-committed blocks: the
    /// recovered worker re-reports every batch it holds, and without this
    /// in-flight record `on_report` would queue these digests for a
    /// *second* proposal — committing the same transactions twice once both
    /// blocks linearize. (Committed blocks' payloads are covered by
    /// `committed_batches`; blocks pruned uncommitted were re-injected by
    /// the pre-crash GC.) Resumes behind the vote locks: `last_signed` is
    /// the highest round we already signed a block for, which must never
    /// get a second one, and `unfinished` that block if it never certified
    /// — its payload is in flight again.
    pub(crate) fn recover(
        &mut self,
        store: &BlockStore,
        dag: &Dag,
        ordered: &HashSet<Digest>,
        last_signed: Round,
        unfinished: Option<&Header>,
        id: &Identity,
    ) -> Result<(), BlockStoreError> {
        self.committed_batches = store.committed_batches()?;
        self.last_proposed = last_signed;
        if let Some(header) = unfinished.filter(|h| !h.payload.is_empty()) {
            self.own_payloads
                .insert(header.round, payload_digests(header));
        }
        if id.config.bugs.skip_inflight_recovery {
            return Ok(());
        }
        for round in dag.first_retained_round()..=dag.highest_round() {
            let Some(cert) = dag.get(round, id.me) else {
                continue;
            };
            let digests = payload_digests(&cert.header);
            if ordered.contains(&cert.header_digest()) {
                // Linearized: its payload is committed, whether or not
                // the (later-written, thus more tearable) cb/ markers
                // survived the crash.
                self.committed_batches.extend(digests);
            } else if !digests.is_empty() {
                self.own_payloads.insert(round, digests);
            }
        }
        Ok(())
    }

    /// Proposes the block of `at.round` once the pacing rules (module doc)
    /// let it go; until then, arms the one timer of the wait it is in.
    pub(crate) fn try_propose<C: DagConsensus>(
        &mut self,
        at: RoundState,
        dag: &Dag,
        consensus: &C,
        id: &Identity,
        ctx: &mut Ctx<C::Ext>,
    ) -> Option<Header> {
        let RoundState {
            round,
            entered: round_entered,
            live,
            voted,
        } = at;
        if round == 0 || self.last_proposed >= round {
            return None;
        }
        if dag.round_size(round - 1) < id.committee.quorum_threshold() {
            return None;
        }
        let now = ctx.now();
        let config = &id.config;
        let deadline = round_entered + config.max_header_delay;
        let wish_deadline = round_entered + config.max_leader_delay.max(config.max_header_delay);
        let coverage_deadline = round_entered + config.max_header_delay * 3 / 8;
        let absent = |&(round, author): &(Round, ValidatorId)| dag.get(round, author).is_none();
        let awaiting_parent =
            now < wish_deadline && consensus.parent_wishes(round).iter().any(absent);
        let wishes = consensus.coverage_wishes(round, id.me);
        let awaiting_coverage = now < coverage_deadline && wishes.iter().any(absent);
        // Rule 2. The slot, not the digest: if a twin of the block we voted
        // for certified instead, ours no longer can.
        let uncertified = |author: &ValidatorId| absent(&(round - 1, *author));
        let awaiting_voted =
            now < deadline && voted.is_some_and(|locks| locks.keys().any(uncertified));
        // Rule 1.
        let idle = self.pending_digests.is_empty();
        let awaiting_payload = now < deadline && idle && !live && self.live_round != round;
        if awaiting_parent || awaiting_coverage || awaiting_voted || awaiting_payload {
            let until = if awaiting_parent {
                wish_deadline
            } else if awaiting_voted || awaiting_payload {
                deadline
            } else {
                coverage_deadline
            };
            // One timer per wait, however many certificates and reports
            // land here; `until > now`, so a fired timer's successor differs.
            if (self.wait.round, self.wait.until) != (round, until) {
                (self.wait.round, self.wait.until) = (round, until);
                ctx.timer(until - now, TAG_PROPOSE);
            }
            self.wait.by_wish = !awaiting_voted && !awaiting_payload;
            return None;
        }
        // Rule 4: the certifier is about to replace the block in flight, so
        // if that one has not certified it never will, and what it carried
        // leads this one.
        if absent(&(self.last_proposed, id.me)) {
            if let Some(digests) = self.own_payloads.remove(&self.last_proposed) {
                self.requeue(digests);
            }
        }
        let counts = &mut self.proposals;
        let trigger = if self.wait.round == round && self.wait.by_wish {
            &mut counts.wish
        } else if !self.pending_digests.is_empty() {
            &mut counts.payload
        } else if now < deadline {
            &mut counts.followed
        } else {
            &mut counts.deadline
        };
        *trigger += 1;
        let parents = dag
            .round_certs(round - 1)
            .map(Certificate::header_digest)
            .collect();
        let take = self
            .pending_digests
            .len()
            .min(id.config.header_payload_limit);
        let payload = self
            .pending_digests
            .drain(..take)
            .map(|info| (info.digest, info.worker))
            .collect();
        let coin_share = Some(CoinShare::new(&id.keypair, round));
        let header = Header::new(&id.keypair, id.me, round, payload, parents, coin_share);
        self.last_proposed = round;
        self.own_payloads.insert(round, payload_digests(&header));
        Some(header)
    }

    /// Puts the uncommitted among `digests` back at the head of the queue,
    /// in their order.
    fn requeue(&mut self, digests: Vec<Digest>) {
        for digest in digests.iter().rev() {
            if !self.committed_batches.contains(digest) {
                if let Some(info) = self.batch_meta.get(digest) {
                    self.pending_digests.push_front(info.clone());
                }
            }
        }
    }

    /// Our worker reports a stored batch. Returns whether it queued an own
    /// digest for proposal.
    pub(crate) fn on_report(&mut self, info: BatchInfo, id: &Identity) -> bool {
        let digest = info.digest;
        self.stored_batches.insert(digest);
        let own = info.creator == id.me;
        let first = self.batch_meta.insert(digest, info.clone()).is_none();
        // A recovered worker re-reports everything it holds; own batches
        // that already reached the committed sequence, or that sit inside a
        // certified block still awaiting commit, must not re-enter the
        // proposal queue — either way their transactions would linearize
        // twice. (`own_payloads` is GC-bounded, so the scan is small.)
        let in_flight = || {
            self.own_payloads
                .values()
                .any(|digests| digests.contains(&digest))
        };
        // `prune` bounds `committed_batches` by forgetting the batches of
        // pruned blocks, but a worker whose store the primary's GC does not
        // reach (one WAL per role) holds them for good and re-reports them
        // all when it restarts: the durable marker is the permanent filter.
        let marked = || disk(&id.store, |s| s.is_committed_batch(&digest)) == Some(true);
        let queue =
            own && first && !self.committed_batches.contains(&digest) && !in_flight() && !marked();
        if queue {
            self.pending_digests.push_back(info);
        }
        queue
    }

    /// Our own block `cert` reached the committed sequence: accounts its
    /// batches on `event` and marks them committed.
    pub(crate) fn on_own_commit(
        &mut self,
        cert: &Certificate,
        event: &mut CommitEvent,
        id: &Identity,
    ) {
        // Throughput/latency accounting: each batch is counted exactly
        // once across the system — by its creator (see DESIGN.md).
        for (batch_digest, _) in &cert.header.payload {
            if let Some(info) = self.batch_meta.get(batch_digest) {
                event.tx_count += info.tx_count;
                event.tx_bytes += info.tx_bytes;
                event.samples.extend(info.samples.iter().copied());
                self.committed_batches.insert(*batch_digest);
                disk(&id.store, |s| s.put_committed_batch(batch_digest));
            }
        }
        self.own_payloads.remove(&cert.round());
    }

    /// Forgets one batch no retained block references.
    fn forget(&mut self, digest: &Digest, forgotten: &mut Vec<Digest>) {
        self.stored_batches.remove(digest);
        self.batch_meta.remove(digest);
        forgotten.push(*digest);
    }

    /// Garbage collection (§3.3) at `gc_round`, over the `pruned` blocks:
    /// forgets the batches of peers' blocks and of our own committed ones
    /// (returned, for whoever holds their bytes), and re-injects the digests
    /// of our own uncommitted pruned blocks at the front of the queue.
    pub(crate) fn prune(
        &mut self,
        gc_round: Round,
        pruned: &[Certificate],
        id: &Identity,
    ) -> Vec<Digest> {
        let mut forgotten = Vec::new();
        for cert in pruned.iter().filter(|c| c.origin() != id.me) {
            for (batch_digest, _) in &cert.header.payload {
                self.forget(batch_digest, &mut forgotten);
            }
        }
        // Re-inject our own batches from pruned, uncommitted blocks so the
        // transactions eventually commit (transaction-level fairness, §8.2).
        let retained = self.own_payloads.split_off(&(gc_round + 1));
        for digests in std::mem::replace(&mut self.own_payloads, retained).into_values() {
            self.requeue(digests);
        }
        // Bound the committed-batch set: pruned own blocks are final.
        for cert in pruned.iter().filter(|c| c.origin() == id.me) {
            for (batch_digest, _) in &cert.header.payload {
                if self.committed_batches.remove(batch_digest) {
                    self.forget(batch_digest, &mut forgotten);
                }
            }
        }
        forgotten
    }

    /// Reconciles our own certified-but-uncommitted payloads against a
    /// just-installed snapshot basis; returns the digests newly presumed
    /// committed. A block the new `ordered` set names is committed; one
    /// still in the new DAG awaiting an anchor stays in-flight. Everything
    /// else — below the boundary or absent from the served window — was
    /// certified before the outage and almost surely linearized by the
    /// committee while we were down, and no local record can prove
    /// otherwise. Treating those as committed (never re-proposing) is the
    /// safe side: a re-injection here is a double-commit the moment both
    /// blocks linearize (`sim_fuzz` seed 0 — the committee committed the
    /// block mid-partition, then our post-install GC re-queued its
    /// batches). Exactly-once wins over at-least-once; clients re-submit.
    pub(crate) fn reconcile(
        &mut self,
        dag: &Dag,
        ordered: &HashSet<Digest>,
        id: &Identity,
    ) -> Vec<Digest> {
        let mut presumed_committed = Vec::new();
        for (round, digests) in std::mem::take(&mut self.own_payloads) {
            match dag.get(round, id.me) {
                Some(cert) if !ordered.contains(&cert.header_digest()) => {
                    self.own_payloads.insert(round, digests);
                }
                _ => {
                    for digest in digests {
                        if self.committed_batches.insert(digest) {
                            presumed_committed.push(digest);
                        }
                    }
                }
            }
        }
        presumed_committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NarwhalConfig;
    use crate::consensus::{ConsensusOut, NoConsensus, NoExt};
    use crate::testing::fixture::{batch, durable, effects, identity};
    use crate::testing::{certify_header, DagBench};
    use nt_network::MS;
    use nt_types::WorkerId;

    /// Wishes for fixed authors' previous-round blocks, Bullshark-style.
    #[derive(Default)]
    struct Wishes {
        parent: Vec<u32>,
        coverage: Vec<u32>,
    }

    impl DagConsensus for Wishes {
        type Ext = NoExt;

        fn on_certificate(&mut self, _: &Dag, _: &Certificate, _: &mut ConsensusOut<NoExt>) {}

        fn parent_wishes(&self, round: Round) -> Vec<(Round, ValidatorId)> {
            let slot = |a: &u32| (round - 1, ValidatorId(*a));
            self.parent.iter().map(slot).collect()
        }

        fn coverage_wishes(&self, round: Round, _: ValidatorId) -> Vec<(Round, ValidatorId)> {
            let slot = |a: &u32| (round - 1, ValidatorId(*a));
            self.coverage.iter().map(slot).collect()
        }
    }

    /// When the round under test was entered.
    const ENTERED: Time = 10 * MS;

    /// What validator 0 is told besides the round: whether certified payload
    /// awaits its anchor, and whose previous-round blocks it voted for.
    #[derive(Clone, Copy, Default)]
    struct Told<'a> {
        live: bool,
        voted: &'a [u32],
    }

    /// One `try_propose` of validator 0 for `round` at `now`: the header,
    /// and the delays of the `TAG_PROPOSE` timers it armed.
    fn propose_told<C: DagConsensus<Ext = NoExt>>(
        proposer: &mut Proposer,
        bench: &DagBench<C>,
        round: Round,
        now: Time,
        told: Told,
    ) -> (Option<Header>, Vec<Time>) {
        let mut ctx = Ctx::new(now, 0);
        let id = identity(bench, 0);
        let lock = |a: &u32| (ValidatorId(*a), Digest::default());
        let voted: HashMap<ValidatorId, Digest> = told.voted.iter().map(lock).collect();
        let at = RoundState {
            round,
            entered: ENTERED,
            live: told.live,
            voted: Some(&voted),
        };
        let header = proposer.try_propose(at, &bench.dag, &bench.rule, &id, &mut ctx);
        let (sends, timers) = effects(&mut ctx, TAG_PROPOSE);
        assert!(sends.is_empty(), "the proposer sends nothing itself");
        (header, timers)
    }

    /// [`propose_told`] in an idle round, having voted for nothing.
    fn propose<C: DagConsensus<Ext = NoExt>>(
        proposer: &mut Proposer,
        bench: &DagBench<C>,
        round: Round,
        now: Time,
    ) -> (Option<Header>, Vec<Time>) {
        propose_told(proposer, bench, round, now, Told::default())
    }

    fn slot(info: &BatchInfo) -> (Digest, WorkerId) {
        (info.digest, info.worker)
    }

    #[test]
    fn proposes_queued_payload_over_the_previous_round() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let mut p = Proposer::default();
        assert!(p.on_report(batch(0, 1), &identity(&bench, 0)));
        let (header, timers) = propose(&mut p, &bench, 1, ENTERED + MS);
        let header = header.expect("payload needs no wait");
        assert!(timers.is_empty());
        assert_eq!((header.round, header.parents.len()), (1, 4), "genesis");
        assert_eq!(header.payload, vec![slot(&batch(0, 1))]);
        assert!(header.coin_share.is_some());
        assert_eq!(p.proposals.payload, 1);
        // One block per round, and a re-reported batch stays out of the next.
        assert!(propose(&mut p, &bench, 1, ENTERED + 2 * MS).0.is_none());
        assert!(!p.on_report(batch(0, 1), &identity(&bench, 0)));
    }

    #[test]
    fn an_idle_round_ends_with_an_empty_block_at_the_header_delay() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let delay = identity(&bench, 0).config.max_header_delay;
        let mut p = Proposer::default();
        assert_eq!(propose(&mut p, &bench, 1, ENTERED), (None, vec![delay]));
        let (header, _) = propose(&mut p, &bench, 1, ENTERED + delay);
        assert!(header.expect("deadline").payload.is_empty());
        assert_eq!(p.proposals.deadline, 1);
    }

    /// Rule 1, the proposer's half: told that certified payload awaits its
    /// anchor, an idle proposer does not wait; told it no longer does, the
    /// next round is back on the clock.
    #[test]
    fn an_idle_proposer_follows_a_live_round_but_not_without_parents() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        let live = Told {
            live: true,
            ..Told::default()
        };
        // A recovered or snapshot-installed primary can sit at a round whose
        // parents it does not hold yet.
        let mut p = Proposer::default();
        let lone = propose_told(&mut p, &bench, 3, ENTERED + MS, live);
        assert_eq!(lone, (None, vec![]));
        assert_eq!(p.last_proposed, 0);
        let (header, timers) = propose_told(&mut p, &bench, 1, ENTERED + MS, live);
        assert!(header.expect("the round is live").payload.is_empty());
        assert!(timers.is_empty());
        assert_eq!((p.proposals.followed, p.proposals.deadline), (1, 0));
        // The payload was ordered (or pruned): idle again.
        bench.round(1, &[1, 2, 3]);
        let delay = identity(&bench, 0).config.max_header_delay;
        let idle = propose(&mut p, &bench, 2, ENTERED + MS);
        assert_eq!(idle, (None, vec![delay - MS]));
        // The vote for a peer's payload-bearing block of the round makes it
        // live before any certificate does.
        p.live_round = 2;
        assert!(propose(&mut p, &bench, 2, ENTERED + 2 * MS).0.is_some());
        assert_eq!((p.proposals.followed, p.proposals.deadline), (2, 0));
    }

    /// Rule 2: with its own batch queued, validator 0 of 4 still holds its
    /// round-2 block for the round-1 blocks it voted for — and for those only.
    #[test]
    fn the_next_block_waits_for_every_block_we_voted_for_but_not_past_the_deadline() {
        let delay = NarwhalConfig::default().max_header_delay;
        let loaded = || {
            let mut bench = DagBench::new(4, |_| NoConsensus);
            bench.round(1, &[0, 1, 2]);
            let mut p = Proposer::default();
            p.on_report(batch(0, 1), &identity(&bench, 0));
            (bench, p)
        };
        let voted_for = |voted| Told { live: true, voted };
        // Validator 3's block never got our vote: nothing to wait for.
        let (bench, mut p) = loaded();
        let told = voted_for(&[0, 1, 2]);
        assert!(propose_told(&mut p, &bench, 2, ENTERED, told).0.is_some());
        // It did: the block waits, a live round and a queued batch
        // notwithstanding, until the certificate arrives.
        let (mut bench, mut p) = loaded();
        let told = voted_for(&[0, 1, 2, 3]);
        let held = propose_told(&mut p, &bench, 2, ENTERED + MS, told);
        assert_eq!(held, (None, vec![delay - MS]));
        bench.round(1, &[3]);
        let (header, timers) = propose_told(&mut p, &bench, 2, ENTERED + 2 * MS, told);
        assert_eq!(header.expect("certified").parents.len(), 4);
        assert!(timers.is_empty());
        assert_eq!((p.proposals.payload, p.proposals.wish), (1, 0));
        // Its author withholds the certificate: one header delay, no more.
        let (bench, mut p) = loaded();
        assert!(propose_told(&mut p, &bench, 2, ENTERED + MS, told)
            .0
            .is_none());
        let late = ENTERED + delay - 1;
        assert_eq!(propose_told(&mut p, &bench, 2, late, told), (None, vec![]));
        let (header, _) = propose_told(&mut p, &bench, 2, ENTERED + delay, told);
        assert_eq!(header.expect("the deadline").parents.len(), 3);
    }

    /// The wait table: validator 0 of 10 at round 2 wishes for validator
    /// 5's block as a parent and for validator 6's as coverage, and voted
    /// for validator 7's.
    #[test]
    fn each_wait_alone_and_combined_arms_one_timer_for_its_own_deadline() {
        let config = NarwhalConfig::default();
        let (header, leader) = (config.max_header_delay, config.max_leader_delay);
        // (absent round-1 blocks, own batch queued, wait from round entry)
        let cases: [(&[u32], bool, Option<Time>); 11] = [
            (&[], true, None),
            (&[], false, Some(header)),
            (&[5], true, Some(leader)),
            (&[7], true, Some(header)),
            (&[6], true, Some(header * 3 / 8)),
            (&[6], false, Some(header)),
            (&[6, 7], true, Some(header)),
            (&[7], false, Some(header)),
            (&[5, 6], false, Some(leader)),
            (&[5, 7], true, Some(leader)),
            (&[5, 6, 7], true, Some(leader)),
        ];
        for (absent, queued, wait) in cases {
            let mut bench = DagBench::new(10, |_| Wishes {
                parent: vec![5],
                coverage: vec![6],
            });
            let present: Vec<u32> = (0..10).filter(|a| !absent.contains(a)).collect();
            bench.round(1, &present);
            let mut p = Proposer::default();
            if queued {
                p.on_report(batch(0, 1), &identity(&bench, 0));
            }
            let told = Told {
                live: false,
                voted: &[0, 7],
            };
            let now = ENTERED + MS;
            let (proposed, timers) = propose_told(&mut p, &bench, 2, now, told);
            let case = format!("absent {absent:?}, queued {queued}");
            match wait {
                None => assert!(proposed.is_some() && timers.is_empty(), "{case}"),
                Some(wait) => {
                    assert!(proposed.is_none(), "{case}");
                    assert_eq!(timers, vec![ENTERED + wait - now], "{case}");
                    // However many events land in the wait, one timer.
                    assert_eq!(
                        propose_told(&mut p, &bench, 2, now + MS, told),
                        (None, vec![]),
                        "{case}"
                    );
                    // Nothing outlasts its deadline.
                    let (proposed, _) = propose_told(&mut p, &bench, 2, ENTERED + wait, told);
                    assert_eq!(proposed.map(|h| h.round), Some(2), "{case}");
                    // A wish ended the wait only if neither payload nor a
                    // block we voted for was also awaited.
                    let by_wish = queued && !absent.is_empty() && !absent.contains(&7);
                    assert_eq!(p.proposals.wish, by_wish as u32, "{case}");
                }
            }
        }
    }

    #[test]
    fn a_missing_wished_leader_holds_even_a_live_round() {
        let mut bench = DagBench::new(4, |_| Wishes {
            parent: vec![3],
            coverage: vec![],
        });
        bench.round(1, &[0, 1, 2]);
        let config = NarwhalConfig::default();
        let mut p = Proposer::default();
        let live = Told {
            live: true,
            ..Told::default()
        };
        let (header, timers) = propose_told(&mut p, &bench, 2, ENTERED + MS, live);
        assert!(header.is_none(), "validator 3's block is wished for");
        assert_eq!(timers, vec![config.max_leader_delay - MS]);
        // The header delay passes: the leader timeout is the longer bound.
        let at_header_delay = ENTERED + config.max_header_delay;
        assert!(propose_told(&mut p, &bench, 2, at_header_delay, live)
            .0
            .is_none());
        let at_leader_delay = ENTERED + config.max_leader_delay;
        assert!(propose_told(&mut p, &bench, 2, at_leader_delay, live)
            .0
            .is_some());
        assert_eq!(p.proposals.wish, 1);
    }

    /// Rule 4: a block that never certified hands its payload to the block
    /// that replaces it, at the front; one that did certify keeps it.
    #[test]
    fn an_abandoned_blocks_payload_leads_its_replacement_and_is_in_no_other_block() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let delay = id.config.max_header_delay;
        let mut p = Proposer::default();
        let [a, b, c, d] = [1, 2, 3, 4].map(|seq| batch(0, seq));
        p.on_report(a.clone(), &id);
        p.on_report(b.clone(), &id);
        let first = propose(&mut p, &bench, 1, ENTERED).0.expect("payload");
        assert_eq!(first.payload, vec![slot(&a), slot(&b)]);
        // Round 1 closes on the peers' certificates; ours never forms.
        bench.round(1, &[1, 2, 3]);
        p.on_report(c.clone(), &id);
        let told = Told {
            live: true,
            voted: &[0, 1, 2, 3],
        };
        // Until the deadline the block in flight may still certify: it is
        // not given up, and nothing is proposed over it.
        let held = propose_told(&mut p, &bench, 2, ENTERED + MS, told);
        assert_eq!(held, (None, vec![delay - MS]));
        assert!(p.own_payloads.contains_key(&1));
        let (second, _) = propose_told(&mut p, &bench, 2, ENTERED + delay, told);
        let second = second.expect("the deadline");
        assert_eq!(second.payload, vec![slot(&a), slot(&b), slot(&c)]);
        assert_eq!(p.proposals.payload, 2, "what it owes is payload");
        assert!(!p.own_payloads.contains_key(&1), "given up for good");
        // The replacement certifies: the next block carries only what is new,
        // and GC finds nothing of the abandoned block to re-inject.
        let second = certify_header(&bench.committee, &bench.keypairs, second);
        bench.feed(vec![second]);
        bench.round(2, &[1, 2, 3]);
        p.on_report(d.clone(), &id);
        let (third, _) = propose_told(&mut p, &bench, 3, ENTERED, told);
        assert_eq!(third.expect("payload").payload, vec![slot(&d)]);
        assert!(p.prune(1, &[], &id).is_empty());
        assert!(p.pending_digests.is_empty());
    }

    #[test]
    fn prune_requeues_only_uncommitted_own_payloads() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let mut p = Proposer::default();
        let [a, b, c] = [batch(0, 1), batch(0, 2), batch(1, 1)];
        // Own block 1 carries `a`, own block 2 carries `b`; both certify.
        let certify = |bench: &DagBench<NoConsensus>, header| {
            certify_header(&bench.committee, &bench.keypairs, header)
        };
        p.on_report(a.clone(), &id);
        let first = propose(&mut p, &bench, 1, ENTERED).0.expect("payload");
        let first = certify(&bench, first);
        bench.feed(vec![first.clone()]);
        bench.round(1, &[1, 2, 3]);
        p.on_report(b.clone(), &id);
        let second = propose(&mut p, &bench, 2, ENTERED).0.expect("payload");
        let second = certify(&bench, second);
        bench.feed(vec![second.clone()]);
        // A peer's block carries `c`, which our worker holds.
        assert!(
            !p.on_report(c.clone(), &id),
            "peers' batches are not ours to propose"
        );
        let peer = Header::new(
            &bench.keypairs[1],
            ValidatorId(1),
            1,
            vec![(c.digest, c.worker)],
            bench.parents(0),
            None,
        );
        let peer = certify(&bench, peer);
        // Only block 1 commits before GC passes both.
        let mut event = CommitEvent::default();
        p.on_own_commit(&first, &mut event, &id);
        assert_eq!((event.tx_count, event.tx_bytes), (a.tx_count, a.tx_bytes));
        let forgotten = p.prune(2, &[first, peer, second], &id);
        assert_eq!(
            forgotten,
            vec![c.digest, a.digest],
            "peers', then own committed"
        );
        assert!(p.stored_batches.contains(&b.digest) && p.stored_batches.len() == 1);
        let queued: Vec<Digest> = p.pending_digests.iter().map(|i| i.digest).collect();
        assert_eq!(queued, vec![b.digest], "`a` committed; `b` goes again");
        assert!(p.own_payloads.is_empty());
    }

    /// A worker with a store of its own (one WAL per role) is never garbage
    /// collected and re-reports everything when it restarts alone: an own
    /// batch that committed, and whose block GC has since made us forget,
    /// must not be proposed a second time.
    #[test]
    fn a_committed_batch_re_reported_after_its_block_was_pruned_is_not_queued_again() {
        let bench = DagBench::new(4, |_| NoConsensus);
        let id = Identity {
            store: durable(),
            ..identity(&bench, 0)
        };
        let mut p = Proposer::default();
        let a = batch(0, 1);
        assert!(p.on_report(a.clone(), &id));
        let block = propose(&mut p, &bench, 1, ENTERED).0.expect("payload");
        let block = certify_header(&bench.committee, &bench.keypairs, block);
        p.on_own_commit(&block, &mut CommitEvent::default(), &id);
        assert_eq!(p.prune(1, &[block], &id), vec![a.digest]);
        assert!(p.batch_meta.is_empty() && p.committed_batches.is_empty());
        assert!(!p.on_report(a.clone(), &id), "committed once, for good");
        assert!(p.pending_digests.is_empty());
        // A batch that never committed is still ours to propose.
        assert!(p.on_report(batch(0, 2), &id));
    }
}
