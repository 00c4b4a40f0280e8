//! The proposer: when this validator's next block leaves, and with what
//! (§3.1 block creation, §3.3 re-injection).
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

    /// Proposes the block of `round` once it has something to say and
    /// everything it was asked to reference; until then, arms the one timer
    /// of the wait it is in.
    pub(crate) fn try_propose<C: DagConsensus>(
        &mut self,
        round: Round,
        round_entered: Time,
        dag: &Dag,
        consensus: &C,
        id: &Identity,
        ctx: &mut Ctx<C::Ext>,
    ) -> Option<Header> {
        if round == 0 || self.last_proposed >= round {
            return None;
        }
        if dag.round_size(round - 1) < id.committee.quorum_threshold() {
            return None;
        }
        // Round pacing: a block goes out once it has something to say and
        // everything it was asked to reference.
        // - Payload: own digests are pending, or the round is *live* — we
        //   voted for a peer's payload-bearing block of it, so rounds move
        //   with payload arriving anywhere, not with idle validators' clocks
        //   (§3.1). A vote means the parents are known and our worker holds
        //   every batch: only real dissemination speeds rounds up. With no
        //   payload anywhere, an empty block at `max_header_delay` keeps the
        //   DAG and consensus advancing.
        // - Parent wishes (Bullshark's wave leader): the one certificate
        //   whose absence costs a whole wave, so worth the leader timeout —
        //   a WAN round-trip — where payload is only worth the header delay.
        // - Coverage wishes. Our *own* previous certificate is chain
        //   continuity: a block without it strands the chain below until GC
        //   re-injection (a gc_depth-round cliff, ~16 s p99 on 10/20-node
        //   committees), so it is worth the full header delay. *Other*
        //   validators' (an anchor sweeping the slowest regions' chains) are
        //   opportunistic and must stay inside the quorum slack before the
        //   2f + 1st certificate the round advance waits for, or the wait
        //   stretches the cadence; fig-7 WAN stragglers trail round entry by
        //   tens of milliseconds, so 3/8 of the header delay catches them.
        let now = ctx.now();
        let config = &id.config;
        let deadline = round_entered + config.max_header_delay;
        let wish_deadline = round_entered + config.max_leader_delay.max(config.max_header_delay);
        let coverage_deadline = round_entered + config.max_header_delay * 3 / 8;
        let absent = |&(round, author): &(Round, ValidatorId)| dag.get(round, author).is_none();
        let awaiting_parent =
            now < wish_deadline && consensus.parent_wishes(round).iter().any(absent);
        let wishes = consensus.coverage_wishes(round, id.me);
        let awaiting_own = now < deadline && wishes.iter().any(|w| w.1 == id.me && absent(w));
        let awaiting_coverage =
            now < coverage_deadline && wishes.iter().any(|w| w.1 != id.me && absent(w));
        let awaiting_payload =
            now < deadline && self.pending_digests.is_empty() && self.live_round != round;
        if awaiting_parent || awaiting_own || awaiting_coverage || awaiting_payload {
            let until = if awaiting_parent {
                wish_deadline
            } else if awaiting_coverage && !awaiting_own && !awaiting_payload {
                coverage_deadline
            } else {
                deadline
            };
            // One timer per wait, however many certificates and reports
            // land here; `until > now`, so a fired timer's successor differs.
            if (self.wait.round, self.wait.until) != (round, until) {
                (self.wait.round, self.wait.until) = (round, until);
                ctx.timer(until - now, TAG_PROPOSE);
            }
            self.wait.by_wish = !awaiting_payload;
            return None;
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
        let queue = own && first && !self.committed_batches.contains(&digest) && !in_flight();
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
            for digest in digests {
                if !self.committed_batches.contains(&digest) {
                    if let Some(info) = self.batch_meta.get(&digest) {
                        self.pending_digests.push_front(info.clone());
                    }
                }
            }
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
    use crate::testing::fixture::{batch, effects, identity};
    use crate::testing::{certify_header, DagBench};
    use nt_network::MS;

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

    /// One `try_propose` of validator 0 for `round` at `now`: the header,
    /// and the delays of the `TAG_PROPOSE` timers it armed.
    fn propose<C: DagConsensus<Ext = NoExt>>(
        proposer: &mut Proposer,
        bench: &DagBench<C>,
        round: Round,
        now: Time,
    ) -> (Option<Header>, Vec<Time>) {
        let mut ctx = Ctx::new(now, 0);
        let id = identity(bench, 0);
        let header = proposer.try_propose(round, ENTERED, &bench.dag, &bench.rule, &id, &mut ctx);
        let (sends, timers) = effects(&mut ctx, TAG_PROPOSE);
        assert!(sends.is_empty(), "the proposer sends nothing itself");
        (header, timers)
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
        assert_eq!(
            header.payload,
            vec![(batch(0, 1).digest, batch(0, 1).worker)]
        );
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

    #[test]
    fn an_idle_proposer_follows_a_live_round_but_not_without_parents() {
        let bench = DagBench::new(4, |_| NoConsensus);
        // A recovered or snapshot-installed primary can sit at a round whose
        // parents it does not hold yet.
        let mut p = Proposer {
            live_round: 3,
            ..Proposer::default()
        };
        assert_eq!(propose(&mut p, &bench, 3, ENTERED + MS), (None, vec![]));
        assert_eq!(p.last_proposed, 0);
        p.live_round = 1;
        let (header, timers) = propose(&mut p, &bench, 1, ENTERED + MS);
        assert!(header.expect("the round is live").payload.is_empty());
        assert!(timers.is_empty());
        assert_eq!((p.proposals.followed, p.proposals.deadline), (1, 0));
    }

    /// The wait table: validator 0 of 10 at round 2 wishes for validator
    /// 5's block as a parent and for its own and validator 6's as coverage.
    #[test]
    fn each_wait_alone_and_combined_arms_one_timer_for_its_own_deadline() {
        let config = NarwhalConfig::default();
        let (header, leader) = (config.max_header_delay, config.max_leader_delay);
        // (absent round-1 blocks, own batch queued, wait from round entry)
        let cases: [(&[u32], bool, Option<Time>); 9] = [
            (&[], true, None),
            (&[], false, Some(header)),
            (&[5], true, Some(leader)),
            (&[0], true, Some(header)),
            (&[6], true, Some(header * 3 / 8)),
            (&[6], false, Some(header)),
            (&[0, 6], true, Some(header)),
            (&[5, 6], false, Some(leader)),
            (&[0, 5, 6], true, Some(leader)),
        ];
        for (absent, queued, wait) in cases {
            let mut bench = DagBench::new(10, |_| Wishes {
                parent: vec![5],
                coverage: vec![0, 6],
            });
            let present: Vec<u32> = (0..10).filter(|a| !absent.contains(a)).collect();
            bench.round(1, &present);
            let mut p = Proposer::default();
            if queued {
                p.on_report(batch(0, 1), &identity(&bench, 0));
            }
            let now = ENTERED + MS;
            let (proposed, timers) = propose(&mut p, &bench, 2, now);
            let case = format!("absent {absent:?}, queued {queued}");
            match wait {
                None => assert!(proposed.is_some() && timers.is_empty(), "{case}"),
                Some(wait) => {
                    assert!(proposed.is_none(), "{case}");
                    assert_eq!(timers, vec![ENTERED + wait - now], "{case}");
                    // However many events land in the wait, one timer.
                    assert_eq!(
                        propose(&mut p, &bench, 2, now + MS),
                        (None, vec![]),
                        "{case}"
                    );
                    // Nothing outlasts its deadline.
                    let (proposed, _) = propose(&mut p, &bench, 2, ENTERED + wait);
                    assert_eq!(proposed.map(|h| h.round), Some(2), "{case}");
                    // A wish ended the wait only if payload was not also awaited.
                    let by_wish = queued && !absent.is_empty();
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
        let mut p = Proposer {
            live_round: 2,
            ..Proposer::default()
        };
        let (header, timers) = propose(&mut p, &bench, 2, ENTERED + MS);
        assert!(header.is_none(), "validator 3's block is wished for");
        assert_eq!(timers, vec![config.max_leader_delay - MS]);
        // The header delay passes: the leader timeout is the longer bound.
        let at_header_delay = ENTERED + config.max_header_delay;
        assert!(propose(&mut p, &bench, 2, at_header_delay).0.is_none());
        let at_leader_delay = ENTERED + config.max_leader_delay;
        assert!(propose(&mut p, &bench, 2, at_leader_delay).0.is_some());
        assert_eq!(p.proposals.wish, 1);
    }

    #[test]
    fn prune_requeues_only_uncommitted_own_payloads() {
        let mut bench = DagBench::new(4, |_| NoConsensus);
        let id = identity(&bench, 0);
        let mut p = Proposer::default();
        let [a, b, c] = [batch(0, 1), batch(0, 2), batch(1, 1)];
        // Own block 1 carries `a`, own block 2 carries `b`.
        p.on_report(a.clone(), &id);
        let first = propose(&mut p, &bench, 1, ENTERED).0.expect("payload");
        bench.round(1, &[1, 2, 3]);
        p.on_report(b.clone(), &id);
        let second = propose(&mut p, &bench, 2, ENTERED).0.expect("payload");
        let certify = |header| certify_header(&bench.committee, &bench.keypairs, header);
        let (first, second) = (certify(first), certify(second));
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
        let peer = certify(peer);
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
}
