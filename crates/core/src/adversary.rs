//! Byzantine adversary wrappers for the schedule fuzzer (§4 claims).
//!
//! The paper's safety and censorship-resistance claims are made against
//! *Byzantine* validators, not merely crashed ones. Each wrapper here turns
//! an honest primary actor into one concrete adversary while reusing the
//! honest implementation for everything it does not subvert — the adversary
//! keeps a correct DAG, certifies blocks, and speaks valid wire messages,
//! which is exactly what makes it dangerous. Wrappers compose with the
//! fault schedules of `nt_simnet::fuzz` (a Byzantine node can also crash,
//! be partitioned, or sit behind a delay spike), and every message they
//! emit is validly signed: honest peers cannot distinguish them from a
//! correct validator except through the protocol's own defenses.
//!
//! The four kinds:
//!
//! * [`AdversaryKind::Equivocate`] — two validly-signed blocks per round
//!   ([`Header::twin`]), each shown to a different half of the committee.
//!   Double votes (from an amnesiac accomplice or a vote-lock-losing
//!   victim) let it certify both twins; it then references both in its own
//!   next proposal so the whole committee commits the same payload twice.
//! * [`AdversaryKind::VoteAmnesia`] — votes for *every* valid block it
//!   sees, ignoring its vote locks: the accomplice that makes equivocation
//!   certifiable. Models a validator whose lock store was wiped.
//! * [`AdversaryKind::Censor`] — refuses to vote for the victim's blocks
//!   and drops the victim's batch reports, and never talks to the victim.
//!   With `f + 1` censors the victim's batches would never commit; with up
//!   to `f` the quorum math must keep the victim live (§4 censorship
//!   resistance), which the fairness checker asserts.
//! * [`AdversaryKind::DelayRelease`] — withholds its own certificates
//!   (broadcasts *and* pull responses) until the committee has advanced
//!   `k` rounds, stressing late-arrival paths and leader-reputation
//!   scoring (Shoal's motivation).
//!
//! Determinism: all internal state uses ordered containers and the wrapper
//! emits effects in a pure function of the delivered event, so a Byzantine
//! run replays bit-identically from its seed like any honest run.

use crate::deployment::AddressBook;
use crate::messages::NarwhalMsg;
use nt_crypto::{Digest, Hashable, KeyPair};
use nt_network::{Actor, Context, Effect, NodeId, MS};
use nt_types::{Certificate, Committee, Header, Round, ValidatorId, Vote};
use std::collections::BTreeMap;

/// Timer tags at or above this base belong to the adversary wrapper; the
/// wrapped primary owns everything below (its own tags and the consensus
/// plug-in range at `1 << 32`).
pub const ADVERSARY_TAG_BASE: u64 = 1 << 48;

/// Interval of the wrapper's housekeeping tick (twin retransmission).
const TICK: u64 = 150 * MS;

/// Pending/assembled twin state older than this many rounds below the
/// current proposal round is pruned (mirrors the honest GC window).
const TWIN_RETAIN: u64 = 64;

/// One concrete Byzantine behavior (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Propose two validly-signed twins per round, one per committee half.
    Equivocate,
    /// Vote for every valid block regardless of vote locks.
    VoteAmnesia,
    /// Suppress `victim`'s blocks and batches.
    Censor {
        /// The validator being censored.
        victim: ValidatorId,
    },
    /// Withhold own certificates for this many rounds.
    DelayRelease {
        /// Rounds to hold a certificate after its creation round.
        rounds: u64,
    },
}

impl AdversaryKind {
    /// Short name for logs and self-test arms.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryKind::Equivocate => "equivocate",
            AdversaryKind::VoteAmnesia => "vote-amnesia",
            AdversaryKind::Censor { .. } => "censor",
            AdversaryKind::DelayRelease { .. } => "delay-release",
        }
    }
}

/// An honest primary actor subverted into one [`AdversaryKind`].
///
/// The wrapper delegates every event to the wrapped actor and transforms
/// the message flow on both sides: inbound messages may be dropped,
/// answered, or acted on before the honest logic sees them; outbound
/// effects may be rewritten, withheld, or augmented. Restarts rebuild the
/// wrapper with the inner actor (factories wrap factories), so adversary
/// state is volatile — exactly like the honest in-memory state it shadows.
pub struct Byzantine<Ext: Clone + Send + 'static> {
    inner: Box<dyn Actor<Message = NarwhalMsg<Ext>>>,
    kind: AdversaryKind,
    me: ValidatorId,
    keypair: KeyPair,
    committee: Committee,
    addr: AddressBook,
    /// Equivocate: the twin of the current round's own block.
    current_twin: Option<Header>,
    /// Equivocate: highest own proposal round seen (one twin per round).
    twin_round: Round,
    /// Equivocate: uncertified twins by digest, with collected votes.
    pending_twins: BTreeMap<Digest, (Header, Vec<Vote>)>,
    /// Equivocate: certified twins by digest (served to pull requests).
    twin_certs: BTreeMap<Digest, Certificate>,
    /// DelayRelease: withheld `(destination, certificate)` sends.
    held: Vec<(NodeId, Certificate)>,
    /// DelayRelease: highest committee round observed on any message.
    observed_round: Round,
}

impl<Ext: Clone + Send + 'static> Byzantine<Ext> {
    /// Wraps `inner` (the honest primary of validator `me`, holding
    /// `keypair`) into the given adversary.
    pub fn new(
        inner: Box<dyn Actor<Message = NarwhalMsg<Ext>>>,
        kind: AdversaryKind,
        me: ValidatorId,
        keypair: KeyPair,
        committee: Committee,
        addr: AddressBook,
    ) -> Self {
        Byzantine {
            inner,
            kind,
            me,
            keypair,
            committee,
            addr,
            current_twin: None,
            twin_round: 0,
            pending_twins: BTreeMap::new(),
            twin_certs: BTreeMap::new(),
            held: Vec::new(),
            observed_round: 0,
        }
    }

    /// The wrapped adversary kind (tests/telemetry).
    pub fn kind(&self) -> AdversaryKind {
        self.kind
    }

    /// True if `node` belongs to `victim` (primary or worker).
    fn is_victim_host(&self, node: NodeId, victim: ValidatorId) -> bool {
        self.addr.primary_of(node) == Some(victim)
            || self.addr.worker_of(node).is_some_and(|(v, _)| v == victim)
    }

    /// The committee half that is shown the twin instead of the original:
    /// the upper half of the other-primaries list (deterministic, so a
    /// replay fuzz run splits identically).
    fn twin_audience(&self, to: NodeId) -> bool {
        let others = self.addr.other_primaries(self.me);
        let split = others.len().div_ceil(2);
        others
            .iter()
            .position(|n| *n == to)
            .is_some_and(|r| r >= split)
    }

    /// Delivers a message to the wrapped honest actor and emits its
    /// (transformed) effects.
    fn deliver_inner(
        &mut self,
        from: NodeId,
        msg: NarwhalMsg<Ext>,
        ctx: &mut Context<NarwhalMsg<Ext>>,
    ) {
        let mut inner_ctx = Context::new(ctx.now(), ctx.node());
        self.inner.on_message(from, msg, &mut inner_ctx);
        self.emit(inner_ctx.drain(), ctx);
    }

    /// Applies the outbound transform to a batch of inner effects.
    fn emit(&mut self, effects: Vec<Effect<NarwhalMsg<Ext>>>, ctx: &mut Context<NarwhalMsg<Ext>>) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => self.transform_send(to, msg, ctx),
                Effect::Timer { delay, tag } => ctx.timer(delay, tag),
                Effect::Commit(event) => ctx.commit(event),
                Effect::Cpu { nanos } => ctx.cpu(nanos),
            }
        }
    }

    /// Outbound rewrite: the adversary's view of what leaves the node.
    fn transform_send(
        &mut self,
        to: NodeId,
        msg: NarwhalMsg<Ext>,
        ctx: &mut Context<NarwhalMsg<Ext>>,
    ) {
        match self.kind {
            AdversaryKind::Censor { victim } if self.is_victim_host(to, victim) => {
                // The censor never talks to the victim.
            }
            AdversaryKind::Equivocate => match &msg {
                NarwhalMsg::Header(h) if h.author == self.me && h.round > 0 => {
                    if h.round > self.twin_round {
                        self.mint_twin(h);
                    }
                    let twin = self.current_twin.as_ref().filter(|t| t.round == h.round);
                    match twin {
                        Some(twin) if self.twin_audience(to) => {
                            ctx.send(to, NarwhalMsg::Header(twin.clone()))
                        }
                        _ => ctx.send(to, msg),
                    }
                }
                _ => ctx.send(to, msg),
            },
            AdversaryKind::DelayRelease { rounds } => match msg {
                NarwhalMsg::Certificate(c) if c.origin() == self.me && c.round() > 0 => {
                    if c.round() + rounds > self.observed_round {
                        self.held.push((to, c));
                    } else {
                        ctx.send(to, NarwhalMsg::Certificate(c));
                    }
                }
                NarwhalMsg::CertResponse { certs } => {
                    // Pull sync must not bypass the withholding.
                    let (hold, pass): (Vec<_>, Vec<_>) = certs.into_iter().partition(|c| {
                        c.origin() == self.me
                            && c.round() > 0
                            && c.round() + rounds > self.observed_round
                    });
                    for c in hold {
                        self.held.push((to, c));
                    }
                    if !pass.is_empty() {
                        ctx.send(to, NarwhalMsg::CertResponse { certs: pass });
                    }
                }
                other => ctx.send(to, other),
            },
            _ => ctx.send(to, msg),
        }
    }

    /// Equivocate: creates the twin of a newly proposed own block and
    /// starts collecting votes for it (seeded with our own).
    fn mint_twin(&mut self, header: &Header) {
        let twin = header.twin(&self.keypair);
        let own_vote = Vote::new(&self.keypair, self.me, twin.digest(), twin.round, self.me);
        self.twin_round = header.round;
        self.pending_twins
            .insert(twin.digest(), (twin.clone(), vec![own_vote]));
        self.current_twin = Some(twin);
        let cutoff = self.twin_round.saturating_sub(TWIN_RETAIN);
        self.pending_twins.retain(|_, (h, _)| h.round >= cutoff);
        self.twin_certs.retain(|_, c| c.round() >= cutoff);
    }

    /// Equivocate: accepts a vote for one of our twins. On quorum the twin
    /// certificate is assembled, broadcast to the whole committee, and fed
    /// to our own honest half — whose next proposal will then reference
    /// *both* twins as parents, dragging the equivocation into every
    /// honest DAG cone.
    fn absorb_twin_vote(&mut self, vote: Vote, ctx: &mut Context<NarwhalMsg<Ext>>) {
        let Some((header, votes)) = self.pending_twins.get_mut(&vote.header_digest) else {
            return;
        };
        if vote.origin != self.me || votes.iter().any(|v| v.voter == vote.voter) {
            return;
        }
        votes.push(vote);
        if votes.len() < self.committee.quorum_threshold() {
            return;
        }
        let (header, votes) = (header.clone(), votes.clone());
        let Some(cert) = Certificate::from_votes(&self.committee, header, &votes) else {
            return;
        };
        self.pending_twins.remove(&cert.header_digest());
        self.twin_certs.insert(cert.header_digest(), cert.clone());
        for node in self.addr.other_primaries(self.me) {
            ctx.send(node, NarwhalMsg::Certificate(cert.clone()));
        }
        self.deliver_inner(ctx.node(), NarwhalMsg::Certificate(cert), ctx);
    }

    /// DelayRelease: tracks committee progress and flushes every held
    /// certificate whose holding period has elapsed.
    fn observe_round(&mut self, round: Round, ctx: &mut Context<NarwhalMsg<Ext>>) {
        if round <= self.observed_round {
            return;
        }
        self.observed_round = round;
        let AdversaryKind::DelayRelease { rounds } = self.kind else {
            return;
        };
        let observed = self.observed_round;
        let (release, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.held)
            .into_iter()
            .partition(|(_, c)| c.round() + rounds <= observed);
        self.held = keep;
        for (to, cert) in release {
            ctx.send(to, NarwhalMsg::Certificate(cert));
        }
    }

    /// Inbound filter/hook. Returns the message to hand to the honest
    /// logic, or `None` if the adversary consumed (or suppressed) it.
    fn pre_inbound(
        &mut self,
        from: NodeId,
        msg: NarwhalMsg<Ext>,
        ctx: &mut Context<NarwhalMsg<Ext>>,
    ) -> Option<NarwhalMsg<Ext>> {
        match &msg {
            NarwhalMsg::Header(h) => self.observe_round(h.round, ctx),
            NarwhalMsg::Certificate(c) => self.observe_round(c.round(), ctx),
            _ => {}
        }
        match self.kind {
            AdversaryKind::Censor { victim } => match &msg {
                // Never vote for (or even look at) the victim's blocks.
                NarwhalMsg::Header(h) if h.author == victim => None,
                // Never let the victim's batches into our proposals.
                NarwhalMsg::ReportBatch(info) if info.creator == victim => None,
                _ => Some(msg),
            },
            AdversaryKind::VoteAmnesia => {
                if let NarwhalMsg::Header(h) = &msg {
                    // Sign anything valid, locks be damned — including both
                    // twins of an equivocator. The honest half below may
                    // vote too; proposers de-duplicate by voter.
                    if h.author != self.me && h.round > 0 && h.verify(&self.committee).is_ok() {
                        let vote = Vote::new(&self.keypair, self.me, h.digest(), h.round, h.author);
                        ctx.send(self.addr.primary(h.author), NarwhalMsg::Vote(vote));
                    }
                }
                Some(msg)
            }
            AdversaryKind::Equivocate => match msg {
                NarwhalMsg::Vote(vote) if self.pending_twins.contains_key(&vote.header_digest) => {
                    self.absorb_twin_vote(vote, ctx);
                    None
                }
                NarwhalMsg::CertRequest { digests } => {
                    let (ours, rest): (Vec<_>, Vec<_>) = digests
                        .into_iter()
                        .partition(|d| self.twin_certs.contains_key(d));
                    if !ours.is_empty() {
                        let certs = ours.iter().map(|d| self.twin_certs[d].clone()).collect();
                        ctx.send(from, NarwhalMsg::CertResponse { certs });
                    }
                    (!rest.is_empty()).then_some(NarwhalMsg::CertRequest { digests: rest })
                }
                other => Some(other),
            },
            AdversaryKind::DelayRelease { .. } => Some(msg),
        }
    }

    /// Housekeeping tick: keep offering the current pending twins to the
    /// whole committee. Honest validators holding a lock on the original
    /// refuse; a validator that *lost* its lock (crash + unpersisted
    /// votes) or ignores locks (vote amnesia) signs — the double vote that
    /// makes the twin certifiable.
    fn tick(&mut self, ctx: &mut Context<NarwhalMsg<Ext>>) {
        let cutoff = self.twin_round.saturating_sub(8);
        let twins: Vec<Header> = self
            .pending_twins
            .values()
            .filter(|(h, _)| h.round >= cutoff)
            .map(|(h, _)| h.clone())
            .collect();
        for twin in twins {
            for node in self.addr.other_primaries(self.me) {
                ctx.send(node, NarwhalMsg::Header(twin.clone()));
            }
        }
        ctx.timer(TICK, ADVERSARY_TAG_BASE);
    }
}

impl<Ext: Clone + Send + 'static> Actor for Byzantine<Ext> {
    type Message = NarwhalMsg<Ext>;

    fn on_start(&mut self, ctx: &mut Context<Self::Message>) {
        let mut inner_ctx = Context::new(ctx.now(), ctx.node());
        self.inner.on_start(&mut inner_ctx);
        self.emit(inner_ctx.drain(), ctx);
        if self.kind == AdversaryKind::Equivocate {
            ctx.timer(TICK, ADVERSARY_TAG_BASE);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>) {
        if let Some(msg) = self.pre_inbound(from, msg, ctx) {
            self.deliver_inner(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<Self::Message>) {
        if tag >= ADVERSARY_TAG_BASE {
            self.tick(ctx);
            return;
        }
        let mut inner_ctx = Context::new(ctx.now(), ctx.node());
        self.inner.on_timer(tag, &mut inner_ctx);
        self.emit(inner_ctx.drain(), ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::NoExt;
    use nt_crypto::Scheme;
    use nt_types::WorkerId;
    use std::sync::{Arc, Mutex};

    type Msg = NarwhalMsg<NoExt>;

    /// Scripted inner actor: emits a fixed set of sends on start, records
    /// everything it is given.
    struct Script {
        outbox: Vec<(NodeId, Msg)>,
        seen: Arc<Mutex<Vec<Msg>>>,
    }

    impl Actor for Script {
        type Message = Msg;

        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            for (to, msg) in self.outbox.drain(..) {
                ctx.send(to, msg);
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: Msg, _ctx: &mut Context<Msg>) {
            self.seen.lock().unwrap().push(msg);
        }
    }

    fn setup(n: usize) -> (Committee, Vec<KeyPair>, AddressBook) {
        let (committee, kps) = Committee::deterministic(n, 1, Scheme::Ed25519);
        let addr = AddressBook::new(n, 1);
        (committee, kps, addr)
    }

    fn own_header(committee: &Committee, kps: &[KeyPair], me: u32, round: Round) -> Header {
        let parents: Vec<Digest> = (0..committee.quorum_threshold())
            .map(|i| Digest::of(&[i as u8, round as u8]))
            .collect();
        Header::new(
            &kps[me as usize],
            ValidatorId(me),
            round,
            vec![(Digest::of(b"batch"), WorkerId(0))],
            parents,
            None,
        )
    }

    type Harness = (
        Byzantine<NoExt>,
        Arc<Mutex<Vec<Msg>>>,
        Committee,
        Vec<KeyPair>,
    );

    fn wrap(kind: AdversaryKind, me: u32, outbox: Vec<(NodeId, Msg)>) -> Harness {
        let (committee, kps, addr) = setup(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let inner = Script {
            outbox,
            seen: seen.clone(),
        };
        let byz = Byzantine::new(
            Box::new(inner),
            kind,
            ValidatorId(me),
            kps[me as usize].clone(),
            committee.clone(),
            addr,
        );
        (byz, seen, committee, kps)
    }

    fn sends(effects: &[Effect<Msg>]) -> Vec<(NodeId, &Msg)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn equivocator_emits_two_validly_signed_headers_per_round() {
        let me = 3u32;
        let (committee, kps, addr) = setup(4);
        let h = own_header(&committee, &kps, me, 5);
        let outbox: Vec<(NodeId, Msg)> = addr
            .other_primaries(ValidatorId(me))
            .into_iter()
            .map(|to| (to, NarwhalMsg::Header(h.clone())))
            .collect();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut byz = Byzantine::new(
            Box::new(Script {
                outbox,
                seen: seen.clone(),
            }),
            AdversaryKind::Equivocate,
            ValidatorId(me),
            kps[me as usize].clone(),
            committee.clone(),
            addr,
        );
        let mut ctx = Context::new(0, me as usize);
        byz.on_start(&mut ctx);
        let effects = ctx.drain();
        let outgoing = sends(&effects);
        // One header per peer; exactly two distinct digests, both valid,
        // same round — and the audience split is deterministic.
        let mut digests = Vec::new();
        for (_, msg) in &outgoing {
            let NarwhalMsg::Header(sent) = msg else {
                panic!("unexpected message {msg:?}");
            };
            assert_eq!(sent.verify(&committee), Ok(()));
            assert_eq!(sent.round, 5);
            assert_eq!(sent.author, ValidatorId(me));
            if !digests.contains(&sent.digest()) {
                digests.push(sent.digest());
            }
        }
        assert_eq!(outgoing.len(), 3);
        assert_eq!(digests.len(), 2, "exactly two twins per round");
        // Peers 0 and 1 got the original; peer 2 got the twin.
        assert_eq!(
            outgoing
                .iter()
                .filter(|(_, m)| matches!(m, NarwhalMsg::Header(s) if s.digest() == h.digest()))
                .map(|(to, _)| *to)
                .collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn equivocator_assembles_twin_certificate_from_double_votes() {
        let me = 3u32;
        let (committee, kps, addr) = setup(4);
        let h = own_header(&committee, &kps, me, 2);
        let outbox: Vec<(NodeId, Msg)> = addr
            .other_primaries(ValidatorId(me))
            .into_iter()
            .map(|to| (to, NarwhalMsg::Header(h.clone())))
            .collect();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut byz = Byzantine::new(
            Box::new(Script {
                outbox,
                seen: seen.clone(),
            }),
            AdversaryKind::Equivocate,
            ValidatorId(me),
            kps[me as usize].clone(),
            committee.clone(),
            addr,
        );
        let mut ctx = Context::new(0, me as usize);
        byz.on_start(&mut ctx);
        let twin_digest = {
            let effects = ctx.drain();
            sends(&effects)
                .iter()
                .find_map(|(_, m)| match m {
                    NarwhalMsg::Header(s) if s.digest() != h.digest() => Some(s.digest()),
                    _ => None,
                })
                .expect("twin emitted")
        };
        // Two double-voters (plus our own twin vote) reach quorum.
        for voter in [0u32, 1] {
            let vote = Vote::new(
                &kps[voter as usize],
                ValidatorId(voter),
                twin_digest,
                2,
                ValidatorId(me),
            );
            let mut vctx = Context::new(0, me as usize);
            byz.on_message(voter as usize, NarwhalMsg::Vote(vote), &mut vctx);
            let effects = vctx.drain();
            if voter == 0 {
                assert!(sends(&effects).is_empty(), "no quorum yet");
            } else {
                // Quorum: the twin certificate goes to every peer...
                let out = sends(&effects);
                let cert_targets: Vec<NodeId> = out
                    .iter()
                    .filter(|(_, m)| {
                        matches!(m, NarwhalMsg::Certificate(c)
                            if c.header_digest() == twin_digest)
                    })
                    .map(|(to, _)| *to)
                    .collect();
                assert_eq!(cert_targets, vec![0, 1, 2]);
                // ...and to our own honest half.
                let fed = seen.lock().unwrap();
                assert!(fed.iter().any(|m| matches!(m, NarwhalMsg::Certificate(c)
                    if c.header_digest() == twin_digest && c.verify(&committee).is_ok())));
            }
        }
        // The assembled certificate is served to pull requests.
        let mut rctx = Context::new(0, me as usize);
        byz.on_message(
            1,
            NarwhalMsg::CertRequest {
                digests: vec![twin_digest],
            },
            &mut rctx,
        );
        let effects = rctx.drain();
        assert!(sends(&effects).iter().any(|(_, m)| matches!(
            m,
            NarwhalMsg::CertResponse { certs } if certs.len() == 1
        )));
    }

    #[test]
    fn vote_amnesia_signs_both_twins() {
        let me = 2u32;
        let (mut byz, seen, committee, kps) = wrap(AdversaryKind::VoteAmnesia, me, vec![]);
        let h = own_header(&committee, &kps, 3, 4);
        let twin = h.twin(&kps[3]);
        let mut ctx = Context::new(0, me as usize);
        byz.on_message(3, NarwhalMsg::Header(h.clone()), &mut ctx);
        byz.on_message(3, NarwhalMsg::Header(twin.clone()), &mut ctx);
        let effects = ctx.drain();
        let votes: Vec<&Vote> = sends(&effects)
            .into_iter()
            .filter_map(|(to, m)| match m {
                NarwhalMsg::Vote(v) => {
                    assert_eq!(to, 3, "votes go to the block's creator");
                    Some(v)
                }
                _ => None,
            })
            .collect();
        assert_eq!(votes.len(), 2, "one vote per twin — the lock is ignored");
        assert_eq!(votes[0].header_digest, h.digest());
        assert_eq!(votes[1].header_digest, twin.digest());
        for v in votes {
            assert!(v.verify(&committee));
        }
        // The honest half still sees both headers (it keeps its own DAG).
        assert_eq!(seen.lock().unwrap().len(), 2);
    }

    #[test]
    fn censor_drops_only_the_victims_traffic() {
        let me = 3u32;
        let victim = ValidatorId(0);
        let (mut byz, seen, committee, kps) = wrap(AdversaryKind::Censor { victim }, me, vec![]);
        let mut ctx = Context::new(0, me as usize);
        // Victim's header and batch report: dropped before the honest half.
        byz.on_message(
            0,
            NarwhalMsg::Header(own_header(&committee, &kps, 0, 3)),
            &mut ctx,
        );
        let victim_batch = crate::messages::BatchInfo {
            digest: Digest::of(b"victim-batch"),
            worker: WorkerId(0),
            creator: victim,
            tx_count: 1,
            tx_bytes: 64,
            samples: vec![],
        };
        byz.on_message(4, NarwhalMsg::ReportBatch(victim_batch), &mut ctx);
        assert!(seen.lock().unwrap().is_empty(), "victim traffic suppressed");
        // Another validator's header and batch report: passed through.
        byz.on_message(
            1,
            NarwhalMsg::Header(own_header(&committee, &kps, 1, 3)),
            &mut ctx,
        );
        let peer_batch = crate::messages::BatchInfo {
            digest: Digest::of(b"peer-batch"),
            worker: WorkerId(0),
            creator: ValidatorId(1),
            tx_count: 1,
            tx_bytes: 64,
            samples: vec![],
        };
        byz.on_message(4, NarwhalMsg::ReportBatch(peer_batch), &mut ctx);
        assert_eq!(seen.lock().unwrap().len(), 2, "peer traffic flows");
    }

    #[test]
    fn censor_mutes_sends_to_victim_hosts() {
        let me = 3u32;
        let victim = ValidatorId(0);
        let (committee, kps, addr) = setup(4);
        let h = own_header(&committee, &kps, me, 1);
        // Inner tries to talk to the victim's primary (0), the victim's
        // worker (4), and an unrelated primary (1).
        let outbox: Vec<(NodeId, Msg)> = vec![
            (0, NarwhalMsg::Header(h.clone())),
            (4, NarwhalMsg::Header(h.clone())),
            (1, NarwhalMsg::Header(h.clone())),
        ];
        let (mut byz, _, _, _) = {
            let seen = Arc::new(Mutex::new(Vec::new()));
            (
                Byzantine::<NoExt>::new(
                    Box::new(Script {
                        outbox,
                        seen: seen.clone(),
                    }),
                    AdversaryKind::Censor { victim },
                    ValidatorId(me),
                    kps[me as usize].clone(),
                    committee.clone(),
                    addr,
                ),
                seen,
                committee,
                kps,
            )
        };
        let mut ctx = Context::new(0, me as usize);
        byz.on_start(&mut ctx);
        let effects = ctx.drain();
        let targets: Vec<NodeId> = sends(&effects).iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![1], "only the non-victim send survives");
    }

    #[test]
    fn delayed_release_holds_certificates_exactly_k_rounds() {
        let me = 3u32;
        let k = 3u64;
        let (committee, kps, addr) = setup(4);
        let h = own_header(&committee, &kps, me, 5);
        let votes: Vec<Vote> = (0..3u32)
            .map(|v| Vote::new(&kps[v as usize], ValidatorId(v), h.digest(), 5, h.author))
            .collect();
        let cert = Certificate::from_votes(&committee, h, &votes).unwrap();
        let outbox: Vec<(NodeId, Msg)> = vec![
            (0, NarwhalMsg::Certificate(cert.clone())),
            (
                1,
                NarwhalMsg::CertResponse {
                    certs: vec![cert.clone()],
                },
            ),
        ];
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut byz = Byzantine::<NoExt>::new(
            Box::new(Script {
                outbox,
                seen: seen.clone(),
            }),
            AdversaryKind::DelayRelease { rounds: k },
            ValidatorId(me),
            kps[me as usize].clone(),
            committee.clone(),
            addr,
        );
        let mut ctx = Context::new(0, me as usize);
        byz.on_start(&mut ctx);
        assert!(
            sends(&ctx.drain()).is_empty(),
            "own round-5 certificates are withheld"
        );
        // Committee progress short of round 5 + k: still held.
        for round in [6u64, 7] {
            let peer = own_header(&committee, &kps, 0, round);
            let mut pctx = Context::new(0, me as usize);
            byz.on_message(0, NarwhalMsg::Header(peer), &mut pctx);
            assert!(
                sends(&pctx.drain()).iter().all(|(_, m)| !matches!(
                    m,
                    NarwhalMsg::Certificate(_) | NarwhalMsg::CertResponse { .. }
                )),
                "held through round {round}"
            );
        }
        // Round 8 = 5 + k: released, to the original destinations.
        let peer = own_header(&committee, &kps, 0, 8);
        let mut pctx = Context::new(0, me as usize);
        byz.on_message(0, NarwhalMsg::Header(peer), &mut pctx);
        let effects = pctx.drain();
        let released: Vec<NodeId> = sends(&effects)
            .iter()
            .filter(|(_, m)| {
                matches!(m, NarwhalMsg::Certificate(c) if c.header_digest() == cert.header_digest())
            })
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(released, vec![0, 1], "both held copies release at 5 + k");
    }
}
