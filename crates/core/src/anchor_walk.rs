//! The anchor walk: one engine behind every DAG commit rule.
//!
//! A commit rule is a small interpretation of the DAG (§3.2, Figure 3): it
//! numbers *slots* `1, 2, …`, gives each slot one anchor candidate — a
//! `(round, author)` block position — and decides, from the local DAG
//! alone, which candidates commit and in what order. Every rule in this
//! workspace does that the same way:
//!
//! 1. **Scan** the open slots upward for the lowest candidate with a
//!    *direct* commit (a vote quorum of the rule's choosing).
//! 2. **Walk** down from it: a lower candidate the current one *ratifies*
//!    (a DAG path, or a vote count inside its cone) becomes the current
//!    one. Quorum intersection makes each verdict common to all validators.
//! 3. **Settle** the lowest ratified candidate — commit it, record every
//!    slot below it as a final skip — feed those outcomes to the election,
//!    and start over above it. Settling one slot per pass is Shoal's
//!    "re-interpret the DAG after every committed anchor": an election with
//!    state (reputation) is the same on every validator because every
//!    validator feeds it the same outcomes in the same order. A stateless
//!    election re-derives the same chain pass after pass, so the passes
//!    emit exactly the whole-chain order of the Tusk paper.
//!
//! Slots are never frozen: a candidate lacking support *now* may gain it as
//! blocks arrive, so every insertion re-scans until a commit above settles
//! it. What differs between rules is a [`CommitRule`] (where candidates
//! sit, the direct predicate, the walk verdict, an optional early skip) and
//! an [`Election`] (who leads a slot); the README's "Commit rules" table
//! lists the six pairings.

use crate::consensus::{ConsensusOut, DagConsensus, NoExt};
use crate::dag::{CertId, Dag, DagView};
use nt_codec::{decode_from_slice, encode_to_vec};
use nt_crypto::{combine_shares, CoinShare};
use nt_types::{Certificate, Committee, Round, ValidatorId};

/// Where the open instance starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frontier {
    /// Slots `1..=settled` have an agreed fate (committed or skipped).
    pub settled: u64,
    /// One past the round of the last settled slot (1 at genesis). Rules
    /// with fixed waves ignore it; a pipelined rule re-bases here.
    pub base: Round,
}

impl Frontier {
    /// Nothing settled; the first candidates sit at round 1.
    pub const GENESIS: Frontier = Frontier {
        settled: 0,
        base: 1,
    };
}

/// Who leads a slot: a leader schedule fixed ahead of time, or the coin.
///
/// An election must be a pure function of (slot, recorded history, DAG):
/// every validator settles the same outcomes in the same order, so
/// identical instances stay identical across the committee — the property
/// the scheduled rules' safety rests on.
pub trait Election: Send {
    /// The leader of `slot`, with every block of round `reveal` (the round
    /// that decides the slot) in `view`; `None` while not electable yet. A
    /// schedule elects whom it foresaw.
    fn elect(&self, view: DagView<'_>, slot: u64, reveal: Round) -> Option<ValidatorId> {
        let _ = (view, reveal);
        self.foreseen(slot)
    }

    /// The leader `slot` (numbered from 1) will have if no
    /// [`Election::record`] intervenes, for elections fixed ahead of time.
    /// An election that only decides in retrospect (the coin) foresees
    /// nobody, and its rules take no timing hints from the primary.
    fn foreseen(&self, slot: u64) -> Option<ValidatorId> {
        let _ = slot;
        None
    }

    /// The agreed outcome of `slot`. Called exactly once per slot, in
    /// ascending order, with the leader the walk actually checked.
    fn record(&mut self, slot: u64, leader: ValidatorId, committed: bool) {
        let _ = (slot, leader, committed);
    }

    /// The recorded history, for the crash checkpoint. Stateless elections
    /// keep the empty default.
    fn checkpoint(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Adopts an [`Election::checkpoint`] blob; `false` (and no change) if
    /// the blob is not one of this election's.
    fn restore(&mut self, blob: &[u8]) -> bool {
        blob.is_empty()
    }
}

/// What [`AnchorWalk::new`] takes to lead the slots: an election, or the
/// coin's domain. All validators of one deployment must start from the same.
pub trait Seed<E> {
    fn election(self, committee: &Committee) -> E;
}

impl<E: Election> Seed<E> for E {
    fn election(self, _: &Committee) -> E {
        self
    }
}

/// The shared random coin (§5.2): shares ride in ordinary blocks, and the
/// leader of a slot is revealed in retrospect, once `f + 1` shares of the
/// reveal round are in the DAG — an adaptive adversary learns it only after
/// the rounds it could have targeted are fixed.
pub struct Coin {
    /// Deployment-wide genesis nonce.
    domain: u64,
    size: u64,
    threshold: usize,
}

impl Seed<Coin> for u64 {
    fn election(self, committee: &Committee) -> Coin {
        Coin {
            domain: self,
            size: committee.size() as u64,
            threshold: committee.validity_threshold(),
        }
    }
}

impl Election for Coin {
    fn elect(&self, view: DagView<'_>, _slot: u64, reveal: Round) -> Option<ValidatorId> {
        let shares: Vec<CoinShare> = view
            .round_ids(reveal)
            .filter_map(|id| view.cert(id).header.coin_share)
            .collect();
        let coin = combine_shares(self.domain, reveal, &shares, self.threshold)?;
        Some(ValidatorId((coin % self.size) as u32))
    }
}

/// What a commit rule decides for itself; the engine does the rest.
pub trait CommitRule: Send + Default {
    /// First byte of the rule's checkpoints: a store written under one rule
    /// is not silently adopted by another.
    const TAG: u8;

    /// Rounds from a candidate to the round that decides it: the round of
    /// its votes, or of the coin shares that elect it.
    const REVEAL_AFTER: Round;

    /// Round of `slot`'s candidate in the instance open at `at`
    /// (`slot > at.settled`).
    fn anchor_round(&self, at: Frontier, slot: u64) -> Round;

    /// The slot whose candidate sits at `round`, for the timing hints (so
    /// only rules whose election foresees leaders are ever asked).
    fn slot_at(&self, at: Frontier, round: Round) -> Option<u64> {
        let _ = (at, round);
        None
    }

    /// Whether `anchor` commits by its own vote quorum.
    fn commits_directly(&self, committee: &Committee, view: DagView<'_>, anchor: CertId) -> bool;

    /// The walk verdict: whether `candidate`, already due to commit, takes
    /// the lower anchor `past` with it. Lemma 1: a path exists to every
    /// leader any honest validator committed directly.
    fn ratifies(
        &self,
        committee: &Committee,
        view: DagView<'_>,
        candidate: CertId,
        past: CertId,
    ) -> bool {
        let _ = committee;
        view.path_exists(candidate, past)
    }

    /// Whether the lowest open slot, led by `leader` at `round`, can be
    /// skipped for good without waiting for a commit above it.
    fn gives_up(
        &self,
        committee: &Committee,
        view: DagView<'_>,
        round: Round,
        leader: ValidatorId,
    ) -> bool {
        let _ = (committee, view, round, leader);
        false
    }
}

/// A DAG commit rule: the anchor walk under rule `R`, led by election `E`.
pub struct AnchorWalk<E: Election, R: CommitRule> {
    committee: Committee,
    election: E,
    rule: R,
    at: Frontier,
    /// Anchors committed by their own vote quorum (metrics).
    direct: u64,
    /// Anchors committed by the walk from a later one (metrics).
    indirect: u64,
    /// Slots settled by [`CommitRule::gives_up`] (metrics).
    early_skips: u64,
}

impl<E: Election, R: CommitRule> AnchorWalk<E, R> {
    /// A fresh instance for `committee`; `seed` is the coin domain or the
    /// leader schedule.
    pub fn new(committee: Committee, seed: impl Seed<E>) -> Self {
        AnchorWalk {
            election: seed.election(&committee),
            rule: R::default(),
            committee,
            at: Frontier::GENESIS,
            direct: 0,
            indirect: 0,
            early_skips: 0,
        }
    }

    /// Where the open instance starts (tests/metrics).
    pub fn frontier(&self) -> Frontier {
        self.at
    }

    /// Slots settled by the rule's early skip (tests/metrics).
    pub fn early_skips(&self) -> u64 {
        self.early_skips
    }

    /// The election, for inspecting its standings (tests/metrics).
    pub fn election(&self) -> &E {
        &self.election
    }

    /// Re-evaluates every open slot against `view`; returns the newly
    /// committed anchors in commit order. Idempotent and strictly
    /// forward-moving, so the primary calls it on every insertion.
    fn try_decide(&mut self, view: DagView<'_>) -> Vec<Certificate> {
        let mut anchors = Vec::new();
        'instances: loop {
            // The instance's leader map, as elected before any `record`:
            // the skips recorded at settlement must name exactly the
            // leaders the walk checked, or a reputation election would
            // penalize validators whose blocks were never on trial.
            let mut leaders = Vec::new();
            loop {
                let slot = self.at.settled + 1 + leaders.len() as u64;
                let round = self.rule.anchor_round(self.at, slot);
                let reveal = round + R::REVEAL_AFTER;
                if reveal > view.highest_round() {
                    return anchors;
                }
                // Stop at the first slot that is not electable: later
                // slots reveal even later.
                let Some(leader) = self.election.elect(view, slot, reveal) else {
                    return anchors;
                };
                // Only the lowest open slot may give up: settlement stays
                // strictly ordered, so the election sees outcomes in
                // ascending slot order on every validator.
                if leaders.is_empty() && self.rule.gives_up(&self.committee, view, round, leader) {
                    self.election.record(slot, leader, false);
                    self.at = Frontier {
                        settled: slot,
                        base: round + 1,
                    };
                    self.early_skips += 1;
                    continue 'instances;
                }
                leaders.push(leader);
                if let Some(anchor) = view.id_at(round, leader) {
                    if self.rule.commits_directly(&self.committee, view, anchor) {
                        anchors.push(self.settle_instance(view, anchor, &leaders));
                        // The election advanced (and a pipelined rule
                        // re-based): re-evaluate the slots above.
                        continue 'instances;
                    }
                }
            }
        }
    }

    /// Settles one instance ending at the direct commit of `anchor`, the
    /// candidate of the last slot in `leaders`: walks down to the lowest
    /// ratified candidate, commits *that* anchor, records it and every
    /// skipped slot below it, and leaves the slots above for re-evaluation.
    fn settle_instance(
        &mut self,
        view: DagView<'_>,
        anchor: CertId,
        leaders: &[ValidatorId],
    ) -> Certificate {
        let first = self.at.settled + 1;
        let top = leaders.len() - 1;
        let (mut lowest, mut candidate) = (top, anchor);
        for k in (0..top).rev() {
            let round = self.rule.anchor_round(self.at, first + k as u64);
            if let Some(past) = view.id_at(round, leaders[k]) {
                if self.rule.ratifies(&self.committee, view, candidate, past) {
                    (lowest, candidate) = (k, past);
                }
            }
        }
        for (k, leader) in leaders[..lowest].iter().enumerate() {
            // Not ratified by a committing anchor: no validator can ever
            // commit this candidate (quorum intersection), so the skip is
            // final.
            self.election.record(first + k as u64, *leader, false);
        }
        if lowest == top {
            self.direct += 1;
        } else {
            self.indirect += 1;
        }
        let cert = view.cert(candidate).clone();
        self.election
            .record(first + lowest as u64, cert.origin(), true);
        self.at = Frontier {
            settled: first + lowest as u64,
            base: cert.round() + 1,
        };
        cert
    }

    /// The leader foreseen for the candidate at `round`, if it holds one.
    /// A proposer can be a round ahead of its own commits; the rule's
    /// [`CommitRule::slot_at`] predicts across that gap, and a wrong guess
    /// costs one bounded wait, never safety.
    fn foreseen_anchor(&self, round: Round) -> Option<ValidatorId> {
        self.election.foreseen(self.rule.slot_at(self.at, round)?)
    }
}

/// The one checkpoint format: rule tag, frontier and early skips, counters,
/// election history.
type Checkpoint = (u8, (u64, u64, u64), ((u64, u64), Vec<u8>));

impl<E: Election, R: CommitRule> DagConsensus for AnchorWalk<E, R> {
    type Ext = NoExt;

    fn on_certificate(&mut self, dag: &Dag, _: &Certificate, out: &mut ConsensusOut<NoExt>) {
        out.anchors.extend(self.try_decide(dag.view()));
    }

    fn commit_counts(&self) -> (u64, u64) {
        (self.direct, self.indirect)
    }

    /// Every part is load-bearing after a restart. The frontier: the scan
    /// resumes above it, and early slots cannot be re-decided once GC has
    /// pruned their votes and coin shares. The election history: a restored
    /// validator does not replay the settled instances, so a reputation
    /// reset to defaults would rank leaders differently from its peers.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        let blob: Checkpoint = (
            R::TAG,
            (self.at.settled, self.at.base, self.early_skips),
            ((self.direct, self.indirect), self.election.checkpoint()),
        );
        Some(encode_to_vec(&blob))
    }

    fn restore(&mut self, checkpoint: &[u8]) {
        let Ok((tag, (settled, base, early_skips), ((direct, indirect), election))) =
            decode_from_slice::<Checkpoint>(checkpoint)
        else {
            return;
        };
        if tag != R::TAG || base == 0 || !self.election.restore(&election) {
            return;
        }
        self.at = Frontier { settled, base };
        (self.direct, self.indirect, self.early_skips) = (direct, indirect, early_skips);
    }

    /// The partial-synchrony half of a rule with predefined leaders: wait
    /// (up to the primary's leader timeout) for the previous round's anchor
    /// candidate, so this block's parents carry a vote for it. Without the
    /// wait, leaders miss their direct quorum whenever WAN skew outruns
    /// proposal timing, and commits degrade to the indirect path.
    fn parent_wishes(&self, round: Round) -> Vec<(Round, ValidatorId)> {
        let prev = round.checked_sub(1);
        let wish = prev.and_then(|prev| Some((prev, self.foreseen_anchor(prev)?)));
        wish.into_iter().collect()
    }

    fn coverage_wishes(&self, round: Round, me: ValidatorId) -> Vec<(Round, ValidatorId)> {
        // No foreseeable leader, no timing hints (see `Election::foreseen`).
        if round == 0 || self.election.foreseen(self.at.settled + 1).is_none() {
            return Vec::new();
        }
        // A leader about to propose its own anchor wishes for *every*
        // previous-round certificate: the anchor's causal history is the
        // commit sweep, and a history built from the bare 2f + 1 fastest
        // certificates never reaches the slowest regions' chains — their
        // blocks then wait for the next anchor led from their own region
        // (10 rounds at n = 10 under round-robin; unboundedly long under a
        // reputation schedule that stops electing them). Non-anchor blocks
        // keep proposing at quorum, so the round cadence is untouched.
        if round >= 2 && self.foreseen_anchor(round) == Some(me) {
            return (0..self.committee.size())
                .map(|v| (round - 1, ValidatorId(v as u32)))
                .collect();
        }
        // Every other block wishes for nothing. Chain continuity — a block
        // proposed without its author's own previous certificate strands
        // everything below it until GC re-injection — is the primary's
        // rule under every commit rule: a block waits for each
        // previous-round block its author voted for, its own first of all.
        Vec::new()
    }
}
