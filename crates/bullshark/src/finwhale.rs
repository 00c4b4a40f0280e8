//! FinWhale: an optimally-resilient two-round *terminating* commit.
//!
//! Structurally FinWhale keeps Bullshark's two-round waves — wave `w` owns
//! leader round `2w - 1` and voting round `2w`, leaders come from a leader
//! schedule — but replaces every verdict with a *vote count over
//! distinct authors* instead of block counts and path existence:
//!
//! - **Direct commit**: the anchor commits once `2f + 1` *distinct
//!   authors'* voting-round blocks reference it (Bullshark counts blocks;
//!   under equivocation twins, blocks over-count).
//! - **Terminating skip**: the lowest unsettled wave settles as *skipped*
//!   — without waiting for any later anchor — once `2f + 1` distinct
//!   voting-round authors are *definite non-voters*: every block of theirs
//!   has fully-resolved parent edges, none referencing any block of the
//!   leader slot. At optimal resilience (`n = 3f + 1`) at most
//!   `n - (2f + 1) = f` authors can ever vote, so no validator can reach
//!   the `2f + 1`-author direct quorum and no cone can reach the `f + 1`
//!   walk threshold below: the skip is final everywhere the moment it is
//!   observed anywhere. This is the "terminating" half: a crashed or
//!   censored leader's wave resolves at its *own* voting round, a full
//!   round before Bullshark's walk (which must wait for the next direct
//!   commit) can bury it.
//! - **Walk verdict**: a wave between two settled points commits iff the
//!   candidate anchor's causal cone contains voting blocks from `f + 1`
//!   distinct authors referencing the leader. The thresholds interlock:
//!   a direct commit's `2f + 1` voters minus the at-most `n - (2f + 1)`
//!   authors any cone can miss still leaves `f + 1` voters in *every*
//!   later anchor's cone, so a direct commit is ratified by every walk;
//!   conversely `2f + 1` definite non-voters cap the voters at `f`, below
//!   every cone's threshold. Both facts are structural (a block's cone is
//!   fixed at creation; the primary only inserts parent-complete
//!   certificates), so verdicts agree across validators without timing
//!   assumptions.
//!
//! Away from optimal resilience (`n > 3f + 1`, e.g. a 20-validator
//! committee with `f = 6`) the interlock inequalities lose slack: the walk
//! threshold drops to `2q - n` and the terminating rule disarms itself,
//! leaving exactly Bullshark-grade settlement through the vote-counted
//! walk.

use crate::bullshark::BullsharkRule;
use narwhal::{AnchorWalk, CertId, CommitRule, DagView, Frontier};
use nt_types::{Committee, Round, ValidatorId};

/// FinWhale consensus: `FinWhale::new(committee, schedule)`.
pub type FinWhale<S> = AnchorWalk<S, FinWhaleRule>;

/// Two-round waves, verdicts by distinct voting authors, terminating skip.
#[derive(Default)]
pub struct FinWhaleRule;

impl FinWhaleRule {
    /// Votes needed for a walk verdict to commit: `f + 1` at optimal
    /// resilience, degrading to `2q - n` on over-provisioned committees so
    /// a direct commit still implies `>= threshold` voters in every cone.
    fn walk_threshold(committee: &Committee) -> usize {
        let (n, q) = (committee.size(), committee.quorum_threshold());
        let slack = (2 * q).saturating_sub(n);
        committee.validity_threshold().min(slack).max(1)
    }

    /// Whether the terminating skip is sound on this committee: `q`
    /// definite non-voters must leave fewer possible voters than the walk
    /// threshold, or a skipped wave could still commit through a cone.
    fn terminating_enabled(committee: &Committee) -> bool {
        committee.size() - committee.quorum_threshold() < Self::walk_threshold(committee)
    }

    /// Distinct authors of the voting-round blocks that reference `anchor`
    /// and pass `counted`.
    fn voters(
        committee: &Committee,
        view: DagView<'_>,
        anchor: CertId,
        counted: impl Fn(CertId) -> bool,
    ) -> usize {
        let mut seen = vec![false; committee.size()];
        for id in view.round_ids(view.round_of(anchor) + 1) {
            if view.parents(id).any(|p| p == anchor) && counted(id) {
                seen[view.author_of(id).0 as usize] = true;
            }
        }
        seen.iter().filter(|&&v| v).count()
    }
}

impl CommitRule for FinWhaleRule {
    const TAG: u8 = 5;
    const REVEAL_AFTER: Round = 1;

    fn anchor_round(&self, at: Frontier, wave: u64) -> Round {
        BullsharkRule.anchor_round(at, wave)
    }

    fn slot_at(&self, at: Frontier, round: Round) -> Option<u64> {
        BullsharkRule.slot_at(at, round)
    }

    fn commits_directly(&self, committee: &Committee, view: DagView<'_>, anchor: CertId) -> bool {
        Self::voters(committee, view, anchor, |_| true) >= committee.quorum_threshold()
    }

    /// Voters for `past` from inside `candidate`'s cone. Below the
    /// threshold at most `f` authors ever voted, so no validator can commit
    /// `past` directly or through any cone.
    fn ratifies(
        &self,
        committee: &Committee,
        view: DagView<'_>,
        candidate: CertId,
        past: CertId,
    ) -> bool {
        let in_cone = |id| id == candidate || view.path_exists(candidate, id);
        Self::voters(committee, view, past, in_cone) >= Self::walk_threshold(committee)
    }

    /// Counts the voting-round authors that are *definite non-voters* for
    /// the leader slot (equivocation twins included): every one of their
    /// blocks has all parent edges resolved and none pointing at a
    /// leader-slot block. Blocks with unresolved edges are excluded — an
    /// edge we cannot resolve might be a vote, and the skip must never
    /// over-count.
    fn gives_up(
        &self,
        committee: &Committee,
        view: DagView<'_>,
        round: Round,
        leader: ValidatorId,
    ) -> bool {
        if !Self::terminating_enabled(committee) {
            return false;
        }
        let slot: Vec<CertId> = view
            .round_ids(round)
            .filter(|&id| view.author_of(id) == leader)
            .collect();
        // Per author: (has any block, every block is a resolved non-vote).
        let n = committee.size();
        let (mut present, mut clean) = (vec![false; n], vec![true; n]);
        for id in view.round_ids(round + 1) {
            let a = view.author_of(id).0 as usize;
            present[a] = true;
            let resolved = view.parents(id).count() == view.cert(id).header.parents.len();
            let votes = view.parents(id).any(|p| slot.contains(&p));
            if !resolved || votes {
                clean[a] = false;
            }
        }
        (0..n).filter(|&a| present[a] && clean[a]).count() >= committee.quorum_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::RoundRobin;
    use narwhal::testing::DagBench;
    use narwhal::DagConsensus;
    use nt_crypto::Scheme;

    fn bench() -> DagBench<FinWhale<RoundRobin>> {
        DagBench::new(4, |c| FinWhale::new(c.clone(), RoundRobin::new(c)))
    }

    #[test]
    fn commits_one_leader_every_two_rounds_in_full_dag() {
        let mut d = bench();
        for r in 1..=8 {
            d.full_round(r);
        }
        assert_eq!(d.decided(), vec![(1, 0), (3, 1), (5, 2), (7, 3)]);
        assert_eq!(d.rule.commit_counts(), (4, 0));
        assert_eq!(d.rule.early_skips(), 0);
    }

    #[test]
    fn dead_leader_wave_terminates_at_its_own_voting_round() {
        let mut d = bench();
        // Round 1 without the wave-1 leader (validator 0).
        d.round(1, &[1, 2, 3]);
        assert_eq!(d.rule.frontier().settled, 0);
        // Round 2: all four blocks reference the three round-1 blocks —
        // fully resolved, no leader edge: 4 >= 2f + 1 definite non-voters.
        d.full_round(2);
        // The wave settles NOW — Bullshark would still be waiting for wave
        // 2's direct commit (two more rounds) to bury this one.
        assert_eq!(d.rule.frontier().settled, 1, "terminated at its votes");
        assert_eq!(d.rule.early_skips(), 1);
        assert!(d.anchors.is_empty());
        // The next wave commits normally on top of the skip.
        for r in 3..=4 {
            d.full_round(r);
        }
        assert_eq!(d.decided(), vec![(3, 1)]);
        assert_eq!(d.rule.commit_counts(), (1, 0));
    }

    #[test]
    fn split_votes_neither_terminate_nor_commit_until_the_walk() {
        let mut d = bench();
        d.full_round(1);
        // Round 2: two blocks vote for the wave-1 leader, two do not —
        // below the 2f + 1 direct quorum AND below 2f + 1 non-voters.
        d.round_shunning(2, ValidatorId(0), &[0, 1]);
        assert_eq!(d.rule.frontier().settled, 0, "2 votes, 2 non-votes");
        for r in 3..=4 {
            d.full_round(r);
        }
        // Wave 2's direct commit walks down; the cone holds both voters
        // (f + 1 = 2 distinct authors), so wave 1 commits indirectly.
        assert_eq!(d.decided(), vec![(1, 0), (3, 1)]);
        assert_eq!(d.rule.commit_counts(), (1, 1));
    }

    #[test]
    fn terminating_rule_disarms_on_over_provisioned_committees() {
        // n = 6, f = 1: q = 3 definite non-voters would still leave
        // 3 >= walk-threshold possible voters, so the rule must disarm
        // rather than skip a wave another validator could commit.
        let (committee, _) = Committee::deterministic(6, 1, Scheme::Insecure);
        assert!(!FinWhaleRule::terminating_enabled(&committee));
        // Optimal resilience arms it.
        let (committee, _) = Committee::deterministic(4, 1, Scheme::Insecure);
        assert!(FinWhaleRule::terminating_enabled(&committee));
    }
}
