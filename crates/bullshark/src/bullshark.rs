//! The partially-synchronous Bullshark commit rule.
//!
//! Bullshark ("Bullshark: DAG BFT Protocols Made Practical", and the
//! standalone "partially synchronous version") reuses the Narwhal DAG but
//! replaces Tusk's retrospective coin with *predefined* leaders, cutting
//! the common-case commit point from Tusk's ~4.5 rounds to 2. Waves are
//! **two** rounds: wave `w >= 1` has its leader block in round `2w - 1` and
//! its votes in round `2w`. The leader comes from a leader schedule every
//! validator evaluates identically, and commits **directly** once
//! `2f + 1` voting-round blocks reference it; a leader that misses that
//! quorum is settled by the walk from the next direct commit. `2f + 1`
//! votes and the `2f + 1` parents every later block carries always
//! intersect, so a directly committed leader is on *every* later anchor's
//! path.

use narwhal::{AnchorWalk, CertId, CommitRule, DagView, Frontier};
use nt_types::{Committee, Round};

/// Bullshark consensus: `Bullshark::new(committee, schedule)`. All
/// validators of one deployment must start from identical schedule state.
pub type Bullshark<S> = AnchorWalk<S, BullsharkRule>;

/// Two-round waves, `2f + 1` votes.
#[derive(Default)]
pub struct BullsharkRule;

impl CommitRule for BullsharkRule {
    const TAG: u8 = 3;
    const REVEAL_AFTER: Round = 1;

    fn anchor_round(&self, _: Frontier, wave: u64) -> Round {
        2 * wave - 1
    }

    fn slot_at(&self, _: Frontier, round: Round) -> Option<u64> {
        (round % 2 == 1).then(|| round.div_ceil(2))
    }

    fn commits_directly(&self, committee: &Committee, view: DagView<'_>, anchor: CertId) -> bool {
        view.support(anchor) >= committee.quorum_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Reputation, RoundRobin};
    use narwhal::testing::DagBench;
    use narwhal::DagConsensus;
    use nt_types::ValidatorId;

    fn bench(n: usize) -> DagBench<Bullshark<RoundRobin>> {
        DagBench::new(n, |c| Bullshark::new(c.clone(), RoundRobin::new(c)))
    }

    /// A reputation-scheduled Bullshark over `rounds` rounds in which only
    /// `alive` produce blocks.
    fn run_reputation(n: usize, rounds: Round, alive: &[u32]) -> DagBench<Bullshark<Reputation>> {
        let mut d = DagBench::new(n, |c| Bullshark::new(c.clone(), Reputation::new(c)));
        for r in 1..=rounds {
            d.round(r, alive);
        }
        d
    }

    #[test]
    fn wave_round_arithmetic() {
        let at = Frontier::GENESIS;
        let voting_round = |w| BullsharkRule.anchor_round(at, w) + BullsharkRule::REVEAL_AFTER;
        assert_eq!((BullsharkRule.anchor_round(at, 1), voting_round(1)), (1, 2));
        // Two-round waves tile the rounds with no gap and no piggybacking.
        assert_eq!((BullsharkRule.anchor_round(at, 2), voting_round(2)), (3, 4));
    }

    #[test]
    fn commits_one_leader_every_two_rounds_in_full_dag() {
        let mut d = bench(4);
        for r in 1..=8 {
            d.full_round(r);
        }
        // Waves 1..=4 decide as soon as their voting round lands: anchors
        // at rounds 1, 3, 5, 7 — twice Tusk's cadence, no coin needed.
        // Round-robin: wave w is led by validator (w - 1) mod 4.
        assert_eq!(d.decided(), vec![(1, 0), (3, 1), (5, 2), (7, 3)]);
        assert_eq!(d.rule.commit_counts(), (4, 0));
    }

    #[test]
    fn decides_at_the_voting_round_not_a_round_later() {
        let mut d = bench(4);
        d.full_round(1);
        assert!(d.anchors.is_empty(), "no votes yet");
        d.full_round(2);
        // The wave-1 leader commits the moment round 2 completes — Tusk
        // would still be waiting for round 3's coin shares here.
        assert_eq!(d.decided(), vec![(1, 0)]);
    }

    #[test]
    fn unsupported_leader_is_skipped_and_unreferenced_leader_abandoned() {
        let mut d = bench(4);
        d.full_round(1);
        // Round 2: nobody references the wave-1 leader (validator 0).
        d.round_shunning(2, ValidatorId(0), &[]);
        for r in 3..=6 {
            d.full_round(r);
        }
        // Wave 1's leader has no votes and no incoming path: abandoned.
        assert!(
            !d.decided().contains(&(1, 0)),
            "unreferenced leader cannot commit"
        );
        // Later waves commit directly; the skip is settled, not pending.
        let (direct, indirect) = d.rule.commit_counts();
        assert!(direct >= 2);
        assert_eq!(indirect, 0, "no path to the skipped leader");
        assert!(d.rule.frontier().settled >= 2);
    }

    #[test]
    fn late_support_commits_leader_indirectly_through_the_walk() {
        let mut d = bench(4);
        d.full_round(1);
        // Round 2: only 2 of 4 blocks reference the wave-1 leader — below
        // the 2f + 1 = 3 direct threshold, above zero (so paths exist).
        d.round_shunning(2, ValidatorId(0), &[0, 1]);
        assert!(d.anchors.is_empty(), "2 votes < 2f + 1: no direct commit");
        // Waves 2..: fully connected; wave 2's direct commit reaches wave
        // 1's leader through the two referencing blocks.
        for r in 3..=4 {
            d.full_round(r);
        }
        assert_eq!(d.decided(), vec![(1, 0), (3, 1)], "wave 1 ordered first");
        assert_eq!(d.rule.commit_counts(), (1, 1), "wave 1 indirect");
    }

    #[test]
    fn reputation_demotes_a_dead_leader_after_one_skipped_turn() {
        // Validator 1 starts inside the rotation ({0, 1, 2} by tie-break)
        // but never produces blocks. Its first turn is skipped, the penalty
        // drops it below idle validator 3, and the rotation heals to
        // {0, 2, 3}: exactly one skipped wave over the whole run, where
        // round-robin would skip every third wave forever.
        let d = run_reputation(4, 20, &[0, 2, 3]);
        let leaders: Vec<u32> = d.decided().iter().map(|a| a.1).collect();
        assert!(!leaders.contains(&1), "dead validator never leads");
        assert!(d.rule.election().score(ValidatorId(1)) < 0, "demoted");
        assert!(leaders.contains(&3), "idle validator promoted");
        // 20 rounds = 10 waves: wave 2 (validator 1's only turn) is the
        // sole skip; everything else commits directly.
        let (direct, indirect) = d.rule.commit_counts();
        assert_eq!(indirect, 0);
        assert!(direct >= 8, "commits keep flowing, got {direct}");
        assert_eq!(d.rule.frontier().settled, direct + 1, "exactly one skip");
    }

    /// Regression: with two consecutive skipped waves, the skip records
    /// must name the leaders the settlement walk actually checked. An
    /// earlier version re-read the (already re-ranked) schedule between
    /// records, penalizing the healthy wave-3 leader in place of the dead
    /// wave-2 one.
    #[test]
    fn consecutive_skips_penalize_the_checked_leaders_not_the_reranked_ones() {
        // n = 7 (f = 2, quorum 5, eligible 5): validators 0 and 1 — the
        // wave-1 and wave-2 leaders — are dead; 2..=6 are fully connected,
        // so wave 3 (leader 2) is the first direct commit and settles both
        // dead waves in one instance.
        let d = run_reputation(7, 8, &[2, 3, 4, 5, 6]);
        assert!(d.rule.frontier().settled >= 3, "wave 3 settles both");
        // Both dead leaders carry the skip penalty; the leader that
        // actually committed gained score.
        let score = |v| d.rule.election().score(ValidatorId(v));
        assert!(score(0) < 0);
        assert!(score(1) < 0, "misattribution");
        assert!(score(2) > 0, "misattribution");
        assert_eq!(d.anchors[0].origin(), ValidatorId(2));
    }
}
