//! Shoal-style pipelined Bullshark: an anchor candidate every round.
//!
//! Plain Bullshark tiles the rounds into fixed two-round waves: odd rounds
//! carry anchors, even rounds only vote. Half the rounds therefore ship
//! blocks that can never be an anchor, and every block waits on average an
//! extra half round for the next anchor to sweep it — the measured ~2.5
//! decision rounds. Shoal's observation ("Shoal: Improving DAG-BFT Latency
//! And Robustness") is that the *voting round is not a protocol slot, it is
//! an offset*: once an anchor commits at round `r`, the next instance of
//! the protocol can be re-based at `r + 1`, making round `r + 1` the next
//! leader round. Under synchrony every round then carries an anchor
//! candidate, and a block is swept by the very next round's anchor:
//! measured decision depth drops to `2 - 1/n`.
//!
//! Concretely, the open instance owns candidate rounds `base`, `base + 2`,
//! `base + 4`, … — exactly a Bullshark embedded at offset `base`; the
//! direct quorum and the walk are Bullshark's unchanged. Candidates of the
//! old instance above a commit are abandoned (their rounds have the wrong
//! parity in the new instance) — their blocks are ordered by later anchors'
//! causal sweeps like any other block, so no data waits on them. Slots are
//! numbered in settlement order, which keeps the schedule's `record` calls
//! ascending and gap-free: a candidate that gathers no support is recorded
//! as a skip, demoting its author and *re-anchoring* the following rounds
//! onto better-behaved leaders. The re-base point (hence the next
//! instance's parity) is a deterministic function of the settled history
//! every validator agrees on.

use crate::bullshark::BullsharkRule;
use narwhal::{AnchorWalk, CertId, CommitRule, DagView, Frontier};
use nt_types::{Committee, Round};

/// Pipelined Bullshark consensus: `PipelinedBullshark::new(committee,
/// schedule)`. The checkpointed `base` matters as much as the schedule: a
/// restarted validator that reset it would evaluate different rounds as
/// anchors than the rest of the committee.
pub type PipelinedBullshark<S> = AnchorWalk<S, PipelinedRule>;

/// A candidate every other round from the re-base point, `2f + 1` votes.
#[derive(Default)]
pub struct PipelinedRule;

impl CommitRule for PipelinedRule {
    const TAG: u8 = 4;
    const REVEAL_AFTER: Round = 1;

    fn anchor_round(&self, at: Frontier, slot: u64) -> Round {
        at.base + 2 * (slot - at.settled - 1)
    }

    /// Unlike Bullshark's static wave parity, the candidate rounds are a
    /// function of the *dynamic* `base`, and a proposer can reach round
    /// `base + d` with `d` odd when it has a round quorum but has not yet
    /// processed the support that commits the base candidate locally.
    /// Returning no slot there is what made wish misses contagious: the
    /// proposer would not wait for round `base + d`'s candidate either,
    /// starving *its* direct quorum in turn. Instead, predict the
    /// post-commit state — the base candidate commits in the common case,
    /// re-basing to `base + 1` and settling one more slot — so every round
    /// gets a candidate wish.
    fn slot_at(&self, at: Frontier, round: Round) -> Option<u64> {
        let d = round.checked_sub(at.base)?;
        Some(at.settled + 1 + d / 2 + d % 2)
    }

    fn commits_directly(&self, committee: &Committee, view: DagView<'_>, anchor: CertId) -> bool {
        BullsharkRule.commits_directly(committee, view, anchor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Reputation, RoundRobin};
    use narwhal::testing::DagBench;
    use narwhal::DagConsensus;
    use nt_types::ValidatorId;

    fn bench() -> DagBench<PipelinedBullshark<RoundRobin>> {
        DagBench::new(4, |c| {
            PipelinedBullshark::new(c.clone(), RoundRobin::new(c))
        })
    }

    #[test]
    fn commits_one_anchor_every_round_in_full_dag() {
        let mut d = bench();
        for r in 1..=8 {
            d.full_round(r);
        }
        // Every round 1..=7 carries a committed anchor — twice Bullshark's
        // cadence (rounds 1, 3, 5, 7) from the identical DAG. Slots settle
        // in order, so round-robin leadership rotates per round instead of
        // per two rounds.
        let expected: Vec<(Round, u32)> = (1..=7).map(|r| (r, (r as u32 - 1) % 4)).collect();
        assert_eq!(d.decided(), expected);
        assert_eq!(d.rule.commit_counts(), (7, 0));
        assert_eq!(d.rule.frontier().base, 8);
    }

    #[test]
    fn decides_one_round_after_the_candidate_not_two() {
        let mut d = bench();
        d.full_round(1);
        assert!(d.anchors.is_empty(), "no votes yet");
        d.full_round(2);
        assert_eq!(d.decided(), vec![(1, 0)]);
        // The pipeline's payoff: round 2's candidate needs only round 3.
        d.full_round(3);
        assert_eq!(d.decided(), vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn unsupported_candidate_is_skipped_and_the_instance_rebases() {
        let mut d = bench();
        d.full_round(1);
        // Round 2: nobody references the round-1 candidate (validator 0).
        d.round_shunning(2, ValidatorId(0), &[]);
        for r in 3..=4 {
            d.full_round(r);
        }
        // The second candidate (round 3, leader 1) commits directly; the
        // walk finds no path to validator 0's unreferenced block, so slot
        // 1 is a final skip and the instance re-bases at round 4.
        assert_eq!(d.decided(), vec![(3, 1)], "unreferenced candidate lost");
        let at = d.rule.frontier();
        assert_eq!(at.settled, 2, "skip + commit both settled");
        assert_eq!(at.base, 4, "re-based past the commit");
        assert_eq!(d.rule.commit_counts(), (1, 0));
    }

    #[test]
    fn late_support_commits_candidate_indirectly_through_the_walk() {
        let mut d = bench();
        d.full_round(1);
        // Round 2: only 2 of 4 blocks reference the round-1 candidate —
        // below the 2f + 1 = 3 direct threshold, above zero (paths exist).
        d.round_shunning(2, ValidatorId(0), &[0, 1]);
        assert!(d.anchors.is_empty(), "2 votes < 2f + 1: no direct commit");
        for r in 3..=4 {
            d.full_round(r);
        }
        // The round-3 candidate's direct commit walks down, finds a path
        // through the two referencing blocks, and orders round 1's anchor
        // first; the re-based instances then sweep rounds 2 and 3 too.
        assert_eq!(d.decided(), vec![(1, 0), (2, 1), (3, 2)], "lowest first");
        assert_eq!(d.rule.commit_counts(), (2, 1), "round 1 was indirect");
    }

    #[test]
    fn reputation_reanchors_past_a_dead_candidate() {
        // Validator 1 starts inside the rotation but never produces blocks:
        // its first candidate turn is skipped, the penalty drops it below
        // idle validator 3, and every later round anchors on live leaders.
        let mut d = DagBench::new(4, |c| {
            PipelinedBullshark::new(c.clone(), Reputation::new(c))
        });
        for r in 1..=20 {
            d.round(r, &[0, 2, 3]);
        }
        let leaders: Vec<u32> = d.decided().iter().map(|a| a.1).collect();
        assert!(!leaders.contains(&1), "dead validator never leads");
        assert!(d.rule.election().score(ValidatorId(1)) < 0, "demoted");
        assert!(leaders.contains(&3), "idle validator promoted");
        // 20 full rounds at per-round cadence: one anchor per round except
        // around the single skipped turn.
        let (direct, indirect) = d.rule.commit_counts();
        assert_eq!(indirect, 0);
        assert!(direct >= 16, "per-round commits keep flowing, got {direct}");
        assert_eq!(d.rule.frontier().settled, direct + 1, "exactly one skip");
    }
}
