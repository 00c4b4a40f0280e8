//! DAG-Rider over Narwhal: the 4-round-wave ancestor of Tusk (§8.2).
//!
//! The paper notes "it would take less than 200 LOC to implement DAG-Rider
//! over Narwhal"; this module validates that claim and serves as the
//! ablation baseline for Tusk's piggybacked waves. Wave `w` owns rounds
//! `4w - 3 ..= 4w` with no piggybacking, so each block commits in ~5.5
//! rounds in expectation instead of Tusk's ~4.5; the leader sits in the
//! first round, the coin is revealed in the last, and the leader commits
//! once `2f + 1` last-round blocks have a strong path to it. Weak links
//! (DAG-Rider's block-level fairness device) are omitted, as Tusk forbids
//! them to enable garbage collection.

use narwhal::{AnchorWalk, CertId, Coin, CommitRule, DagView, Frontier};
use nt_types::{Committee, Round};

/// DAG-Rider consensus: `DagRider::new(committee, domain)`, as [`Tusk`].
///
/// [`Tusk`]: crate::Tusk
pub type DagRider = AnchorWalk<Coin, DagRiderRule>;

/// Four-round waves, `2f + 1` last-round blocks with a path.
#[derive(Default)]
pub struct DagRiderRule;

impl CommitRule for DagRiderRule {
    const TAG: u8 = 2;
    const REVEAL_AFTER: Round = 3;

    fn anchor_round(&self, _: Frontier, wave: u64) -> Round {
        4 * wave - 3
    }

    fn commits_directly(&self, committee: &Committee, view: DagView<'_>, anchor: CertId) -> bool {
        let last = view.round_of(anchor) + Self::REVEAL_AFTER;
        let votes = view
            .round_ids(last)
            .filter(|&id| view.path_exists(id, anchor));
        votes.count() >= committee.quorum_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use narwhal::testing::DagBench;

    fn drive_full_dag(rounds: Round) -> Vec<(Round, u32)> {
        let mut d = DagBench::new(4, |c| DagRider::new(c.clone(), 11));
        for r in 1..=rounds {
            d.full_round(r);
        }
        d.decided()
    }

    #[test]
    fn wave_round_arithmetic() {
        let at = Frontier::GENESIS;
        let last_round = |w| DagRiderRule.anchor_round(at, w) + DagRiderRule::REVEAL_AFTER;
        assert_eq!((DagRiderRule.anchor_round(at, 1), last_round(1)), (1, 4));
        // No piggybacking: wave 2 starts after wave 1 ends.
        assert_eq!((DagRiderRule.anchor_round(at, 2), last_round(2)), (5, 8));
    }

    #[test]
    fn commits_one_leader_per_four_rounds() {
        // Waves 1..=3 commit, anchored at rounds 1, 5, 9.
        let rounds: Vec<Round> = drive_full_dag(12).iter().map(|a| a.0).collect();
        assert_eq!(rounds, vec![1, 5, 9]);
    }

    #[test]
    fn waves_are_sparser_than_tusk() {
        // Over the same 13-round DAG, Tusk decides 6 waves (coin rounds at
        // 3,5,7,9,11,13) while DAG-Rider decides 3 (reveal rounds 4,8,12):
        // the piggybacking is exactly a 2x anchor-frequency improvement.
        assert_eq!(drive_full_dag(13).len(), 3);
        let mut tusk = DagBench::new(4, |c| crate::Tusk::new(c.clone(), 11));
        for r in 1..=13 {
            tusk.full_round(r);
        }
        assert_eq!(tusk.anchors.len(), 6);
    }
}
