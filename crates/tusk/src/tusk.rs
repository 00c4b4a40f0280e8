//! The Tusk commit rule (§5).
//!
//! Waves are three rounds, and the third round of wave `w` is the first
//! round of wave `w + 1` — the paper's piggybacking optimization that
//! brings common-case latency from 5.5 to 4.5 rounds. Wave `w >= 1` has
//! its leader block in round `2w - 1`, its votes in round `2w`, and its
//! coin shares in round `2w + 1`: the coin elects the leader *in
//! retrospect*, so an adaptive adversary learns it only after the first two
//! rounds are fixed (§5.2). The leader commits once `f + 1` voting-round
//! blocks reference it; the walk then orders every earlier elected leader
//! it has a DAG path to (Lemma 1).

use narwhal::{AnchorWalk, CertId, Coin, CommitRule, DagView, Frontier};
use nt_types::{Committee, Round};

/// Tusk consensus: `Tusk::new(committee, domain)`, where `domain` seeds the
/// coin and must be identical at all validators.
pub type Tusk = AnchorWalk<Coin, TuskRule>;

/// Piggybacked three-round waves, `f + 1` votes.
#[derive(Default)]
pub struct TuskRule;

impl CommitRule for TuskRule {
    const TAG: u8 = 1;
    const REVEAL_AFTER: Round = 2;

    fn anchor_round(&self, _: Frontier, wave: u64) -> Round {
        2 * wave - 1
    }

    fn commits_directly(&self, committee: &Committee, view: DagView<'_>, anchor: CertId) -> bool {
        view.support(anchor) >= committee.validity_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use narwhal::testing::DagBench;
    use narwhal::DagConsensus;
    use nt_crypto::{combine_shares, CoinShare};
    use nt_types::ValidatorId;

    fn bench(domain: u64) -> DagBench<Tusk> {
        DagBench::new(4, |c| Tusk::new(c.clone(), domain))
    }

    #[test]
    fn wave_round_arithmetic() {
        let at = Frontier::GENESIS;
        assert_eq!(TuskRule.anchor_round(at, 1), 1);
        // Votes in round 2, coin shares in round 3 — piggybacked: wave 2
        // starts at wave 1's coin round.
        assert_eq!(TuskRule.anchor_round(at, 1) + TuskRule::REVEAL_AFTER, 3);
        assert_eq!(TuskRule.anchor_round(at, 2), 3);
    }

    #[test]
    fn commits_leader_every_wave_in_full_dag() {
        let mut d = bench(7);
        for r in 1..=9 {
            d.full_round(r);
        }
        // Waves 1..=4 decidable (coin rounds 3, 5, 7, 9). Fully connected:
        // every leader present with n >= f+1 support commits, in wave
        // order at the waves' proposal rounds.
        let rounds: Vec<Round> = d.anchors.iter().map(|c| c.round()).collect();
        assert_eq!(rounds, vec![1, 3, 5, 7]);
        assert_eq!(d.rule.commit_counts(), (4, 0));
    }

    #[test]
    fn coin_needs_f_plus_1_shares() {
        let mut d = bench(7);
        for r in 1..=2 {
            d.full_round(r);
        }
        // Round 3 with only one block: one share < f + 1 = 2.
        d.round(3, &[0]);
        assert!(d.anchors.is_empty(), "no coin, no commit");
        // A second round-3 block reveals the coin.
        d.round(3, &[1]);
        assert_eq!(d.anchors.len(), 1, "wave 1 commits once the coin reveals");
    }

    #[test]
    fn leader_without_support_is_skipped_then_ordered_by_path() {
        // Wave 1's leader gets zero votes in round 2, then the DAG is fully
        // connected: the leader is not an ancestor of anything, so it must
        // never be an anchor.
        let mut d = bench(7);
        d.full_round(1);
        // Who wave 1's leader will be: the coin of round 3 under domain 7.
        let shares: Vec<CoinShare> = (0..2).map(|i| CoinShare::new(&d.keypairs[i], 3)).collect();
        let coin = combine_shares(7, 3, &shares, 2).unwrap();
        let leader1 = ValidatorId((coin % 4) as u32);
        // Round 2: everyone references every round-1 block EXCEPT the
        // leader's (zero support).
        d.round_shunning(2, leader1, &[]);
        for r in 3..=7 {
            d.full_round(r);
        }
        assert!(
            d.anchors
                .iter()
                .all(|a| !(a.round() == 1 && a.origin() == leader1)),
            "unsupported, unreferenced leader cannot commit"
        );
        // Later waves commit normally.
        assert!(!d.anchors.is_empty());
        let (_, indirect) = d.rule.commit_counts();
        assert_eq!(indirect, 0, "no path to the skipped leader");
    }

    #[test]
    fn two_validators_with_different_views_commit_consistent_sequences() {
        // Validator A sees all rounds; validator B misses one round-2 block
        // (but still has a quorum there). Their committed leader sequences
        // must be prefix-consistent (Lemma 2: same sequence of leaders).
        let (mut a, mut b) = (bench(3), bench(3));
        for r in 1..=9u64 {
            let parents = a.parents(r - 1);
            for cert in a.make_round(r, &[0, 1, 2, 3], |_| parents.clone()) {
                if !(r == 2 && cert.origin() == ValidatorId(3)) {
                    b.feed(vec![cert.clone()]);
                }
                a.feed(vec![cert]);
            }
        }
        let (seq_a, seq_b) = (a.decided(), b.decided());
        let common = seq_a.len().min(seq_b.len());
        assert!(common > 0);
        assert_eq!(seq_a[..common], seq_b[..common], "prefix consistency");
    }
}
