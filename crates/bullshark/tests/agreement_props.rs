//! Property tests for Bullshark's safety: agreement (identical anchor
//! sequences across local views), total order (identical linearized
//! certificate prefixes), and no-commit-loss across garbage collection.

use bullshark::{Bullshark, Reputation, RoundRobin};
use narwhal::testing::{random_dag, replay, CommitSeq, Lcg};
use narwhal::{DagConsensus, NoExt};
use nt_types::{Certificate, Committee, Round, ValidatorId};
use proptest::prelude::*;
use std::collections::HashSet;

/// One validator's view under either schedule: `(anchors, linearized)`.
fn run_view(
    committee: &Committee,
    certs: &[Certificate],
    order: &[usize],
    reputation: bool,
    gc_depth: Option<Round>,
) -> (CommitSeq, CommitSeq) {
    let c = committee.clone();
    let mut rule: Box<dyn DagConsensus<Ext = NoExt>> = if reputation {
        Box::new(Bullshark::new(c, Reputation::new(committee)))
    } else {
        Box::new(Bullshark::new(c, RoundRobin::new(committee)))
    };
    replay(rule.as_mut(), certs, order, gc_depth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Agreement: two validators receiving the same DAG in different orders
    /// commit prefix-consistent anchor sequences, under both schedules.
    #[test]
    fn anchor_sequences_are_prefix_consistent_across_delivery_orders(
        edges in proptest::collection::vec(any::<u8>(), 512),
        shuffle_seed in any::<u64>(),
        reputation in any::<bool>(),
    ) {
        let (committee, certs) = random_dag(4, 10, &edges);
        let in_order: Vec<usize> = (0..certs.len()).collect();
        let shuffled = Lcg::new(shuffle_seed).shuffled(certs.len());
        let (a, _) = run_view(&committee, &certs, &in_order, reputation, None);
        let (b, _) = run_view(&committee, &certs, &shuffled, reputation, None);
        let common = a.len().min(b.len());
        prop_assert!(common > 0, "some wave must commit over 10 rounds");
        prop_assert_eq!(&a[..common], &b[..common], "same anchor sequence");
    }

    /// Total order: the linearized certificate sequences (anchors plus
    /// flushed causal histories) are prefix-consistent across views, and
    /// never order a certificate twice.
    #[test]
    fn linearizations_are_prefix_consistent_and_duplicate_free(
        edges in proptest::collection::vec(any::<u8>(), 512),
        shuffle_seed in any::<u64>(),
        reputation in any::<bool>(),
    ) {
        let (committee, certs) = random_dag(4, 10, &edges);
        let in_order: Vec<usize> = (0..certs.len()).collect();
        let shuffled = Lcg::new(shuffle_seed).shuffled(certs.len());
        let (_, lin_a) = run_view(&committee, &certs, &in_order, reputation, None);
        let (_, lin_b) = run_view(&committee, &certs, &shuffled, reputation, None);
        let common = lin_a.len().min(lin_b.len());
        prop_assert!(common > 0);
        prop_assert_eq!(&lin_a[..common], &lin_b[..common], "same total order");
        let unique: HashSet<&(Round, ValidatorId)> = lin_a.iter().collect();
        prop_assert_eq!(unique.len(), lin_a.len(), "no certificate ordered twice");
    }

    /// No commit loss across GC: pruning the DAG behind the commit point
    /// (as the primary does) never changes the committed anchor sequence,
    /// and the linearized order stays a subsequence of the unpruned one
    /// containing every anchor (blocks outside every anchor's cone may be
    /// pruned uncommitted — that is §3.3's re-injection case, not loss).
    #[test]
    fn gc_behind_the_commit_point_loses_no_commits(
        edges in proptest::collection::vec(any::<u8>(), 512),
        gc_depth in 4u64..8,
        reputation in any::<bool>(),
    ) {
        let (committee, certs) = random_dag(4, 12, &edges);
        let in_order: Vec<usize> = (0..certs.len()).collect();
        let (plain_anchors, plain_lin) =
            run_view(&committee, &certs, &in_order, reputation, None);
        let (gc_anchors, gc_lin) =
            run_view(&committee, &certs, &in_order, reputation, Some(gc_depth));
        prop_assert!(!plain_anchors.is_empty());
        prop_assert_eq!(&plain_anchors, &gc_anchors, "anchors survive GC");
        // gc_lin is a subsequence of plain_lin...
        let mut it = plain_lin.iter();
        for entry in &gc_lin {
            prop_assert!(
                it.any(|p| p == entry),
                "GC must not reorder or invent commits: {entry:?}"
            );
        }
        // ...that still contains every committed anchor.
        for anchor in &gc_anchors {
            prop_assert!(gc_lin.contains(anchor), "anchor {anchor:?} linearized");
        }
    }
}
