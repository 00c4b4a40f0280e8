//! Property tests for Tusk's agreement (Lemma 2): validators with different
//! local views — different insertion orders and different subsets above the
//! quorum floor — commit prefix-consistent anchor sequences.

use narwhal::testing::{random_dag, replay, CommitSeq, Lcg};
use nt_types::{Certificate, Committee, ValidatorId};
use proptest::prelude::*;
use tusk::Tusk;

/// The anchors a fresh Tusk commits when `certs` arrive in `order`.
fn run_tusk(
    committee: &Committee,
    certs: &[Certificate],
    order: &[usize],
    domain: u64,
) -> CommitSeq {
    replay(
        &mut Tusk::new(committee.clone(), domain),
        certs,
        order,
        None,
    )
    .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn anchor_sequences_are_prefix_consistent_across_delivery_orders(
        edges in proptest::collection::vec(any::<u8>(), 512),
        shuffle_seed in any::<u64>(),
        domain in any::<u64>(),
    ) {
        let (committee, certs) = random_dag(4, 9, &edges);
        let in_order: Vec<usize> = (0..certs.len()).collect();
        let shuffled = Lcg::new(shuffle_seed).shuffled(certs.len());
        let a = run_tusk(&committee, &certs, &in_order, domain);
        let b = run_tusk(&committee, &certs, &shuffled, domain);
        let common = a.len().min(b.len());
        prop_assert!(common > 0, "some wave must commit over 9 rounds");
        prop_assert_eq!(&a[..common], &b[..common], "Lemma 2: same leader sequence");
    }

    #[test]
    fn one_validator_with_a_sparser_view_agrees(
        edges in proptest::collection::vec(any::<u8>(), 512),
        drop_author in 0u32..4,
        domain in any::<u64>(),
    ) {
        // Model the sparser view as delayed delivery (the DAG needs
        // ancestry, so B cannot simply never see the blocks): B receives
        // `drop_author`'s certificates after everyone else's.
        let (committee, certs) = random_dag(4, 9, &edges);
        let in_order: Vec<usize> = (0..certs.len()).collect();
        let late = |i: &usize| certs[*i].origin() == ValidatorId(drop_author);
        let mut delayed: Vec<usize> = in_order.iter().copied().filter(|i| !late(i)).collect();
        delayed.extend(in_order.iter().copied().filter(late));
        let a = run_tusk(&committee, &certs, &in_order, domain);
        let b = run_tusk(&committee, &certs, &delayed, domain);
        let common = a.len().min(b.len());
        prop_assert!(common > 0);
        prop_assert_eq!(&a[..common], &b[..common]);
    }
}
