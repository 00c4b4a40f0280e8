//! Cross-protocol agreement over one recorded DAG.
//!
//! Narwhal's promise (§3.2, Figure 3) is that the DAG is a consensus-
//! agnostic substrate: Tusk, DAG-Rider, and Bullshark each interpret the
//! same certificates. Each protocol picks its own anchors, so their total
//! orders differ *between* protocols — but for every protocol, validators
//! with different delivery orders of the same recorded DAG must linearize
//! identical committed-certificate prefixes, and every linearization must
//! respect the DAG's causal (parent) order.
//!
//! The six rules are one engine under six policies, so what the engine owns
//! — the checkpoint format, restart, the timing hints — is tested here once,
//! table-driven over all of them.

use narwhal_tusk::bench::{dag_rule, DagRule, System};
use narwhal_tusk::bullshark::{PipelinedBullshark, RoundRobin};
use narwhal_tusk::crypto::Digest;
use narwhal_tusk::narwhal::testing::{record_dag, replay, DagBench, Lcg};
use narwhal_tusk::narwhal::DagConsensus;
use narwhal_tusk::types::{Certificate, Committee, Round, ValidatorId};
use std::collections::HashMap;

/// The six commit rules, as deployed.
const RULES: [System; 6] = [
    System::Tusk,
    System::DagRider,
    System::Bullshark,
    System::BullsharkRep,
    System::BullsharkPipelined,
    System::FinWhale,
];

/// A fresh instance of `system`'s rule (coin domain 7).
fn fresh(system: System, committee: &Committee) -> DagRule {
    dag_rule(system, committee, 7)
}

/// Sparse 2f + 1 edges: leaders miss their direct quorum now and then, so
/// the walk settles some of them indirectly. With `full`, every block
/// references the whole previous round instead.
fn four_validators(full: bool) -> (Committee, Vec<Certificate>) {
    let mut lcg = Lcg::new(0xB5);
    record_dag(4, 12, &[], |len| (!full).then(|| lcg.below(len)))
}

/// Validators 0 and 1 never produce a block: the first two leaders of
/// every schedule are dead back to back (final skips, and a reputation
/// schedule re-ranks between them).
fn two_dead_of_seven() -> (Committee, Vec<Certificate>) {
    let mut lcg = Lcg::new(0xB5);
    record_dag(7, 24, &[0, 1], |len| Some(lcg.below(len)))
}

/// `system`'s rule over `certs[..upto]` of a recorded DAG, in recorded order.
fn run(system: System, recorded: &(Committee, Vec<Certificate>), upto: usize) -> DagBench<DagRule> {
    let (committee, certs) = recorded;
    let mut bench = DagBench::new(committee.size(), |c| fresh(system, c));
    bench.feed(certs[committee.size()..upto].to_vec());
    bench
}

/// Asserts ancestors precede descendants in `lin` (causal order).
fn assert_causal(lin: &[(Round, ValidatorId)], certs: &[Certificate]) {
    let by_id: HashMap<(Round, ValidatorId), &Certificate> =
        certs.iter().map(|c| ((c.round(), c.origin()), c)).collect();
    let position: HashMap<&(Round, ValidatorId), usize> =
        lin.iter().enumerate().map(|(i, id)| (id, i)).collect();
    let by_digest: HashMap<Digest, (Round, ValidatorId)> = certs
        .iter()
        .map(|c| (c.header_digest(), (c.round(), c.origin())))
        .collect();
    for id in lin {
        let cert = by_id[id];
        for parent in &cert.header.parents {
            let parent_id = by_digest[parent];
            if let (Some(&p), Some(&c)) = (position.get(&parent_id), position.get(id)) {
                assert!(p < c, "parent {parent_id:?} ordered after child {id:?}");
            }
        }
    }
}

#[test]
fn every_protocol_linearizes_consistent_prefixes_from_one_recorded_dag() {
    let (committee, certs) = four_validators(false);
    let in_order: Vec<usize> = (0..certs.len()).collect();
    let views = [41, 97].map(|seed| Lcg::new(seed).shuffled(certs.len()));
    let linearize =
        |system, order: &[usize]| replay(fresh(system, &committee).as_mut(), &certs, order, None).1;
    for system in RULES {
        let name = system.name();
        let reference = linearize(system, &in_order);
        assert!(
            !reference.is_empty(),
            "{name}: something must commit over 12 rounds"
        );
        assert_causal(&reference, &certs);
        for (v, view) in views.iter().enumerate() {
            let other = linearize(system, view);
            let common = reference.len().min(other.len());
            assert!(common > 0, "{name}: view {v} commits nothing");
            assert_eq!(
                reference[..common],
                other[..common],
                "{name}: view {v} diverges from the in-order linearization"
            );
            assert_causal(&other, &certs);
        }
    }
}

#[test]
fn bullshark_commits_more_anchors_than_dag_rider_on_the_same_dag() {
    // Anchor cadence over the same recorded rounds: over 12 fully
    // connected rounds, 2-round Bullshark waves settle 6 anchors (voting
    // rounds 2..12), Tusk's piggybacked 3-round waves 5 (coin rounds
    // 3..11), DAG-Rider's 4-round waves 3 (reveal rounds 4, 8, 12).
    // Pipelined Bullshark re-bases after every commit, so every round
    // 1..=11 yields an anchor; FinWhale keeps Bullshark's two-round waves.
    let recorded = four_validators(true);
    let count = |system| run(system, &recorded, recorded.1.len()).anchors.len();
    let (b, t, r) = (
        count(System::Bullshark),
        count(System::Tusk),
        count(System::DagRider),
    );
    assert_eq!((b, t, r), (6, 5, 3), "anchor cadence per wave size");
    let mut pipelined = DagBench::new(4, |c| {
        PipelinedBullshark::new(c.clone(), RoundRobin::new(c))
    });
    pipelined.feed(recorded.1[4..].to_vec());
    let (p, f) = (pipelined.anchors.len(), count(System::FinWhale));
    assert_eq!((p, f), (11, 6), "pipelined anchors every round");
}

/// Golden decisions: the literal anchor sequence of every rule on two
/// recorded DAGs, as decided when these values were recorded (the PR 13
/// tree). A refactor of the rules must leave them untouched; only a
/// deliberate protocol change may re-pin them.
#[test]
fn every_rule_decides_the_recorded_anchor_sequences() {
    let (sparse, dead) = (four_validators(false), two_dead_of_seven());
    type Decided = (Vec<(Round, u32)>, (u64, u64));
    #[rustfmt::skip]
    let golden: Vec<(&str, Decided, Decided)> = vec![
        ("Tusk",
         (vec![(1, 0), (3, 1), (5, 0), (7, 2), (9, 1)], (4, 1)),
         (vec![(1, 6), (3, 6), (5, 5), (7, 4), (11, 6), (13, 3), (15, 4), (17, 4), (21, 5)], (9, 0))),
        ("DAG-Rider",
         (vec![(1, 0), (5, 1), (9, 0)], (3, 0)),
         (vec![(1, 2), (5, 3), (13, 6), (17, 6)], (4, 0))),
        ("Bullshark",
         (vec![(1, 0), (3, 1), (5, 2), (7, 3), (9, 0), (11, 1)], (5, 1)),
         (vec![(5, 2), (7, 3), (9, 4), (11, 5), (13, 6), (19, 2), (21, 3), (23, 4)], (8, 0))),
        ("Bullshark-Rep",
         (vec![(1, 0), (3, 1), (5, 2), (7, 0), (9, 1)], (3, 2)),
         (vec![(5, 2), (7, 5), (9, 6), (11, 2), (13, 5), (15, 6), (17, 3), (19, 4), (21, 2), (23, 5)], (10, 0))),
        ("Bullshark-Pipelined",
         (vec![(1, 0), (2, 1), (3, 2), (4, 0), (5, 1), (6, 2), (7, 0), (8, 1), (9, 2), (10, 0), (11, 1)], (5, 6)),
         (vec![(5, 2), (6, 5), (7, 6), (8, 2), (9, 5), (10, 6), (11, 3), (12, 4), (13, 2), (14, 5), (15, 6),
               (16, 3), (17, 4), (18, 2), (19, 5), (20, 6), (21, 3), (22, 4), (23, 2)], (19, 0))),
        ("FinWhale",
         (vec![(3, 1), (5, 2), (7, 3), (9, 0), (11, 1)], (5, 0)),
         (vec![(5, 2), (7, 3), (9, 4), (11, 5), (13, 6), (19, 2), (21, 3), (23, 4)], (8, 0))),
    ];
    let decided = |system, recorded: &(Committee, Vec<Certificate>)| {
        let bench = run(system, recorded, recorded.1.len());
        (bench.decided(), bench.rule.commit_counts())
    };
    for (system, (gold_name, on_sparse, on_dead)) in RULES.into_iter().zip(golden) {
        let name = system.name();
        assert_eq!(name, gold_name);
        assert_eq!(decided(system, &sparse), on_sparse, "{name}: sparse DAG");
        assert_eq!(decided(system, &dead), on_dead, "{name}: dead leaders");
    }
}

/// A checkpoint carries its rule: a blob written under one rule leaves each
/// of the other five untouched (a `system` change over an existing
/// `--store` must not adopt another rule's counters as a frontier), and so
/// do a truncated blob, trailing garbage and plain noise.
#[test]
fn a_checkpoint_is_adopted_only_by_the_rule_that_wrote_it() {
    let recorded = two_dead_of_seven();
    let blobs = RULES.map(|system| {
        let written = run(system, &recorded, recorded.1.len()).rule.checkpoint();
        written.expect("every DAG rule checkpoints")
    });
    for (reader, own) in RULES.into_iter().zip(&blobs) {
        let name = reader.name();
        let mut rule = fresh(reader, &recorded.0);
        let untouched = rule.checkpoint();
        let mut rejected: Vec<Vec<u8>> = blobs.iter().filter(|b| *b != own).cloned().collect();
        rejected.push(b"not a checkpoint".to_vec());
        rejected.push(own[..own.len() - 1].to_vec());
        rejected.push([own.as_slice(), &[0]].concat());
        for blob in &rejected {
            rule.restore(blob);
            assert_eq!(rule.checkpoint(), untouched, "{name} adopted {blob:?}");
        }
        rule.restore(own);
        assert_eq!(
            rule.checkpoint().as_ref(),
            Some(own),
            "{name}: its own blob"
        );
    }
}

/// Checkpoint → restore into a fresh instance → continue: the anchors, the
/// counters and the final checkpoint (frontier and reputation standings
/// included) equal the uninterrupted run's.
#[test]
fn every_rule_resumes_from_its_checkpoint_as_if_never_stopped() {
    let recorded = two_dead_of_seven();
    let (committee, certs) = &recorded;
    // Stop after round 10: five live blocks per round above genesis.
    let stop = committee.size() + 10 * 5;
    for system in RULES {
        let name = system.name();
        let straight = run(system, &recorded, certs.len());
        let mut resumed = run(system, &recorded, stop);
        let blob = resumed.rule.checkpoint().expect("checkpointed");
        resumed.rule = fresh(system, committee);
        resumed.rule.restore(&blob);
        resumed.feed(certs[stop..].to_vec());
        assert!(resumed.anchors.len() > 2, "{name}: commits on both sides");
        assert_eq!(resumed.decided(), straight.decided(), "{name}");
        assert_eq!(
            resumed.rule.commit_counts(),
            straight.rule.commit_counts(),
            "{name}"
        );
        assert_eq!(
            resumed.rule.checkpoint(),
            straight.rule.checkpoint(),
            "{name}"
        );
    }
}

/// The timing hints of a fresh 4-validator instance. A coin elects in
/// retrospect, so Tusk and DAG-Rider wish for nothing; the scheduled rules
/// wish for the previous round's anchor candidate as a parent and for full
/// coverage under their own anchor — nothing otherwise: a block's own chain
/// is the primary's to wait for, under every rule.
#[test]
fn only_rules_with_predefined_leaders_take_timing_hints() {
    let (committee, _) = four_validators(true);
    let v = ValidatorId;
    let everyone = |round| (0..4).map(|a| (round, v(a))).collect::<Vec<_>>();
    for system in RULES {
        let (name, rule) = (system.name(), fresh(system, &committee));
        let parent: Vec<_> = (0..5).map(|r| rule.parent_wishes(r)).collect();
        match system {
            System::Tusk | System::DagRider => {
                assert!(parent.iter().all(Vec::is_empty), "{name}");
                assert!((0..5).all(|r| rule.coverage_wishes(r, v(1)).is_empty()));
            }
            System::BullsharkPipelined => {
                // A candidate in every round: 1 and 2 from the open
                // instance, 3 from the predicted re-base.
                let expected = [
                    vec![],
                    vec![],
                    vec![(1, v(0))],
                    vec![(2, v(1))],
                    vec![(3, v(1))],
                ];
                assert_eq!(parent, expected, "{name}");
                assert_eq!(rule.coverage_wishes(2, v(1)), everyone(1), "{name}");
                assert_eq!(rule.coverage_wishes(2, v(0)), vec![], "{name}");
            }
            _ => {
                // Two-round waves: only even rounds vote, only odd rounds
                // above the first anchor.
                let expected = [vec![], vec![], vec![(1, v(0))], vec![], vec![(3, v(1))]];
                assert_eq!(parent, expected, "{name}");
                assert_eq!(rule.coverage_wishes(3, v(1)), everyone(2), "{name}");
                assert_eq!(rule.coverage_wishes(3, v(0)), vec![], "{name}");
                assert_eq!(rule.coverage_wishes(2, v(1)), vec![], "{name}");
            }
        }
        assert_eq!(rule.coverage_wishes(0, v(0)), vec![], "{name}");
    }
}
