//! Cross-protocol agreement over one recorded DAG.
//!
//! Narwhal's promise (§3.2, Figure 3) is that the DAG is a consensus-
//! agnostic substrate: Tusk, DAG-Rider, and Bullshark each interpret the
//! same certificates. Each protocol picks its own anchors, so their total
//! orders differ *between* protocols — but for every protocol, validators
//! with different delivery orders of the same recorded DAG must linearize
//! identical committed-certificate prefixes, and every linearization must
//! respect the DAG's causal (parent) order.

use narwhal_tusk::bullshark::{Bullshark, FinWhale, PipelinedBullshark, Reputation, RoundRobin};
use narwhal_tusk::crypto::{CoinShare, Digest, Hashable, Scheme};
use narwhal_tusk::narwhal::{ConsensusOut, Dag, DagConsensus};
use narwhal_tusk::tusk::{DagRider, Tusk};
use narwhal_tusk::types::{Certificate, Committee, Header, Round, ValidatorId, Vote};
use std::collections::{HashMap, HashSet};

/// A boxed zero-message consensus instance (all three protocols qualify).
type BoxedConsensus = Box<dyn DagConsensus<Ext = narwhal_tusk::narwhal::NoExt>>;
/// A factory producing one fresh instance per simulated validator view.
type ProtocolFactory = fn(&Committee) -> BoxedConsensus;

/// Records a pseudo-random but deterministic DAG: every block references a
/// rotating 2f+1-subset of the previous round (all of it when `full`) and
/// carries a coin share (Tusk and DAG-Rider need one; Bullshark ignores it).
fn record_dag(n: usize, rounds: Round, seed: u64, full: bool) -> (Committee, Vec<Certificate>) {
    record_dag_without(n, rounds, seed, full, &[])
}

/// [`record_dag`] in which the `dead` validators never produce a block.
fn record_dag_without(
    n: usize,
    rounds: Round,
    seed: u64,
    full: bool,
    dead: &[u32],
) -> (Committee, Vec<Certificate>) {
    let (committee, kps) = Committee::deterministic(n, 1, Scheme::Insecure);
    let quorum = committee.quorum_threshold();
    let mut all: Vec<Certificate> = Certificate::genesis_set(&committee);
    let mut prev: Vec<Digest> = all.iter().map(Certificate::header_digest).collect();
    let mut state = seed | 1;
    for r in 1..=rounds {
        let mut next = Vec::new();
        for (i, kp) in kps.iter().enumerate() {
            if dead.contains(&(i as u32)) {
                continue;
            }
            let mut parents = prev.clone();
            while !full && parents.len() > quorum {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let pick = (state >> 33) as usize % parents.len();
                parents.remove(pick);
            }
            let share = CoinShare::new(kp, r);
            let header = Header::new(kp, ValidatorId(i as u32), r, vec![], parents, Some(share));
            let votes: Vec<Vote> = kps
                .iter()
                .enumerate()
                .map(|(j, vkp)| {
                    Vote::new(
                        vkp,
                        ValidatorId(j as u32),
                        header.digest(),
                        r,
                        header.author,
                    )
                })
                .collect();
            let cert = Certificate::from_votes(&committee, header, &votes).expect("quorum");
            next.push(cert.header_digest());
            all.push(cert);
        }
        prev = next;
    }
    (committee, all)
}

/// Replays the recorded DAG into `consensus` in `order` (deferring certs
/// whose parents are missing, as the primary does) and returns the
/// linearized committed-certificate sequence.
fn linearize(
    consensus: &mut dyn DagConsensus<Ext = narwhal_tusk::narwhal::NoExt>,
    certs: &[Certificate],
    order: &[usize],
) -> Vec<(Round, ValidatorId)> {
    let mut dag = Dag::new();
    let mut ordered: HashSet<Digest> = HashSet::new();
    let mut linearized = Vec::new();
    let mut pending: Vec<Certificate> = order.iter().map(|i| certs[*i].clone()).collect();
    while !pending.is_empty() {
        let mut progressed = false;
        let mut rest = Vec::new();
        for cert in pending {
            if dag.missing_parents(&cert).is_empty() {
                dag.insert(cert.clone());
                let mut out = ConsensusOut::default();
                consensus.on_certificate(&dag, &cert, &mut out);
                for anchor in out.anchors {
                    for c in dag.collect_history(&anchor, &ordered).expect("complete") {
                        ordered.insert(c.header_digest());
                        linearized.push((c.round(), c.origin()));
                    }
                }
                progressed = true;
            } else {
                rest.push(cert);
            }
        }
        assert!(progressed, "delivery must make progress");
        pending = rest;
    }
    linearized
}

fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
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

/// The six commit rules: (name, fresh instance per simulated view).
fn protocols() -> Vec<(&'static str, ProtocolFactory)> {
    vec![
        ("Tusk", |c| Box::new(Tusk::new(c.clone(), 7))),
        ("DAG-Rider", |c| Box::new(DagRider::new(c.clone(), 7))),
        ("Bullshark", |c| {
            Box::new(Bullshark::new(c.clone(), RoundRobin::new(c)))
        }),
        ("Bullshark-Rep", |c| {
            Box::new(Bullshark::new(c.clone(), Reputation::new(c)))
        }),
        ("Bullshark-Pipelined", |c| {
            Box::new(PipelinedBullshark::new(c.clone(), Reputation::new(c)))
        }),
        ("FinWhale", |c| {
            Box::new(FinWhale::new(c.clone(), RoundRobin::new(c)))
        }),
    ]
}

#[test]
fn every_protocol_linearizes_consistent_prefixes_from_one_recorded_dag() {
    let (committee, certs) = record_dag(4, 12, 0xB5, false);
    let in_order: Vec<usize> = (0..certs.len()).collect();
    let views = [shuffled(certs.len(), 41), shuffled(certs.len(), 97)];

    for (name, make) in &protocols() {
        let reference = linearize(make(&committee).as_mut(), &certs, &in_order);
        assert!(
            !reference.is_empty(),
            "{name}: something must commit over 12 rounds"
        );
        assert_causal(&reference, &certs);
        for (v, view) in views.iter().enumerate() {
            let other = linearize(make(&committee).as_mut(), &certs, view);
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
    let (committee, certs) = record_dag(4, 12, 0xB5, true);
    let in_order: Vec<usize> = (0..certs.len()).collect();
    let count = |consensus: &mut dyn DagConsensus<Ext = narwhal_tusk::narwhal::NoExt>| {
        let mut dag = Dag::new();
        let mut anchors = 0usize;
        for i in &in_order {
            let cert = certs[*i].clone();
            dag.insert(cert.clone());
            let mut out = ConsensusOut::default();
            consensus.on_certificate(&dag, &cert, &mut out);
            anchors += out.anchors.len();
        }
        anchors
    };
    let mut bull = Bullshark::new(committee.clone(), RoundRobin::new(&committee));
    let mut tusk = Tusk::new(committee.clone(), 7);
    let mut rider = DagRider::new(committee.clone(), 7);
    let mut pipelined = PipelinedBullshark::new(committee.clone(), RoundRobin::new(&committee));
    let mut finwhale = FinWhale::new(committee.clone(), RoundRobin::new(&committee));
    let b = count(&mut bull);
    let t = count(&mut tusk);
    let r = count(&mut rider);
    let p = count(&mut pipelined);
    let f = count(&mut finwhale);
    assert_eq!((b, t, r), (6, 5, 3), "anchor cadence per wave size");
    assert_eq!((p, f), (11, 6), "pipelined anchors every round");
}

/// Feeds `certs` in recorded order and returns the anchors as
/// `(round, author)` with the rule's `(direct, indirect)` counters.
fn anchors_of(
    mut consensus: BoxedConsensus,
    certs: &[Certificate],
) -> (Vec<(Round, u32)>, (u64, u64)) {
    let mut dag = Dag::new();
    let mut anchors = Vec::new();
    for cert in certs {
        dag.insert(cert.clone());
        let mut out = ConsensusOut::default();
        consensus.on_certificate(&dag, cert, &mut out);
        anchors.extend(out.anchors.iter().map(|a| (a.round(), a.origin().0)));
    }
    (anchors, consensus.commit_counts())
}

/// Golden decisions: the literal anchor sequence of every rule on two
/// recorded DAGs, as decided when these values were recorded (the PR 13
/// tree). A refactor of the rules must leave them untouched; only a
/// deliberate protocol change may re-pin them.
#[test]
fn every_rule_decides_the_recorded_anchor_sequences() {
    // Sparse 2f + 1 edges: leaders miss their direct quorum now and then,
    // so the walk settles some of them indirectly.
    let (committee, sparse) = record_dag(4, 12, 0xB5, false);
    // Validators 0 and 1 never produce a block: the first two leaders of
    // every schedule are dead back to back (final skips, and a reputation
    // schedule re-ranks between them).
    let (committee7, dead) = record_dag_without(7, 24, 0xB5, false, &[0, 1]);
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
    for ((name, make), (gold_name, on_sparse, on_dead)) in protocols().into_iter().zip(golden) {
        assert_eq!(name, gold_name);
        assert_eq!(
            anchors_of(make(&committee), &sparse),
            on_sparse,
            "{name}: sparse DAG"
        );
        assert_eq!(
            anchors_of(make(&committee7), &dead),
            on_dead,
            "{name}: dead leaders"
        );
    }
}
