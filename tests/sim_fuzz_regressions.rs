//! Shrunk reproducers from `sim_fuzz` runs, pinned as regression tests.
//!
//! Each test is (close to) verbatim output of the fuzzer's shrinker — see
//! README "Fuzzing the simulator" for the workflow: a violating seed is
//! printed by CI, `--seed N` replays it, the shrinker minimizes the
//! schedule, and the emitted snippet lands here so the bug can never
//! return unnoticed.

use narwhal_tusk::bench::fuzz::{fuzz_config, fuzz_params, run_schedule, run_schedule_with};
use narwhal_tusk::bench::System;
use narwhal_tusk::narwhal::NarwhalConfig;
use narwhal_tusk::network::MS;
use narwhal_tusk::simnet::{FaultEvent, Schedule};

/// Shrunk reproducer from `sim_fuzz` seed 19.
///
/// Two short outages with torn tails wedged Bullshark-Rep permanently:
/// validator 1's tear cut a garbage-collection batch between its
/// certificate deletions and the `gc_round` marker (then written last), so
/// recovery derived a boundary round it could never re-assemble a quorum
/// for — peers had pruned those rounds — and with validator 0's in-flight
/// round-50 header lost to its own crash, the 4-validator committee froze
/// at round 50 for the rest of the run (all four tail-liveness checkers
/// fired). Fixed by writing the GC marker *before* the deletions (intent
/// log) and recovering the round from the highest quorum frontier.
#[test]
fn fuzz_regression_seed_19() {
    let schedule = Schedule {
        events: vec![
            FaultEvent::Outage {
                unit: 1,
                at: 9418 * MS,
                until: 9532 * MS,
                tear: 12,
            },
            FaultEvent::Outage {
                unit: 0,
                at: 10420 * MS,
                until: 10530 * MS,
                tear: 0,
            },
        ],
    };
    let outcome = run_schedule(System::BullsharkRep, &fuzz_params(19), &schedule);
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
}

/// Shrunk reproducer from `sim_fuzz` seed 378.
///
/// Two validators each crashed inside the propose-to-certify window of
/// the *same* round (one of them behind a partition that delayed its
/// votes): both restarted knowing they had signed a round-45 block
/// (vote lock) but without the block itself, so neither could complete
/// nor replace it, the round sat at 2 of 3 quorum certificates forever,
/// and the whole committee froze. Fixed by persisting the in-flight
/// proposal (`BlockStore::put_own_header`, synced before the broadcast
/// leaves) and re-arming it on recovery so §4.1 retransmission finishes
/// the round.
#[test]
fn fuzz_regression_seed_378_lost_inflight_proposals() {
    let schedule = Schedule {
        events: vec![
            FaultEvent::Outage {
                unit: 3,
                at: 10269 * MS,
                until: 10381 * MS,
                tear: 0,
            },
            FaultEvent::Split {
                side: vec![0, 1, 3],
                from: 8729 * MS,
                until: 9180 * MS,
            },
            FaultEvent::Outage {
                unit: 1,
                at: 8988 * MS,
                until: 9146 * MS,
                tear: 0,
            },
            FaultEvent::Outage {
                unit: 2,
                at: 4542 * MS,
                until: 4810 * MS,
                tear: 0,
            },
        ],
    };
    let outcome = run_schedule(System::Tusk, &fuzz_params(378), &schedule);
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
}

/// Shrunk reproducer from `sim_fuzz` seed 300.
///
/// A torn tail cut between an anchor's ordered markers and the consensus
/// checkpoint written *after* them — but the checkpoint op the cut
/// exposed had been written when the settled wave was already further
/// ahead (several waves decide in one pass), so recovery restored "wave
/// settled" with that wave's blocks unmarked, folded them into a later
/// anchor's history, and forked the validator's commit order. Fixed by
/// checkpointing only once the linearization queue is fully drained.
#[test]
fn fuzz_regression_seed_300_checkpoint_ahead_of_markers() {
    let schedule = Schedule {
        events: vec![
            FaultEvent::Spike {
                a: 1,
                b: 2,
                from: 5119 * MS,
                until: 5294 * MS,
                extra: 333 * MS,
            },
            FaultEvent::Outage {
                unit: 3,
                at: 2021 * MS,
                until: 4891 * MS,
                tear: 0,
            },
            FaultEvent::Outage {
                unit: 1,
                at: 9807 * MS,
                until: 10001 * MS,
                tear: 10,
            },
            FaultEvent::Split {
                side: vec![1],
                from: 5273 * MS,
                until: 6569 * MS,
            },
        ],
    };
    let outcome = run_schedule(System::Tusk, &fuzz_params(300), &schedule);
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
}

/// Fuzz class first hit as seed 721 (before snapshot state transfer
/// existed): a validator down for longer than `gc_depth` rounds of
/// simulated time comes back to find its missing history pruned by every
/// peer — per-certificate pull sync has nothing left to pull, the victim
/// stalls at its pre-crash round forever, and catch-up plus tail-liveness
/// fire. Fixed by snapshot state transfer: the victim detects certificates
/// arriving from past the GC horizon, fetches a 2f+1-signed snapshot of
/// the committed frontier, installs it, and rejoins at the live round.
/// The second half pins the pre-fix behaviour with snapshots off
/// (`snapshot_interval: 0`), proving the snapshot path is what closes the
/// gap.
#[test]
fn fuzz_regression_seed_721_outage_past_gc_horizon() {
    let schedule = Schedule {
        events: vec![FaultEvent::Outage {
            unit: 2,
            at: 1500 * MS,
            until: 13_500 * MS,
            tear: 0,
        }],
    };
    let params = fuzz_params(721);
    let clean = run_schedule(System::Tusk, &params, &schedule);
    assert!(clean.violations.is_empty(), "{:#?}", clean.violations);
    assert!(
        !clean.snapshot_installs[2].is_empty(),
        "the victim's recovery must have gone through a snapshot install"
    );

    let no_snapshots = NarwhalConfig {
        snapshot_interval: 0,
        ..fuzz_config(&params)
    };
    let broken = run_schedule_with(System::Tusk, &params, &no_snapshots, &schedule, &[]);
    assert!(
        broken.violations.iter().any(|v| matches!(
            v.checker,
            narwhal_tusk::bench::Checker::CatchUp | narwhal_tusk::bench::Checker::TailLiveness
        )),
        "without snapshots the laggard must stall past the GC horizon: {:#?}",
        broken.violations
    );
}

/// Shrunk reproducer from `sim_fuzz` seed 219 (found before the
/// certificate sync barrier existed).
///
/// A delay spike stretches round timing; a 122 ms outage with a small torn
/// tail erases the victim's freshest own certificate from its store while
/// the certificate's broadcast had already left. The restarted validator
/// re-proposed the erased block's batches and the committee committed them
/// twice (batch-exactly-once fired at every validator). Fixed by taking a
/// durability barrier right after persisting an own certificate — writes
/// behind a barrier cannot tear — so recovery always knows every payload
/// it externalized. The barrier is load-bearing, not coincidental: the
/// `sync_barriers` entry of `crates/bench/mutants.txt` deletes it and
/// requires this test to fail with the double commit back.
#[test]
fn fuzz_regression_seed_219_torn_certificate() {
    let schedule = Schedule {
        events: vec![
            FaultEvent::Spike {
                a: 1,
                b: 3,
                from: 7126 * MS,
                until: 10299 * MS,
                extra: 657 * MS,
            },
            FaultEvent::Outage {
                unit: 2,
                at: 10100 * MS,
                until: 10222 * MS,
                tear: 20,
            },
        ],
    };
    // The simulation seed pins the victim's write pattern so the tear
    // lands on the own-certificate write (snapshot persistence shifted the
    // store tail when it landed, seed 219 realigned the cut; the hot-path
    // overhaul's coverage-wish proposal timing shifted it again, seed 208
    // with a 20-record tear realigned it; commit-paced rounds moved the
    // victim's writes once more, seed 385 with the same tear realigned it;
    // the batch clock under synthetic load moved them again, seed 1 did;
    // deleting the coverage wish moved them back out, seed 118 does).
    let params = fuzz_params(118);
    let clean = run_schedule(System::BullsharkRep, &params, &schedule);
    assert!(clean.violations.is_empty(), "{:#?}", clean.violations);
}

/// Byzantine corpus reproducer, seed 14 (16 validators, Bullshark): an
/// equivocating validator plus an honest validator's mid-run crash with a
/// torn tail. The restarted validator came back ~26 rounds behind and
/// per-certificate sync walked the gap one suspended parent — one network
/// round-trip — per DAG round, while the equivocator's twin-header
/// retransmissions piled more pending lookups on top; recovery crawled
/// past the fault-free tail and tail-liveness fired (with the full
/// five-adversary coalition of the corpus case, the validator never
/// recovered at all and catch-up fired too). Fixed by the batched §4.1
/// round-range pull (`NarwhalMsg::CertRangeRequest`): a verified
/// certificate several rounds above the local round triggers one request
/// for the whole missing range, closing the gap in a round-trip or two.
/// Verified failing-before/passing-after against the range-pull change.
#[test]
fn fuzz_regression_byz_seed_14_recovery_crawl() {
    use narwhal_tusk::bench::fuzz::{corpus_params, run_schedule_byz};
    use narwhal_tusk::bench::AdversaryKind;
    use narwhal_tusk::types::ValidatorId;

    let schedule = Schedule {
        events: vec![
            FaultEvent::Spike {
                a: 4,
                b: 14,
                from: 4860 * MS,
                until: 10057 * MS,
                extra: 328 * MS,
            },
            FaultEvent::Outage {
                unit: 8,
                at: 3109 * MS,
                until: 13467 * MS,
                tear: 11,
            },
            FaultEvent::Spike {
                a: 13,
                b: 14,
                from: 1484 * MS,
                until: 1767 * MS,
                extra: 758 * MS,
            },
        ],
    };
    let outcome = run_schedule_byz(
        System::Bullshark,
        &corpus_params(14),
        &schedule,
        &[(ValidatorId(13), AdversaryKind::Equivocate)],
    );
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
    assert!(
        outcome.snapshot_installs[8].is_empty(),
        "the range pull must beat the snapshot path to the recovery: {:?}",
        outcome.snapshot_installs[8]
    );
}

/// Byzantine reproducer: certified equivocation twins in honest DAGs.
///
/// An equivocator colluding with a vote-amnesiac accomplice (an over-`f`
/// coalition on four validators) certifies *both* twins of its round-1
/// block. The DAG used to key slots by `(round, author)` and drop the
/// second twin as a duplicate — leaving its digest permanently
/// unresolvable, so every honest block referencing that twin as a parent
/// suspended forever and the committee wedged. With the twin-slot cap
/// (two distinct-digest certificates per slot, digest-tiebroken in
/// `collect_history`) the honest validators stay live and in agreement;
/// the double-committed payload itself is still reported, which is the
/// batch-exactly-once hit asserted below — the attack's footprint, seen
/// identically by every honest validator. Verified failing-before/
/// passing-after against the twin-slot DAG change.
#[test]
fn fuzz_regression_certified_twins_do_not_wedge_honest_validators() {
    use narwhal_tusk::bench::fuzz::run_schedule_byz;
    use narwhal_tusk::bench::AdversaryKind;
    use narwhal_tusk::bench::Checker;
    use narwhal_tusk::types::ValidatorId;

    let outcome = run_schedule_byz(
        System::Tusk,
        &fuzz_params(11),
        &Schedule::default(),
        &[
            (ValidatorId(0), AdversaryKind::Equivocate),
            (ValidatorId(1), AdversaryKind::VoteAmnesia),
        ],
    );
    assert!(
        !outcome.violations.is_empty(),
        "an over-f coalition must leave a detectable double commit"
    );
    assert!(
        outcome
            .violations
            .iter()
            .all(|v| v.checker == Checker::BatchExactlyOnce),
        "honest validators must neither wedge nor diverge: {:#?}",
        outcome.violations
    );
}
