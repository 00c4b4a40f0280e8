//! Regression: the Bullshark p99 latency cliff at 10-node committees
//! (`BENCH_7.json` recorded ~16.5 s p99 against ~1.4 s p50).
//!
//! Two mechanisms, both in when the primary proposes, produced the cliff
//! on the fig-7 WAN topology (five regions, two validators each at
//! n = 10):
//!
//! 1. **Chain-continuity breaks.** A primary proposed round r the moment
//!    payload and a 2f + 1 parent quorum were ready — without its *own*
//!    round r − 1 certificate. For the slowest region's validators, whose
//!    vote round-trips outlast the round cadence, that happened every few
//!    rounds; if no peer referenced the skipped certificate either, every
//!    block below it became unreachable from every future anchor, and its
//!    batches sat until GC re-injection (`gc_depth` = 50 rounds ≈ 13.5 s).
//!
//! 2. **Anchor sweep starvation.** Anchors proposed at the bare quorum
//!    reference only the fastest 2f + 1 certificates, so a slow region's
//!    chain was only swept into a committed history when one of its *own*
//!    validators led a wave — every 10 rounds under round-robin at n = 10,
//!    and potentially never under a reputation schedule.
//!
//! One proposer rule closes both, under every commit rule (rule 2): a block
//! waits, up to the header deadline, for the certificate of every
//! previous-round block its author voted for. Its own block is among them,
//! so the chain holds. The others are every block it helped certify, so an
//! anchor references those and not just the bare quorum, and the sweep
//! reaches the slow region. This test pins both mechanisms.

use nt_bench::metrics::RunStats;
use nt_bench::{build_dag_actors, run_actors_result, BenchParams, System};
use nt_network::SEC;
use std::collections::{BTreeMap, BTreeSet};

fn run(system: System) -> (nt_simnet::SimResult, BenchParams) {
    let params = BenchParams {
        nodes: 10,
        workers: 1,
        rate: 2_000.0,
        duration: 20 * SEC,
        seed: 7,
        ..Default::default()
    };
    let result = run_actors_result(build_dag_actors(system, &params), &params, vec![]);
    (result, params)
}

fn check_no_cliff(system: System) {
    let (result, params) = run(system);

    // Mechanism 1: no orphaned blocks. Every block certified early enough
    // to have been swept must appear in the commit stream — a chain break
    // shows up as an author's round that *never* commits anywhere.
    let mut committed: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
    let mut max_round = 0;
    for (_, node, ev) in &result.commits {
        if *node != 0 {
            continue;
        }
        committed.entry(ev.author.0).or_default().insert(ev.round);
        max_round = max_round.max(ev.round);
    }
    assert!(max_round > 30, "{}: run produced rounds", system.name());
    for (author, rounds) in &committed {
        let missing: Vec<u64> = (1..max_round - 15)
            .filter(|r| !rounds.contains(r))
            .collect();
        assert!(
            missing.is_empty(),
            "{}: author {author} has orphaned (never-committed) blocks at \
             rounds {missing:?} — a broken chain stalls its batches until \
             GC re-injection, the BENCH_7 p99 cliff",
            system.name()
        );
    }

    // Mechanism 2: no sweep starvation. With every anchor's history
    // reaching the slowest region's chain, the tail stays within 2x the
    // median; starved chains that wait ~10 rounds for a same-region
    // anchor push p99 beyond it.
    let stats = RunStats::from_result(&result, params.duration, params.nodes);
    assert!(
        stats.p50_latency_s > 0.0,
        "{}: run produced samples",
        system.name()
    );
    assert!(
        stats.p99_latency_s < 2.0 * stats.p50_latency_s,
        "{}: p99 {:.2}s >= 2x p50 {:.2}s — the 10-node latency cliff is back",
        system.name(),
        stats.p99_latency_s,
        stats.p50_latency_s
    );

    // The parent wish (a voting-round block waits, up to the header
    // deadline, for its wave's anchor): every anchor of this run commits
    // directly. Without the wish an anchor misses its 2f + 1 votes a few
    // times a run (6 / 4 / 7 / 6 indirect commits per validator for the four
    // rules here), and at n = 10 and 20 that costs up to 26% of p99; the
    // p99 < 2 x p50 bound above holds either way.
    assert_eq!(
        stats.indirect_commits,
        0.0,
        "{}: anchors committed indirectly — the parent wish is not kept",
        system.name()
    );
}

#[test]
fn bullshark_ten_node_tail_stays_bounded() {
    check_no_cliff(System::Bullshark);
}

#[test]
fn bullshark_rep_ten_node_tail_stays_bounded() {
    check_no_cliff(System::BullsharkRep);
}

#[test]
fn bullshark_pipelined_ten_node_tail_stays_bounded() {
    check_no_cliff(System::BullsharkPipelined);
}

#[test]
fn finwhale_ten_node_tail_stays_bounded() {
    check_no_cliff(System::FinWhale);
}
