//! The paper's quantitative claims that no other test holds, one test each.
//!
//! - Appendix A's Lemmas 3-5, over DAGs built by hand
//!   (`narwhal::testing::DagBench`) in which every block references a
//!   random `2f + 1` of the previous round's blocks: the paper's model of
//!   random message delays. `n = 10`, so `f = 3`.
//! - Figure 7's worker scale-out, on the simulator: the 1- and 4-worker
//!   rows of the `fig7_scale_out` bench. Timing means nothing in a debug
//!   build, so that test is ignored there:
//!   `cargo test --release -p nt_bench --test paper_claims`.

use narwhal::testing::{DagBench, Lcg};
use narwhal::{CommitRule, DagConsensus, NoConsensus};
use nt_bench::{run_system, BenchParams, System};
use nt_crypto::Digest;
use nt_network::SEC;
use nt_types::{Certificate, Round};
use std::collections::HashSet;
use tusk::{Tusk, TuskRule};

const N: usize = 10;
/// Waves sampled for Lemma 3.
const WAVES: usize = 200;
/// Rounds of each sampled Tusk run.
const ROUNDS: Round = 60;

/// `k` distinct elements of `from`, drawn at random.
fn pick<T: Clone>(rng: &mut Lcg, from: &[T], k: usize) -> Vec<T> {
    let mut pool = from.to_vec();
    (0..k)
        .map(|_| pool.swap_remove(rng.below(pool.len())))
        .collect()
}

/// Round `round` with a block from each of `authors`, each over a random
/// `2f + 1` of the previous round's blocks.
fn random_round<C: DagConsensus>(
    d: &DagBench<C>,
    rng: &mut Lcg,
    round: Round,
    authors: &[u32],
) -> Vec<Certificate> {
    let prev = d.parents(round - 1);
    let quorum = d.committee.quorum_threshold();
    let mut parents = vec![Vec::new(); N];
    for &a in authors {
        parents[a as usize] = pick(rng, &prev, quorum);
    }
    d.make_round(round, authors, |a| parents[a as usize].clone())
}

/// One anchor Tusk committed.
struct Commit {
    anchor: Round,
    /// The round whose blocks' arrival committed it.
    decided: Round,
    /// The rounds of the blocks it ordered, itself included.
    blocks: Vec<Round>,
}

/// Tusk over [`ROUNDS`] rounds in which only `authors` propose, each over
/// a random `2f + 1` of the previous round; `seed` draws the parents and
/// seeds the coin.
fn run_tusk(seed: u64, authors: &[u32]) -> Vec<Commit> {
    // `Lcg` drops its seed's low bit: shift it so every seed draws anew.
    let mut rng = Lcg::new(seed << 1);
    let mut d = DagBench::new(N, |c| Tusk::new(c.clone(), seed));
    let mut ordered: HashSet<Digest> = HashSet::new();
    let mut commits = Vec::new();
    for round in 1..=ROUNDS {
        let before = d.anchors.len();
        d.feed(random_round(&d, &mut rng, round, authors));
        for anchor in &d.anchors[before..] {
            let history = d.dag.collect_history(anchor, &ordered);
            let history = history.expect("every parent was fed first");
            ordered.extend(history.iter().map(Certificate::header_digest));
            commits.push(Commit {
                anchor: anchor.round(),
                decided: round,
                blocks: history.iter().map(Certificate::round).collect(),
            });
        }
    }
    commits
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let (sum, count) = values.fold((0, 0), |(s, c), v| (s + v, c + 1));
    assert!(count > 0, "nothing to average: Tusk committed nothing");
    sum as f64 / count as f64
}

/// Lemma 3: whichever `2f + 1` of a wave's second-round blocks a
/// validator holds, at least `f + 1` first-round blocks satisfy Tusk's
/// commit rule, so the coin elects a committable leader with probability
/// at least `(f + 1) / n`.
#[test]
fn lemma_3_every_wave_has_f_plus_1_committable_leaders() {
    let mut rng = Lcg::new(3);
    let everyone: Vec<u32> = (0..N as u32).collect();
    let (mut fewest, mut total) = (usize::MAX, 0);
    for _ in 0..WAVES {
        let mut d = DagBench::new(N, |_| NoConsensus);
        d.full_round(1);
        let voters = pick(&mut rng, &everyone, d.committee.quorum_threshold());
        d.feed(random_round(&d, &mut rng, 2, &voters));
        let view = d.dag.view();
        let committable = view
            .round_ids(1)
            .filter(|&id| TuskRule.commits_directly(&d.committee, view, id))
            .count();
        let f1 = d.committee.validity_threshold();
        assert!(
            committable >= f1,
            "a wave had {committable} committable leaders, < f + 1"
        );
        fewest = fewest.min(committable);
        total += committable;
    }
    let mean = total as f64 / WAVES as f64;
    println!("Lemma 3: committable leaders per wave: mean {mean:.1}, fewest {fewest} (bound 4)");
}

/// Lemma 5: with random message delays a block commits 4.5 rounds after
/// its own round in expectation: rounds from each ordered block to the
/// round that committed it, over ten runs in which everyone proposes.
#[test]
fn lemma_5_a_block_commits_within_4_5_rounds_in_expectation() {
    let everyone: Vec<u32> = (0..N as u32).collect();
    let commits: Vec<Commit> = (0..10).flat_map(|seed| run_tusk(seed, &everyone)).collect();
    let depths = commits
        .iter()
        .flat_map(|c| c.blocks.iter().map(|b| c.decided - b));
    let depth = mean(depths);
    println!("Lemma 5: mean rounds from block to commit: {depth:.2} (bound 4.5)");
    assert!(
        depth <= 4.5,
        "blocks commit {depth:.2} rounds after their own round"
    );
}

/// Lemma 4: with `f` validators silent (every round holds exactly `2f + 1`
/// blocks, so the coin elects an absent leader in `f / n` of the waves), a
/// leader commits at most every 7 rounds in expectation: rounds from one
/// committed leader's block to the commit of the next, over ten runs.
#[test]
fn lemma_4_a_leader_commits_every_7_rounds_with_f_silent() {
    let live: Vec<u32> = (0..7).collect();
    let mut gaps = Vec::new();
    for seed in 0..10 {
        let commits = run_tusk(seed, &live);
        gaps.extend(commits.windows(2).map(|w| w[1].decided - w[0].anchor));
    }
    let gap = mean(gaps.into_iter());
    println!("Lemma 4: mean rounds per committed leader, f silent: {gap:.2} (bound 7)");
    assert!(gap <= 7.0, "a leader commits every {gap:.2} rounds");
}

/// Figure 7: throughput grows linearly with workers. Per system, each of
/// the `fig7_scale_out` bench's 1- and 4-worker rows (4 validators, 12 s,
/// seed 1, offered load a multiple of a per-worker base rate) commits at
/// least 90% of what it was offered, and the best 4-worker throughput
/// within a 3 s mean latency is at least 0.8 x 4 x the best 1-worker one.
/// (The bench's 7- and 10-worker rows scale less; they are not held.)
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig7_four_workers_carry_four_times_one_worker() {
    for system in [System::Tusk, System::NarwhalHs] {
        let best_within_3s = |workers: u32| {
            let mut best = 0.0f64;
            for base in [40_000.0, 80_000.0, 120_000.0, 150_000.0] {
                let params = BenchParams {
                    nodes: 4,
                    workers,
                    rate: base * workers as f64,
                    duration: 12 * SEC,
                    seed: 1,
                    ..Default::default()
                };
                let stats = run_system(system, &params, vec![]);
                let (tps, latency) = (stats.throughput_tps, stats.avg_latency_s);
                println!(
                    "{} {workers}w @{:.0}k: {tps:.0} tx/s, {latency:.2} s",
                    system.name(),
                    params.rate / 1000.0
                );
                assert!(
                    tps >= 0.9 * params.rate,
                    "{} {workers}w committed {tps:.0} of {:.0} tx/s offered",
                    system.name(),
                    params.rate
                );
                if latency <= 3.0 {
                    best = best.max(tps);
                }
            }
            best
        };
        let (one, four) = (best_within_3s(1), best_within_3s(4));
        let ratio = four / (4.0 * one);
        println!("{}: 4 workers carry {ratio:.2} of 4 x one", system.name());
        assert!(
            ratio >= 0.8,
            "{}: 4 workers carry {ratio:.2} of 4 x one",
            system.name()
        );
    }
}
