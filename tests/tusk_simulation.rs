//! End-to-end Tusk integration tests on the WAN simulator.

use nt_bench::runner::{crash_schedule, narwhal_topology};
use nt_bench::{build_dag_actors, run_system, BenchParams, System};
use nt_network::{NodeId, Time, SEC};
use nt_simnet::{Partition, SimConfig, Simulation};
use nt_types::{Round, ValidatorId};

/// Runs Tusk and returns per-node committed `(round, author)` sequences.
fn committed_sequences(
    params: &BenchParams,
    partitions: Vec<Partition>,
) -> Vec<Vec<(Round, ValidatorId)>> {
    let actors = build_dag_actors(System::Tusk, params);
    let topology = narwhal_topology(params);
    let mut config = SimConfig::new(params.seed, params.duration);
    config.crashes = crash_schedule(params);
    config.partitions = partitions;
    let result = Simulation::new(topology, config, actors).run();
    let mut seqs = vec![Vec::new(); params.nodes];
    for (_, node, ev) in &result.commits {
        if *node < params.nodes {
            seqs[*node].push((ev.round, ev.author));
        }
    }
    seqs
}

fn assert_prefix_consistent(seqs: &[Vec<(Round, ValidatorId)>], min_len: usize) {
    let live: Vec<&Vec<(Round, ValidatorId)>> = seqs.iter().filter(|s| !s.is_empty()).collect();
    assert!(!live.is_empty(), "someone must commit");
    let shortest = live.iter().map(|s| s.len()).min().expect("non-empty");
    assert!(
        shortest >= min_len,
        "expected at least {min_len} commits, got {shortest}"
    );
    for k in 0..shortest {
        let reference = live[0][k];
        for (i, seq) in live.iter().enumerate() {
            assert_eq!(
                seq[k], reference,
                "commit {k} diverges at live validator {i}"
            );
        }
    }
}

#[test]
fn total_order_is_common_across_validators() {
    let params = BenchParams {
        nodes: 4,
        workers: 1,
        rate: 4_000.0,
        duration: 15 * SEC,
        seed: 11,
        ..Default::default()
    };
    let seqs = committed_sequences(&params, vec![]);
    assert_prefix_consistent(&seqs, 20);
}

#[test]
fn total_order_holds_with_crash_faults() {
    let params = BenchParams {
        nodes: 10,
        workers: 1,
        rate: 10_000.0,
        duration: 20 * SEC,
        faults: 3,
        seed: 5,
        ..Default::default()
    };
    let seqs = committed_sequences(&params, vec![]);
    // Crashed validators commit nothing; the live 7 agree.
    let live = seqs.iter().filter(|s| !s.is_empty()).count();
    assert_eq!(live, 7, "exactly the live validators commit");
    assert_prefix_consistent(&seqs, 20);
}

#[test]
fn throughput_tracks_input_rate() {
    let params = BenchParams {
        nodes: 4,
        workers: 1,
        rate: 5_000.0,
        duration: 20 * SEC,
        seed: 2,
        ..Default::default()
    };
    let stats = run_system(System::Tusk, &params, vec![]);
    assert!(
        (stats.throughput_tps - 5_000.0).abs() / 5_000.0 < 0.15,
        "committed ~the offered load, got {:.0}",
        stats.throughput_tps
    );
    assert!(stats.avg_latency_s < 5.0, "sane latency");
}

#[test]
fn same_seed_same_results() {
    let params = BenchParams {
        nodes: 4,
        rate: 2_000.0,
        duration: 10 * SEC,
        seed: 99,
        ..Default::default()
    };
    let a = committed_sequences(&params, vec![]);
    let b = committed_sequences(&params, vec![]);
    assert_eq!(a, b, "bit-for-bit determinism per seed");
}

#[test]
fn partition_heals_and_commits_catch_up() {
    let duration: Time = 40 * SEC;
    let nodes = 4usize;
    let hosts = |v: usize| -> Vec<NodeId> { vec![v, nodes + v] };
    let partition = Partition {
        group_a: (0..2).flat_map(hosts).collect(),
        group_b: (2..4).flat_map(hosts).collect(),
        from: 10 * SEC,
        until: 20 * SEC,
    };
    let params = BenchParams {
        nodes,
        workers: 1,
        rate: 4_000.0,
        duration,
        seed: 8,
        ..Default::default()
    };
    let actors = build_dag_actors(System::Tusk, &params);
    let topology = narwhal_topology(&params);
    let mut config = SimConfig::new(params.seed, duration);
    config.partitions = vec![partition];
    let result = Simulation::new(topology, config, actors).run();

    // Committed transactions before, during, and after the partition.
    let bucket = |from: Time, to: Time| -> u64 {
        result
            .commits
            .iter()
            .filter(|(at, node, ev)| *at >= from && *at < to && ev.author.0 as usize == *node)
            .map(|(_, _, ev)| ev.tx_count)
            .sum()
    };
    let before = bucket(2 * SEC, 10 * SEC);
    let during = bucket(12 * SEC, 20 * SEC);
    let after = bucket(20 * SEC, 38 * SEC);
    assert!(before > 10_000, "healthy before: {before}");
    assert_eq!(during, 0, "no quorum during a 2-2 split: {during}");
    // Catch-up: the post-heal window commits its own load plus the backlog.
    assert!(
        after > before,
        "backlog catches up after healing: after={after} before={before}"
    );
    let total = bucket(0, duration);
    assert!(
        total as f64 > 0.85 * 4_000.0 * 38.0,
        "almost nothing is lost overall: {total}"
    );
}

#[test]
fn dag_rider_also_reaches_agreement() {
    let params = BenchParams {
        nodes: 4,
        workers: 1,
        rate: 3_000.0,
        duration: 15 * SEC,
        seed: 21,
        ..Default::default()
    };
    let stats = run_system(System::DagRider, &params, vec![]);
    assert!(
        stats.throughput_tps > 2_500.0,
        "DAG-Rider commits the load: {:.0}",
        stats.throughput_tps
    );
    // 4-round waves commit later than Tusk's 3-round waves.
    let tusk = run_system(System::Tusk, &params, vec![]);
    assert!(
        stats.avg_latency_s > tusk.avg_latency_s,
        "DAG-Rider latency ({:.2}s) exceeds Tusk's ({:.2}s)",
        stats.avg_latency_s,
        tusk.avg_latency_s
    );
}
