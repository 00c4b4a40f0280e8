//! Integration tests for the three HotStuff systems on the simulator.

use nt_bench::{run_system, BenchParams, System};
use nt_network::SEC;

#[test]
fn narwhal_hs_commits_offered_load() {
    let params = BenchParams {
        nodes: 4,
        workers: 1,
        rate: 5_000.0,
        duration: 15 * SEC,
        seed: 4,
        ..Default::default()
    };
    let stats = run_system(System::NarwhalHs, &params, vec![]);
    assert!(
        (stats.throughput_tps - 5_000.0).abs() / 5_000.0 < 0.15,
        "{:.0} tx/s",
        stats.throughput_tps
    );
    assert!(stats.avg_latency_s < 3.0, "{:.2}s", stats.avg_latency_s);
}

#[test]
fn batched_hs_commits_offered_load() {
    let params = BenchParams {
        nodes: 4,
        rate: 5_000.0,
        duration: 15 * SEC,
        seed: 4,
        ..Default::default()
    };
    let stats = run_system(System::BatchedHs, &params, vec![]);
    assert!(
        (stats.throughput_tps - 5_000.0).abs() / 5_000.0 < 0.15,
        "{:.0} tx/s",
        stats.throughput_tps
    );
}

#[test]
fn baseline_hs_commits_low_load_only() {
    let low = BenchParams {
        nodes: 4,
        rate: 800.0,
        duration: 15 * SEC,
        seed: 4,
        ..Default::default()
    };
    let stats = run_system(System::BaselineHs, &low, vec![]);
    assert!(
        stats.throughput_tps > 600.0,
        "commits at low rate: {:.0}",
        stats.throughput_tps
    );
    assert!(stats.avg_latency_s < 3.0);
}

#[test]
fn fault_hierarchy_matches_the_paper() {
    // Figure 8's qualitative claim: under crash faults, Narwhal systems
    // keep throughput; Batched-HS collapses. Tusk's latency is least hurt.
    let mk = |sys: System, rate: f64| {
        let params = BenchParams {
            nodes: 10,
            workers: 1,
            rate,
            faults: 1,
            duration: 60 * SEC,
            seed: 6,
        };
        run_system(sys, &params, vec![])
    };
    let tusk = mk(System::Tusk, 40_000.0);
    let nhs = mk(System::NarwhalHs, 40_000.0);
    let batched = mk(System::BatchedHs, 40_000.0);

    // Narwhal systems retain most of the surviving capacity (0.9 * rate).
    assert!(
        tusk.throughput_tps > 30_000.0,
        "tusk keeps throughput: {:.0}",
        tusk.throughput_tps
    );
    assert!(
        nhs.throughput_tps > 25_000.0,
        "narwhal-hs keeps throughput: {:.0}",
        nhs.throughput_tps
    );
    // Batched-HS loses most of it.
    assert!(
        batched.throughput_tps < 0.5 * tusk.throughput_tps,
        "batched collapses: {:.0} vs tusk {:.0}",
        batched.throughput_tps,
        tusk.throughput_tps
    );
    // Tusk's latency is least affected.
    assert!(
        tusk.avg_latency_s < nhs.avg_latency_s,
        "tusk latency ({:.2}s) below narwhal-hs ({:.2}s)",
        tusk.avg_latency_s,
        nhs.avg_latency_s
    );
}

#[test]
fn narwhal_hs_deterministic_per_seed() {
    let params = BenchParams {
        nodes: 4,
        workers: 1,
        rate: 2_000.0,
        duration: 10 * SEC,
        seed: 33,
        ..Default::default()
    };
    let a = run_system(System::NarwhalHs, &params, vec![]);
    let b = run_system(System::NarwhalHs, &params, vec![]);
    assert_eq!(a.total_txs, b.total_txs);
    assert_eq!(a.samples, b.samples);
}
