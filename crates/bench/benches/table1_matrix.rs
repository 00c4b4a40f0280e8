//! Table 1: the latency/robustness comparison matrix.
//!
//! The paper's analytic table compares HotStuff, Narwhal-HS and Tusk on:
//! average-case latency (3 / 4 / 4.5 "RTTs or certificates"), worst-case
//! latency under f crashes (O(n) / O(n) / 4.5), and throughput under an
//! unstable network (Narwhal systems keep it, plain HS does not) and full
//! asynchrony (only Tusk). This bench measures each cell empirically.
//!
//! The "unstable network" scenario alternates 5 s partitions that split
//! the committee below quorum with 5 s of calm — "a network that allows
//! for one commit between periods of asynchrony".

use nt_bench::{run_system, BenchParams, RunStats, System};
use nt_network::{NodeId, Time, SEC};
use nt_simnet::Partition;

fn base_params(rate: f64, duration: Time, faults: usize) -> BenchParams {
    BenchParams {
        nodes: 10,
        workers: 1,
        rate,
        faults,
        duration,
        seed: 1,
    }
}

/// Repeating partitions: the first five validators (plus their workers)
/// split from the rest for `period`, then the network is calm for
/// `2 * period` — long enough for "one commit between periods of
/// asynchrony" even for a pacemaker-driven protocol (Table 1's premise).
fn unstable_partitions(nodes: usize, workers: u32, duration: Time, period: Time) -> Vec<Partition> {
    let half_a: Vec<NodeId> = (0..nodes / 2)
        .flat_map(|v| {
            let mut ids = vec![v];
            for w in 0..workers {
                ids.push(nodes + v * workers as usize + w as usize);
            }
            ids
        })
        .collect();
    let half_b: Vec<NodeId> = (nodes / 2..nodes)
        .flat_map(|v| {
            let mut ids = vec![v];
            for w in 0..workers {
                ids.push(nodes + v * workers as usize + w as usize);
            }
            ids
        })
        .collect();
    let mut partitions = Vec::new();
    let mut t = 2 * period; // Start calm.
    while t < duration {
        partitions.push(Partition {
            group_a: half_a.clone(),
            group_b: half_b.clone(),
            from: t,
            until: t + period,
        });
        t += 3 * period;
    }
    partitions
}

fn cell(system: System, rate: f64, faults: usize, unstable: bool) -> RunStats {
    let duration = if faults > 0 || unstable {
        90 * SEC
    } else {
        30 * SEC
    };
    // The unstable scenario cuts connectivity duty to 2/3: offer a rate
    // the partially-available network can sustain (the claim under test is
    // that Narwhal-based systems commit *everything* across partitions,
    // not that they exceed physical capacity).
    let rate = if unstable { rate / 2.0 } else { rate };
    let params = base_params(rate, duration, faults);
    let workers = if matches!(system, System::Tusk | System::NarwhalHs | System::DagRider) {
        params.workers
    } else {
        0
    };
    let partitions = if unstable {
        unstable_partitions(params.nodes, workers, duration, 5 * SEC)
    } else {
        vec![]
    };
    run_system(system, &params, partitions)
}

fn main() {
    println!("Table 1: measured latency/robustness matrix (10 validators)");
    println!();
    println!(
        "{:<22} {:>14} {:>14} {:>14}",
        "scenario", "Baseline-HS", "Narwhal-HS", "Tusk"
    );
    let rates = [1_500.0, 60_000.0, 60_000.0];
    let systems = [System::BaselineHs, System::NarwhalHs, System::Tusk];

    // Row 1: average-case latency (paper: 3 / 4 / 4.5 message delays).
    let avg: Vec<RunStats> = systems
        .iter()
        .zip(rates)
        .map(|(s, r)| cell(*s, r, 0, false))
        .collect();
    println!(
        "{:<22} {:>13.2}s {:>13.2}s {:>13.2}s",
        "avg-case latency", avg[0].avg_latency_s, avg[1].avg_latency_s, avg[2].avg_latency_s
    );
    println!(
        "{:<22} {:>14} {:>14} {:>13.1}r",
        "  commit depth (rounds)", "-", "-", avg[2].commit_rounds
    );

    // Row 2: worst-case latency under f crashes (paper: O(n) / O(n) / 4.5).
    let crash: Vec<RunStats> = systems
        .iter()
        .zip(rates)
        .map(|(s, r)| cell(*s, r, 3, false))
        .collect();
    println!(
        "{:<22} {:>13.2}s {:>13.2}s {:>13.2}s",
        "f=3 crash latency", crash[0].avg_latency_s, crash[1].avg_latency_s, crash[2].avg_latency_s
    );

    // Row 3: throughput under an unstable network, as a fraction of the
    // no-fault throughput (paper: x / ok / ok).
    let unstable: Vec<RunStats> = systems
        .iter()
        .zip(rates)
        .map(|(s, r)| cell(*s, r, 0, true))
        .collect();
    println!(
        "{:<22} {:>13.0}% {:>13.0}% {:>13.0}%",
        "unstable tput (vs offered)",
        100.0 * unstable[0].throughput_tps / (rates[0] / 2.0),
        100.0 * unstable[1].throughput_tps / (rates[1] / 2.0),
        100.0 * unstable[2].throughput_tps / (rates[2] / 2.0),
    );
    println!(
        "{:<22} {:>13.2}s {:>13.2}s {:>13.2}s",
        "unstable latency",
        unstable[0].avg_latency_s,
        unstable[1].avg_latency_s,
        unstable[2].avg_latency_s
    );
    println!();
    println!("Paper's analytic Table 1 for reference:");
    println!("  avg-case: HS 3, Narwhal-HS 4, Tusk 4.5 (message delays)");
    println!("  f crashes worst-case: HS O(n), Narwhal-HS O(n), Tusk 4.5");
    println!("  unstable-network throughput: HS no, Narwhal-HS yes, Tusk yes");
}
