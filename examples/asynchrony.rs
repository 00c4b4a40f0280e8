//! Riding through asynchrony: the paper's core robustness claim, live.
//!
//! Runs Tusk and Batched-HS on the WAN simulator while the network suffers
//! alternating partitions that split the committee below quorum ("a network
//! that allows for one commit between periods of asynchrony", Table 1).
//! Narwhal keeps disseminating and certifying batches during partitions, so
//! when connectivity returns, one commit drags the whole backlog into the
//! total order. Batched-HS has no such reliability layer.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example asynchrony
//! ```

use nt_bench::runner::split_partition;
use nt_bench::{dag_factories, run_factories, BenchParams, System};
use nt_network::SEC;
use nt_simnet::Partition;

fn partitions(nodes: usize, workers: u32, duration: u64) -> Vec<Partition> {
    // 10 s calm, then 10 s partitioned (committee split 5/5), repeating.
    let mut out = Vec::new();
    let mut t = 10 * SEC;
    while t < duration * SEC {
        out.push(split_partition(nodes, workers, t, t + 10 * SEC));
        t += 20 * SEC;
    }
    out
}

fn run(system: System, duration: u64) -> Vec<u64> {
    let params = BenchParams {
        nodes: 10,
        workers: 1,
        rate: 30_000.0,
        duration: duration * SEC,
        seed: 7,
        ..Default::default()
    };
    let workers = match system {
        System::Tusk
        | System::NarwhalHs
        | System::DagRider
        | System::Bullshark
        | System::BullsharkRep
        | System::BullsharkPipelined
        | System::FinWhale => 1,
        _ => 0,
    };
    let actors_params = BenchParams {
        workers,
        ..params.clone()
    };
    let split = partitions(params.nodes, workers, duration);
    let commits = match system {
        System::Tusk => {
            let config = actors_params.no_restart_config();
            let factories = dag_factories(System::Tusk, &actors_params, &config, |_, b| b);
            run_factories(factories, &actors_params, split, vec![], vec![]).commits
        }
        System::BatchedHs => {
            let factories =
                nt_hotstuff::build_batched_hs_actors(params.nodes, params.rate_per_validator());
            run_factories(factories, &actors_params, split, vec![], vec![]).commits
        }
        _ => unreachable!("demo compares Tusk and Batched-HS"),
    };
    // Committed transactions per 5-second bucket.
    let mut buckets = vec![0u64; (duration / 5) as usize + 1];
    for (at, node, ev) in &commits {
        if ev.author.0 as usize == *node {
            buckets[(*at / (5 * SEC)) as usize] += ev.tx_count;
        }
    }
    buckets
}

fn main() {
    let duration = 60u64;
    println!("Alternating 10 s partitions (committee split 5/5, no quorum)");
    println!("Input: 30k tx/s, 10 validators. Committed tx per 5 s window:");
    println!();
    let tusk = run(System::Tusk, duration);
    let batched = run(System::BatchedHs, duration);
    println!(
        "{:>10} {:>12} {:>12}   (P = partitioned window)",
        "window", "Tusk", "Batched-HS"
    );
    for (i, (t, b)) in tusk.iter().zip(&batched).enumerate() {
        let start = i as u64 * 5;
        let partitioned = (start % 20) >= 10;
        println!(
            "{:>7}s.. {:>12} {:>12}   {}",
            start,
            t,
            b,
            if partitioned { "P" } else { "" }
        );
    }
    let tusk_total: u64 = tusk.iter().sum();
    let batched_total: u64 = batched.iter().sum();
    println!();
    println!(
        "Totals: Tusk {tusk_total} vs Batched-HS {batched_total} \
         ({}x more under the same conditions)",
        tusk_total / batched_total.max(1)
    );
    println!("Narwhal keeps disseminating during partitions; commits catch up.");
}
