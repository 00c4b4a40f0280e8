//! Bullshark riding out a partition, then healing.
//!
//! Splits a 10-validator committee 5/5 (both sides below quorum) for a
//! third of the run, then heals. Narwhal keeps workers disseminating
//! within each side, so when connectivity returns the DAG reforms, the
//! round-robin leaders start gathering `2f + 1` votes again, and the
//! backlog drains — with every validator on the same committed prefix.
//! Tusk runs alongside as the asynchronous baseline, and the direct vs
//! indirect commit mix shows how each protocol recovered: anchors that
//! straddled the partition come back through the recursive path rule.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example bullshark_recovery
//! ```

use nt_bench::runner::split_partition;
use nt_bench::{agreement, dag_factories, run_factories, BenchParams, RunStats, System};
use nt_network::SEC;

const DURATION_S: u64 = 60;
const SPLIT_FROM_S: u64 = 20;
const SPLIT_UNTIL_S: u64 = 40;

struct Outcome {
    buckets: Vec<u64>,
    stats: RunStats,
    consistent: bool,
}

fn run(system: System) -> Outcome {
    let params = BenchParams {
        nodes: 10,
        workers: 1,
        rate: 30_000.0,
        duration: DURATION_S * SEC,
        seed: 11,
        ..Default::default()
    };
    let split = split_partition(
        params.nodes,
        params.workers,
        SPLIT_FROM_S * SEC,
        SPLIT_UNTIL_S * SEC,
    );
    let factories = dag_factories(system, &params, &params.no_restart_config(), |_, b| b);
    let result = run_factories(factories, &params, vec![split], vec![], vec![]);
    // Committed transactions per 5-second window (creator-counted).
    let mut buckets = vec![0u64; (DURATION_S / 5) as usize + 1];
    for (at, node, ev) in &result.commits {
        if ev.author.0 as usize == *node {
            buckets[(*at / (5 * SEC)) as usize] += ev.tx_count;
        }
    }
    let stats = RunStats::from_result(&result, params.duration, params.nodes);
    Outcome {
        buckets,
        stats,
        consistent: agreement(&result.commits, params.nodes).is_empty(),
    }
}

fn main() {
    println!(
        "One 5/5 partition from {SPLIT_FROM_S}s to {SPLIT_UNTIL_S}s \
         (no quorum on either side), then heal."
    );
    println!("Input: 30k tx/s, 10 validators. Committed tx per 5 s window:");
    println!();
    let bull = run(System::Bullshark);
    let tusk = run(System::Tusk);
    println!(
        "{:>10} {:>12} {:>12}   (P = partitioned window)",
        "window", "Bullshark", "Tusk"
    );
    for (i, (b, t)) in bull.buckets.iter().zip(&tusk.buckets).enumerate() {
        let start = i as u64 * 5;
        let partitioned = (SPLIT_FROM_S..SPLIT_UNTIL_S).contains(&start);
        println!(
            "{:>7}s.. {:>12} {:>12}   {}",
            start,
            b,
            t,
            if partitioned { "P" } else { "" }
        );
    }
    println!();
    for (name, o) in [("Bullshark", &bull), ("Tusk", &tusk)] {
        println!(
            "{name}: {:.0} tx/s, avg {:.2}s, anchors/validator {:.1} direct \
             + {:.1} indirect, prefixes {}",
            o.stats.throughput_tps,
            o.stats.avg_latency_s,
            o.stats.direct_commits,
            o.stats.indirect_commits,
            if o.consistent {
                "CONSISTENT"
            } else {
                "DIVERGED"
            }
        );
        assert!(o.consistent, "{name}: committed prefixes must agree");
    }
    println!();
    println!("Both protocols stall while quorum is lost, then one healed");
    println!("commit drags the whole partition-era backlog into the order.");
}
