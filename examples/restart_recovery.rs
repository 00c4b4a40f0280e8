//! A validator crashes, restarts, and recovers from its write-ahead log.
//!
//! Every validator in this demo persists through a real on-disk
//! [`WalStore`] (the paper's RocksDB role, §6): workers write batches
//! before acknowledging them, primaries write certificates on DAG insert,
//! vote locks before votes leave, and the consensus checkpoint after every
//! settled anchor. Mid-run, validator 3's primary and worker are crashed;
//! later they restart as *fresh* actors over the same log, recover the
//! persisted DAG, and pull the missed rounds from their peers (§4.1).
//!
//! After the simulation the demo reopens each log from disk with a fresh
//! handle — the same replay a real process restart performs, torn-tail
//! handling included — and shows the recovered frontiers.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example restart_recovery
//! ```

use narwhal::BlockStore;
use nt_bench::runner::{dag_factories, run_factories, validator_hosts};
use nt_bench::{agreement, BenchParams, RunStats, System};
use nt_crypto::Scheme;
use nt_network::{NodeId, Time, SEC};
use nt_storage::{DynStore, WalStore};
use nt_types::{Committee, ValidatorId};
use std::sync::Arc;

const NODES: usize = 4;
const DURATION_S: u64 = 25;
const CRASH_S: u64 = 8;
const RESTART_S: u64 = 12;

fn wal_path(v: usize) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "nt-restart-recovery-{}-{v}.log",
        std::process::id()
    ));
    p
}

fn main() {
    let params = BenchParams {
        nodes: NODES,
        workers: 1,
        rate: 2_000.0,
        duration: DURATION_S * SEC,
        seed: 7,
        ..Default::default()
    };
    println!(
        "Narwhal + Bullshark over on-disk WALs: crash validator {} at \
         {CRASH_S}s, restart at {RESTART_S}s, {DURATION_S}s total.",
        NODES - 1
    );
    println!();

    // One write-ahead log per validator, shared by its primary and worker
    // (the paper's per-validator store).
    let paths: Vec<_> = (0..NODES).map(wal_path).collect();
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
    let stores: Vec<DynStore> = paths
        .iter()
        .map(|p| Arc::new(WalStore::open(p).expect("open wal")) as DynStore)
        .collect();

    let victim = ValidatorId(NODES as u32 - 1);
    let hosts = validator_hosts(NODES, params.workers, victim);
    let crashes: Vec<(NodeId, Time)> = hosts.iter().map(|h| (*h, CRASH_S * SEC)).collect();
    let restarts: Vec<(NodeId, Time)> = hosts.iter().map(|h| (*h, RESTART_S * SEC)).collect();
    let node_stores = stores.clone();
    let node = move |v: u32, b: narwhal::NodeBuilder| b.store(node_stores[v as usize].clone());
    let factories = dag_factories(System::Bullshark, &params, &params.narwhal_config(), node);
    let result = run_factories(factories, &params, vec![], crashes, restarts);

    let stats = RunStats::from_result(&result, params.duration, params.nodes);
    println!(
        "committed {} tx at {:.0} tx/s, avg latency {:.2}s",
        stats.total_txs, stats.throughput_tps, stats.avg_latency_s
    );
    let disagreements = agreement(&result.commits, params.nodes);
    assert!(
        disagreements.is_empty(),
        "committed prefixes must agree across the outage: {disagreements:?}"
    );
    println!("committed prefixes across all validators: CONSISTENT");
    println!();

    // Reopen every log from disk — a fresh replay, exactly what a real
    // process restart would do — and rebuild the DAGs.
    drop(stores);
    let (committee, _) = Committee::deterministic(NODES, params.workers, Scheme::Insecure);
    println!(
        "{:>10} {:>12} {:>16}",
        "validator", "log bytes", "DAG frontier"
    );
    let mut frontiers = Vec::new();
    for (v, path) in paths.iter().enumerate() {
        let wal = Arc::new(WalStore::open(path).expect("reopen wal"));
        let bytes = wal.log_bytes();
        let dag = BlockStore::new(wal).load_dag(&committee).expect("load dag");
        println!("{v:>10} {bytes:>12} {:>15}r", dag.highest_round());
        frontiers.push(dag.highest_round());
    }
    let victim_frontier = frontiers[NODES - 1];
    let live_frontier = *frontiers[..NODES - 1].iter().max().unwrap();
    let gc_depth = params.narwhal_config().gc_depth;
    assert!(
        victim_frontier + gc_depth >= live_frontier,
        "restarted validator caught up (r{victim_frontier} vs r{live_frontier})"
    );
    println!();
    println!(
        "validator {} rebooted from its WAL mid-run and caught back up to \
         r{victim_frontier} (live frontier r{live_frontier}, gc depth {gc_depth}).",
        NODES - 1
    );
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}
