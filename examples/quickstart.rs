//! Quickstart: a live 4-validator Narwhal+Tusk committee on your machine.
//!
//! Spawns four validators (primary + one worker each) on real threads with
//! real Ed25519 signatures, submits client transactions, and watches the
//! total order come out the other side.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use narwhal::{committee_actors, NarwhalConfig, NarwhalMsg};
use narwhal_tusk::network::{LocalRuntime, MS};
use narwhal_tusk::tusk::Tusk;
use nt_crypto::Scheme;
use nt_types::{Committee, Transaction};
use std::time::Duration;

fn main() {
    let n = 4;
    let workers = 1;
    println!("Spawning {n} validators (Ed25519 signatures, 1 worker each)...");
    let (committee, keypairs) = Committee::deterministic(n, workers, Scheme::Ed25519);
    // Small batches so the demo commits quickly at low rates.
    let config = NarwhalConfig {
        batch_bytes: 2_048,
        max_batch_delay: 50 * MS,
        max_header_delay: 100 * MS,
        ..NarwhalConfig::default()
    };
    let tusk = |c: &Committee| Tusk::new(c.clone(), 42);
    let actors = committee_actors(&committee, &keypairs, &config, workers, tusk);
    let handle = LocalRuntime::spawn(actors);

    // Submit 200 transactions, spread over the four validators' workers
    // (worker node ids follow the primaries: 4, 5, 6, 7).
    println!("Submitting 200 transactions of 256 B...");
    for i in 0..200u64 {
        let worker_node = n + (i as usize % n);
        handle.client_send(
            worker_node,
            NarwhalMsg::ClientTx(Transaction::filler(i, 7, 256)),
        );
    }

    // Watch commits until all 200 transactions are in the total order.
    // Each commit event reports the transactions of its author's batches,
    // so summing events where `node == author` counts each exactly once.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut committed_txs = 0u64;
    let mut committed_blocks = 0u64;
    let mut highest_round = 0u64;
    while committed_txs < 200 && std::time::Instant::now() < deadline {
        let Some((node, event)) = handle.next_commit(Duration::from_secs(2)) else {
            break;
        };
        if node == event.author.0 as usize {
            committed_txs += event.tx_count;
            if event.tx_count > 0 {
                println!(
                    "  commit #{:<3} round {:<3} by {}: {} txs  (total {committed_txs}/200)",
                    event.sequence, event.round, event.author, event.tx_count
                );
            }
        }
        if node == 0 {
            committed_blocks += 1;
            highest_round = highest_round.max(event.round);
        }
    }
    println!();
    println!(
        "Validator 0 committed {committed_blocks} blocks up to round {highest_round}; \
         {committed_txs}/200 client transactions are in the total order."
    );
    assert!(
        committed_txs >= 200,
        "the committee should commit everything"
    );
    handle.shutdown();
    println!("Done.");
}
