//! Quickstart: a live 4-validator Narwhal+Tusk committee on your machine.
//!
//! Spawns four validators (primary + one worker each) as eight hosts on
//! loopback TCP — the same transport, codec and drive loop a deployed
//! `narwhal-node` runs — with real Ed25519 signatures, submits client
//! transactions over real sockets, and watches the total order come out
//! the other side.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use narwhal::{NarwhalConfig, NarwhalMsg, NoExt};
use narwhal_tusk::codec::encode_to_vec;
use narwhal_tusk::network::MS;
use narwhal_tusk::runtime::{AppKind, CommitteeConfig, LoopbackCommittee, SystemKind};
use nt_crypto::Scheme;
use nt_types::{Transaction, ValidatorId};
use std::time::{Duration, Instant};

fn main() {
    let n = 4;
    println!("Spawning {n} validators (Ed25519 signatures, 1 worker each) on 127.0.0.1...");
    // Small batches so the demo commits quickly at low rates.
    let narwhal = NarwhalConfig {
        batch_bytes: 2_048,
        max_batch_delay: 50 * MS,
        max_header_delay: 100 * MS,
        ..NarwhalConfig::default()
    };
    let (config, keys) = CommitteeConfig::loopback(n, Scheme::Ed25519, SystemKind::Tusk, narwhal)
        .expect("reserve loopback ports");
    let committee = LoopbackCommittee::spawn(config, &keys, |_, _| (None, AppKind::None))
        .expect("start the committee");

    // Submit 200 transactions, spread over the four validators' workers.
    println!("Submitting 200 transactions of 256 B...");
    let mut clients: Vec<_> = (0..n as u32)
        .map(|v| committee.client(ValidatorId(v)).expect("connect to worker"))
        .collect();
    for i in 0..200u64 {
        let msg: NarwhalMsg<NoExt> = NarwhalMsg::ClientTx(Transaction::filler(i, 7, 256));
        clients[i as usize % n]
            .send_payload(encode_to_vec(&msg))
            .expect("submit");
    }

    // Watch commits until all 200 transactions are in the total order.
    // Each commit event reports the transactions of its author's batches,
    // so summing each validator's own blocks counts each exactly once.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut committed_txs = 0u64;
    let mut committed_blocks = 0u64;
    let mut highest_round = 0u64;
    let mut last_payload_round = 0u64;
    while committed_txs < 200 && Instant::now() < deadline {
        for (node, stream) in committee.commits().iter().enumerate() {
            for event in stream.drain() {
                if node == event.author.0 as usize && event.tx_count > 0 {
                    committed_txs += event.tx_count;
                    last_payload_round = last_payload_round.max(event.round);
                    println!(
                        "  commit #{:<3} round {:<3} by {}: {} txs  (total {committed_txs}/200)",
                        event.sequence, event.round, event.author, event.tx_count
                    );
                }
                if node == 0 {
                    committed_blocks += 1;
                    highest_round = highest_round.max(event.round);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
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
    // Every batch is sealed within the first rounds, and none may be left
    // behind in a block no anchor reaches: that one would come back only
    // after garbage collection re-injects it, `gc_depth` = 50 rounds later.
    assert!(
        last_payload_round <= 12,
        "the last transactions sat in a block of round {last_payload_round}"
    );
    committee.stop();
    println!("Done.");
}
