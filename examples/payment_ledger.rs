//! A replicated payment ledger on Narwhal+Tusk — through the real
//! execution layer.
//!
//! This is the paper's target workload: a blockchain committing transfer
//! transactions, here on four validators over loopback TCP. Each validator runs the [`LedgerApp`] account ledger
//! behind the ABCI-style [`Execution`] trait (§8.4): the primary resolves
//! every committed block's batches from its store, applies them in commit
//! order, and stamps the resulting state root on the emitted
//! [`CommitEvent`]. Total order in, identical `app_root` out — the roots
//! on the commit stream *are* the proof the replicated ledgers agree.
//!
//! The example submits transfer transactions, lets two validators commit
//! them, and then
//!
//! 1. asserts both validators stamped the same root at every shared
//!    sequence, and
//! 2. replays validator 0's commit stream offline through a fresh engine
//!    (over the batch data fetched from its store as each commit was
//!    observed) to reproduce the same roots and read back the final
//!    balances.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example payment_ledger
//! ```

use narwhal::{BlockStore, NarwhalConfig, NarwhalMsg, NoExt};
use narwhal_tusk::codec::encode_to_vec;
use narwhal_tusk::crypto::Digest;
use narwhal_tusk::execution::{transfer_tx, BatchData, Execution, LedgerApp};
use narwhal_tusk::network::MS;
use narwhal_tusk::runtime::{AppKind, CommitteeConfig, LoopbackCommittee, SystemKind};
use narwhal_tusk::storage::{DynStore, JournalStore};
use nt_crypto::Scheme;
use nt_types::{CommitEvent, ValidatorId, WorkerId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ACCOUNTS: u16 = 8;
const TRANSFERS: u64 = 240;

fn main() {
    let n = 4;
    let narwhal = NarwhalConfig {
        batch_bytes: 4_096,
        max_batch_delay: 50 * MS,
        max_header_delay: 100 * MS,
        ..NarwhalConfig::default()
    };
    // One in-memory store per validator, shared by its primary and worker:
    // the worker writes batch bytes through, the primary's execution layer
    // reads them back at commit time.
    let stores: Vec<DynStore> = (0..n)
        .map(|_| Arc::new(JournalStore::new()) as DynStore)
        .collect();
    // Eight hosts on loopback TCP, every primary running the ledger.
    let (config, keys) = CommitteeConfig::loopback(n, Scheme::Ed25519, SystemKind::Tusk, narwhal)
        .expect("reserve loopback ports");
    let committee = LoopbackCommittee::spawn(config, &keys, |v, _| {
        (Some(stores[v.0 as usize].clone()), AppKind::Ledger)
    })
    .expect("start the committee");

    println!("Submitting {TRANSFERS} transfers between {ACCOUNTS} accounts...");
    let mut clients: Vec<_> = (0..n as u32)
        .map(|v| committee.client(ValidatorId(v)).expect("connect to worker"))
        .collect();
    for i in 0..TRANSFERS {
        let from = (i % ACCOUNTS as u64) as u16;
        let to = ((i + 3) % ACCOUNTS as u64) as u16;
        let msg: NarwhalMsg<NoExt> =
            NarwhalMsg::ClientTx(transfer_tx(i, from, to, 1 + (i % 7) as u32));
        clients[i as usize % n]
            .send_payload(encode_to_vec(&msg))
            .expect("submit");
    }

    // Collect the commit streams of validators 0 and 1 until every transfer
    // is in the total order (summing `node == author` events counts each
    // batch exactly once across the system), then drain the slower tail.
    // Validator 0's batches are fetched from its store as each commit is
    // observed, the way an execution engine would (§8.4): execution-aware
    // GC deletes a batch once the live engine has applied it, so a fetch
    // deferred to the end of the run finds the early ones gone.
    let store = BlockStore::new(stores[0].clone());
    let fetch = |event: &CommitEvent| -> Vec<BatchData> {
        let resolve = |(digest, _): &(Digest, WorkerId)| match store.get_batch(digest) {
            Ok(Some(batch)) => BatchData::Full(batch),
            Ok(None) => BatchData::Missing(*digest),
            Err(e) => panic!("store: {e}"),
        };
        event.payload.iter().map(resolve).collect()
    };
    let mut streams: BTreeMap<usize, Vec<CommitEvent>> = BTreeMap::new();
    let mut fetched: BTreeMap<u64, Vec<BatchData>> = BTreeMap::new();
    let mut record = |node: usize, event: CommitEvent| {
        if node == 0 {
            fetched
                .entry(event.sequence)
                .or_insert_with(|| fetch(&event));
        }
        if node <= 1 {
            streams.entry(node).or_default().push(event);
        }
    };
    // One pass over every primary's stream; returns the transactions newly
    // counted as committed.
    let mut poll = || {
        let mut own_txs = 0;
        for (node, stream) in committee.commits().iter().enumerate() {
            for event in stream.drain() {
                if node == event.author.0 as usize {
                    own_txs += event.tx_count;
                }
                record(node, event);
            }
        }
        std::thread::sleep(Duration::from_millis(5));
        own_txs
    };
    let mut committed_txs = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while committed_txs < TRANSFERS && Instant::now() < deadline {
        committed_txs += poll();
    }
    let tail = Instant::now() + Duration::from_millis(300);
    while Instant::now() < tail {
        poll();
    }

    // Every shared sequence: same block, same non-zero app root.
    let roots: Vec<BTreeMap<u64, Digest>> = (0..2)
        .map(|v| {
            streams
                .get(&v)
                .map(|s| s.iter().map(|e| (e.sequence, e.app_root)).collect())
                .unwrap_or_default()
        })
        .collect();
    let mut shared = 0;
    for (seq, root) in &roots[0] {
        assert_ne!(*root, Digest::default(), "zero app root at sequence {seq}");
        if let Some(other) = roots[1].get(seq) {
            assert_eq!(root, other, "validators stamp different roots at {seq}");
            shared += 1;
        }
    }
    assert!(shared >= 10, "only {shared} shared sequences");
    println!("Validators 0 and 1 agree on app roots at {shared} shared sequences.");

    // Offline replay (§8.4): a fresh engine fed validator 0's recorded
    // commit order and the batch data fetched along the way must reproduce
    // every stamped root — and ends up holding the final balances.
    committee.stop();
    let mut engine = LedgerApp::new();
    let mut ordered: Vec<&CommitEvent> = streams.get(&0).into_iter().flatten().collect();
    ordered.sort_by_key(|e| e.sequence);
    ordered.dedup_by_key(|e| e.sequence);
    for event in ordered {
        let root = engine.apply(event, &fetched[&event.sequence]);
        assert_eq!(
            root, event.app_root,
            "offline replay diverged at sequence {}",
            event.sequence
        );
    }

    println!();
    println!("Final net positions (validator 0's ledger):");
    for account in 0..ACCOUNTS as u64 {
        println!("  account {account}: {:+}", engine.balance(account));
    }
    assert_eq!(engine.net_total(), 0, "transfers conserve the total");
    assert!(engine.touched() > 0, "transfers reached the ledger");
    println!();
    println!(
        "Replicated ledgers agree at every shared sequence; offline replay \
         reproduces the roots; balances conserve. SMR works."
    );
}
