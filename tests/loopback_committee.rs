//! End-to-end tests on an in-process committee over loopback TCP.
//!
//! These run the deployed path — `nt_runtime`'s transport, codec and drive
//! loop, eight hosts on real sockets — short of process isolation, and
//! observe commits only through each primary's `CommitStream`.

use narwhal::{BlockStore, NarwhalConfig, NarwhalMsg, NoExt};
use nt_codec::encode_to_vec;
use nt_crypto::{Hashable, Scheme};
use nt_network::MS;
use nt_runtime::{AppKind, ClientConn, CommitteeConfig, LoopbackCommittee, SystemKind};
use nt_storage::{DynStore, JournalStore};
use nt_types::{BatchPayload, Transaction, ValidatorId};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 4;

fn committee(
    scheme: Scheme,
    system: SystemKind,
    stores: Option<&[DynStore]>,
) -> (LoopbackCommittee, Vec<ClientConn>) {
    let narwhal = NarwhalConfig {
        batch_bytes: 1_024,
        max_batch_delay: 30 * MS,
        max_header_delay: 60 * MS,
        ..NarwhalConfig::default()
    };
    committee_under(narwhal, scheme, system, stores)
}

fn committee_under(
    narwhal: NarwhalConfig,
    scheme: Scheme,
    system: SystemKind,
    stores: Option<&[DynStore]>,
) -> (LoopbackCommittee, Vec<ClientConn>) {
    let (config, keys) = CommitteeConfig::loopback(N, scheme, system, narwhal).expect("ports");
    let committee = LoopbackCommittee::spawn(config, &keys, |v, _| {
        let store = stores.map(|stores| stores[v.0 as usize].clone());
        (store, AppKind::None)
    })
    .expect("spawn");
    let clients = (0..N as u32)
        .map(|v| committee.client(ValidatorId(v)).expect("client connect"))
        .collect();
    (committee, clients)
}

fn submit(client: &mut ClientConn, tx: Transaction) {
    let msg: NarwhalMsg<NoExt> = NarwhalMsg::ClientTx(tx);
    client
        .send_payload(encode_to_vec(&msg))
        .expect("client send");
}

#[test]
fn tusk_commits_real_transactions_with_ed25519() {
    // NOTE: the from-scratch Ed25519 is ~10 ms/op in debug builds, so this
    // test keeps the transaction count small and the deadline generous.
    let (committee, mut clients) = committee(Scheme::Ed25519, SystemKind::Tusk, None);
    for i in 0..16u64 {
        submit(&mut clients[i as usize % N], Transaction::filler(i, 0, 128));
    }
    // An event reports the transactions of its author's batches, so summing
    // each validator's own blocks counts every transaction exactly once.
    let mut committed = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    while committed < 16 && Instant::now() < deadline {
        for (v, stream) in committee.commits().iter().enumerate() {
            for event in stream.drain() {
                if event.author.0 as usize == v {
                    committed += event.tx_count;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    committee.stop();
    assert_eq!(committed, 16, "all transactions reach the total order");
}

#[test]
fn committed_payload_data_is_retrievable_from_workers() {
    // The §8.4 execution-engine flow: commits name (digest, worker); the
    // data is readable from that worker's store afterwards. (Insecure
    // scheme: the crypto path is covered by the test above.)
    let stores: Vec<DynStore> = (0..N)
        .map(|_| Arc::new(JournalStore::new()) as DynStore)
        .collect();
    let (committee, mut clients) = committee(Scheme::Insecure, SystemKind::Tusk, Some(&stores));
    for i in 0..8u64 {
        submit(&mut clients[0], Transaction::filler(i, 5, 100));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut reference = None;
    while reference.is_none() && Instant::now() < deadline {
        let event = committee.commits()[0].next_timeout(Duration::from_secs(5));
        reference = event.and_then(|ev| Some((ev.author, *ev.payload.first()?)));
    }
    committee.stop();
    let (creator, (digest, _worker)) = reference.expect("a payload-bearing commit");
    let batch = BlockStore::new(stores[creator.0 as usize].clone())
        .get_batch(&digest)
        .expect("store read")
        .expect("the committed batch is in its creator's worker store");
    assert_eq!(batch.digest(), digest, "integrity: data matches digest");
}

#[test]
fn every_commit_stream_is_gapless_and_prefix_consistent() {
    let (committee, mut clients) = committee(Scheme::Insecure, SystemKind::Bullshark, None);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut tx = 0u64;
    let mut logs: Vec<Vec<(u64, u64, u32)>> = vec![Vec::new(); N];
    while logs.iter().any(|log| log.len() < 5) && Instant::now() < deadline {
        for client in &mut clients {
            tx += 1;
            submit(client, Transaction::filler(tx, 0, 64));
        }
        std::thread::sleep(Duration::from_millis(5));
        for (log, stream) in logs.iter_mut().zip(committee.commits()) {
            let events = stream.drain();
            log.extend(events.iter().map(|e| (e.sequence, e.round, e.author.0)));
        }
    }
    let dropped: Vec<u64> = committee.commits().iter().map(|s| s.dropped()).collect();
    committee.stop();

    let shortest = logs.iter().map(Vec::len).min().unwrap();
    assert!(shortest >= 5, "some validator committed only {shortest}");
    for (v, log) in logs.iter().enumerate() {
        for (i, &(seq, _, _)) in log.iter().enumerate() {
            assert_eq!(seq, i as u64 + 1, "validator {v} has a sequence gap");
        }
        assert_eq!(
            log[..shortest],
            logs[0][..shortest],
            "validators 0 and {v} disagree on the committed prefix"
        );
    }
    assert_eq!(dropped, [0; N], "no stream shed events");
}

/// The proposal is the batch clock (`worker.rs`): 200 transactions trickle
/// into one worker at 1 per ms, far under `batch_bytes` (500 KB), so size
/// never seals, and `max_batch_delay` (100 ms) alone would make 2 or 3
/// batches of them (4 with the one a starting worker seals at once). With every own block sealing what gathered while it was
/// built, they leave in at least ten — and whatever sealed them, every
/// transaction commits exactly once.
#[test]
fn a_trickle_is_batched_by_the_proposal_clock_and_commits_exactly_once() {
    const TXS: u64 = 200;
    let stores: Vec<DynStore> = (0..N)
        .map(|_| Arc::new(JournalStore::new()) as DynStore)
        .collect();
    // GC far away: the committed batches are read back from the store.
    let narwhal = NarwhalConfig {
        gc_depth: 1_000_000,
        ..NarwhalConfig::default()
    };
    let first_deadline = Duration::from_nanos(narwhal.max_header_delay);
    let spawned = Instant::now();
    let (committee, mut clients) =
        committee_under(narwhal, Scheme::Insecure, SystemKind::Tusk, Some(&stores));
    // The first round is idle, so validator 0's first block leaves at its
    // header deadline, and its worker seals nothing before that block:
    // what arrives earlier waits for it. Starting the trickle half that
    // deadline after the spawn began, rather than whenever spawning
    // returns, keeps that wait the same however long spawning takes.
    std::thread::sleep((spawned + first_deadline / 2).saturating_duration_since(Instant::now()));
    let worker_store = BlockStore::new(stores[0].clone());
    let mut batches = HashSet::new();
    let mut times_committed: BTreeMap<u64, u32> = BTreeMap::new();
    // Waits up to `wait` for validator 0's next commit, accounts it if it
    // is of its own block, and returns how many transactions were seen.
    let mut collect = |wait: Duration| {
        let event = committee.commits()[0].next_timeout(wait);
        let own = event.filter(|event| event.author == ValidatorId(0));
        for (digest, _) in own.map(|event| event.payload).unwrap_or_default() {
            assert!(batches.insert(digest), "batch {digest:?} in two blocks");
            let batch = worker_store.get_batch(&digest).expect("store read");
            let BatchPayload::Data(txs) = batch.expect("stored before proposed").payload else {
                panic!("a synthetic batch in real mode");
            };
            for tx in txs {
                let id = u64::from_le_bytes(tx.payload[..8].try_into().expect("filler"));
                *times_committed.entry(id).or_default() += 1;
            }
        }
        times_committed.len() as u64
    };
    let start = Instant::now();
    for i in 0..TXS {
        while start.elapsed() < Duration::from_millis(i) {
            collect(Duration::from_micros(200));
        }
        submit(&mut clients[0], Transaction::filler(i, 0, 128));
    }
    let deadline = start + Duration::from_secs(30);
    while collect(Duration::from_millis(5)) < TXS && Instant::now() < deadline {}
    let took = start.elapsed();
    // A second commit of anything would follow within a few rounds.
    let grace = Instant::now() + Duration::from_millis(300);
    while Instant::now() < grace {
        collect(Duration::from_millis(5));
    }
    committee.stop();
    eprintln!(
        "{TXS} transactions in {} batches, all committed after {took:?}",
        batches.len()
    );
    let expected: BTreeMap<u64, u32> = (0..TXS).map(|id| (id, 1)).collect();
    assert_eq!(times_committed, expected, "every transaction, exactly once");
    // An unoptimised build's rounds take ~20 ms (11-14 batches when run
    // alone, fewer beside the other tests); an optimised one's ~5 (41-47).
    let floor = if cfg!(debug_assertions) { 5 } else { 10 };
    assert!(
        batches.len() >= floor,
        "{} batches: sealed by the fallback timer, not by the proposals",
        batches.len()
    );
    assert!(took < Duration::from_secs(10), "the trickle took {took:?}");
}
