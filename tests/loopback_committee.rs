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
use nt_types::{Transaction, ValidatorId};
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
