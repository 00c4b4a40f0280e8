//! End-to-end tests on the threaded local runtime with real Ed25519.
//!
//! These exercise the non-simulated code path: real threads, real channels,
//! real signature verification at every hop — a miniature of the paper's
//! actual deployment.

use narwhal::{NarwhalConfig, NarwhalMsg};
use nt_crypto::Scheme;
use nt_network::{LocalRuntime, MS};
use nt_types::{Committee, Transaction};
use std::time::Duration;

fn demo_config() -> NarwhalConfig {
    NarwhalConfig {
        batch_bytes: 1_024,
        max_batch_delay: 30 * MS,
        max_header_delay: 60 * MS,
        ..NarwhalConfig::default()
    }
}

#[test]
fn tusk_commits_real_transactions_with_ed25519() {
    // NOTE: the from-scratch Ed25519 is ~10 ms/op in debug builds, so this
    // test keeps the transaction count small and the deadline generous.
    let n = 4;
    let (committee, kps) = Committee::deterministic(n, 1, Scheme::Ed25519);
    let tusk = |c: &Committee| tusk::Tusk::new(c.clone(), 1);
    let actors = narwhal::committee_actors(&committee, &kps, &demo_config(), 1, tusk);
    let handle = LocalRuntime::spawn(actors);

    for i in 0..16u64 {
        handle.client_send(
            n + (i as usize % n),
            NarwhalMsg::ClientTx(Transaction::filler(i, 0, 128)),
        );
    }
    let mut committed = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while committed < 16 && std::time::Instant::now() < deadline {
        let Some((node, ev)) = handle.next_commit(Duration::from_secs(10)) else {
            break;
        };
        if node == ev.author.0 as usize {
            committed += ev.tx_count;
        }
    }
    handle.shutdown();
    assert_eq!(committed, 16, "all transactions reach the total order");
}

#[test]
fn committed_payload_data_is_retrievable_from_workers() {
    // The §8.4 execution-engine flow: commits name (digest, worker); the
    // data is fetchable from that worker afterwards. (Insecure scheme: the
    // crypto path is covered by the test above; this one tests retrieval.)
    let n = 4;
    let (committee, kps) = Committee::deterministic(n, 1, Scheme::Insecure);
    let addr = narwhal::AddressBook::new(n, 1);
    let tusk = |c: &Committee| tusk::Tusk::new(c.clone(), 2);
    let actors = narwhal::committee_actors(&committee, &kps, &demo_config(), 1, tusk);
    let handle = LocalRuntime::spawn(actors);

    for i in 0..8u64 {
        handle.client_send(
            n, // all to validator 0's worker
            NarwhalMsg::ClientTx(Transaction::filler(i, 5, 100)),
        );
    }
    // Wait for a commit that carries payload.
    let mut reference = None;
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while reference.is_none() && std::time::Instant::now() < deadline {
        let Some((node, ev)) = handle.next_commit(Duration::from_secs(5)) else {
            break;
        };
        if node == 0 && !ev.payload.is_empty() {
            reference = Some((ev.payload[0].0, ev.author, ev.payload[0].1));
        }
    }
    let (digest, creator, worker) = reference.expect("a payload-bearing commit");
    handle.client_send(
        addr.worker(creator, worker),
        NarwhalMsg::BatchRequest {
            digests: vec![digest],
        },
    );
    let response = handle.client_recv(Duration::from_secs(5));
    handle.shutdown();
    match response {
        Some((_, NarwhalMsg::BatchResponse { batches })) => {
            assert_eq!(batches.len(), 1);
            use nt_crypto::Hashable;
            assert_eq!(
                batches[0].digest(),
                digest,
                "integrity: data matches digest"
            );
        }
        other => panic!("expected batch data, got {other:?}"),
    }
}

#[test]
fn commit_streams_tee_the_local_runtime_commits() {
    // The CommitStream subscription path: applications observe commits
    // through per-node bounded streams instead of interpreting the
    // runtime's Effect::Commit plumbing. Nodes come from NodeBuilder and
    // run unmodified inside the threaded LocalRuntime.
    use bullshark::RoundRobin;
    use narwhal::{NoExt, NodeBuilder};
    use nt_network::Actor;

    let n = 4;
    let (committee, kps) = Committee::deterministic(n, 1, Scheme::Insecure);
    let mut actors: Vec<Box<dyn Actor<Message = NarwhalMsg<NoExt>>>> = Vec::new();
    let mut streams = Vec::new();
    for v in 0..n as u32 {
        let consensus = bullshark::Bullshark::new(committee.clone(), RoundRobin::new(&committee));
        let mut node = NodeBuilder::new(committee.clone(), v)
            .config(demo_config())
            .keypair(kps[v as usize].clone())
            .primary_node(consensus);
        streams.push(node.subscribe_commits(4096));
        actors.push(Box::new(node));
    }
    for v in 0..n as u32 {
        let worker = NodeBuilder::new(committee.clone(), v)
            .config(demo_config())
            .worker_node::<NoExt>(nt_types::WorkerId(0));
        actors.push(Box::new(worker));
    }
    let handle = LocalRuntime::spawn(actors);

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut tx = 0u64;
    let mut per_node: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    while std::time::Instant::now() < deadline {
        for w in 0..n {
            tx += 1;
            handle.client_send(n + w, NarwhalMsg::ClientTx(Transaction::filler(tx, 0, 64)));
        }
        std::thread::sleep(Duration::from_millis(5));
        for (v, stream) in streams.iter().enumerate() {
            for ev in stream.drain() {
                per_node[v].push((ev.sequence, ev.round));
            }
        }
        if per_node.iter().all(|log| log.len() >= 3) {
            break;
        }
    }
    handle.shutdown();

    // Streams saw gapless sequences, and every node streamed the same
    // prefix — the subscription is a faithful tee of the commit effects.
    let shortest = per_node.iter().map(Vec::len).min().unwrap();
    assert!(shortest >= 3, "some stream saw only {shortest} commits");
    for (v, log) in per_node.iter().enumerate() {
        for (i, &(seq, _)) in log.iter().enumerate() {
            assert_eq!(seq, i as u64 + 1, "stream {v} has a sequence gap");
        }
        assert_eq!(
            log[..shortest],
            per_node[0][..shortest],
            "stream {v} diverges"
        );
    }
    assert!(streams.iter().all(|s| s.dropped() == 0));
}
