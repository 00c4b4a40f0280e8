//! Signed-snapshot state transfer on a real committee: 4 validators as OS
//! processes on localhost TCP, all running the account-ledger execution
//! engine (`--app ledger`).
//!
//! Two recovery paths, both ending in a snapshot install because the
//! committee has garbage-collected the certificates the victim would need
//! to catch up block by block:
//!
//! 1. **Lapsed validator.** One validator is SIGKILLed and stays down until
//!    the survivors advance more than `gc_depth` rounds past it. Restarted
//!    over its surviving store directory, per-certificate sync finds only
//!    pruned history — the node fetches the latest 2f+1-signed snapshot,
//!    verifies it, installs, and resumes committing at the frontier.
//! 2. **Brand-new joiner.** The same validator is killed again and its
//!    store directory is deleted outright. It rejoins from genesis with
//!    nothing but its key, through the same signed-snapshot transfer.
//!
//! The verdict reads every commit log (`<sequence> <round> <author>
//! <app_root>` per line): within and across validators every shared
//! sequence must name the same block *and the same app root* — the
//! restored ledger state is byte-equivalent to the peers' replayed state —
//! the union of sequences must be gapless, and after each rejoin the
//! victim's own log must show a sequence *gap*, proving it jumped over the
//! pruned history via state transfer instead of replaying it.
//!
//! Run with `--smoke` for the CI-sized version (lower commit targets):
//!
//! ```text
//! cargo build --release -p nt_runtime
//! cargo run --release --example snapshot_join -- --smoke
//! ```

use cluster::{commit_entries, incarnations, store_dir, wait_until, Cluster, Entry, LoadClient, N};
use narwhal_tusk::narwhal::NarwhalConfig;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

#[path = "support/cluster.rs"]
mod cluster;

const VICTIM: usize = 3;
/// Small GC window so a few seconds of downtime pushes the victim past the
/// sync horizon; the snapshot cadence must fit inside it (see
/// `NarwhalConfig::snapshot_interval`).
const GC_DEPTH: u64 = 24;
const SNAPSHOT_INTERVAL: u64 = 8;
/// Extra rounds past the horizon before restarting, so the boundary is not
/// marginal.
const HORIZON_MARGIN: u64 = 16;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (warm_target, rejoin_target) = if smoke { (8, 5) } else { (25, 12) };

    // --- configuration + launch ------------------------------------------
    let narwhal = NarwhalConfig {
        gc_depth: GC_DEPTH,
        snapshot_interval: SNAPSHOT_INTERVAL,
        ..NarwhalConfig::default()
    };
    let mut cluster = Cluster::launch("narwhal-snapjoin", narwhal, "ledger");
    let dir = cluster.dir().to_path_buf();
    let mut client = cluster.load_client();

    // --- phase 1: all four up -------------------------------------------
    println!("phase 1: warming up until every validator commits {warm_target} blocks");
    wait_until(Duration::from_secs(120), &mut client, || {
        (0..N).all(|v| commit_entries(&dir, v).len() >= warm_target)
    })
    .expect("committee never reached the warm-up target");

    // --- phase 2: lapsed validator rejoins via snapshot ------------------
    println!("phase 2: killing validator {VICTIM}, outliving its GC horizon");
    let gap_a = kill_outlive_restart(&mut cluster, &mut client, false);
    println!(
        "phase 2: validator {VICTIM} rejoined over sequence gap {}..{}",
        gap_a.0, gap_a.1
    );
    wait_for_rejoin(&mut client, &dir, 2, rejoin_target);

    // --- phase 3: brand-new joiner (store deleted) -----------------------
    println!("phase 3: killing validator {VICTIM} again and deleting its store");
    let gap_b = kill_outlive_restart(&mut cluster, &mut client, true);
    println!(
        "phase 3: fresh validator {VICTIM} joined over sequence gap {}..{}",
        gap_b.0, gap_b.1
    );
    wait_for_rejoin(&mut client, &dir, 3, rejoin_target);

    // --- teardown + verdict ----------------------------------------------
    cluster.kill_all();

    let logs: Vec<Vec<Entry>> = (0..N).map(|v| commit_entries(&dir, v)).collect();
    verify(&logs);
    for (label, (before, after)) in [("lapsed rejoin", gap_a), ("fresh join", gap_b)] {
        assert!(
            after > before + 1,
            "{label}: victim resumed at {after}, contiguous with its old tail \
             {before} — it replayed instead of state-transferring"
        );
    }
    let max_seq = logs
        .iter()
        .flat_map(|log| log.iter().map(|e| e.seq))
        .max()
        .unwrap_or(0);
    println!(
        "OK: both recovery paths installed a signed snapshot; all app roots \
         agree; sequences gapless and prefix-consistent up to {max_seq}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the victim, waits until the survivors are more than
/// `gc_depth + margin` rounds past its last committed round (optionally
/// deleting its store), restarts it, and returns `(last sequence before
/// the kill, first sequence after the restart)`.
fn kill_outlive_restart(
    cluster: &mut Cluster,
    client: &mut LoadClient,
    delete_store: bool,
) -> (u64, u64) {
    let dir = cluster.dir().to_path_buf();
    let pre = commit_entries(&dir, VICTIM);
    let last_seq = pre.iter().map(|e| e.seq).max().unwrap_or(0);
    let last_round = pre.iter().map(|e| e.round).max().unwrap_or(0);
    cluster.kill_validator(VICTIM);
    let horizon = last_round + GC_DEPTH + HORIZON_MARGIN;
    wait_until(Duration::from_secs(240), client, || {
        let survivor = commit_entries(&dir, 0);
        survivor.iter().map(|e| e.round).max().unwrap_or(0) > horizon
    })
    .expect("survivors never outran the victim's GC horizon");
    if delete_store {
        std::fs::remove_dir_all(store_dir(&dir, VICTIM)).expect("delete victim store");
    }
    let starts_before = incarnations(&dir, VICTIM).len();
    cluster.spawn_validator(VICTIM);
    // First sequence the new incarnation logs.
    let mut first_new = 0;
    wait_until(Duration::from_secs(240), client, || {
        let runs = incarnations(&dir, VICTIM);
        let first = runs.iter().skip(starts_before).flatten().next();
        first_new = first.map_or(0, |entry| entry.seq);
        first.is_some()
    })
    .expect("restarted validator never committed");
    (last_seq, first_new)
}

/// Waits until the victim's log holds `target` commits after its
/// `incarnation`-th `# start` marker.
fn wait_for_rejoin(client: &mut LoadClient, dir: &Path, incarnation: usize, target: usize) {
    wait_until(Duration::from_secs(240), client, || {
        let runs = incarnations(dir, VICTIM);
        runs.iter().skip(incarnation - 1).flatten().count() >= target
    })
    .expect("rejoined validator stopped committing");
}

/// The logs must agree within and across validators — block identity *and*
/// app root — and the union of sequences must be gapless.
fn verify(logs: &[Vec<Entry>]) {
    let mut union: BTreeMap<u64, Entry> = BTreeMap::new();
    for (v, log) in logs.iter().enumerate() {
        assert!(!log.is_empty(), "validator {v} committed nothing");
        let mut seen: BTreeMap<u64, Entry> = BTreeMap::new();
        for entry in log {
            assert_ne!(
                entry.root, "00000000",
                "validator {v} stamped a zero app root at sequence {}",
                entry.seq
            );
            if let Some(prev) = seen.get(&entry.seq) {
                assert_eq!(
                    prev, entry,
                    "validator {v} re-committed sequence {} differently",
                    entry.seq
                );
            } else {
                seen.insert(entry.seq, entry.clone());
            }
        }
        for (seq, entry) in seen {
            if let Some(global) = union.get(&seq) {
                assert_eq!(
                    *global, entry,
                    "validators disagree on sequence {seq} (validator {v}): \
                     block or app root mismatch"
                );
            } else {
                union.insert(seq, entry);
            }
        }
    }
    let max_seq = *union.keys().next_back().expect("nonempty union");
    for seq in 1..=max_seq {
        assert!(
            union.contains_key(&seq),
            "no validator logged sequence {seq}"
        );
    }
    // The agreement pass above is only meaningful if the victim actually
    // shares post-rejoin sequences with a peer.
    let victim: BTreeMap<u64, &Entry> = logs[VICTIM].iter().map(|e| (e.seq, e)).collect();
    let shared = logs[0]
        .iter()
        .filter(|e| victim.contains_key(&e.seq))
        .count();
    assert!(
        shared >= 5,
        "victim shares only {shared} sequences with validator 0"
    );
}
