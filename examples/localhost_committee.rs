//! A real committee: 4 validators as OS processes on localhost TCP.
//!
//! This is the deployment the `nt_runtime` crate exists for. The launcher
//!
//! 1. generates key files and a committee file on free localhost ports,
//! 2. spawns `narwhal-node` twice per validator (primary + worker) — eight
//!    OS processes speaking length-prefixed `nt_codec` frames over real
//!    sockets,
//! 3. injects open-loop client transactions into every worker,
//! 4. SIGKILLs one validator mid-run, lets the committee keep committing,
//!    restarts the victim over its surviving store directory,
//! 5. checks the committed logs: per-validator sequences gapless, replayed
//!    sequences identical, and all validators prefix-consistent.
//!
//! Run with `--smoke` for the CI-sized version (lower commit targets):
//!
//! ```text
//! cargo build --release -p nt_runtime
//! cargo run --release --example localhost_committee -- --smoke
//! ```

use cluster::{commit_entries, incarnations, wait_until, Cluster, N};
use narwhal_tusk::narwhal::NarwhalConfig;
use std::collections::BTreeMap;
use std::time::Duration;

// Shared with `snapshot_join`, which uses more of it.
#[allow(dead_code)]
#[path = "support/cluster.rs"]
mod cluster;

const VICTIM: usize = 3;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Commit-count targets per phase; the smoke profile keeps CI fast.
    let (warm_target, survivor_target, recovered_target) =
        if smoke { (10, 10, 5) } else { (30, 30, 15) };

    // --- configuration + launch: two processes per validator ------------
    // A deep GC window so a validator a few seconds behind can still pull
    // the certificates it missed instead of finding them pruned.
    let narwhal = NarwhalConfig {
        gc_depth: 200,
        ..NarwhalConfig::default()
    };
    let mut cluster = Cluster::launch("narwhal-committee", narwhal, "none");
    let dir = cluster.dir().to_path_buf();

    // --- phase 1: all four up, open-loop load ---------------------------
    let mut client = cluster.load_client();
    println!("phase 1: warming up until every validator commits {warm_target} blocks");
    wait_until(Duration::from_secs(120), &mut client, || {
        (0..N).all(|v| commit_entries(&dir, v).len() >= warm_target)
    })
    .expect("committee never reached the warm-up target");

    // --- phase 2: kill one validator, the rest keep committing ----------
    println!("phase 2: killing validator {VICTIM} (primary + worker)");
    cluster.kill_validator(VICTIM);
    let survivor_floor = commit_entries(&dir, 0).len() + survivor_target;
    wait_until(Duration::from_secs(120), &mut client, || {
        commit_entries(&dir, 0).len() >= survivor_floor
    })
    .expect("survivors stopped committing after the kill");

    // --- phase 3: restart the victim over its surviving stores ----------
    println!("phase 3: restarting validator {VICTIM} over its store directory");
    cluster.spawn_validator(VICTIM);
    wait_until(Duration::from_secs(180), &mut client, || {
        // A second `# start` marker with commits past the warm-up proves
        // post-restart progress, not just replayed log lines.
        let runs = incarnations(&dir, VICTIM);
        let lines: usize = runs.iter().map(Vec::len).sum();
        runs.len() >= 2 && lines >= warm_target + recovered_target
    })
    .expect("restarted validator never resumed committing");

    // --- teardown + verdict ---------------------------------------------
    cluster.kill_all();

    let logs: Vec<Vec<(u64, u64, u32)>> = (0..N)
        .map(|v| {
            let entries = commit_entries(&dir, v);
            entries.iter().map(|e| (e.seq, e.round, e.author)).collect()
        })
        .collect();
    verify(&logs);

    let max_seq = logs
        .iter()
        .flat_map(|log| log.iter().map(|&(seq, _, _)| seq))
        .max()
        .unwrap_or(0);
    println!(
        "OK: {} processes, kill+restart survived, sequences gapless and \
         prefix-consistent up to {max_seq}",
        2 * N
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed logs must be mutually consistent: within a validator,
/// re-logged sequences (recovery replay) agree with themselves; across
/// validators, every common sequence number names the same block; and the
/// union of all sequences has no gap.
fn verify(logs: &[Vec<(u64, u64, u32)>]) {
    let mut union: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
    for (v, log) in logs.iter().enumerate() {
        assert!(!log.is_empty(), "validator {v} committed nothing");
        let mut seen: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
        let mut last = 0u64;
        for &(seq, round, author) in log {
            if let Some(&prev) = seen.get(&seq) {
                assert_eq!(
                    prev,
                    (round, author),
                    "validator {v} re-committed sequence {seq} differently"
                );
            } else {
                assert!(
                    seq == last + 1 || seen.contains_key(&(seq - 1)),
                    "validator {v} skipped from {last} to {seq}"
                );
                seen.insert(seq, (round, author));
            }
            last = last.max(seq);
        }
        for (&seq, &entry) in &seen {
            if let Some(&global) = union.get(&seq) {
                assert_eq!(
                    global, entry,
                    "validators disagree on sequence {seq} (validator {v})"
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
}
