//! The recovery mechanisms the fuzzer's checkers prove load-bearing: §3.1
//! vote locks persisted before a vote leaves, the ordered markers and the
//! commit-sequence counter persisted on every commit, the in-flight
//! payloads re-derived on recovery, §4.1 pull synchronization, and the
//! durability barriers before an own block or certificate leaves.
//!
//! Each test runs one arm of `nt_bench::fuzz::mechanism_arms` — its
//! candidate schedules, with its adversaries — and asserts that no
//! checker fires. That half says the schedules are clean on this tree.
//! The other half is the entry of the same name in
//! `crates/bench/mutants.txt`: it deletes the mechanism from the source,
//! and the `mutants` binary requires this test to fail there, naming the
//! checkers the entry lists. Together they keep the checkers honest: a
//! suite that cannot see a missing vote lock is vacuous.

use nt_bench::fuzz::mechanism_arms;

/// Runs the arm `name` and panics, naming every checker that fired, at the
/// first candidate schedule that violates an invariant.
fn assert_clean(name: &str) {
    let arms = mechanism_arms();
    let arm = arms
        .iter()
        .find(|arm| arm.name == name)
        .unwrap_or_else(|| panic!("no mechanism arm named {name}"));
    if let Some((i, fired, violations)) = arm.first_violation() {
        let fired: Vec<&str> = fired.iter().map(|c| c.name()).collect();
        let violations: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        panic!(
            "{name} vs {}: candidate {i} (seed {}) tripped {}:\n  {}",
            arm.system.name(),
            arm.candidates[i].0,
            fired.join(", "),
            violations.join("\n  ")
        );
    }
}

/// Ordered markers persisted with their sequence (Tusk, long outages):
/// without them a restarted validator re-commits its history at fresh
/// sequence numbers.
#[test]
fn ordered_persist() {
    assert_clean("ordered_persist");
}

/// The commit-sequence counter persisted (Bullshark, long outages):
/// without it a restarted validator numbers new commits from 1 again.
#[test]
fn sequence_persist() {
    assert_clean("sequence_persist");
}

/// In-flight own payloads re-derived from certified, unordered blocks on
/// recovery (Bullshark, short outages): without it a restarted validator
/// re-proposes batches already on their way to commit.
#[test]
fn inflight_recovery() {
    assert_clean("inflight_recovery");
}

/// §4.1 pull synchronization, digest and round-range pulls (DAG-Rider,
/// long outages): without it a validator that missed certificates never
/// recovers them.
#[test]
fn cert_pull() {
    assert_clean("cert_pull");
}

/// The durability barriers before an own block leaves and after an own
/// certificate is stored (Bullshark-Rep, the seed-219 torn outages):
/// without them a torn tail erases a certificate whose broadcast already
/// left, and its payload commits twice.
#[test]
fn sync_barriers() {
    assert_clean("sync_barriers");
}

/// §3.1 vote locks persisted before the vote leaves (Tusk, an equivocator
/// at validator 0, short voter crashes): without them a restarted voter
/// signs the equivocator's twin, both twins certify, and the payload
/// commits twice.
#[test]
fn vote_persist() {
    assert_clean("vote_persist");
}
