//! Metrics extraction from simulation results.
//!
//! The paper reports throughput as committed transactions per second and
//! latency as "the time elapsed from when the client submits the
//! transaction to when the transaction is committed by the leader that
//! proposed it", measured via sampled transactions under load (§7). This
//! module computes both over a steady-state window, discarding warm-up.

use nt_network::{NodeId, Time, SEC};
use nt_simnet::SimResult;
use nt_types::{CommitEvent, ProposalCounts, Round, ValidatorId};
use std::collections::{HashMap, HashSet};

/// Aggregated statistics from one run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Committed transactions per second in the steady-state window.
    pub throughput_tps: f64,
    /// Committed payload megabytes per second.
    pub throughput_mbs: f64,
    /// Mean end-to-end latency in seconds (sampled transactions).
    pub avg_latency_s: f64,
    /// Median end-to-end latency in seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile end-to-end latency in seconds.
    pub p99_latency_s: f64,
    /// Mean rounds between a block's round and the anchor that committed it.
    pub commit_rounds: f64,
    /// Mean rounds between a block's round and the emitting validator's
    /// DAG head when the commit was *decided* — the end-to-end commit
    /// depth. Tusk decides a wave one round after Bullshark does (coin
    /// reveal vs voting round), and this column is where that shows.
    pub decision_rounds: f64,
    /// Mean per-validator count of anchors committed directly (by vote
    /// quorum); 0 for protocols without the distinction.
    pub direct_commits: f64,
    /// Mean per-validator count of anchors committed indirectly (via the
    /// recursive path rule).
    pub indirect_commits: f64,
    /// Why blocks were proposed, summed over the validators (each one's
    /// last commit event carries its totals): own payload, followed a live
    /// round, header deadline, consensus wish.
    pub proposals: ProposalCounts,
    /// Total committed transactions over the whole run.
    pub total_txs: u64,
    /// Number of latency samples observed.
    pub samples: usize,
    /// Commit events shed by lagging [`narwhal::CommitStream`] subscribers,
    /// summed over the run's streams. Always 0 on the simulator (the DES
    /// host observes commit effects losslessly); real-runtime collectors
    /// fill it via [`RunStats::record_lag_drops`] so silent loss shows up
    /// in the same stats row as the throughput it distorted.
    pub lag_drops: u64,
}

impl RunStats {
    /// Computes stats from raw commits.
    ///
    /// Only events in `[warmup, duration]` count. Each validator emits
    /// commit events for its own batches, so summing across nodes counts
    /// every transaction exactly once. Latency samples are deduplicated by
    /// sample id (each validator commits the same blocks; a sample is
    /// measured at the batch creator — the proposing validator — only).
    pub fn from_commits(
        commits: &[(Time, NodeId, CommitEvent)],
        duration: Time,
        expected_creators: usize,
    ) -> RunStats {
        let warmup = duration / 5;
        let window_s = (duration - warmup) as f64 / SEC as f64;
        let mut total_txs_window: u64 = 0;
        let mut total_bytes_window: u64 = 0;
        let mut total_txs: u64 = 0;
        let mut latencies: Vec<f64> = Vec::new();
        let mut seen_samples: HashSet<u64> = HashSet::new();
        let mut round_gaps: Vec<f64> = Vec::new();
        let mut decision_gaps: Vec<f64> = Vec::new();
        // Cumulative per-validator commit counters: the last event a node
        // emits carries its final (direct, indirect) totals.
        let mut counter_finals: HashMap<NodeId, (u64, u64)> = HashMap::new();
        // Likewise its proposal counters (restarting from zero with it).
        let mut proposal_finals: HashMap<NodeId, ProposalCounts> = HashMap::new();

        for (at, node, ev) in commits {
            total_txs += ev.tx_count;
            counter_finals
                .entry(*node)
                .and_modify(|(d, i)| {
                    *d = (*d).max(ev.direct_commits);
                    *i = (*i).max(ev.indirect_commits);
                })
                .or_insert((ev.direct_commits, ev.indirect_commits));
            proposal_finals.insert(*node, ev.proposals);
            // A batch creator's commit event is emitted by the creator's own
            // primary: count it once (node == author's primary by layout).
            if *at < warmup || *at > duration {
                continue;
            }
            if ev.author.0 as usize == *node {
                // Primary nodes are laid out first; author's own events.
                total_txs_window += ev.tx_count;
                total_bytes_window += ev.tx_bytes;
                for s in &ev.samples {
                    if seen_samples.insert(s.id) {
                        latencies.push((*at - s.submit_ns) as f64 / SEC as f64);
                    }
                }
                if ev.anchor_round >= ev.round {
                    round_gaps.push((ev.anchor_round - ev.round) as f64);
                }
                if ev.decided_round >= ev.round {
                    decision_gaps.push((ev.decided_round - ev.round) as f64);
                }
            }
        }
        let _ = expected_creators;
        let mean = |xs: &[f64]| -> f64 {
            if xs.is_empty() {
                f64::NAN
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let (direct_commits, indirect_commits) = if counter_finals.is_empty() {
            (0.0, 0.0)
        } else {
            let n = counter_finals.len() as f64;
            (
                counter_finals.values().map(|(d, _)| *d as f64).sum::<f64>() / n,
                counter_finals.values().map(|(_, i)| *i as f64).sum::<f64>() / n,
            )
        };
        let mut proposals = ProposalCounts::default();
        for p in proposal_finals.values() {
            proposals.payload += p.payload;
            proposals.followed += p.followed;
            proposals.deadline += p.deadline;
            proposals.wish += p.wish;
        }

        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pct = |p: f64| -> f64 {
            if latencies.is_empty() {
                return 0.0;
            }
            let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
            latencies[idx]
        };
        RunStats {
            throughput_tps: total_txs_window as f64 / window_s,
            throughput_mbs: total_bytes_window as f64 / window_s / 1e6,
            avg_latency_s: mean(&latencies),
            p50_latency_s: pct(0.50),
            p99_latency_s: pct(0.99),
            commit_rounds: mean(&round_gaps),
            decision_rounds: mean(&decision_gaps),
            direct_commits,
            indirect_commits,
            proposals,
            total_txs,
            samples: latencies.len(),
            lag_drops: 0,
        }
    }

    /// Convenience: build from a [`SimResult`].
    pub fn from_result(result: &SimResult, duration: Time, creators: usize) -> RunStats {
        Self::from_commits(&result.commits, duration, creators)
    }

    /// Folds in commits dropped by a lagging subscriber (see
    /// [`narwhal::CommitStream::dropped`]).
    pub fn record_lag_drops(&mut self, dropped: u64) {
        self.lag_drops += dropped;
    }
}

/// Per-validator committed `(round, author)` sequences, in commit order.
///
/// Only the first `nodes` hosts (the primaries, by [`narwhal::AddressBook`]
/// layout) emit consensus commits; each sequence is one validator's local
/// total order of block identities.
pub fn committed_sequences(
    commits: &[(Time, NodeId, CommitEvent)],
    nodes: usize,
) -> Vec<Vec<(Round, ValidatorId)>> {
    let mut seqs = vec![Vec::new(); nodes];
    for (_, node, ev) in commits {
        if *node < nodes {
            seqs[*node].push((ev.round, ev.author));
        }
    }
    seqs
}

/// True if every pair of non-empty sequences agrees on their common prefix
/// — the agreement check the partition/heal scenarios assert.
pub fn sequences_prefix_consistent(seqs: &[Vec<(Round, ValidatorId)>]) -> bool {
    let live: Vec<&Vec<(Round, ValidatorId)>> = seqs.iter().filter(|s| !s.is_empty()).collect();
    // All pairs: prefix agreement is not transitive through a short
    // middle sequence, so adjacent checks would not suffice.
    for (i, a) in live.iter().enumerate() {
        for b in &live[i + 1..] {
            let common = a.len().min(b.len());
            if a[..common] != b[..common] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_types::{TxSample, ValidatorId};

    fn ev(author: u32, txs: u64, samples: Vec<TxSample>) -> CommitEvent {
        CommitEvent {
            author: ValidatorId(author),
            tx_count: txs,
            tx_bytes: txs * 512,
            samples,
            round: 5,
            anchor_round: 7,
            ..Default::default()
        }
    }

    #[test]
    fn throughput_counts_each_creator_once() {
        // Two validators each commit the same two blocks; each block's txs
        // are counted only by its author.
        let commits = vec![
            (6 * SEC, 0usize, ev(0, 100, vec![])),
            (6 * SEC, 0usize, ev(1, 200, vec![])), // replayed at node 0: not author's node
            (6 * SEC, 1usize, ev(0, 100, vec![])),
            (6 * SEC, 1usize, ev(1, 200, vec![])),
        ];
        let stats = RunStats::from_commits(&commits, 10 * SEC, 2);
        // Window is 8 s; only (node 0, author 0) and (node 1, author 1).
        assert!((stats.throughput_tps - 300.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_is_discarded() {
        let commits = vec![
            (SEC, 0usize, ev(0, 1_000, vec![])),
            (6 * SEC, 0usize, ev(0, 100, vec![])),
        ];
        let stats = RunStats::from_commits(&commits, 10 * SEC, 1);
        assert!((stats.throughput_tps - 100.0 / 8.0).abs() < 1e-9);
        assert_eq!(stats.total_txs, 1_100, "total still counts everything");
    }

    #[test]
    fn latency_percentiles_and_dedup() {
        let mk = |id, submit, at| {
            (
                at,
                0usize,
                ev(
                    0,
                    1,
                    vec![TxSample {
                        id,
                        submit_ns: submit,
                    }],
                ),
            )
        };
        let commits = vec![
            mk(1, 5 * SEC, 6 * SEC), // 1 s
            mk(1, 5 * SEC, 6 * SEC), // duplicate sample id: ignored
            mk(2, 5 * SEC, 8 * SEC), // 3 s
        ];
        let stats = RunStats::from_commits(&commits, 10 * SEC, 1);
        assert_eq!(stats.samples, 2);
        assert!((stats.avg_latency_s - 2.0).abs() < 1e-9);
        assert!(
            (stats.p50_latency_s - 1.0).abs() < 1e-9 || (stats.p50_latency_s - 3.0).abs() < 1e-9
        );
        assert!((stats.commit_rounds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn commit_counters_average_per_validator_finals() {
        let mk = |node: usize, direct, indirect| {
            (
                6 * SEC,
                node,
                CommitEvent {
                    author: ValidatorId(node as u32),
                    direct_commits: direct,
                    indirect_commits: indirect,
                    ..Default::default()
                },
            )
        };
        // Counters are cumulative: only each node's final value counts.
        let commits = vec![mk(0, 2, 0), mk(0, 5, 1), mk(1, 3, 3)];
        let stats = RunStats::from_commits(&commits, 10 * SEC, 2);
        assert!((stats.direct_commits - 4.0).abs() < 1e-9, "(5 + 3) / 2");
        assert!((stats.indirect_commits - 2.0).abs() < 1e-9, "(1 + 3) / 2");
    }

    #[test]
    fn decision_rounds_measure_depth_at_decision_time() {
        let mk = |round, decided| {
            (
                6 * SEC,
                0usize,
                CommitEvent {
                    author: ValidatorId(0),
                    round,
                    anchor_round: round,
                    decided_round: decided,
                    ..Default::default()
                },
            )
        };
        let commits = vec![mk(3, 5), mk(4, 5), mk(5, 6)];
        let stats = RunStats::from_commits(&commits, 10 * SEC, 1);
        assert!((stats.decision_rounds - (2.0 + 1.0 + 1.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sequence_helpers_detect_divergence() {
        let ev_at = |node: usize, round, author| {
            (
                SEC,
                node,
                CommitEvent {
                    round,
                    author: ValidatorId(author),
                    ..Default::default()
                },
            )
        };
        let commits = vec![
            ev_at(0, 1, 0),
            ev_at(0, 3, 1),
            ev_at(1, 1, 0),
            ev_at(2, 1, 0), // worker node id: ignored given nodes = 2
        ];
        let seqs = committed_sequences(&commits, 2);
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0], vec![(1, ValidatorId(0)), (3, ValidatorId(1))]);
        assert!(sequences_prefix_consistent(&seqs), "shorter view agrees");
        let diverged = vec![
            vec![(1, ValidatorId(0)), (3, ValidatorId(1))],
            vec![(1, ValidatorId(0)), (3, ValidatorId(2))],
        ];
        assert!(!sequences_prefix_consistent(&diverged));
        // Non-transitivity guard: a short middle sequence must not mask a
        // first/last divergence.
        let masked = vec![
            vec![(1, ValidatorId(0)), (3, ValidatorId(1))],
            vec![(1, ValidatorId(0))],
            vec![(1, ValidatorId(0)), (3, ValidatorId(2))],
        ];
        assert!(!sequences_prefix_consistent(&masked));
    }
}
