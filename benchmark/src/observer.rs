//! What the committee committed, and whether it was right.
//!
//! During a run the observer threads only append [`CommitRecord`]s. After
//! the drivers have stopped, [`check_logs`] and [`commit_times`] turn the
//! four per-validator logs into verdicts and per-transaction commit times.
//! Both are pure functions of the logs (and a batch resolver), so the
//! self-tests below can hand them doctored logs and watch them fail.

use crate::compat::{CommitEvent, Digest, ResolvedBatch};
use std::collections::HashMap;
use std::time::Duration;

/// One committed block as a primary's commit stream delivered it.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    pub sequence: u64,
    pub header_digest: Digest,
    pub app_root: Digest,
    /// Digests of the batches the block carries.
    pub payload: Vec<Digest>,
    /// When the observer received the event, from the run's origin.
    pub at: Duration,
    pub round: u64,
    pub decided_round: u64,
    /// `CommitEvent.tx_count`. Only filled on the block author's own
    /// primary, so it undercounts by design; used solely to end the drain
    /// early, never in a metric.
    pub own_tx_hint: u64,
}

impl CommitRecord {
    /// The part of `event` the benchmark keeps, received at `at`.
    pub fn from_event(event: &CommitEvent, at: Duration) -> Self {
        CommitRecord {
            sequence: event.sequence,
            header_digest: event.header_digest,
            app_root: event.app_root,
            payload: event.payload.iter().map(|(digest, _)| *digest).collect(),
            at,
            round: event.round,
            decided_round: event.decided_round,
            own_tx_hint: event.tx_count,
        }
    }
}

/// Checks (1) and (3): every validator's sequence is gapless from 1, all
/// validators agree on the header digest of every sequence number they
/// share, and with an app attached its root is non-zero and agreed.
pub fn check_logs(logs: &[Vec<CommitRecord>], expect_app_root: bool) -> Vec<String> {
    let mut errors = Vec::new();
    for (v, log) in logs.iter().enumerate() {
        if let Some((i, r)) = log
            .iter()
            .enumerate()
            .find(|(i, r)| r.sequence != *i as u64 + 1)
        {
            errors.push(format!(
                "validator {v}: sequence gap, position {} holds sequence {}",
                i + 1,
                r.sequence
            ));
        }
    }
    let Some(reference) = logs.iter().max_by_key(|log| log.len()) else {
        return errors;
    };
    for (v, log) in logs.iter().enumerate() {
        for (mine, theirs) in log.iter().zip(reference) {
            if mine.header_digest != theirs.header_digest {
                errors.push(format!(
                    "validator {v}: header digest at sequence {} differs from the longest log",
                    mine.sequence
                ));
                break;
            }
            if expect_app_root && mine.app_root != theirs.app_root {
                errors.push(format!(
                    "validator {v}: app_root at sequence {} differs from the longest log",
                    mine.sequence
                ));
                break;
            }
        }
        if expect_app_root {
            if let Some(r) = log.iter().find(|r| r.app_root == Digest::default()) {
                errors.push(format!(
                    "validator {v}: zero app_root at sequence {}",
                    r.sequence
                ));
            }
        }
    }
    errors
}

/// Check (2) and the latency clock: resolves every committed batch and
/// returns, per generated transaction (index = id - 1), when the primary
/// of the validator it was submitted to committed it.
///
/// Fails on a transaction committed twice, on an id the generator never
/// sent, and on a batch no worker store can serve. `fed` lists the
/// validators that received client traffic; a batch commits for its
/// transactions at its creator's primary.
pub fn commit_times(
    logs: &[Vec<CommitRecord>],
    fed: &[u32],
    sent: usize,
    mut resolve: impl FnMut(&Digest) -> Option<ResolvedBatch>,
) -> Result<Vec<Option<Duration>>, String> {
    // Resolve every committed batch once; the walks below only read.
    let mut batches: HashMap<Digest, ResolvedBatch> = HashMap::new();
    for digest in logs.iter().flatten().flat_map(|record| &record.payload) {
        if !batches.contains_key(digest) {
            let batch = resolve(digest)
                .ok_or_else(|| format!("committed batch {digest:?} is in no worker store"))?;
            batches.insert(*digest, batch);
        }
    }
    let index_of = |id: u64| -> Result<usize, String> {
        if id == 0 || id > sent as u64 {
            return Err(format!("committed transaction id {id} was never sent"));
        }
        Ok(id as usize - 1)
    };

    // At most once over the whole order: walk the longest log.
    let longest = logs
        .iter()
        .max_by_key(|log| log.len())
        .map_or(&[][..], |l| &l[..]);
    let mut seen = vec![false; sent];
    for record in longest {
        for digest in &record.payload {
            for &id in &batches[digest].tx_ids {
                let i = index_of(id)?;
                if std::mem::replace(&mut seen[i], true) {
                    return Err(format!(
                        "transaction {id} committed twice (again at sequence {})",
                        record.sequence
                    ));
                }
            }
        }
    }

    let mut commit_at = vec![None; sent];
    for &v in fed {
        for record in &logs[v as usize] {
            for digest in &record.payload {
                let batch = &batches[digest];
                if batch.creator.0 != v {
                    continue;
                }
                for &id in &batch.tx_ids {
                    let slot = &mut commit_at[index_of(id)?];
                    if slot.is_some() {
                        return Err(format!(
                            "transaction {id} committed twice at validator {v} (again at sequence {})",
                            record.sequence
                        ));
                    }
                    *slot = Some(record.at);
                }
            }
        }
    }
    Ok(commit_at)
}

/// Check (4): every surviving validator committed after the crash.
pub fn check_survivors_commit(
    logs: &[Vec<CommitRecord>],
    survivors: &[u32],
    crash_at: Duration,
) -> Vec<String> {
    survivors
        .iter()
        .filter(|&&v| !logs[v as usize].iter().any(|r| r.at > crash_at))
        .map(|v| format!("validator {v} committed nothing after the crash"))
        .collect()
}

/// Longest gap between consecutive payload-bearing commits in `log` inside
/// `[from, until]`, edges included: the time without service.
pub fn max_commit_gap(log: &[CommitRecord], from: Duration, until: Duration) -> Duration {
    let mut last = from;
    let mut worst = Duration::ZERO;
    for r in log.iter().filter(|r| !r.payload.is_empty()) {
        if r.at < from {
            continue;
        }
        if r.at > until {
            break;
        }
        worst = worst.max(r.at - last);
        last = r.at;
    }
    worst.max(until.saturating_sub(last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::ValidatorId;

    fn digest(n: u64) -> Digest {
        Digest::of(&n.to_le_bytes())
    }

    /// A healthy log of `len` blocks; block `s` carries batch `s`.
    fn log(len: u64) -> Vec<CommitRecord> {
        (1..=len)
            .map(|s| CommitRecord {
                sequence: s,
                header_digest: digest(1_000 + s),
                app_root: digest(2_000 + s),
                payload: vec![digest(s)],
                at: Duration::from_millis(100 * s),
                round: s,
                decided_round: s + 2,
                own_tx_hint: 0,
            })
            .collect()
    }

    /// Batch `s` (by the digests `log` uses) holds transactions 2s-1 and
    /// 2s, created by validator `s % 2`.
    fn resolver(batches: u64) -> impl FnMut(&Digest) -> Option<ResolvedBatch> {
        move |d| {
            (1..=batches)
                .find(|s| digest(*s) == *d)
                .map(|s| ResolvedBatch {
                    creator: ValidatorId((s % 2) as u32),
                    tx_ids: vec![2 * s - 1, 2 * s],
                })
        }
    }

    #[test]
    fn healthy_logs_pass_every_check() {
        let logs = vec![log(6), log(5), log(6), log(4)];
        assert!(check_logs(&logs, true).is_empty());
        let times = commit_times(&logs, &[0, 1], 12, resolver(6)).expect("clean");
        // Validator 1's log is one block short, but block 6 is validator
        // 0's: every transaction has a commit time.
        assert!(times.iter().all(Option::is_some));
        // Batch 3 (creator 1) committed at validator 1 at 300 ms.
        assert_eq!(times[4], Some(Duration::from_millis(300)));
    }

    #[test]
    fn a_gap_fails_the_run() {
        let mut gappy = log(6);
        gappy.remove(2);
        let errors = check_logs(&[log(6), gappy], false);
        assert!(
            errors.iter().any(|e| e.contains("sequence gap")),
            "{errors:?}"
        );
    }

    #[test]
    fn a_fork_fails_the_run() {
        let mut forked = log(6);
        forked[3].header_digest = digest(9);
        let errors = check_logs(&[log(6), forked], false);
        assert!(
            errors.iter().any(|e| e.contains("header digest")),
            "{errors:?}"
        );
    }

    #[test]
    fn a_mismatching_app_root_fails_the_run() {
        let mut diverged = log(6);
        diverged[4].app_root = digest(9);
        let errors = check_logs(&[log(6), diverged.clone()], true);
        assert!(errors.iter().any(|e| e.contains("app_root")), "{errors:?}");
        // Without an app attached the roots are all zero and not compared.
        assert!(check_logs(&[log(6), diverged], false).is_empty());
        let mut zeroed = log(6);
        zeroed[0].app_root = Digest::default();
        let errors = check_logs(&[zeroed.clone(), zeroed], true);
        assert!(
            errors.iter().any(|e| e.contains("zero app_root")),
            "{errors:?}"
        );
    }

    #[test]
    fn a_duplicate_transaction_id_fails_the_run() {
        // Batch 7 repeats transaction 3, which batch 2 already carries.
        let mut logs = vec![log(4), log(4)];
        for l in &mut logs {
            l[3].payload.push(digest(7));
        }
        let mut base = resolver(4);
        let result = commit_times(&logs, &[0, 1], 8, |d| {
            if *d == digest(7) {
                return Some(ResolvedBatch {
                    creator: ValidatorId(0),
                    tx_ids: vec![3],
                });
            }
            base(d)
        });
        let error = result.expect_err("duplicate must fail");
        assert!(error.contains("transaction 3 committed twice"), "{error}");
    }

    #[test]
    fn foreign_ids_and_lost_batches_fail_the_run() {
        let logs = vec![log(4), log(4)];
        let error = commit_times(&logs, &[0, 1], 4, resolver(4)).expect_err("id 5 was not sent");
        assert!(error.contains("never sent"), "{error}");
        let error = commit_times(&logs, &[0, 1], 8, resolver(3)).expect_err("batch 4 is gone");
        assert!(error.contains("no worker store"), "{error}");
    }

    #[test]
    fn uncommitted_transactions_have_no_commit_time() {
        let logs = vec![log(3), log(3)];
        let times = commit_times(&logs, &[0, 1], 8, resolver(3)).expect("clean");
        assert_eq!(times.iter().filter(|t| t.is_none()).count(), 2);
    }

    #[test]
    fn survivors_must_commit_after_the_crash() {
        let logs = vec![log(6), log(2), log(6)];
        let errors = check_survivors_commit(&logs, &[0, 1, 2], Duration::from_millis(450));
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("validator 1"));
    }

    #[test]
    fn commit_gap_counts_the_edges() {
        let ms = Duration::from_millis;
        let mut l = log(6);
        l[2].payload.clear(); // an empty block is not service
        assert_eq!(max_commit_gap(&l, ms(0), ms(600)), ms(200));
        assert_eq!(max_commit_gap(&l, ms(0), ms(1_500)), ms(900));
        assert_eq!(max_commit_gap(&[], ms(0), ms(700)), ms(700));
    }
}
