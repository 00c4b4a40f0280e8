//! Narwhal configuration with the paper's baseline parameters (§7).

use nt_network::{Time, MS};

/// Synthetic load generation (simulation mode).
///
/// In the paper, "one benchmark client per worker submits transactions at
/// a fixed rate"; in simulation mode each worker generates its own input
/// stream so that client-to-worker links (which are local) need not be
/// simulated. Only the source is synthetic: its transactions are virtual
/// arrivals, sealed by the same rules as client transactions (`worker.rs`).
#[derive(Clone, Copy, Debug)]
pub struct SyntheticLoad {
    /// Transactions per second submitted to this worker: the i-th arrives
    /// `i / rate_tps` seconds after the worker starts.
    pub rate_tps: f64,
}

/// Deliberate-bug switches for the schedule fuzzer's checker self-test.
///
/// Each switch disables one correctness mechanism the crash-recovery path
/// depends on. The `sim_fuzz` harness flips them one at a time and asserts
/// that its safety checkers *catch* the resulting misbehaviour — proving
/// the checkers are live, not vacuously green. Production and benchmark
/// code paths must leave this at `Default` (all off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTestBugs {
    /// Do not persist ordered markers on commit: a restarted validator
    /// forgets what it linearized and re-commits its whole history at
    /// fresh sequence numbers.
    pub skip_ordered_persist: bool,
    /// Do not persist the commit-sequence counter: a restarted validator
    /// numbers new commits from 1 again while peers continue.
    pub skip_sequence_persist: bool,
    /// Do not persist §3.1 vote locks before votes leave. With crash-only
    /// faults this cannot certify an equivocation (peers keep their locks),
    /// but against an *equivocating* adversary the forgotten lock is
    /// fatal: a restarted validator re-votes for the twin of a block it
    /// already signed, both twins certify, and the committee double-commits
    /// the payload — the `skip_vote_persist` self-test arm pairs this
    /// switch with [`crate::adversary::AdversaryKind::Equivocate`] to
    /// prove the persist is load-bearing.
    pub skip_vote_persist: bool,
    /// Skip the recovery step that re-derives in-flight own payloads from
    /// certified-but-uncommitted blocks: a restarted validator re-proposes
    /// batches already on their way to commit, committing them twice.
    pub skip_inflight_recovery: bool,
    /// Disable §4.1 pull synchronization (initial digest requests, their
    /// retries, and the batched round-range pull): a validator that misses
    /// certificates never recovers them and stalls behind the committee.
    pub disable_cert_pull: bool,
    /// Skip the durability barriers taken before a proposal's broadcast
    /// leaves and after an own certificate is persisted, re-opening the
    /// crash-consistency windows the fuzzer originally found: a torn tail
    /// can then erase a certificate whose broadcast already left (the
    /// restarted validator re-proposes its payload and the committee
    /// commits it twice — seed 219), or erase the in-flight proposal slot
    /// (the restarted validator can neither finish nor replace the round
    /// it already signed, and the round stalls).
    pub skip_sync_barriers: bool,
    /// Disable snapshot production, serving and fetching: a validator that
    /// falls more than `gc_depth` rounds behind has no state-transfer path
    /// left and stalls behind the committee forever (the pre-snapshot
    /// behaviour, kept so the fuzzer can prove the snapshot path is
    /// load-bearing).
    pub disable_snapshots: bool,
}

/// How long a request for what is missing — a certificate (§4.1), a batch,
/// a snapshot chunk — waits for its answer before it is sent again, to the
/// next peer; also the period of both roles' retry timer.
pub(crate) const SYNC_RETRY_DELAY: Time = 500 * MS;

/// How long an own block or batch goes without its quorum before it is
/// re-broadcast to the peers whose acknowledgment is missing.
pub(crate) const RESEND_DELAY: Time = 1_000 * MS;

/// Tunable Narwhal parameters.
#[derive(Clone, Debug)]
pub struct NarwhalConfig {
    /// Batch size bound in bytes (paper baseline: 500 KB): a buffer that
    /// reaches it is sealed whatever the clock says.
    pub batch_bytes: usize,
    /// The fallback bound on batching, never the pace: a worker seals what
    /// it buffered whenever a block of its own primary leaves (`worker.rs`),
    /// and this is how old the oldest buffered transaction may get if none
    /// does — the primary is down, or its beat was lost.
    pub max_batch_delay: Time,
    /// The one clock of round pacing: every wait of the proposer ends this
    /// long after the round was entered (`proposer.rs` has the full text).
    /// 1. An idle primary proposes an empty block at this deadline, unless
    ///    the round is *live* — certified payload still awaits its anchor —
    ///    in which case it proposes at once: rounds follow the commit, and
    ///    only an all-idle committee runs on this clock (empty blocks keep
    ///    the DAG, and thus consensus, alive).
    /// 2. A primary holds its next block, up to this deadline, for the
    ///    certificate of every previous-round block it voted for, its own
    ///    included: an author that collects votes and withholds the
    ///    certificate slows the committee to one round per delay, no more.
    /// 3. A block of an earlier retained round still gets its vote.
    /// 4. An own block not certified by the time its replacement is built —
    ///    this deadline at the latest — is given up, and the replacement
    ///    carries its payload first.
    pub max_header_delay: Time,
    /// Rounds kept in memory behind the last committed anchor (§3.3).
    pub gc_depth: u64,
    /// Take a durable, committee-signed snapshot every this many commits.
    /// Must map to fewer than `gc_depth` rounds between snapshot points,
    /// or the latest snapshot could itself be beyond the horizon a joiner
    /// can close with per-certificate sync. 0 turns state transfer off: no
    /// snapshot is produced, served or asked for — for runs that never
    /// restart a validator.
    pub snapshot_interval: u64,
    /// If set, workers self-generate synthetic load at this rate.
    pub load: Option<SyntheticLoad>,
    /// Deliberate-bug switches; all off outside the fuzzer's self-test.
    pub bugs: SelfTestBugs,
}

impl Default for NarwhalConfig {
    fn default() -> Self {
        NarwhalConfig {
            batch_bytes: 500_000,
            max_batch_delay: 100 * MS,
            max_header_delay: 100 * MS,
            gc_depth: 50,
            snapshot_interval: 32,
            load: None,
            bugs: SelfTestBugs::default(),
        }
    }
}

impl NarwhalConfig {
    /// Config with synthetic load at `rate_tps` transactions/sec per worker.
    pub fn with_load(rate_tps: f64) -> Self {
        NarwhalConfig {
            load: Some(SyntheticLoad { rate_tps }),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_baseline() {
        let c = NarwhalConfig::default();
        assert_eq!(c.batch_bytes, 500_000);
    }
}
