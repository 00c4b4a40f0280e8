//! Commit events: what the consensus layer delivers to the application.

use crate::committee::{ValidatorId, WorkerId};
use crate::transaction::TxSample;
use crate::Round;
use nt_crypto::Digest;

/// Why a primary's blocks were proposed, one count per trigger: what ended
/// the proposal wait. Cumulative since the primary started. Narrow counters:
/// the struct rides every [`CommitEvent`], and commit subscribers size
/// their buffers by it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProposalCounts {
    /// Own batch digests were pending.
    pub payload: u32,
    /// Idle, but the round was live: certified payload still awaited its
    /// anchor.
    pub followed: u32,
    /// Idle in an idle round: `max_header_delay` ran out.
    pub deadline: u32,
    /// Ready earlier, but held only for the parent the consensus protocol
    /// wished for (the parent wish, e.g. Bullshark's wave leader) until it
    /// arrived or the leader timeout ran out.
    pub wish: u32,
}

/// One committed block's worth of output, emitted by a consensus actor.
///
/// The metrics collector aggregates these to compute throughput (committed
/// transactions and bytes per second) and latency (via the embedded
/// [`TxSample`]s), exactly as the paper's benchmark scripts parse client and
/// node logs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitEvent {
    /// Consensus-assigned sequence index of this block in the total order.
    pub sequence: u64,
    /// DAG round (or HotStuff view) of the committed block.
    pub round: Round,
    /// Creator of the committed block.
    pub author: ValidatorId,
    /// Number of transactions committed with this block.
    pub tx_count: u64,
    /// Number of transaction payload bytes committed with this block.
    pub tx_bytes: u64,
    /// Latency samples carried by the committed batches.
    pub samples: Vec<TxSample>,
    /// The round of the consensus anchor (Tusk wave leader / HotStuff
    /// commit) that caused this block to commit; used to study commit
    /// latency in rounds.
    pub anchor_round: Round,
    /// Batch references committed with this block: the execution engine
    /// retrieves the data from the named worker (§8.4 — "Narwhal's
    /// certificates irrevocably indicate which worker holds the
    /// transaction data").
    pub payload: Vec<(Digest, WorkerId)>,
    /// The emitting validator's highest DAG round when this block was
    /// ordered — the round the commit *decision* became possible locally.
    /// `decided_round - round` measures commit depth in rounds: Tusk
    /// decides a wave one round after its coin reveal, Bullshark at the
    /// wave's voting round, and this field makes that gap observable.
    pub decided_round: Round,
    /// Cumulative count of anchors the emitting validator committed
    /// directly (by vote quorum) up to and including this event.
    pub direct_commits: u64,
    /// Cumulative count of anchors committed indirectly (via the recursive
    /// path rule) up to and including this event.
    pub indirect_commits: u64,
    /// The emitting validator's proposal triggers up to this event.
    pub proposals: ProposalCounts,
    /// Application state root after executing this block, stamped by the
    /// attached execution engine. Zero when no engine is attached: the
    /// mempool/consensus layers never interpret it.
    pub app_root: Digest,
    /// Digest of the committed block's header. `(round, author)` does not
    /// identify a block when the creator equivocates — two validly-signed
    /// twins can occupy the same slot — so safety checkers compare commits
    /// by digest. Zero for events replayed from storage paths that predate
    /// the field (the checkers treat zero as "unknown").
    pub header_digest: Digest,
}

impl CommitEvent {
    /// Merges another event's counters into this one (used when a single
    /// anchor flushes a sub-DAG of blocks).
    pub fn absorb(&mut self, other: CommitEvent) {
        self.tx_count += other.tx_count;
        self.tx_bytes += other.tx_bytes;
        self.samples.extend(other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = CommitEvent {
            tx_count: 5,
            tx_bytes: 100,
            samples: vec![TxSample {
                id: 1,
                submit_ns: 10,
            }],
            ..Default::default()
        };
        let b = CommitEvent {
            tx_count: 7,
            tx_bytes: 200,
            samples: vec![TxSample {
                id: 2,
                submit_ns: 20,
            }],
            ..Default::default()
        };
        a.absorb(b);
        assert_eq!(a.tx_count, 12);
        assert_eq!(a.tx_bytes, 300);
        assert_eq!(a.samples.len(), 2);
    }
}
