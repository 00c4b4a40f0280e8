//! The plug-in interface consensus protocols implement over the DAG.
//!
//! Figure 3 of the paper: "Any consensus protocol can execute over the
//! mempool by occasionally ordering certificates to Narwhal blocks." This
//! trait is that boundary. The primary feeds every DAG insertion to the
//! consensus module; the module returns *anchors* — certificates whose
//! causal histories the primary then linearizes and commits. Protocols that
//! exchange their own messages (HotStuff) declare an extension message type
//! and implement the trait directly. Protocols that only interpret the DAG —
//! Tusk, DAG-Rider, Bullshark and its variants — are policies over the one
//! implementation in [`anchor_walk`](crate::anchor_walk), with the empty
//! [`NoExt`]. The trait is what the primary calls, nothing more: decisions
//! in, anchors out; counters, a crash checkpoint, and two bounded-wait
//! timing hints.

use crate::dag::Dag;
use nt_network::Time;
use nt_types::{Certificate, Round, ValidatorId};

/// Effects a consensus module can request.
pub struct ConsensusOut<Ext> {
    /// Anchor certificates in commit order; the primary linearizes each
    /// anchor's not-yet-ordered causal history.
    pub anchors: Vec<Certificate>,
    /// Anchors referenced by header digest (Narwhal-HS commits digests it
    /// may not hold as full certificates yet). The primary resolves them in
    /// order, pulling missing certificates first. `ValidatorId` is a hint
    /// for who should have the certificate.
    pub anchor_digests: Vec<(nt_crypto::Digest, ValidatorId)>,
    /// Certificates to pull proactively (availability checks before votes).
    pub request_certs: Vec<(nt_crypto::Digest, ValidatorId)>,
    /// Messages to send to specific peer primaries.
    pub sends: Vec<(ValidatorId, Ext)>,
    /// Messages to broadcast to all peer primaries.
    pub broadcasts: Vec<Ext>,
    /// Timers to arm (tag values are namespaced by the primary).
    pub timers: Vec<(Time, u64)>,
}

impl<Ext> Default for ConsensusOut<Ext> {
    fn default() -> Self {
        ConsensusOut {
            anchors: Vec::new(),
            anchor_digests: Vec::new(),
            request_certs: Vec::new(),
            sends: Vec::new(),
            broadcasts: Vec::new(),
            timers: Vec::new(),
        }
    }
}

/// A consensus protocol ordering the Narwhal DAG.
pub trait DagConsensus: Send {
    /// The protocol's own wire messages (see [`NoExt`] for none).
    type Ext: Clone + Send + 'static;

    /// Called once at start-up.
    fn on_start(&mut self, out: &mut ConsensusOut<Self::Ext>) {
        let _ = out;
    }

    /// Called after every certificate insertion into the local DAG.
    fn on_certificate(&mut self, dag: &Dag, cert: &Certificate, out: &mut ConsensusOut<Self::Ext>);

    /// Called when a consensus extension message arrives from a peer.
    fn on_message(
        &mut self,
        from: ValidatorId,
        msg: Self::Ext,
        dag: &Dag,
        out: &mut ConsensusOut<Self::Ext>,
    ) {
        let _ = (from, msg, dag, out);
    }

    /// Called when a consensus timer fires.
    fn on_timer(&mut self, tag: u64, dag: &Dag, out: &mut ConsensusOut<Self::Ext>) {
        let _ = (tag, dag, out);
    }

    /// Cumulative `(direct, indirect)` anchor-commit counts, for metrics.
    ///
    /// DAG protocols distinguish anchors committed by their own vote
    /// quorum (*direct*) from anchors ordered retroactively through the
    /// recursive path rule (*indirect*); the primary stamps both counters
    /// onto every [`nt_types::CommitEvent`] so benches can report the mix.
    /// Protocols without the distinction keep the `(0, 0)` default.
    fn commit_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Serializes the protocol's durable state (e.g. the last committed
    /// wave and commit counters) for the primary's crash checkpoint.
    ///
    /// The primary persists the blob after every batch of commits and hands
    /// it back through [`DagConsensus::restore`] when a restarted validator
    /// boots from its block store. Protocols whose decisions derive only
    /// from the retained DAG may keep the `None` default — but protocols
    /// that walk waves forward from their last commit (Tusk) *must*
    /// implement it: after GC the early waves' coin shares are gone, so
    /// re-deciding from wave 1 would deadlock.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state previously produced by [`DagConsensus::checkpoint`].
    ///
    /// Called once, before [`DagConsensus::on_start`], when a validator
    /// recovers from its block store. Unknown or truncated blobs should be
    /// ignored (the protocol then restarts conservatively from genesis
    /// state; safety never depends on the checkpoint).
    fn restore(&mut self, checkpoint: &[u8]) {
        let _ = checkpoint;
    }

    /// Parents the protocol would like present before the primary proposes
    /// its `round` block, as `(round - 1, author)` slots.
    ///
    /// This is the partial-synchrony hook: Bullshark-style protocols wait
    /// for the wave leader's certificate so voting-round blocks reference
    /// it and the leader commits in two rounds. It is purely a timing
    /// hint — the primary waits at most its header deadline (the same
    /// bound it applies to payload), then proposes without the wish, so
    /// liveness and safety never depend on it. The default waits for
    /// nothing.
    fn parent_wishes(&self, round: Round) -> Vec<(Round, ValidatorId)> {
        let _ = round;
        Vec::new()
    }

    /// Parents worth a *short*, payload-deadline-bounded wait before `me`
    /// proposes its `round` block, as `(round - 1, author)` slots.
    ///
    /// Where [`DagConsensus::parent_wishes`] buys a whole WAN round-trip
    /// for the one certificate a wave cannot commit without, this hook is
    /// a best-effort coverage hint for blocks whose *causal history* is
    /// what commits: an anchor ("leader block") sweeps everything it can
    /// reach, so an anchor proposed at bare 2f + 1 quorum strands the
    /// slowest validators' chains until a leader from their own region
    /// comes up — rounds of extra latency for their batches. Waiting the
    /// few extra milliseconds for full parent coverage is free as long as
    /// it stays inside the quorum slack (the gap between the anchor's own
    /// certificate forming and the 2f + 1st certificate the round advance
    /// actually waits for), which is why the primary bounds the wait by
    /// `max_header_delay`, not the leader timeout. The default wishes for
    /// nothing.
    fn coverage_wishes(&self, round: Round, me: ValidatorId) -> Vec<(Round, ValidatorId)> {
        let _ = (round, me);
        Vec::new()
    }
}

/// A boxed protocol is a protocol: hosts that pick the rule at run time
/// hold a `Box<dyn DagConsensus<Ext = _>>`.
impl<C: DagConsensus + ?Sized> DagConsensus for Box<C> {
    type Ext = C::Ext;

    fn on_start(&mut self, out: &mut ConsensusOut<Self::Ext>) {
        (**self).on_start(out)
    }

    fn on_certificate(&mut self, dag: &Dag, cert: &Certificate, out: &mut ConsensusOut<Self::Ext>) {
        (**self).on_certificate(dag, cert, out)
    }

    fn on_message(
        &mut self,
        from: ValidatorId,
        msg: Self::Ext,
        dag: &Dag,
        out: &mut ConsensusOut<Self::Ext>,
    ) {
        (**self).on_message(from, msg, dag, out)
    }

    fn on_timer(&mut self, tag: u64, dag: &Dag, out: &mut ConsensusOut<Self::Ext>) {
        (**self).on_timer(tag, dag, out)
    }

    fn commit_counts(&self) -> (u64, u64) {
        (**self).commit_counts()
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        (**self).checkpoint()
    }

    fn restore(&mut self, checkpoint: &[u8]) {
        (**self).restore(checkpoint)
    }

    fn parent_wishes(&self, round: Round) -> Vec<(Round, ValidatorId)> {
        (**self).parent_wishes(round)
    }

    fn coverage_wishes(&self, round: Round, me: ValidatorId) -> Vec<(Round, ValidatorId)> {
        (**self).coverage_wishes(round, me)
    }
}

/// The uninhabited extension type for zero-message-overhead protocols.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoExt {}

/// A consensus module that never commits (pure mempool operation).
///
/// Useful for benchmarking Narwhal's dissemination layer in isolation and
/// for tests of the mempool alone.
#[derive(Default)]
pub struct NoConsensus;

impl DagConsensus for NoConsensus {
    type Ext = NoExt;

    fn on_certificate(&mut self, _: &Dag, _: &Certificate, _: &mut ConsensusOut<NoExt>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_consensus_produces_nothing() {
        let mut nc = NoConsensus;
        let dag = Dag::new();
        let cert = Certificate::genesis(ValidatorId(0));
        let mut out = ConsensusOut::default();
        nc.on_certificate(&dag, &cert, &mut out);
        assert!(out.anchors.is_empty());
        assert!(out.sends.is_empty());
        assert!(out.broadcasts.is_empty());
        assert!(out.timers.is_empty());
    }
}
