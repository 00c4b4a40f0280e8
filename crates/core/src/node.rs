//! Node construction and the role-agnostic driver surface.
//!
//! [`NodeBuilder`] is the one configuration surface every host is built
//! through, and [`Node`] wraps either
//! role behind the uniform `on_start` / `handle` / `on_timer` driver API —
//! the contract both hosts of the state machines (the deterministic
//! simulator and the real-socket `nt_runtime`) program against.
//!
//! A [`Node`] additionally owns the [`CommitStream`] subscription tap:
//! applications subscribe *before* handing the node to a runtime and then
//! receive every [`CommitEvent`] the embedded consensus produces, without
//! the host having to interpret [`Effect::Commit`] itself.

use crate::config::NarwhalConfig;
use crate::consensus::DagConsensus;
use crate::deployment::AddressBook;
use crate::messages::NarwhalMsg;
use crate::primary::{Identity, Primary};
use crate::store::BlockStore;
use crate::worker::Worker;
use nt_crypto::KeyPair;
use nt_execution::Execution;
use nt_network::{
    bounded, Actor, BoundedReceiver, BoundedSender, Context, Effect, NodeId, Refused,
};
use nt_storage::{DynStore, MemStore};
use nt_types::{CommitEvent, Committee, ValidatorId, WorkerId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Builder for one host (primary or worker) of one validator.
///
/// The builder is role-agnostic: configure committee-wide parameters once,
/// then call [`build_primary`](NodeBuilder::build_primary) /
/// [`build_worker`](NodeBuilder::build_worker) for the bare state machines,
/// or [`primary_node`](NodeBuilder::primary_node) /
/// [`worker_node`](NodeBuilder::worker_node) for driver-ready [`Node`]s.
///
/// # Examples
///
/// ```
/// use narwhal::{NoConsensus, NodeBuilder};
/// use nt_crypto::Scheme;
/// use nt_types::{Committee, WorkerId};
///
/// let (committee, keypairs) = Committee::deterministic(4, 1, Scheme::Insecure);
/// let primary = NodeBuilder::new(committee.clone(), 0)
///     .keypair(keypairs[0].clone())
///     .primary_node(NoConsensus);
/// let worker = NodeBuilder::new(committee, 0).worker_node::<narwhal::NoExt>(WorkerId(0));
/// ```
pub struct NodeBuilder {
    committee: Committee,
    me: ValidatorId,
    config: NarwhalConfig,
    keypair: Option<KeyPair>,
    store: Option<DynStore>,
    execution: Option<Box<dyn Execution>>,
}

impl NodeBuilder {
    /// Starts a builder for validator `me` of `committee`.
    ///
    /// Defaults: the paper's [`NarwhalConfig`], a fresh in-memory store per
    /// host, no keypair (only primaries need one).
    pub fn new(committee: Committee, me: u32) -> Self {
        NodeBuilder {
            committee,
            me: ValidatorId(me),
            config: NarwhalConfig::default(),
            keypair: None,
            store: None,
            execution: None,
        }
    }

    /// Replaces the protocol parameters (defaults are the paper's §7 setup).
    pub fn config(mut self, config: NarwhalConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the signing keypair (required for primaries).
    pub fn keypair(mut self, keypair: KeyPair) -> Self {
        self.keypair = Some(keypair);
        self
    }

    /// Persists through `store` and recovers from it on start; without it,
    /// each host writes through a fresh store in memory of its own, which
    /// no restart outlives. `narwhal-node` gives each role a WAL of its
    /// own; a simulated validator's primary and workers share one backend
    /// (the paper's per-validator RocksDB instance).
    pub fn store(mut self, store: DynStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches an execution engine to the primary: every committed block
    /// is applied in sequence order and its [`CommitEvent`] is emitted with
    /// the resulting `app_root` stamped. Workers ignore this. Its state is
    /// persisted after every commit, and snapshotted every
    /// `snapshot_interval` commits.
    pub fn execution(mut self, execution: Box<dyn Execution>) -> Self {
        self.execution = Some(execution);
        self
    }

    /// The flat `(validator, role) -> NodeId` layout of the committee.
    pub fn address_book(&self) -> AddressBook {
        let workers = self.committee.num_workers(ValidatorId(0));
        AddressBook::new(self.committee.size(), workers)
    }

    /// Builds the bare primary state machine (no [`Node`] wrapper).
    ///
    /// # Panics
    ///
    /// Panics if no keypair was set.
    pub fn build_primary<C: DagConsensus>(self, consensus: C) -> Primary<C> {
        let id = Identity {
            addr: self.address_book(),
            // Invariant of the caller, documented above.
            keypair: self
                .keypair
                .expect("NodeBuilder: a primary needs a keypair"),
            committee: self.committee,
            config: self.config,
            me: self.me,
            store: own_store(self.store),
        };
        Primary::build(id, consensus, self.execution)
    }

    /// Builds the bare worker state machine for slot `worker`.
    pub fn build_worker<Ext: Clone + Send + 'static>(self, worker: WorkerId) -> Worker<Ext> {
        let addr = self.address_book();
        let store = own_store(self.store);
        Worker::build(self.committee, self.config, addr, self.me, worker, store)
    }

    /// Builds a driver-ready primary [`Node`].
    pub fn primary_node<C: DagConsensus + 'static>(self, consensus: C) -> Node<C::Ext> {
        let me = self.me;
        Node::wrap(
            Box::new(self.build_primary(consensus)),
            me,
            NodeRole::Primary,
        )
    }

    /// Builds a driver-ready worker [`Node`] for slot `worker`.
    pub fn worker_node<Ext: Clone + Send + 'static>(self, worker: WorkerId) -> Node<Ext> {
        let me = self.me;
        Node::wrap(
            Box::new(self.build_worker::<Ext>(worker)),
            me,
            NodeRole::Worker(worker),
        )
    }
}

/// The store a host writes through: the one it was given, or a fresh one.
fn own_store(store: Option<DynStore>) -> BlockStore {
    BlockStore::new(store.unwrap_or_else(|| Arc::new(MemStore::new())))
}

/// The role a [`Node`] plays within its validator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeRole {
    /// The DAG-building primary.
    Primary,
    /// A batch-disseminating worker slot.
    Worker(WorkerId),
}

struct CommitSub {
    tx: BoundedSender<CommitEvent>,
    dropped: Arc<AtomicU64>,
}

/// A role-agnostic protocol host: either role behind one driver surface.
///
/// Both runtimes drive a `Node` identically — [`Node::on_start`] once, then
/// [`Node::handle`] per delivered message and [`Node::on_timer`] per fired
/// timer, each against a fresh [`Context`] whose effects the host applies
/// afterwards. `Node` also implements [`Actor`], so it drops into the
/// simulator unchanged.
///
/// Commit events are teed into any [`CommitStream`]s subscribed via
/// [`Node::subscribe_commits`] as a side effect of handling; the effects
/// themselves still reach the host untouched.
pub struct Node<Ext: Clone + Send + 'static> {
    actor: Box<dyn Actor<Message = NarwhalMsg<Ext>>>,
    validator: ValidatorId,
    role: NodeRole,
    subs: Vec<CommitSub>,
}

impl<Ext: Clone + Send + 'static> Node<Ext> {
    fn wrap(
        actor: Box<dyn Actor<Message = NarwhalMsg<Ext>>>,
        validator: ValidatorId,
        role: NodeRole,
    ) -> Self {
        Node {
            actor,
            validator,
            role,
            subs: Vec::new(),
        }
    }

    /// The validator this node belongs to.
    pub fn validator(&self) -> ValidatorId {
        self.validator
    }

    /// This node's role.
    pub fn role(&self) -> NodeRole {
        self.role
    }

    /// Subscribes to the node's committed sequence, holding at most
    /// `capacity` unread events. Subscribe before handing the node to a
    /// runtime.
    ///
    /// `capacity` is a bound, not a reservation: the subscription's memory
    /// follows the events queued in it, so a deep bound costs nothing while
    /// the consumer keeps up. If a subscriber falls `capacity` events
    /// behind, further events are dropped for it (never blocking the
    /// protocol thread) and counted in [`CommitStream::dropped`].
    pub fn subscribe_commits(&mut self, capacity: usize) -> CommitStream {
        let (tx, rx) = bounded(capacity.max(1));
        let dropped = Arc::new(AtomicU64::new(0));
        self.subs.push(CommitSub {
            tx,
            dropped: dropped.clone(),
        });
        CommitStream { rx, dropped }
    }

    /// Delivers one message from `from`, collecting effects into `ctx`.
    pub fn handle(
        &mut self,
        from: NodeId,
        msg: NarwhalMsg<Ext>,
        ctx: &mut Context<NarwhalMsg<Ext>>,
    ) {
        let before = ctx.len();
        self.actor.on_message(from, msg, ctx);
        self.tee_commits(ctx, before);
    }

    /// Fires a previously requested timer.
    pub fn on_timer(&mut self, tag: u64, ctx: &mut Context<NarwhalMsg<Ext>>) {
        let before = ctx.len();
        self.actor.on_timer(tag, ctx);
        self.tee_commits(ctx, before);
    }

    /// Starts the node (recovery, first proposal, initial timers).
    pub fn on_start(&mut self, ctx: &mut Context<NarwhalMsg<Ext>>) {
        let before = ctx.len();
        self.actor.on_start(ctx);
        self.tee_commits(ctx, before);
    }

    fn tee_commits(&mut self, ctx: &Context<NarwhalMsg<Ext>>, from_index: usize) {
        if self.subs.is_empty() {
            return;
        }
        for effect in &ctx.effects()[from_index..] {
            if let Effect::Commit(event) = effect {
                self.subs
                    .retain(|sub| match sub.tx.try_send_with(|| event.clone()) {
                        Ok(()) => true,
                        Err(Refused::Full) => {
                            sub.dropped.fetch_add(1, Ordering::Relaxed);
                            true
                        }
                        Err(Refused::Disconnected) => false,
                    });
            }
        }
    }
}

impl<Ext: Clone + Send + 'static> Actor for Node<Ext> {
    type Message = NarwhalMsg<Ext>;

    fn on_start(&mut self, ctx: &mut Context<Self::Message>) {
        Node::on_start(self, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>) {
        Node::handle(self, from, msg, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<Self::Message>) {
        Node::on_timer(self, tag, ctx);
    }
}

/// A bounded subscription to one node's committed sequence.
///
/// Events arrive in commit order. The stream never blocks the node: if the
/// consumer lags past the subscription capacity, events are dropped and
/// [`CommitStream::dropped`] counts them.
pub struct CommitStream {
    rx: BoundedReceiver<CommitEvent>,
    dropped: Arc<AtomicU64>,
}

impl CommitStream {
    /// Returns the next buffered event without blocking.
    pub fn try_next(&self) -> Option<CommitEvent> {
        self.rx.try_recv().ok()
    }

    /// Waits for the next event, however long the committee takes.
    ///
    /// `None` means the node is gone and every event it teed was taken.
    pub fn next(&self) -> Option<CommitEvent> {
        self.rx.recv().ok()
    }

    /// Waits up to `timeout` for the next event.
    ///
    /// `None` means the timeout elapsed or the node is gone.
    pub fn next_timeout(&self, timeout: Duration) -> Option<CommitEvent> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Drains all currently buffered events.
    pub fn drain(&self) -> Vec<CommitEvent> {
        std::iter::from_fn(|| self.try_next()).collect()
    }

    /// Number of events dropped because this subscriber lagged.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{NoConsensus, NoExt};
    use nt_crypto::Scheme;
    use nt_network::CLIENT;
    use nt_types::Transaction;

    type Msg = NarwhalMsg<NoExt>;

    fn committee4() -> (Committee, Vec<KeyPair>) {
        Committee::deterministic(4, 1, Scheme::Insecure)
    }

    #[test]
    fn builder_assembles_a_primary_node() {
        let (committee, kps) = committee4();
        let mut node = NodeBuilder::new(committee, 0)
            .keypair(kps[0].clone())
            .primary_node(NoConsensus);
        assert_eq!(node.validator(), ValidatorId(0));
        assert_eq!(node.role(), NodeRole::Primary);
        let mut ctx = Context::new(0, 0);
        node.on_start(&mut ctx);
        assert!(
            !ctx.is_empty(),
            "a starting primary proposes and arms timers"
        );
    }

    #[test]
    fn builder_assembles_a_worker_node() {
        let (committee, _) = committee4();
        let mut node = NodeBuilder::new(committee, 2).worker_node::<NoExt>(WorkerId(0));
        assert_eq!(node.role(), NodeRole::Worker(WorkerId(0)));
        // A worker accepts a client transaction without a keypair.
        let mut ctx = Context::new(0, 6);
        node.handle(
            CLIENT,
            NarwhalMsg::ClientTx(Transaction::filler(1, 0, 64)),
            &mut ctx,
        );
    }

    #[test]
    fn builder_address_book_matches_manual_layout() {
        let (committee, _) = Committee::deterministic(4, 3, Scheme::Insecure);
        let book = NodeBuilder::new(committee, 0).address_book();
        assert_eq!(book.total_hosts(), 4 + 4 * 3);
    }

    #[test]
    #[should_panic(expected = "needs a keypair")]
    fn primary_without_keypair_panics() {
        let (committee, _) = committee4();
        let _ = NodeBuilder::new(committee, 0).primary_node(NoConsensus);
    }

    /// Commits sequences `1..=self.0` on every message.
    struct Committer(u64);

    impl Actor for Committer {
        type Message = Msg;
        fn on_message(&mut self, _: NodeId, _: Msg, ctx: &mut Context<Msg>) {
            for sequence in 1..=self.0 {
                ctx.commit(CommitEvent {
                    sequence,
                    ..CommitEvent::default()
                });
            }
        }
    }

    /// A node around [`Committer`] and the context after one message.
    fn committer_node(commits: u64, subscribe: usize) -> (Node<NoExt>, CommitStream, Context<Msg>) {
        let actor = Box::new(Committer(commits));
        let mut node = Node::wrap(actor, ValidatorId(0), NodeRole::Primary);
        let stream = node.subscribe_commits(subscribe);
        (node, stream, Context::new(0, 0))
    }

    fn any_message() -> Msg {
        NarwhalMsg::ClientTx(Transaction::filler(0, 0, 16))
    }

    #[test]
    fn commit_stream_receives_teed_commits() {
        let (mut node, stream, mut ctx) = committer_node(1, 8);
        node.handle(CLIENT, any_message(), &mut ctx);
        assert_eq!(stream.try_next().map(|e| e.sequence), Some(1));
        assert!(stream.try_next().is_none());
        // The commit effect still reaches the host verbatim.
        assert!(ctx.effects().iter().any(|e| matches!(e, Effect::Commit(_))));
    }

    #[test]
    fn lagging_commit_stream_drops_and_counts() {
        let (mut node, stream, mut ctx) = committer_node(4, 2);
        node.handle(CLIENT, any_message(), &mut ctx);
        assert_eq!(stream.drain().len(), 2);
        assert_eq!(stream.dropped(), 2);
        // After the consumer takes k events, exactly k more fit: k = 2 of
        // the next four commits, then k = 1 of the four after.
        node.handle(CLIENT, any_message(), &mut ctx);
        assert_eq!(stream.dropped(), 4);
        assert_eq!(stream.try_next().map(|e| e.sequence), Some(1));
        node.handle(CLIENT, any_message(), &mut ctx);
        assert_eq!(stream.dropped(), 7);
        let sequences: Vec<u64> = stream.drain().iter().map(|e| e.sequence).collect();
        assert_eq!(sequences, vec![2, 1]);
    }

    #[test]
    fn next_waits_for_a_late_commit_and_ends_with_the_node() {
        let (mut node, stream, mut ctx) = committer_node(1, 8);
        let consumer = std::thread::spawn(move || (stream.next(), stream.next()));
        // Longer than any poll a consumer might use in place of waiting.
        std::thread::sleep(Duration::from_millis(300));
        assert!(!consumer.is_finished(), "next() gave up before the commit");
        node.handle(CLIENT, any_message(), &mut ctx);
        drop(node);
        let (late, after_drop) = consumer.join().expect("consumer thread");
        assert_eq!(late.map(|e| e.sequence), Some(1));
        assert!(after_drop.is_none(), "next() ends once the node is gone");
    }

    #[test]
    fn dropped_stream_unsubscribes() {
        let (mut node, stream, mut ctx) = committer_node(1, 1);
        drop(stream);
        assert_eq!(node.subs.len(), 1, "cleanup is lazy");
        // The next commit finds the receiver gone and forgets the sender.
        node.handle(CLIENT, any_message(), &mut ctx);
        assert!(node.subs.is_empty());
    }
}
