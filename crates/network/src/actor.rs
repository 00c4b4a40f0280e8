//! The [`Actor`] trait and its effect vocabulary.

use nt_types::CommitEvent;

/// Identifies a host in a deployment (primary, worker, or client).
///
/// The mapping from `(validator, role)` to `NodeId` is owned by whoever
/// builds the deployment (the simulator topology or the socket runtime).
pub type NodeId = usize;

/// Simulation / wall-clock time in nanoseconds since start.
pub type Time = u64;

/// The reserved `NodeId` for external clients injecting messages.
pub const CLIENT: NodeId = usize::MAX;

/// An effect requested by an actor.
#[derive(Debug)]
pub enum Effect<M> {
    /// Send `msg` to node `to`. Delivery is at-most-once and unordered
    /// across peers; in-order per sender-receiver pair (TCP-like).
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// Request an `on_timer(tag)` callback after `delay` nanoseconds.
    Timer {
        /// Delay from now, in nanoseconds.
        delay: Time,
        /// Caller-chosen tag to recognize the timer.
        tag: u64,
    },
    /// Deliver a commit to the application / metrics collector.
    Commit(CommitEvent),
    /// Charge extra CPU time (nanoseconds) to this node beyond the
    /// simulator's per-message cost model — e.g. hashing a 500 KB batch.
    /// Ignored by the socket runtime (real CPU time is really spent there).
    Cpu {
        /// Nanoseconds of CPU work.
        nanos: u64,
    },
}

/// Per-event context handed to actors; collects effects.
pub struct Context<M> {
    now: Time,
    node: NodeId,
    effects: Vec<Effect<M>>,
}

impl<M> Context<M> {
    /// Creates a context for an event at `now` on `node`.
    pub fn new(now: Time, node: NodeId) -> Self {
        Context {
            now,
            node,
            effects: Vec::new(),
        }
    }

    /// Current time in nanoseconds.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The node this actor runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Queues a message send.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Queues sends of clones of `msg` to every node in `peers`.
    pub fn broadcast(&mut self, peers: impl IntoIterator<Item = NodeId>, msg: &M)
    where
        M: Clone,
    {
        for to in peers {
            self.send(to, msg.clone());
        }
    }

    /// Queues a timer.
    pub fn timer(&mut self, delay: Time, tag: u64) {
        self.effects.push(Effect::Timer { delay, tag });
    }

    /// Queues a commit event.
    pub fn commit(&mut self, event: CommitEvent) {
        self.effects.push(Effect::Commit(event));
    }

    /// Charges explicit CPU work to this node (simulation only).
    pub fn cpu(&mut self, nanos: u64) {
        self.effects.push(Effect::Cpu { nanos });
    }

    /// Takes the accumulated effects.
    pub fn drain(&mut self) -> Vec<Effect<M>> {
        std::mem::take(&mut self.effects)
    }

    /// Read-only view of the queued effects, without draining them.
    ///
    /// Hosts use this to observe what an actor produced (e.g. to tee
    /// [`Effect::Commit`]s into a subscription) before applying the batch.
    pub fn effects(&self) -> &[Effect<M>] {
        &self.effects
    }

    /// Number of queued effects (for tests).
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// True if no effects are queued.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }
}

/// A protocol participant as a deterministic state machine.
///
/// Actors never block, never read clocks, and never touch sockets: all
/// inputs arrive through the three callbacks and all outputs leave through
/// the [`Context`]. This makes every protocol in the repository
/// deterministic under the simulator and property-testable in isolation.
pub trait Actor: Send {
    /// The wire message type this actor exchanges.
    type Message: Clone + Send + 'static;

    /// Called once before any message delivery.
    fn on_start(&mut self, ctx: &mut Context<Self::Message>) {
        let _ = ctx;
    }

    /// Called for each delivered message.
    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>);

    /// Called when a previously requested timer fires.
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<Self::Message>) {
        let _ = (tag, ctx);
    }
}

impl<M: Clone + Send + 'static> Actor for Box<dyn Actor<Message = M>> {
    type Message = M;

    fn on_start(&mut self, ctx: &mut Context<M>) {
        (**self).on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<M>) {
        (**self).on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<M>) {
        (**self).on_timer(tag, ctx);
    }
}

/// Builds one fresh actor for a host; invoked once at start and once per
/// restart of that host (the simulator's crash-restart scenarios).
pub type ActorFactory<M> = Box<dyn FnMut() -> Box<dyn Actor<Message = M>> + Send>;

/// Messages routable by the simulator.
///
/// `wire_size` feeds the NIC model; `verify_count` is how many signature
/// verifications the receiver performs (e.g. a certificate carries `2f + 1`
/// of them). Systems implement this for their top-level message enums.
pub trait SimMessage: Clone + Send + 'static {
    /// Bytes this message occupies on the wire.
    fn wire_size(&self) -> usize;

    /// Signature verifications the receiver performs.
    fn verify_count(&self) -> usize {
        0
    }

    /// Signatures the sender created to produce this message, charged at
    /// every send of it.
    fn sign_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl Actor for Echo {
        type Message = u32;
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            ctx.send(from, msg + 1);
        }
    }

    #[test]
    fn context_collects_effects() {
        let mut ctx: Context<u32> = Context::new(5, 1);
        assert_eq!(ctx.now(), 5);
        assert_eq!(ctx.node(), 1);
        ctx.send(2, 10);
        ctx.timer(100, 7);
        ctx.cpu(50);
        assert_eq!(ctx.len(), 3);
        let effects = ctx.drain();
        assert_eq!(effects.len(), 3);
        assert!(ctx.is_empty());
    }

    #[test]
    fn broadcast_clones_to_all() {
        let mut ctx: Context<u32> = Context::new(0, 0);
        ctx.broadcast([1, 2, 3], &9);
        assert_eq!(ctx.len(), 3);
    }

    #[test]
    fn echo_actor_replies() {
        let mut actor = Echo;
        let mut ctx = Context::new(0, 0);
        actor.on_message(4, 41, &mut ctx);
        let effects = ctx.drain();
        match &effects[0] {
            Effect::Send { to, msg } => {
                assert_eq!(*to, 4);
                assert_eq!(*msg, 42);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }
}
