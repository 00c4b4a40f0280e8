//! The node driver: one thread turning transport deliveries and timer
//! deadlines into [`Node`] callbacks, and the node's effects back into
//! socket writes.
//!
//! This is the real-I/O counterpart of the simulator's event loop, and the
//! only wall-clock one: the same `on_start` → (`handle` | `on_timer`)*
//! contract, driven by a monotonic clock. Effects map as follows:
//!
//! - `Send { to, msg }` — encoded once and queued on the transport; sends
//!   addressed to [`CLIENT`] are dropped (a real deployment has no return
//!   path to an anonymous client connection).
//! - `Timer { delay, tag }` — armed on a monotonic [`TimerWheel`].
//! - `Commit(..)` — already teed into [`CommitStream`] subscribers by the
//!   [`Node`] wrapper; the driver does not interpret it.
//! - `Cpu { .. }` — ignored: real CPU time is really spent here.
//!
//! [`CommitStream`]: narwhal::CommitStream

use crate::timer::TimerWheel;
use crate::transport::Transport;
use narwhal::{NarwhalMsg, Node};
use nt_codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use nt_network::{Context, Effect, Time, CLIENT};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fallback wait when no timer is pending.
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// Handle to a spawned node driver thread.
pub struct DriverHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl DriverHandle {
    /// Signals the driver to stop and joins it (closing its transport).
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}

/// Spawns a thread driving `node` over `transport` until stopped.
pub fn spawn_node<Ext>(node: Node<Ext>, transport: Transport) -> DriverHandle
where
    Ext: Clone + Send + Encode + Decode + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let thread = std::thread::spawn(move || {
        drive(node, transport, &stop_flag);
    });
    DriverHandle { stop, thread }
}

/// Runs the drive loop on the current thread until `stop` is set.
pub fn drive<Ext>(mut node: Node<Ext>, transport: Transport, stop: &AtomicBool)
where
    Ext: Clone + Send + Encode + Decode + 'static,
{
    let start = Instant::now();
    let now_ns = |start: Instant| -> Time { start.elapsed().as_nanos() as Time };
    let mut timers = TimerWheel::new();

    let me = transport.node_id();

    let mut ctx = Context::new(now_ns(start), me);
    node.on_start(&mut ctx);
    apply_effects(ctx.drain(), &transport, &mut timers, now_ns(start));

    while !stop.load(Ordering::SeqCst) {
        // Fire everything due.
        let now = now_ns(start);
        while let Some(tag) = timers.pop_due(now) {
            let mut ctx = Context::new(now, me);
            node.on_timer(tag, &mut ctx);
            apply_effects(ctx.drain(), &transport, &mut timers, now);
        }

        // Wait for the next delivery or the next deadline.
        let wait = match timers.next_deadline() {
            Some(at) => Duration::from_nanos(at.saturating_sub(now_ns(start))).min(IDLE_WAIT),
            None => IDLE_WAIT,
        };
        if let Some((from, payload)) = transport.recv_timeout(wait) {
            // Undecodable payloads are dropped: the framing layer already
            // authenticated shape, but a peer may still speak garbage — a
            // byzantine input, not a local fault.
            let Ok(msg) = decode_from_slice::<NarwhalMsg<Ext>>(&payload) else {
                continue;
            };
            let now = now_ns(start);
            let mut ctx = Context::new(now, me);
            node.handle(from, msg, &mut ctx);
            apply_effects(ctx.drain(), &transport, &mut timers, now);
        }
    }
    transport.shutdown();
}

fn apply_effects<Ext>(
    effects: Vec<Effect<NarwhalMsg<Ext>>>,
    transport: &Transport,
    timers: &mut TimerWheel,
    now: Time,
) where
    Ext: Clone + Send + Encode + 'static,
{
    for effect in effects {
        match effect {
            Effect::Send { to, msg } => {
                if to != CLIENT {
                    transport.send(to, encode_to_vec(&msg));
                }
            }
            Effect::Timer { delay, tag } => timers.arm(now + delay, tag),
            Effect::Commit(_) => {} // teed by the Node wrapper
            Effect::Cpu { .. } => {}
        }
    }
}
