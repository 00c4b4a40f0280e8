//! The discrete-event simulation core.
//!
//! Execution model, per message from `A` to `B`:
//!
//! 1. **Send** (at actor-execution time `t`): `A`'s CPU is charged the send
//!    cost; the message then occupies `A`'s egress NIC for its
//!    serialization time (broadcasts serialize one after another — this is
//!    why a leader pushing a large block to `n-1` peers is slow, §3.2).
//! 2. **Propagation**: the link adds the sampled region-to-region delay.
//!    Delivery per (sender, receiver) pair is FIFO, like TCP.
//! 3. **Arrival**: the message occupies `B`'s ingress NIC (incast queues
//!    form here), then `B`'s CPU for the receive + verification cost, and
//!    only then does the actor's `on_message` run.
//!
//! Crashed hosts neither send nor receive. A crashed host can later
//! *restart*: a fresh actor is built by the host's factory (see
//! [`Simulation::new`]), its NIC/CPU queues reset, timers armed
//! by the previous incarnation are discarded, and messages that arrived
//! while the host was down stay dropped — exactly the fault model of the
//! paper's crash experiments plus the recovery path its RocksDB layer
//! exists for. Partitions drop messages between two host groups during an
//! interval, and delay spikes slow one link. All randomness comes from one
//! seeded RNG: runs are bit-for-bit reproducible.

use crate::cost;
use crate::topology::{nic_time, Topology};
use nt_network::{Actor, ActorFactory, Context, Effect, NodeId, SimMessage, Time};
use nt_types::CommitEvent;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A network partition between two host groups over a time interval.
#[derive(Clone, Debug)]
pub struct Partition {
    /// One side of the partition.
    pub group_a: Vec<NodeId>,
    /// The other side.
    pub group_b: Vec<NodeId>,
    /// Partition start (inclusive).
    pub from: Time,
    /// Partition end (exclusive).
    pub until: Time,
}

impl Partition {
    /// True if a message from `a` to `b` sent at `t` crosses the partition
    /// and is therefore dropped. The interval is start-inclusive and
    /// end-exclusive (`from <= t < until`), and the check is symmetric in
    /// direction: traffic is cut both ways for the whole window.
    pub fn crosses(&self, a: NodeId, b: NodeId, t: Time) -> bool {
        if t < self.from || t >= self.until {
            return false;
        }
        (self.group_a.contains(&a) && self.group_b.contains(&b))
            || (self.group_b.contains(&a) && self.group_a.contains(&b))
    }
}

/// A per-link delay spike: messages between hosts `a` and `b` (either
/// direction) sent during `[from, until)` suffer `extra` additional one-way
/// propagation delay — a congested or flapping link, as opposed to a
/// [`Partition`]'s total cut. Overlapping spikes on the same link do not
/// stack; the largest applies.
#[derive(Clone, Debug)]
pub struct LinkSpike {
    /// One endpoint of the link.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Spike start (inclusive).
    pub from: Time,
    /// Spike end (exclusive).
    pub until: Time,
    /// Additional one-way delay while the spike is active.
    pub extra: Time,
}

impl LinkSpike {
    /// True if a message from `x` to `y` sent at `t` is slowed by this
    /// spike. Same interval semantics as [`Partition::crosses`].
    pub fn applies(&self, x: NodeId, y: NodeId, t: Time) -> bool {
        if t < self.from || t >= self.until {
            return false;
        }
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed; same seed ⇒ identical run.
    pub seed: u64,
    /// Simulated duration in nanoseconds; events beyond it are discarded.
    pub duration: Time,
    /// `(node, time)` crash schedule.
    pub crashes: Vec<(NodeId, Time)>,
    /// `(node, time)` restart schedule. Each entry revives a crashed host
    /// with a *fresh* actor built by its factory. A host may crash and
    /// restart repeatedly — entries pair up with `crashes` by time order,
    /// and at the same instant a restart resolves before a crash (it closes
    /// the previous outage; the crash opens the next one).
    pub restarts: Vec<(NodeId, Time)>,
    /// Link partitions.
    pub partitions: Vec<Partition>,
    /// Per-link delay spikes.
    pub spikes: Vec<LinkSpike>,
}

impl SimConfig {
    /// A config with no faults.
    pub fn new(seed: u64, duration: Time) -> Self {
        SimConfig {
            seed,
            duration,
            crashes: Vec::new(),
            restarts: Vec::new(),
            partitions: Vec::new(),
            spikes: Vec::new(),
        }
    }
}

/// What a simulation run produced.
#[derive(Debug)]
pub struct SimResult {
    /// Every commit event: `(simulated time, node, event)`.
    pub commits: Vec<(Time, NodeId, CommitEvent)>,
    /// Messages delivered to actors.
    pub delivered: u64,
    /// Messages dropped (partitions, crashes).
    pub dropped: u64,
    /// Time of the last processed event.
    pub end_time: Time,
}

enum EventKind<M> {
    /// Run the actor's `on_start`.
    Start { node: NodeId },
    /// The message finished link propagation and reaches `to`'s ingress.
    Arrive { to: NodeId, from: NodeId, msg: M },
    /// The receiver's CPU finished processing; run `on_message`.
    ExecMsg {
        node: NodeId,
        from: NodeId,
        msg: M,
        /// Incarnation the ingress admitted the message for; stale after a
        /// restart in the (rare) window between arrival and execution.
        incarnation: u64,
    },
    /// A timer fires.
    Fire {
        node: NodeId,
        tag: u64,
        /// Incarnation that armed the timer; a restarted host must not see
        /// its predecessor's timers.
        incarnation: u64,
    },
    /// The host goes down (scheduled fault).
    Crash { node: NodeId },
    /// The host comes back with a fresh actor from its factory.
    Restart { node: NodeId },
}

struct Event<M> {
    time: Time,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[derive(Default)]
struct HostState {
    egress_free: Time,
    ingress_free: Time,
    cpu_free: Time,
    /// True between a crash and the matching restart (if any).
    down: bool,
    /// Bumped on every restart; stamps timers and in-flight executions.
    incarnation: u64,
}

/// Called when a host restarts, after the dead incarnation is dropped and
/// *before* its replacement actor is built — the window in which a fault
/// injector can mutate state the new incarnation will recover from (e.g.
/// tear the tail of the host's durable store, simulating a crash
/// mid-write). Arguments: the restarting host and the restart time.
pub type RestartHook = Box<dyn FnMut(NodeId, Time) + Send>;

/// Placeholder actor briefly installed while a restarting host's real
/// actor is rebuilt (lets the dead incarnation drop first).
struct Tombstone<M>(std::marker::PhantomData<fn() -> M>);

impl<M: Clone + Send + 'static> Actor for Tombstone<M> {
    type Message = M;
    fn on_message(&mut self, _: NodeId, _: M, _: &mut Context<M>) {}
}

/// A configured simulation ready to run, and the state of the run.
pub struct Simulation<M: SimMessage> {
    topology: Topology,
    config: SimConfig,
    /// `factories[i]()` builds the actor of `topology.hosts[i]`.
    factories: Vec<ActorFactory<M>>,
    actors: Vec<Box<dyn Actor<Message = M>>>,
    /// Invoked on every host restart, before the factory runs.
    restart_hook: Option<RestartHook>,
    hosts: Vec<HostState>,
    queue: BinaryHeap<Reverse<Event<M>>>,
    /// Order of scheduling: breaks ties between same-instant events.
    seq: u64,
    rng: SmallRng,
    /// FIFO clamp per (from, to) pair, emulating TCP ordering.
    last_arrival: HashMap<(NodeId, NodeId), Time>,
    commits: Vec<(Time, NodeId, CommitEvent)>,
    dropped: u64,
}

impl<M: SimMessage> Simulation<M> {
    /// Builds a simulation from per-host actor factories;
    /// `factories[i]()` builds the actor for `topology.hosts[i]`, and is
    /// called again whenever the config restarts that host. State an actor
    /// must carry *across* a crash (its durable store) lives outside the
    /// factory, captured by the closure — everything else is rebuilt fresh,
    /// which is exactly what makes the recovery path honest.
    ///
    /// # Panics
    ///
    /// Panics if the factory and host counts differ.
    pub fn new(topology: Topology, config: SimConfig, mut factories: Vec<ActorFactory<M>>) -> Self {
        assert_eq!(
            topology.len(),
            factories.len(),
            "one factory per topology host"
        );
        let actors: Vec<_> = factories.iter_mut().map(|f| f()).collect();
        let hosts = actors.iter().map(|_| HostState::default()).collect();
        Simulation {
            topology,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            factories,
            actors,
            restart_hook: None,
            hosts,
            queue: BinaryHeap::new(),
            seq: 0,
            last_arrival: HashMap::new(),
            commits: Vec::new(),
            dropped: 0,
        }
    }

    /// Installs a [`RestartHook`] invoked on every host restart (fault
    /// injection into recovered state, e.g. torn store tails).
    pub fn set_restart_hook(&mut self, hook: RestartHook) {
        self.restart_hook = Some(hook);
    }

    fn schedule(&mut self, time: Time, kind: EventKind<M>) {
        let seq = self.seq;
        self.queue.push(Reverse(Event { time, seq, kind }));
        self.seq += 1;
    }

    /// Runs to completion and returns the results.
    pub fn run(mut self) -> SimResult {
        let n = self.actors.len();
        let mut delivered: u64 = 0;
        let mut end_time: Time = 0;

        // Fault events first: their setup-time sequence numbers are lower
        // than any runtime event's, so a fault scheduled at time `t`
        // processes before same-instant deliveries — preserving the old
        // `now >= crashed_at` semantics exactly. Crashes and restarts are
        // merged in time order so schedules pair up as written; at the same
        // instant a restart resolves before a crash (the restart closes the
        // previous outage, the crash opens the next one).
        let mut faults: Vec<(Time, bool, NodeId)> = Vec::new();
        for (node, at) in &self.config.crashes {
            assert!(*node < n, "crash schedule names unknown host {node}");
            faults.push((*at, true, *node));
        }
        for (node, at) in &self.config.restarts {
            assert!(*node < n, "restart schedule names unknown host {node}");
            faults.push((*at, false, *node));
        }
        faults.sort_by_key(|(at, is_crash, node)| (*at, *is_crash, *node));
        for (at, is_crash, node) in faults {
            let kind = if is_crash {
                EventKind::Crash { node }
            } else {
                EventKind::Restart { node }
            };
            self.schedule(at, kind);
        }
        for node in 0..n {
            self.schedule(0, EventKind::Start { node });
        }

        while let Some(Reverse(event)) = self.queue.pop() {
            let now = event.time;
            if now > self.config.duration {
                break;
            }
            end_time = now;

            let ctx = match event.kind {
                EventKind::Start { node } => {
                    if self.hosts[node].down {
                        continue;
                    }
                    let mut ctx = Context::new(now, node);
                    self.actors[node].on_start(&mut ctx);
                    ctx
                }
                EventKind::Arrive { to, from, msg } => {
                    let host = &mut self.hosts[to];
                    if host.down {
                        self.dropped += 1;
                        continue;
                    }
                    // Ingress NIC serialization.
                    let size = msg.wire_size();
                    let ingress_end = now.max(host.ingress_free) + nic_time(size);
                    host.ingress_free = ingress_end;
                    // CPU service.
                    let cpu = cost::recv(size, msg.verify_count());
                    let exec_end = ingress_end.max(host.cpu_free) + cpu;
                    host.cpu_free = exec_end;
                    let incarnation = host.incarnation;
                    self.schedule(
                        exec_end,
                        EventKind::ExecMsg {
                            node: to,
                            from,
                            msg,
                            incarnation,
                        },
                    );
                    continue;
                }
                EventKind::ExecMsg {
                    node,
                    from,
                    msg,
                    incarnation,
                } => {
                    if self.hosts[node].down || self.hosts[node].incarnation != incarnation {
                        self.dropped += 1;
                        continue;
                    }
                    delivered += 1;
                    let mut ctx = Context::new(now, node);
                    self.actors[node].on_message(from, msg, &mut ctx);
                    ctx
                }
                EventKind::Fire {
                    node,
                    tag,
                    incarnation,
                } => {
                    if self.hosts[node].down || self.hosts[node].incarnation != incarnation {
                        continue;
                    }
                    let mut ctx = Context::new(now, node);
                    self.actors[node].on_timer(tag, &mut ctx);
                    ctx
                }
                EventKind::Crash { node } => {
                    self.hosts[node].down = true;
                    continue;
                }
                EventKind::Restart { node } => {
                    // Drop the dead incarnation *before* building its
                    // replacement: the old actor may hold exclusive
                    // resources (e.g. a WAL file handle) the new one reopens.
                    self.actors[node] = Box::new(Tombstone(std::marker::PhantomData));
                    // Fault-injection window: the old incarnation is gone,
                    // the new one not yet built — a restart hook may now
                    // mutate the durable state recovery will read (e.g.
                    // tear the store tail, as a crash mid-write would).
                    if let Some(hook) = &mut self.restart_hook {
                        hook(node, now);
                    }
                    self.actors[node] = (self.factories[node])();
                    let host = &mut self.hosts[node];
                    host.down = false;
                    host.incarnation += 1;
                    // A rebooted machine has idle NICs and CPU.
                    host.egress_free = now;
                    host.ingress_free = now;
                    host.cpu_free = now;
                    let mut ctx = Context::new(now, node);
                    self.actors[node].on_start(&mut ctx);
                    ctx
                }
            };
            self.apply_effects(ctx);
        }

        SimResult {
            commits: self.commits,
            delivered,
            dropped: self.dropped,
            end_time,
        }
    }

    /// Carries out what an actor asked for while handling one event.
    fn apply_effects(&mut self, mut ctx: Context<M>) {
        let (node, now) = (ctx.node(), ctx.now());
        for effect in ctx.drain() {
            match effect {
                Effect::Send { to, msg } => {
                    if to >= self.hosts.len() {
                        self.dropped += 1;
                        continue;
                    }
                    // Partitions are decided at send time.
                    if self
                        .config
                        .partitions
                        .iter()
                        .any(|p| p.crosses(node, to, now))
                    {
                        self.dropped += 1;
                        continue;
                    }
                    let size = msg.wire_size();
                    let host = &mut self.hosts[node];
                    // Sender CPU: serialization + signing.
                    host.cpu_free = host.cpu_free.max(now) + cost::send(size, msg.sign_count());
                    // Egress NIC: broadcasts serialize.
                    let ser_end = now.max(host.egress_free) + nic_time(size);
                    host.egress_free = ser_end;
                    // Link propagation (+ any active delay spike, decided at
                    // send time like partitions) + per-pair FIFO clamp.
                    let latency = self.topology.latency(node, to, &mut self.rng);
                    let spike = self
                        .config
                        .spikes
                        .iter()
                        .filter(|s| s.applies(node, to, now))
                        .map(|s| s.extra)
                        .max()
                        .unwrap_or(0);
                    let mut arrival = ser_end + latency + spike;
                    let clamp = self.last_arrival.entry((node, to)).or_insert(0);
                    if arrival <= *clamp {
                        arrival = *clamp + 1;
                    }
                    *clamp = arrival;
                    self.schedule(
                        arrival,
                        EventKind::Arrive {
                            to,
                            from: node,
                            msg,
                        },
                    );
                }
                Effect::Timer { delay, tag } => {
                    let at = now + delay;
                    if at <= self.config.duration {
                        let incarnation = self.hosts[node].incarnation;
                        self.schedule(
                            at,
                            EventKind::Fire {
                                node,
                                tag,
                                incarnation,
                            },
                        );
                    }
                }
                Effect::Commit(ev) => self.commits.push((now, node, ev)),
                Effect::Cpu { nanos } => {
                    let host = &mut self.hosts[node];
                    host.cpu_free = host.cpu_free.max(now) + nanos;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{HostSpec, Region};
    use nt_network::{MS, SEC};

    #[derive(Clone)]
    struct Ping {
        payload: usize,
    }

    impl SimMessage for Ping {
        fn wire_size(&self) -> usize {
            self.payload
        }
    }

    /// Node 0 pings node 1 on start; node 1 echoes; node 0 commits with the
    /// round-trip time in `tx_count` (as milliseconds).
    struct PingActor {
        peer: NodeId,
        initiator: bool,
        sent_at: Time,
    }

    impl Actor for PingActor {
        type Message = Ping;

        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            if self.initiator {
                self.sent_at = ctx.now();
                ctx.send(self.peer, Ping { payload: 100 });
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
            if self.initiator {
                let rtt_ms = (ctx.now() - self.sent_at) / MS;
                ctx.commit(CommitEvent {
                    tx_count: rtt_ms,
                    ..Default::default()
                });
            } else {
                ctx.send(from, msg);
            }
        }
    }

    fn two_hosts(r1: Region, r2: Region) -> Topology {
        Topology::new(vec![HostSpec::new(0, r1), HostSpec::new(1, r2)])
    }

    fn ping_factories() -> Vec<ActorFactory<Ping>> {
        vec![
            Box::new(|| {
                Box::new(PingActor {
                    peer: 1,
                    initiator: true,
                    sent_at: 0,
                })
            }),
            Box::new(|| {
                Box::new(PingActor {
                    peer: 0,
                    initiator: false,
                    sent_at: 0,
                })
            }),
        ]
    }

    #[test]
    fn rtt_reflects_topology() {
        let sim = Simulation::new(
            two_hosts(Region::UsEast1, Region::ApSoutheast2),
            SimConfig::new(7, 10 * SEC),
            ping_factories(),
        );
        let result = sim.run();
        assert_eq!(result.commits.len(), 1);
        let rtt_ms = result.commits[0].2.tx_count;
        // ~200 ms RTT to Sydney +/- jitter and processing.
        assert!((150..=260).contains(&rtt_ms), "rtt = {rtt_ms} ms");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = |seed| {
            let sim = Simulation::new(
                two_hosts(Region::UsEast1, Region::EuNorth1),
                SimConfig::new(seed, 10 * SEC),
                ping_factories(),
            );
            let r = sim.run();
            (r.commits[0].0, r.delivered)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds jitter differently");
    }

    #[test]
    fn crashed_node_stops_responding() {
        let mut config = SimConfig::new(1, 10 * SEC);
        config.crashes.push((1, 0));
        let sim = Simulation::new(
            two_hosts(Region::UsEast1, Region::UsWest1),
            config,
            ping_factories(),
        );
        let result = sim.run();
        assert!(result.commits.is_empty(), "no echo from a crashed peer");
        assert!(result.dropped >= 1);
    }

    #[test]
    fn partition_blocks_messages() {
        let mut config = SimConfig::new(1, 10 * SEC);
        config.partitions.push(Partition {
            group_a: vec![0],
            group_b: vec![1],
            from: 0,
            until: 20 * SEC,
        });
        let sim = Simulation::new(
            two_hosts(Region::UsEast1, Region::UsWest1),
            config,
            ping_factories(),
        );
        let result = sim.run();
        assert!(result.commits.is_empty());
    }

    /// A periodic pinger (every 100 ms); the peer echoes; each echo commits
    /// with `tx_count = 1`. Used by the crash/restart tests: echoes stop
    /// while the responder is down and resume after its restart.
    struct PeriodicPing {
        peer: NodeId,
        initiator: bool,
    }

    impl Actor for PeriodicPing {
        type Message = Ping;

        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            if self.initiator {
                ctx.timer(100 * MS, 1);
            }
        }

        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<Ping>) {
            ctx.send(self.peer, Ping { payload: 100 });
            ctx.timer(100 * MS, 1);
        }

        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
            if self.initiator {
                ctx.commit(CommitEvent {
                    tx_count: 1,
                    ..Default::default()
                });
            } else {
                ctx.send(from, msg);
            }
        }
    }

    fn periodic_factories() -> Vec<ActorFactory<Ping>> {
        vec![
            Box::new(|| {
                Box::new(PeriodicPing {
                    peer: 1,
                    initiator: true,
                })
            }),
            Box::new(|| {
                Box::new(PeriodicPing {
                    peer: 0,
                    initiator: false,
                })
            }),
        ]
    }

    #[test]
    fn restarted_node_resumes_responding() {
        let mut config = SimConfig::new(1, 10 * SEC);
        config.crashes.push((1, 3 * SEC));
        config.restarts.push((1, 6 * SEC));
        let sim = Simulation::new(
            two_hosts(Region::UsEast1, Region::UsWest1),
            config,
            periodic_factories(),
        );
        let result = sim.run();
        let before = result
            .commits
            .iter()
            .filter(|(t, _, _)| *t < 3 * SEC)
            .count();
        let during = result
            .commits
            .iter()
            .filter(|(t, _, _)| (3 * SEC..6 * SEC).contains(t))
            .count();
        let after = result
            .commits
            .iter()
            .filter(|(t, _, _)| *t > 6 * SEC)
            .count();
        assert!(before >= 20, "echoes flow before the crash: {before}");
        assert_eq!(during, 0, "no echoes while the responder is down");
        assert!(after >= 20, "echoes resume after the restart: {after}");
        assert!(result.dropped >= 20, "pings during the outage are dropped");
    }

    #[test]
    fn restart_discards_the_old_incarnations_timers() {
        // The *initiator* crashes and restarts. Its old incarnation's ping
        // timer chain must die with it; the new incarnation re-arms its own
        // from on_start. If stale timers survived, the ping rate after the
        // restart would double.
        let mut config = SimConfig::new(1, 12 * SEC);
        config.crashes.push((0, 3 * SEC));
        config.restarts.push((0, 4 * SEC));
        let sim = Simulation::new(
            two_hosts(Region::UsEast1, Region::UsEast1),
            config,
            periodic_factories(),
        );
        let result = sim.run();
        let tail = result
            .commits
            .iter()
            .filter(|(t, _, _)| (6 * SEC..12 * SEC).contains(t))
            .count();
        // One ping per 100 ms over 6 s = ~60; doubled timers would give ~120.
        assert!(
            (50..=70).contains(&tail),
            "steady post-restart rate: {tail}"
        );
    }

    #[test]
    fn restart_builds_a_fresh_actor() {
        // An actor that commits its internal counter on every timer tick:
        // after a restart the counter restarts from zero, proving the
        // incarnation is fresh (recovery of state is the *store's* job).
        struct Counter {
            ticks: u64,
        }
        impl Actor for Counter {
            type Message = Ping;
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.timer(SEC, 1);
            }
            fn on_timer(&mut self, _: u64, ctx: &mut Context<Ping>) {
                self.ticks += 1;
                ctx.commit(CommitEvent {
                    tx_count: self.ticks,
                    ..Default::default()
                });
                ctx.timer(SEC, 1);
            }
            fn on_message(&mut self, _: NodeId, _: Ping, _: &mut Context<Ping>) {}
        }
        let mut config = SimConfig::new(1, 8 * SEC);
        config.crashes.push((0, (35 * SEC) / 10));
        config.restarts.push((0, 5 * SEC));
        let factories: Vec<ActorFactory<Ping>> = vec![
            Box::new(|| Box::new(Counter { ticks: 0 })),
            Box::new(|| Box::new(Counter { ticks: 0 })),
        ];
        let sim = Simulation::new(
            two_hosts(Region::UsEast1, Region::UsEast1),
            config,
            factories,
        );
        let result = sim.run();
        let node0: Vec<u64> = result
            .commits
            .iter()
            .filter(|(_, node, _)| *node == 0)
            .map(|(_, _, ev)| ev.tx_count)
            .collect();
        // Ticks 1, 2, 3 before the crash; the counter restarts at 1 after.
        assert_eq!(node0, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn same_instant_restart_and_crash_pair_in_time_order() {
        // Crash at 3s, restart at 6s, crash again at 6s: the restart closes
        // the first outage and the same-instant crash opens the second, so
        // the host stays down for the rest of the run.
        let mut config = SimConfig::new(1, 10 * SEC);
        config.crashes.push((1, 3 * SEC));
        config.crashes.push((1, 6 * SEC));
        config.restarts.push((1, 6 * SEC));
        let sim = Simulation::new(
            two_hosts(Region::UsEast1, Region::UsWest1),
            config,
            periodic_factories(),
        );
        let result = sim.run();
        let after = result
            .commits
            .iter()
            // A reply already in flight at the crash instant may still land.
            .filter(|(t, _, _)| *t > 6 * SEC + SEC)
            .count();
        assert_eq!(after, 0, "host stays down after the back-to-back cycle");
    }

    #[test]
    fn link_spike_delays_without_dropping() {
        // Same-region ping normally echoes in ~2 ms; a 500 ms spike on the
        // link delays both legs but the echo still arrives.
        let run = |spikes: Vec<LinkSpike>| {
            let mut config = SimConfig::new(7, 10 * SEC);
            config.spikes = spikes;
            let sim = Simulation::new(
                two_hosts(Region::UsEast1, Region::UsEast1),
                config,
                ping_factories(),
            );
            sim.run()
        };
        let calm = run(vec![]);
        let spiked = run(vec![LinkSpike {
            a: 0,
            b: 1,
            from: 0,
            until: 5 * SEC,
            extra: 500 * MS,
        }]);
        assert_eq!(calm.commits.len(), 1);
        assert_eq!(spiked.commits.len(), 1, "spikes delay, never drop");
        assert_eq!(spiked.dropped, 0);
        let (calm_rtt, spiked_rtt) = (calm.commits[0].2.tx_count, spiked.commits[0].2.tx_count);
        // Two one-way legs, 500 ms extra each.
        assert!(
            spiked_rtt >= calm_rtt + 990 && spiked_rtt <= calm_rtt + 1_010,
            "spiked rtt {spiked_rtt} ms vs calm {calm_rtt} ms"
        );
    }

    #[test]
    fn link_spike_window_is_start_inclusive_end_exclusive() {
        let spike = LinkSpike {
            a: 0,
            b: 1,
            from: SEC,
            until: 2 * SEC,
            extra: MS,
        };
        assert!(!spike.applies(0, 1, SEC - 1));
        assert!(spike.applies(0, 1, SEC));
        assert!(spike.applies(1, 0, 2 * SEC - 1), "both directions");
        assert!(!spike.applies(0, 1, 2 * SEC));
        assert!(!spike.applies(0, 2, SEC + 1), "other links unaffected");
    }

    #[test]
    fn restart_hook_runs_between_incarnations() {
        // The hook fires exactly once, for the restarting host, at the
        // restart instant — after the crash, before the new actor exists.
        use std::sync::{Arc, Mutex};
        let calls: Arc<Mutex<Vec<(NodeId, Time)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut config = SimConfig::new(1, 10 * SEC);
        config.crashes.push((1, 3 * SEC));
        config.restarts.push((1, 6 * SEC));
        let mut sim = Simulation::new(
            two_hosts(Region::UsEast1, Region::UsWest1),
            config,
            periodic_factories(),
        );
        let sink = Arc::clone(&calls);
        sim.set_restart_hook(Box::new(move |node, at| {
            sink.lock().unwrap().push((node, at));
        }));
        let result = sim.run();
        assert_eq!(*calls.lock().unwrap(), vec![(1, 6 * SEC)]);
        let after = result
            .commits
            .iter()
            .filter(|(t, _, _)| *t > 6 * SEC)
            .count();
        assert!(after >= 20, "the restarted host still comes back: {after}");
    }

    mod partition_props {
        use super::*;
        use proptest::prelude::*;

        fn arb_group() -> impl Strategy<Value = Vec<NodeId>> {
            proptest::collection::vec(0usize..6, 0..4)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Interval semantics of [`Partition::crosses`]: start
            /// inclusive, end exclusive, symmetric in direction, and
            /// zero-length windows never block anything.
            #[test]
            fn crosses_interval_semantics(
                group_a in arb_group(),
                group_b in arb_group(),
                from in 0u64..1_000,
                len in 0u64..1_000,
                a in 0usize..6,
                b in 0usize..6,
                t in 0u64..2_200,
            ) {
                let p = Partition {
                    group_a: group_a.clone(),
                    group_b: group_b.clone(),
                    from,
                    until: from + len,
                };
                let split = (group_a.contains(&a) && group_b.contains(&b))
                    || (group_b.contains(&a) && group_a.contains(&b));
                let in_window = t >= from && t < from + len;
                prop_assert_eq!(p.crosses(a, b, t), split && in_window);
                // Symmetric in direction at every instant.
                prop_assert_eq!(p.crosses(a, b, t), p.crosses(b, a, t));
                // Boundary pins: active at `from` (iff non-empty window),
                // inactive at `until`.
                prop_assert_eq!(p.crosses(a, b, from), split && len > 0);
                prop_assert!(!p.crosses(a, b, from + len));
                if len == 0 {
                    prop_assert!(!p.crosses(a, b, t), "zero-length window");
                }
            }
        }
    }

    /// A sender that floods large messages; checks NIC serialization
    /// spreads arrivals over time (bandwidth limit).
    struct Flooder {
        count: usize,
    }

    #[derive(Default)]
    struct Sink {
        first: Option<Time>,
    }

    impl Actor for Flooder {
        type Message = Ping;
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            for _ in 0..self.count {
                // 1.25 MB messages: 1 ms each on a 10 Gbps NIC.
                ctx.send(1, Ping { payload: 1_250_000 });
            }
        }
        fn on_message(&mut self, _: NodeId, _: Ping, _: &mut Context<Ping>) {}
    }

    impl Actor for Sink {
        type Message = Ping;
        fn on_message(&mut self, _: NodeId, _: Ping, ctx: &mut Context<Ping>) {
            let first = *self.first.get_or_insert(ctx.now());
            ctx.commit(CommitEvent {
                tx_count: (ctx.now() - first) / MS,
                ..Default::default()
            });
        }
    }

    #[test]
    fn cpu_saturation_queues_processing() {
        // Messages carrying heavy verification load serialize on the
        // receiver's CPU: 20 messages x 5 signature verifications at
        // ~110 us each = ~11 ms of CPU, so arrivals spread over >= that.
        #[derive(Clone)]
        struct Heavy;
        impl SimMessage for Heavy {
            fn wire_size(&self) -> usize {
                100
            }
            fn verify_count(&self) -> usize {
                5
            }
        }
        struct Burst;
        #[derive(Default)]
        struct HeavySink {
            first: Option<Time>,
        }
        impl Actor for Burst {
            type Message = Heavy;
            fn on_start(&mut self, ctx: &mut Context<Heavy>) {
                for _ in 0..20 {
                    ctx.send(1, Heavy);
                }
            }
            fn on_message(&mut self, _: NodeId, _: Heavy, _: &mut Context<Heavy>) {}
        }
        impl Actor for HeavySink {
            type Message = Heavy;
            fn on_message(&mut self, _: NodeId, _: Heavy, ctx: &mut Context<Heavy>) {
                let first = *self.first.get_or_insert(ctx.now());
                ctx.commit(CommitEvent {
                    tx_count: (ctx.now() - first) / nt_network::US,
                    ..Default::default()
                });
            }
        }
        let sim = Simulation::new(
            two_hosts(Region::UsEast1, Region::UsEast1),
            SimConfig::new(5, 10 * SEC),
            vec![
                Box::new(|| Box::new(Burst)),
                Box::new(|| Box::new(HeavySink::default())),
            ],
        );
        let result = sim.run();
        assert_eq!(result.commits.len(), 20);
        let spread_us = result.commits.last().unwrap().2.tx_count;
        // 19 queued messages x ~570 us CPU each ~= 10.8 ms minimum spread.
        assert!(spread_us >= 9_000, "spread = {spread_us} us");
    }

    #[test]
    fn bandwidth_serializes_egress() {
        let sim = Simulation::new(
            two_hosts(Region::UsEast1, Region::UsEast1),
            SimConfig::new(3, 30 * SEC),
            vec![
                Box::new(|| Box::new(Flooder { count: 100 })),
                Box::new(|| Box::new(Sink::default())),
            ],
        );
        let result = sim.run();
        assert_eq!(result.commits.len(), 100);
        let spread_ms = result.commits.last().unwrap().2.tx_count;
        // 100 x 1.25 MB at 10 Gbps = 100 ms of pure serialization; ingress
        // doubles it at most. It must NOT all arrive at once.
        assert!(spread_ms >= 80, "spread = {spread_ms} ms");
    }
}
