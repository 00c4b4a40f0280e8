//! The traced run: a bench-owned, single-threaded, virtual-time loop over
//! the same eight `Node`s, with a span around every call into a layer.
//!
//! The loop mirrors `nt_runtime::driver::drive` step for step: pop an
//! event, decode it, hand it to `Node::handle` / `Node::on_timer`, encode
//! every `Effect::Send` and queue it (here with a fixed 1 ms one-way delay
//! on the virtual clock, where the driver writes to a socket). Timers run
//! on the same virtual clock. Because one seeded scheduler drives all eight
//! nodes, every *count* repeats exactly from run to run; only the span
//! durations are wall-clock.
//!
//! Spans are recorded from the outside only: around the calls above, and —
//! as their children — inside decorators over the two stable public traits
//! `Store` and `Execution`. A second pass with spans and decorators off
//! gives the tracing overhead. End-to-end runs never come through here.

use crate::compat::{
    client_tx_bytes, decode_msg, encode_msg, ledger_app, msg_name, msg_request_id, open_host_wal,
    resolve_batch, AppKind, BatchData, BenchNode, CommitEvent, Context, Deployment, Digest,
    DynStore, Effect, Execution, ExecutionError, HostSpec, NodeId, Store, StoreError, Time, CLIENT,
    VALIDATORS,
};
use crate::observer::{check_logs, check_survivors_commit, commit_times, CommitRecord};
use crate::report::{Metric, RunResult};
use crate::stats::{poisson_schedule, SplitMix64};
use crate::workload::{survivors, Workload, CRASHED_VALIDATOR, FED_VALIDATORS};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Virtual seconds of traffic every traced replay injects. Fixed, so that
/// counts compare across runs whatever `--seconds` says.
pub const TRACE_WINDOW: Duration = Duration::from_secs(5);
/// Virtual time allowed after the last injection for commits to finish.
const TRACE_DRAIN: Duration = Duration::from_secs(8);
/// One-way delay of every message on the virtual clock.
const LINK_DELAY: Time = 1_000_000;
const NO_PARENT: u32 = u32::MAX;

/// One timed call. `parent` is the span that was open when this one began.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The message kind for `decode` / `handle` / `encode`, else empty.
    pub detail: &'static str,
    /// Index of the host the call ran on (see `Deployment::hosts`).
    pub host: u8,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Identifier shared by the spans of one request; 0 if none.
    pub req: u64,
    /// Bytes the call moved: decoded, encoded, or written.
    pub bytes: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// In-memory span sink shared by the loop and the decorators. The loop is
/// single-threaded; the mutex only exists because `Store` is `Sync`.
pub struct Tracer {
    origin: Instant,
    recorder: Mutex<Recorder>,
}

impl Tracer {
    fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            recorder: Mutex::default(),
        })
    }

    /// Opens a span under whatever span is open. `on` is the host and the
    /// request it belongs to; `None` inherits both from the parent.
    fn enter(
        &self,
        name: &'static str,
        detail: &'static str,
        on: Option<(u8, u64)>,
        bytes: u64,
    ) -> u32 {
        let mut r = self.recorder.lock().expect("tracer");
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let inherited = r.spans.get(parent as usize).map(|p| (p.host, p.req));
        let (host, req) = on.or(inherited).unwrap_or((0, 0));
        r.open.push(id);
        r.spans.push(Span {
            name,
            detail,
            host,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            req,
            bytes,
        });
        id
    }

    fn exit(&self, id: u32) {
        let end = self.origin.elapsed().as_nanos() as u64;
        let mut r = self.recorder.lock().expect("tracer");
        r.spans[id as usize].end_ns = end;
        let top = r.open.pop();
        debug_assert_eq!(top, Some(id), "spans nest");
    }

    /// A child of whatever span is open, on that span's host and request.
    fn child<T>(&self, name: &'static str, bytes: u64, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name, "", None, bytes);
        let out = call();
        self.exit(id);
        out
    }
}

/// Decorator over the `Store` trait: a child span per call.
struct TracedStore {
    inner: DynStore,
    tracer: Arc<Tracer>,
}

impl Store for TracedStore {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let bytes = (key.len() + value.len()) as u64;
        self.tracer
            .child("storage.put", bytes, || self.inner.put(key, value))
    }
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.tracer.child("storage.get", 0, || self.inner.get(key))
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.tracer.child("storage.delete", key.len() as u64, || {
            self.inner.delete(key)
        })
    }
    fn contains(&self, key: &[u8]) -> Result<bool, StoreError> {
        self.tracer
            .child("storage.get", 0, || self.inner.contains(key))
    }
    fn keys_with_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        self.tracer
            .child("storage.scan", 0, || self.inner.keys_with_prefix(prefix))
    }
    fn len(&self) -> Result<usize, StoreError> {
        self.inner.len()
    }
    fn sync_barrier(&self) -> Result<(), StoreError> {
        self.tracer
            .child("storage.barrier", 0, || self.inner.sync_barrier())
    }
    fn tear_tail(&self, ops: usize) -> Result<usize, StoreError> {
        self.inner.tear_tail(ops)
    }
}

/// Decorator over the `Execution` trait: a child span per apply/snapshot.
struct TracedExecution {
    inner: Box<dyn Execution>,
    tracer: Arc<Tracer>,
}

impl Execution for TracedExecution {
    fn apply(&mut self, event: &CommitEvent, batches: &[BatchData]) -> Digest {
        let inner = &mut self.inner;
        self.tracer
            .child("execution.apply", 0, || inner.apply(event, batches))
    }
    fn last_applied(&self) -> u64 {
        self.inner.last_applied()
    }
    fn root(&self) -> Digest {
        self.inner.root()
    }
    fn snapshot(&self) -> Vec<u8> {
        self.tracer
            .child("execution.snapshot", 0, || self.inner.snapshot())
    }
    fn restore(&mut self, sequence: u64, bytes: &[u8]) -> Result<(), ExecutionError> {
        self.inner.restore(sequence, bytes)
    }
}

enum Input {
    Timer(u64),
    Message { from: NodeId, bytes: Vec<u8> },
}

/// A queued event; ordered by `(at, seq)` so ties resolve in push order.
struct Event {
    at: Time,
    seq: u64,
    host: usize,
    input: Input,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Counts taken at the loop's own boundaries; they do not need spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub primary_calls: u64,
    pub worker_calls: u64,
    pub msgs: u64,
    pub msg_bytes: u64,
}

/// What one pass over a workload produced.
pub struct Replay {
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Wall-clock time spent inside the event loop.
    pub loop_wall: Duration,
    pub logs: Vec<Vec<CommitRecord>>,
    pub injected: usize,
    pub commit_at: Vec<Option<Duration>>,
    pub errors: Vec<String>,
    hosts: Vec<HostSpec>,
}

/// Runs `call` inside a span when tracing, bare otherwise.
fn span<T>(
    tracer: &Option<Arc<Tracer>>,
    name: &'static str,
    detail: &'static str,
    host: usize,
    (req, bytes): (u64, u64),
    call: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => {
            let id = tracer.enter(name, detail, Some((host as u8, req)), bytes);
            let out = call();
            tracer.exit(id);
            out
        }
        None => call(),
    }
}

struct Loop {
    hosts: Vec<HostSpec>,
    /// `NodeId` to host index.
    index_of: Vec<usize>,
    nodes: Vec<BenchNode>,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    tracer: Option<Arc<Tracer>>,
    counts: Counts,
    /// Commit records by validator, stamped with the virtual clock.
    logs: Vec<Vec<CommitRecord>>,
}

impl Loop {
    fn push(&mut self, at: Time, host: usize, input: Input) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq: self.seq,
            host,
            input,
        }));
    }

    /// One step of one node: the body of the driver's loop. `None` starts
    /// the node.
    fn step(&mut self, now: Time, host: usize, input: Option<Input>) {
        let spec = self.hosts[host];
        let mut ctx = Context::new(now, spec.node_id);
        let (node, tracer) = (&mut self.nodes[host], &self.tracer);
        match input {
            None => span(tracer, "on_start", "", host, (0, 0), || {
                node.on_start(&mut ctx)
            }),
            Some(Input::Timer(tag)) => span(tracer, "on_timer", "", host, (0, 0), || {
                node.on_timer(tag, &mut ctx)
            }),
            Some(Input::Message { from, bytes }) => {
                let len = bytes.len() as u64;
                // Like the driver, drop what does not decode.
                let Some(msg) = span(tracer, "decode", "", host, (0, len), || decode_msg(&bytes))
                else {
                    return;
                };
                let (name, req) = (msg_name(&msg), msg_request_id(&msg));
                span(tracer, "handle", name, host, (req, len), || {
                    node.handle(from, msg, &mut ctx)
                });
            }
        }
        if spec.is_primary() {
            self.counts.primary_calls += 1;
        } else {
            self.counts.worker_calls += 1;
        }
        for effect in ctx.drain() {
            match effect {
                Effect::Send { to, msg } if to != CLIENT => {
                    let (name, req) = (msg_name(&msg), msg_request_id(&msg));
                    let bytes = span(&self.tracer, "encode", name, host, (req, 0), || {
                        encode_msg(&msg)
                    });
                    self.counts.msgs += 1;
                    self.counts.msg_bytes += bytes.len() as u64;
                    let to_host = self.index_of[to];
                    let from = spec.node_id;
                    self.push(now + LINK_DELAY, to_host, Input::Message { from, bytes });
                }
                Effect::Send { .. } | Effect::Cpu { .. } => {}
                Effect::Timer { delay, tag } => self.push(now + delay, host, Input::Timer(tag)),
                Effect::Commit(event) => {
                    let at = Duration::from_nanos(now);
                    self.logs[spec.validator.0 as usize].push(CommitRecord::from_event(&event, at));
                }
            }
        }
    }
}

/// Replays `TRACE_WINDOW` of `workload` from `seed` on the virtual clock.
/// With `traced`, spans are recorded and the decorators sit on the stores
/// and the ledger; without, the same loop runs bare.
pub fn replay(workload: &Workload, seed: u64, dir: &Path, traced: bool) -> Result<Replay, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let tracer = traced.then(Tracer::new);
    // The loop never opens a socket; the addresses only fill the config.
    let addrs: Vec<SocketAddr> = (0..2 * VALIDATORS)
        .map(|i| SocketAddr::from(([127, 0, 0, 1], 1 + i as u16)))
        .collect();
    let deployment = Deployment::new(workload.system, &addrs);
    let hosts = deployment.hosts();
    let mut worker_stores: Vec<DynStore> = Vec::new();
    let mut nodes = Vec::new();
    for host in &hosts {
        let raw = open_host_wal(dir, host)?;
        if !host.is_primary() {
            worker_stores.push(raw.clone());
        }
        let app = (host.is_primary() && workload.app == AppKind::Ledger).then(ledger_app);
        let (store, app): (DynStore, Option<Box<dyn Execution>>) = match &tracer {
            Some(tracer) => (
                Arc::new(TracedStore {
                    inner: raw,
                    tracer: tracer.clone(),
                }),
                app.map(|inner| {
                    let tracer = tracer.clone();
                    Box::new(TracedExecution { inner, tracer }) as Box<dyn Execution>
                }),
            ),
            None => (raw, app),
        };
        nodes.push(deployment.build_node(host, store, app));
    }
    let mut index_of = vec![usize::MAX; hosts.iter().map(|h| h.node_id).max().unwrap_or(0) + 1];
    for (i, host) in hosts.iter().enumerate() {
        index_of[host.node_id] = i;
    }
    let mut lp = Loop {
        hosts: hosts.clone(),
        index_of,
        nodes,
        queue: BinaryHeap::new(),
        seq: 0,
        tracer,
        counts: Counts::default(),
        logs: vec![Vec::new(); VALIDATORS],
    };

    // The same generator as the socket run, on the virtual clock: a client
    // frame arrives at its worker exactly when it is due.
    let mut rng = SplitMix64::new(seed);
    let schedule = poisson_schedule(&mut rng, workload.rate_tps, TRACE_WINDOW);
    let fed_hosts: Vec<usize> = FED_VALIDATORS
        .iter()
        .map(|v| {
            hosts
                .iter()
                .position(|h| h.validator.0 == *v && !h.is_primary())
                .expect("every validator has a worker")
        })
        .collect();
    for (i, due) in schedule.iter().enumerate() {
        let bytes = client_tx_bytes(workload.make_tx(i as u64 + 1, &mut rng));
        let host = fed_hosts[i % fed_hosts.len()];
        lp.push(
            due.as_nanos() as Time,
            host,
            Input::Message {
                from: CLIENT,
                bytes,
            },
        );
    }
    let crash_at = workload
        .crash_at
        .map(|share| TRACE_WINDOW.mul_f64(share).as_nanos() as Time);
    let crashed = |host: &HostSpec, now: Time| {
        host.validator.0 == CRASHED_VALIDATOR && crash_at.is_some_and(|at| now >= at)
    };

    let started = Instant::now();
    for host in 0..hosts.len() {
        lp.step(0, host, None);
    }
    let deadline = (TRACE_WINDOW + TRACE_DRAIN).as_nanos() as Time;
    let mut hinted = 0u64;
    while let Some(Reverse(event)) = lp.queue.pop() {
        if event.at > deadline {
            break;
        }
        if crashed(&hosts[event.host], event.at) {
            continue;
        }
        let before: Vec<usize> = lp.logs.iter().map(Vec::len).collect();
        lp.step(event.at, event.host, Some(event.input));
        // Stop once the fed primaries have reported every transaction as
        // their own (the author-only `tx_count`; see `socket::run`).
        for v in FED_VALIDATORS {
            let log = &lp.logs[v as usize];
            hinted += log[before[v as usize]..]
                .iter()
                .map(|r| r.own_tx_hint)
                .sum::<u64>();
        }
        if hinted >= schedule.len() as u64 && event.at > TRACE_WINDOW.as_nanos() as Time {
            break;
        }
    }
    let loop_wall = started.elapsed();
    drop(lp.nodes);

    let mut errors = check_logs(&lp.logs, workload.app != AppKind::None);
    if let Some(at) = crash_at {
        let at = Duration::from_nanos(at);
        errors.extend(check_survivors_commit(&lp.logs, &survivors(), at));
    }
    let commit_at = commit_times(&lp.logs, &FED_VALIDATORS, schedule.len(), |digest| {
        worker_stores
            .iter()
            .find_map(|store| resolve_batch(store, digest))
    })
    .unwrap_or_else(|why| {
        errors.push(why);
        vec![None; schedule.len()]
    });
    let spans = match lp.tracer {
        Some(tracer) => std::mem::take(&mut tracer.recorder.lock().expect("tracer").spans),
        None => Vec::new(),
    };
    Ok(Replay {
        spans,
        counts: lp.counts,
        loop_wall,
        logs: lp.logs,
        injected: schedule.len(),
        commit_at,
        errors,
        hosts,
    })
}

/// Sum of `name` spans' durations, their count, and their bytes.
fn total(spans: &[Span], name: &str) -> (u64, u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0, 0), |(ns, n, bytes), s| {
            (ns + s.ns(), n + 1, bytes + s.bytes)
        })
}

/// Traces `workload` (spans on, then off) and reports the per-layer
/// metrics of section (a). `trace_out`, if given, receives every span.
pub fn run(workload: &Workload, seed: u64, tmp: &Path, trace_out: Option<&Path>) -> RunResult {
    let passes = replay(workload, seed, &tmp.join("traced"), true).and_then(|traced| {
        let bare = replay(workload, seed, &tmp.join("bare"), false)?;
        Ok((traced, bare))
    });
    let (traced, bare) = match passes {
        Ok(passes) => passes,
        Err(why) => return RunResult::all_failed(0, why),
    };
    let mut errors = traced.errors.clone();
    if bare.counts != traced.counts {
        errors.push(format!(
            "tracing changed the counts: {:?} traced, {:?} bare",
            traced.counts, bare.counts
        ));
    }
    if let Some(path) = trace_out {
        if let Err(e) = write_spans(path, &traced) {
            errors.push(format!("writing {}: {e}", path.display()));
        }
    }

    let committed = traced.commit_at.iter().filter(|at| at.is_some()).count() as u64;
    let ktx = committed.max(1) as f64 / 1e3;
    let spans = &traced.spans;
    // Self time of the node calls: each span minus its direct children.
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        child_ns[s.parent as usize] += s.ns();
    }
    let (mut primary_self, mut worker_self, mut top_level) = (0u64, 0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT {
            top_level += s.ns();
        }
        if matches!(s.name, "handle" | "on_timer" | "on_start") {
            let own = s.ns() - child_ns[i].min(s.ns());
            if traced.hosts[s.host as usize].is_primary() {
                primary_self += own;
            } else {
                worker_self += own;
            }
        }
    }
    let us = |ns: u64| ns as f64 / 1e3;
    let (put_ns, puts, put_bytes) = total(spans, "storage.put");
    let (barrier_ns, barriers, _) = total(spans, "storage.barrier");
    let (apply_ns, applies, _) = total(spans, "execution.apply");
    let (snapshot_ns, snapshots, _) = total(spans, "execution.snapshot");
    let (encode_ns, encodes, _) = total(spans, "encode");
    let (decode_ns, decodes, _) = total(spans, "decode");
    let depths: Vec<f64> = traced
        .logs
        .iter()
        .flatten()
        .map(|r| r.decided_round.saturating_sub(r.round) as f64)
        .collect();
    let c = &traced.counts;
    let n = spans.len() as u64;
    let gated = vec![
        Metric::new(
            "core.worker.busy_us_per_ktx",
            us(worker_self) / ktx,
            "us",
            c.worker_calls,
        ),
        Metric::new(
            "core.primary.busy_us_per_ktx",
            us(primary_self) / ktx,
            "us",
            c.primary_calls,
        ),
        Metric::new(
            "core.worker.calls_per_ktx",
            c.worker_calls as f64 / ktx,
            "count",
            committed,
        ),
        Metric::new(
            "core.primary.calls_per_ktx",
            c.primary_calls as f64 / ktx,
            "count",
            committed,
        ),
        Metric::new(
            "codec.encode_us_per_ktx",
            us(encode_ns) / ktx,
            "us",
            encodes,
        ),
        Metric::new(
            "codec.decode_us_per_ktx",
            us(decode_ns) / ktx,
            "us",
            decodes,
        ),
        Metric::new("storage.put_us_per_ktx", us(put_ns) / ktx, "us", puts),
        Metric::new(
            "storage.barrier_us_per_ktx",
            us(barrier_ns) / ktx,
            "us",
            barriers,
        ),
        Metric::new(
            "storage.puts_per_ktx",
            puts as f64 / ktx,
            "count",
            committed,
        ),
        Metric::new(
            "storage.barriers_per_ktx",
            barriers as f64 / ktx,
            "count",
            committed,
        ),
        Metric::new(
            "storage.bytes_per_tx",
            put_bytes as f64 / (ktx * 1e3),
            "B",
            committed,
        ),
        Metric::new(
            "execution.apply_us_per_ktx",
            us(apply_ns) / ktx,
            "us",
            applies,
        ),
        Metric::new(
            "execution.snapshot_us_per_ktx",
            us(snapshot_ns) / ktx,
            "us",
            snapshots,
        ),
        Metric::new(
            "network.msgs_per_ktx",
            c.msgs as f64 / ktx,
            "count",
            committed,
        ),
        Metric::new(
            "network.bytes_per_tx",
            c.msg_bytes as f64 / (ktx * 1e3),
            "B",
            committed,
        ),
        Metric::new(
            "core.decision_rounds",
            depths.iter().sum::<f64>() / depths.len().max(1) as f64,
            "rounds",
            depths.len() as u64,
        ),
        Metric::new("trace.cpu_us_per_tx", us(top_level) / (ktx * 1e3), "us", n),
        Metric::new(
            "trace.overhead_share",
            (traced.loop_wall.as_secs_f64() - bare.loop_wall.as_secs_f64())
                / bare.loop_wall.as_secs_f64(),
            "ratio",
            n,
        ),
    ];
    let diagnostics = vec![
        Metric::new("trace.spans", n as f64, "count", 0),
        Metric::new("trace.loop_wall_s", traced.loop_wall.as_secs_f64(), "s", 1),
        Metric::new("trace.committed", committed as f64, "count", 0),
    ];
    RunResult {
        attempted: traced.injected as u64,
        failed: traced.injected as u64 - committed,
        errors,
        gated,
        diagnostics,
    }
}

/// One span per line, tab-separated, parents before children.
fn write_spans(path: &Path, replay: &Replay) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\thost\tname\tdetail\tstart_ns\tend_ns\treq\tbytes"
    )?;
    for (id, s) in replay.spans.iter().enumerate() {
        let host = &replay.hosts[s.host as usize];
        let role = if host.is_primary() {
            "primary"
        } else {
            "worker"
        };
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{id}\t{parent}\tv{}-{role}\t{}\t{}\t{}\t{}\t{:x}\t{}",
            host.validator.0, s.name, s.detail, s.start_ns, s.end_ns, s.req, s.bytes
        )?;
    }
    out.flush()
}
