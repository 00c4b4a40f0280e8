//! TCP transport: maps `Effect::Send { to: NodeId, .. }` onto real sockets.
//!
//! One [`Transport`] serves one host (primary or worker). It listens on the
//! host's configured address and keeps one outbound connection per peer:
//!
//! - **Inbound**: an accept thread hands each connection to a reader
//!   thread. Frames are self-identifying ([`Envelope`] carries the sender's
//!   flat id), so there is no handshake. A malformed frame, an oversized
//!   length prefix, or a version mismatch kills that connection — never the
//!   process; the peer's reconnect logic takes it from there.
//! - **Outbound**: each peer has a bounded outbox drained by a writer
//!   thread that connects lazily and reconnects with capped exponential
//!   backoff + jitter ([`Backoff`]). When the outbox is full, or a connect
//!   attempt fails, the frames queued so far are dropped and counted — the
//!   same at-most-once contract the actors already survive under the
//!   simulator's partitions and crashes. While the writer waits out a
//!   backoff delay it keeps dropping what arrives, once per `POLL`, so a
//!   dead peer never pins more than one `POLL`'s worth of frames in memory.
//!   A peer that accepts and never reads is not dead: it still pins a full
//!   outbox, 4,096 frames of up to a batch (`batch_bytes`, 500 KB) each, so
//!   up to ~2 GB per link. An outbox is an [`nt_network::bounded`] queue:
//!   its memory follows the frames it holds, not its bound.
//!
//! Every thread is named after its job and its host (`accept-3`, `read-3`,
//! `write-3-5` for host 3's writer to host 5), within Linux's 15-byte limit
//! for thread names, so `top -H` and `/proc/<pid>/task/*/comm` tell them
//! apart.
//!
//! The transport never interprets payloads: it moves `(NodeId, Vec<u8>)`
//! pairs. Decoding (and dropping undecodable payloads) is the driver's job.

use crate::backoff::Backoff;
use nt_codec::{Encode, Envelope, EnvelopeRef, MAX_FRAME_LEN, PROTOCOL_VERSION};
use nt_network::{bounded, BoundedReceiver, BoundedSender, NodeId, CLIENT};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long blocked I/O waits before re-checking the shutdown flag.
const POLL: Duration = Duration::from_millis(50);
/// Per-attempt TCP connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Outbox depth per peer; beyond this, sends to a dead or stalled peer are
/// dropped. A bound, not a reservation: an outbox allocates per queued
/// frame.
const OUTBOX_CAPACITY: usize = 4096;
/// Inbox depth, the outbox's. The inbox is std's bounded channel, because a
/// full inbox must block the readers: that is what lets the kernel's socket
/// buffers push back on the senders (TCP backpressure) until the driver
/// catches up, so full is not loss. std builds that ring whole and writes
/// every slot (40 bytes each) when it is created: 160 KB per host, resident
/// from the start (2.6 MB at the former 65 536). What fills it is a driver
/// stalled for over a second at the ~3 k deliveries/s a loaded host sees
/// (the fsync hiccups observed on a shared disk are <= 0.6 s).
const INBOX_CAPACITY: usize = 4096;

/// A running socket endpoint for one host.
pub struct Transport {
    local_addr: SocketAddr,
    inbox_rx: Receiver<(NodeId, Vec<u8>)>,
    outboxes: BTreeMap<NodeId, BoundedSender<Vec<u8>>>,
    me: NodeId,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    dropped_sends: Arc<AtomicU64>,
}

impl Transport {
    /// Binds `listen` and starts one writer per entry of `peers`.
    ///
    /// `peers` maps flat host ids to socket addresses; it should contain
    /// every host this node may address (its own entry is ignored).
    ///
    /// Fails if the address cannot be bound or a thread cannot be spawned;
    /// the threads already running are then stopped and joined.
    pub fn start(
        me: NodeId,
        listen: SocketAddr,
        peers: &[(NodeId, SocketAddr)],
    ) -> io::Result<Transport> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let (inbox_tx, inbox_rx) = sync_channel(INBOX_CAPACITY);
        let mut transport = Transport {
            local_addr,
            inbox_rx,
            outboxes: BTreeMap::new(),
            me,
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
            readers: Arc::new(Mutex::new(Vec::new())),
            dropped_sends: Arc::new(AtomicU64::new(0)),
        };
        match transport.spawn_threads(listener, inbox_tx, peers) {
            Ok(()) => Ok(transport),
            Err(e) => {
                transport.shutdown();
                Err(e)
            }
        }
    }

    /// Starts the acceptor and one writer per peer, each outbox with it.
    fn spawn_threads(
        &mut self,
        listener: TcpListener,
        inbox_tx: SyncSender<(NodeId, Vec<u8>)>,
        peers: &[(NodeId, SocketAddr)],
    ) -> io::Result<()> {
        let me = self.me;
        let stop = self.stop.clone();
        let readers = self.readers.clone();
        self.threads
            .push(spawn_named(format!("accept-{me}"), move || {
                accept_loop(me, listener, inbox_tx, stop, readers);
            })?);
        for &(peer, addr) in peers {
            if peer == me {
                continue;
            }
            let (tx, rx) = bounded(OUTBOX_CAPACITY);
            let stop = self.stop.clone();
            let dropped_sends = self.dropped_sends.clone();
            self.threads
                .push(spawn_named(format!("write-{me}-{peer}"), move || {
                    writer_loop(me, peer, addr, rx, stop, dropped_sends);
                })?);
            self.outboxes.insert(peer, tx);
        }
        Ok(())
    }

    /// The bound listen address (with the OS-assigned port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The flat host id this transport sends as.
    pub fn node_id(&self) -> NodeId {
        self.me
    }

    /// Waits up to `timeout` for the next delivered `(sender, payload)`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        self.inbox_rx.recv_timeout(timeout).ok()
    }

    /// Queues `payload` for delivery to `to`.
    ///
    /// Unknown destinations and overflowing outboxes drop the payload
    /// (counted in [`Transport::dropped_sends`]) — never block the caller.
    /// The frame is sealed only once the outbox has room for it.
    pub fn send(&self, to: NodeId, payload: Vec<u8>) {
        let queued = self
            .outboxes
            .get(&to)
            .is_some_and(|tx| tx.try_send_with(|| seal_frame(self.me, payload)).is_ok());
        if !queued {
            self.dropped_sends.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of payloads dropped at the send side.
    pub fn dropped_sends(&self) -> u64 {
        self.dropped_sends.load(Ordering::Relaxed)
    }

    /// Stops all I/O threads and closes every connection.
    ///
    /// A writer blocked on a peer that stopped reading notices within one
    /// `POLL`, so this returns whatever the peers do.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        drop(self.outboxes);
        // A reader blocked in `inbox.send` on a full inbox never re-checks
        // the stop flag; only the receiver going away wakes it.
        drop(self.inbox_rx);
        for t in self.threads {
            let _ = t.join();
        }
        let readers = std::mem::take(&mut *self.readers.lock().expect("reader list"));
        for t in readers {
            let _ = t.join();
        }
    }
}

/// Encodes `payload` from `me` into one wire-ready frame, in one allocation:
/// the length prefix, then the envelope encoded behind it.
fn seal_frame(me: NodeId, payload: Vec<u8>) -> Vec<u8> {
    let sender = if me == CLIENT { u64::MAX } else { me as u64 };
    let envelope = Envelope::new(sender, payload);
    let len = envelope.encoded_len();
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    envelope.encode(&mut frame);
    frame
}

/// Spawns a thread named `name` (at most 15 bytes: Linux's limit).
fn spawn_named(name: String, f: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(f)
}

fn accept_loop(
    me: NodeId,
    listener: TcpListener,
    inbox: SyncSender<(NodeId, Vec<u8>)>,
    stop: Arc<AtomicBool>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let inbox = inbox.clone();
                let stop = stop.clone();
                // A reader that cannot be spawned drops its connection (the
                // stream closes with the closure); the peer reconnects.
                let spawned = spawn_named(format!("read-{me}"), move || {
                    reader_loop(stream, inbox, stop)
                });
                if let Ok(handle) = spawned {
                    readers.lock().expect("reader list").push(handle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Reads frames off one connection until EOF, error, or shutdown.
///
/// Any protocol violation — oversized length, undecodable envelope, version
/// mismatch — terminates this connection only. The buffer-and-drain shape
/// (rather than blocking `read_exact` per frame) keeps a read timeout from
/// ever splitting a frame: bytes accumulate until a whole frame is present.
fn reader_loop(stream: TcpStream, inbox: SyncSender<(NodeId, Vec<u8>)>, stop: Arc<AtomicBool>) {
    let mut stream = stream;
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    // Read cursor into `buf`: bytes before `start` belong to frames already
    // delivered. Advancing a cursor instead of draining per frame means each
    // frame body is parsed in place ([`EnvelopeRef`]) and only the payload is
    // copied out — consumed prefixes are reclaimed in bulk below.
    let mut start: usize = 0;
    let mut chunk = [0u8; 64 * 1024];
    while !stop.load(Ordering::SeqCst) {
        match stream.read(&mut chunk) {
            Ok(0) => return, // clean EOF
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                // Drain every complete frame currently buffered.
                loop {
                    let avail = &buf[start..];
                    if avail.len() < 4 {
                        break;
                    }
                    let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
                    if len > MAX_FRAME_LEN as usize {
                        return; // protocol violation: drop the connection
                    }
                    if avail.len() < 4 + len {
                        break;
                    }
                    let Ok(envelope) = EnvelopeRef::parse(&avail[4..4 + len]) else {
                        return; // malformed frame: drop the connection
                    };
                    if envelope.version != PROTOCOL_VERSION {
                        return; // incompatible peer: drop the connection
                    }
                    let from = if envelope.sender == u64::MAX {
                        CLIENT
                    } else {
                        envelope.sender as NodeId
                    };
                    if inbox.send((from, envelope.payload.to_vec())).is_err() {
                        return; // transport shut down
                    }
                    start += 4 + len;
                }
                // Reclaim the consumed prefix: free the whole buffer when it
                // is fully drained, or shift once the dead prefix dominates.
                if start == buf.len() {
                    buf.clear();
                    start = 0;
                } else if start > 0 && start >= buf.len() / 2 {
                    buf.drain(..start);
                    start = 0;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => return,
        }
    }
}

/// Drains one peer's outbox onto a lazily-(re)connected socket.
fn writer_loop(
    me: NodeId,
    peer: NodeId,
    addr: SocketAddr,
    outbox: BoundedReceiver<Vec<u8>>,
    stop: Arc<AtomicBool>,
    dropped_sends: Arc<AtomicU64>,
) {
    let mut backoff = Backoff::for_link(me as u64, peer as u64);
    let mut conn: Option<TcpStream> = None;
    // Drops every frame queued in the outbox, and `taken` more already taken
    // off it, counting them all. A down peer's frames are stale — the
    // protocol's own retransmission covers them — so they go as they come
    // instead of filling the outbox for a peer that may never return.
    let shed = |taken: u64| {
        let queued = std::iter::from_fn(|| outbox.try_recv().ok()).count() as u64;
        dropped_sends.fetch_add(taken + queued, Ordering::Relaxed);
    };
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let frame = match outbox.recv_timeout(POLL) {
            Ok(frame) => frame,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if conn.is_none() {
            conn = try_connect(addr, &mut backoff, &stop, || shed(0));
        }
        match conn.as_mut() {
            Some(stream) => {
                if write_frame(stream, &frame, &stop).is_err() {
                    // The peer is gone; this frame is lost (at-most-once)
                    // and the next send goes through a fresh connection.
                    conn = None;
                }
            }
            // Still down after the backoff sleep: this frame and whatever
            // queued since the sleep's last poll go too.
            None => shed(1),
        }
    }
}

/// Writes one whole frame, giving up only on a socket error or, while the
/// peer does not read, once `stop` is set.
fn write_frame(stream: &mut TcpStream, frame: &[u8], stop: &AtomicBool) -> io::Result<()> {
    let mut rest = frame;
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One connection attempt; on failure, sleeps the backoff delay in
/// shutdown-aware `POLL` slices, calling `shed` after each, and reports
/// `None`.
fn try_connect(
    addr: SocketAddr,
    backoff: &mut Backoff,
    stop: &AtomicBool,
    shed: impl Fn(),
) -> Option<TcpStream> {
    match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
        Ok(stream) => {
            let _ = stream.set_nodelay(true);
            // Bounds each blocked write, so `write_frame` sees shutdown.
            let _ = stream.set_write_timeout(Some(POLL));
            backoff.reset();
            Some(stream)
        }
        Err(_) => {
            let mut remaining = backoff.next_delay();
            while remaining > Duration::ZERO && !stop.load(Ordering::SeqCst) {
                let slice = remaining.min(POLL);
                std::thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
                shed();
            }
            None
        }
    }
}

/// A client-side connection for injecting messages (e.g. transactions).
///
/// Frames sent through it carry the reserved external-client sender id, so
/// nodes see them as coming from [`CLIENT`].
pub struct ClientConn {
    stream: TcpStream,
}

impl ClientConn {
    /// Connects to a node's listen address.
    pub fn connect(addr: SocketAddr) -> io::Result<ClientConn> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        Ok(ClientConn { stream })
    }

    /// Sends one encoded message as a client frame.
    pub fn send_payload(&mut self, payload: Vec<u8>) -> io::Result<()> {
        self.stream.write_all(&seal_frame(CLIENT, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_codec::encode_to_vec;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn recv_payload(t: &Transport, secs: u64) -> Option<(NodeId, Vec<u8>)> {
        t.recv_timeout(Duration::from_secs(secs))
    }

    #[test]
    fn two_nodes_round_trip() {
        let a = Transport::start(0, loopback(), &[]).unwrap();
        let b_peers = [(0, a.local_addr())];
        let b = Transport::start(1, loopback(), &b_peers).unwrap();
        let a2 = {
            // Rebuild a's peer table now that b's port is known.
            let a_addr = a.local_addr();
            a.shutdown();
            Transport::start(0, a_addr, &[(1, b.local_addr())]).unwrap()
        };
        a2.send(1, vec![1, 2, 3]);
        let (from, payload) = recv_payload(&b, 10).expect("delivery");
        assert_eq!(from, 0);
        assert_eq!(payload, vec![1, 2, 3]);
        b.send(0, vec![9]);
        let (from, payload) = recv_payload(&a2, 10).expect("reply");
        assert_eq!(from, 1);
        assert_eq!(payload, vec![9]);
        a2.shutdown();
        b.shutdown();
    }

    #[test]
    fn malformed_frame_disconnects_without_killing_transport() {
        let t = Transport::start(0, loopback(), &[]).unwrap();
        // A raw connection spews garbage: huge length prefix.
        let mut bad = TcpStream::connect(t.local_addr()).unwrap();
        bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
        bad.write_all(&[0xff; 64]).unwrap();
        // An undecodable envelope body on a second connection.
        let mut bad2 = TcpStream::connect(t.local_addr()).unwrap();
        bad2.write_all(&4u32.to_le_bytes()).unwrap();
        bad2.write_all(&[0xff, 0xff, 0xff, 0xff]).unwrap();
        // A healthy client still gets through afterwards.
        let mut good = ClientConn::connect(t.local_addr()).unwrap();
        good.send_payload(vec![42]).unwrap();
        let (from, payload) = recv_payload(&t, 10).expect("good frame survives");
        assert_eq!(from, CLIENT);
        assert_eq!(payload, vec![42]);
        t.shutdown();
    }

    #[test]
    fn version_mismatch_disconnects() {
        let t = Transport::start(0, loopback(), &[]).unwrap();
        let mut old = TcpStream::connect(t.local_addr()).unwrap();
        let mut env = Envelope::new(3, vec![7]);
        env.version = PROTOCOL_VERSION + 1;
        let body = encode_to_vec(&env);
        old.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        old.write_all(&body).unwrap();
        assert!(
            t.recv_timeout(Duration::from_millis(300)).is_none(),
            "frames from an incompatible version must not surface"
        );
        t.shutdown();
    }

    #[test]
    fn split_frames_reassemble() {
        let t = Transport::start(0, loopback(), &[]).unwrap();
        let body = encode_to_vec(&Envelope::new(5, vec![8; 100]));
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        let mut conn = TcpStream::connect(t.local_addr()).unwrap();
        // Dribble the frame one byte at a time across socket writes.
        for byte in &wire {
            conn.write_all(std::slice::from_ref(byte)).unwrap();
            conn.flush().unwrap();
        }
        let (from, payload) = recv_payload(&t, 10).expect("reassembled");
        assert_eq!(from, 5);
        assert_eq!(payload, vec![8; 100]);
        t.shutdown();
    }

    #[test]
    fn sends_to_unknown_peers_drop_and_count() {
        let t = Transport::start(0, loopback(), &[]).unwrap();
        t.send(99, vec![1]);
        assert_eq!(t.dropped_sends(), 1);
        t.shutdown();
    }

    #[test]
    fn reconnect_after_peer_restart() {
        let a = Transport::start(0, loopback(), &[]).unwrap();
        let a_addr = a.local_addr();
        let b = Transport::start(1, loopback(), &[(0, a_addr)]).unwrap();
        b.send(0, vec![1]);
        assert_eq!(recv_payload(&a, 10).expect("first").1, vec![1]);
        // Restart a on the same port; b must reconnect and deliver again.
        a.shutdown();
        let a = Transport::start(0, a_addr, &[]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let mut delivered = None;
        let mut probe = 0u8;
        while std::time::Instant::now() < deadline {
            probe = probe.wrapping_add(1);
            b.send(0, vec![probe]);
            if let Some((_, payload)) = t_recv(&a) {
                delivered = Some(payload);
                break;
            }
        }
        assert!(delivered.is_some(), "reconnect never delivered");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn frames_queued_for_a_dead_peer_are_dropped_and_counted() {
        // A port nobody listens on.
        let dead = TcpListener::bind(loopback()).unwrap().local_addr().unwrap();
        let b = Transport::start(1, loopback(), &[(0, dead)]).unwrap();
        const STALE: u64 = 1000;
        for _ in 0..STALE {
            b.send(0, vec![0]);
        }
        // One failed connect and its backoff sleep (under 75 ms) later the
        // whole queue is gone, every frame of it counted.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while b.dropped_sends() < STALE && std::time::Instant::now() < deadline {
            std::thread::sleep(POLL);
        }
        assert_eq!(b.dropped_sends(), STALE);
        // The peer comes back: only what is sent from now on reaches it.
        let a = Transport::start(0, dead, &[]).unwrap();
        let mut sent = STALE;
        let mut received = Vec::new();
        while received.is_empty() && std::time::Instant::now() < deadline {
            b.send(0, vec![1]);
            sent += 1;
            received.extend(t_recv(&a));
        }
        while let Some(delivery) = t_recv(&a) {
            received.push(delivery);
        }
        assert!(!received.is_empty(), "reconnect never delivered");
        assert!(
            received.iter().all(|(_, payload)| payload == &[1]),
            "a frame queued while the peer was down was delivered"
        );
        assert_eq!(
            received.len() as u64 + b.dropped_sends(),
            sent,
            "every frame is either delivered or counted as dropped"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_dead_peer_costs_one_poll_of_frames_not_one_backoff() {
        let dead = TcpListener::bind(loopback()).unwrap().local_addr().unwrap();
        let b = Transport::start(1, loopback(), &[(0, dead)]).unwrap();
        let outbox = &b.outboxes[&0];
        // The writer's own schedule (its jitter is seeded by the link). Fed
        // one frame per poll for the delays before the first of 1.6 s or
        // more, plus two polls an attempt to take the next frame, the
        // writer is then in a sleep of at least 1.6 s, or past it and
        // about to start a longer one.
        let mut schedule = Backoff::for_link(1, 0);
        let mut warmup = Duration::ZERO;
        loop {
            let delay = schedule.next_delay();
            if delay >= Duration::from_millis(1600) {
                break;
            }
            warmup += delay + 2 * POLL;
        }
        let mut sent = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < warmup {
            b.send(0, vec![0]);
            sent += 1;
            std::thread::sleep(POLL);
        }
        // Three bursts 300 ms apart: one sleep's end can shed at most one
        // of them, so a writer that holds frames until its sleep ends
        // fails here. Only the frame the writer holds for its next
        // connect attempt may still be uncounted.
        const BURST: u64 = 1000;
        for burst in 0..3 {
            let at = std::time::Instant::now();
            for _ in 0..BURST {
                b.send(0, vec![burst]);
            }
            sent += BURST;
            while (outbox.queued() > 0 || b.dropped_sends() + 1 < sent) && at.elapsed() < 4 * POLL {
                std::thread::sleep(POLL / 10);
            }
            assert_eq!(outbox.queued(), 0, "burst {burst} still queued");
            assert!(
                b.dropped_sends() + 1 >= sent,
                "burst {burst}: {} of {sent} frames counted as dropped",
                b.dropped_sends()
            );
            std::thread::sleep(Duration::from_millis(300).saturating_sub(at.elapsed()));
        }
        b.shutdown();
    }

    #[test]
    fn a_frame_is_sealed_as_the_length_prefix_before_the_encoded_envelope() {
        // Reference: the envelope encoded on its own, then copied behind
        // its length prefix.
        fn sealed_in_two(me: NodeId, payload: Vec<u8>) -> Vec<u8> {
            let sender = if me == CLIENT { u64::MAX } else { me as u64 };
            let body = encode_to_vec(&Envelope::new(sender, payload));
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&body);
            frame
        }
        for me in [CLIENT, 5] {
            for payload in [Vec::new(), vec![7u8; 500_000]] {
                let frame = seal_frame(me, payload.clone());
                assert_eq!(frame, sealed_in_two(me, payload));
                assert_eq!(frame.capacity(), frame.len(), "the frame was regrown");
            }
        }
    }

    #[test]
    fn shutdown_returns_while_a_reader_is_blocked_on_a_full_inbox() {
        let t = Transport::start(0, loopback(), &[]).unwrap();
        let mut flood = TcpStream::connect(t.local_addr()).unwrap();
        flood.set_write_timeout(Some(4 * POLL)).unwrap();
        let burst = seal_frame(CLIENT, vec![0; 8]).repeat(4096);
        // Nobody drains the inbox. Writes only start timing out once the
        // socket buffers are full, i.e. once the reader has stopped reading,
        // and the one place it stops is `inbox.send` on a full inbox.
        while flood.write_all(&burst).is_ok() {}
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            t.shutdown();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "shutdown hung joining a reader blocked on the full inbox"
        );
    }

    #[test]
    fn a_peer_that_stops_reading_costs_one_outbox_and_shutdown_returns() {
        // The peer accepts and then never reads, so once the kernel's
        // socket buffers are full the writer stalls mid-frame.
        let peer = TcpListener::bind(loopback()).unwrap();
        let t = Transport::start(1, loopback(), &[(0, peer.local_addr().unwrap())]).unwrap();
        let outbox = &t.outboxes[&0];
        let payload = vec![0u8; 1024];
        t.send(0, payload.clone());
        let (_held, _) = peer.accept().unwrap();
        // Keep the outbox topped up until a pause moves nothing out of it.
        // The cap bounds what an unbounded outbox could pin here (40 MB).
        const MAX_SENDS: u64 = 40_000;
        let mut sent = 1;
        loop {
            let dropped = t.dropped_sends();
            while t.dropped_sends() == dropped && sent < MAX_SENDS {
                t.send(0, payload.clone());
                sent += 1;
            }
            assert!(
                t.dropped_sends() > dropped,
                "{sent} frames and none dropped: the outbox is unbounded"
            );
            std::thread::sleep(4 * POLL);
            if outbox.queued() == OUTBOX_CAPACITY {
                break;
            }
        }
        // Stalled with a full outbox: every further frame is dropped and
        // counted, and the outbox holds its bound, not one frame more.
        let before = t.dropped_sends();
        const EXTRA: u64 = 100;
        for _ in 0..EXTRA {
            t.send(0, payload.clone());
        }
        assert_eq!(t.dropped_sends(), before + EXTRA);
        assert_eq!(outbox.queued(), OUTBOX_CAPACITY);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            t.shutdown();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "shutdown hung joining a writer blocked on a peer that does not read"
        );
    }

    fn t_recv(t: &Transport) -> Option<(NodeId, Vec<u8>)> {
        t.recv_timeout(Duration::from_millis(200))
    }
}
