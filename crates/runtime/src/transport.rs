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
//!   simulator's loss schedules — so a dead peer never pins more than one
//!   backoff interval's worth of frames in memory.
//!
//! The transport never interprets payloads: it moves `(NodeId, Vec<u8>)`
//! pairs. Decoding (and dropping undecodable payloads) is the driver's job.

use crate::backoff::Backoff;
use nt_codec::{encode_to_vec, Envelope, EnvelopeRef, MAX_FRAME_LEN, PROTOCOL_VERSION};
use nt_network::{NodeId, CLIENT};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long blocked I/O waits before re-checking the shutdown flag.
const POLL: Duration = Duration::from_millis(50);
/// Per-attempt TCP connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Outbox depth per peer; beyond this, sends to a dead peer are dropped.
const OUTBOX_CAPACITY: usize = 4096;
/// Inbox depth, the outbox's. `sync_channel` allocates the whole ring up
/// front (40-byte slots) and each delivery touches the next slot, so a deep
/// ring is resident memory that grows with deliveries until it has cycled:
/// 2.6 MB per host at the former 65 536, 160 KB at this. What fills it is a
/// driver stalled for over a second at the ~3 k deliveries/s a loaded host
/// sees (the fsync hiccups observed on a shared disk are <= 0.6 s). Full is
/// not loss: readers block and the kernel's socket buffers push back on the
/// senders (TCP backpressure) until the driver catches up.
const INBOX_CAPACITY: usize = 4096;

/// A running socket endpoint for one host.
pub struct Transport {
    local_addr: SocketAddr,
    inbox_rx: Receiver<(NodeId, Vec<u8>)>,
    outboxes: BTreeMap<NodeId, SyncSender<Vec<u8>>>,
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
    pub fn start(
        me: NodeId,
        listen: SocketAddr,
        peers: &[(NodeId, SocketAddr)],
    ) -> io::Result<Transport> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let dropped_sends = Arc::new(AtomicU64::new(0));
        let (inbox_tx, inbox_rx) = sync_channel(INBOX_CAPACITY);
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let mut threads = Vec::new();
        {
            let stop = stop.clone();
            let readers = readers.clone();
            threads.push(std::thread::spawn(move || {
                accept_loop(listener, inbox_tx, stop, readers);
            }));
        }

        let mut outboxes = BTreeMap::new();
        for &(peer, addr) in peers {
            if peer == me {
                continue;
            }
            let (tx, rx) = sync_channel(OUTBOX_CAPACITY);
            outboxes.insert(peer, tx);
            let stop = stop.clone();
            let dropped_sends = dropped_sends.clone();
            threads.push(std::thread::spawn(move || {
                writer_loop(me, peer, addr, rx, stop, dropped_sends);
            }));
        }

        Ok(Transport {
            local_addr,
            inbox_rx,
            outboxes,
            me,
            stop,
            threads,
            readers,
            dropped_sends,
        })
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
    pub fn send(&self, to: NodeId, payload: Vec<u8>) {
        let frame = seal_frame(self.me, payload);
        match self.outboxes.get(&to) {
            Some(tx) => match tx.try_send(frame) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.dropped_sends.fetch_add(1, Ordering::Relaxed);
                }
            },
            None => {
                self.dropped_sends.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of payloads dropped at the send side.
    pub fn dropped_sends(&self) -> u64 {
        self.dropped_sends.load(Ordering::Relaxed)
    }

    /// Stops all I/O threads and closes every connection.
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

/// Encodes `payload` from `me` into one wire-ready frame.
fn seal_frame(me: NodeId, payload: Vec<u8>) -> Vec<u8> {
    let sender = if me == CLIENT { u64::MAX } else { me as u64 };
    let body = encode_to_vec(&Envelope::new(sender, payload));
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

fn accept_loop(
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
                let handle = std::thread::spawn(move || reader_loop(stream, inbox, stop));
                readers.lock().expect("reader list").push(handle);
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
    outbox: Receiver<Vec<u8>>,
    stop: Arc<AtomicBool>,
    dropped_sends: Arc<AtomicU64>,
) {
    let mut backoff = Backoff::for_link(me as u64, peer as u64);
    let mut conn: Option<TcpStream> = None;
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
            conn = try_connect(addr, &mut backoff, &stop);
        }
        match conn.as_mut() {
            Some(stream) => {
                if stream.write_all(&frame).is_err() {
                    // The peer is gone; this frame is lost (at-most-once)
                    // and the next send goes through a fresh connection.
                    conn = None;
                }
            }
            // Still down after the backoff sleep: this frame and all that
            // queued behind it meanwhile are stale — the protocol's own
            // retransmission covers them — so drop them now instead of
            // holding a full outbox for a peer that may never return.
            None => {
                let dropped = 1 + outbox.try_iter().count() as u64;
                dropped_sends.fetch_add(dropped, Ordering::Relaxed);
            }
        }
    }
}

/// One connection attempt; on failure, sleeps the backoff delay (in
/// shutdown-aware slices) and reports `None`.
fn try_connect(addr: SocketAddr, backoff: &mut Backoff, stop: &AtomicBool) -> Option<TcpStream> {
    match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
        Ok(stream) => {
            let _ = stream.set_nodelay(true);
            backoff.reset();
            Some(stream)
        }
        Err(_) => {
            let mut remaining = backoff.next_delay();
            while remaining > Duration::ZERO && !stop.load(Ordering::SeqCst) {
                let slice = remaining.min(POLL);
                std::thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
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

    fn t_recv(t: &Transport) -> Option<(NodeId, Vec<u8>)> {
        t.recv_timeout(Duration::from_millis(200))
    }
}
