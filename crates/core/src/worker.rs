//! The worker state machine (§4.2 scale-out design).
//!
//! Workers do the bulk data movement: they accumulate client transactions
//! into batches (~500 KB), stream each batch to the same worker slot of
//! every other validator, collect a `2f + 1` quorum of store-acknowledgments
//! (including their own), and only then hand the batch digest to their
//! primary for inclusion in a block. Peer batches are stored and reported
//! to the primary immediately, which is what lets the primary vote for
//! blocks whose payload its own workers already hold.
//!
//! A worker *stores, then forwards the digest* (§4.2) — it does not also
//! keep. The only batch bytes resident in a worker are its own batches
//! still collecting acknowledgments (`pending`, bounded by the ack round
//! trip); everything else lives in the [`BlockStore`] and is read back on
//! demand, so memory stays fixed however much has been disseminated (§3.3:
//! "validators can operate with a fixed size memory"). A batch its
//! validator's garbage collection deleted from a shared store is gone
//! here too, and is fetched from peers like any other missing batch.
//!
//! Each batch is encoded once and hashed once per worker
//! ([`BlockStore::encode_batch`]): that `(digest, bytes)` pair is what the
//! store writes and what every report names.
//!
//! # When a batch is sealed: the proposal is the clock
//!
//! The paper's worker seals at a size or at a timer (§4.2), and the only
//! consumer of a sealed batch is its own primary's next block (§3.1): a
//! digest can only leave in a block, so sealing more often than blocks leave
//! buys nothing, and sealing less often makes every transaction wait for a
//! timer nobody is waiting for. So the primary's block is the beat. The
//! certifier queues each own header it adopts for this validator's workers
//! as well as for the other primaries, and a worker seals its buffer at the
//! earliest of:
//!
//! - **size**: the buffer reaches `batch_bytes`;
//! - **beat**: a header of our own primary arrives and the buffer is not
//!   empty — what gathered while that block was built rides in the next. On
//!   an empty buffer the beat is remembered instead (`beat_unspent`);
//! - **a remembered beat**: a transaction arrives and the last beat found
//!   nothing to seal (or none came yet) — it is sealed at once, alone, so a
//!   lone transaction into an idle committee waits for nothing; the block
//!   that carries it is the next beat;
//! - **age**, the fallback: a buffer whose oldest transaction is
//!   `max_batch_delay` old when the seal timer fires is sealed. With the
//!   primary down or its beat lost, this is the whole rule, and the paper's.
//!
//! `max_batch_delay` and `batch_bytes` are thus the two bounds, never the
//! pace. The worker reads the header's author and nothing else, and verifies
//! nothing: a forged beat can at worst seal a non-empty buffer early.
//! Invariant: every seal before size or age spends one beat, and a beat is
//! spent once, so early seals <= own proposals + 1 (the beat a worker starts
//! with) and batches/s <= rounds/s + size seals/s + 1/`max_batch_delay`.
//!
//! A batch carries at most [`SAMPLES_PER_BATCH`] latency samples, at evenly
//! spaced buffer positions (the oldest first), each with its arrival time.
//!
//! In simulation each worker generates its own clients' fixed-rate stream
//! (§7, `config.load`), and only that source is synthetic: its transactions
//! are *virtual arrivals* of [`TX_BYTES`] each, the i-th at
//! `started + i·SEC/rate_tps`, counted whenever the worker handles an event
//! (elapsed time × rate, floored, minus what it already counted: rounding
//! cannot drift) into the same buffer, under the same rules, and sealed as
//! one [`Batch::synthetic`] — no event and no allocation per transaction.
//! They arrive unseen between events, so the one `TAG_SEAL` timer is armed
//! for the earliest moment a rule fires without a beat: the age bound, and
//! under load also the arrival that crosses `batch_bytes` and, while a beat
//! is unspent, the next arrival.

use crate::config::{NarwhalConfig, RESEND_DELAY, SYNC_RETRY_DELAY};
use crate::deployment::AddressBook;
use crate::messages::{BatchInfo, NarwhalMsg};
use crate::store::{fail_stop, BlockStore};
use nt_crypto::Digest;
use nt_network::{Actor, Context, NodeId, Time, SEC};
use nt_types::{Batch, Committee, Transaction, TxSample, ValidatorId, WorkerId, TX_BYTES};
use std::collections::{btree_map::Entry, BTreeMap, HashSet};

type Ctx<Ext> = Context<NarwhalMsg<Ext>>;

const TAG_SEAL: u64 = 1;
const TAG_RETRY: u64 = 2;

/// At most this many latency samples per batch, at evenly spaced buffer
/// positions (the oldest first), each with that transaction's arrival.
pub const SAMPLES_PER_BATCH: u64 = 4;

struct PendingBatch {
    batch: Batch,
    /// `batch`'s encoding, made with its digest at seal: what the store
    /// gets once the quorum forms.
    bytes: Vec<u8>,
    acked: HashSet<ValidatorId>,
    created: Time,
}

struct FetchState {
    creator: ValidatorId,
    attempts: u32,
    last: Time,
}

/// One worker host of a validator.
pub struct Worker<Ext: Clone + Send + 'static> {
    committee: Committee,
    config: NarwhalConfig,
    addr: AddressBook,
    me: ValidatorId,
    worker_id: WorkerId,
    // Batching: client transactions and their arrivals, then the last
    // `virtual_txs` of the `accrued` virtual arrivals.
    buffer: Vec<Transaction>,
    arrived: Vec<Time>,
    virtual_txs: u64,
    buffer_bytes: usize,
    /// When the oldest buffered transaction arrived.
    buffer_opened: Time,
    /// A block of ours left and found the buffer empty (or none left yet):
    /// the next transaction is sealed at once.
    beat_unspent: bool,
    /// This incarnation's start, and the virtual arrivals counted since.
    started: Time,
    accrued: u64,
    /// The moment the last `TAG_SEAL` timer was armed for.
    armed: Option<Time>,
    seq: u64,
    sample_seq: u64,
    // Replication.
    /// Every batch this worker vouches for: the validator's shared backend
    /// (the paper's per-validator RocksDB instance), or a private
    /// in-memory one when the node was built without a store.
    store: BlockStore,
    /// Own batches still collecting acknowledgments — the only batches
    /// held in memory. Ordered maps: the retry timer walks these to emit
    /// resends and fetch retries, and message order must be a pure
    /// function of state for seeded runs to reproduce (hash-map order is
    /// randomized per process).
    pending: BTreeMap<Digest, PendingBatch>,
    // Fetching batches the primary asked for.
    fetching: BTreeMap<Digest, FetchState>,
    _ext: std::marker::PhantomData<Ext>,
}

impl<Ext: Clone + Send + 'static> Worker<Ext> {
    pub(crate) fn build(
        committee: Committee,
        config: NarwhalConfig,
        addr: AddressBook,
        me: ValidatorId,
        worker_id: WorkerId,
        store: BlockStore,
    ) -> Self {
        Worker {
            committee,
            config,
            addr,
            me,
            worker_id,
            buffer: Vec::new(),
            arrived: Vec::new(),
            virtual_txs: 0,
            buffer_bytes: 0,
            buffer_opened: 0,
            beat_unspent: true,
            started: 0,
            accrued: 0,
            armed: None,
            seq: 0,
            sample_seq: 0,
            store,
            pending: BTreeMap::new(),
            fetching: BTreeMap::new(),
            _ext: std::marker::PhantomData,
        }
    }

    /// Number of batches in the store (tests/metrics).
    pub fn stored_batches(&self) -> usize {
        fail_stop(self.store.batch_digests()).len()
    }

    /// Number of batches held in memory (tests/metrics): own batches
    /// still short of their acknowledgment quorum.
    pub fn resident_batches(&self) -> usize {
        self.pending.len()
    }

    /// True if this worker can serve the batch: it is pending or stored.
    fn holds(&self, digest: &Digest) -> bool {
        self.pending.contains_key(digest) || fail_stop(self.store.has_batch(digest))
    }

    /// Re-reports every persisted batch to the primary after a crash, one
    /// batch in memory at a time; the primary rebuilds its availability
    /// view (`batch_meta`) from the reports — own uncommitted batches
    /// re-enter the proposal queue there, committed ones are filtered by
    /// their `cb/` markers. Also resumes the batch/sample
    /// sequence counters so new batches never collide with pre-crash
    /// digests.
    fn recover(&mut self, ctx: &mut Ctx<Ext>) {
        for digest in fail_stop(self.store.batch_digests()) {
            // Unreadable records are skipped, as on-disk data always is.
            let Ok(Some(batch)) = self.store.get_batch(&digest) else {
                continue;
            };
            if batch.creator == self.me && batch.worker == self.worker_id {
                self.seq = self.seq.max(batch.seq);
                for sample in &batch.samples {
                    // Ids pack the counter in the low 40 bits (`next_sample_id`).
                    self.sample_seq = self.sample_seq.max(sample.id & ((1 << 40) - 1));
                }
            }
            self.report(digest, &batch, ctx);
        }
    }

    fn next_sample_id(&mut self) -> u64 {
        self.sample_seq += 1;
        // Globally unique across validators and workers.
        ((self.me.0 as u64) << 48) | ((self.worker_id.0 as u64) << 40) | self.sample_seq
    }

    fn is_empty(&self) -> bool {
        self.buffer.is_empty() && self.virtual_txs == 0
    }

    /// Virtual arrivals due by `t`, at `rate` (module doc).
    fn due(&self, rate: f64, t: Time) -> u64 {
        (t.saturating_sub(self.started) as f64 * rate / SEC as f64) as u64
    }

    /// When the `i`-th virtual arrival is counted: `i·SEC/rate` after the
    /// start, or as many nanoseconds later as [`Self::due`]'s rounding needs
    /// to count it, so a timer armed for it finds it. `None` without load.
    fn arrival(&self, i: u64) -> Option<Time> {
        let rate = Some(self.config.load?.rate_tps).filter(|r| *r > 0.0)?;
        let mut at = self.started + (i as f64 * SEC as f64 / rate).ceil() as Time;
        while self.due(rate, at) < i {
            at += 1;
        }
        Some(at)
    }

    /// Arrivals of [`TX_BYTES`] that bring the buffer to `batch_bytes`.
    fn to_size(&self) -> u64 {
        let missing = self.config.batch_bytes.saturating_sub(self.buffer_bytes);
        missing.div_ceil(TX_BYTES).max(1) as u64
    }

    /// The rules an arrival triggers: a remembered beat, or the size bound.
    fn on_arrival(&mut self, ctx: &mut Ctx<Ext>) {
        if self.beat_unspent || self.buffer_bytes >= self.config.batch_bytes {
            self.beat_unspent = false;
            self.seal_buffer(ctx);
        }
    }

    /// Counts the virtual arrivals due by now into the buffer, stopping at
    /// each one a rule fires on: a long gap seals every batch it filled.
    fn accrue(&mut self, ctx: &mut Ctx<Ext>) {
        let Some(load) = self.config.load else { return };
        let due = self.due(load.rate_tps, ctx.now());
        while self.accrued < due {
            if self.is_empty() {
                self.buffer_opened = self.arrival(self.accrued + 1).unwrap_or_default();
            }
            let take = if self.beat_unspent { 1 } else { self.to_size() }.min(due - self.accrued);
            self.accrued += take;
            self.virtual_txs += take;
            self.buffer_bytes += take as usize * TX_BYTES;
            self.on_arrival(ctx);
        }
    }

    /// The earliest moment a rule fires without a beat (module doc).
    fn seal_due(&self) -> Option<Time> {
        let next = self.arrival(self.accrued + 1);
        if self.beat_unspent {
            return next;
        }
        let opened = (!self.is_empty()).then_some(self.buffer_opened).or(next)?;
        let age = opened + self.config.max_batch_delay;
        let size = self.arrival(self.accrued + self.to_size());
        Some(size.map_or(age, |size| size.min(age)))
    }

    /// Arms `TAG_SEAL` for [`Self::seal_due`], unless it is set for then.
    fn arm(&mut self, ctx: &mut Ctx<Ext>) {
        if let Some(at) = self.seal_due().filter(|at| self.armed != Some(*at)) {
            ctx.timer(at.saturating_sub(ctx.now()), TAG_SEAL);
            self.armed = Some(at);
        }
    }

    /// Persists a batch and hands its digest to the primary — in that
    /// order: a report is a promise that the store can serve the bytes.
    fn store_and_report(&self, digest: Digest, bytes: &[u8], batch: &Batch, ctx: &mut Ctx<Ext>) {
        fail_stop(self.store.put_batch(&digest, bytes));
        self.report(digest, batch, ctx);
    }

    /// Seals and disseminates a batch.
    fn seal(&mut self, batch: Batch, ctx: &mut Ctx<Ext>) {
        let (digest, bytes) = BlockStore::encode_batch(&batch);
        let acked = HashSet::from([self.me]);
        if acked.len() >= self.committee.quorum_threshold() {
            // Single-validator committee: no replication needed.
            self.store_and_report(digest, &bytes, &batch, ctx);
        } else {
            for peer in self.addr.peer_workers(self.me, self.worker_id) {
                ctx.send(peer, NarwhalMsg::Batch(batch.clone()));
            }
            let created = ctx.now();
            let pending = PendingBatch {
                batch,
                bytes,
                acked,
                created,
            };
            self.pending.insert(digest, pending);
        }
    }

    /// Seals the buffer: client transactions as one batch, virtual arrivals
    /// as one synthetic batch, each with the samples on its positions.
    fn seal_buffer(&mut self, ctx: &mut Ctx<Ext>) {
        let real = self.buffer.len() as u64;
        let total = real + self.virtual_txs;
        let k = SAMPLES_PER_BATCH.min(total);
        let (mut samples, mut synthetic) = (Vec::new(), Vec::new());
        for p in (0..k).map(|j| j * total / k) {
            let id = self.next_sample_id();
            match self.arrived.get(p as usize) {
                Some(&submit_ns) => samples.push(TxSample { id, submit_ns }),
                None => {
                    let submit_ns = self.arrival(self.accrued + p + 1 - total);
                    let submit_ns = submit_ns.unwrap_or_default();
                    synthetic.push(TxSample { id, submit_ns });
                }
            }
        }
        let (me, worker) = (self.me, self.worker_id);
        if real > 0 {
            self.seq += 1;
            let txs = std::mem::take(&mut self.buffer);
            self.seal(Batch::new(me, worker, self.seq, txs, samples), ctx);
        }
        let count = std::mem::take(&mut self.virtual_txs);
        if count > 0 {
            self.seq += 1;
            let bytes = count * TX_BYTES as u64;
            let batch = Batch::synthetic(me, worker, self.seq, count, bytes, synthetic);
            self.seal(batch, ctx);
        }
        self.arrived.clear();
        self.buffer_bytes = 0;
    }

    fn report(&self, digest: Digest, batch: &Batch, ctx: &mut Ctx<Ext>) {
        let info = BatchInfo {
            digest,
            worker: self.worker_id,
            creator: batch.creator,
            tx_count: batch.tx_count(),
            tx_bytes: batch.tx_bytes(),
            samples: batch.samples.clone(),
        };
        ctx.send(self.addr.primary(self.me), NarwhalMsg::ReportBatch(info));
    }
}

impl<Ext: Clone + Send + 'static> Actor for Worker<Ext> {
    type Message = NarwhalMsg<Ext>;

    fn on_start(&mut self, ctx: &mut Context<Self::Message>) {
        self.started = ctx.now();
        self.recover(ctx);
        self.arm(ctx);
        ctx.timer(SYNC_RETRY_DELAY, TAG_RETRY);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<Self::Message>) {
        self.accrue(ctx);
        match tag {
            // The fallback. A firing that finds a younger buffer (a beat sealed
            // the one it was armed for) or none is stale.
            TAG_SEAL => {
                let age = ctx.now().saturating_sub(self.buffer_opened);
                if !self.is_empty() && age >= self.config.max_batch_delay {
                    self.seal_buffer(ctx);
                }
            }
            TAG_RETRY => {
                let now = ctx.now();
                // Re-broadcast own batches stuck without a quorum (§4.1), until
                // the quorum forms or the batch is garbage collected.
                let peers = self.addr.peer_workers(self.me, self.worker_id);
                for p in self.pending.values() {
                    if now.saturating_sub(p.created) < RESEND_DELAY {
                        continue;
                    }
                    for &node in &peers {
                        let owner = self.addr.worker_of(node);
                        if owner.is_some_and(|(v, _)| !p.acked.contains(&v)) {
                            ctx.send(node, NarwhalMsg::Batch(p.batch.clone()));
                        }
                    }
                }
                // Retry outstanding fetches against rotating targets,
                // deterministically skipping ourselves: we cannot answer.
                for (digest, fetch) in self.fetching.iter_mut() {
                    if now.saturating_sub(fetch.last) >= SYNC_RETRY_DELAY {
                        fetch.attempts += 1;
                        fetch.last = now;
                        let target = self.addr.rotate(self.me, fetch.creator, fetch.attempts);
                        let node = self.addr.worker(target, self.worker_id);
                        let digests = vec![*digest];
                        ctx.send(node, NarwhalMsg::BatchRequest { digests });
                    }
                }
                ctx.timer(SYNC_RETRY_DELAY, TAG_RETRY);
            }
            _ => {}
        }
        self.arm(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>) {
        self.accrue(ctx);
        match msg {
            NarwhalMsg::ClientTx(tx) => {
                if self.is_empty() {
                    self.buffer_opened = ctx.now();
                }
                self.buffer_bytes += tx.len();
                self.buffer.push(tx);
                self.arrived.push(ctx.now());
                self.on_arrival(ctx);
            }
            // The beat (module doc): our own primary's block left.
            NarwhalMsg::Header(header)
                if header.author == self.me && from == self.addr.primary(self.me) =>
            {
                if self.is_empty() {
                    self.beat_unspent = true;
                } else {
                    self.seal_buffer(ctx);
                }
            }
            // A peer's batch, from the peer's worker of our index: only the
            // creator vouches that it disseminated it, and our own batches
            // come back as acknowledgments, never as batches.
            NarwhalMsg::Batch(batch)
                if batch.creator != self.me
                    && from == self.addr.worker(batch.creator, self.worker_id) =>
            {
                let (digest, bytes) = BlockStore::encode_batch(&batch);
                let first_seen = !self.holds(&digest);
                // Persist *before* acknowledging: the ack is a storage
                // promise another validator's certificate will depend on
                // (§4.2), so it must survive our crash.
                if first_seen {
                    fail_stop(self.store.put_batch(&digest, &bytes));
                }
                let voter = self.me;
                ctx.send(from, NarwhalMsg::BatchAck { digest, voter });
                if first_seen {
                    self.report(digest, &batch, ctx);
                }
                self.fetching.remove(&digest);
            }
            // An acknowledgment counts for its voter only from the voter's
            // worker of our index: the 2f+1 acks are a storage quorum.
            NarwhalMsg::BatchAck { digest, voter }
                if from == self.addr.worker(voter, self.worker_id) =>
            {
                let quorum = self.committee.quorum_threshold();
                let reached = self.pending.get_mut(&digest).is_some_and(|p| {
                    p.acked.insert(voter);
                    p.acked.len() >= quorum
                });
                if let Some(done) = reached.then(|| self.pending.remove(&digest)).flatten() {
                    // Replicated enough to be referenced by a block: persist
                    // it before the digest reaches the primary.
                    self.store_and_report(digest, &done.bytes, &done.batch, ctx);
                }
            }
            NarwhalMsg::BatchRequest { digests } => {
                let batches: Vec<Batch> = digests
                    .iter()
                    .filter_map(|d| match self.pending.get(d) {
                        Some(p) => Some(p.batch.clone()),
                        None => fail_stop(self.store.get_batch(d)),
                    })
                    .collect();
                if !batches.is_empty() {
                    ctx.send(from, NarwhalMsg::BatchResponse { batches });
                }
            }
            NarwhalMsg::BatchResponse { batches } => {
                for batch in batches {
                    let (digest, bytes) = BlockStore::encode_batch(&batch);
                    // Only an answer to a fetch in flight is taken.
                    if self.fetching.remove(&digest).is_some() {
                        self.store_and_report(digest, &bytes, &batch, ctx);
                    }
                }
            }
            // Only our own primary asks us to fetch.
            NarwhalMsg::FetchBatch {
                digest, creator, ..
            } if from == self.addr.primary(self.me) => {
                if self.pending.contains_key(&digest) {
                    // Own batch awaiting its quorum: the report follows it.
                } else if let Some(batch) = fail_stop(self.store.get_batch(&digest)) {
                    // Held, so durable: re-report it, and rewrite nothing.
                    self.report(digest, &batch, ctx);
                } else if let Entry::Vacant(e) = self.fetching.entry(digest) {
                    // Never seen, or deleted by our validator's garbage
                    // collection: peers still hold it.
                    e.insert(FetchState {
                        creator,
                        attempts: 0,
                        last: ctx.now(),
                    });
                    let digests = vec![digest];
                    let node = self.addr.worker(creator, self.worker_id);
                    ctx.send(node, NarwhalMsg::BatchRequest { digests });
                }
            }
            // Primary-to-primary traffic is never addressed to workers.
            _ => {}
        }
        self.arm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SyntheticLoad;
    use crate::consensus::NoExt;
    use crate::store::BATCH_ENCODES;
    use nt_crypto::{Hashable as _, Scheme};
    use nt_network::Effect;
    use nt_network::{MS, SEC};
    use nt_storage::{DynStore, MemStore, Store, StoreError};
    use nt_types::Header;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    type Msg = NarwhalMsg<NoExt>;

    fn setup(n: usize) -> (Committee, AddressBook, Vec<Worker<NoExt>>) {
        let (committee, _) = Committee::deterministic(n, 1, Scheme::Insecure);
        let addr = AddressBook::new(n, 1);
        let workers = (0..n as u32)
            .map(|v| crate::node::NodeBuilder::new(committee.clone(), v).build_worker(WorkerId(0)))
            .collect();
        (committee, addr, workers)
    }

    fn sends(effects: Vec<Effect<Msg>>) -> Vec<(NodeId, Msg)> {
        effects
            .into_iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    /// A `MemStore` that counts the writes and value reads reaching it.
    #[derive(Default)]
    struct Counting {
        inner: MemStore,
        puts: AtomicUsize,
        gets: AtomicUsize,
    }

    impl Store for Counting {
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.inner.put(key, value)
        }
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
            self.gets.fetch_add(1, Ordering::Relaxed);
            self.inner.get(key)
        }
        fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
            self.inner.delete(key)
        }
        fn contains(&self, key: &[u8]) -> Result<bool, StoreError> {
            self.inner.contains(key)
        }
        fn keys_with_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
            self.inner.keys_with_prefix(prefix)
        }
        fn len(&self) -> Result<usize, StoreError> {
            self.inner.len()
        }
    }

    fn worker_over(store: DynStore) -> Worker<NoExt> {
        let (committee, _) = Committee::deterministic(4, 1, Scheme::Insecure);
        crate::node::NodeBuilder::new(committee, 0)
            .store(store)
            .build_worker(WorkerId(0))
    }

    fn peer_batch(seq: u64) -> Batch {
        Batch::synthetic(ValidatorId(1), WorkerId(0), seq, 100, 51_200, vec![])
    }

    /// Delivers `msg` from node 5 (validator 1's worker) and returns the sends.
    fn deliver(worker: &mut Worker<NoExt>, msg: Msg) -> Vec<(NodeId, Msg)> {
        let mut ctx = Context::new(0, 4);
        worker.on_message(5, msg, &mut ctx);
        sends(ctx.drain())
    }

    /// Seals one own batch at `now` — a beat on the empty buffer, then one
    /// client transaction — and returns its digest.
    fn seal_own(worker: &mut Worker<NoExt>, now: Time) -> Digest {
        beat(worker, now);
        let mut ctx = Context::new(now, 4);
        let tx = Transaction::filler(now, 0, 512);
        worker.on_message(nt_network::CLIENT, NarwhalMsg::ClientTx(tx), &mut ctx);
        sends(ctx.drain())
            .into_iter()
            .find_map(|(_, m)| match m {
                NarwhalMsg::Batch(b) => Some(b.digest()),
                _ => None,
            })
            .expect("batch sent")
    }

    #[test]
    fn synthetic_seal_broadcasts_batch() {
        let (mut worker, _) = loaded(10_000.0, NarwhalConfig::default(), 0);
        let mut ctx = Context::new(100 * US, 4);
        worker.on_timer(TAG_SEAL, &mut ctx);
        let to: Vec<NodeId> = sends(ctx.drain())
            .into_iter()
            .filter(|(_, m)| matches!(m, NarwhalMsg::Batch(b) if b.tx_count() == 1))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(to, vec![5, 6, 7], "batch goes to the 3 peer workers");
    }

    #[test]
    fn quorum_of_acks_reports_to_primary() {
        let (_, addr, mut workers) = setup(4);
        let digest = seal_own(&mut workers[0], 200 * MS);

        // First ack (self + 1 = 2 of 3): no report yet.
        let mut ctx = Context::new(210 * MS, 4);
        workers[0].on_message(
            5,
            NarwhalMsg::BatchAck {
                digest,
                voter: ValidatorId(1),
            },
            &mut ctx,
        );
        assert!(sends(ctx.drain()).is_empty());

        // Second ack completes the quorum: report to own primary.
        let mut ctx = Context::new(220 * MS, 4);
        workers[0].on_message(
            6,
            NarwhalMsg::BatchAck {
                digest,
                voter: ValidatorId(2),
            },
            &mut ctx,
        );
        let out = sends(ctx.drain());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, addr.primary(ValidatorId(0)));
        match &out[0].1 {
            NarwhalMsg::ReportBatch(info) => {
                assert_eq!(info.digest, digest);
                assert_eq!(info.creator, ValidatorId(0));
                assert!(info.tx_count > 0);
            }
            other => panic!("expected report, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_acks_do_not_double_count() {
        let (_, _, mut workers) = setup(4);
        let digest = seal_own(&mut workers[0], 200 * MS);
        for _ in 0..3 {
            let mut ctx = Context::new(210 * MS, 4);
            workers[0].on_message(
                5,
                NarwhalMsg::BatchAck {
                    digest,
                    voter: ValidatorId(1),
                },
                &mut ctx,
            );
            assert!(
                sends(ctx.drain()).is_empty(),
                "same voter never completes a quorum"
            );
        }
    }

    /// The senders no worker input but the one under test may come from:
    /// a client, a peer's primary, and validator 3's worker.
    fn strangers(addr: &AddressBook) -> [NodeId; 3] {
        let wrong = ValidatorId(3);
        [
            nt_network::CLIENT,
            addr.primary(ValidatorId(1)),
            addr.worker(wrong, WorkerId(0)),
        ]
    }

    #[test]
    fn an_ack_counts_only_from_its_voters_worker() {
        let (_, addr, mut workers) = setup(4);
        let digest = seal_own(&mut workers[0], 200 * MS);
        for from in strangers(&addr) {
            for voter in [1u32, 2] {
                let mut ctx = Context::new(210 * MS, 4);
                let ack = NarwhalMsg::BatchAck {
                    digest,
                    voter: ValidatorId(voter),
                };
                workers[0].on_message(from, ack, &mut ctx);
                assert!(sends(ctx.drain()).is_empty(), "an ack from {from} counted");
            }
            assert_eq!(workers[0].resident_batches(), 1);
            assert_eq!(workers[0].stored_batches(), 0);
        }
    }

    #[test]
    fn a_batch_is_taken_only_from_its_creators_worker_and_never_as_our_own() {
        let (_, addr, mut workers) = setup(4);
        let own = Batch::synthetic(ValidatorId(0), WorkerId(0), 9, 100, 51_200, vec![]);
        let inputs = strangers(&addr)
            .map(|from| (from, peer_batch(9)))
            .into_iter()
            .chain([(addr.worker(ValidatorId(0), WorkerId(0)), own)]);
        for (from, batch) in inputs {
            let mut ctx = Context::new(0, 4);
            workers[0].on_message(from, NarwhalMsg::Batch(batch), &mut ctx);
            assert!(sends(ctx.drain()).is_empty(), "a batch from {from} taken");
            assert_eq!(workers[0].stored_batches(), 0);
        }
    }

    #[test]
    fn a_response_is_taken_only_for_a_fetch_in_flight() {
        let (_, addr, mut workers) = setup(4);
        let batch = peer_batch(9);
        let creator = addr.worker(ValidatorId(1), WorkerId(0));
        for from in strangers(&addr).into_iter().chain([creator]) {
            let mut ctx = Context::new(0, 4);
            let batches = vec![batch.clone()];
            workers[0].on_message(from, NarwhalMsg::BatchResponse { batches }, &mut ctx);
            assert!(
                sends(ctx.drain()).is_empty(),
                "a response from {from} taken"
            );
            assert_eq!(workers[0].stored_batches(), 0);
        }
        // Fetched, the same response is stored and reported, whoever serves it.
        let mut ctx = Context::new(0, 4);
        let fetch = NarwhalMsg::FetchBatch {
            digest: batch.digest(),
            worker: WorkerId(0),
            creator: ValidatorId(1),
        };
        workers[0].on_message(addr.primary(ValidatorId(0)), fetch, &mut ctx);
        let server = addr.worker(ValidatorId(2), WorkerId(0));
        let batches = vec![batch];
        workers[0].on_message(server, NarwhalMsg::BatchResponse { batches }, &mut ctx);
        assert_eq!(workers[0].stored_batches(), 1);
    }

    #[test]
    fn peer_batch_stored_acked_and_reported() {
        let (_, addr, mut workers) = setup(4);
        let batch = Batch::synthetic(ValidatorId(1), WorkerId(0), 9, 100, 51_200, vec![]);
        let sender = addr.worker(ValidatorId(1), WorkerId(0));
        let mut ctx = Context::new(0, addr.worker(ValidatorId(0), WorkerId(0)));
        workers[0].on_message(sender, NarwhalMsg::Batch(batch.clone()), &mut ctx);
        let out = sends(ctx.drain());
        assert_eq!(out.len(), 2);
        assert!(matches!(
            &out[0],
            (node, NarwhalMsg::BatchAck { voter, .. })
                if *node == sender && *voter == ValidatorId(0)
        ));
        assert!(matches!(
            &out[1],
            (node, NarwhalMsg::ReportBatch(info))
                if *node == addr.primary(ValidatorId(0)) && info.creator == ValidatorId(1)
        ));
        assert_eq!(workers[0].stored_batches(), 1);
    }

    #[test]
    fn batch_request_served_from_store() {
        let (_, addr, mut workers) = setup(4);
        let batch = Batch::synthetic(ValidatorId(1), WorkerId(0), 9, 100, 51_200, vec![]);
        let digest = batch.digest();
        let mut ctx = Context::new(0, 4);
        workers[0].on_message(5, NarwhalMsg::Batch(batch), &mut ctx);
        ctx.drain();

        let requester = addr.worker(ValidatorId(2), WorkerId(0));
        let mut ctx = Context::new(0, 4);
        workers[0].on_message(
            requester,
            NarwhalMsg::BatchRequest {
                digests: vec![digest, Digest::of(b"unknown")],
            },
            &mut ctx,
        );
        let out = sends(ctx.drain());
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            NarwhalMsg::BatchResponse { batches } => {
                assert_eq!(batches.len(), 1, "only the known batch is returned");
                assert_eq!(batches[0].digest(), digest);
            }
            other => panic!("expected response, got {other:?}"),
        }
    }

    /// Only our own primary asks us to fetch: the same request from a
    /// client, a peer primary or a peer's worker starts nothing.
    #[test]
    fn fetch_batch_pulls_from_creator() {
        let (_, addr, mut workers) = setup(4);
        let digest = Digest::of(b"missing");
        let fetch = NarwhalMsg::FetchBatch {
            digest,
            worker: WorkerId(0),
            creator: ValidatorId(2),
        };
        let peer = ValidatorId(1);
        for from in [
            nt_network::CLIENT,
            addr.primary(peer),
            addr.worker(peer, WorkerId(0)),
        ] {
            let mut ctx = Context::new(0, 4);
            workers[0].on_message(from, fetch.clone(), &mut ctx);
            assert!(
                sends(ctx.drain()).is_empty(),
                "a fetch from {from} acted on"
            );
        }
        let now = SYNC_RETRY_DELAY + MS;
        let mut ctx = Context::new(now, 4);
        workers[0].on_timer(TAG_RETRY, &mut ctx);
        assert!(sends(ctx.drain()).is_empty(), "no fetch to retry");
        let mut ctx = Context::new(now, 4);
        workers[0].on_message(addr.primary(ValidatorId(0)), fetch, &mut ctx);
        let out = sends(ctx.drain());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, addr.worker(ValidatorId(2), WorkerId(0)));
        assert!(matches!(&out[0].1, NarwhalMsg::BatchRequest { digests } if digests[0] == digest));
    }

    #[test]
    fn retry_timer_resends_unacked_batches_to_non_ackers() {
        let (_, addr, mut workers) = setup(4);
        // Seal a batch (goes to 3 peers, awaiting 2f+1 = 3 acks incl self).
        let digest = seal_own(&mut workers[0], 200 * MS);
        // One ack arrives (validator 1); validators 2 and 3 are silent.
        let mut ctx = Context::new(250 * MS, 4);
        workers[0].on_message(
            5,
            NarwhalMsg::BatchAck {
                digest,
                voter: ValidatorId(1),
            },
            &mut ctx,
        );
        ctx.drain();
        // After the resend delay, the retry timer re-sends to 2 and 3 only.
        let resend_at = 200 * MS + RESEND_DELAY + MS;
        let mut ctx = Context::new(resend_at, 4);
        workers[0].on_timer(TAG_RETRY, &mut ctx);
        let targets: Vec<NodeId> = sends(ctx.drain())
            .into_iter()
            .filter(|(_, m)| matches!(m, NarwhalMsg::Batch(_)))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(
            targets,
            vec![
                addr.worker(ValidatorId(2), WorkerId(0)),
                addr.worker(ValidatorId(3), WorkerId(0)),
            ],
            "only non-ackers are retried"
        );
    }

    #[test]
    fn fetch_retries_rotate_targets() {
        let (_, addr, mut workers) = setup(4);
        let digest = Digest::of(b"gone");
        let mut ctx = Context::new(0, 4);
        workers[0].on_message(
            addr.primary(ValidatorId(0)),
            NarwhalMsg::FetchBatch {
                digest,
                worker: WorkerId(0),
                creator: ValidatorId(2),
            },
            &mut ctx,
        );
        let first: Vec<NodeId> = sends(ctx.drain()).into_iter().map(|(to, _)| to).collect();
        assert_eq!(first, vec![addr.worker(ValidatorId(2), WorkerId(0))]);
        // Repeated retry timers hit different validators (§4.1: asking "a
        // handful of validators" succeeds with overwhelming probability).
        let mut seen = std::collections::HashSet::new();
        let retry = SYNC_RETRY_DELAY;
        for k in 1..=3u64 {
            let mut ctx = Context::new(k * (retry + MS), 4);
            workers[0].on_timer(TAG_RETRY, &mut ctx);
            for (to, msg) in sends(ctx.drain()) {
                if matches!(msg, NarwhalMsg::BatchRequest { .. }) {
                    seen.insert(to);
                }
            }
        }
        assert!(seen.len() >= 2, "retries rotate over peers: {seen:?}");
    }

    #[test]
    fn restarted_worker_recovers_batches_and_sequence() {
        let (committee, addr, _) = setup(4);
        let backend: DynStore = Arc::new(MemStore::new());
        let mut worker: Worker<NoExt> = crate::node::NodeBuilder::new(committee.clone(), 0)
            .store(backend.clone())
            .build_worker(WorkerId(0));
        // A peer batch is persisted before it is acknowledged.
        let peer_batch = Batch::synthetic(ValidatorId(1), WorkerId(0), 9, 100, 51_200, vec![]);
        let mut ctx = Context::new(0, 4);
        worker.on_message(5, NarwhalMsg::Batch(peer_batch.clone()), &mut ctx);
        ctx.drain();
        // An own batch is persisted once its ack quorum forms.
        let own_digest = seal_own(&mut worker, 200 * MS);
        for voter in [1u32, 2] {
            let mut ctx = Context::new(210 * MS, 4);
            let voter = ValidatorId(voter);
            worker.on_message(
                addr.worker(voter, WorkerId(0)),
                NarwhalMsg::BatchAck {
                    digest: own_digest,
                    voter,
                },
                &mut ctx,
            );
            ctx.drain();
        }
        let own_seq = worker.seq;
        assert!(own_seq >= 1);

        // Crash; a fresh incarnation recovers both batches and re-reports.
        let mut revived: Worker<NoExt> = crate::node::NodeBuilder::new(committee, 0)
            .store(backend)
            .build_worker(WorkerId(0));
        let mut ctx = Context::new(SEC, 4);
        revived.on_start(&mut ctx);
        assert_eq!(revived.stored_batches(), 2, "both batches recovered");
        assert_eq!(
            revived.seq, own_seq,
            "batch sequence resumes, no digest reuse"
        );
        let reports: Vec<Digest> = sends(ctx.drain())
            .into_iter()
            .filter_map(|(to, m)| match m {
                NarwhalMsg::ReportBatch(info) if to == addr.primary(ValidatorId(0)) => {
                    Some(info.digest)
                }
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), 2, "recovered batches re-reported");
        assert!(reports.contains(&own_digest));
        assert!(reports.contains(&peer_batch.digest()));
    }

    #[test]
    fn only_pending_batches_are_resident() {
        let mut worker = worker_over(Arc::new(MemStore::new()));
        // N = 3 peer batches: stored, acknowledged, never kept.
        for seq in 1..=3 {
            deliver(&mut worker, NarwhalMsg::Batch(peer_batch(seq)));
        }
        assert_eq!((worker.resident_batches(), worker.stored_batches()), (0, 3));
        // M = 2 own batches: resident until the quorum, stored after.
        for k in 1..=2u64 {
            let digest = seal_own(&mut worker, k * 200 * MS);
            assert_eq!(worker.resident_batches(), 1);
            assert_eq!(worker.stored_batches(), 2 + k as usize, "not yet stored");
            for voter in [1u32, 2] {
                let voter = ValidatorId(voter);
                let mut ctx = Context::new(0, 4);
                let ack = NarwhalMsg::BatchAck { digest, voter };
                worker.on_message(4 + voter.0 as NodeId, ack, &mut ctx);
            }
        }
        assert_eq!((worker.resident_batches(), worker.stored_batches()), (0, 5));
    }

    #[test]
    fn batch_request_for_a_pending_batch_is_served_from_memory() {
        let store = Arc::new(Counting::default());
        let mut worker = worker_over(store.clone());
        let digest = seal_own(&mut worker, 200 * MS);
        let out = deliver(
            &mut worker,
            NarwhalMsg::BatchRequest {
                digests: vec![digest],
            },
        );
        assert!(matches!(
            &out[..],
            [(5, NarwhalMsg::BatchResponse { batches })] if batches[0].digest() == digest
        ));
        assert_eq!(store.puts.load(Ordering::Relaxed), 0, "not stored yet");
        assert_eq!(store.gets.load(Ordering::Relaxed), 0, "store not asked");
    }

    #[test]
    fn restarted_worker_serves_requests_without_loading() {
        let store: DynStore = Arc::new(MemStore::new());
        let batch = peer_batch(9);
        deliver(
            &mut worker_over(store.clone()),
            NarwhalMsg::Batch(batch.clone()),
        );
        // A fresh incarnation that has not even run `on_start`.
        let mut revived = worker_over(store);
        assert_eq!(revived.resident_batches(), 0);
        let out = deliver(
            &mut revived,
            NarwhalMsg::BatchRequest {
                digests: vec![batch.digest()],
            },
        );
        assert!(matches!(
            &out[..],
            [(5, NarwhalMsg::BatchResponse { batches })] if batches[0] == batch
        ));
    }

    #[test]
    fn one_encode_one_hash_one_put_per_received_batch() {
        let store = Arc::new(Counting::default());
        let mut worker = worker_over(store.clone());
        let counts = || {
            (
                BATCH_ENCODES.with(std::cell::Cell::get),
                store.puts.load(Ordering::Relaxed),
                store.gets.load(Ordering::Relaxed),
            )
        };
        let (encodes, ..) = counts();
        let out = deliver(&mut worker, NarwhalMsg::Batch(peer_batch(9)));
        assert_eq!(out.len(), 2, "acknowledged and reported");
        assert_eq!(counts(), (encodes + 1, 1, 0));
        // A duplicate is recognized by the index alone and not rewritten.
        let out = deliver(&mut worker, NarwhalMsg::Batch(peer_batch(9)));
        assert_eq!(out.len(), 1, "acknowledged only");
        assert_eq!(counts(), (encodes + 2, 1, 0));
    }

    #[test]
    fn fetch_batch_hit_writes_nothing_and_gc_deleted_falls_through_to_peers() {
        let store = Arc::new(Counting::default());
        let mut worker = worker_over(store.clone());
        let batch = peer_batch(9);
        let digest = batch.digest();
        deliver(&mut worker, NarwhalMsg::Batch(batch));
        // Our own primary (node 0) asks.
        let fetch = |worker: &mut Worker<NoExt>| {
            let msg = NarwhalMsg::FetchBatch {
                digest,
                worker: WorkerId(0),
                creator: ValidatorId(1),
            };
            let mut ctx = Context::new(0, 4);
            worker.on_message(0, msg, &mut ctx);
            sends(ctx.drain())
        };
        // Held: re-reported from the store, nothing re-persisted.
        let out = fetch(&mut worker);
        assert!(matches!(
            &out[..],
            [(_, NarwhalMsg::ReportBatch(info))] if info.digest == digest
        ));
        assert_eq!(store.puts.load(Ordering::Relaxed), 1, "no re-put on a hit");
        // The validator's GC deletes the bytes from the shared store: the
        // worker has no copy of its own and asks the creator again.
        BlockStore::new(store.clone())
            .delete_batch(&digest)
            .unwrap();
        let out = fetch(&mut worker);
        assert!(matches!(
            &out[..],
            [(5, NarwhalMsg::BatchRequest { digests })] if digests[..] == [digest]
        ));
        assert_eq!(store.puts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fetch_retry_rotation_skips_self() {
        let (_, addr, mut workers) = setup(4);
        // Validator 0 fetches a batch created by validator 3: the rotation
        // (creator + attempts) mod n passes through every slot including
        // our own, which must be skipped — asking ourselves for a batch we
        // do not have can never succeed.
        let digest = Digest::of(b"never self");
        let mut ctx = Context::new(0, 4);
        workers[0].on_message(
            addr.primary(ValidatorId(0)),
            NarwhalMsg::FetchBatch {
                digest,
                worker: WorkerId(0),
                creator: ValidatorId(3),
            },
            &mut ctx,
        );
        ctx.drain();
        let retry = SYNC_RETRY_DELAY;
        let own_node = addr.worker(ValidatorId(0), WorkerId(0));
        for k in 1..=8u64 {
            let mut ctx = Context::new(k * (retry + MS), 4);
            workers[0].on_timer(TAG_RETRY, &mut ctx);
            for (to, msg) in sends(ctx.drain()) {
                if matches!(msg, NarwhalMsg::BatchRequest { .. }) {
                    assert_ne!(to, own_node, "attempt {k} targeted ourselves");
                }
            }
        }
    }

    /// Validator 0's worker taking client transactions, under `config`.
    fn ingesting(config: NarwhalConfig) -> Worker<NoExt> {
        let (committee, _) = Committee::deterministic(4, 1, Scheme::Insecure);
        crate::node::NodeBuilder::new(committee, 0)
            .config(config)
            .build_worker(WorkerId(0))
    }

    /// The transaction counts of the batches the drained effects sealed (one
    /// `Batch` per seal reaches validator 1's worker, node 5), and the delays
    /// of the `TAG_SEAL` timers they armed.
    fn sealed(ctx: &mut Context<Msg>) -> (Vec<u64>, Vec<Time>) {
        let (mut batches, mut timers) = (Vec::new(), Vec::new());
        for effect in ctx.drain() {
            match effect {
                Effect::Send {
                    to: 5,
                    msg: NarwhalMsg::Batch(batch),
                } => batches.push(batch.tx_count()),
                Effect::Timer {
                    delay,
                    tag: TAG_SEAL,
                } => timers.push(delay),
                _ => {}
            }
        }
        (batches, timers)
    }

    /// One client transaction at `now`.
    fn ingest(worker: &mut Worker<NoExt>, now: Time) -> (Vec<u64>, Vec<Time>) {
        let mut ctx = Context::new(now, 4);
        let tx = Transaction::filler(now, 0, 512);
        worker.on_message(nt_network::CLIENT, NarwhalMsg::ClientTx(tx), &mut ctx);
        sealed(&mut ctx)
    }

    /// A round-1 block of `author`.
    fn header(author: u32) -> Msg {
        let (_, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let author_id = ValidatorId(author);
        let header = Header::new(&kps[author as usize], author_id, 1, vec![], vec![], None);
        NarwhalMsg::Header(header)
    }

    /// A block of `author` delivered by node `from` at `now`.
    fn header_from(
        worker: &mut Worker<NoExt>,
        author: u32,
        from: NodeId,
        now: Time,
    ) -> (Vec<u64>, Vec<Time>) {
        let mut ctx = Context::new(now, 4);
        worker.on_message(from, header(author), &mut ctx);
        sealed(&mut ctx)
    }

    /// The beat: validator 0's block, from validator 0's primary.
    fn beat(worker: &mut Worker<NoExt>, now: Time) -> (Vec<u64>, Vec<Time>) {
        header_from(worker, 0, 0, now)
    }

    fn fallback_timer(worker: &mut Worker<NoExt>, now: Time) -> (Vec<u64>, Vec<Time>) {
        let mut ctx = Context::new(now, 4);
        worker.on_timer(TAG_SEAL, &mut ctx);
        sealed(&mut ctx)
    }

    const NOTHING: (Vec<u64>, Vec<Time>) = (Vec::new(), Vec::new());

    #[test]
    fn a_beat_seals_what_gathered_since_the_last_one_and_an_idle_beat_seals_the_next_transaction() {
        let delay = NarwhalConfig::default().max_batch_delay;
        let mut worker = ingesting(NarwhalConfig::default());
        let mut ctx = Context::new(0, 4);
        worker.on_start(&mut ctx);
        assert_eq!(sealed(&mut ctx), NOTHING, "real mode has no periodic seal");
        // No block has left yet: the first transaction waits for nothing.
        assert_eq!(ingest(&mut worker, MS), (vec![1], vec![]));
        // The block carrying it is being built; what arrives meanwhile
        // gathers, under one fallback timer.
        assert_eq!(ingest(&mut worker, 2 * MS), (vec![], vec![delay]));
        for k in 3..=6 {
            assert_eq!(ingest(&mut worker, k * MS), NOTHING);
        }
        // The block leaves: the five ride in the next one, as one batch.
        assert_eq!(beat(&mut worker, 7 * MS), (vec![5], vec![]));
        // The next block leaves with nothing gathered: nothing to seal, and
        // the beat is kept for the next transaction — for that one only.
        assert_eq!(beat(&mut worker, 14 * MS), NOTHING);
        assert_eq!(
            beat(&mut worker, 21 * MS),
            NOTHING,
            "kept once, not counted"
        );
        assert_eq!(ingest(&mut worker, 30 * MS), (vec![1], vec![]));
        assert_eq!(ingest(&mut worker, 31 * MS), (vec![], vec![delay]));
        assert_eq!(beat(&mut worker, 37 * MS), (vec![1], vec![]));
    }

    #[test]
    fn only_our_own_primarys_own_block_is_a_beat() {
        let mut worker = ingesting(NarwhalConfig::default());
        ingest(&mut worker, 0); // spends the beat a worker starts with
        let not_beats = [
            (0, 1),                  // our block, relayed by a peer's primary
            (1, 0),                  // a peer's block, from our primary
            (0, 5),                  // our block, from a peer's worker
            (0, nt_network::CLIENT), // our block, from a client
        ];
        // On an empty buffer: the next transaction is not sealed alone.
        for (k, (author, from)) in not_beats.into_iter().enumerate() {
            assert_eq!(header_from(&mut worker, author, from, k as Time), NOTHING);
        }
        assert!(ingest(&mut worker, 10).0.is_empty());
        // On a buffer holding one transaction: not sealed.
        for (k, (author, from)) in not_beats.into_iter().enumerate() {
            assert_eq!(
                header_from(&mut worker, author, from, 20 + k as Time),
                NOTHING
            );
        }
        assert_eq!(beat(&mut worker, 30).0, vec![1]);
    }

    #[test]
    fn the_fallback_seals_at_the_delay_from_the_first_buffered_transaction_and_a_stale_timer_seals_nothing(
    ) {
        let delay = NarwhalConfig::default().max_batch_delay;
        let mut worker = ingesting(NarwhalConfig::default());
        ingest(&mut worker, 0);
        // Buffer A opens at 10 ms and arms the timer due at `10 ms + delay`.
        assert_eq!(ingest(&mut worker, 10 * MS), (vec![], vec![delay]));
        assert_eq!(ingest(&mut worker, 60 * MS), NOTHING, "one timer a buffer");
        // A beat seals A; buffer B opens at 70 ms under a timer of its own.
        assert_eq!(beat(&mut worker, 65 * MS).0, vec![2]);
        assert_eq!(ingest(&mut worker, 70 * MS), (vec![], vec![delay]));
        // A's timer fires: B is 40 ms old, and stays.
        assert_eq!(fallback_timer(&mut worker, 10 * MS + delay), NOTHING);
        // No beat comes (the primary is down): B's own timer seals it, at
        // the delay from its first transaction — not from the last seal, and
        // with nothing re-armed.
        assert_eq!(ingest(&mut worker, 70 * MS + delay - 1), NOTHING);
        assert_eq!(
            fallback_timer(&mut worker, 70 * MS + delay),
            (vec![2], vec![])
        );
        // On an empty buffer a firing does nothing.
        assert_eq!(fallback_timer(&mut worker, SEC), NOTHING);
    }

    /// Early seals <= own proposals + 1, whatever the interleaving.
    #[test]
    fn every_seal_short_of_size_and_age_spends_one_beat() {
        let mut worker = ingesting(NarwhalConfig::default());
        let (mut beats, mut seals, mut txs) = (0u64, 0u64, 0u64);
        let mut x = 7u64;
        for now in 0..2_000 {
            // A fixed pseudo-random walk: runs of beats, runs of transactions.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (batches, _) = if (x >> 60) < 5 {
                beats += 1;
                beat(&mut worker, now)
            } else {
                txs += 1;
                ingest(&mut worker, now)
            };
            seals += batches.len() as u64;
            assert!(seals <= beats + 1, "at {now}: {seals} seals, {beats} beats");
        }
        let buffered = worker.buffer.len() as u64;
        assert!(
            beats > 100 && seals > 100 && txs > seals,
            "the walk mixes both"
        );
        assert_eq!(worker.seq, seals);
        assert!(buffered < txs, "and something was sealed");
    }

    #[test]
    fn real_mode_seals_at_size() {
        let mut worker = ingesting(NarwhalConfig {
            batch_bytes: 2_000,
            ..NarwhalConfig::default()
        });
        ingest(&mut worker, 0); // spends the beat a worker starts with
        let mut batches = Vec::new();
        for now in 1..=8 {
            batches.extend(ingest(&mut worker, now).0);
        }
        // 8 x 512 B against the 2000 B threshold: two seals, of four each.
        assert_eq!(batches, vec![4, 4]);
        // A transaction of the size seals alone, beat or no beat.
        let mut ctx = Context::new(9, 4);
        let tx = Transaction::filler(9, 0, 2_000);
        worker.on_message(nt_network::CLIENT, NarwhalMsg::ClientTx(tx), &mut ctx);
        assert_eq!(sealed(&mut ctx), (vec![1], vec![]));
    }

    /// Validator 0's worker generating `rate` transactions a second under
    /// `config`, started at `t0`, and the seal timers its start armed.
    fn loaded(rate: f64, config: NarwhalConfig, t0: Time) -> (Worker<NoExt>, Vec<Time>) {
        let load = Some(SyntheticLoad { rate_tps: rate });
        let mut worker = ingesting(NarwhalConfig { load, ..config });
        let mut ctx = Context::new(t0, 4);
        worker.on_start(&mut ctx);
        let (batches, timers) = sealed(&mut ctx);
        assert!(batches.is_empty());
        (worker, timers)
    }

    const US: Time = 1_000;

    #[test]
    fn under_load_a_beat_seals_exactly_what_accrued_since_the_last_seal() {
        // Started at 3 ms, 10 000 tx/s: the i-th arrives at 3 ms + i * 100 us.
        let (mut worker, armed) = loaded(10_000.0, NarwhalConfig::default(), 3 * MS);
        // The beat a worker starts with is kept for the first arrival.
        assert_eq!(armed, vec![100 * US]);
        assert_eq!(fallback_timer(&mut worker, 3 * MS + 100 * US).0, vec![1]);
        // Each beat seals the arrivals since the last seal, counted to the
        // instant: arrival 30 is due at 6 ms, not a nanosecond earlier.
        assert_eq!(beat(&mut worker, 5 * MS).0, vec![19]);
        assert_eq!(beat(&mut worker, 5 * MS + 350 * US).0, vec![3]);
        assert_eq!(beat(&mut worker, 6 * MS - 1).0, vec![6]);
        assert_eq!(beat(&mut worker, 6 * MS).0, vec![1]);
        // A client transaction joins the same buffer — it brings the size
        // crossing one arrival closer, to arrival 1006 at 103.6 ms — and the
        // same beat seals both: the transaction as data, arrivals 31..=33 as
        // one synthetic batch.
        let crossing = 103_600 * US - (6 * MS + 250 * US);
        assert_eq!(
            ingest(&mut worker, 6 * MS + 250 * US),
            (vec![], vec![crossing])
        );
        assert_eq!(beat(&mut worker, 6 * MS + 300 * US).0, vec![1, 3]);
    }

    #[test]
    fn under_load_an_idle_beat_seals_the_next_arrival_alone() {
        let (mut worker, _) = loaded(10_000.0, NarwhalConfig::default(), 0);
        assert_eq!(fallback_timer(&mut worker, 100 * US).0, vec![1]);
        assert_eq!(beat(&mut worker, MS).0, vec![9]);
        // The block leaves with nothing gathered: a timer for the next
        // arrival, which is sealed alone — and only that one.
        assert_eq!(beat(&mut worker, MS), (vec![], vec![100 * US]));
        assert_eq!(fallback_timer(&mut worker, MS + 100 * US).0, vec![1]);
        assert_eq!(fallback_timer(&mut worker, MS + 200 * US), NOTHING);
        // Found late, after three arrivals: the first alone, two wait.
        assert_eq!(beat(&mut worker, 2 * MS).0, vec![9]);
        assert_eq!(beat(&mut worker, 2 * MS), (vec![], vec![100 * US]));
        assert_eq!(header_from(&mut worker, 1, 1, 2 * MS + 350 * US).0, vec![1]);
        assert_eq!(beat(&mut worker, 2 * MS + 350 * US).0, vec![2]);
    }

    #[test]
    fn under_load_a_size_seal_falls_on_the_crossing_arrival_even_after_a_long_gap() {
        let config = NarwhalConfig {
            batch_bytes: 10 * 512,
            ..NarwhalConfig::default()
        };
        let (mut worker, _) = loaded(10_000.0, config, 0);
        // After the first arrival, the timer is for the tenth one after it.
        assert_eq!(fallback_timer(&mut worker, 100 * US), (vec![1], vec![MS]));
        assert_eq!(fallback_timer(&mut worker, 1_100 * US - 1), NOTHING);
        assert_eq!(
            fallback_timer(&mut worker, 1_100 * US),
            (vec![10], vec![MS])
        );
        // Nothing wakes the worker until 5.55 ms: arrivals 12..=51 fill four
        // batches, 52..=55 wait for arrival 61.
        assert_eq!(
            header_from(&mut worker, 1, 1, 5_550 * US),
            (vec![10; 4], vec![550 * US])
        );
    }

    #[test]
    fn under_load_the_fallback_seals_without_a_beat_and_a_stale_firing_seals_nothing() {
        // 100 tx/s: the i-th arrives at i * 10 ms.
        let (mut worker, armed) = loaded(100.0, NarwhalConfig::default(), 0);
        assert_eq!(armed, vec![10 * MS]);
        // Arrival 2 opens the next buffer: the timer is for 120 ms.
        assert_eq!(
            fallback_timer(&mut worker, 10 * MS),
            (vec![1], vec![110 * MS])
        );
        // A beat seals arrivals 2..=6; arrival 7 opens a buffer at 70 ms.
        assert_eq!(beat(&mut worker, 65 * MS), (vec![5], vec![105 * MS]));
        assert_eq!(fallback_timer(&mut worker, 120 * MS), NOTHING, "stale");
        // The primary goes quiet: the fallback alone paces the worker.
        for (k, at) in [170, 280, 390].into_iter().enumerate() {
            assert_eq!(
                fallback_timer(&mut worker, at * MS),
                (vec![11], vec![110 * MS]),
                "seal {k}"
            );
        }
    }

    #[test]
    fn under_load_the_virtual_count_is_the_floor_of_rate_times_elapsed_at_every_event() {
        let (rate, t0) = (3_333.3, 7 * MS);
        let config = NarwhalConfig {
            batch_bytes: 20_000,
            ..NarwhalConfig::default()
        };
        let (mut worker, _) = loaded(rate, config, t0);
        // At 0.7 tx/s the 63rd arrival is due at exactly 90 s, where the
        // floor still counts 62: a timer armed for it must fire later, or it
        // would find nothing and be armed for the same instant again.
        let (slow, _) = loaded(0.7, NarwhalConfig::default(), 0);
        for i in 1..=200 {
            let at = slow.arrival(i).expect("under load");
            assert_eq!(slow.due(0.7, at), i, "arrival {i} at {at}");
        }
        let (mut now, mut counted, mut x) = (t0, 0u64, 7u64);
        for step in 0..2_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            now += (x >> 32) % (3 * MS);
            let (batches, _) = match x >> 62 {
                0 => beat(&mut worker, now),
                1 => header_from(&mut worker, 1, 1, now),
                _ => fallback_timer(&mut worker, now),
            };
            counted += batches.iter().sum::<u64>();
            let elapsed = (now - t0) as f64 / SEC as f64;
            let expected = (elapsed * rate).floor() as u64;
            assert_eq!(counted + worker.virtual_txs, expected, "step {step}");
        }
        assert!(counted > 4_000, "{counted}");
    }

    #[test]
    fn a_batch_samples_at_most_samples_per_batch_evenly_spaced_arrivals() {
        let samples = |worker: &mut Worker<NoExt>, msg: Msg, now: Time| {
            let mut ctx = Context::new(now, 4);
            worker.on_message(0, msg, &mut ctx);
            let mut times: Vec<Vec<Time>> = Vec::new();
            for effect in ctx.drain() {
                if let Effect::Send {
                    to: 5,
                    msg: NarwhalMsg::Batch(batch),
                } = effect
                {
                    times.push(batch.samples.iter().map(|s| s.submit_ns / MS).collect());
                }
            }
            times
        };
        // Ten client transactions at 1..=10 ms: positions 0, 2, 5 and 7.
        let mut worker = ingesting(NarwhalConfig::default());
        ingest(&mut worker, 0);
        for at in 1..=10 {
            ingest(&mut worker, at * MS);
        }
        assert_eq!(samples(&mut worker, header(0), 11 * MS), [vec![1, 3, 6, 8]]);
        // Ten virtual arrivals at 2..=11 ms: the same positions.
        let rate = 1_000.0;
        let (mut worker, _) = loaded(rate, NarwhalConfig::default(), 0);
        fallback_timer(&mut worker, MS);
        assert_eq!(samples(&mut worker, header(0), 11 * MS), [vec![2, 4, 7, 9]]);
        // More samples than the batch holds arrivals: all of them.
        let (mut worker, _) = loaded(rate, NarwhalConfig::default(), 0);
        fallback_timer(&mut worker, MS);
        beat(&mut worker, 11 * MS);
        assert_eq!(samples(&mut worker, header(0), 14 * MS), [vec![12, 13, 14]]);
    }
}
