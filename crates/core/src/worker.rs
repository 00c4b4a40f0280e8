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
//! as well as for the other primaries, and a worker taking client
//! transactions seals its buffer at the earliest of:
//!
//! - **size**: the buffer reaches `batch_bytes`;
//! - **beat**: a header of our own primary arrives and the buffer is not
//!   empty — what gathered while that block was built rides in the next. On
//!   an empty buffer the beat is remembered instead (`beat_unspent`);
//! - **a remembered beat**: a transaction arrives and the last beat found
//!   nothing to seal (or none came yet) — it is sealed at once, alone, so a
//!   lone transaction into an idle committee waits for nothing; the block
//!   that carries it is the next beat;
//! - **age**, the fallback: the first transaction into an empty buffer arms
//!   one timer, and a buffer whose oldest transaction is `max_batch_delay`
//!   old when it fires is sealed. With the primary down or its beat lost,
//!   this is the whole rule, and the paper's.
//!
//! `max_batch_delay` and `batch_bytes` are thus the two bounds, never the
//! pace. The worker reads the header's author and nothing else, and verifies
//! nothing: a forged beat can at worst seal a non-empty buffer early.
//! Invariant: every seal before size or age spends one beat, and a beat is
//! spent once, so early seals <= own proposals + 1 (the beat a worker starts
//! with) and batches/s <= rounds/s + size seals/s + 1/`max_batch_delay`.
//!
//! A self-generating worker (`config.load`, the simulator's synthetic mode)
//! has no buffer: it seals one synthetic batch per load interval, on a
//! periodic timer, and is sent no beat.

use crate::config::{NarwhalConfig, SyntheticLoad};
use crate::deployment::AddressBook;
use crate::messages::{BatchInfo, NarwhalMsg};
use crate::store::{fail_stop, BlockStore};
use nt_crypto::Digest;
use nt_network::{Actor, Context, NodeId, Time};
use nt_types::{Batch, Committee, Transaction, TxSample, ValidatorId, WorkerId};
use std::collections::{BTreeMap, HashSet};

const TAG_SEAL: u64 = 1;
const TAG_RETRY: u64 = 2;

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
    // Batching.
    buffer: Vec<Transaction>,
    buffer_bytes: usize,
    buffer_samples: Vec<TxSample>,
    /// When the oldest buffered transaction arrived.
    buffer_opened: Time,
    /// A block of ours left and found the buffer empty (or none left yet):
    /// the next transaction is sealed at once.
    beat_unspent: bool,
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
            buffer_bytes: 0,
            buffer_samples: Vec::new(),
            buffer_opened: 0,
            beat_unspent: true,
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
    /// view (`stored_batches`) from the reports — own uncommitted batches
    /// re-enter the proposal queue there, committed ones are filtered by
    /// the primary's own recovered state. Also resumes the batch/sample
    /// sequence counters so new batches never collide with pre-crash
    /// digests.
    fn recover(&mut self, ctx: &mut Context<NarwhalMsg<Ext>>) {
        for digest in fail_stop(self.store.batch_digests()) {
            // Unreadable records are skipped, as on-disk data always is.
            let Ok(Some(batch)) = self.store.get_batch(&digest) else {
                continue;
            };
            if batch.creator == self.me && batch.worker == self.worker_id {
                self.seq = self.seq.max(batch.seq);
                for sample in &batch.samples {
                    // Sample ids pack the per-worker counter in the low 40
                    // bits (see `next_sample_id`).
                    self.sample_seq = self.sample_seq.max(sample.id & ((1 << 40) - 1));
                }
            }
            self.report(digest, &batch, ctx);
        }
    }

    /// The retry-timer cadence: the smaller of the two retry delays, so a
    /// `resend_delay` below `sync_retry_delay` is not silently quantized
    /// up to the timer period.
    fn retry_interval(&self) -> Time {
        self.config.sync_retry_delay.min(self.config.resend_delay)
    }

    fn next_sample_id(&mut self) -> u64 {
        self.sample_seq += 1;
        // Globally unique across validators and workers.
        ((self.me.0 as u64) << 48) | ((self.worker_id.0 as u64) << 40) | self.sample_seq
    }

    /// Persists a batch and hands its digest to the primary — in that
    /// order: a report is a promise that the store can serve the bytes.
    fn store_and_report(
        &self,
        digest: Digest,
        bytes: &[u8],
        batch: &Batch,
        ctx: &mut Context<NarwhalMsg<Ext>>,
    ) {
        fail_stop(self.store.put_batch(&digest, bytes));
        self.report(digest, batch, ctx);
    }

    /// Seals and disseminates a batch.
    fn seal(&mut self, batch: Batch, ctx: &mut Context<NarwhalMsg<Ext>>) {
        let (digest, bytes) = BlockStore::encode_batch(&batch);
        let mut acked = HashSet::new();
        acked.insert(self.me);
        if acked.len() >= self.committee.quorum_threshold() {
            // Single-validator committee: no replication needed.
            self.store_and_report(digest, &bytes, &batch, ctx);
        } else {
            for peer in self.addr.peer_workers(self.me, self.worker_id) {
                ctx.send(peer, NarwhalMsg::Batch(batch.clone()));
            }
            self.pending.insert(
                digest,
                PendingBatch {
                    batch,
                    bytes,
                    acked,
                    created: ctx.now(),
                },
            );
        }
    }

    /// Seals the synthetic batch for one load-generation interval.
    fn seal_synthetic(
        &mut self,
        load: SyntheticLoad,
        interval: Time,
        ctx: &mut Context<NarwhalMsg<Ext>>,
    ) {
        let count = self.config.txs_in_interval(load.rate_tps, interval);
        if count == 0 {
            return;
        }
        let bytes = count * self.config.tx_bytes as u64;
        let samples = self.make_samples(interval, ctx.now());
        self.seq += 1;
        let batch = Batch::synthetic(self.me, self.worker_id, self.seq, count, bytes, samples);
        self.seal(batch, ctx);
    }

    /// Seals the buffered client transactions (real mode).
    fn seal_buffer(&mut self, ctx: &mut Context<NarwhalMsg<Ext>>) {
        if self.buffer.is_empty() {
            return;
        }
        self.seq += 1;
        let txs = std::mem::take(&mut self.buffer);
        let samples = std::mem::take(&mut self.buffer_samples);
        self.buffer_bytes = 0;
        let batch = Batch::new(self.me, self.worker_id, self.seq, txs, samples);
        self.seal(batch, ctx);
    }

    /// Latency samples whose submit times spread over the accumulation
    /// interval ending at `now`.
    fn make_samples(&mut self, interval: Time, now: Time) -> Vec<TxSample> {
        let k = self.config.samples_per_batch.max(1) as u64;
        (0..k)
            .map(|i| TxSample {
                id: self.next_sample_id(),
                submit_ns: now.saturating_sub(interval * (i + 1) / (k + 1)),
            })
            .collect()
    }

    fn report(&self, digest: Digest, batch: &Batch, ctx: &mut Context<NarwhalMsg<Ext>>) {
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
        self.recover(ctx);
        if let Some(load) = self.config.load {
            ctx.timer(self.config.batch_interval(load.rate_tps), TAG_SEAL);
        }
        ctx.timer(self.retry_interval(), TAG_RETRY);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<Self::Message>) {
        match tag {
            TAG_SEAL => match self.config.load {
                Some(load) => {
                    let interval = self.config.batch_interval(load.rate_tps);
                    self.seal_synthetic(load, interval, ctx);
                    ctx.timer(interval, TAG_SEAL);
                }
                // The fallback, one-shot: armed by the first transaction of
                // a buffer. If a beat sealed that buffer since, this firing
                // is stale — what is buffered now is younger and has its
                // own timer.
                None => {
                    let age = ctx.now().saturating_sub(self.buffer_opened);
                    if age >= self.config.max_batch_delay {
                        self.seal_buffer(ctx);
                    }
                }
            },
            TAG_RETRY => {
                let now = ctx.now();
                // Re-broadcast own batches stuck without a quorum (§4.1:
                // retransmission stops once the round advances; workers stop
                // when the quorum forms or the batch is garbage collected).
                let peers = self.addr.peer_workers(self.me, self.worker_id);
                for p in self.pending.values() {
                    if now.saturating_sub(p.created) < self.config.resend_delay {
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
                // deterministically skipping ourselves: the old fallback
                // (retreat to the creator) re-targeted *us* whenever we
                // were fetching a batch we ourselves created and the
                // rotation landed on us — a request that can never be
                // answered.
                let mut retries: Vec<(NodeId, Digest)> = Vec::new();
                for (digest, fetch) in self.fetching.iter_mut() {
                    if now.saturating_sub(fetch.last) >= self.config.sync_retry_delay {
                        fetch.attempts += 1;
                        fetch.last = now;
                        let target = self.addr.rotate(self.me, fetch.creator, fetch.attempts);
                        retries.push((self.addr.worker(target, self.worker_id), *digest));
                    }
                }
                for (node, digest) in retries {
                    ctx.send(
                        node,
                        NarwhalMsg::BatchRequest {
                            digests: vec![digest],
                        },
                    );
                }
                ctx.timer(self.retry_interval(), TAG_RETRY);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>) {
        match msg {
            NarwhalMsg::ClientTx(tx) => {
                let first = self.buffer.is_empty();
                self.buffer_bytes += tx.len();
                if self
                    .buffer
                    .len()
                    .is_multiple_of(self.config.samples_per_batch.max(1))
                {
                    let id = self.next_sample_id();
                    self.buffer_samples.push(TxSample {
                        id,
                        submit_ns: ctx.now(),
                    });
                }
                self.buffer.push(tx);
                if self.beat_unspent || self.buffer_bytes >= self.config.batch_bytes {
                    self.beat_unspent = false;
                    self.seal_buffer(ctx);
                } else if first && self.config.load.is_none() {
                    // (Under `load`, `TAG_SEAL` is the periodic load timer.)
                    self.buffer_opened = ctx.now();
                    ctx.timer(self.config.max_batch_delay, TAG_SEAL);
                }
            }
            // The beat (module doc): our own primary's block left.
            NarwhalMsg::Header(header)
                if header.author == self.me && from == self.addr.primary(self.me) =>
            {
                if self.buffer.is_empty() {
                    self.beat_unspent = true;
                } else {
                    self.seal_buffer(ctx);
                }
            }
            NarwhalMsg::Batch(batch) => {
                let (digest, bytes) = BlockStore::encode_batch(&batch);
                let first_seen = !self.holds(&digest);
                // Persist *before* acknowledging: the ack is a storage
                // promise another validator's certificate will depend on
                // (§4.2), so it must survive our crash.
                if first_seen {
                    fail_stop(self.store.put_batch(&digest, &bytes));
                }
                ctx.send(
                    from,
                    NarwhalMsg::BatchAck {
                        digest,
                        voter: self.me,
                    },
                );
                if first_seen {
                    self.report(digest, &batch, ctx);
                }
                self.fetching.remove(&digest);
            }
            NarwhalMsg::BatchAck { digest, voter } => {
                let quorum = self.committee.quorum_threshold();
                let reached = self.pending.get_mut(&digest).is_some_and(|p| {
                    p.acked.insert(voter);
                    p.acked.len() >= quorum
                });
                if let Some(done) = reached.then(|| self.pending.remove(&digest)).flatten() {
                    // Quorum reached: the batch is now replicated enough
                    // to be referenced by a block — persist it before the
                    // digest reaches the primary.
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
                    if self.fetching.remove(&digest).is_some() || !self.holds(&digest) {
                        self.store_and_report(digest, &bytes, &batch, ctx);
                    }
                }
            }
            NarwhalMsg::FetchBatch {
                digest,
                worker: _,
                creator,
            } => {
                if self.pending.contains_key(&digest) {
                    // Own batch still collecting acknowledgments: its
                    // report follows the quorum.
                } else if let Some(batch) = fail_stop(self.store.get_batch(&digest)) {
                    // Held: (re-)report, straight from the store — a hit
                    // is proof the bytes are durable, nothing to rewrite.
                    self.report(digest, &batch, ctx);
                } else if let std::collections::btree_map::Entry::Vacant(e) =
                    self.fetching.entry(digest)
                {
                    // Never seen, or deleted by our validator's garbage
                    // collection (an execution backlog catching up after
                    // a restart asks for batches whose rounds GC already
                    // pruned): peers still hold it.
                    e.insert(FetchState {
                        creator,
                        attempts: 0,
                        last: ctx.now(),
                    });
                    ctx.send(
                        self.addr.worker(creator, self.worker_id),
                        NarwhalMsg::BatchRequest {
                            digests: vec![digest],
                        },
                    );
                }
            }
            // Primary-to-primary traffic is never addressed to workers.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            .map(|v| {
                crate::node::NodeBuilder::new(committee.clone(), v)
                    .config(NarwhalConfig::with_load(10_000.0))
                    .build_worker(WorkerId(0))
            })
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
            .config(NarwhalConfig::with_load(10_000.0))
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

    /// Seals one own batch at `now` and returns its digest.
    fn seal_own(worker: &mut Worker<NoExt>, now: Time) -> Digest {
        let mut ctx = Context::new(now, 4);
        worker.on_timer(TAG_SEAL, &mut ctx);
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
        let (_, _, mut workers) = setup(4);
        let mut ctx = Context::new(200 * MS, 4);
        workers[0].on_timer(TAG_SEAL, &mut ctx);
        let out = sends(ctx.drain());
        let batches: Vec<&Msg> = out
            .iter()
            .map(|(_, m)| m)
            .filter(|m| matches!(m, NarwhalMsg::Batch(_)))
            .collect();
        assert_eq!(batches.len(), 3, "batch goes to the 3 peer workers");
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

    #[test]
    fn fetch_batch_pulls_from_creator() {
        let (_, addr, mut workers) = setup(4);
        let digest = Digest::of(b"missing");
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
        let resend_at = 200 * MS + NarwhalConfig::default().resend_delay + MS;
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
        let retry = NarwhalConfig::default().sync_retry_delay;
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
            .config(NarwhalConfig::with_load(10_000.0))
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
            worker.on_message(
                5,
                NarwhalMsg::BatchAck {
                    digest: own_digest,
                    voter: ValidatorId(voter),
                },
                &mut ctx,
            );
            ctx.drain();
        }
        let own_seq = worker.seq;
        assert!(own_seq >= 1);

        // Crash; a fresh incarnation recovers both batches and re-reports.
        let mut revived: Worker<NoExt> = crate::node::NodeBuilder::new(committee, 0)
            .config(NarwhalConfig::with_load(10_000.0))
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
                deliver(&mut worker, NarwhalMsg::BatchAck { digest, voter });
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
        let fetch = || NarwhalMsg::FetchBatch {
            digest,
            worker: WorkerId(0),
            creator: ValidatorId(1),
        };
        // Held: re-reported from the store, nothing re-persisted.
        let out = deliver(&mut worker, fetch());
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
        let out = deliver(&mut worker, fetch());
        assert!(matches!(
            &out[..],
            [(5, NarwhalMsg::BatchRequest { digests })] if digests[..] == [digest]
        ));
        assert_eq!(store.puts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn retry_timer_runs_at_the_faster_of_the_two_delays() {
        let (committee, _addr, _) = setup(4);
        // resend_delay shorter than sync_retry_delay: the timer must follow
        // the resend cadence, not quantize it up to the sync interval.
        let config = NarwhalConfig {
            resend_delay: 100 * MS,
            sync_retry_delay: 500 * MS,
            ..NarwhalConfig::with_load(10_000.0)
        };
        let mut worker: Worker<NoExt> = crate::node::NodeBuilder::new(committee, 0)
            .config(config)
            .build_worker(WorkerId(0));
        let mut ctx = Context::new(0, 4);
        worker.on_start(&mut ctx);
        let delays: Vec<Time> = ctx
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                Effect::Timer {
                    delay,
                    tag: TAG_RETRY,
                } => Some(delay),
                _ => None,
            })
            .collect();
        assert_eq!(delays, vec![100 * MS], "retry timer at min(resend, sync)");
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
        let retry = NarwhalConfig::default().sync_retry_delay;
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

    /// A block of `author` delivered by node `from` at `now`.
    fn header_from(
        worker: &mut Worker<NoExt>,
        author: u32,
        from: NodeId,
        now: Time,
    ) -> (Vec<u64>, Vec<Time>) {
        let (_, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let author_id = ValidatorId(author);
        let header = Header::new(&kps[author as usize], author_id, 1, vec![], vec![], None);
        let mut ctx = Context::new(now, 4);
        worker.on_message(from, NarwhalMsg::Header(header), &mut ctx);
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
}
