//! The benchmark's one seam to the product.
//!
//! This is the **only** file in `benchmark/` that names a product crate.
//! Everything else imports from here, so a refactor that moves or reshapes
//! `NodeBuilder`, `Node`, `spawn_node`, `Transport`, the `DagConsensus`
//! trait or the message enum needs a follow-up in this file alone. The
//! helpers below are deliberately thin: they fix the committee shape every
//! workload shares and hide constructor signatures, nothing more.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

pub use narwhal::{CommitStream, Dag};
pub use nt_codec::{
    decode_borrowed_from_slice, decode_from_slice, encode_to_vec, Envelope, EnvelopeRef,
};
pub use nt_crypto::{
    sha256, verify_batch, BatchItem, CoinShare, Digest, Hashable, KeyPair, Scheme,
};
pub use nt_execution::{transfer_tx, BatchData, Execution, ExecutionError, LEDGER_ACCOUNTS};
pub use nt_network::{Context, Effect, NodeId, Time, CLIENT};
pub use nt_runtime::{AppKind, ClientConn, DriverHandle, SystemKind, Transport};
pub use nt_storage::{crc32, DynStore, Store, StoreError};
pub use nt_types::{
    Batch, BatchRef, Certificate, CommitEvent, Committee, Header, Round, Transaction, TxSample,
    ValidatorId, Vote, WorkerId,
};

use bullshark::{Bullshark, FinWhale, PipelinedBullshark, Reputation, RoundRobin};
use narwhal::{
    BlockStore, ConsensusOut, DagConsensus, NarwhalConfig, NarwhalMsg, NoExt, Node, NodeBuilder,
    NodeRole,
};
use nt_execution::LedgerApp;
use nt_runtime::config::ValidatorEntry;
use nt_runtime::{build_node_with_app, spawn_node, CommitteeConfig};
use nt_storage::WalStore;
use nt_types::BatchPayload;
use tusk::{DagRider, Tusk};

/// Validators in every workload's committee (f = 1).
pub const VALIDATORS: usize = 4;

/// The wire message of a deployment without a consensus extension.
pub type Msg = NarwhalMsg<NoExt>;
/// A driver-ready host of such a deployment.
pub type BenchNode = Node<NoExt>;

/// One host of the committee: a primary or the single worker of a validator.
#[derive(Clone, Copy, Debug)]
pub struct HostSpec {
    pub validator: ValidatorId,
    pub role: NodeRole,
    pub node_id: NodeId,
    pub listen: SocketAddr,
}

impl HostSpec {
    pub fn is_primary(&self) -> bool {
        self.role == NodeRole::Primary
    }
}

/// The shared committee shape: 4 validators x (1 primary + 1 worker),
/// Ed25519, `NarwhalConfig::default()` (500 KB batches, 100 ms batch and
/// header delay). `addrs` holds the 8 listen addresses, primaries first.
pub struct Deployment {
    config: CommitteeConfig,
    keypairs: Vec<KeyPair>,
}

impl Deployment {
    pub fn new(system: SystemKind, addrs: &[SocketAddr]) -> Self {
        assert_eq!(addrs.len(), 2 * VALIDATORS, "one address per host");
        let (_, keypairs) = Committee::deterministic(VALIDATORS, 1, Scheme::Ed25519);
        let config = CommitteeConfig {
            scheme: Scheme::Ed25519,
            system,
            workers: 1,
            narwhal: NarwhalConfig::default(),
            validators: (0..VALIDATORS)
                .map(|v| ValidatorEntry {
                    public: keypairs[v].public(),
                    primary: addrs[v].into(),
                    workers: vec![addrs[VALIDATORS + v].into()],
                })
                .collect(),
        };
        Deployment { config, keypairs }
    }

    /// All 8 hosts, in `(primary, worker)` pairs by validator.
    pub fn hosts(&self) -> Vec<HostSpec> {
        let book = self.config.address_book();
        let mut out = Vec::with_capacity(2 * VALIDATORS);
        for (v, entry) in self.config.validators.iter().enumerate() {
            let validator = ValidatorId(v as u32);
            out.push(HostSpec {
                validator,
                role: NodeRole::Primary,
                node_id: book.primary(validator),
                listen: entry.primary.socket_addr(),
            });
            out.push(HostSpec {
                validator,
                role: NodeRole::Worker(WorkerId(0)),
                node_id: book.worker(validator, WorkerId(0)),
                listen: entry.workers[0].socket_addr(),
            });
        }
        out
    }

    fn peers_of(&self, host: &HostSpec) -> Vec<(NodeId, SocketAddr)> {
        self.config
            .all_hosts()
            .into_iter()
            .filter(|&(id, _)| id != host.node_id)
            .map(|(id, addr)| (id, addr.socket_addr()))
            .collect()
    }

    /// Builds `host`'s node the way `narwhal-node` does and drives it on a
    /// thread over a fresh TCP transport. Primaries come back with a commit
    /// subscription of `commit_buffer` events.
    pub fn spawn_host(
        &self,
        host: &HostSpec,
        store: DynStore,
        app: AppKind,
        commit_buffer: usize,
    ) -> std::io::Result<(DriverHandle, Option<CommitStream>)> {
        let mut node = build_node_with_app(
            &self.config,
            host.validator,
            host.role,
            Some(self.keypairs[host.validator.0 as usize].clone()),
            Some(store),
            app,
        );
        let commits = host
            .is_primary()
            .then(|| node.subscribe_commits(commit_buffer));
        let transport = Transport::start(host.node_id, host.listen, &self.peers_of(host))?;
        Ok((spawn_node(node, transport), commits))
    }

    /// Builds `host`'s node for the bench-owned trace loop: the same state
    /// machines, with the store and the execution engine supplied by the
    /// caller so that decorators can sit on those two public traits.
    pub fn build_node(
        &self,
        host: &HostSpec,
        store: DynStore,
        execution: Option<Box<dyn Execution>>,
    ) -> BenchNode {
        let committee = self.config.committee();
        let mut builder = NodeBuilder::new(committee.clone(), host.validator.0)
            .config(self.config.narwhal.clone())
            .keypair(self.keypairs[host.validator.0 as usize].clone())
            .store(store);
        match host.role {
            NodeRole::Worker(worker) => builder.worker_node::<NoExt>(worker),
            NodeRole::Primary => {
                if let Some(execution) = execution {
                    builder = builder.execution(execution);
                }
                match self.config.system {
                    SystemKind::Tusk => builder.primary_node(Tusk::new(committee, 0)),
                    SystemKind::Bullshark => {
                        let schedule = RoundRobin::new(&committee);
                        builder.primary_node(Bullshark::new(committee, schedule))
                    }
                    other => panic!("the benchmark has no workload on {other:?}"),
                }
            }
        }
    }
}

/// Opens a WAL-backed store, as `narwhal-node --store` does.
pub fn open_wal(path: &Path) -> Result<DynStore, String> {
    match WalStore::open(path) {
        Ok(wal) => Ok(Arc::new(wal)),
        Err(e) => Err(format!("opening {}: {e}", path.display())),
    }
}

/// Opens `host`'s own WAL under `dir`: one file per role, so a validator's
/// primary and worker never share a store.
pub fn open_host_wal(dir: &Path, host: &HostSpec) -> Result<DynStore, String> {
    let role = if host.is_primary() {
        "primary"
    } else {
        "worker0"
    };
    open_wal(&dir.join(format!("v{}-{role}.wal", host.validator.0)))
}

/// A fresh account ledger behind the `Execution` trait.
pub fn ledger_app() -> Box<dyn Execution> {
    Box::new(LedgerApp::new())
}

/// The wire bytes of one client transaction.
pub fn client_tx_bytes(tx: Transaction) -> Vec<u8> {
    encode_to_vec(&Msg::ClientTx(tx))
}

pub fn decode_msg(bytes: &[u8]) -> Option<Msg> {
    decode_from_slice::<Msg>(bytes).ok()
}

pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    encode_to_vec(msg)
}

/// Readable name of a message, from the wire tag table in
/// `narwhal::messages` (the enum's frozen discriminants).
pub fn msg_name(msg: &Msg) -> &'static str {
    match msg {
        Msg::Header(_) => "Header",
        Msg::Vote(_) => "Vote",
        Msg::Certificate(_) => "Certificate",
        Msg::CertRequest { .. } => "CertRequest",
        Msg::CertResponse { .. } => "CertResponse",
        Msg::CertRangeRequest { .. } => "CertRangeRequest",
        Msg::Batch(_) => "Batch",
        Msg::BatchAck { .. } => "BatchAck",
        Msg::BatchRequest { .. } => "BatchRequest",
        Msg::BatchResponse { .. } => "BatchResponse",
        Msg::ReportBatch(_) => "ReportBatch",
        Msg::FetchBatch { .. } => "FetchBatch",
        Msg::ClientTx(_) => "ClientTx",
        Msg::Ext(never) => match *never {},
        Msg::SnapshotVote { .. } => "SnapshotVote",
        Msg::SnapshotRequest { .. } => "SnapshotRequest",
        Msg::SnapshotResponse { .. } => "SnapshotResponse",
    }
}

/// The identifier spans of one request share, where the message carries
/// one cheaply: the transaction id of a `ClientTx`, the creator and
/// sequence number of a `Batch`, the digest prefix of the worker messages
/// that name a batch by digest. 0 for control-plane messages.
pub fn msg_request_id(msg: &Msg) -> u64 {
    match msg {
        Msg::ClientTx(tx) => tx_id(&tx.payload).unwrap_or(0),
        Msg::Batch(batch) => (1 << 63) | (u64::from(batch.creator.0) << 48) | batch.seq,
        Msg::BatchAck { digest, .. } | Msg::FetchBatch { digest, .. } => digest.to_u64(),
        Msg::ReportBatch(info) => info.digest.to_u64(),
        _ => 0,
    }
}

/// The id every generated transaction carries in payload bytes 0..8.
pub fn tx_id(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.get(..8)?.try_into().ok()?))
}

/// What a committed batch reference resolves to.
pub struct ResolvedBatch {
    pub creator: ValidatorId,
    pub tx_ids: Vec<u64>,
}

/// Reads batch `digest` back out of a worker's store.
pub fn resolve_batch(store: &DynStore, digest: &Digest) -> Option<ResolvedBatch> {
    let batch = BlockStore::new(store.clone()).get_batch(digest).ok()??;
    let tx_ids = match &batch.payload {
        BatchPayload::Data(txs) => txs.iter().filter_map(|tx| tx_id(&tx.payload)).collect(),
        BatchPayload::Synthetic { .. } => Vec::new(),
    };
    Some(ResolvedBatch {
        creator: batch.creator,
        tx_ids,
    })
}

/// A commit rule behind one closure: feed it each certificate after the
/// DAG insert, get back the anchors it commits as `(round, author)`.
pub type RuleFeed = Box<dyn FnMut(&Dag, &Certificate) -> Vec<(Round, ValidatorId)>>;

fn feed_of<C: DagConsensus + 'static>(mut rule: C) -> RuleFeed {
    Box::new(move |dag, cert| {
        let mut out = ConsensusOut::default();
        rule.on_certificate(dag, cert, &mut out);
        out.anchors
            .iter()
            .map(|a| (a.round(), a.origin()))
            .collect()
    })
}

/// The six commit rules, by the metric prefix each is reported under.
/// Called per instance: every call builds fresh rule state.
pub fn commit_rules(committee: &Committee) -> Vec<(&'static str, RuleFeed)> {
    let c = || committee.clone();
    vec![
        ("tusk.tusk", feed_of(Tusk::new(c(), 0))),
        ("tusk.dag_rider", feed_of(DagRider::new(c(), 0))),
        (
            "bullshark.rr",
            feed_of(Bullshark::new(c(), RoundRobin::new(committee))),
        ),
        (
            "bullshark.rep",
            feed_of(Bullshark::new(c(), Reputation::new(committee))),
        ),
        (
            "bullshark.pipelined",
            feed_of(PipelinedBullshark::new(c(), Reputation::new(committee))),
        ),
        (
            "bullshark.finwhale",
            feed_of(FinWhale::new(c(), RoundRobin::new(committee))),
        ),
    ]
}
