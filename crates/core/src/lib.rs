//! Narwhal: a DAG-based mempool (the paper's primary contribution).
//!
//! Narwhal separates *reliable transaction dissemination* from *ordering*:
//! workers stream batches of transactions between validators at full
//! bandwidth, while primaries build a round-structured DAG of small blocks
//! that reference batch digests and certify each other with `2f + 1`
//! signatures. Consensus then only needs to order certificates; the causal
//! structure of the DAG drags all disseminated data into the total order.
//!
//! Module map (paper section in parentheses):
//!
//! - [`dag`]: the round-based block DAG and its invariants (§2.1, §3.1).
//! - [`primary`]: the primary, a router that owns the DAG, the local round
//!   and the order in which its five state machines are called. Each is a
//!   plain struct in a private module: `proposer` (block creation and round
//!   pacing, §3.1; re-injection, §3.3), `certifier` (votes, vote locks,
//!   certificates, §3.1; retransmission, §4.1), `synchronizer` (dependency
//!   waits and pull synchronization, §4.1), `executor` (linearization, §5;
//!   execution, §8.4) and `state_transfer` (signed snapshots past the GC
//!   horizon, §3.3).
//! - [`worker`]: the scale-out worker state machine — batching, streaming,
//!   quorum acknowledgments, and batch fetching (§4.2).
//! - [`consensus`]: the plug-in interface consensus protocols implement to
//!   order the DAG (HotStuff in `nt-hotstuff` implements it directly).
//! - [`messages`]: the wire protocol, generic over a consensus extension.
//! - [`store`]: the typed persistent block store (the paper's RocksDB
//!   role), with crash recovery of the DAG.
//! - [`node`]: the [`NodeBuilder`] construction surface and the
//!   role-agnostic [`Node`] driver API (with [`CommitStream`] taps) that
//!   the simulator and the real-socket runtime both program against.
//! - [`anchor_walk`]: the one engine behind every DAG commit rule; Tusk,
//!   DAG-Rider, Bullshark and its variants are policies over it.
//! - [`deployment`]: host layout shared by the simulator and socket runtime.
//! - [`committee`]: builds every host of a deployment in that layout.
//! - [`testing`]: hand-built and recorded DAGs for commit-rule tests.
//! - [`config`]: tunable parameters with the paper's defaults.
//!
//! The crate is the protocol and nothing else: no switch turns a mechanism
//! off. The fuzzer's Byzantine adversaries wrap a primary from outside
//! (`nt_bench::adversary`), and the checks that each recovery, pacing and
//! sender-guard mechanism is load-bearing delete it from a copy of this
//! source (`crates/bench/mutants.txt`).

pub mod anchor_walk;
mod certifier;
pub mod committee;
pub mod config;
pub mod consensus;
pub mod dag;
pub mod deployment;
mod executor;
pub mod messages;
pub mod node;
pub mod primary;
mod proposer;
mod state_transfer;
pub mod store;
mod synchronizer;
pub mod testing;
pub mod worker;

pub use anchor_walk::{AnchorWalk, Coin, CommitRule, Election, Frontier, Seed};
pub use committee::committee_factories;
pub use config::{NarwhalConfig, SyntheticLoad};
pub use consensus::{ConsensusOut, DagConsensus, NoConsensus, NoExt};
pub use dag::{CertId, Dag, DagView, InsertOutcome};
pub use deployment::AddressBook;
pub use messages::{BatchInfo, NarwhalMsg};
pub use node::{CommitStream, Node, NodeBuilder, NodeRole};
pub use primary::Primary;
pub use store::{BlockStore, BlockStoreError};
pub use worker::Worker;
