//! Narwhal & Tusk: a DAG-based mempool and efficient BFT consensus.
//!
//! This is the umbrella crate for the reproduction of the EuroSys 2022 paper
//! "Narwhal and Tusk: A DAG-based Mempool and Efficient BFT Consensus". It
//! re-exports the public API of the workspace crates so examples and
//! downstream users can depend on a single crate.
//!
//! # Crate map
//!
//! - [`crypto`]: SHA-256/512, Ed25519 (RFC 8032), and the threshold coin.
//! - [`codec`]: canonical binary encoding used for wire messages and digests.
//! - [`types`]: committee, blocks, certificates, votes, and wire messages.
//! - [`storage`]: the persistent block store (WAL-backed key-value store).
//! - [`network`]: sans-io actor abstractions and deployment addressing.
//! - [`runtime`]: the real-socket runtime (TCP transport, node driver, the
//!   `narwhal-node` binary for process-per-validator deployments, and the
//!   in-process loopback committee the examples and tests run).
//! - [`simnet`]: the deterministic discrete-event WAN simulator.
//! - [`narwhal`]: the Narwhal mempool (primary, workers, synchronizer, GC).
//! - [`execution`]: the ABCI-style execution layer (account ledger, state
//!   roots, signed snapshots for state transfer).
//! - [`tusk`]: the Tusk asynchronous consensus (and the DAG-Rider variant).
//! - [`bullshark`]: partially-synchronous Bullshark with pluggable leader
//!   schedules (round-robin, Shoal-style reputation).
//! - [`hotstuff`]: chained HotStuff with baseline/batched/Narwhal mempools.
//! - `bench`: workload generation, metrics, and the experiment runner.

pub use bullshark;
pub use narwhal;
pub use nt_bench as bench;
pub use nt_codec as codec;
pub use nt_crypto as crypto;
pub use nt_execution as execution;
pub use nt_hotstuff as hotstuff;
pub use nt_network as network;
pub use nt_runtime as runtime;
pub use nt_simnet as simnet;
pub use nt_storage as storage;
pub use nt_types as types;
pub use tusk;
