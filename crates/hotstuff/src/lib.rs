//! Chained HotStuff with a LibraBFT-style pacemaker, plus the three mempool
//! configurations the paper evaluates (§6):
//!
//! - **Baseline-HS**: transactions gossiped individually; the leader
//!   broadcasts full transaction data inside its proposals (the "standard
//!   way blockchains disseminate single transactions").
//! - **Batched-HS**: validators broadcast ~500 KB batches out of the
//!   critical path (as in Prism \[9\]); the leader proposes batch *hashes*.
//!   No reliability layer — which is exactly why it degrades under faults.
//! - **Narwhal-HS** (§3.2): HotStuff runs as a [`narwhal::DagConsensus`]
//!   plug-in ordering Narwhal certificates; on commit, the certificate's
//!   whole uncommitted causal history is linearized by the primary.
//!
//! All three share [`core::HotStuffCore`]: a sans-io 2-chain chained
//! HotStuff (Jolteon/DiemBFT-v4 style, like the paper's open-source
//! artifact) with timeout certificates and a fixed-delay pacemaker.
//!
//! Every parameter is the paper's baseline (§7) and a constant: 512 B
//! transactions ([`nt_types::TX_BYTES`]), 500 KB blocks and batches, and a
//! 5 s view timeout ([`core::VIEW_TIMEOUT`]). The one value a deployment
//! chooses is its clients' rate, `rate_per_validator`.

use nt_network::{Time, MS};

pub mod baseline;
pub mod batched;
pub mod core;
pub mod narwhal_hs;
pub mod types;

pub use baseline::{build_baseline_hs_actors, BaselineValidator};
pub use batched::{build_batched_hs_actors, BatchedValidator};
pub use core::{HotStuffCore, HsAction};

pub use narwhal_hs::{build_narwhal_hs_actors, NarwhalHsConsensus};
pub use types::{HsBlock, HsMsg, HsPayload, HsTimeout, HsVote, Qc, Tc};

/// The gossip/batching tick of the Baseline-HS and Batched-HS mempools.
const TICK: Time = 100 * MS;
