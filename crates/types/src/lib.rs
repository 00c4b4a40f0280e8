//! Core data types shared by the Narwhal mempool, the Tusk consensus, and
//! the HotStuff comparison systems.
//!
//! The type names follow the paper (§2.1, §3.1): a *block* ("header" in the
//! reference implementation) carries batch digests and references to
//! certificates of the previous round; a *certificate of availability* is a
//! block digest countersigned by a quorum; *batches* are the worker-level
//! payloads of the scale-out design (§4.2).

pub mod batch;
pub mod certificate;
pub mod commit;
pub mod committee;
pub mod header;
pub mod transaction;
pub mod vote;

pub use batch::{Batch, BatchPayload, BatchPayloadRef, BatchRef};
pub use certificate::Certificate;
pub use commit::{CommitEvent, ProposalCounts};
pub use committee::{Committee, ValidatorId, ValidatorInfo, WorkerId};
pub use header::Header;
pub use transaction::{Transaction, TransactionRef, TxSample};
pub use vote::Vote;

/// A Narwhal round number (the DAG layer index).
pub type Round = u64;

/// Types with an explicit wire size used for bandwidth accounting.
///
/// For ordinary values this equals the encoded length; synthetic batches
/// (simulation descriptors) instead declare the size the real payload would
/// occupy, which is what the simulator's NIC model must charge.
pub trait WireSize {
    /// Size in bytes this value occupies on the wire.
    fn wire_size(&self) -> usize;
}
