//! Tusk: zero-message-overhead asynchronous consensus over Narwhal (§5).
//!
//! Tusk interprets the locally observed DAG: validators divide rounds into
//! *waves* of three rounds, elect one leader block per wave in retrospect
//! using a shared random coin carried inside ordinary blocks, commit the
//! leader when `f + 1` second-round blocks reference it, and recursively
//! order skipped leaders along DAG paths. No messages beyond Narwhal's are
//! ever sent.
//!
//! The crate also contains [`DagRider`], the 4-round-wave protocol Tusk
//! improves on (§8.2): the paper predicts Tusk commits each block in ~4.5
//! rounds in the common case versus ~5.5 for DAG-Rider. The wave
//! arithmetic is `dag_rider`'s unit tests; that Tusk decides at a lower
//! DAG depth on a running committee is gated by `nt_bench`'s
//! `ablation_bullshark -- --test`.
//!
//! Both are policies over `narwhal::AnchorWalk`, which owns the scan, the
//! walk, the counters and the checkpoint.

pub mod dag_rider;
pub mod tusk;

pub use dag_rider::{DagRider, DagRiderRule};
pub use tusk::{Tusk, TuskRule};

/// The wire message type of a Tusk deployment (no consensus extension).
pub type TuskMsg = narwhal::NarwhalMsg<narwhal::NoExt>;
