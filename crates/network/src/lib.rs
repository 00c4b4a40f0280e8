//! Sans-io actor abstractions shared by every protocol in this repository.
//!
//! The paper's implementation is a tokio application; the protocol logic
//! here is instead written as *state machines* ([`Actor`]) that consume
//! timestamped events and emit [`Effect`]s (sends, timers, commits). The
//! same state machines run unchanged on two substrates:
//!
//! - the deterministic discrete-event simulator (`nt-simnet`), which models
//!   the paper's AWS WAN testbed and drives all benchmark figures; and
//! - the socket runtime (`nt_runtime`): one driver thread per host over
//!   real TCP and wall-clock timers — the deployed path, which the examples,
//!   integration tests and the wall-clock benchmark all run.
//!
//! This split is what makes a laptop-scale reproduction of WAN experiments
//! possible while keeping the protocol code production-shaped. What the
//! simulator asks of a protocol — [`SimMessage`] (a message's wire size and
//! signature work) and [`ActorFactory`] (how a restarted host is rebuilt) —
//! is declared here too, so the protocol crates, and `narwhal-node` with
//! them, never link the simulator.

pub mod actor;
pub mod addr;

pub use actor::{Actor, ActorFactory, Context, Effect, NodeId, SimMessage, Time, CLIENT};
pub use addr::PeerAddr;

/// Nanoseconds per second.
pub const SEC: Time = 1_000_000_000;
/// Nanoseconds per millisecond.
pub const MS: Time = 1_000_000;
/// Nanoseconds per microsecond.
pub const US: Time = 1_000;
