//! Bullshark: partially-synchronous consensus over the Narwhal DAG.
//!
//! The paper positions Narwhal as a mempool *any* consensus can order over
//! (§3.2, Figure 3); this crate exercises that boundary with the protocol
//! the Narwhal lineage converged on in production: partially-synchronous
//! Bullshark. Waves are two rounds instead of Tusk's three, leaders are
//! predefined by a leader schedule instead of a retrospective coin, and
//! a leader commits the moment `2f + 1` next-round blocks reference it —
//! cutting the common-case commit point from ~4.5 rounds to 2 while
//! reusing the DAG, the garbage collector, and the primary unchanged.
//!
//! Two schedules ship with the crate: [`RoundRobin`] (the paper baseline)
//! and [`Reputation`], a Shoal-style standing that rotates leadership over
//! the best-behaved `n - f` validators so crashed leaders stop costing a
//! skipped wave per rotation turn. Two latency-frontier variants ship
//! alongside plain Bullshark: [`PipelinedBullshark`] (Shoal-style anchor
//! pipelining — an anchor candidate every round, reputation re-anchoring
//! past dead candidates) and [`FinWhale`] (an optimally-resilient
//! two-round terminating commit whose skips settle at the wave's own
//! voting round).
//!
//! Like Tusk, the rules here send no messages of their own: each is a
//! policy over `narwhal::AnchorWalk`, a pure interpretation of the locally
//! observed DAG, and the `ablation_bullshark` bench compares them on
//! identical deployments.

pub mod bullshark;
pub mod finwhale;
pub mod pipelined;
pub mod schedule;

pub use bullshark::{Bullshark, BullsharkRule};
pub use finwhale::{FinWhale, FinWhaleRule};
pub use pipelined::{PipelinedBullshark, PipelinedRule};
pub use schedule::{Reputation, RoundRobin};
