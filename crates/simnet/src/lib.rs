//! A deterministic discrete-event network simulator.
//!
//! The paper evaluates on AWS: `m5.8xlarge` instances (10 Gbps NICs) spread
//! over five regions — N. Virginia, N. California, Sydney, Stockholm and
//! Tokyo (§7). This crate reproduces that environment as a discrete-event
//! simulation:
//!
//! - **Links** have region-to-region propagation delays taken from public
//!   inter-region RTT measurements, with multiplicative jitter.
//! - **NICs** are modelled as full-duplex serialization queues at the
//!   host's bandwidth: a 500 KB batch occupies a 10 Gbps egress for 400 µs,
//!   which is what makes a leader broadcasting a large block a bottleneck —
//!   the core phenomenon behind the paper's Figure 6.
//! - **CPUs** are FIFO servers with a per-message plus per-byte cost model
//!   (deserialization, hashing) and explicit signature costs ([`cost`]);
//!   saturation of this server produces the throughput ceilings and latency
//!   hockey sticks in the figures.
//! - **Faults**: hosts crash at scheduled times (Figure 8) and can restart
//!   with a fresh actor from a per-host factory (the crash-recovery
//!   scenarios); link partitions model periods of asynchrony (Table 1).
//!
//! Every run is seeded and deterministic: same seed, same commit sequence.
//! That determinism is what makes the [`fuzz`] module possible: random
//! fault *schedules* (crashes + restarts, torn store tails, partitions,
//! delay spikes) are sampled per seed, checked, and shrunk to minimal
//! reproducers.

pub mod cost;
pub mod fuzz;
pub mod sim;
pub mod topology;

pub use fuzz::{shrink, FaultEvent, FuzzPlan, Schedule};
pub use nt_network::{ActorFactory, SimMessage};
pub use sim::{LinkSpike, Partition, RestartHook, SimConfig, SimResult, Simulation};
pub use topology::{HostSpec, Region, Topology};
