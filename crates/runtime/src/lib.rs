//! The real-socket runtime: process-per-host deployment of the sans-io
//! actors.
//!
//! Everything under `crates/core` (and the consensus crates on top of it)
//! is written as deterministic state machines with no I/O. Two hosts drive
//! them: the discrete-event simulator (`nt_simnet`) for paper experiments,
//! and this crate for real deployments. Both program against the same
//! surface — [`NodeBuilder`] to construct, then `on_start` / `handle` /
//! `on_timer` against a [`Node`] — so a validator binary and a simulation
//! run execute the identical protocol code.
//!
//! The pieces:
//!
//! - [`config`]: committee files and per-validator key files.
//! - [`transport`]: TCP sockets behind the actors' `Effect::Send`
//!   vocabulary — framing from `nt_codec`, per-peer reconnect with
//!   [`backoff`], at-most-once delivery.
//! - [`timer`]: monotonic deadline wheel for `Effect::Timer`.
//! - [`driver`]: the event loop tying the three together around a
//!   [`Node`].
//! - [`loopback`]: a whole committee of such hosts inside one process, for
//!   the examples and integration tests.
//! - `narwhal-node` (binary): one OS process per host, configured from the
//!   files in [`config`]; see `examples/localhost_committee.rs` for a full
//!   4-validator deployment with kill/restart.
//!
//! [`NodeBuilder`]: narwhal::NodeBuilder

pub mod backoff;
pub mod config;
pub mod driver;
pub mod loopback;
pub mod timer;
pub mod transport;

pub use backoff::Backoff;
pub use config::{CommitteeConfig, ConfigError, KeyFile, SystemKind, ValidatorEntry};
pub use driver::{drive, spawn_node, DriverHandle};
pub use loopback::LoopbackCommittee;
pub use timer::TimerWheel;
pub use transport::{ClientConn, Transport};

use bullshark::{Bullshark, FinWhale, PipelinedBullshark, Reputation, RoundRobin};
use narwhal::{NoExt, Node, NodeBuilder, NodeRole};
use nt_crypto::KeyPair;
use nt_execution::{Execution, LedgerApp};
use nt_storage::DynStore;
use nt_types::ValidatorId;
use tusk::Tusk;

/// The application a primary executes (`narwhal-node --app`).
///
/// Every primary of a deployment must pick the same kind: the app defines
/// the `app_root` stamped on each commit, and a mixed committee could never
/// aggregate 2f+1 snapshot signatures over one manifest.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AppKind {
    /// No execution engine: commits carry a zero `app_root`.
    #[default]
    None,
    /// The account ledger ([`nt_execution::LedgerApp`]).
    Ledger,
}

impl AppKind {
    /// Parses a `--app` flag value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(AppKind::None),
            "ledger" => Ok(AppKind::Ledger),
            other => Err(format!("unknown app '{other}' (expected none or ledger)")),
        }
    }

    fn execution(self) -> Option<Box<dyn Execution>> {
        match self {
            AppKind::None => None,
            AppKind::Ledger => Some(Box::new(LedgerApp::new())),
        }
    }
}

/// Builds the [`Node`] for one host of `config`'s deployment.
///
/// `keypair` is required for primaries; `store` enables crash recovery.
/// The consensus plug-in follows `config.system`. The Tusk coin domain is
/// fixed at 0: a deployment is one committee instance, and all members must
/// agree on the domain.
pub fn build_node(
    config: &CommitteeConfig,
    me: ValidatorId,
    role: NodeRole,
    keypair: Option<KeyPair>,
    store: Option<DynStore>,
) -> Node<NoExt> {
    build_node_with_app(config, me, role, keypair, store, AppKind::None)
}

/// [`build_node`] with an execution engine attached to primaries (workers
/// ignore `app`): each committed block is applied in sequence order and its
/// `app_root` stamped, with durable snapshots when a store is present.
pub fn build_node_with_app(
    config: &CommitteeConfig,
    me: ValidatorId,
    role: NodeRole,
    keypair: Option<KeyPair>,
    store: Option<DynStore>,
    app: AppKind,
) -> Node<NoExt> {
    let committee = config.committee();
    let mut builder = NodeBuilder::new(committee.clone(), me.0).config(config.narwhal.clone());
    if let Some(keypair) = keypair {
        builder = builder.keypair(keypair);
    }
    if let Some(store) = store {
        builder = builder.store(store);
    }
    if role == NodeRole::Primary {
        if let Some(execution) = app.execution() {
            builder = builder.execution(execution);
        }
    }
    match role {
        NodeRole::Primary => match config.system {
            SystemKind::Tusk => builder.primary_node(Tusk::new(committee, 0)),
            SystemKind::Bullshark => {
                let schedule = RoundRobin::new(&committee);
                builder.primary_node(Bullshark::new(committee, schedule))
            }
            SystemKind::BullsharkRep => {
                let schedule = Reputation::new(&committee);
                builder.primary_node(Bullshark::new(committee, schedule))
            }
            SystemKind::BullsharkPipelined => {
                let schedule = Reputation::new(&committee);
                builder.primary_node(PipelinedBullshark::new(committee, schedule))
            }
            SystemKind::FinWhale => {
                let schedule = RoundRobin::new(&committee);
                builder.primary_node(FinWhale::new(committee, schedule))
            }
        },
        NodeRole::Worker(worker) => builder.worker_node::<NoExt>(worker),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use narwhal::NarwhalConfig;
    use nt_crypto::Scheme;
    use nt_types::{Committee, WorkerId};

    fn test_config(system: SystemKind) -> (CommitteeConfig, Vec<KeyPair>) {
        let (_, keypairs) = Committee::deterministic(4, 1, Scheme::Insecure);
        let config = CommitteeConfig {
            scheme: Scheme::Insecure,
            system,
            workers: 1,
            narwhal: NarwhalConfig::default(),
            validators: keypairs
                .iter()
                .enumerate()
                .map(|(i, kp)| config::ValidatorEntry {
                    public: kp.public(),
                    primary: format!("127.0.0.1:{}", 9200 + i).parse().unwrap(),
                    workers: vec![format!("127.0.0.1:{}", 9300 + i).parse().unwrap()],
                })
                .collect(),
        };
        (config, keypairs)
    }

    #[test]
    fn builds_all_roles_for_all_systems() {
        for system in [
            SystemKind::Tusk,
            SystemKind::Bullshark,
            SystemKind::BullsharkRep,
            SystemKind::BullsharkPipelined,
            SystemKind::FinWhale,
        ] {
            let (config, keypairs) = test_config(system);
            let primary = build_node(
                &config,
                ValidatorId(1),
                NodeRole::Primary,
                Some(keypairs[1].clone()),
                None,
            );
            assert_eq!(primary.role(), NodeRole::Primary);
            assert_eq!(primary.validator(), ValidatorId(1));
            let worker = build_node(
                &config,
                ValidatorId(2),
                NodeRole::Worker(WorkerId(0)),
                None,
                None,
            );
            assert_eq!(worker.role(), NodeRole::Worker(WorkerId(0)));
        }
    }
}
