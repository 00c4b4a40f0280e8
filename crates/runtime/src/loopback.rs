//! A whole committee inside one process, over loopback TCP.
//!
//! Every host is built and driven the way `narwhal-node` runs one —
//! [`build_node_with_app`], a [`Transport`], a [`spawn_node`] thread — so
//! the examples and integration tests run the deployed path; only the
//! process boundary is missing (`examples/localhost_committee.rs` adds it).

use crate::config::{CommitteeConfig, KeyFile, SystemKind, ValidatorEntry};
use crate::driver::{spawn_node, DriverHandle};
use crate::transport::{ClientConn, Transport};
use crate::{build_node_with_app, AppKind};
use narwhal::{CommitStream, NarwhalConfig, NodeRole};
use nt_crypto::{KeyPair, Scheme};
use nt_network::PeerAddr;
use nt_storage::DynStore;
use nt_types::ValidatorId;
use std::io;
use std::net::TcpListener;

/// Commit subscription depth per primary; a consumer further behind than
/// this sheds events (counted by [`CommitStream::dropped`]).
const COMMIT_BUFFER: usize = 4096;

impl CommitteeConfig {
    /// `n` validators with one worker each on free `127.0.0.1` ports, and
    /// the key files of their [`KeyPair::for_index`] identities. The ports
    /// are reserved by binding them all at once and released on return, so
    /// start the hosts right away.
    pub fn loopback(
        n: usize,
        scheme: Scheme,
        system: SystemKind,
        narwhal: NarwhalConfig,
    ) -> io::Result<(CommitteeConfig, Vec<KeyFile>)> {
        let listeners = (0..2 * n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let addr = |host: usize| listeners[host].local_addr().map(PeerAddr::from);
        let mut keys = Vec::with_capacity(n);
        let mut validators = Vec::with_capacity(n);
        for v in 0..n {
            let seed = KeyPair::index_seed(v);
            let key = KeyFile { scheme, seed };
            validators.push(ValidatorEntry {
                public: key.keypair().public(),
                primary: addr(v)?,
                workers: vec![addr(n + v)?],
            });
            keys.push(key);
        }
        let config = CommitteeConfig {
            scheme,
            system,
            workers: 1,
            narwhal,
            validators,
        };
        Ok((config, keys))
    }
}

/// Every host of one committee running in this process; stopped and joined
/// by [`LoopbackCommittee::stop`] or on drop.
pub struct LoopbackCommittee {
    config: CommitteeConfig,
    drivers: Vec<DriverHandle>,
    commits: Vec<CommitStream>,
}

impl LoopbackCommittee {
    /// Starts the primary and every worker of each validator of `config`;
    /// `host` supplies each one's store and application. If a host cannot
    /// bind its address, the ones already started are stopped again.
    pub fn spawn(
        config: CommitteeConfig,
        keys: &[KeyFile],
        mut host: impl FnMut(ValidatorId, NodeRole) -> (Option<DynStore>, AppKind),
    ) -> io::Result<LoopbackCommittee> {
        let book = config.address_book();
        let hosts = config.all_hosts().into_iter();
        let peers: Vec<_> = hosts.map(|(id, addr)| (id, addr.socket_addr())).collect();
        let keypairs: Vec<KeyPair> = keys.iter().map(KeyFile::keypair).collect();
        let mut committee = LoopbackCommittee {
            config,
            drivers: Vec::new(),
            commits: Vec::new(),
        };
        for &(node_id, listen) in &peers {
            let (me, role) = match (book.primary_of(node_id), book.worker_of(node_id)) {
                (Some(v), _) => (v, NodeRole::Primary),
                (_, Some((v, w))) => (v, NodeRole::Worker(w)),
                (None, None) => unreachable!("all_hosts lists laid-out hosts only"),
            };
            let (store, app) = host(me, role);
            let keypair = Some(keypairs[me.0 as usize].clone());
            let mut node = build_node_with_app(&committee.config, me, role, keypair, store, app);
            if role == NodeRole::Primary {
                let stream = node.subscribe_commits(COMMIT_BUFFER);
                committee.commits.push(stream);
            }
            let transport = Transport::start(node_id, listen, &peers)?;
            committee.drivers.push(spawn_node(node, transport));
        }
        Ok(committee)
    }

    /// Each primary's committed sequence, indexed by validator.
    pub fn commits(&self) -> &[CommitStream] {
        &self.commits
    }

    /// A client connection to worker 0 of validator `v`.
    pub fn client(&self, v: ValidatorId) -> io::Result<ClientConn> {
        ClientConn::connect(self.config.validators[v.0 as usize].workers[0].socket_addr())
    }

    /// Stops every driver and joins its threads.
    pub fn stop(self) {}
}

impl Drop for LoopbackCommittee {
    fn drop(&mut self) {
        for driver in self.drivers.drain(..) {
            driver.stop();
        }
    }
}
