//! Harness plumbing shared by the process-per-host examples
//! (`localhost_committee`, `snapshot_join`), pulled in with `#[path]`:
//! a 4-validator deployment written to a scratch directory, its
//! `narwhal-node` processes, an open-loop load client, and the commit-log
//! reader.

use narwhal_tusk::codec::encode_to_vec;
use narwhal_tusk::crypto::Scheme;
use narwhal_tusk::narwhal::{NarwhalConfig, NarwhalMsg, NoExt};
use narwhal_tusk::runtime::{ClientConn, CommitteeConfig, SystemKind};
use narwhal_tusk::types::Transaction;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const N: usize = 4;

/// The deployment's files and spawned processes; the processes are killed
/// on drop so a failing assert cleans up.
pub struct Cluster {
    bin: PathBuf,
    dir: PathBuf,
    app: &'static str,
    workers: Vec<SocketAddr>,
    children: Vec<(usize, Child)>,
}

impl Cluster {
    /// Writes key files and one committee file (Bullshark, free localhost
    /// ports) under a fresh scratch directory `<tmp>/<name>-<pid>`, then
    /// spawns `narwhal-node --app <app>` twice per validator (primary +
    /// worker).
    pub fn launch(name: &str, narwhal: NarwhalConfig, app: &'static str) -> Cluster {
        let bin = find_node_binary();
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        println!("scratch directory: {}", dir.display());

        let (config, keys) =
            CommitteeConfig::loopback(N, Scheme::Insecure, SystemKind::Bullshark, narwhal)
                .expect("reserve localhost ports");
        std::fs::write(dir.join("committee.txt"), config.to_file_string())
            .expect("write committee");
        for (i, key) in keys.iter().enumerate() {
            std::fs::write(dir.join(format!("v{i}.key")), key.to_file_string()).expect("write key");
        }
        let workers = config
            .validators
            .iter()
            .map(|entry| entry.workers[0].socket_addr())
            .collect();
        let mut cluster = Cluster {
            bin,
            dir,
            app,
            workers,
            children: Vec::new(),
        };
        for v in 0..N {
            cluster.spawn_validator(v);
        }
        cluster
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// An open-loop transaction source feeding every worker.
    pub fn load_client(&self) -> LoadClient {
        LoadClient {
            targets: self.workers.clone(),
            conns: self.workers.iter().map(|_| None).collect(),
            next_id: 0,
        }
    }

    /// Starts validator `v`'s two processes over its store directory (which
    /// survives kills, so a restart recovers from it).
    pub fn spawn_validator(&mut self, v: usize) {
        for role in ["primary", "worker:0"] {
            let mut cmd = Command::new(&self.bin);
            cmd.arg("run")
                .arg("--committee")
                .arg(self.dir.join("committee.txt"))
                .arg("--key")
                .arg(self.dir.join(format!("v{v}.key")))
                .arg("--role")
                .arg(role)
                .arg("--store")
                .arg(store_dir(&self.dir, v))
                .arg("--app")
                .arg(self.app)
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            if role == "primary" {
                cmd.arg("--commit-log").arg(commit_log_path(&self.dir, v));
            }
            let child = cmd.spawn().unwrap_or_else(|e| {
                panic!("spawning {} for validator {v}: {e}", self.bin.display())
            });
            self.children.push((v, child));
        }
    }

    pub fn kill_validator(&mut self, v: usize) {
        for (owner, child) in &mut self.children {
            if *owner == v {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        self.children.retain(|(owner, _)| *owner != v);
    }

    pub fn kill_all(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// Open-loop transaction source feeding every worker, reconnecting to
/// workers that die and come back.
pub struct LoadClient {
    targets: Vec<SocketAddr>,
    conns: Vec<Option<ClientConn>>,
    next_id: u64,
}

impl LoadClient {
    fn pump(&mut self) {
        for (i, slot) in self.conns.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = ClientConn::connect(self.targets[i]).ok();
            }
            if let Some(conn) = slot {
                self.next_id += 1;
                let msg: NarwhalMsg<NoExt> =
                    NarwhalMsg::ClientTx(Transaction::filler(self.next_id, 0, 128));
                if conn.send_payload(encode_to_vec(&msg)).is_err() {
                    *slot = None; // reconnect on the next pump
                }
            }
        }
    }
}

/// Pumps load until `done()` or the deadline; Err on timeout.
pub fn wait_until(
    limit: Duration,
    client: &mut LoadClient,
    mut done: impl FnMut() -> bool,
) -> Result<(), String> {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        client.pump();
        std::thread::sleep(Duration::from_millis(10));
        if done() {
            return Ok(());
        }
    }
    Err(format!("condition not reached within {limit:?}"))
}

pub fn store_dir(dir: &Path, v: usize) -> PathBuf {
    dir.join(format!("store-v{v}"))
}

fn commit_log_path(dir: &Path, v: usize) -> PathBuf {
    dir.join(format!("v{v}.commits"))
}

/// One commit-log line: `<sequence> <round> <author> <app_root>`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Entry {
    pub seq: u64,
    pub round: u64,
    pub author: u32,
    pub root: String,
}

impl Entry {
    /// `None` for markers (`# start`, `# dropped <n>`) and torn lines.
    fn parse(line: &str) -> Option<Entry> {
        let mut parts = line.split_whitespace();
        Some(Entry {
            seq: parts.next()?.parse().ok()?,
            round: parts.next()?.parse().ok()?,
            author: parts.next()?.parse().ok()?,
            root: parts.next()?.to_string(),
        })
    }
}

/// Validator `v`'s commit log as one entry list per process start (each
/// `# start` marker opens a new list), in file order.
pub fn incarnations(dir: &Path, v: usize) -> Vec<Vec<Entry>> {
    let text = std::fs::read_to_string(commit_log_path(dir, v)).unwrap_or_default();
    let mut out: Vec<Vec<Entry>> = Vec::new();
    for line in text.lines() {
        if line.starts_with("# start") {
            out.push(Vec::new());
        } else if let (Some(entry), Some(current)) = (Entry::parse(line), out.last_mut()) {
            current.push(entry);
        }
    }
    out
}

/// Every entry of validator `v`'s commit log, in file order.
pub fn commit_entries(dir: &Path, v: usize) -> Vec<Entry> {
    incarnations(dir, v).into_iter().flatten().collect()
}

/// Locates the `narwhal-node` binary next to the example's build output.
fn find_node_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("current exe");
    // target/<profile>/examples/<example> -> target/<profile>/
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("examples directory layout");
    let candidate = profile_dir.join("narwhal-node");
    if candidate.exists() {
        return candidate;
    }
    panic!(
        "narwhal-node binary not found at {}; build it first with \
         `cargo build {} -p nt_runtime`",
        candidate.display(),
        if profile_dir.ends_with("release") {
            "--release"
        } else {
            ""
        }
    );
}
