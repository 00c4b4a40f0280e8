//! One OS process per host: the deployable validator binary.
//!
//! ```text
//! narwhal-node keygen --scheme insecure --index 0 --out v0.key
//! narwhal-node run --committee committee.txt --key v0.key \
//!     --role primary --store /var/lib/narwhal/v0 --commit-log v0.commits
//! narwhal-node run --committee committee.txt --key v0.key \
//!     --role worker:0 --store /var/lib/narwhal/v0
//! ```
//!
//! `run` figures out *which* validator it is from the key file (the public
//! key is looked up in the committee file), opens a WAL-backed store under
//! `--store` (one file per role, so a validator's primary and workers can
//! share a directory), and drives the node until killed. With
//! `--commit-log`, every committed block appends one line
//! `<sequence> <round> <author> <app_root>`; each process start first
//! appends a `# start` marker, so restarts are visible to log consumers,
//! and whenever the bounded commit subscription sheds events because the
//! log consumer lagged, a `# dropped <total>` marker records the running
//! count — silent loss is never silent in the log. A primary also prints a
//! one-line `stats` summary to stderr every ten seconds it committed in:
//! where its commit sequence and DAG round stand, and why it proposed its
//! blocks (own payload, followed a live round, header deadline, consensus
//! wish). `--app ledger` attaches
//! the account-ledger execution engine to primaries, which stamps a
//! non-zero `app_root` per commit and snapshots app state into the store.

use narwhal::{CommitStream, NodeRole};
use nt_network::NodeId;
use nt_runtime::{build_node_with_app, AppKind, CommitteeConfig, KeyFile, Transport};
use nt_storage::{DynStore, WalStore};
use nt_types::{ValidatorId, WorkerId};
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Commit subscription depth; a stalled log consumer drops past this.
const COMMIT_BUFFER: usize = 65536;
/// How often a primary prints its stats line.
const STATS_INTERVAL: Duration = Duration::from_secs(10);

/// Prints the newest commit's cumulative counters once per
/// [`STATS_INTERVAL`], until the node is gone. Every event carries running
/// totals, so a shallow subscription that sheds events loses nothing.
fn stats_loop(commits: CommitStream) {
    let mut last = None;
    let mut due = Instant::now() + STATS_INTERVAL;
    loop {
        if let Some(event) = commits.next_timeout(due.saturating_duration_since(Instant::now())) {
            last = Some(event);
            continue;
        }
        // Nothing before the interval was up: the node hung up.
        let node_gone = Instant::now() < due;
        if let Some(event) = last.take() {
            let p = event.proposals;
            eprintln!(
                "narwhal-node: stats sequence={} round={} direct={} indirect={} \
                 proposals payload={} followed={} deadline={} wish={}",
                event.sequence,
                event.decided_round,
                event.direct_commits,
                event.indirect_commits,
                p.payload,
                p.followed,
                p.deadline,
                p.wish,
            );
        }
        if node_gone {
            return;
        }
        due += STATS_INTERVAL;
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("keygen") => keygen(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => Err(usage()),
    };
    if let Err(message) = result {
        eprintln!("narwhal-node: {message}");
        std::process::exit(1);
    }
}

fn usage() -> String {
    "usage:\n  narwhal-node keygen --scheme <insecure|ed25519> --index <n> --out <file>\n  \
     narwhal-node run --committee <file> --key <file> --role <primary|worker:N> \
     --store <dir> [--commit-log <file>] [--app <none|ledger>]"
        .to_string()
}

/// Pulls the value following `--name` out of `args`.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn keygen(args: &[String]) -> Result<(), String> {
    let scheme = match flag(args, "--scheme").as_deref() {
        Some("insecure") => nt_crypto::Scheme::Insecure,
        Some("ed25519") | None => nt_crypto::Scheme::Ed25519,
        Some(other) => return Err(format!("unknown scheme '{other}'")),
    };
    let index: usize = flag(args, "--index")
        .and_then(|s| s.parse().ok())
        .ok_or("keygen needs --index <n>")?;
    let out = flag(args, "--out").ok_or("keygen needs --out <file>")?;
    // The same derivation as the test committees, so a keygen-generated
    // deployment and `Committee::deterministic` agree on identities.
    let seed = nt_crypto::KeyPair::index_seed(index);
    let key = KeyFile { scheme, seed };
    std::fs::write(&out, key.to_file_string()).map_err(|e| format!("writing {out}: {e}"))?;
    let public = key.keypair().public();
    let hex: String = public.0.iter().map(|b| format!("{b:02x}")).collect();
    println!("{hex}");
    Ok(())
}

fn parse_role(role: &str) -> Result<NodeRole, String> {
    if role == "primary" {
        return Ok(NodeRole::Primary);
    }
    if let Some(w) = role.strip_prefix("worker:") {
        let w: u32 = w.parse().map_err(|_| format!("bad worker slot '{w}'"))?;
        return Ok(NodeRole::Worker(WorkerId(w)));
    }
    Err(format!("bad role '{role}' (expected primary or worker:N)"))
}

fn run(args: &[String]) -> Result<(), String> {
    let committee_path = flag(args, "--committee").ok_or("run needs --committee <file>")?;
    let key_path = flag(args, "--key").ok_or("run needs --key <file>")?;
    let role = parse_role(&flag(args, "--role").ok_or("run needs --role")?)?;
    let store_dir = PathBuf::from(flag(args, "--store").ok_or("run needs --store <dir>")?);
    let commit_log = flag(args, "--commit-log");
    let app = match flag(args, "--app") {
        Some(name) => AppKind::parse(&name)?,
        None => AppKind::None,
    };

    let config_text = std::fs::read_to_string(&committee_path)
        .map_err(|e| format!("reading {committee_path}: {e}"))?;
    let config = CommitteeConfig::parse(&config_text).map_err(|e| e.to_string())?;
    let key_text =
        std::fs::read_to_string(&key_path).map_err(|e| format!("reading {key_path}: {e}"))?;
    let key = KeyFile::parse(&key_text).map_err(|e| e.to_string())?;
    if key.scheme != config.scheme {
        return Err("key file scheme does not match committee scheme".to_string());
    }
    let keypair = key.keypair();
    let me: ValidatorId = config
        .id_of(&keypair.public())
        .ok_or("this key is not a member of the committee")?;

    // Resolve this host's flat id and listen address from the layout.
    let book = config.address_book();
    let (node_id, listen): (NodeId, SocketAddr) = match role {
        NodeRole::Primary => (
            book.primary(me),
            config.validators[me.0 as usize].primary.socket_addr(),
        ),
        NodeRole::Worker(w) => (
            book.worker(me, w),
            config
                .validators
                .get(me.0 as usize)
                .and_then(|v| v.workers.get(w.0 as usize))
                .ok_or_else(|| format!("committee lists no worker slot {}", w.0))?
                .socket_addr(),
        ),
    };

    // One WAL per role under the validator's store directory: restarting
    // the same role over the same directory recovers its state.
    std::fs::create_dir_all(&store_dir).map_err(|e| format!("creating store dir: {e}"))?;
    let wal_name = match role {
        NodeRole::Primary => "primary.wal".to_string(),
        NodeRole::Worker(w) => format!("worker{}.wal", w.0),
    };
    let wal = WalStore::open(store_dir.join(&wal_name))
        .map_err(|e| format!("opening {wal_name}: {e}"))?;
    let store: DynStore = Arc::new(wal);

    let mut node = build_node_with_app(&config, me, role, Some(keypair), Some(store), app);

    // The commit log rides the CommitStream subscription — the driver
    // never interprets commit effects itself.
    let mut log_thread = None;
    if let Some(path) = commit_log {
        let commits = node.subscribe_commits(COMMIT_BUFFER);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("opening {path}: {e}"))?;
        writeln!(file, "# start").map_err(|e| e.to_string())?;
        file.flush().map_err(|e| e.to_string())?;
        log_thread = Some(std::thread::spawn(move || {
            // Lag-shed events must be observable: whenever the bounded
            // subscription dropped more commits since the last line, record
            // the running total before the next event.
            let mut dropped_logged = 0;
            while let Some(event) = commits.next_timeout(Duration::from_secs(3600)) {
                let dropped = commits.dropped();
                if dropped > dropped_logged {
                    dropped_logged = dropped;
                    if writeln!(file, "# dropped {dropped}").is_err() {
                        return;
                    }
                }
                if writeln!(
                    file,
                    "{} {} {} {:?}",
                    event.sequence, event.round, event.author.0, event.app_root
                )
                .and_then(|_| file.flush())
                .is_err()
                {
                    return;
                }
            }
        }));
    }

    // Workers commit nothing; only a primary has stats to print.
    let stats_thread = (role == NodeRole::Primary).then(|| {
        let commits = node.subscribe_commits(64);
        std::thread::spawn(move || stats_loop(commits))
    });

    let peers: Vec<(NodeId, SocketAddr)> = config
        .all_hosts()
        .into_iter()
        .filter(|&(id, _)| id != node_id)
        .map(|(id, addr)| (id, addr.socket_addr()))
        .collect();
    let transport =
        Transport::start(node_id, listen, &peers).map_err(|e| format!("binding {listen}: {e}"))?;

    eprintln!(
        "narwhal-node: {me} {role:?} listening on {} (host id {node_id})",
        transport.local_addr()
    );
    // Runs until the process is killed; deployments stop nodes with
    // signals, crash-recovery is exercised by killing and restarting.
    let never_stop = AtomicBool::new(false);
    nt_runtime::drive(node, transport, &never_stop);
    for thread in log_thread.into_iter().chain(stats_thread) {
        let _ = thread.join();
    }
    Ok(())
}
