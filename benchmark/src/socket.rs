//! One end-to-end run: the real TCP committee, in this process, under an
//! open-loop seeded load. Runs inside a supervised child (see `watchdog`).
//!
//! Links are loopback and no delay is injected, so the latencies here are
//! timers + CPU + scheduling, not a WAN. Tracing is off on this path: no
//! span and no decorator touches the committee.

use crate::compat::{
    client_tx_bytes, open_host_wal, resolve_batch, AppKind, ClientConn, CommitStream, Deployment,
    DriverHandle, DynStore, HostSpec, VALIDATORS,
};
use crate::observer::{
    check_logs, check_survivors_commit, commit_times, max_commit_gap, CommitRecord,
};
use crate::procfs;
use crate::report::{Metric, RunResult};
use crate::stats::{
    highest_supported_percentile, lateness, median, percentile, poisson_schedule,
    sliced_percentile, SplitMix64,
};
use crate::workload::{survivors, Workload, CRASHED_VALIDATOR, FED_VALIDATORS, LATENCY_LIMIT_MS};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Commit subscription depth; check (5) fails the run if it ever overflows.
const COMMIT_BUFFER: usize = 1 << 16;
/// The committee is set up this many times; `setup_s` is the median and
/// the last committee carries the load.
const SETUP_REPEATS: usize = 3;
/// `commit_p99_ms` is the median over slices this long (by due time) of
/// each slice's p99; see `stats::sliced_percentile`. 2.5 s keeps more than
/// ten samples beyond p99 in every slice of the thinnest workload.
const TAIL_SLICE_S: f64 = 2.5;
const READY_CAP: Duration = Duration::from_secs(20);
const DRAIN_CAP: Duration = Duration::from_secs(8);

type SharedLog = Arc<Mutex<Vec<CommitRecord>>>;

struct Observer {
    log: SharedLog,
    stop: Arc<AtomicBool>,
    /// Returns how many events the subscription dropped.
    thread: JoinHandle<u64>,
}

/// Appends every commit of one primary to its log, stamped on arrival.
/// Nothing is resolved or checked until the drivers have stopped.
fn observe(commits: CommitStream, epoch: Instant) -> Observer {
    let log: SharedLog = Arc::default();
    let stop = Arc::new(AtomicBool::new(false));
    let (sink, stopped) = (log.clone(), stop.clone());
    let thread = std::thread::spawn(move || {
        while !stopped.load(Ordering::SeqCst) {
            let Some(event) = commits.next_timeout(Duration::from_millis(50)) else {
                continue;
            };
            let record = CommitRecord::from_event(&event, epoch.elapsed());
            sink.lock().expect("observer log").push(record);
        }
        commits.dropped()
    });
    Observer { log, stop, thread }
}

/// Eight hosts on fresh loopback ports, one WAL file per role under
/// `dir`, a commit observer per primary and a client connection per fed
/// worker.
struct Committee {
    epoch: Instant,
    /// Indexed like `Deployment::hosts`; `None` once stopped.
    drivers: Vec<Option<DriverHandle>>,
    hosts: Vec<HostSpec>,
    /// The bench's own handle on each worker's store, by validator.
    worker_stores: Vec<DynStore>,
    observers: Vec<Observer>,
    clients: Vec<ClientConn>,
}

/// Reserves `n` distinct loopback ports by binding `127.0.0.1:0`.
pub fn free_addrs(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    listeners.iter().map(TcpListener::local_addr).collect()
}

impl Committee {
    /// Brings the committee up and waits until it serves: every primary
    /// has committed once. Returns it with the time that took.
    fn start(workload: &Workload, dir: &Path) -> Result<(Committee, Duration), String> {
        let epoch = Instant::now();
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let addrs = free_addrs(2 * VALIDATORS).map_err(|e| format!("reserving ports: {e}"))?;
        let deployment = Deployment::new(workload.system, &addrs);
        let hosts = deployment.hosts();
        let mut committee = Committee {
            epoch,
            drivers: Vec::new(),
            hosts: hosts.clone(),
            worker_stores: Vec::new(),
            observers: Vec::new(),
            clients: Vec::new(),
        };
        for host in &hosts {
            let store = open_host_wal(dir, host)?;
            if !host.is_primary() {
                committee.worker_stores.push(store.clone());
            }
            let (driver, commits) = deployment
                .spawn_host(host, store, workload.app, COMMIT_BUFFER)
                .map_err(|e| format!("starting host {}: {e}", host.node_id))?;
            committee.drivers.push(Some(driver));
            if let Some(commits) = commits {
                committee.observers.push(observe(commits, epoch));
            }
        }
        for v in FED_VALIDATORS {
            let worker = hosts
                .iter()
                .find(|h| h.validator.0 == v && !h.is_primary())
                .expect("every validator has a worker");
            let conn = ClientConn::connect(worker.listen)
                .map_err(|e| format!("connecting to worker of validator {v}: {e}"))?;
            committee.clients.push(conn);
        }
        while committee.logs_len().contains(&0) {
            if epoch.elapsed() > READY_CAP {
                committee.stop();
                return Err(format!(
                    "no first commit on every primary within {READY_CAP:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let took = epoch.elapsed();
        Ok((committee, took))
    }

    fn logs_len(&self) -> Vec<usize> {
        self.observers
            .iter()
            .map(|o| o.log.lock().expect("observer log").len())
            .collect()
    }

    /// Takes the two driver handles of `validator` out, for a crash.
    fn take_drivers_of(&mut self, validator: u32) -> Vec<DriverHandle> {
        self.hosts
            .iter()
            .zip(self.drivers.iter_mut())
            .filter(|(host, _)| host.validator.0 == validator)
            .filter_map(|(_, slot)| slot.take())
            .collect()
    }

    /// Stops every remaining driver (in parallel: each stop blocks on its
    /// transport's poll interval), then the observers. Returns the logs by
    /// validator and the total of dropped commit events.
    fn stop(&mut self) -> (Vec<Vec<CommitRecord>>, u64) {
        self.clients.clear();
        std::thread::scope(|scope| {
            for driver in self.drivers.iter_mut().filter_map(Option::take) {
                scope.spawn(move || driver.stop());
            }
        });
        let mut dropped = 0;
        let mut logs = Vec::new();
        for observer in self.observers.drain(..) {
            observer.stop.store(true, Ordering::SeqCst);
            dropped += observer.thread.join().expect("observer thread");
            logs.push(std::mem::take(
                &mut *observer.log.lock().expect("observer log"),
            ));
        }
        (logs, dropped)
    }
}

/// One generated transaction: when it was due and when it left, from the
/// committee's epoch. Transaction `i` goes to `FED_VALIDATORS[i % 2]`.
#[derive(Clone, Copy)]
struct Sent {
    due: Duration,
    sent: Duration,
}

/// The open-loop generator: one thread, one connection per fed worker.
/// Sleeps to the next due time, sends everything due, never busy-waits.
/// Returns the send log and the thread's own CPU time.
fn generate(
    workload: &Workload,
    mut rng: SplitMix64,
    epoch: Instant,
    start: Duration,
    schedule: &[Duration],
    clients: &mut [ClientConn],
) -> Result<(Vec<Sent>, Duration), String> {
    let cpu_before = procfs::thread_cpu();
    let mut log = Vec::with_capacity(schedule.len());
    for (i, offset) in schedule.iter().enumerate() {
        let due = start + *offset;
        let now = epoch.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let slot = i % clients.len();
        let tx = workload.make_tx(i as u64 + 1, &mut rng);
        clients[slot]
            .send_payload(client_tx_bytes(tx))
            .map_err(|e| format!("client send {i} failed: {e}"))?;
        log.push(Sent {
            due,
            sent: epoch.elapsed(),
        });
    }
    Ok((log, procfs::thread_cpu() - cpu_before))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `workload` once for `window` of sending and reports every
/// end-to-end metric, the `client.*` diagnostics, and all five checks.
pub fn run(workload: &Workload, seed: u64, window: Duration, tmp: &Path) -> RunResult {
    match run_inner(workload, seed, window, tmp) {
        Ok(result) => result,
        Err(why) => RunResult::all_failed(0, why),
    }
}

fn run_inner(
    workload: &Workload,
    seed: u64,
    window: Duration,
    tmp: &Path,
) -> Result<RunResult, String> {
    // Set up several times; the last committee carries the load.
    let mut setups = Vec::new();
    let mut committee: Option<Committee> = None;
    for i in 0..SETUP_REPEATS {
        if let Some(mut previous) = committee.take() {
            previous.stop();
        }
        let dir: PathBuf = tmp.join(format!("setup{i}"));
        let (up, took) = Committee::start(workload, &dir)?;
        setups.push(took.as_secs_f64());
        committee = Some(up);
    }
    let mut committee = committee.expect("at least one setup");
    let epoch = committee.epoch;

    let mut rng = SplitMix64::new(seed);
    let schedule = poisson_schedule(&mut rng, workload.rate_tps, window);
    if schedule.is_empty() {
        return Err("the schedule is empty".into());
    }
    let crash_offset = workload.crash_at.map(|share| window.mul_f64(share));
    let victims = match crash_offset {
        Some(_) => committee.take_drivers_of(CRASHED_VALIDATOR),
        None => Vec::new(),
    };

    let cpu_before = procfs::process_cpu();
    let start = epoch.elapsed() + Duration::from_millis(5);
    let mut clients = std::mem::take(&mut committee.clients);
    let (generated, crashed_at) = std::thread::scope(|scope| {
        let generator =
            scope.spawn(|| generate(workload, rng, epoch, start, &schedule, &mut clients));
        // The crash comes from side threads: `stop` blocks ~100 ms, and the
        // generator must keep its schedule through the fault.
        let crashers: Vec<_> = victims
            .into_iter()
            .map(|driver| {
                let at = start + crash_offset.expect("victims imply a crash");
                scope.spawn(move || {
                    std::thread::sleep(at.saturating_sub(epoch.elapsed()));
                    let stopped_at = epoch.elapsed();
                    driver.stop();
                    stopped_at
                })
            })
            .collect();
        let generated = generator.join().expect("generator thread");
        let crashed_at = crashers
            .into_iter()
            .map(|c| c.join().expect("crash thread"))
            .max();
        (generated, crashed_at)
    });
    let (sent, generator_cpu) = generated?;
    let end = start + window;

    // Drain: until the fed primaries have reported every transaction as
    // their own (the author-only `tx_count`, a hint), or the cap.
    let drain_from = Instant::now();
    loop {
        let hinted: u64 = FED_VALIDATORS
            .iter()
            .map(|&v| {
                let log = committee.observers[v as usize]
                    .log
                    .lock()
                    .expect("observer log");
                log.iter().map(|r| r.own_tx_hint).sum::<u64>()
            })
            .sum();
        if hinted >= sent.len() as u64 || drain_from.elapsed() > DRAIN_CAP {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let cpu = (procfs::process_cpu() - cpu_before).saturating_sub(generator_cpu);
    let cpu_window = epoch.elapsed() - start;
    drop(clients);
    let (logs, dropped) = committee.stop();

    // Only now is anything resolved or checked.
    let mut errors = check_logs(&logs, workload.app != AppKind::None);
    if dropped > 0 {
        errors.push(format!("commit subscriptions dropped {dropped} events"));
    }
    if let Some(crashed_at) = crashed_at {
        errors.extend(check_survivors_commit(&logs, &survivors(), crashed_at));
    }
    let stores = &committee.worker_stores;
    let commit_at = match commit_times(&logs, &FED_VALIDATORS, sent.len(), |digest| {
        stores.iter().find_map(|store| resolve_batch(store, digest))
    }) {
        Ok(times) => times,
        Err(why) => {
            errors.push(why);
            vec![None; sent.len()]
        }
    };

    // Latency runs from *due* to the commit at the submitting validator's
    // primary. With a crash, only transactions due after it are measured.
    let measure_from = crashed_at.unwrap_or(start);
    let mut by_due: Vec<(f64, f64)> = Vec::new();
    let (mut measured, mut over_limit, mut committed, mut in_window) = (0u64, 0u64, 0u64, 0u64);
    for (tx, at) in sent.iter().zip(&commit_at) {
        if let Some(at) = at {
            committed += 1;
            in_window += u64::from(*at <= end);
        }
        if tx.due < measure_from {
            continue;
        }
        measured += 1;
        match at {
            Some(at) => {
                let latency = ms(at.saturating_sub(tx.due));
                over_limit += u64::from(latency > LATENCY_LIMIT_MS);
                by_due.push(((tx.due - measure_from).as_secs_f64(), latency));
            }
            None => over_limit += 1,
        }
    }
    let mut latencies: Vec<f64> = by_due.iter().map(|(_, latency)| *latency).collect();
    latencies.sort_by(f64::total_cmp);
    let failed = sent.len() as u64 - committed;
    if latencies.is_empty() {
        errors.push("no measured transaction committed".into());
    }
    let mut late: Vec<f64> = sent
        .iter()
        .map(|tx| ms(lateness(tx.due, tx.sent)))
        .collect();
    late.sort_by(f64::total_cmp);

    let n = latencies.len() as u64;
    let pct = |p: f64| percentile(&latencies, p).unwrap_or(f64::NAN);
    // Short runs have no slice with ten samples beyond p99; they fall back
    // to the whole window.
    let (p99, p99_slices) =
        sliced_percentile(&by_due, TAIL_SLICE_S, 99.0).unwrap_or((pct(99.0), 1));
    let gated = vec![
        Metric::new(
            "setup_s",
            median(&setups).expect("setups"),
            "s",
            setups.len() as u64,
        ),
        Metric::new(
            "committed_tps",
            in_window as f64 / window.as_secs_f64(),
            "tx/s",
            in_window,
        ),
        Metric::new("commit_p50_ms", pct(50.0), "ms", n),
        Metric::new("commit_p99_ms", p99, "ms", p99_slices as u64),
        Metric::new("peak_rss_mb", procfs::peak_rss_mb(), "MB", 1),
    ];
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    let mut diagnostics = vec![
        // The capacity metric (knee ~ cores / CPU per tx). Printed, not
        // gated: on this shared-host VM its median drifted 17-25% between
        // two ten-seed sets half an hour apart, more than any bound allows.
        Metric::new(
            "client.cpu_us_per_tx",
            cpu.as_secs_f64() * 1e6 / committed.max(1) as f64,
            "us",
            committed,
        ),
        Metric::new(
            "client.over_limit_share",
            share(over_limit, measured),
            "ratio",
            measured,
        ),
        Metric::new(
            "client.failed_share",
            share(failed, sent.len() as u64),
            "ratio",
            sent.len() as u64,
        ),
        Metric::new(
            "client.gen_late_p99_ms",
            percentile(&late, 99.0).unwrap_or(f64::NAN),
            "ms",
            late.len() as u64,
        ),
        Metric::new("client.commit_p90_ms", pct(90.0), "ms", n),
        Metric::new("client.commit_p99_window_ms", pct(99.0), "ms", n),
        Metric::new(
            "client.max_commit_gap_ms",
            ms(max_commit_gap(&logs[0], measure_from, end)),
            "ms",
            logs[0].len() as u64,
        ),
        Metric::new(
            "client.cores_busy",
            cpu.as_secs_f64() / cpu_window.as_secs_f64(),
            "ratio",
            1,
        ),
        Metric::new("client.samples", n as f64, "count", 0),
    ];
    if highest_supported_percentile(latencies.len()) > 99.0 {
        diagnostics.push(Metric::new(
            "client.commit_p999_window_ms",
            pct(99.9),
            "ms",
            n,
        ));
    }
    Ok(RunResult {
        attempted: sent.len() as u64,
        failed,
        errors,
        gated,
        diagnostics,
    })
}
