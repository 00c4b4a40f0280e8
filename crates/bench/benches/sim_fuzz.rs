//! Deterministic schedule fuzzer: randomized fault exploration with safety
//! checkers and shrinking (the paper's §5 claims as a generated,
//! reproducible test surface).
//!
//! Every seed deterministically yields a fault schedule (crashes +
//! restarts, torn WAL tails at restart, partitions that form and heal,
//! per-link delay spikes), which runs against one of the six DAG systems
//! (`fuzz::SYSTEMS`) and is judged by the
//! checker suite (agreement, total order, commit loss, batch exactly-once,
//! catch-up, tail liveness, fairness). On a violation the harness prints
//! the seed, shrinks the schedule to a minimal reproducer, and emits a
//! copy-pasteable regression test; the failing seed alone reproduces the
//! run bit-for-bit.
//!
//! A second, *Byzantine* corpus re-runs seeded schedules with `f` of the
//! validators wrapped in adversary actors (equivocation, vote-lock
//! amnesia, selective censorship, delayed certificate release — kinds
//! rotating per seed, mixed coalitions at larger committees) over
//! seed-weighted committee sizes (4/10/16) with worker-link spikes. The
//! honest-validator checkers must stay green: `f` adversaries of any kind
//! are inside the fault model the paper's §5 claims cover.
//!
//! Usage (`cargo bench -p nt_bench --bench sim_fuzz -- [flags]`):
//!
//! - (no flags): a 1000-schedule crash corpus, a 120-case Byzantine
//!   corpus, plus the self-test.
//! - `--test`: the CI corpora (240 crash schedules, 40 per system; 24
//!   Byzantine cases), the checker self-test (over-`f` coalitions and a
//!   run without snapshots must each trip a checker), and the shrinker
//!   gate. The arms that prove a recovery mechanism load-bearing are
//!   source mutants instead (`crates/bench/mutants.txt`).
//! - `--seed N [--system NAME]`: replay one crash-corpus seed (all
//!   systems by default), printing its schedule and any violations.
//! - `--schedules N`: override the crash corpus size.
//! - `--byz-cases N`: override the Byzantine corpus size.

use nt_bench::fuzz::{
    self, fuzz_params, noisy_selftest_schedule, run_byz_case, run_case, run_schedule,
    run_schedule_byz, shrink_case, QUIET_TAIL,
};
use nt_bench::{regression_snippet, System, Violation};
use nt_network::SEC;
use nt_simnet::{FaultEvent, Schedule};
use std::sync::Mutex;

struct Failure {
    seed: u64,
    system: System,
    schedule: Schedule,
    violations: Vec<Violation>,
}

/// Runs seeds `[start, start + count)` round-robin over the six systems,
/// in parallel, collecting failures and corpus statistics.
fn run_corpus(start: u64, count: u64) -> (Vec<Failure>, String) {
    let failures: Mutex<Vec<Failure>> = Mutex::new(Vec::new());
    let totals: Mutex<(usize, usize, usize, usize, usize, f64)> = Mutex::new((0, 0, 0, 0, 0, 0.0));
    let next = std::sync::atomic::AtomicU64::new(start);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let seed = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if seed >= start + count {
                    return;
                }
                let system = fuzz::SYSTEMS[(seed % fuzz::SYSTEMS.len() as u64) as usize];
                let (schedule, outcome) = run_case(system, seed);
                {
                    let mut t = totals.lock().unwrap();
                    t.0 += schedule.events.len();
                    for event in &schedule.events {
                        match event {
                            FaultEvent::Outage { tear, .. } => {
                                t.1 += 1;
                                t.2 += (*tear > 0) as usize;
                            }
                            FaultEvent::Split { .. } => t.3 += 1,
                            FaultEvent::Spike { .. } | FaultEvent::WorkerSpike { .. } => t.4 += 1,
                        }
                    }
                    t.5 += outcome.stats.throughput_tps;
                }
                if !outcome.violations.is_empty() {
                    failures.lock().unwrap().push(Failure {
                        seed,
                        system,
                        schedule,
                        violations: outcome.violations,
                    });
                }
            });
        }
    });
    let (events, outages, tears, splits, spikes, tps_sum) = totals.into_inner().unwrap();
    let summary = format!(
        "{count} schedules, {events} events ({outages} outages incl. {tears} torn tails, \
         {splits} splits, {spikes} spikes), mean throughput {:.0} tx/s",
        tps_sum / count as f64
    );
    let mut failures = failures.into_inner().unwrap();
    failures.sort_by_key(|f| f.seed);
    (failures, summary)
}

/// Runs the Byzantine corpus: seeds `[start, start + count)` round-robin
/// over the six systems, each with its seed's adversary coalition over
/// the seed-weighted committee. Any violation here is an honest-validator
/// safety or liveness breach under `f` Byzantine actors — a real bug.
fn run_byz_corpus(start: u64, count: u64) -> Vec<Failure> {
    let failures: Mutex<Vec<Failure>> = Mutex::new(Vec::new());
    let next = std::sync::atomic::AtomicU64::new(start);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let seed = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if seed >= start + count {
                    return;
                }
                let system = fuzz::SYSTEMS[(seed % fuzz::SYSTEMS.len() as u64) as usize];
                let (schedule, byz, outcome) = run_byz_case(system, seed);
                if !outcome.violations.is_empty() {
                    println!();
                    println!(
                        "BYZANTINE VIOLATION at seed {seed} ({}) with {:?}:",
                        system.name(),
                        byz
                    );
                    println!("schedule: {}", schedule.summary());
                    for violation in &outcome.violations {
                        println!("  {violation}");
                    }
                    failures.lock().unwrap().push(Failure {
                        seed,
                        system,
                        schedule,
                        violations: outcome.violations,
                    });
                }
            });
        }
    });
    let mut failures = failures.into_inner().unwrap();
    failures.sort_by_key(|f| f.seed);
    failures
}

fn report_failure(failure: &Failure) {
    println!();
    println!(
        "VIOLATION at seed {} ({}) — reproduce with:",
        failure.seed,
        failure.system.name()
    );
    println!(
        "  cargo bench -p nt_bench --bench sim_fuzz -- --seed {} --system {}",
        failure.seed,
        failure.system.name()
    );
    println!("schedule: {}", failure.schedule.summary());
    for violation in &failure.violations {
        println!("  {violation}");
    }
    println!("shrinking to a minimal reproducer...");
    let params = fuzz_params(failure.seed);
    let minimal = shrink_case(failure.system, &params, &failure.schedule);
    println!(
        "minimized to {} — paste into tests/sim_fuzz_regressions.rs:",
        minimal.summary()
    );
    println!();
    println!(
        "{}",
        regression_snippet(failure.system, failure.seed, &minimal)
    );
}

fn replay(seed: u64, system: Option<System>) {
    let params = fuzz_params(seed);
    let schedule = Schedule::generate(seed, &fuzz::fuzz_plan(&params));
    println!("seed {seed}: {}", schedule.summary());
    println!("{}", schedule.to_rust());
    let systems: Vec<System> = match system {
        Some(s) => vec![s],
        None => fuzz::SYSTEMS.to_vec(),
    };
    let mut any = false;
    for system in systems {
        let outcome = run_schedule(system, &params, &schedule);
        println!(
            "{:>13}: {} commit events, {:.0} tx/s, {} violations",
            system.name(),
            outcome.commit_events,
            outcome.stats.throughput_tps,
            outcome.violations.len()
        );
        for violation in &outcome.violations {
            println!("    {violation}");
            any = true;
        }
        if !outcome.violations.is_empty() {
            report_failure(&Failure {
                seed,
                system,
                schedule: schedule.clone(),
                violations: outcome.violations,
            });
        }
    }
    assert!(!any, "seed {seed} violated an invariant");
}

/// Runs the checker arms and asserts the checkers catch every one — the
/// proof the suite is alive.
fn self_test() {
    println!();
    println!("Self-test: over-f coalitions and a run without snapshots must trip the checkers");
    let arms = fuzz::self_test();
    let mut distinct: Vec<&'static str> = Vec::new();
    for arm in &arms {
        let fired: Vec<&str> = arm.fired.iter().map(|c| c.name()).collect();
        let adversaries = if arm.byzantine.is_empty() {
            String::new()
        } else {
            format!(
                " [{}]",
                arm.byzantine
                    .iter()
                    .map(|(v, k)| format!("{}@{}", k.name(), v.0))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        println!(
            "  {:<24} vs {:<13}{adversaries} -> {}",
            arm.name,
            arm.system.name(),
            if fired.is_empty() {
                "(no checker fired)".to_string()
            } else {
                fired.join(", ")
            }
        );
        assert!(
            !arm.fired.is_empty(),
            "arm {} went completely undetected — the checkers are vacuous",
            arm.name
        );
        for checker in &arm.fired {
            if !distinct.contains(&checker.name()) {
                distinct.push(checker.name());
            }
        }
    }
    assert!(
        distinct.len() >= 3,
        "only {} distinct checkers tripped: {distinct:?}",
        distinct.len()
    );
    println!(
        "  {} distinct checkers tripped: {}",
        distinct.len(),
        distinct.join(", ")
    );

    // Shrinker gate: a noisy 6-event case that an over-f equivocating
    // coalition fails must reduce to a handful of events, and still fail. None of its
    // events is needed, so this drives the shrinker end to end without
    // showing it keeps the one event a failure needs: that part is pinned
    // by `nt_simnet::fuzz::tests::shrink_drops_irrelevant_events_and_narrows`
    // (no honest-tree failure that needs exactly one event is known).
    let (noisy, coalition) = noisy_selftest_schedule();
    let params = fuzz_params(11);
    let fails = |schedule: &Schedule| {
        !run_schedule_byz(System::Bullshark, &params, schedule, &coalition)
            .violations
            .is_empty()
    };
    assert!(
        fails(&noisy),
        "the noisy self-test case must fail pre-shrink"
    );
    let minimal = nt_simnet::shrink(&noisy, &mut |candidate| fails(candidate));
    println!();
    println!("Shrinker: {} -> {}", noisy.summary(), minimal.summary());
    println!("{}", minimal.to_rust());
    assert!(
        minimal.events.len() <= 5,
        "shrinker left {} events (> 5)",
        minimal.events.len()
    );
    assert!(fails(&minimal), "the minimized schedule still fails");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let test_mode = args.iter().any(|a| a == "--test");
    if let Some(seed) = flag_value("--seed") {
        let seed: u64 = seed.parse().expect("--seed takes a number");
        let system = flag_value("--system").map(|name| {
            *fuzz::SYSTEMS
                .iter()
                .find(|s| s.name().eq_ignore_ascii_case(&name))
                .unwrap_or_else(|| panic!("unknown DAG system {name}"))
        });
        replay(seed, system);
        return;
    }
    let count: u64 = flag_value("--schedules")
        .map(|n| n.parse().expect("--schedules takes a number"))
        .unwrap_or(if test_mode { 240 } else { 1_000 });
    let byz_cases: u64 = flag_value("--byz-cases")
        .map(|n| n.parse().expect("--byz-cases takes a number"))
        .unwrap_or(if test_mode { 24 } else { 120 });
    println!(
        "sim_fuzz: {count} random fault schedules across {} systems \
         (20 s runs, {} s quiet tail), then {byz_cases} Byzantine cases{}",
        fuzz::SYSTEMS.len(),
        QUIET_TAIL / SEC,
        if test_mode { " [test mode]" } else { "" }
    );
    let start = std::time::Instant::now();
    let (failures, summary) = run_corpus(0, count);
    println!("{summary} [{:.0}s]", start.elapsed().as_secs_f64());
    for failure in &failures {
        report_failure(failure);
    }
    let byz_start = std::time::Instant::now();
    let byz_failures = run_byz_corpus(0, byz_cases);
    println!(
        "{byz_cases} Byzantine cases (f adversaries each, kinds rotating, 4/10/16 validators) \
         [{:.0}s]",
        byz_start.elapsed().as_secs_f64()
    );
    self_test();
    assert!(
        failures.is_empty(),
        "{} schedules violated invariants (seeds {:?})",
        failures.len(),
        failures.iter().map(|f| f.seed).collect::<Vec<_>>()
    );
    assert!(
        byz_failures.is_empty(),
        "{} Byzantine cases violated honest-validator invariants (seeds {:?})",
        byz_failures.len(),
        byz_failures.iter().map(|f| f.seed).collect::<Vec<_>>()
    );
    println!();
    println!(
        "All {count} schedules and {byz_cases} Byzantine cases upheld every invariant; \
         self-test checkers live."
    );
}
