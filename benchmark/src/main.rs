//! The repo's wall-clock benchmark. See `README.md` beside this crate.
//!
//! ```text
//! nt-benchmark run --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! nt-benchmark trace  [--workload <name>] [--seed <u64>] [--trace-out <file>]
//! nt-benchmark layers [--reps <n>]
//! nt-benchmark all    [--seed <u64>] [--quick] [--out <file>]
//! ```
//!
//! `run` is the command `BENCHMARK.json` names: its last stdout line is one
//! JSON object. Tables for people go to stderr.

mod compat;
mod layers;
mod observer;
mod procfs;
mod report;
mod socket;
mod stats;
mod trace;
mod watchdog;
mod workload;

use report::{json_string, RunResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;
use watchdog::{Limits, Outcome, TempDir};
use workload::{Workload, WORKLOADS};

/// Send window when `--seconds` is not given; `BENCHMARK.json` passes it.
const DEFAULT_SECONDS: f64 = 20.0;
/// Repetitions per unit cost in `layers`.
const DEFAULT_REPS: usize = 15;
/// The `--quick` profile: 5 s windows and 3 repetitions, all checks on.
const QUICK_SECONDS: f64 = 5.0;
const QUICK_REPS: usize = 3;

const USAGE: &str = "usage:
  nt-benchmark run --workload <steady|bulk|ledger|crash_f1|bullshark> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
  nt-benchmark trace [--workload NAME] [--seed N] [--trace-out FILE]
  nt-benchmark layers [--reps N]
  nt-benchmark all [--seed N] [--quick] [--out FILE]";

struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value '{text}' for {name}")),
        }
    }

    fn workload(&self) -> Result<Option<&'static Workload>, String> {
        match self.value("--workload") {
            None => Ok(None),
            Some(name) => workload::by_name(name)
                .map(Some)
                .ok_or_else(|| format!("unknown workload '{name}'")),
        }
    }

    fn window(&self, default: f64) -> Result<Duration, String> {
        let seconds: f64 = self.parsed("--seconds", default)?;
        if !(0.5..=600.0).contains(&seconds) {
            return Err(format!("--seconds {seconds} is outside 0.5..=600"));
        }
        Ok(Duration::from_secs_f64(seconds))
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    let flags = Flags(args);
    let outcome = match command.as_str() {
        "run" => cmd_run(&flags),
        "child" => cmd_child(&flags),
        "trace" => cmd_trace(&flags),
        "layers" => cmd_layers(&flags),
        "all" => cmd_all(&flags),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("nt-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn scratch(label: &str) -> Result<TempDir, String> {
    let base = watchdog::scratch_base().map_err(|e| format!("scratch directory: {e}"))?;
    TempDir::create(&base, label).map_err(|e| format!("scratch directory: {e}"))
}

/// One end-to-end run in a supervised child process. A child that is
/// killed or dies is recorded with every attempt failed.
fn supervised_run(workload: &Workload, seed: u64, window: Duration) -> Result<RunResult, String> {
    let tmp = scratch(workload.name)?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = Command::new(exe);
    child
        .arg("child")
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &window.as_secs_f64().to_string()])
        .arg("--tmp")
        .arg(tmp.path());
    let planned = (workload.rate_tps * window.as_secs_f64()) as u64;
    let outcome = watchdog::supervise(child, Limits::for_window(window))
        .map_err(|e| format!("starting the child: {e}"))?;
    let written = std::fs::read_to_string(tmp.path().join(RESULT_FILE)).unwrap_or_default();
    Ok(result_of(outcome, &written, planned))
}

/// The file in its scratch directory through which a child hands its
/// result to the supervisor.
const RESULT_FILE: &str = "result";

/// What the supervisor records for a child's `outcome` and the result file
/// it `written`; `planned` is how many transactions the run was going to
/// attempt.
fn result_of(outcome: Outcome, written: &str, planned: u64) -> RunResult {
    match outcome {
        Outcome::Killed(why) => RunResult::all_failed(planned, format!("child {why}")),
        Outcome::Exited { success } => match RunResult::from_lines(written) {
            Some(result) if success => result,
            _ => RunResult::all_failed(planned, "child died without a result".into()),
        },
    }
}

/// The internal half of `supervised_run`.
fn cmd_child(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload()?.ok_or("child needs --workload")?;
    let tmp = PathBuf::from(flags.value("--tmp").ok_or("child needs --tmp")?);
    let result = socket::run(
        workload,
        flags.parsed("--seed", 1)?,
        flags.window(DEFAULT_SECONDS)?,
        &tmp,
    );
    std::fs::write(tmp.join(RESULT_FILE), result.to_lines())
        .map_err(|e| format!("writing the result: {e}"))?;
    Ok(true)
}

/// The traced replay of `workload` plus every unit cost: what `--trace 1`
/// reports.
fn per_layer(
    workload: &Workload,
    seed: u64,
    trace_out: Option<&Path>,
) -> Result<RunResult, String> {
    let tmp = scratch("trace")?;
    let mut result = trace::run(workload, seed, tmp.path(), trace_out);
    let units = layers::run(DEFAULT_REPS, tmp.path());
    result.gated.extend(units.gated);
    result.errors.extend(units.errors);
    Ok(result)
}

fn cmd_run(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload()?.ok_or("run needs --workload")?;
    let seed: u64 = flags.parsed("--seed", 1)?;
    let result = match flags.parsed("--trace", 0u8)? {
        0 => supervised_run(workload, seed, flags.window(DEFAULT_SECONDS)?)?,
        1 => per_layer(workload, seed, flags.value("--trace-out").map(Path::new))?,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    result.print_table(&format!("{} (seed {seed})", workload.name));
    println!("{}", result.to_driver_json());
    Ok(result.correct())
}

/// Traces each of `workloads`, printing its table; returns whether all
/// were correct and one `"name": {result}` JSON member per workload.
/// `span_file` names the file a workload's spans go to, if any.
fn trace_each<'a>(
    workloads: impl Iterator<Item = &'a Workload>,
    seed: u64,
    span_file: impl Fn(&Workload) -> Option<PathBuf>,
) -> Result<(bool, Vec<String>), String> {
    let tmp = scratch("trace")?;
    let mut all_correct = true;
    let mut members = Vec::new();
    for workload in workloads {
        let dir = tmp.path().join(workload.name);
        let result = trace::run(workload, seed, &dir, span_file(workload).as_deref());
        result.print_table(&format!("trace {} (seed {seed})", workload.name));
        all_correct &= result.correct();
        let name = json_string(workload.name);
        members.push(format!("{name}: {}", result.to_full_json()));
    }
    Ok((all_correct, members))
}

fn cmd_trace(flags: &Flags) -> Result<bool, String> {
    let chosen = flags.workload()?;
    let workloads = WORKLOADS
        .iter()
        .filter(|w| chosen.is_none_or(|c| c.name == w.name));
    // One span file per workload when several are traced.
    let span_file = |workload: &Workload| {
        let path = flags.value("--trace-out")?;
        Some(PathBuf::from(match chosen {
            Some(_) => path.to_string(),
            None => format!("{path}.{}", workload.name),
        }))
    };
    let (all_correct, members) = trace_each(workloads, flags.parsed("--seed", 1)?, span_file)?;
    println!("{{{}}}", members.join(", "));
    Ok(all_correct)
}

fn cmd_layers(flags: &Flags) -> Result<bool, String> {
    let tmp = scratch("layers")?;
    let result = layers::run(flags.parsed("--reps", DEFAULT_REPS)?, tmp.path());
    result.print_table("layers");
    println!("{}", result.to_full_json());
    Ok(result.correct())
}

fn machine_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mem_kb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .next()?
                .split_whitespace()
                .nth(1)?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0);
    format!("{{\"cores\": {cores}, \"memory_mb\": {}}}", mem_kb / 1024)
}

fn cmd_all(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.parsed("--seed", 1)?;
    let quick = flags.has("--quick");
    let window = flags.window(if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    })?;
    let reps = if quick { QUICK_REPS } else { DEFAULT_REPS };
    let mut all_correct = true;
    let mut runs = Vec::new();
    for workload in &WORKLOADS {
        let result = supervised_run(workload, seed, window)?;
        result.print_table(&format!(
            "run {} (seed {seed}, {window:?} window)",
            workload.name
        ));
        all_correct &= result.correct();
        runs.push(format!(
            "{}: {{\"why\": {}, \"gated\": {}, \"result\": {}}}",
            json_string(workload.name),
            json_string(workload.why),
            workload.gated,
            result.to_full_json()
        ));
    }
    let (traces_correct, traces) = trace_each(WORKLOADS.iter(), seed, |_| None)?;
    let tmp = scratch("layers")?;
    let units = layers::run(reps, tmp.path());
    units.print_table("layers");
    all_correct &= traces_correct && units.correct();
    let document = format!(
        "{{\"seed\": {seed}, \"window_s\": {}, \"machine\": {}, \"network\": {}, \"correct\": {all_correct},\n \"run\": {{{}}},\n \"trace\": {{{}}},\n \"layers\": {}}}",
        window.as_secs_f64(),
        machine_json(),
        json_string("loopback TCP, no injected delay: latency is timers + CPU + scheduling, not a WAN"),
        runs.join(",\n  "),
        traces.join(",\n  "),
        units.to_full_json()
    );
    match flags.value("--out") {
        Some(path) => {
            std::fs::write(path, &document).map_err(|e| format!("writing {path}: {e}"))?
        }
        None => println!("{document}"),
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_killed_child_counts_every_attempt_as_failed() {
        // A deliberately hung child, under a cap short enough for a test.
        let mut hung = Command::new("sh");
        hung.arg("-c").arg("exec sleep 600");
        let limits = Limits {
            wall: Duration::from_millis(200),
            rss_mb: 4_096.0,
        };
        let outcome = watchdog::supervise(hung, limits).expect("spawns");
        let result = result_of(outcome, "", 160_000);
        assert_eq!(result.attempted, 160_000);
        assert_eq!(result.failed, result.attempted, "failed_share = 1");
        assert!(!result.correct());
        assert!(
            result.errors[0].contains("wall-clock"),
            "{:?}",
            result.errors
        );
        assert!(result.to_driver_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_child_that_dies_midway_is_not_mistaken_for_a_result() {
        let crashed = Outcome::Exited { success: false };
        assert_eq!(result_of(crashed, "R 10 0\n", 10).failed, 10);
        let silent = Outcome::Exited { success: true };
        assert_eq!(result_of(silent, "", 10).failed, 10);
        let healthy = Outcome::Exited { success: true };
        assert_eq!(result_of(healthy, "R 10 0\n", 10).failed, 0);
    }
}
