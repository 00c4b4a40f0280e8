//! Emits the machine-readable perf baseline (`BENCH_<n>.json`).
//!
//! Usage (`cargo bench -p nt_bench --bench perf_baseline -- [flags]`):
//!
//! - (no flags): the full matrix (6 DAG systems × committees of 4/10/20,
//!   30 s runs), written to `BENCH_21.json` at the repository root.
//! - `--test`: a quick one-committee matrix written to a scratch path and
//!   sanity-checked — the CI smoke profile.
//! - `--out PATH`: override the output path.
//!
//! Everything recorded is a simulated quantity, so the file is a
//! deterministic function of the code: later PRs regenerate it and diff.
//! The run also prints a per-point delta table against the *newest*
//! baseline file present at the repository root — not blindly
//! `BENCH_<ISSUE-1>.json`, since not every PR records one (issues 6 and 9
//! didn't), and a silently skipped table looks like "no regressions".

use nt_bench::baseline::{render_json, run_baseline, BaselineEntry};

const ISSUE: u64 = 21;

/// Pulls a numeric field out of one hand-rolled baseline entry line.
fn field(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": "))? + name.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The newest committed baseline below this issue: scans the repository
/// root for `BENCH_<n>.json` with `n < ISSUE` and returns the
/// highest-numbered path. Issues without a recorded baseline (6, 9) make
/// `BENCH_<ISSUE-1>.json` the wrong guess.
fn newest_baseline(root: &str) -> Option<String> {
    (0..ISSUE)
        .rev()
        .map(|n| format!("{root}/BENCH_{n}.json"))
        .find(|path| std::path::Path::new(path).exists())
}

/// Prints throughput/latency deltas vs the given baseline file, matching
/// points by (system, nodes). Unmatched points (e.g. systems newer than
/// the baseline) are skipped — the delta table is informational, the
/// acceptance comparison happens in CI over the committed JSON.
fn print_deltas(entries: &[BaselineEntry], prev_path: &str) {
    let Ok(prev) = std::fs::read_to_string(prev_path) else {
        println!("delta table skipped: {prev_path} unreadable");
        return;
    };
    println!("delta vs {prev_path}:");
    for entry in entries {
        let name = entry.system.name();
        let Some(line) = prev.lines().find(|l| {
            l.contains(&format!("\"system\": \"{name}\""))
                && l.contains(&format!("\"nodes\": {},", entry.nodes))
        }) else {
            continue;
        };
        let (Some(tput), Some(p50), Some(p99)) = (
            field(line, "throughput_tps"),
            field(line, "p50_latency_s"),
            field(line, "p99_latency_s"),
        ) else {
            continue;
        };
        let pct = |new: f64, old: f64| 100.0 * (new - old) / old;
        println!(
            "  {:>13} n={:<3} tput {:+6.1}%  p50 {:+6.1}%  p99 {:+6.1}%",
            name,
            entry.nodes,
            pct(entry.stats.throughput_tps, tput),
            pct(entry.stats.p50_latency_s, p50),
            pct(entry.stats.p99_latency_s, p99),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--test");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
            if quick {
                format!("{root}/target/BENCH_{ISSUE}_quick.json")
            } else {
                format!("{root}/BENCH_{ISSUE}.json")
            }
        });
    println!(
        "perf_baseline: {} matrix -> {out_path}",
        if quick { "quick" } else { "full" }
    );
    let start = std::time::Instant::now();
    let entries = run_baseline(quick);
    let json = render_json(ISSUE, quick, &entries);
    for entry in &entries {
        println!(
            "  {:>13} n={:<3} {:>8.0} tx/s  p50 {:>5.2}s  p99 {:>5.2}s  decision {:>4.2} rounds",
            entry.system.name(),
            entry.nodes,
            entry.stats.throughput_tps,
            entry.stats.p50_latency_s,
            entry.stats.p99_latency_s,
            entry.stats.decision_rounds,
        );
        // Every matrix point must have committed real load: a baseline of
        // zeros would let any later "speedup" pass vacuously.
        assert!(
            entry.stats.throughput_tps > 500.0,
            "{} n={} committed almost nothing",
            entry.system.name(),
            entry.nodes
        );
        assert!(entry.stats.p99_latency_s > 0.0 && entry.stats.p99_latency_s < 30.0);
    }
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    match newest_baseline(root) {
        Some(prev) => print_deltas(&entries, &prev),
        None => println!("delta table skipped: no BENCH_<n>.json at {root}"),
    }
    std::fs::write(&out_path, &json).expect("write baseline json");
    println!(
        "wrote {} entries in {:.0}s",
        entries.len(),
        start.elapsed().as_secs_f64()
    );
}
