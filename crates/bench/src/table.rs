//! Plain-text table output for bench targets.
//!
//! The harness prints the same series the paper plots.

use crate::metrics::RunStats;

/// Prints a labelled series of `(x, stats)` rows with a header.
///
/// `rounds` is the anchor-to-block round gap; `d-rnds` the depth of the
/// DAG head when the commit was decided (where Tusk's extra coin round
/// shows up); `direct`/`indir` the mean per-validator anchor commit mix.
pub fn print_series(title: &str, x_label: &str, rows: &[(String, RunStats)]) {
    println!();
    println!("== {title}");
    println!(
        "{:<24} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
        x_label,
        "tput(tx/s)",
        "MB/s",
        "avg(s)",
        "p50(s)",
        "p99(s)",
        "rounds",
        "d-rnds",
        "direct",
        "indir"
    );
    for (x, s) in rows {
        println!(
            "{:<24} {:>12.0} {:>10.1} {:>10.2} {:>10.2} {:>10.2} {:>8} {:>8} {:>8.1} {:>8.1}",
            x,
            s.throughput_tps,
            s.throughput_mbs,
            s.avg_latency_s,
            s.p50_latency_s,
            s.p99_latency_s,
            rounds_cell(s.commit_rounds),
            rounds_cell(s.decision_rounds),
            s.direct_commits,
            s.indirect_commits
        );
    }
}

/// Formats a rounds metric, rendering `-` when a protocol does not report
/// it (e.g. the HotStuff systems never stamp `decided_round`).
fn rounds_cell(value: f64) -> String {
    if value.is_nan() {
        "-".to_string()
    } else {
        format!("{value:.1}")
    }
}

/// Formats a stats row compactly for inline reporting.
pub fn row(s: &RunStats) -> String {
    format!(
        "{:.0} tx/s, avg {:.2}s, p50 {:.2}s",
        s.throughput_tps, s.avg_latency_s, s.p50_latency_s
    )
}
