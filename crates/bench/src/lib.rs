//! Experiment harness reproducing the paper's evaluation (§7).
//!
//! Each bench target under `benches/` prints one figure or ablation:
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig6_common_case` | Figure 6 (committee-size sweep, all systems) |
//! | `fig7_scale_out` | Figure 7 (worker scale-out + SLO plot) |
//! | `ablation_bullshark` | Bullshark vs Tusk vs DAG-Rider decision-depth ablation |
//! | `ablation_recovery` | crash-restart recovery and catch-up |
//! | `sim_fuzz` | §5 safety/liveness under randomized fault schedules |
//! | `perf_baseline` | machine-readable `BENCH_<n>.json` perf baseline |
//!
//! The claims the paper makes with numbers are tests, not printouts:
//! `tests/paper_claims.rs` holds Lemmas 3-5 and Figure 7's 1- and
//! 4-worker rows, the workspace's `tests/hotstuff_systems.rs` Figure 8's
//! fault hierarchy, and `narwhal`'s DAG tests §3.3's bounded memory.
//!
//! Beside them, the schedule fuzzer ([`fuzz`], with its [`checker`]s and
//! the Byzantine [`adversary`] wrappers) and one binary, `mutants`, which
//! applies each source mutant of `mutants.txt` to a copy of the tree and
//! requires the tests it names to fail.
//!
//! The harness runs every system on the discrete-event simulator with the
//! paper's WAN topology and reports throughput (committed tx/s in the
//! steady-state window) and latency (client submission to commit at the
//! proposing validator), exactly the two metrics of §7.

pub mod adversary;
pub mod baseline;
pub mod checker;
pub mod fuzz;
pub mod metrics;
pub mod params;
pub mod runner;
pub mod table;

pub use adversary::{AdversaryKind, Byzantine, ADVERSARY_TAG_BASE};
pub use checker::{agreement, check_all, CheckInput, Checker, Violation};
pub use fuzz::{fuzz_params, regression_snippet, run_case, run_schedule, shrink_case};
pub use metrics::RunStats;
pub use params::BenchParams;
pub use runner::{
    dag_factories, dag_rule, run_factories, run_system, validator_hosts, DagRule, System,
};
pub use table::print_series;
