//! Experiment harness reproducing the paper's evaluation (§7).
//!
//! Each bench target under `benches/` regenerates one table or figure:
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig1_summary` | Figure 1 (headline WAN scatter) |
//! | `fig6_common_case` | Figure 6 (committee-size sweep, all systems) |
//! | `fig7_scale_out` | Figure 7 (worker scale-out + SLO plot) |
//! | `fig8_faults` | Figure 8 (crash faults) |
//! | `table1_matrix` | Table 1 (latency/robustness matrix) |
//! | `ablation_dag_rider` | §5/§8.2 wave-size ablation |
//! | `ablation_bullshark` | Bullshark vs Tusk commit-latency ablation |
//! | `ablation_gc_memory` | §3.3 memory-bound ablation |
//! | `ablation_commit_lemmas` | Lemmas 3-5 statistics |
//! | `sim_fuzz` | §5 safety/liveness under randomized fault schedules |
//! | `perf_baseline` | machine-readable `BENCH_<n>.json` perf baseline |
//!
//! The harness runs every system on the discrete-event simulator with the
//! paper's WAN topology and reports throughput (committed tx/s in the
//! steady-state window) and latency (client submission to commit at the
//! proposing validator), exactly the two metrics of §7.

pub mod baseline;
pub mod checker;
pub mod fuzz;
pub mod metrics;
pub mod params;
pub mod runner;
pub mod runner_hs;
pub mod table;

pub use checker::{check_all, CheckInput, Checker, Violation};
pub use fuzz::{fuzz_params, regression_snippet, run_case, run_schedule, shrink_case};
pub use metrics::{committed_sequences, sequences_prefix_consistent, RunStats};
pub use params::BenchParams;
pub use runner::{
    build_dag_actor_factories, build_dag_actor_factories_with_app,
    build_dag_actor_factories_with_config, build_dag_actors, dag_rule, run_actors_result,
    run_factories_result, run_system, validator_hosts, DagRule, System,
};
pub use table::print_series;
