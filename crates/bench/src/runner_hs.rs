//! Runners for the HotStuff-based comparison systems (§6).

use crate::metrics::RunStats;
use crate::params::BenchParams;
use crate::runner::run_actors;
use nt_simnet::Partition;

/// Runs Narwhal-HotStuff (§3.2): primaries + workers, HotStuff messages
/// riding the Narwhal channels.
pub fn run_narwhal_hs(params: &BenchParams, partitions: Vec<Partition>) -> RunStats {
    let actors = nt_hotstuff::build_narwhal_hs_actors(
        params.nodes,
        params.workers,
        &params.narwhal_config(),
        params.seed,
    );
    run_actors(actors, params, partitions)
}

/// Runs Batched-HS (§6): one host per validator, no workers.
pub fn run_batched_hs(params: &BenchParams, partitions: Vec<Partition>) -> RunStats {
    let mut flat = params.clone();
    flat.workers = 0;
    let actors = nt_hotstuff::build_batched_hs_actors(params.nodes, params.rate_per_validator());
    run_actors(actors, &flat, partitions)
}

/// Runs Baseline-HS (§6): one host per validator, no workers.
pub fn run_baseline_hs(params: &BenchParams, partitions: Vec<Partition>) -> RunStats {
    let mut flat = params.clone();
    flat.workers = 0;
    let actors = nt_hotstuff::build_baseline_hs_actors(params.nodes, params.rate_per_validator());
    run_actors(actors, &flat, partitions)
}
