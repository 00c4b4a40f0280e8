//! Builds and runs one system configuration on the WAN simulator.

use crate::metrics::RunStats;
use crate::params::BenchParams;
use bullshark::{Bullshark, FinWhale, PipelinedBullshark, Reputation, RoundRobin};
use narwhal::{AddressBook, DagConsensus, NoExt};
use nt_crypto::Scheme;
use nt_network::{Actor, NodeId, Time};
use nt_simnet::{
    ActorFactory, HostSpec, Partition, Region, SimConfig, SimMessage, Simulation, Topology,
};
use nt_storage::DynStore;
use nt_types::{Committee, ValidatorId, WorkerId};
use tusk::{DagRider, Tusk};

/// The systems of the paper's evaluation (§6, §7), plus the follow-up
/// protocols layered over the same mempool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum System {
    /// Narwhal mempool + Tusk asynchronous consensus (§5).
    Tusk,
    /// Narwhal mempool + DAG-Rider (4-round waves; §8.2 ablation).
    DagRider,
    /// Narwhal mempool + partially-synchronous Bullshark (2-round waves,
    /// round-robin leaders).
    Bullshark,
    /// Bullshark with the Shoal-style leader-reputation schedule.
    BullsharkRep,
    /// Shoal-style pipelined Bullshark: an anchor candidate every round,
    /// reputation re-anchoring past dead candidates.
    BullsharkPipelined,
    /// FinWhale: two-round terminating commit (vote-counted verdicts,
    /// round-robin leaders).
    FinWhale,
    /// Narwhal mempool + HotStuff ordering certificates (§3.2).
    NarwhalHs,
    /// Prism-style batched mempool + HotStuff (§6 "Batched-HS").
    BatchedHs,
    /// Transaction-gossip mempool + HotStuff (§6 "Baseline-HS").
    BaselineHs,
}

impl System {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            System::Tusk => "Tusk",
            System::DagRider => "DAG-Rider",
            System::Bullshark => "Bullshark",
            System::BullsharkRep => "Bullshark-Rep",
            System::BullsharkPipelined => "Bullshark-Pipelined",
            System::FinWhale => "FinWhale",
            System::NarwhalHs => "Narwhal-HS",
            System::BatchedHs => "Batched-HS",
            System::BaselineHs => "Baseline-HS",
        }
    }
}

/// Builds the WAN topology for a Narwhal-style deployment: primaries spread
/// round-robin over the paper's five regions, workers in their primary's
/// data centre (§7: "the workers are in the same data center as their
/// primary").
pub fn narwhal_topology(params: &BenchParams) -> Topology {
    let addr = AddressBook::new(params.nodes, params.workers);
    let mut hosts = Vec::with_capacity(addr.total_hosts());
    for v in 0..params.nodes {
        hosts.push(HostSpec::new(v as u32, Region::for_index(v)));
    }
    for v in 0..params.nodes {
        for _ in 0..params.workers {
            hosts.push(HostSpec::new(v as u32, Region::for_index(v)));
        }
    }
    Topology::new(hosts)
}

/// Node ids crashed by a fault schedule: the *last* `faults` validators'
/// hosts (keeping validator 0 alive preserves a live HotStuff leader at
/// view 0 while still exercising crashed leaders as views rotate).
pub fn crash_schedule(params: &BenchParams) -> Vec<(NodeId, Time)> {
    let addr = AddressBook::new(params.nodes, params.workers);
    let mut crashes = Vec::new();
    for v in (params.nodes - params.faults..params.nodes).map(|v| v as u32) {
        crashes.push((addr.primary(nt_types::ValidatorId(v)), 0));
        for w in 0..params.workers {
            crashes.push((
                addr.worker(nt_types::ValidatorId(v), nt_types::WorkerId(w)),
                0,
            ));
        }
    }
    crashes
}

/// A partition splitting the first `nodes / 2` validators (with their
/// workers) from the rest during `[from, until)` — both sides below
/// quorum. Host ids follow the [`AddressBook`] layout, same as
/// [`narwhal_topology`] and [`crash_schedule`].
pub fn split_partition(nodes: usize, workers: u32, from: Time, until: Time) -> Partition {
    let addr = AddressBook::new(nodes, workers);
    let hosts = |v: usize| -> Vec<NodeId> {
        let validator = nt_types::ValidatorId(v as u32);
        let mut ids = vec![addr.primary(validator)];
        for w in 0..workers {
            ids.push(addr.worker(validator, nt_types::WorkerId(w)));
        }
        ids
    };
    Partition {
        group_a: (0..nodes / 2).flat_map(hosts).collect(),
        group_b: (nodes / 2..nodes).flat_map(hosts).collect(),
        from,
        until,
    }
}

/// Runs `system` under `params` and returns aggregate statistics.
///
/// `partitions` optionally scripts periods of asynchrony (Table 1).
pub fn run_system(system: System, params: &BenchParams, partitions: Vec<Partition>) -> RunStats {
    match system {
        System::Tusk
        | System::DagRider
        | System::Bullshark
        | System::BullsharkRep
        | System::BullsharkPipelined
        | System::FinWhale => run_dag_system(system, params, partitions),
        // The HotStuff arms are wired in `runner_hs` (see below).
        System::NarwhalHs => crate::runner_hs::run_narwhal_hs(params, partitions),
        System::BatchedHs => crate::runner_hs::run_batched_hs(params, partitions),
        System::BaselineHs => crate::runner_hs::run_baseline_hs(params, partitions),
    }
}

/// A boxed zero-message commit rule.
pub type DagRule = Box<dyn DagConsensus<Ext = NoExt>>;

/// The commit rule of a DAG-over-Narwhal system — the one place this crate
/// names the rule constructors. `seed` is the coin domain (it must be the
/// same for all validators of one deployment; vary it across experiment
/// seeds); the leader schedules are what each system is deployed with.
///
/// Panics for the HotStuff systems, which are not interpretations of the DAG.
pub fn dag_rule(system: System, committee: &Committee, seed: u64) -> DagRule {
    let c = committee.clone();
    match system {
        System::Tusk => Box::new(Tusk::new(c, seed)),
        System::DagRider => Box::new(DagRider::new(c, seed)),
        System::Bullshark => Box::new(Bullshark::new(c, RoundRobin::new(committee))),
        System::BullsharkRep => Box::new(Bullshark::new(c, Reputation::new(committee))),
        System::BullsharkPipelined => {
            Box::new(PipelinedBullshark::new(c, Reputation::new(committee)))
        }
        System::FinWhale => Box::new(FinWhale::new(c, RoundRobin::new(committee))),
        _ => panic!("{} is not a DAG-over-Narwhal system", system.name()),
    }
}

/// Builds the actor set of a DAG-over-Narwhal system (all of them share the
/// `NarwhalMsg<NoExt>` wire type), without persistence.
pub fn build_dag_actors(
    system: System,
    params: &BenchParams,
) -> Vec<Box<dyn Actor<Message = tusk::TuskMsg>>> {
    let (committee, kps) = Committee::deterministic(params.nodes, params.workers, Scheme::Insecure);
    let seed = params.seed;
    let rule = move |c: &Committee| dag_rule(system, c, seed);
    narwhal::committee_actors(
        &committee,
        &kps,
        &params.narwhal_config(),
        params.workers,
        rule,
    )
}

fn run_dag_system(system: System, params: &BenchParams, partitions: Vec<Partition>) -> RunStats {
    run_actors(build_dag_actors(system, params), params, partitions)
}

/// Host ids of validator `v` in the [`AddressBook`] layout: its primary
/// followed by its workers. Crash/restart schedules are built from these.
pub fn validator_hosts(nodes: usize, workers: u32, v: ValidatorId) -> Vec<NodeId> {
    let addr = AddressBook::new(nodes, workers);
    let mut ids = vec![addr.primary(v)];
    for w in 0..workers {
        ids.push(addr.worker(v, WorkerId(w)));
    }
    ids
}

/// Builds per-host *actor factories* for a DAG-over-Narwhal system, wiring
/// one durable store per validator through its primary and workers (the
/// paper's per-validator RocksDB instance, §6).
///
/// The factories are what the crash–restart scenarios need: the simulator
/// rebuilds a restarted host's actor from its factory, and because the
/// store handle survives in the closure while every other piece of state is
/// rebuilt, the new incarnation recovers exactly what was persisted —
/// nothing more.
///
/// Panics for the HotStuff systems, whose actors speak different messages.
pub fn build_dag_actor_factories(
    system: System,
    params: &BenchParams,
    stores: &[DynStore],
) -> Vec<ActorFactory<tusk::TuskMsg>> {
    build_dag_actor_factories_with_config(system, params, &params.narwhal_config(), stores)
}

/// Like [`build_dag_actor_factories`], but with an explicit
/// [`narwhal::NarwhalConfig`] instead of the one derived from `params` —
/// the schedule fuzzer uses this to flip deliberate-bug switches and tune
/// the GC window per run.
pub fn build_dag_actor_factories_with_config(
    system: System,
    params: &BenchParams,
    config: &narwhal::NarwhalConfig,
    stores: &[DynStore],
) -> Vec<ActorFactory<tusk::TuskMsg>> {
    build_dag_actor_factories_with_app(system, params, config, stores, false)
}

/// Like [`build_dag_actor_factories_with_config`], but optionally attaching
/// a fresh [`nt_execution::LedgerApp`] to every primary (`ledger = true`):
/// commits then carry real `app_root`s and the validators produce durable,
/// signable app snapshots. Each factory invocation builds a *fresh* engine,
/// so a restarted primary replays (or snapshot-restores) its way back to
/// the committee's state — exactly the purity property
/// `tests/app_root_purity.rs` checks.
pub fn build_dag_actor_factories_with_app(
    system: System,
    params: &BenchParams,
    config: &narwhal::NarwhalConfig,
    stores: &[DynStore],
    ledger: bool,
) -> Vec<ActorFactory<tusk::TuskMsg>> {
    assert_eq!(stores.len(), params.nodes, "one store per validator");
    let (committee, kps) = Committee::deterministic(params.nodes, params.workers, Scheme::Insecure);
    let (stores, seed) = (stores.to_vec(), params.seed);
    narwhal::committee_factories(
        &committee,
        &kps,
        config,
        params.workers,
        move |c: &Committee| dag_rule(system, c, seed),
        move |v, builder| {
            let builder = builder.store(stores[v as usize].clone());
            if ledger {
                builder.execution(Box::new(nt_execution::LedgerApp::new()))
            } else {
                builder
            }
        },
    )
}

/// Like [`build_dag_actor_factories_with_config`], but wrapping the listed
/// validators' primaries in [`narwhal::Byzantine`] adversary actors. The
/// wrapper composes with crash–restart schedules the same way the honest
/// factories do: a restarted adversary is rebuilt around a fresh inner
/// primary (same durable store) and resumes misbehaving.
///
/// Workers are left honest — every adversary in this corpus attacks the
/// primary protocol (headers, votes, certificates); the worker layer's
/// quorum acknowledgments are orthogonal.
pub fn build_dag_actor_factories_byz(
    system: System,
    params: &BenchParams,
    config: &narwhal::NarwhalConfig,
    stores: &[DynStore],
    byzantine: &[(ValidatorId, narwhal::AdversaryKind)],
) -> Vec<ActorFactory<tusk::TuskMsg>> {
    let factories = build_dag_actor_factories_with_config(system, params, config, stores);
    let (committee, kps) = Committee::deterministic(params.nodes, params.workers, Scheme::Insecure);
    let addr = AddressBook::new(params.nodes, params.workers);
    let assignment: std::collections::BTreeMap<u32, narwhal::AdversaryKind> =
        byzantine.iter().map(|(v, k)| (v.0, *k)).collect();
    factories
        .into_iter()
        .enumerate()
        .map(|(i, mut inner)| -> ActorFactory<tusk::TuskMsg> {
            // Primaries occupy the first `nodes` factory slots, in order.
            let Some(kind) = (i < params.nodes)
                .then(|| assignment.get(&(i as u32)).copied())
                .flatten()
            else {
                return inner;
            };
            let v = ValidatorId(i as u32);
            let (committee, kp) = (committee.clone(), kps[i].clone());
            Box::new(move || {
                Box::new(narwhal::Byzantine::new(
                    inner(),
                    kind,
                    v,
                    kp.clone(),
                    committee.clone(),
                    addr,
                ))
            })
        })
        .collect()
}

/// Runs durable factory-built actors under an explicit fault schedule
/// (crashes *and* restarts) and returns the raw result.
pub fn run_factories_result(
    factories: Vec<ActorFactory<tusk::TuskMsg>>,
    params: &BenchParams,
    partitions: Vec<Partition>,
    crashes: Vec<(NodeId, Time)>,
    restarts: Vec<(NodeId, Time)>,
) -> nt_simnet::SimResult {
    let topology = narwhal_topology(params);
    let mut config = SimConfig::new(params.seed, params.duration);
    config.crashes = crashes;
    config.restarts = restarts;
    config.partitions = partitions;
    Simulation::from_factories(topology, config, factories).run()
}

/// Shared runner: topology + crash schedule + simulation + metrics.
pub fn run_actors<M: SimMessage>(
    actors: Vec<Box<dyn Actor<Message = M>>>,
    params: &BenchParams,
    partitions: Vec<Partition>,
) -> RunStats {
    let result = run_actors_result(actors, params, partitions);
    RunStats::from_result(&result, params.duration, params.nodes)
}

/// Like [`run_actors`], but returns the raw [`nt_simnet::SimResult`] so
/// callers can inspect the per-validator commit streams (e.g. the
/// partition/heal agreement checks).
pub fn run_actors_result<M: SimMessage>(
    actors: Vec<Box<dyn Actor<Message = M>>>,
    params: &BenchParams,
    partitions: Vec<Partition>,
) -> nt_simnet::SimResult {
    let topology = narwhal_topology(params);
    let mut config = SimConfig::new(params.seed, params.duration);
    config.crashes = crash_schedule(params);
    config.partitions = partitions;
    Simulation::new(topology, config, actors).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_network::SEC;

    #[test]
    fn tusk_smoke_commits_transactions() {
        let params = BenchParams {
            nodes: 4,
            workers: 1,
            rate: 2_000.0,
            duration: 20 * SEC,
            seed: 3,
            ..Default::default()
        };
        let stats = run_system(System::Tusk, &params, vec![]);
        assert!(
            stats.throughput_tps > 1_000.0,
            "committed ~input rate, got {:.0} tps",
            stats.throughput_tps
        );
        assert!(
            stats.avg_latency_s > 0.1 && stats.avg_latency_s < 10.0,
            "plausible WAN latency, got {:.2}s",
            stats.avg_latency_s
        );
    }

    #[test]
    fn bullshark_smoke_commits_with_lower_depth_than_tusk() {
        let params = BenchParams {
            nodes: 4,
            workers: 1,
            rate: 2_000.0,
            duration: 20 * SEC,
            seed: 3,
            ..Default::default()
        };
        let bull = run_system(System::Bullshark, &params, vec![]);
        let tusk = run_system(System::Tusk, &params, vec![]);
        assert!(
            bull.throughput_tps > 1_000.0,
            "committed ~input rate, got {:.0} tps",
            bull.throughput_tps
        );
        assert!(
            bull.direct_commits > 0.0,
            "direct commits surface in RunStats"
        );
        assert!(
            bull.decision_rounds < tusk.decision_rounds,
            "2-round waves decide earlier than coin waves: {:.2} vs {:.2}",
            bull.decision_rounds,
            tusk.decision_rounds
        );
    }

    #[test]
    fn bullshark_reputation_smoke_commits() {
        let params = BenchParams {
            nodes: 4,
            workers: 1,
            rate: 2_000.0,
            duration: 20 * SEC,
            seed: 5,
            ..Default::default()
        };
        let stats = run_system(System::BullsharkRep, &params, vec![]);
        assert!(
            stats.throughput_tps > 1_000.0,
            "{:.0}",
            stats.throughput_tps
        );
    }

    #[test]
    fn tusk_is_deterministic_per_seed() {
        let params = BenchParams {
            nodes: 4,
            rate: 1_000.0,
            duration: 10 * SEC,
            seed: 42,
            ..Default::default()
        };
        let a = run_system(System::Tusk, &params, vec![]);
        let b = run_system(System::Tusk, &params, vec![]);
        assert_eq!(a.total_txs, b.total_txs);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn crash_restart_recovers_and_stays_prefix_consistent() {
        use crate::metrics::{committed_sequences, sequences_prefix_consistent};
        use nt_storage::MemStore;
        use std::sync::Arc;
        let params = BenchParams {
            nodes: 4,
            workers: 1,
            rate: 2_000.0,
            duration: 25 * SEC,
            seed: 3,
            ..Default::default()
        };
        let stores: Vec<DynStore> = (0..params.nodes)
            .map(|_| Arc::new(MemStore::new()) as DynStore)
            .collect();
        let victim = ValidatorId(params.nodes as u32 - 1);
        let hosts = validator_hosts(params.nodes, params.workers, victim);
        let crashes: Vec<(NodeId, Time)> = hosts.iter().map(|h| (*h, 6 * SEC)).collect();
        let restarts: Vec<(NodeId, Time)> = hosts.iter().map(|h| (*h, 10 * SEC)).collect();
        let result = run_factories_result(
            build_dag_actor_factories(System::Tusk, &params, &stores),
            &params,
            vec![],
            crashes,
            restarts,
        );
        let seqs = committed_sequences(&result.commits, params.nodes);
        assert!(
            sequences_prefix_consistent(&seqs),
            "prefixes agree across the outage"
        );
        // The victim committed both before the crash and after the restart.
        let victim_node = victim.0 as usize;
        let before = result
            .commits
            .iter()
            .filter(|(t, n, _)| *n == victim_node && *t < 6 * SEC)
            .count();
        let after = result
            .commits
            .iter()
            .filter(|(t, n, _)| *n == victim_node && *t > 10 * SEC)
            .count();
        assert!(before > 0, "commits before the crash");
        assert!(after > 0, "commits resume after the restart");
        // Commit sequence numbers continue across the outage (recovered
        // counter), never restarting from 1.
        let victim_seqs: Vec<u64> = result
            .commits
            .iter()
            .filter(|(_, n, _)| *n == victim_node)
            .map(|(_, _, ev)| ev.sequence)
            .collect();
        for pair in victim_seqs.windows(2) {
            assert!(pair[1] == pair[0] + 1, "gapless sequence: {pair:?}");
        }
    }

    #[test]
    fn crash_schedule_spares_early_validators() {
        let params = BenchParams {
            nodes: 10,
            workers: 1,
            faults: 3,
            ..Default::default()
        };
        let crashes = crash_schedule(&params);
        // 3 primaries + 3 workers.
        assert_eq!(crashes.len(), 6);
        assert!(crashes.iter().all(|(node, _)| *node >= 7));
    }

    // The fuzzer's schedule generator builds on these helpers; their exact
    // shapes are pinned so a layout change cannot silently skew generated
    // fault schedules.

    #[test]
    fn crash_schedule_pins_exact_hosts_and_times() {
        let params = BenchParams {
            nodes: 4,
            workers: 2,
            faults: 1,
            ..Default::default()
        };
        // AddressBook layout: primaries 0..4, then workers 4 + v*2 + w.
        // Faulting the last validator (3) = primary 3, workers 10 and 11,
        // all crashed at t = 0 and never restarted.
        assert_eq!(crash_schedule(&params), vec![(3, 0), (10, 0), (11, 0)]);
    }

    #[test]
    fn split_partition_pins_exact_groups_and_window() {
        let p = split_partition(4, 1, 2 * SEC, 5 * SEC);
        // First half (validators 0-1 with workers 4-5) vs the rest.
        assert_eq!(p.group_a, vec![0, 4, 1, 5]);
        assert_eq!(p.group_b, vec![2, 6, 3, 7]);
        assert_eq!((p.from, p.until), (2 * SEC, 5 * SEC));
        // Odd committee: the larger side keeps quorum.
        let p = split_partition(5, 2, 0, SEC);
        assert_eq!(p.group_a, vec![0, 5, 6, 1, 7, 8]);
        assert_eq!(p.group_b, vec![2, 9, 10, 3, 11, 12, 4, 13, 14]);
    }

    #[test]
    fn validator_hosts_pins_primary_then_workers() {
        assert_eq!(validator_hosts(4, 1, ValidatorId(2)), vec![2, 6]);
        assert_eq!(validator_hosts(4, 3, ValidatorId(1)), vec![1, 7, 8, 9]);
        assert_eq!(
            validator_hosts(10, 2, ValidatorId(0)),
            vec![0, 10, 11],
            "workers directly follow the primary block"
        );
    }
}
