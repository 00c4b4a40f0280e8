//! The schedule-fuzzing harness: run generated fault schedules against the
//! DAG systems, check invariants, shrink failures.
//!
//! Pieces (see the `sim_fuzz` bench target for the CLI):
//!
//! - [`fuzz_params`] / [`fuzz_plan`] / [`fuzz_config`]: the fixed run
//!   envelope — a 4-validator committee under load, a generation plan whose
//!   fault mass is bounded well inside the GC window, and a Narwhal config
//!   with the fuzz GC window.
//! - [`run_schedule`]: one deterministic run of `(system, seed, schedule)`
//!   over per-validator [`JournalStore`]s, with torn tails injected at
//!   restarts through the simulator's restart hook, checked by
//!   [`crate::checker::check_all`]. [`run_schedule_byz`] adds adversaries
//!   ([`crate::adversary`]), [`run_schedule_with`] a config of its own.
//! - [`run_case`]: generate the seed's schedule, then [`run_schedule`].
//! - [`shrink_case`]: minimize a failing schedule (greedy event drop +
//!   narrowing, re-running the full checker suite per candidate).
//! - [`regression_snippet`]: render a failing case as a ready-to-paste
//!   Rust test (see `tests/sim_fuzz_regressions.rs` for landed examples).
//! - [`self_test`]: run the [`checker_arms`], over-`f` coalitions and a
//!   config without snapshots, and confirm the checkers catch each.
//! - [`mechanism_arms`]: the schedules that prove a recovery mechanism
//!   load-bearing. They are clean on this tree (`tests/mechanism_arms.rs`);
//!   the mutation manifest (`crates/bench/mutants.txt`, run by the
//!   `mutants` binary) deletes each mechanism from the source and requires
//!   its arm to fail.

use crate::adversary::{AdversaryKind, Byzantine};
use crate::checker::{check_all, CheckInput, Checker, Violation};
use crate::metrics::RunStats;
use crate::params::BenchParams;
use crate::runner::System;
use crate::runner::{dag_factories, narwhal_topology, validator_hosts};
use narwhal::{AddressBook, NarwhalConfig};
use nt_crypto::Scheme;
use nt_network::{NodeId, Time, MS, SEC};
use nt_simnet::{ActorFactory, FaultEvent, FuzzPlan, Schedule, SimConfig, Simulation};
use nt_storage::{DynStore, JournalStore};
use nt_types::{Committee, ValidatorId};
use std::collections::HashMap;
use std::sync::Arc;

/// The six DAG systems every schedule is checked against.
pub const SYSTEMS: [System; 6] = [
    System::Tusk,
    System::DagRider,
    System::Bullshark,
    System::BullsharkRep,
    System::BullsharkPipelined,
    System::FinWhale,
];

/// Quiet tail the plan guarantees and the liveness checker asserts.
pub const QUIET_TAIL: Time = 6 * SEC;

/// GC window for fuzz runs: small enough that GC triggers within a run
/// (the commit-loss-across-GC surface — rounds advance at roughly 4/s, so
/// GC starts pruning near t = 11 s, inside the fault window) *and* small
/// enough that the plan's long outages (up to 12 s ≈ 48 rounds) push a
/// validator past it, exercising snapshot state transfer — the only way
/// back once per-certificate sync finds its history pruned.
pub const FUZZ_GC_DEPTH: u64 = 40;

/// Bench parameters for one fuzz run; `seed` drives the schedule, the
/// simulator, and the shared coin alike.
pub fn fuzz_params(seed: u64) -> BenchParams {
    BenchParams {
        nodes: 4,
        workers: 1,
        rate: 2_000.0,
        duration: 20 * SEC,
        seed,
        ..Default::default()
    }
}

/// The generation envelope matching [`fuzz_params`].
///
/// Snapshot state transfer relaxed the soundness envelope: the default
/// plan keeps every outage short enough that per-certificate sync can
/// close the gap inside the GC window, but snapshot-capable validators
/// recover from arbitrarily long outages, so fuzz runs allow a single
/// unit to stay down past `FUZZ_GC_DEPTH` rounds (≈ 10 s). The per-unit
/// 3 s recovery gap between consecutive outages stays — a restarted
/// validator still needs real time to fetch and install before the next
/// crash discards its in-flight transfer.
pub fn fuzz_plan(params: &BenchParams) -> FuzzPlan {
    let mut plan = FuzzPlan::new(params.nodes as u32, params.duration);
    plan.quiet_tail = QUIET_TAIL;
    plan.max_window = 12 * SEC;
    plan.unit_downtime = 12 * SEC;
    plan.fault_mass = 16 * SEC;
    plan
}

/// Narwhal config for fuzz runs: the params' config with the fuzz GC
/// window.
pub fn fuzz_config(params: &BenchParams) -> NarwhalConfig {
    NarwhalConfig {
        gc_depth: FUZZ_GC_DEPTH,
        ..params.narwhal_config()
    }
}

/// What one checked run produced.
pub struct FuzzOutcome {
    /// Checker hits (empty = the run upheld every invariant).
    pub violations: Vec<Violation>,
    /// Standard run statistics (throughput/latency plumbing for corpus
    /// summaries).
    pub stats: RunStats,
    /// Commit events observed (all validators).
    pub commit_events: usize,
    /// Per-validator snapshot-install markers left in the durable stores
    /// (checkpoint sequences; non-empty = that validator recovered via
    /// state transfer rather than per-certificate sync).
    pub snapshot_installs: Vec<Vec<u64>>,
}

/// Runs `schedule` against `system` and checks every invariant.
/// Deterministic: same `(system, params.seed, schedule)` ⇒ same outcome.
pub fn run_schedule(system: System, params: &BenchParams, schedule: &Schedule) -> FuzzOutcome {
    run_schedule_byz(system, params, schedule, &[])
}

/// [`run_schedule`] with adversary actors: each `(validator, kind)` pair
/// wraps that validator's primary in a [`Byzantine`] actor, and the
/// checkers judge the honest remainder only ([`CheckInput::byzantine`]).
/// Deterministic like `run_schedule`; adversaries compose with the fault
/// schedule (a crashed adversary restarts as the same adversary).
pub fn run_schedule_byz(
    system: System,
    params: &BenchParams,
    schedule: &Schedule,
    byzantine: &[(ValidatorId, AdversaryKind)],
) -> FuzzOutcome {
    run_schedule_with(system, params, &fuzz_config(params), schedule, byzantine)
}

/// [`run_schedule_byz`] under `config` instead of [`fuzz_config`]; the
/// catch-up checker judges by `config.gc_depth`.
pub fn run_schedule_with(
    system: System,
    params: &BenchParams,
    config: &NarwhalConfig,
    schedule: &Schedule,
    byzantine: &[(ValidatorId, AdversaryKind)],
) -> FuzzOutcome {
    let nodes = params.nodes;
    let stores: Vec<DynStore> = (0..nodes)
        .map(|_| Arc::new(JournalStore::new()) as DynStore)
        .collect();
    let node_stores = stores.clone();
    let node = move |v: u32, b: narwhal::NodeBuilder| b.store(node_stores[v as usize].clone());
    // Each listed validator's primary (the first `nodes` factories) runs
    // inside an adversary; a restarted one is rebuilt around a fresh inner
    // primary over the same store and resumes misbehaving. Workers stay
    // honest: every adversary here attacks the primary protocol.
    let (committee, kps) = Committee::deterministic(nodes, params.workers, Scheme::Insecure);
    let addr = AddressBook::new(nodes, params.workers);
    let factories = dag_factories(system, params, config, node)
        .into_iter()
        .enumerate()
        .map(|(i, mut inner)| -> ActorFactory<tusk::TuskMsg> {
            let Some(&(v, kind)) = byzantine.iter().find(|(v, _)| v.0 as usize == i) else {
                return inner;
            };
            let (committee, kp) = (committee.clone(), kps[i].clone());
            Box::new(move || {
                let (kp, committee) = (kp.clone(), committee.clone());
                Box::new(Byzantine::new(inner(), kind, v, kp, committee, addr))
            })
        })
        .collect();
    let unit_hosts: Vec<Vec<NodeId>> = (0..nodes)
        .map(|v| validator_hosts(nodes, params.workers, ValidatorId(v as u32)))
        .collect();
    let mut sim_config = SimConfig::new(params.seed, params.duration);
    schedule.apply(&mut sim_config, &unit_hosts);
    let mut sim = Simulation::new(narwhal_topology(params), sim_config, factories);
    // Torn tails: at the scheduled restart instant, discard the last N
    // write ops from the validator's store — between the death of the old
    // incarnation and the recovery of the new one. Keyed by primary host
    // (= validator id) so a validator's store tears once per outage, not
    // once per host.
    let tear_map: HashMap<(NodeId, Time), u32> = schedule
        .tears()
        .into_iter()
        .map(|(unit, at, ops)| ((unit as NodeId, at), ops))
        .collect();
    if !tear_map.is_empty() {
        let hook_stores = stores.clone();
        sim.set_restart_hook(Box::new(move |node, at| {
            if let Some(ops) = tear_map.get(&(node, at)) {
                hook_stores[node]
                    .tear_tail(*ops as usize)
                    .expect("journal store tears");
            }
        }));
    }
    let result = sim.run();
    let violations = check_all(&CheckInput {
        commits: &result.commits,
        nodes,
        duration: params.duration,
        quiet_tail: QUIET_TAIL,
        gc_depth: config.gc_depth,
        schedule,
        stores: &stores,
        committee: &committee,
        byzantine: &byzantine.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
    });
    let snapshot_installs = stores
        .iter()
        .map(|store| {
            narwhal::BlockStore::new(store.clone())
                .snapshot_installs()
                .expect("store readable")
        })
        .collect();
    FuzzOutcome {
        violations,
        stats: RunStats::from_result(&result, params.duration, nodes),
        commit_events: result.commits.len(),
        snapshot_installs,
    }
}

/// Generates seed `seed`'s schedule and runs it against `system`. Returns
/// the schedule alongside the outcome so a violation can be reported and
/// shrunk.
pub fn run_case(system: System, seed: u64) -> (Schedule, FuzzOutcome) {
    let params = fuzz_params(seed);
    let schedule = Schedule::generate(seed, &fuzz_plan(&params));
    let outcome = run_schedule(system, &params, &schedule);
    (schedule, outcome)
}

/// Bench parameters for the Byzantine corpus: committee size is
/// seed-weighted toward the paper's deployment scales (4, 10 and 16
/// validators), at a submission rate the larger committees sustain in
/// simulation. `fuzz_params` stays fixed at 4 validators — the pinned
/// regression reproducers depend on it.
pub fn corpus_params(seed: u64) -> BenchParams {
    let nodes = match seed % 3 {
        0 => 4,
        1 => 10,
        _ => 16,
    };
    BenchParams {
        nodes,
        workers: 1,
        rate: if nodes > 4 { 500.0 } else { 2_000.0 },
        duration: 20 * SEC,
        seed,
        ..Default::default()
    }
}

/// The generation envelope matching [`corpus_params`]: the crash-corpus
/// plan with worker-link-targeted spikes switched on (batch dissemination
/// lags while the primary DAG keeps certifying — §4.2's scale-out surface).
pub fn corpus_plan(params: &BenchParams) -> FuzzPlan {
    let mut plan = fuzz_plan(params);
    plan.worker_spikes = true;
    plan
}

/// Deterministic adversary coalition for one corpus seed: `f = ⌊(n−1)/3⌋`
/// validators at the committee's tail run adversaries, with kinds rotating
/// by seed — at `f > 1` the coalition mixes kinds. The censor's victim is
/// validator 0 (never itself Byzantine), and certificate releases are
/// delayed past the vote round-trip but inside the GC window.
pub fn byz_assignment(seed: u64, nodes: usize) -> Vec<(ValidatorId, AdversaryKind)> {
    let f = (nodes - 1) / 3;
    let kinds = [
        AdversaryKind::Equivocate,
        AdversaryKind::VoteAmnesia,
        AdversaryKind::Censor {
            victim: ValidatorId(0),
        },
        AdversaryKind::DelayRelease { rounds: 4 },
    ];
    (0..f)
        .map(|i| {
            (
                ValidatorId((nodes - f + i) as u32),
                kinds[(seed as usize + i) % kinds.len()],
            )
        })
        .collect()
}

/// One Byzantine corpus case: seed `seed`'s schedule under
/// [`corpus_plan`], with seed `seed`'s adversary coalition, judged over the
/// honest validators. Returns the coalition for reporting.
pub fn run_byz_case(
    system: System,
    seed: u64,
) -> (Schedule, Vec<(ValidatorId, AdversaryKind)>, FuzzOutcome) {
    let params = corpus_params(seed);
    let schedule = Schedule::generate(seed, &corpus_plan(&params));
    let byz = byz_assignment(seed, params.nodes);
    let outcome = run_schedule_byz(system, &params, &schedule, &byz);
    (schedule, byz, outcome)
}

/// Greedily minimizes a failing schedule, re-running the checkers on every
/// candidate. The result still violates at least one invariant.
pub fn shrink_case(system: System, params: &BenchParams, schedule: &Schedule) -> Schedule {
    nt_simnet::shrink(schedule, &mut |candidate| {
        !run_schedule(system, params, candidate)
            .violations
            .is_empty()
    })
}

/// Renders a failing `(system, seed, schedule)` as a copy-pasteable
/// regression test (the shape `tests/sim_fuzz_regressions.rs` keeps).
pub fn regression_snippet(system: System, seed: u64, schedule: &Schedule) -> String {
    let schedule_src = schedule
        .to_rust()
        .lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
        .trim_start()
        .to_string();
    format!(
        r#"/// Shrunk reproducer from `sim_fuzz` seed {seed}.
#[test]
fn fuzz_regression_seed_{seed}() {{
    use narwhal_tusk::bench::fuzz::{{fuzz_params, run_schedule}};
    use narwhal_tusk::bench::System;
    use narwhal_tusk::network::MS;
    use narwhal_tusk::simnet::{{FaultEvent, Schedule}};
    let schedule = {schedule_src};
    let outcome = run_schedule(System::{system:?}, &fuzz_params({seed}), &schedule);
    assert!(outcome.violations.is_empty(), "{{:#?}}", outcome.violations);
}}"#
    )
}

/// One arm of the checker self-test: candidate schedules, each with the
/// simulation seed it runs under, against one system, with an adversary
/// coalition and a Narwhal config.
pub struct Arm {
    /// What the arm exercises: the mechanism it proves load-bearing, or
    /// the coalition it runs.
    pub name: &'static str,
    /// The system it runs against.
    pub system: System,
    /// The config every candidate runs under.
    pub config: NarwhalConfig,
    /// `(simulation seed, schedule)` pairs, tried in order.
    pub candidates: Vec<(u64, Schedule)>,
    /// The adversary coalition (empty for crash-only arms).
    pub byzantine: Vec<(ValidatorId, AdversaryKind)>,
}

impl Arm {
    fn new(name: &'static str, system: System, candidates: Vec<(u64, Schedule)>) -> Self {
        Arm {
            name,
            system,
            config: fuzz_config(&fuzz_params(0)),
            candidates,
            byzantine: vec![],
        }
    }

    fn with_byzantine(mut self, byzantine: Vec<(ValidatorId, AdversaryKind)>) -> Self {
        self.byzantine = byzantine;
        self
    }

    /// Runs the candidates in order and stops at the first that violates
    /// an invariant: its index and the checkers that fired, sorted and
    /// deduplicated, with the violations themselves. `None` if every
    /// candidate ran clean.
    pub fn first_violation(&self) -> Option<(usize, Vec<Checker>, Vec<Violation>)> {
        self.candidates
            .iter()
            .enumerate()
            .find_map(|(i, (seed, schedule))| {
                let params = fuzz_params(*seed);
                let outcome = run_schedule_with(
                    self.system,
                    &params,
                    &self.config,
                    schedule,
                    &self.byzantine,
                );
                if outcome.violations.is_empty() {
                    return None;
                }
                let mut fired: Vec<Checker> =
                    outcome.violations.iter().map(|v| v.checker).collect();
                fired.sort_unstable();
                fired.dedup();
                Some((i, fired, outcome.violations))
            })
    }
}

/// Outcome of one arm of [`self_test`].
pub struct SelfTestArm {
    /// The arm's name.
    pub name: &'static str,
    /// The system it ran against.
    pub system: System,
    /// Checkers that fired (first firing candidate schedule; empty if
    /// none fired).
    pub fired: Vec<Checker>,
    /// The adversary coalition the arm ran with.
    pub byzantine: Vec<(ValidatorId, AdversaryKind)>,
}

/// An equivocator with a vote-amnesiac accomplice (two of four validators,
/// over the f = 1 a 4-validator committee tolerates): the accomplice's
/// double votes certify both twins, and their payload commits twice.
pub fn equivocate_amnesia() -> Vec<(ValidatorId, AdversaryKind)> {
    vec![
        (ValidatorId(0), AdversaryKind::Equivocate),
        (ValidatorId(1), AdversaryKind::VoteAmnesia),
    ]
}

/// The adversary coalition of the censor arms: two of four validators (over
/// the f = 1 a 4-validator committee tolerates) starve validator 0.
pub fn censor_pair() -> Vec<(ValidatorId, AdversaryKind)> {
    let censor = AdversaryKind::Censor {
        victim: ValidatorId(0),
    };
    vec![(ValidatorId(2), censor), (ValidatorId(3), censor)]
}

/// The arms that must trip a checker on this tree: over-`f` adversary
/// coalitions (each beyond the f = 1 a 4-validator committee tolerates,
/// so the checker it trips catches exactly the misbehaviour the adversary
/// produces), and an outage past the GC horizon with snapshots off
/// (`snapshot_interval: 0`), where only state transfer could bring the
/// victim back.
pub fn checker_arms() -> Vec<Arm> {
    // An outage past the GC horizon (> FUZZ_GC_DEPTH rounds ≈ 10 s): peers
    // prune the victim's missing history, so only snapshot state transfer
    // brings it back — without snapshots it stalls forever.
    let past_gc_outages = [outage(3, 1_500, 13_500, 0), outage(3, 2_000, 13_000, 0)];
    let quiet = || vec![(11, Schedule::default())];
    let mut no_snapshots = Arm::new("no_snapshots", System::Tusk, seeded(&past_gc_outages));
    no_snapshots.config.snapshot_interval = 0;
    vec![
        no_snapshots,
        Arm::new("equivocate+vote_amnesia", System::Tusk, quiet())
            .with_byzantine(equivocate_amnesia()),
        Arm::new("censor_pair", System::Bullshark, quiet()).with_byzantine(censor_pair()),
        // The same censoring coalition under pipelined anchors: the
        // fairness window tightens with the every-round cadence, and the
        // checker must still convict a starved victim there.
        Arm::new("censor_pair_pipelined", System::BullsharkPipelined, quiet())
            .with_byzantine(censor_pair()),
        Arm::new("delay_release_pair", System::DagRider, quiet()).with_byzantine(vec![
            (ValidatorId(2), AdversaryKind::DelayRelease { rounds: 8 }),
            (ValidatorId(3), AdversaryKind::DelayRelease { rounds: 8 }),
        ]),
    ]
}

/// The checker self-test: runs every [`checker_arms`] arm and records
/// which checkers catch it. A checker suite that stays green here is
/// vacuous — the `sim_fuzz --test` gate asserts every arm fired and that
/// at least three distinct checkers tripped overall. Deterministic: the
/// same candidate fires every time.
pub fn self_test() -> Vec<SelfTestArm> {
    checker_arms()
        .into_iter()
        .map(|arm| SelfTestArm {
            fired: arm.first_violation().map_or(vec![], |(_, fired, _)| fired),
            name: arm.name,
            system: arm.system,
            byzantine: arm.byzantine,
        })
        .collect()
}

/// A single outage of `unit` from `at_ms` to `until_ms`, tearing `tear`
/// writes at the restart.
fn outage(unit: u32, at_ms: u64, until_ms: u64, tear: u32) -> Schedule {
    Schedule {
        events: vec![FaultEvent::Outage {
            unit,
            at: at_ms * MS,
            until: until_ms * MS,
            tear,
        }],
    }
}

/// Pairs each schedule with simulation seed 11.
fn seeded(schedules: &[Schedule]) -> Vec<(u64, Schedule)> {
    schedules.iter().map(|s| (11, s.clone())).collect()
}

/// The arms that prove a recovery mechanism load-bearing, by name: each
/// runs clean on this tree (`tests/mechanism_arms.rs` asserts it), and
/// the entry of the same name in `crates/bench/mutants.txt` deletes the
/// mechanism from the source and requires the arm to trip the checkers it
/// names.
///
/// Each arm tries a small fixed list of candidate schedules: some
/// mechanisms only matter under a particular fault phase (the ordered
/// markers need GC to have pruned before the crash; the re-proposal
/// guards need an outage short enough that the restarted validator
/// rejoins at the live round).
pub fn mechanism_arms() -> Vec<Arm> {
    // A long mid-run outage: peers advance ~12 rounds while the victim is
    // down, recovery has real catch-up work.
    let long_outages = seeded(&[outage(3, 6_000, 9_000, 0), outage(3, 8_000, 11_000, 5)]);
    // Short outages: the restarted validator rejoins at (nearly) the live
    // round, so a wrongly re-proposed payload actually certifies instead
    // of dying in a stale-round block peers dismiss.
    let short_outages = seeded(&[
        outage(3, 8_000, 8_100, 0),
        outage(3, 6_500, 6_600, 0),
        outage(3, 8_000, 8_250, 0),
        outage(3, 8_000, 8_400, 0),
        outage(3, 6_500, 6_650, 0),
    ]);
    // The original seed-219 find: a link spike stretches round timing, a
    // short outage with a torn tail erases the victim's freshest own
    // certificate (and in-flight proposal) while their broadcasts already
    // left. Candidates carry their own simulation seed — the tear must
    // line up with the victim's write pattern, which the seed's jitter
    // shifts.
    let torn_outage = |at_ms: u64, tear: u32| Schedule {
        events: vec![
            FaultEvent::Spike {
                a: 1,
                b: 3,
                from: 7_126 * MS,
                until: 10_299 * MS,
                extra: 657 * MS,
            },
            FaultEvent::Outage {
                unit: 2,
                at: at_ms * MS,
                until: (at_ms + 122) * MS,
                tear,
            },
        ],
    };
    let torn_outages = vec![
        (118, torn_outage(10_100, 20)),
        (160, torn_outage(10_100, 20)),
        (79, torn_outage(10_100, 16)),
        (364, torn_outage(10_100, 20)),
    ];
    // Without persisted vote locks an equivocator needs a crash that makes
    // one original voter forget its lock while the committee is still in
    // the same round: the restarted voter signs the retransmitted twin,
    // both twins certify, and the payload commits twice. Candidates vary
    // the crashed voter and the phase; the outage must be short enough
    // that the round hasn't moved on at restart.
    let voter_crashes = [
        (11, 1, 8_000, 150),
        (11, 2, 8_000, 150),
        (11, 1, 6_500, 120),
        (11, 2, 6_500, 120),
        (11, 1, 9_050, 180),
        (7, 1, 8_000, 150),
        (7, 2, 7_400, 140),
    ]
    .into_iter()
    .map(|(seed, unit, at_ms, len_ms)| (seed, outage(unit, at_ms, at_ms + len_ms, 0)))
    .collect();
    vec![
        Arm::new("ordered_persist", System::Tusk, long_outages.clone()),
        Arm::new("sequence_persist", System::Bullshark, long_outages.clone()),
        Arm::new("inflight_recovery", System::Bullshark, short_outages),
        Arm::new("cert_pull", System::DagRider, long_outages),
        Arm::new("sync_barriers", System::BullsharkRep, torn_outages),
        Arm::new("vote_persist", System::Tusk, voter_crashes)
            .with_byzantine(vec![(ValidatorId(0), AdversaryKind::Equivocate)]),
    ]
}

/// A deliberately noisy failing case for exercising the shrinker end to
/// end: [`equivocate_amnesia`] fails on an empty schedule and with these
/// events (Bullshark, seed 11), so every event is chaff the shrinker must
/// discard. ([`censor_pair`] does not: its victim's starvation hides among
/// the outages.)
pub fn noisy_selftest_schedule() -> (Schedule, Vec<(ValidatorId, AdversaryKind)>) {
    (
        Schedule {
            events: vec![
                FaultEvent::Spike {
                    a: 0,
                    b: 1,
                    from: 2 * SEC,
                    until: 3 * SEC,
                    extra: 200 * MS,
                },
                FaultEvent::Split {
                    side: vec![0, 2],
                    from: 3 * SEC,
                    until: 4 * SEC,
                },
                FaultEvent::Outage {
                    unit: 3,
                    at: 6 * SEC,
                    until: 9 * SEC,
                    tear: 6,
                },
                FaultEvent::Spike {
                    a: 1,
                    b: 3,
                    from: 10 * SEC,
                    until: 11 * SEC,
                    extra: 400 * MS,
                },
                FaultEvent::Outage {
                    unit: 1,
                    at: 10 * SEC,
                    until: 12 * SEC,
                    tear: 0,
                },
                FaultEvent::Split {
                    side: vec![1],
                    from: 12 * SEC + 500 * MS,
                    until: 13 * SEC,
                },
            ],
        },
        equivocate_amnesia(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byzantine runs replay bit-identically from their seed: the adversary
    /// wrappers keep ordered state and emit effects as a pure function of
    /// the delivered event, so a violating corpus case reproduces exactly
    /// from its `(system, seed, schedule, coalition)` line.
    #[test]
    fn byzantine_runs_are_deterministic() {
        let params = BenchParams {
            nodes: 4,
            workers: 1,
            rate: 1_000.0,
            duration: 8 * SEC,
            seed: 77,
            ..Default::default()
        };
        let schedule = Schedule {
            events: vec![
                FaultEvent::Outage {
                    unit: 2,
                    at: 3 * SEC,
                    until: 4 * SEC,
                    tear: 4,
                },
                FaultEvent::Spike {
                    a: 0,
                    b: 3,
                    from: 5 * SEC,
                    until: 6 * SEC,
                    extra: 150 * MS,
                },
            ],
        };
        let byz = [
            (ValidatorId(1), AdversaryKind::Equivocate),
            (
                ValidatorId(3),
                AdversaryKind::Censor {
                    victim: ValidatorId(0),
                },
            ),
        ];
        let run = || {
            let out = run_schedule_byz(System::Bullshark, &params, &schedule, &byz);
            (
                format!("{:?}", out.violations),
                out.commit_events,
                out.snapshot_installs,
            )
        };
        let first = run();
        assert!(first.1 > 0, "the honest committee must make progress");
        assert_eq!(first, run(), "Byzantine replay diverged");
    }
}
