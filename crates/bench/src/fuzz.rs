//! The schedule-fuzzing harness: run generated fault schedules against the
//! DAG systems, check invariants, shrink failures.
//!
//! Pieces (see the `sim_fuzz` bench target for the CLI):
//!
//! - [`fuzz_params`] / [`fuzz_plan`] / [`fuzz_config`]: the fixed run
//!   envelope — a 4-validator committee under load, a generation plan whose
//!   fault mass is bounded well inside the GC window, and a Narwhal config
//!   with the bug switches all off.
//! - [`run_schedule`]: one deterministic run of `(system, seed, schedule)`
//!   over per-validator [`JournalStore`]s, with torn tails injected at
//!   restarts through the simulator's restart hook, checked by
//!   [`crate::checker::check_all`].
//! - [`run_case`]: generate the seed's schedule, then [`run_schedule`].
//! - [`shrink_case`]: minimize a failing schedule (greedy event drop +
//!   narrowing, re-running the full checker suite per candidate).
//! - [`regression_snippet`]: render a failing case as a ready-to-paste
//!   Rust test (see `tests/sim_fuzz_regressions.rs` for landed examples).
//! - [`self_test`]: flip each deliberate-bug switch
//!   ([`narwhal::SelfTestBugs`]) and confirm the checkers catch it.

use crate::checker::{check_all, CheckInput, Checker, Violation};
use crate::metrics::RunStats;
use crate::params::BenchParams;
use crate::runner::System;
use crate::runner::{build_dag_actor_factories_byz, narwhal_topology, validator_hosts};
use narwhal::{AdversaryKind, NarwhalConfig, SelfTestBugs};
use nt_crypto::Scheme;
use nt_network::{NodeId, Time, MS, SEC};
use nt_simnet::{FaultEvent, FuzzPlan, Schedule, SimConfig, Simulation};
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
/// window and the given bug switches.
pub fn fuzz_config(params: &BenchParams, bugs: SelfTestBugs) -> NarwhalConfig {
    NarwhalConfig {
        gc_depth: FUZZ_GC_DEPTH,
        bugs,
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
/// Deterministic: same `(system, params.seed, schedule, bugs)` ⇒ same
/// outcome.
pub fn run_schedule(
    system: System,
    params: &BenchParams,
    schedule: &Schedule,
    bugs: SelfTestBugs,
) -> FuzzOutcome {
    run_schedule_byz(system, params, schedule, bugs, &[])
}

/// [`run_schedule`] with adversary actors: each `(validator, kind)` pair
/// wraps that validator's primary in a [`narwhal::Byzantine`] actor, and
/// the checkers judge the honest remainder only ([`CheckInput::byzantine`]).
/// Deterministic like `run_schedule`; adversaries compose with the fault
/// schedule (a crashed adversary restarts as the same adversary).
pub fn run_schedule_byz(
    system: System,
    params: &BenchParams,
    schedule: &Schedule,
    bugs: SelfTestBugs,
    byzantine: &[(ValidatorId, AdversaryKind)],
) -> FuzzOutcome {
    let nodes = params.nodes;
    let stores: Vec<DynStore> = (0..nodes)
        .map(|_| Arc::new(JournalStore::new()) as DynStore)
        .collect();
    let config = fuzz_config(params, bugs);
    let factories = build_dag_actor_factories_byz(system, params, &config, &stores, byzantine);
    let unit_hosts: Vec<Vec<NodeId>> = (0..nodes)
        .map(|v| validator_hosts(nodes, params.workers, ValidatorId(v as u32)))
        .collect();
    let mut sim_config = SimConfig::new(params.seed, params.duration);
    schedule.apply(&mut sim_config, &unit_hosts);
    let mut sim = Simulation::from_factories(narwhal_topology(params), sim_config, factories);
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
    let (committee, _) = Committee::deterministic(nodes, params.workers, Scheme::Insecure);
    let violations = check_all(&CheckInput {
        commits: &result.commits,
        nodes,
        duration: params.duration,
        quiet_tail: QUIET_TAIL,
        gc_depth: FUZZ_GC_DEPTH,
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

/// Generates seed `seed`'s schedule and runs it against `system` with all
/// bug switches off. Returns the schedule alongside the outcome so a
/// violation can be reported and shrunk.
pub fn run_case(system: System, seed: u64) -> (Schedule, FuzzOutcome) {
    let params = fuzz_params(seed);
    let schedule = Schedule::generate(seed, &fuzz_plan(&params));
    let outcome = run_schedule(system, &params, &schedule, SelfTestBugs::default());
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
    let outcome = run_schedule_byz(system, &params, &schedule, SelfTestBugs::default(), &byz);
    (schedule, byz, outcome)
}

/// Greedily minimizes a failing schedule, re-running the checkers on every
/// candidate. The result still violates at least one invariant.
pub fn shrink_case(
    system: System,
    params: &BenchParams,
    schedule: &Schedule,
    bugs: SelfTestBugs,
) -> Schedule {
    nt_simnet::shrink(schedule, &mut |candidate| {
        !run_schedule(system, params, candidate, bugs)
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
    let outcome = run_schedule(
        System::{system:?},
        &fuzz_params({seed}),
        &schedule,
        Default::default(),
    );
    assert!(outcome.violations.is_empty(), "{{:#?}}", outcome.violations);
}}"#
    )
}

/// Outcome of one bug-switch arm of the self-test.
pub struct SelfTestArm {
    /// Name of the switch that was flipped (or the adversary coalition
    /// that ran, for the Byzantine arms).
    pub bug: &'static str,
    /// The system it ran against.
    pub system: System,
    /// Checkers that fired (first firing candidate schedule).
    pub fired: Vec<Checker>,
    /// How many candidate schedules were tried before one fired (equals
    /// the candidate count when none did).
    pub candidates_tried: usize,
    /// Whether the arm is expected to fire at all.
    pub expect_fire: bool,
    /// The adversary coalition the arm ran with (empty for pure
    /// bug-switch arms).
    pub byzantine: Vec<(ValidatorId, AdversaryKind)>,
}

/// The deliberate-bug self-test: flip each [`SelfTestBugs`] switch on
/// crash–restart schedules and record which checkers catch it. A checker
/// suite that stays green here is vacuous — the `sim_fuzz --test` gate
/// asserts every `expect_fire` arm fired and that at least three distinct
/// checkers tripped overall.
///
/// Each arm tries a small fixed list of candidate schedules and stops at
/// the first that fires: some bugs only bite under a particular fault
/// phase (e.g. `skip_ordered_persist` needs GC to have pruned markers
/// before the crash; the re-proposal bugs need an outage short enough that
/// the restarted validator rejoins at the live round). Everything is
/// deterministic — the same candidate fires every time.
pub fn self_test() -> Vec<SelfTestArm> {
    let outage = |at_ms: u64, until_ms: u64, tear: u32| Schedule {
        events: vec![FaultEvent::Outage {
            unit: 3,
            at: at_ms * MS,
            until: until_ms * MS,
            tear,
        }],
    };
    // A long mid-run outage: peers advance ~12 rounds while the victim is
    // down, recovery has real catch-up work.
    let long_outages = vec![outage(6_000, 9_000, 0), outage(8_000, 11_000, 5)];
    // An outage past the GC horizon (> FUZZ_GC_DEPTH rounds ≈ 10 s): peers
    // prune the victim's missing history, so only snapshot state transfer
    // brings it back — with snapshots disabled it stalls forever.
    let past_gc_outages = vec![outage(1_500, 13_500, 0), outage(2_000, 13_000, 0)];
    // Short outages: the restarted validator rejoins at (nearly) the live
    // round, so a wrongly re-proposed payload actually certifies instead
    // of dying in a stale-round block peers dismiss.
    let short_outages = vec![
        outage(8_000, 8_100, 0),
        outage(6_500, 6_600, 0),
        outage(8_000, 8_250, 0),
        outage(8_000, 8_400, 0),
        outage(6_500, 6_650, 0),
    ];
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
        (385, torn_outage(10_100, 20)),
        (250, torn_outage(10_100, 20)),
        (305, torn_outage(10_100, 16)),
        (91, torn_outage(10_100, 20)),
    ];
    let bug = |f: fn(&mut SelfTestBugs)| {
        let mut bugs = SelfTestBugs::default();
        f(&mut bugs);
        bugs
    };
    let seeded = |schedules: Vec<Schedule>| -> Vec<(u64, Schedule)> {
        schedules.into_iter().map(|s| (11, s)).collect()
    };
    /// One self-test arm: `(bug name, switches, system, seeded candidate
    /// schedules, whether a checker is expected to fire, adversaries)`.
    type Arm = (
        &'static str,
        SelfTestBugs,
        System,
        Vec<(u64, Schedule)>,
        bool,
        Vec<(ValidatorId, AdversaryKind)>,
    );
    // Adversary coalitions for the Byzantine arms. Each exceeds the f = 1
    // a 4-validator committee tolerates (or pairs a bug switch with an
    // equivocator) — proving the corresponding checker catches exactly the
    // misbehaviour the adversary produces.
    let equivocate_amnesia = vec![
        (ValidatorId(0), AdversaryKind::Equivocate),
        (ValidatorId(1), AdversaryKind::VoteAmnesia),
    ];
    let censor_pair = vec![
        (
            ValidatorId(2),
            AdversaryKind::Censor {
                victim: ValidatorId(0),
            },
        ),
        (
            ValidatorId(3),
            AdversaryKind::Censor {
                victim: ValidatorId(0),
            },
        ),
    ];
    let delay_pair = vec![
        (ValidatorId(2), AdversaryKind::DelayRelease { rounds: 8 }),
        (ValidatorId(3), AdversaryKind::DelayRelease { rounds: 8 }),
    ];
    // `skip_vote_persist` needs an equivocator plus a crash that makes one
    // original-voter forget its (never-persisted) vote lock while the
    // committee is still in the same round: the restarted voter signs the
    // retransmitted twin, both twins certify, and the payload commits
    // twice. Candidates vary the crashed voter and the phase; the outage
    // must be short enough that the round hasn't moved on at restart.
    let voter_crashes: Vec<(u64, Schedule)> = [
        (11, 1, 8_000, 150),
        (11, 2, 8_000, 150),
        (11, 1, 6_500, 120),
        (11, 2, 6_500, 120),
        (11, 1, 9_050, 180),
        (7, 1, 8_000, 150),
        (7, 2, 7_400, 140),
    ]
    .into_iter()
    .map(|(seed, unit, at_ms, len_ms): (u64, u32, u64, u64)| {
        (
            seed,
            Schedule {
                events: vec![FaultEvent::Outage {
                    unit,
                    at: at_ms * MS,
                    until: (at_ms + len_ms) * MS,
                    tear: 0,
                }],
            },
        )
    })
    .collect();
    let arms: Vec<Arm> = vec![
        (
            "skip_ordered_persist",
            bug(|b| b.skip_ordered_persist = true),
            System::Tusk,
            seeded(long_outages.clone()),
            true,
            vec![],
        ),
        (
            "skip_sequence_persist",
            bug(|b| b.skip_sequence_persist = true),
            System::Bullshark,
            seeded(long_outages.clone()),
            true,
            vec![],
        ),
        (
            "skip_inflight_recovery",
            bug(|b| b.skip_inflight_recovery = true),
            System::Bullshark,
            seeded(short_outages.clone()),
            true,
            vec![],
        ),
        (
            "disable_cert_pull",
            bug(|b| b.disable_cert_pull = true),
            System::DagRider,
            seeded(long_outages.clone()),
            true,
            vec![],
        ),
        (
            "skip_sync_barriers",
            bug(|b| b.skip_sync_barriers = true),
            System::BullsharkRep,
            torn_outages.clone(),
            true,
            vec![],
        ),
        (
            "disable_snapshots",
            bug(|b| b.disable_snapshots = true),
            System::Tusk,
            seeded(past_gc_outages.clone()),
            true,
            vec![],
        ),
        (
            "skip_vote_persist",
            bug(|b| b.skip_vote_persist = true),
            System::Tusk,
            voter_crashes,
            true,
            vec![(ValidatorId(0), AdversaryKind::Equivocate)],
        ),
        (
            "equivocate+vote_amnesia",
            SelfTestBugs::default(),
            System::Tusk,
            vec![(11, Schedule::default())],
            true,
            equivocate_amnesia,
        ),
        (
            "censor_pair",
            SelfTestBugs::default(),
            System::Bullshark,
            vec![(11, Schedule::default())],
            true,
            censor_pair.clone(),
        ),
        // The same censoring coalition under pipelined anchors: the
        // fairness window tightens with the every-round cadence, and the
        // checker must still convict a starved victim there.
        (
            "censor_pair_pipelined",
            SelfTestBugs::default(),
            System::BullsharkPipelined,
            vec![(11, Schedule::default())],
            true,
            censor_pair,
        ),
        (
            "delay_release_pair",
            SelfTestBugs::default(),
            System::DagRider,
            vec![(11, Schedule::default())],
            true,
            delay_pair,
        ),
    ];
    arms.into_iter()
        .map(|(bug, bugs, system, candidates, expect_fire, byzantine)| {
            let mut fired: Vec<Checker> = Vec::new();
            let mut tried = 0;
            for (params_seed, schedule) in candidates {
                tried += 1;
                let params = fuzz_params(params_seed);
                let outcome = run_schedule_byz(system, &params, &schedule, bugs, &byzantine);
                if !outcome.violations.is_empty() {
                    fired = outcome.violations.iter().map(|v| v.checker).collect();
                    fired.sort_unstable();
                    fired.dedup();
                    break;
                }
            }
            SelfTestArm {
                bug,
                system,
                fired,
                candidates_tried: tried,
                expect_fire,
                byzantine,
            }
        })
        .collect()
}

/// A deliberately noisy failing case for exercising the shrinker end to
/// end: the violation needs only the outage; the split and spikes are
/// chaff the shrinker must discard.
pub fn noisy_selftest_schedule() -> (Schedule, SelfTestBugs) {
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
        SelfTestBugs {
            skip_sequence_persist: true,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use narwhal::AdversaryKind;
    use nt_types::ValidatorId;

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
            let out = run_schedule_byz(
                System::Bullshark,
                &params,
                &schedule,
                SelfTestBugs::default(),
                &byz,
            );
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
