//! Seeded random fault-schedule generation and shrinking.
//!
//! The simulator is bit-for-bit deterministic per seed, which makes it a
//! FoundationDB-style fuzzing substrate: sample a random *schedule* of
//! faults (crashes + restarts, torn store tails at restart, partitions
//! that form and heal, per-link delay spikes), run the system under it,
//! and check invariants. A failing seed reproduces exactly; a failing
//! schedule shrinks to a minimal reproducer with [`shrink`].
//!
//! Schedules are expressed over committee **units** (validator indexes),
//! not raw host ids: a unit's primary and workers fault together, the way
//! a real machine or rack does. The harness maps units to host ids when
//! applying a schedule to a [`SimConfig`] (see [`Schedule::apply`]).
//!
//! Generation is *sound by construction* for the safety checkers layered
//! on top: every outage restarts before the quiet tail, fault windows are
//! bounded so no validator falls further behind than the garbage-collection
//! window can recover (outages past `gc_depth` rounds need state transfer,
//! which is tracked as an open item), and the total fault mass is capped so
//! the run always reaches a fault-free steady state to assert against.

use crate::sim::{LinkSpike, Partition, SimConfig};
use nt_network::{NodeId, Time, MS};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// One scheduled fault over committee units.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultEvent {
    /// Unit `unit` crashes at `at` and restarts at `until`; at the restart,
    /// the last `tear` write operations of its durable store are discarded
    /// (a torn WAL tail — the crash happened mid-write). `tear: 0` models a
    /// clean crash after a sync.
    Outage {
        /// The crashing unit.
        unit: u32,
        /// Crash time.
        at: Time,
        /// Restart time.
        until: Time,
        /// Store write operations torn off the tail at restart.
        tear: u32,
    },
    /// The units in `side` are partitioned from the rest of the committee
    /// during `[from, until)`; the partition then heals.
    Split {
        /// One side of the partition (the rest of the committee is the
        /// other side).
        side: Vec<u32>,
        /// Partition start (inclusive).
        from: Time,
        /// Partition end (exclusive).
        until: Time,
    },
    /// Every link between units `a` and `b` carries `extra` additional
    /// one-way delay during `[from, until)`.
    Spike {
        /// One endpoint unit.
        a: u32,
        /// The other endpoint unit.
        b: u32,
        /// Spike start (inclusive).
        from: Time,
        /// Spike end (exclusive).
        until: Time,
        /// Additional one-way delay.
        extra: Time,
    },
    /// Links between the *worker* hosts of units `a` and `b` carry `extra`
    /// additional one-way delay during `[from, until)`. The primary-primary
    /// link is untouched, so the DAG keeps certifying while batch
    /// dissemination between the two units lags behind it — the scale-out
    /// bottleneck surface (§4.2) that uniform spikes can't isolate.
    WorkerSpike {
        /// One endpoint unit.
        a: u32,
        /// The other endpoint unit.
        b: u32,
        /// Spike start (inclusive).
        from: Time,
        /// Spike end (exclusive).
        until: Time,
        /// Additional one-way delay.
        extra: Time,
    },
}

impl FaultEvent {
    /// The `[start, end)` window this event is active over.
    pub fn window(&self) -> (Time, Time) {
        match self {
            FaultEvent::Outage { at, until, .. } => (*at, *until),
            FaultEvent::Split { from, until, .. } => (*from, *until),
            FaultEvent::Spike { from, until, .. } => (*from, *until),
            FaultEvent::WorkerSpike { from, until, .. } => (*from, *until),
        }
    }

    /// Strictly weaker variants of this event, strongest first — the
    /// shrinker's narrowing candidates. Times stay millisecond-aligned so
    /// minimized reproducers print cleanly.
    fn weakened(&self) -> Vec<FaultEvent> {
        let mut out = Vec::new();
        let halve = |start: Time, end: Time| -> Option<Time> {
            let len = end - start;
            let half = (len / 2) / MS * MS;
            (half >= 100 * MS && half < len).then_some(start + half)
        };
        match self {
            FaultEvent::Outage {
                unit,
                at,
                until,
                tear,
            } => {
                if *tear > 0 {
                    out.push(FaultEvent::Outage {
                        unit: *unit,
                        at: *at,
                        until: *until,
                        tear: 0,
                    });
                    if *tear > 1 {
                        out.push(FaultEvent::Outage {
                            unit: *unit,
                            at: *at,
                            until: *until,
                            tear: tear / 2,
                        });
                    }
                }
                if let Some(mid) = halve(*at, *until) {
                    out.push(FaultEvent::Outage {
                        unit: *unit,
                        at: *at,
                        until: mid,
                        tear: *tear,
                    });
                }
            }
            FaultEvent::Split { side, from, until } => {
                if side.len() > 1 {
                    out.push(FaultEvent::Split {
                        side: side[..side.len() / 2].to_vec(),
                        from: *from,
                        until: *until,
                    });
                }
                if let Some(mid) = halve(*from, *until) {
                    out.push(FaultEvent::Split {
                        side: side.clone(),
                        from: *from,
                        until: mid,
                    });
                }
            }
            FaultEvent::Spike {
                a,
                b,
                from,
                until,
                extra,
            } => {
                if let Some(mid) = halve(*from, *until) {
                    out.push(FaultEvent::Spike {
                        a: *a,
                        b: *b,
                        from: *from,
                        until: mid,
                        extra: *extra,
                    });
                }
                if *extra >= 2 * MS {
                    out.push(FaultEvent::Spike {
                        a: *a,
                        b: *b,
                        from: *from,
                        until: *until,
                        extra: extra / 2 / MS * MS,
                    });
                }
            }
            FaultEvent::WorkerSpike {
                a,
                b,
                from,
                until,
                extra,
            } => {
                if let Some(mid) = halve(*from, *until) {
                    out.push(FaultEvent::WorkerSpike {
                        a: *a,
                        b: *b,
                        from: *from,
                        until: mid,
                        extra: *extra,
                    });
                }
                if *extra >= 2 * MS {
                    out.push(FaultEvent::WorkerSpike {
                        a: *a,
                        b: *b,
                        from: *from,
                        until: *until,
                        extra: extra / 2 / MS * MS,
                    });
                }
            }
        }
        out
    }

    fn to_rust(&self) -> String {
        let ms = |t: Time| -> String {
            if t.is_multiple_of(MS) {
                format!("{} * MS", t / MS)
            } else {
                format!("{t}")
            }
        };
        match self {
            FaultEvent::Outage {
                unit,
                at,
                until,
                tear,
            } => format!(
                "FaultEvent::Outage {{ unit: {unit}, at: {}, until: {}, tear: {tear} }}",
                ms(*at),
                ms(*until)
            ),
            FaultEvent::Split { side, from, until } => format!(
                "FaultEvent::Split {{ side: vec!{side:?}, from: {}, until: {} }}",
                ms(*from),
                ms(*until)
            ),
            FaultEvent::Spike {
                a,
                b,
                from,
                until,
                extra,
            } => format!(
                "FaultEvent::Spike {{ a: {a}, b: {b}, from: {}, until: {}, extra: {} }}",
                ms(*from),
                ms(*until),
                ms(*extra)
            ),
            FaultEvent::WorkerSpike {
                a,
                b,
                from,
                until,
                extra,
            } => format!(
                "FaultEvent::WorkerSpike {{ a: {a}, b: {b}, from: {}, until: {}, extra: {} }}",
                ms(*from),
                ms(*until),
                ms(*extra)
            ),
        }
    }
}

/// A fault schedule: what [`Schedule::generate`] samples and the checkers
/// run systems under.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Schedule {
    /// The scheduled faults, in generation order (times may interleave).
    pub events: Vec<FaultEvent>,
}

/// No fault starts before this (the DAG gets going first).
pub const WARMUP: Time = nt_network::SEC;

/// Maximum number of events per schedule.
pub const MAX_EVENTS: usize = 7;

/// Maximum store operations torn at a restart.
pub const MAX_TEAR: u32 = 12;

/// Minimum gap between two outages of the *same* unit: a restarted
/// validator needs real time to pull the rounds it missed (or to fetch and
/// install a snapshot) before the next crash throws the (volatile) sync
/// state away.
pub const UNIT_OUTAGE_GAP: Time = 3 * nt_network::SEC;

/// Generation envelope for [`Schedule::generate`]. At most
/// `f = (units - 1) / 3` units are in outage at the same instant, which
/// keeps a quorum of *some* committee members alive through the run.
#[derive(Clone, Debug)]
pub struct FuzzPlan {
    /// Committee size (units are `0..units`).
    pub units: u32,
    /// Simulated run length; fault windows live well inside it.
    pub horizon: Time,
    /// No fault is active after `horizon - quiet_tail`: every run ends in
    /// a fault-free window the liveness/catch-up checkers assert against.
    pub quiet_tail: Time,
    /// Maximum length of any single fault window.
    pub max_window: Time,
    /// Cap on one unit's summed outage time, for the same reason as
    /// [`UNIT_OUTAGE_GAP`].
    pub unit_downtime: Time,
    /// Cap on the summed window lengths of all events: bounds how far any
    /// validator can fall behind. Deployments without snapshot state
    /// transfer must keep this well under `gc_depth` rounds of simulated
    /// time; snapshot-capable runs may exceed it (the laggard recovers via
    /// a signed snapshot instead of per-certificate sync).
    pub fault_mass: Time,
    /// Allow [`FaultEvent::WorkerSpike`] events (half of sampled spikes
    /// become worker-only). Off by default: legacy plans must keep
    /// generating byte-identical schedules per seed, because shrunk
    /// reproducers pin `(seed, schedule)` pairs.
    pub worker_spikes: bool,
}

impl FuzzPlan {
    /// A plan with proportions that exercise every fault kind while
    /// keeping schedules recoverable (see field docs).
    pub fn new(units: u32, horizon: Time) -> Self {
        let sec = nt_network::SEC;
        FuzzPlan {
            units,
            horizon,
            quiet_tail: 6 * sec,
            max_window: 4 * sec,
            unit_downtime: 5 * sec,
            fault_mass: 9 * sec,
            worker_spikes: false,
        }
    }
}

impl Schedule {
    /// Samples a random schedule. Same `(seed, plan)` ⇒ same schedule.
    ///
    /// Events are accepted under the plan's constraints (windows inside
    /// `[WARMUP, horizon - quiet_tail)`, one outage at a time per unit,
    /// bounded concurrency and fault mass); candidates that violate them
    /// are re-rolled a bounded number of times, so a schedule may end up
    /// with fewer events than sampled — or, rarely, none.
    pub fn generate(seed: u64, plan: &FuzzPlan) -> Schedule {
        assert!(plan.units >= 1, "need a committee");
        assert!(
            WARMUP + plan.quiet_tail < plan.horizon,
            "no room for faults"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_fa57_f0a1_7a11);
        let mut events: Vec<FaultEvent> = Vec::new();
        let target = rng.random_range_u64(1, MAX_EVENTS as u64 + 1) as usize;
        let max_concurrent_down = (plan.units - 1) / 3;
        let fault_end = plan.horizon - plan.quiet_tail;
        let min_window = 200 * MS;
        let mut mass: Time = 0;
        let mut attempts = 0;
        while events.len() < target && attempts < MAX_EVENTS * 16 {
            attempts += 1;
            if mass + min_window > plan.fault_mass {
                break;
            }
            // Sample a window, millisecond-aligned.
            let max_len = plan.max_window.min(plan.fault_mass - mass);
            let len = rng.random_range_u64(min_window / MS, max_len / MS + 1) * MS;
            if WARMUP + len >= fault_end {
                continue;
            }
            let from = rng.random_range_u64(WARMUP / MS, (fault_end - len) / MS + 1) * MS;
            let until = from + len;
            let kind = rng.random_range_u64(0, 100);
            let candidate = if kind < 50 {
                let unit = rng.random_range_u64(0, plan.units as u64) as u32;
                // Outages of one unit must be separated by the recovery
                // gap (which also keeps crash/restart pairing unambiguous)
                // and fit its downtime budget; and never more than
                // `max_concurrent_down` units may be down at once.
                let gap = UNIT_OUTAGE_GAP;
                let clashes = events.iter().any(|e| match e {
                    FaultEvent::Outage {
                        unit: u,
                        at: e_at,
                        until: e_until,
                        ..
                    } => *u == unit && from < e_until + gap && *e_at < until + gap,
                    _ => false,
                });
                if clashes {
                    continue;
                }
                let downtime: Time = events
                    .iter()
                    .filter_map(|e| match e {
                        FaultEvent::Outage {
                            unit: u, at, until, ..
                        } if *u == unit => Some(*until - *at),
                        _ => None,
                    })
                    .sum();
                if downtime + len > plan.unit_downtime {
                    continue;
                }
                let concurrent = events
                    .iter()
                    .filter(|e| match e {
                        FaultEvent::Outage { at, until: u2, .. } => from < *u2 && *at < until,
                        _ => false,
                    })
                    .count() as u32;
                if concurrent >= max_concurrent_down {
                    continue;
                }
                let tear = if rng.random_bool(0.5) {
                    rng.random_range_u64(1, MAX_TEAR as u64 + 1) as u32
                } else {
                    0
                };
                FaultEvent::Outage {
                    unit,
                    at: from,
                    until,
                    tear,
                }
            } else if kind < 75 && plan.units >= 2 {
                let mut units: Vec<u32> = (0..plan.units).collect();
                use rand::seq::SliceRandom;
                units.shuffle(&mut rng);
                let side_len = rng.random_range_u64(1, plan.units as u64) as usize;
                let mut side = units[..side_len].to_vec();
                side.sort_unstable();
                FaultEvent::Split { side, from, until }
            } else if plan.units >= 2 {
                let a = rng.random_range_u64(0, plan.units as u64) as u32;
                let mut b = rng.random_range_u64(0, plan.units as u64 - 1) as u32;
                if b >= a {
                    b += 1;
                }
                let extra = rng.random_range_u64(50, 800) * MS;
                let (a, b) = (a.min(b), a.max(b));
                // The short-circuit keeps legacy plans off this draw, so
                // their seeds still map to byte-identical schedules.
                if plan.worker_spikes && rng.random_bool(0.5) {
                    FaultEvent::WorkerSpike {
                        a,
                        b,
                        from,
                        until,
                        extra,
                    }
                } else {
                    FaultEvent::Spike {
                        a,
                        b,
                        from,
                        until,
                        extra,
                    }
                }
            } else {
                continue;
            };
            mass += len;
            events.push(candidate);
        }
        Schedule { events }
    }

    /// Applies the schedule to a [`SimConfig`], mapping unit `u` to the
    /// hosts `unit_hosts[u]` (a validator's primary and workers fault as
    /// one machine). Torn tails are *not* applied here — they mutate
    /// stores, which the simulator does not know about; the harness reads
    /// them via [`Schedule::tears`] and installs a restart hook.
    pub fn apply(&self, config: &mut SimConfig, unit_hosts: &[Vec<NodeId>]) {
        for event in &self.events {
            match event {
                FaultEvent::Outage {
                    unit, at, until, ..
                } => {
                    for &host in &unit_hosts[*unit as usize] {
                        config.crashes.push((host, *at));
                        config.restarts.push((host, *until));
                    }
                }
                FaultEvent::Split { side, from, until } => {
                    let in_side = |u: usize| side.contains(&(u as u32));
                    config.partitions.push(Partition {
                        group_a: (0..unit_hosts.len())
                            .filter(|u| in_side(*u))
                            .flat_map(|u| unit_hosts[u].iter().copied())
                            .collect(),
                        group_b: (0..unit_hosts.len())
                            .filter(|u| !in_side(*u))
                            .flat_map(|u| unit_hosts[u].iter().copied())
                            .collect(),
                        from: *from,
                        until: *until,
                    });
                }
                FaultEvent::Spike {
                    a,
                    b,
                    from,
                    until,
                    extra,
                } => {
                    for &x in &unit_hosts[*a as usize] {
                        for &y in &unit_hosts[*b as usize] {
                            config.spikes.push(LinkSpike {
                                a: x,
                                b: y,
                                from: *from,
                                until: *until,
                                extra: *extra,
                            });
                        }
                    }
                }
                FaultEvent::WorkerSpike {
                    a,
                    b,
                    from,
                    until,
                    extra,
                } => {
                    // A unit's host list is primary-first; only the worker
                    // tails get the spike.
                    for &x in &unit_hosts[*a as usize][1..] {
                        for &y in &unit_hosts[*b as usize][1..] {
                            config.spikes.push(LinkSpike {
                                a: x,
                                b: y,
                                from: *from,
                                until: *until,
                                extra: *extra,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Torn-tail injections this schedule requires: `(unit, restart time,
    /// ops to tear)`, one per outage with a non-zero tear.
    pub fn tears(&self) -> Vec<(u32, Time, u32)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Outage {
                    unit, until, tear, ..
                } if *tear > 0 => Some((*unit, *until, *tear)),
                _ => None,
            })
            .collect()
    }

    /// End of the last fault window (0 for an empty schedule) — the run is
    /// fault-free after this.
    pub fn last_fault_time(&self) -> Time {
        self.events.iter().map(|e| e.window().1).max().unwrap_or(0)
    }

    /// Restart times of `unit`, ascending — the instants its commit
    /// sequence is allowed to roll back to a persisted prefix.
    pub fn restarts_of(&self, unit: u32) -> Vec<Time> {
        let mut times: Vec<Time> = self
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Outage { unit: u, until, .. } if *u == unit => Some(*until),
                _ => None,
            })
            .collect();
        times.sort_unstable();
        times
    }

    /// One-line census, e.g. `"3 events (2 outages, 1 split, 0 spikes)"`.
    pub fn summary(&self) -> String {
        let outages = self
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Outage { .. }))
            .count();
        let splits = self
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Split { .. }))
            .count();
        let spikes = self.events.len() - outages - splits;
        format!(
            "{} events ({outages} outages, {splits} splits, {spikes} spikes)",
            self.events.len()
        )
    }

    /// Renders the schedule as a copy-pasteable Rust expression (times in
    /// `MS` multiples where aligned), for regression tests of shrunk
    /// reproducers.
    pub fn to_rust(&self) -> String {
        let mut out = String::from("Schedule {\n    events: vec![\n");
        for event in &self.events {
            out.push_str("        ");
            out.push_str(&event.to_rust());
            out.push_str(",\n");
        }
        out.push_str("    ],\n}");
        out
    }
}

/// Greedily minimizes a failing schedule: drops whole events, then narrows
/// the survivors (shorter windows, smaller tears, thinner partition sides),
/// re-testing each candidate with `still_fails` and keeping every change
/// that preserves the failure. Runs to a fixpoint; the result still fails.
///
/// `still_fails` must be deterministic (re-run the same seeded simulation)
/// and must return `true` for `schedule` itself.
pub fn shrink(schedule: &Schedule, still_fails: &mut dyn FnMut(&Schedule) -> bool) -> Schedule {
    let mut best = schedule.clone();
    loop {
        let mut progress = false;
        // Pass 1: drop events, first-to-last, restarting after each hit so
        // indexes stay valid.
        let mut i = 0;
        while i < best.events.len() {
            let mut candidate = best.clone();
            candidate.events.remove(i);
            if still_fails(&candidate) {
                best = candidate;
                progress = true;
            } else {
                i += 1;
            }
        }
        // Pass 2: weaken each surviving event in place.
        for i in 0..best.events.len() {
            loop {
                let mut weakened = false;
                for replacement in best.events[i].weakened() {
                    let mut candidate = best.clone();
                    candidate.events[i] = replacement;
                    if still_fails(&candidate) {
                        best = candidate;
                        weakened = true;
                        progress = true;
                        break;
                    }
                }
                if !weakened {
                    break;
                }
            }
        }
        if !progress {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_network::SEC;

    fn plan() -> FuzzPlan {
        FuzzPlan::new(4, 20 * SEC)
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let plan = plan();
        assert_eq!(
            Schedule::generate(7, &plan),
            Schedule::generate(7, &plan),
            "same seed, same schedule"
        );
        let distinct = (0..20u64)
            .map(|s| Schedule::generate(s, &plan))
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct >= 18, "seeds diversify schedules: {distinct}");
    }

    #[test]
    fn generation_respects_the_plan_envelope() {
        let plan = plan();
        for seed in 0..300u64 {
            let schedule = Schedule::generate(seed, &plan);
            assert!(schedule.events.len() <= MAX_EVENTS);
            let mut mass = 0;
            for event in &schedule.events {
                let (from, until) = event.window();
                assert!(from >= WARMUP, "seed {seed}: fault in warmup");
                assert!(
                    until <= plan.horizon - plan.quiet_tail,
                    "seed {seed}: fault reaches into the quiet tail"
                );
                assert!(until > from, "seed {seed}: empty window");
                assert!(until - from <= plan.max_window, "seed {seed}: long window");
                mass += until - from;
                match event {
                    FaultEvent::Outage { unit, tear, .. } => {
                        assert!(*unit < plan.units);
                        assert!(*tear <= MAX_TEAR);
                    }
                    FaultEvent::Split { side, .. } => {
                        assert!(!side.is_empty() && side.len() < plan.units as usize);
                        assert!(side.iter().all(|u| *u < plan.units));
                    }
                    FaultEvent::Spike { a, b, .. } => {
                        assert!(a < b && *b < plan.units, "canonical distinct pair");
                    }
                    FaultEvent::WorkerSpike { a, b, .. } => {
                        assert!(a < b && *b < plan.units, "canonical distinct pair");
                    }
                }
            }
            assert!(mass <= plan.fault_mass, "seed {seed}: fault mass {mass}");
            // Per-unit outages keep the recovery gap and downtime budget.
            for unit in 0..plan.units {
                let mut windows: Vec<(Time, Time)> = schedule
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        FaultEvent::Outage {
                            unit: u, at, until, ..
                        } if *u == unit => Some((*at, *until)),
                        _ => None,
                    })
                    .collect();
                windows.sort_unstable();
                for pair in windows.windows(2) {
                    assert!(
                        pair[0].1 + UNIT_OUTAGE_GAP <= pair[1].0,
                        "seed {seed}: outages of unit {unit} closer than the recovery gap"
                    );
                }
                let downtime: Time = windows.iter().map(|(a, b)| b - a).sum();
                assert!(
                    downtime <= plan.unit_downtime,
                    "seed {seed}: unit {unit} downtime {downtime} over budget"
                );
            }
        }
    }

    #[test]
    fn every_fault_kind_appears_in_a_small_corpus() {
        let plan = plan();
        let mut outages = 0;
        let mut splits = 0;
        let mut spikes = 0;
        let mut tears = 0;
        for seed in 0..100u64 {
            for event in Schedule::generate(seed, &plan).events {
                match event {
                    FaultEvent::Outage { tear, .. } => {
                        outages += 1;
                        tears += (tear > 0) as usize;
                    }
                    FaultEvent::Split { .. } => splits += 1,
                    FaultEvent::Spike { .. } => spikes += 1,
                    FaultEvent::WorkerSpike { .. } => {
                        panic!("worker spikes are opt-in; this plan never enables them")
                    }
                }
            }
        }
        assert!(outages > 50, "outages: {outages}");
        assert!(tears > 10, "torn tails: {tears}");
        assert!(splits > 20, "splits: {splits}");
        assert!(spikes > 20, "spikes: {spikes}");
    }

    #[test]
    fn worker_spikes_are_opt_in_and_leave_legacy_seeds_untouched() {
        let legacy = plan();
        let mut opted = plan();
        opted.worker_spikes = true;
        let mut worker_spikes = 0;
        for seed in 0..100u64 {
            // The flag only costs an extra coin flip on the spike branch:
            // schedules that never took that branch are event-for-event
            // identical to the legacy plan's.
            let opted_schedule = Schedule::generate(seed, &opted);
            if !opted_schedule
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::Spike { .. } | FaultEvent::WorkerSpike { .. }))
            {
                assert_eq!(opted_schedule, Schedule::generate(seed, &legacy));
            }
            worker_spikes += opted_schedule
                .events
                .iter()
                .filter(|e| matches!(e, FaultEvent::WorkerSpike { .. }))
                .count();
        }
        assert!(worker_spikes > 10, "worker spikes: {worker_spikes}");
    }

    #[test]
    fn apply_maps_units_to_their_hosts() {
        let schedule = Schedule {
            events: vec![
                FaultEvent::Outage {
                    unit: 1,
                    at: 2 * SEC,
                    until: 3 * SEC,
                    tear: 4,
                },
                FaultEvent::Split {
                    side: vec![0],
                    from: 4 * SEC,
                    until: 5 * SEC,
                },
                FaultEvent::Spike {
                    a: 0,
                    b: 1,
                    from: 6 * SEC,
                    until: 7 * SEC,
                    extra: 100 * MS,
                },
                FaultEvent::WorkerSpike {
                    a: 0,
                    b: 1,
                    from: 8 * SEC,
                    until: 9 * SEC,
                    extra: 200 * MS,
                },
            ],
        };
        // Unit 0 = hosts {0, 2}, unit 1 = hosts {1, 3} (primary + worker).
        let unit_hosts = vec![vec![0, 2], vec![1, 3]];
        let mut config = SimConfig::new(1, 20 * SEC);
        schedule.apply(&mut config, &unit_hosts);
        assert_eq!(config.crashes, vec![(1, 2 * SEC), (3, 2 * SEC)]);
        assert_eq!(config.restarts, vec![(1, 3 * SEC), (3, 3 * SEC)]);
        assert_eq!(config.partitions.len(), 1);
        assert_eq!(config.partitions[0].group_a, vec![0, 2]);
        assert_eq!(config.partitions[0].group_b, vec![1, 3]);
        assert_eq!(config.spikes.len(), 5, "4 full-mesh pairs + 1 worker pair");
        let worker_spike = config.spikes.last().unwrap();
        assert_eq!(
            (worker_spike.a, worker_spike.b),
            (2, 3),
            "worker spike touches the worker hosts only"
        );
        assert_eq!(schedule.tears(), vec![(1, 3 * SEC, 4)]);
        assert_eq!(schedule.restarts_of(1), vec![3 * SEC]);
        assert_eq!(schedule.last_fault_time(), 9 * SEC);
    }

    #[test]
    fn shrink_drops_irrelevant_events_and_narrows() {
        // Oracle: fails iff some outage of unit 2 with tear > 0 exists.
        let mut oracle = |s: &Schedule| {
            s.events
                .iter()
                .any(|e| matches!(e, FaultEvent::Outage { unit: 2, tear, .. } if *tear > 0))
        };
        let noisy = Schedule {
            events: vec![
                FaultEvent::Split {
                    side: vec![0, 1],
                    from: 2 * SEC,
                    until: 4 * SEC,
                },
                FaultEvent::Outage {
                    unit: 2,
                    at: 5 * SEC,
                    until: 8 * SEC,
                    tear: 9,
                },
                FaultEvent::Spike {
                    a: 0,
                    b: 3,
                    from: 9 * SEC,
                    until: 10 * SEC,
                    extra: 300 * MS,
                },
                FaultEvent::Outage {
                    unit: 1,
                    at: 11 * SEC,
                    until: 12 * SEC,
                    tear: 0,
                },
            ],
        };
        assert!(oracle(&noisy));
        let minimal = shrink(&noisy, &mut oracle);
        assert_eq!(minimal.events.len(), 1, "everything irrelevant dropped");
        match &minimal.events[0] {
            FaultEvent::Outage {
                unit,
                at,
                until,
                tear,
            } => {
                assert_eq!(*unit, 2);
                assert_eq!(*tear, 1, "tear narrowed to the minimum that fails");
                assert!(until - at <= 200 * MS, "window narrowed");
            }
            other => panic!("unexpected survivor: {other:?}"),
        }
        assert!(oracle(&minimal), "the result still fails");
    }

    #[test]
    fn to_rust_is_copy_pasteable() {
        let schedule = Schedule {
            events: vec![FaultEvent::Outage {
                unit: 3,
                at: 4_100 * MS,
                until: 8 * SEC,
                tear: 7,
            }],
        };
        let code = schedule.to_rust();
        assert!(
            code.contains(
                "FaultEvent::Outage { unit: 3, at: 4100 * MS, until: 8000 * MS, tear: 7 }"
            ),
            "rendered: {code}"
        );
        // And the rendered form evaluates back to the same schedule.
        let rebuilt = Schedule {
            events: vec![FaultEvent::Outage {
                unit: 3,
                at: 4100 * MS,
                until: 8000 * MS,
                tear: 7,
            }],
        };
        assert_eq!(schedule, rebuilt);
    }
}
