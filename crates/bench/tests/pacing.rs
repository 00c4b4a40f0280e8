//! Round pacing on a 4-validator, single-datacentre Tusk committee.
//!
//! Rounds are paced by the commit (§3.1: the DAG advances at network speed),
//! not by idle validators' clocks: a primary with nothing of its own to
//! propose follows a round as soon as it votes for a peer's payload-bearing
//! block of that round, keeps following while any certified payload still
//! awaits its anchor, and only an all-idle committee falls back to one empty
//! round per `max_header_delay`. And no block is left behind by the pace: a
//! block that reaches its peers after they moved on still certifies, or
//! hands its payload to the block that replaces it.

use narwhal::{NarwhalConfig, NoExt, NodeBuilder, Primary, SyntheticLoad};
use nt_bench::RunStats;
use nt_crypto::Scheme;
use nt_network::{Actor, Context, NodeId, Time, MS, SEC};
use nt_simnet::{ActorFactory, HostSpec, LinkSpike, Region, SimConfig, Simulation, Topology};
use nt_types::{CommitEvent, Committee, ProposalCounts, Round, WorkerId};
use std::sync::{Arc, Mutex};
use tusk::{Tusk, TuskMsg};

const DURATION: Time = 3 * SEC;

/// What a [`Probe`] publishes: the primary's round, its proposal counters,
/// and when it entered each round.
#[derive(Default)]
struct Seen {
    round: Round,
    counts: ProposalCounts,
    entered: Vec<(Time, Round)>,
}

/// A primary that publishes its round and proposal counters after every
/// handler, so the test reads them exactly instead of inferring them from
/// commit events.
struct Probe {
    primary: Primary<Tusk>,
    seen: Arc<Mutex<Seen>>,
}

impl Probe {
    fn publish(&self, now: Time) {
        let mut seen = self.seen.lock().expect("probe lock");
        let round = self.primary.round();
        if seen.round != round {
            seen.entered.push((now, round));
        }
        (seen.round, seen.counts) = (round, self.primary.proposal_counts());
    }
}

impl Actor for Probe {
    type Message = TuskMsg;

    fn on_start(&mut self, ctx: &mut Context<TuskMsg>) {
        self.primary.on_start(ctx);
        self.publish(ctx.now());
    }

    fn on_message(&mut self, from: NodeId, msg: TuskMsg, ctx: &mut Context<TuskMsg>) {
        self.primary.on_message(from, msg, ctx);
        self.publish(ctx.now());
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<TuskMsg>) {
        self.primary.on_timer(tag, ctx);
        self.publish(ctx.now());
    }
}

struct Outcome {
    /// Validator 0's round when the run ended.
    round: Round,
    /// Validator 0's own counters (`Primary::proposal_counts`).
    counts: ProposalCounts,
    /// When validator 0 entered each of its rounds.
    entered: Vec<(Time, Round)>,
    /// Validator 0's commits of its own payload-bearing blocks.
    own_commits: Vec<CommitEvent>,
    stats: RunStats,
}

/// Runs the committee for [`DURATION`] with the validators in `loaded`
/// generating one transaction per `max_batch_delay`, each sealed alone as it
/// arrives (the beat it finds is unspent): one batch per interval. The second
/// loaded validator's worker starts half an interval late, so the two streams
/// of batches interleave.
fn run(loaded: &[u32]) -> Outcome {
    run_with(loaded, NarwhalConfig::default(), vec![])
}

/// [`run`] under `base` instead of the default configuration, with `spikes`
/// on the links.
fn run_with(loaded: &[u32], base: NarwhalConfig, spikes: Vec<LinkSpike>) -> Outcome {
    let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
    let load = SyntheticLoad {
        rate_tps: SEC as f64 / base.max_batch_delay as f64,
    };
    let config = |v: u32| NarwhalConfig {
        load: loaded.contains(&v).then_some(load),
        ..base.clone()
    };
    let seen = Arc::new(Mutex::new(Seen::default()));
    let mut factories: Vec<ActorFactory<TuskMsg>> = Vec::new();
    for v in 0..4u32 {
        let (committee, kp, config, seen) = (
            committee.clone(),
            kps[v as usize].clone(),
            config(v),
            // Only validator 0 reports; the others publish into a spare.
            if v == 0 { seen.clone() } else { Arc::default() },
        );
        factories.push(Box::new(move || {
            Box::new(Probe {
                primary: NodeBuilder::new(committee.clone(), v)
                    .config(config.clone())
                    .keypair(kp.clone())
                    .build_primary(Tusk::new(committee.clone(), 1)),
                seen: seen.clone(),
            })
        }));
    }
    for v in 0..4u32 {
        let (committee, config) = (committee.clone(), config(v));
        factories.push(Box::new(move || {
            Box::new(
                NodeBuilder::new(committee.clone(), v)
                    .config(config.clone())
                    .build_worker::<NoExt>(WorkerId(0)),
            )
        }));
    }
    // One region: ~0.5 ms between validators, as on the loopback committee
    // the wall-clock benchmark runs.
    let hosts = (0..8)
        .map(|h| HostSpec::new(h % 4, Region::UsEast1))
        .collect();
    let mut sim = SimConfig::new(1, DURATION);
    sim.spikes = spikes;
    if let Some(&late) = loaded.get(1) {
        // A host crashed at time 0 never starts; its restart is its start.
        let worker = 4 + late as NodeId;
        sim.crashes = vec![(worker, 0)];
        sim.restarts = vec![(worker, base.max_batch_delay / 2)];
    }
    let result = Simulation::new(Topology::new(hosts), sim, factories).run();
    let seen = std::mem::take(&mut *seen.lock().expect("probe lock"));
    let own = |(_, node, event): &(Time, NodeId, CommitEvent)| {
        (*node == 0 && event.author.0 == 0 && event.tx_count > 0).then(|| event.clone())
    };
    Outcome {
        round: seen.round,
        counts: seen.counts,
        entered: seen.entered,
        own_commits: result.commits.iter().filter_map(own).collect(),
        stats: RunStats::from_result(&result, DURATION, 4),
    }
}

#[test]
fn idle_rounds_keep_the_clock_and_loaded_rounds_follow_the_payload() {
    let header_delay = NarwhalConfig::default().max_header_delay;

    // (f) Nobody has payload: one empty round per `max_header_delay`.
    let idle = run(&[]);
    assert!(
        idle.round <= DURATION / header_delay + 2,
        "idle committee reached round {}",
        idle.round
    );
    assert!(idle.round >= DURATION / header_delay - 2, "and it is live");
    assert_eq!(
        (idle.counts.payload, idle.counts.followed),
        (0, 0),
        "every idle block waits out the deadline: {:?}",
        idle.counts
    );

    // (g) Two of four validators loaded, half an interval apart: a round
    // fires at each batch, two per `max_header_delay`.
    let busy = run(&[0, 1]);
    assert!(
        busy.round as f64 >= 1.7 * idle.round as f64,
        "loaded committee reached round {} against {} idle",
        busy.round,
        idle.round
    );
    // At one round per `max_header_delay`, Tusk's ~4.5-round commit depth
    // alone costs 4.5 header delays; no timer-paced cadence gets under it.
    let bound = 4.5 * header_delay as f64 / SEC as f64;
    assert!(
        busy.stats.p50_latency_s < bound,
        "p50 {:.3} s against {bound:.3} s",
        busy.stats.p50_latency_s
    );
    assert!(busy.stats.samples > 0);

    // Every trigger shows, on the primary and in the run's statistics: own
    // payload, following validator 1's, and the deadline before the first
    // batch exists.
    for counts in [busy.counts, busy.stats.proposals] {
        assert!(
            counts.payload > 0 && counts.followed > 0 && counts.deadline > 0,
            "{counts:?}"
        );
        assert_eq!(counts.wish, 0, "Tusk wishes for nothing");
    }
    // Validators 2 and 3 never have payload of their own.
    assert!(busy.stats.proposals.followed > 2 * busy.counts.followed);
}

/// (h) The orphan cliff. Validator 0 alone has payload, one transaction per
/// `max_batch_delay`; for 10 ms in mid-run everything between its primary and
/// the other three takes 30 ms longer, so the block it proposes on the
/// transaction that arrives just then reaches its peers after their idle-round
/// deadline: they have closed the round among themselves. Such a block used to
/// get no vote (§3.1 condition (2)), never certified, and its batch sat until
/// garbage collection re-injected it `gc_depth` = 50 rounds — five seconds at
/// this pace — later. Now it still certifies (the late vote), its author's
/// next block waits for that certificate and links it (the wait for what one
/// voted for, own block included), and the peers, not having proposed the
/// next round yet, build on it too: every batch commits within 8 rounds of the
/// one validator 0 was in when its first transaction arrived, which is no
/// later than its worker sealed it. (A validator cut off for several rounds is
/// a different case: it jumps ahead on its return, the block it left behind
/// may certify with nothing to link it, and that one still waits for GC.)
#[test]
fn a_block_that_reaches_its_peers_late_still_commits_within_eight_rounds() {
    // One latency sample per batch: its oldest arrival. Arrival i is due at
    // i * `max_batch_delay`, so a sample names its batch's first transaction.
    let config = NarwhalConfig::default();
    let gap = config.max_batch_delay;
    let (from, until) = (1_000 * MS, 1_010 * MS);
    let spike = |peer| LinkSpike {
        a: 0,
        b: peer,
        from,
        until,
        extra: 30 * MS,
    };
    let late = run_with(&[0], config.clone(), (1..4).map(spike).collect());
    let round_at = |at: Time| {
        let entered = late.entered.iter().rev().find(|(t, _)| *t <= at);
        entered.map_or(0, |(_, round)| *round)
    };
    let mut firsts = Vec::new();
    for event in &late.own_commits {
        for sample in &event.samples {
            let rounds = event.decided_round - round_at(sample.submit_ns);
            assert!(
                rounds <= 8,
                "the batch opened at {} ms (round {}) committed {rounds} rounds later",
                sample.submit_ns / MS,
                round_at(sample.submit_ns)
            );
            firsts.push(sample.submit_ns / gap);
        }
    }
    // None is missing or doubled either. The batches split the arrivals 1, 2,
    // 3, ... into runs, so a batch ends where the next one starts, and a block
    // holds its batches' runs: a batch missing from the commits would stretch
    // the run before it past its block's count.
    firsts.sort_unstable();
    assert_eq!(firsts.first(), Some(&1), "the first batch");
    assert!(
        firsts.windows(2).all(|w| w[0] < w[1]),
        "one batch an arrival"
    );
    let run = |first: u64| firsts.iter().find(|f| **f > first).map(|next| next - first);
    let mut end = 0;
    for event in &late.own_commits {
        let runs: Vec<Option<u64>> = event
            .samples
            .iter()
            .map(|s| run(s.submit_ns / gap))
            .collect();
        let known: u64 = runs.iter().flatten().sum();
        if runs.contains(&None) {
            // The last batch: its run is what its block holds beyond the rest.
            end = firsts[firsts.len() - 1] + event.tx_count - known;
        } else {
            assert_eq!(known, event.tx_count, "the block of round {}", event.round);
        }
    }
    // And every arrival up to the tail of the run is in one.
    let tail = DURATION - 5 * config.max_header_delay;
    assert!(
        end * gap > tail,
        "committed arrivals end at {} ms",
        end * gap / MS
    );
}
