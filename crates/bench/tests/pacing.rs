//! Round pacing on a 4-validator, single-datacentre Tusk committee.
//!
//! Rounds are paced by payload arriving anywhere in the committee (§3.1: the
//! DAG advances at network speed), not by idle validators' clocks: a primary
//! with nothing of its own to propose follows a round as soon as it votes
//! for a peer's payload-bearing block of that round, and only an all-idle
//! committee falls back to one empty round per `max_header_delay`.

use narwhal::{NarwhalConfig, NoExt, NodeBuilder, Primary, SyntheticLoad};
use nt_bench::RunStats;
use nt_crypto::Scheme;
use nt_network::{Actor, Context, NodeId, Time, SEC};
use nt_simnet::{ActorFactory, HostSpec, Region, SimConfig, Simulation, Topology};
use nt_types::{Committee, ProposalCounts, Round, WorkerId};
use std::sync::{Arc, Mutex};
use tusk::{Tusk, TuskMsg};

const DURATION: Time = 3 * SEC;

/// A primary that publishes its round and proposal counters after every
/// handler, so the test reads them exactly instead of inferring them from
/// commit events.
struct Probe {
    primary: Primary<Tusk>,
    seen: Arc<Mutex<(Round, ProposalCounts)>>,
}

impl Probe {
    fn publish(&self) {
        *self.seen.lock().expect("probe lock") =
            (self.primary.round(), self.primary.proposal_counts());
    }
}

impl Actor for Probe {
    type Message = TuskMsg;

    fn on_start(&mut self, ctx: &mut Context<TuskMsg>) {
        self.primary.on_start(ctx);
        self.publish();
    }

    fn on_message(&mut self, from: NodeId, msg: TuskMsg, ctx: &mut Context<TuskMsg>) {
        self.primary.on_message(from, msg, ctx);
        self.publish();
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<TuskMsg>) {
        self.primary.on_timer(tag, ctx);
        self.publish();
    }
}

struct Outcome {
    /// Validator 0's round when the run ended.
    round: Round,
    /// Validator 0's own counters (`Primary::proposal_counts`).
    counts: ProposalCounts,
    stats: RunStats,
}

/// Runs the committee for [`DURATION`] with the validators in `loaded`
/// sealing one 100-transaction batch per `max_batch_delay`; the second
/// loaded validator's worker starts half an interval late, so the two
/// streams of batches interleave.
fn run(loaded: &[u32]) -> Outcome {
    let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
    let base = NarwhalConfig::default();
    let load = SyntheticLoad {
        rate_tps: 100.0 * SEC as f64 / base.max_batch_delay as f64,
    };
    let config = |v: u32| NarwhalConfig {
        load: loaded.contains(&v).then_some(load),
        ..base.clone()
    };
    let seen = Arc::new(Mutex::new((0, ProposalCounts::default())));
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
    if let Some(&late) = loaded.get(1) {
        // A host crashed at time 0 never starts; its restart is its start.
        let worker = 4 + late as NodeId;
        sim.crashes = vec![(worker, 0)];
        sim.restarts = vec![(worker, base.max_batch_delay / 2)];
    }
    let result = Simulation::from_factories(Topology::new(hosts), sim, factories).run();
    let (round, counts) = *seen.lock().expect("probe lock");
    Outcome {
        round,
        counts,
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
