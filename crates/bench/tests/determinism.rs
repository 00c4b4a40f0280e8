//! Determinism regression: the simulator and every DAG system over it are
//! a pure function of the seed. Same seed ⇒ byte-identical commit streams
//! and identical `SimResult` counters, run to run.
//!
//! This is the property the schedule fuzzer's reproducibility rests on —
//! a failing seed must replay the exact run that failed — and the guard
//! against hash-map iteration order (or any other ambient nondeterminism)
//! creeping into `Primary`/`Worker`: both are heavy `HashMap`/`HashSet`
//! users, and any iteration-order-dependent send would shift message
//! timing and fork the commit stream.

use nt_bench::{dag_factories, run_factories, BenchParams, System};
use nt_network::SEC;
use nt_simnet::SimResult;

fn run_once(system: System, seed: u64) -> SimResult {
    let params = BenchParams {
        nodes: 4,
        workers: 1,
        rate: 2_000.0,
        duration: 10 * SEC,
        seed,
        ..Default::default()
    };
    let factories = dag_factories(system, &params, &params.no_restart_config(), |_, b| b);
    run_factories(factories, &params, vec![], vec![], vec![])
}

#[test]
fn same_seed_same_run_for_all_dag_systems() {
    for system in [
        System::Tusk,
        System::DagRider,
        System::Bullshark,
        System::BullsharkRep,
        System::BullsharkPipelined,
        System::FinWhale,
    ] {
        let a = run_once(system, 42);
        let b = run_once(system, 42);
        assert!(
            !a.commits.is_empty(),
            "{}: the run committed something",
            system.name()
        );
        // Byte-identical commit sequences: same times, same emitting
        // nodes, same events (sequence numbers, block identities, payload
        // digests, samples, counters — CommitEvent is compared fieldwise).
        assert_eq!(
            a.commits,
            b.commits,
            "{}: commit streams must be identical across runs",
            system.name()
        );
        // And identical simulator counters.
        assert_eq!(a.delivered, b.delivered, "{}", system.name());
        assert_eq!(a.dropped, b.dropped, "{}", system.name());
        assert_eq!(a.end_time, b.end_time, "{}", system.name());
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the comparison above has teeth: another seed's
    // jitter must shift the stream.
    let a = run_once(System::Tusk, 42);
    let b = run_once(System::Tusk, 43);
    assert_ne!(a.commits, b.commits, "seeds drive the run");
}

#[test]
fn same_seed_same_run_under_a_fault_schedule() {
    // Determinism must also hold on the fuzzer's own path: factories,
    // durable stores, crashes, restarts, torn tails, partitions, spikes.
    use nt_bench::fuzz::{fuzz_params, fuzz_plan, run_schedule};
    use nt_simnet::Schedule;
    let params = fuzz_params(7);
    let schedule = Schedule::generate(7, &fuzz_plan(&params));
    assert!(
        !schedule.events.is_empty(),
        "seed 7 generates a non-trivial schedule"
    );
    let a = run_schedule(System::Bullshark, &params, &schedule);
    let b = run_schedule(System::Bullshark, &params, &schedule);
    assert_eq!(a.commit_events, b.commit_events);
    assert_eq!(a.stats.total_txs, b.stats.total_txs);
    assert_eq!(a.stats.samples, b.stats.samples);
    assert!(a.violations.is_empty() && b.violations.is_empty());
}

/// FNV-1a over the identity of every commit: when, where, which slot of the
/// total order, which block.
fn fold_commits(result: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (time, node, ev) in &result.commits {
        eat(&time.to_le_bytes());
        eat(&(*node as u64).to_le_bytes());
        eat(&ev.sequence.to_le_bytes());
        eat(&ev.round.to_le_bytes());
        eat(&ev.author.0.to_le_bytes());
        eat(ev.header_digest.as_bytes());
    }
    h
}

/// Golden decisions: what each commit rule decided on seed 42 when these
/// values were recorded, with the simulated workers sealing by the batch
/// clock a deployed worker runs (beat, size, age) rather than one synthetic
/// batch per interval. A refactor of the rules must
/// leave them untouched; only a deliberate protocol change may re-pin them
/// (see `.claude/skills/verify/SKILL.md`).
#[test]
fn seed_42_decisions_match_the_recorded_run() {
    let golden: [(System, usize, u64); 6] = [
        (System::Tusk, 564, 0xa7a5_a45a_f714_ead6),
        (System::DagRider, 532, 0xb906_0788_30d8_d4dd),
        (System::Bullshark, 571, 0x2ffa_8fdc_28e6_4234),
        (System::BullsharkRep, 560, 0x0415_fbb0_a0ea_f4b5),
        (System::BullsharkPipelined, 576, 0x9e9b_8c52_5428_4b85),
        (System::FinWhale, 571, 0x2ffa_8fdc_28e6_4234),
    ];
    for (system, commits, fold) in golden {
        let run = run_once(system, 42);
        assert_eq!(
            (run.commits.len(), fold_commits(&run)),
            (commits, fold),
            "{}: (commits, fold) drifted from the recorded run",
            system.name()
        );
    }
}
