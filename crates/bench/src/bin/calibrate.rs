//! Calibration probe: prints saturation points for all four systems.
//!
//! This is the tool used to fix the cost constants of `nt_simnet::cost`;
//! it is not part of the figure harness.
use nt_bench::{run_system, BenchParams, System};
use nt_network::SEC;

fn main() {
    let probe = |sys: System, n: usize, w: u32, rate: f64, faults: usize, dur: u64| {
        let params = BenchParams {
            nodes: n,
            workers: w,
            rate,
            faults,
            duration: dur * SEC,
            seed: 1,
        };
        let s = run_system(sys, &params, vec![]);
        println!(
            "{:<12} n={n:2} w={w:2} f={faults} rate={rate:7.0} -> {:7.0} tx/s avg {:6.2}s p50 {:6.2}s",
            sys.name(), s.throughput_tps, s.avg_latency_s, s.p50_latency_s
        );
    };
    // Single-worker saturation (calibration anchor: paper's 140-170k).
    for rate in [100_000.0, 150_000.0, 175_000.0] {
        probe(System::Tusk, 10, 1, rate, 0, 20);
    }
    // Scale-out linearity.
    for w in [1u32, 4, 7, 10] {
        probe(System::Tusk, 4, w, 55_000.0 * w as f64, 0, 15);
    }
    // Comparison systems.
    probe(System::NarwhalHs, 10, 1, 140_000.0, 0, 20);
    probe(System::BatchedHs, 10, 0, 70_000.0, 0, 20);
    probe(System::BaselineHs, 10, 0, 2_000.0, 0, 20);
}
