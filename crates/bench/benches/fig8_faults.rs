//! Figure 8: performance under crash faults.
//!
//! "WAN measurements with 10 validators... One and three faults, 500KB max.
//! block size and 512B transaction size."
//!
//! Paper reference points: baseline HotStuff drops 5x in throughput with
//! latency up 40x; Batched-HS drops ~30x (70k -> 2.5k tx/s) with latency up
//! 10x; Tusk and Narwhal-HS keep high throughput (the reduction tracks the
//! crashed validators' lost capacity), with Tusk's latency least affected
//! (<4 s at 1 fault, <6 s at 3) and Narwhal-HS below ~10 s.

use nt_bench::{print_series, run_system, BenchParams, RunStats, System};
use nt_network::SEC;

fn point(system: System, faults: usize, rate: f64) -> RunStats {
    let params = BenchParams {
        nodes: 10,
        workers: 1,
        rate,
        faults,
        duration: 90 * SEC,
        seed: 1,
    };
    run_system(system, &params, vec![])
}

fn main() {
    println!("Figure 8: crash faults (10 validators, f crashed from t=0)");
    for faults in [0usize, 1, 3] {
        let rows = vec![
            (
                format!("Tusk f={faults}"),
                point(System::Tusk, faults, 80_000.0),
            ),
            (
                format!("Narwhal-HS f={faults}"),
                point(System::NarwhalHs, faults, 80_000.0),
            ),
            (
                format!("Batched-HS f={faults}"),
                point(System::BatchedHs, faults, 40_000.0),
            ),
            (
                format!("Baseline-HS f={faults}"),
                point(System::BaselineHs, faults, 1_500.0),
            ),
        ];
        print_series(
            &format!("Figure 8, {faults} crash fault(s)"),
            "system",
            &rows,
        );
    }
}
