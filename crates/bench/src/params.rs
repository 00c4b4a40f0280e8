//! Experiment parameters, mirroring the paper's `bench_params` (§B.4).

use narwhal::NarwhalConfig;
use nt_network::{Time, SEC};

/// One experiment configuration point. Transactions are
/// [`nt_types::TX_BYTES`] (512 B) long, as in every experiment of the paper.
#[derive(Clone, Debug)]
pub struct BenchParams {
    /// Number of validators (paper: 4, 10, 20, 50).
    pub nodes: usize,
    /// Workers per validator (paper: 1 collocated, or 4/7/10 dedicated).
    pub workers: u32,
    /// Total system input rate, transactions per second.
    pub rate: f64,
    /// Crashed validators (paper: 0, 1, 3).
    pub faults: usize,
    /// Simulated duration (paper runs 300 s; the DES reaches steady state
    /// much sooner, so benches default to shorter windows).
    pub duration: Time,
    /// RNG seed; also the coin domain.
    pub seed: u64,
}

impl Default for BenchParams {
    fn default() -> Self {
        BenchParams {
            nodes: 4,
            workers: 1,
            rate: 10_000.0,
            faults: 0,
            duration: 30 * SEC,
            seed: 1,
        }
    }
}

impl BenchParams {
    /// Rate submitted to each worker (clients spread load evenly, §7).
    pub fn rate_per_worker(&self) -> f64 {
        self.rate / (self.nodes as f64 * self.workers as f64)
    }

    /// Rate submitted to each validator of the baseline/batched HotStuff
    /// systems, which have no workers.
    pub fn rate_per_validator(&self) -> f64 {
        self.rate / self.nodes as f64
    }

    /// Narwhal config for this experiment (paper baselines: 500 KB batches).
    pub fn narwhal_config(&self) -> NarwhalConfig {
        NarwhalConfig::with_load(self.rate_per_worker())
    }

    /// [`Self::narwhal_config`] for a run that never restarts a host:
    /// snapshots are off, since no host ever installs one (with them on,
    /// every seeded figure and `BENCH_*.json` would move).
    pub fn no_restart_config(&self) -> NarwhalConfig {
        NarwhalConfig {
            snapshot_interval: 0,
            ..self.narwhal_config()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_worker_rate_splits_evenly() {
        let p = BenchParams {
            nodes: 10,
            workers: 4,
            rate: 400_000.0,
            ..Default::default()
        };
        assert_eq!(p.rate_per_worker(), 10_000.0);
    }

    #[test]
    fn config_carries_load() {
        let p = BenchParams::default();
        let c = p.narwhal_config();
        assert!(c.load.is_some());
    }
}
