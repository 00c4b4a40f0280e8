//! The workloads: what traffic each sends and why it exists. Four are
//! gated through `BENCHMARK.json`; `bullshark` is measured beside them.

use crate::compat::{transfer_tx, AppKind, SystemKind, Transaction, LEDGER_ACCOUNTS, VALIDATORS};
use crate::stats::SplitMix64;

/// Validators whose worker gets a client connection. Two, because this
/// sandbox has two cores: more generator connections would only add
/// threads that compete with the system under test.
pub const FED_VALIDATORS: [u32; 2] = [0, 1];

/// The validator `crash_f1` stops. It receives no client traffic, so no
/// transaction is lost with it.
pub const CRASHED_VALIDATOR: u32 = 3;

/// Transactions not committed within this long of their due time count as
/// over the limit (and so do transactions that never commit).
pub const LATENCY_LIMIT_MS: f64 = 2_000.0;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Traffic {
    /// Opaque `Transaction::filler` payloads of this many bytes.
    Filler { tx_bytes: usize },
    /// 64-byte `transfer_tx` payloads between seeded accounts.
    Transfers,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub system: SystemKind,
    pub app: AppKind,
    /// Offered load, transactions per second over both connections.
    pub rate_tps: f64,
    pub traffic: Traffic,
    /// Stop validator 3's primary and worker this far into the send
    /// window, as a share of the window; latency then covers only
    /// transactions due after the stop.
    pub crash_at: Option<f64>,
    /// Listed in `BENCHMARK.json`, so the driver runs it and its metrics
    /// gate later PRs. An ungated workload is run by `all` and printed.
    pub gated: bool,
}

/// Validators that outlive `crash_f1`.
pub fn survivors() -> Vec<u32> {
    (0..VALIDATORS as u32)
        .filter(|v| *v != CRASHED_VALIDATOR)
        .collect()
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady",
        why: "Tusk, 6000 tx/s x 512 B (3.1 MB/s): the paper's common case with ~45% of this box's two cores idle, every layer works in proportion; headline latency and CPU per tx.",
        system: SystemKind::Tusk,
        app: AppKind::None,
        rate_tps: 6_000.0,
        traffic: Traffic::Filler { tx_bytes: 512 },
        crash_at: None,
        gated: true,
    },
    Workload {
        name: "bulk",
        why: "Tusk, 450 tx/s x 8192 B (3.7 MB/s): steady's bytes, 13x fewer tx, so hashing, batch codec, WAL and transport copies dominate; a per-tx win must not move it.",
        system: SystemKind::Tusk,
        app: AppKind::None,
        rate_tps: 450.0,
        traffic: Traffic::Filler { tx_bytes: 8_192 },
        crash_at: None,
        gated: true,
    },
    Workload {
        name: "ledger",
        why: "Tusk + LedgerApp, 6000 tx/s x 64 B transfers (0.4 MB/s): byte path idle, so per-tx ingest, control plane and the execution pipeline dominate; submit to commit to execute.",
        system: SystemKind::Tusk,
        app: AppKind::Ledger,
        rate_tps: 6_000.0,
        traffic: Traffic::Transfers,
        crash_at: None,
        gated: true,
    },
    Workload {
        name: "crash_f1",
        why: "steady's traffic with validator 3 stopped a quarter into the window: the paper's Fig. 8 claim that throughput holds and latency degrades gracefully with f crashed.",
        system: SystemKind::Tusk,
        app: AppKind::None,
        rate_tps: 6_000.0,
        traffic: Traffic::Filler { tx_bytes: 512 },
        crash_at: Some(0.25),
        gated: true,
    },
    Workload {
        name: "bullshark",
        why: "ledger's traffic and app under Bullshark (round-robin). Not gated: its round rate wanders between ~4 and ~10 rounds/s within a run, so p50 and CPU per tx spread 11-22% over seeds.",
        system: SystemKind::Bullshark,
        app: AppKind::Ledger,
        rate_tps: 6_000.0,
        traffic: Traffic::Transfers,
        crash_at: None,
        gated: false,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Transaction `id` of this workload; `rng` supplies the accounts and
    /// amount of a transfer. The id rides in payload bytes 0..8 either way.
    pub fn make_tx(&self, id: u64, rng: &mut SplitMix64) -> Transaction {
        match self.traffic {
            Traffic::Filler { tx_bytes } => Transaction::filler(id, 0, tx_bytes),
            Traffic::Transfers => {
                let from = rng.below(LEDGER_ACCOUNTS as u64) as u16;
                let to = rng.below(LEDGER_ACCOUNTS as u64) as u16;
                let amount = 1 + rng.below(1_000) as u32;
                transfer_tx(id, from, to, amount)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::tx_id;

    #[test]
    fn every_transaction_carries_its_id() {
        let mut rng = SplitMix64::new(1);
        for w in &WORKLOADS {
            let tx = w.make_tx(0xfeed_beef, &mut rng);
            assert_eq!(tx_id(&tx.payload), Some(0xfeed_beef), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_lists_these_workloads_with_these_reasons() {
        let file = include_str!("../../BENCHMARK.json");
        let gated: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.gated).collect();
        for w in &gated {
            assert!(w.why.len() <= 200, "{}: {} chars", w.name, w.why.len());
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(file.matches("\"why\"").count(), gated.len());
    }
}
