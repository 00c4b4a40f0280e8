//! The CPU cost model.
//!
//! Throughput ceilings in the paper come from single-host resource
//! saturation, not from message-complexity asymptotics (§1 makes exactly
//! this point). The simulator therefore charges CPU time for every message
//! a host sends and receives. Constants are calibrated so that a single
//! worker saturates at roughly the paper's measured single-worker
//! throughput; all *relative* results then emerge from protocol structure.
//! Every host runs the same calibrated core (one CPU class, as on the
//! paper's `m5.8xlarge` testbed).
//!
//! Calibrated against the paper's single-worker saturation point
//! (~140-170k tx/s of 512 B transactions per §7.1); `nt_bench`'s
//! `fig7_scale_out` bench prints a single worker's rows up to 150k tx/s.
//! Costs are in nanoseconds.

/// Fixed per-received-message cost: dispatch, framing, allocation.
pub const RECV_MESSAGE_NS: u64 = 20_000;
/// Per-byte receive cost: copy + deserialize + hash of bulk data.
pub const RECV_BYTE_NS: f64 = 9.0;
/// Fixed per-sent-message cost: serialization setup, syscalls.
pub const SEND_MESSAGE_NS: u64 = 10_000;
/// Per-byte send cost: serialization + kernel copies.
pub const SEND_BYTE_NS: f64 = 5.0;
/// One Ed25519 signature creation.
pub const SIGN_NS: u64 = 55_000;
/// One Ed25519 signature verification.
pub const VERIFY_NS: u64 = 110_000;

/// Cost of receiving a message of `bytes` bytes plus `verifies` signature
/// verifications.
pub fn recv(bytes: usize, verifies: usize) -> u64 {
    RECV_MESSAGE_NS + (bytes as f64 * RECV_BYTE_NS) as u64 + verifies as u64 * VERIFY_NS
}

/// Cost of sending a message of `bytes` bytes plus `signs` signatures.
pub fn send(bytes: usize, signs: usize) -> u64 {
    SEND_MESSAGE_NS + (bytes as f64 * SEND_BYTE_NS) as u64 + signs as u64 * SIGN_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_cost_scales_with_bytes() {
        let small = recv(100, 0);
        let large = recv(500_000, 0);
        assert!(large > small);
        // 500 KB at 9 ns/B = 4.5 ms dominates the fixed cost.
        assert!(large > 2_500_000);
    }

    #[test]
    fn verification_cost_is_per_signature() {
        assert_eq!(recv(0, 3) - recv(0, 0), 3 * VERIFY_NS);
    }

    #[test]
    fn default_worker_saturation_ballpark() {
        // Sanity-check the calibration arithmetic: one worker receiving
        // 512 B transactions batched at 500 KB from 9 peers plus sending its
        // own. At ~150k tx/s system throughput with 10 validators, a worker
        // processes ~15.4 MB/s ingress runtime cost and ~7 MB/s egress * 9.
        let ingress_per_sec = 69.0e6; // bytes from 9 peers + own batches
        let egress_per_sec = 69.0e6;
        let cpu = ingress_per_sec * RECV_BYTE_NS + egress_per_sec * SEND_BYTE_NS;
        // Should be near (but below) one core at this rate.
        assert!(cpu < 1.0e9, "cpu = {cpu}");
        assert!(cpu > 0.3e9, "cpu = {cpu}");
    }
}
