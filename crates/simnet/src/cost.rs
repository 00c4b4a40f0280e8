//! The CPU cost model.
//!
//! Throughput ceilings in the paper come from single-host resource
//! saturation, not from message-complexity asymptotics (§1 makes exactly
//! this point). The simulator therefore charges CPU time for every message
//! a host sends and receives. Constants are calibrated so that a single
//! worker saturates at roughly the paper's measured single-worker
//! throughput; all *relative* results then emerge from protocol structure.

/// CPU cost constants, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed per-received-message cost: dispatch, framing, allocation.
    pub recv_message_ns: u64,
    /// Per-byte receive cost: copy + deserialize + hash of bulk data.
    pub recv_byte_ns: f64,
    /// Fixed per-sent-message cost: serialization setup, syscalls.
    pub send_message_ns: u64,
    /// Per-byte send cost: serialization + kernel copies.
    pub send_byte_ns: f64,
    /// One Ed25519 signature creation.
    pub sign_ns: u64,
    /// One Ed25519 signature verification.
    pub verify_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibrated against the paper's single-worker saturation point
        // (~140-170k tx/s of 512 B transactions per §7.1) with the
        // `calibrate` bin of `nt_bench`.
        CostModel {
            recv_message_ns: 20_000,
            recv_byte_ns: 9.0,
            send_message_ns: 10_000,
            send_byte_ns: 5.0,
            sign_ns: 55_000,
            verify_ns: 110_000,
        }
    }
}

impl CostModel {
    /// Cost of receiving a message of `bytes` bytes plus `verifies`
    /// signature verifications.
    pub fn recv(&self, bytes: usize, verifies: usize) -> u64 {
        self.recv_message_ns
            + (bytes as f64 * self.recv_byte_ns) as u64
            + verifies as u64 * self.verify_ns
    }

    /// Cost of sending a message of `bytes` bytes.
    pub fn send(&self, bytes: usize) -> u64 {
        self.send_message_ns + (bytes as f64 * self.send_byte_ns) as u64
    }
}

/// Messages routable by the simulator.
///
/// `wire_size` feeds the NIC model; `verify_count` is how many signature
/// verifications the receiver performs (e.g. a certificate carries `2f + 1`
/// of them). Systems implement this for their top-level message enums.
pub trait SimMessage: Clone + Send + 'static {
    /// Bytes this message occupies on the wire.
    fn wire_size(&self) -> usize;

    /// Signature verifications the receiver performs.
    fn verify_count(&self) -> usize {
        0
    }

    /// Signatures the sender created to produce this message (charged once
    /// at send time; broadcasts of the same message only pay it once, which
    /// the simulator handles by charging per *distinct* message).
    fn sign_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_cost_scales_with_bytes() {
        let m = CostModel::default();
        let small = m.recv(100, 0);
        let large = m.recv(500_000, 0);
        assert!(large > small);
        // 500 KB at 6 ns/B = 3 ms dominates the fixed cost.
        assert!(large > 2_500_000);
    }

    #[test]
    fn verification_cost_is_per_signature() {
        let m = CostModel::default();
        assert_eq!(m.recv(0, 3) - m.recv(0, 0), 3 * m.verify_ns);
    }

    #[test]
    fn default_worker_saturation_ballpark() {
        // Sanity-check the calibration arithmetic: one worker receiving
        // 512 B transactions batched at 500 KB from 9 peers plus sending its
        // own. At ~150k tx/s system throughput with 10 validators, a worker
        // processes ~15.4 MB/s ingress runtime cost and ~7 MB/s egress * 9.
        let m = CostModel::default();
        let ingress_per_sec = 69.0e6; // bytes from 9 peers + own batches
        let egress_per_sec = 69.0e6;
        let cpu = ingress_per_sec * m.recv_byte_ns + egress_per_sec * m.send_byte_ns;
        // Should be near (but below) one core at this rate.
        assert!(cpu < 1.0e9, "cpu = {cpu}");
        assert!(cpu > 0.3e9, "cpu = {cpu}");
    }
}
