//! WAN topology: regions, inter-region delays, host specifications.

use nt_network::{Time, MS};
use rand::{Rng, RngExt};

/// The five AWS regions of the paper's testbed (§7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Region {
    /// N. Virginia (us-east-1).
    UsEast1,
    /// N. California (us-west-1).
    UsWest1,
    /// Stockholm (eu-north-1).
    EuNorth1,
    /// Tokyo (ap-northeast-1).
    ApNortheast1,
    /// Sydney (ap-southeast-2).
    ApSoutheast2,
}

impl Region {
    /// All regions in a fixed order.
    pub const ALL: [Region; 5] = [
        Region::UsEast1,
        Region::UsWest1,
        Region::EuNorth1,
        Region::ApNortheast1,
        Region::ApSoutheast2,
    ];

    /// Round-robin region assignment, as the paper spreads validators
    /// evenly over its five regions.
    pub fn for_index(i: usize) -> Region {
        Region::ALL[i % Region::ALL.len()]
    }

    fn idx(self) -> usize {
        match self {
            Region::UsEast1 => 0,
            Region::UsWest1 => 1,
            Region::EuNorth1 => 2,
            Region::ApNortheast1 => 3,
            Region::ApSoutheast2 => 4,
        }
    }
}

/// One-way propagation delays between regions, in milliseconds.
///
/// Derived from public inter-region RTT measurements (half the RTT);
/// same-region hosts see ~0.5 ms (cross-AZ), and a worker talking to its
/// own primary (same data centre) sees [`INTRA_DC_MS`].
const ONE_WAY_MS: [[f64; 5]; 5] = [
    // ue1    uw1    eu     tokyo  sydney
    [0.5, 31.0, 55.0, 80.0, 100.0],  // us-east-1
    [31.0, 0.5, 77.0, 52.0, 70.0],   // us-west-1
    [55.0, 77.0, 0.5, 120.0, 140.0], // eu-north-1
    [80.0, 52.0, 120.0, 0.5, 52.0],  // ap-northeast-1
    [100.0, 70.0, 140.0, 52.0, 0.5], // ap-southeast-2
];

/// One-way delay between a validator's own machines (same data centre), ms.
pub const INTRA_DC_MS: f64 = 0.25;

/// NIC bandwidth of every host, in bits per second: 10 Gbps, as the
/// paper's `m5.8xlarge` instances.
pub const NIC_BPS: f64 = 10e9;

/// Serialization time of `bytes` on a host's NIC.
pub fn nic_time(bytes: usize) -> Time {
    ((bytes as f64 * 8.0 / NIC_BPS) * nt_network::SEC as f64) as Time
}

/// Latency jitter: each delay is multiplied by a uniform sample from
/// `[1 - JITTER, 1 + JITTER]`.
pub const JITTER: f64 = 0.10;

/// Static description of a simulated host: every host has a [`NIC_BPS`]
/// NIC and the calibrated core of [`crate::cost`].
#[derive(Clone, Debug)]
pub struct HostSpec {
    /// Which region the host runs in.
    pub region: Region,
    /// The validator this host belongs to (same validator + same region =
    /// same data centre, so links use [`INTRA_DC_MS`]).
    pub validator: u32,
}

impl HostSpec {
    /// A host of `validator` in `region`.
    pub fn new(validator: u32, region: Region) -> Self {
        HostSpec { region, validator }
    }
}

/// The deployment topology: an indexed set of hosts.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Host specifications; `NodeId` indexes into this.
    pub hosts: Vec<HostSpec>,
}

impl Topology {
    /// Creates a topology from host specs.
    pub fn new(hosts: Vec<HostSpec>) -> Self {
        Topology { hosts }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True if there are no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Samples the one-way propagation delay from host `a` to host `b`.
    pub fn latency(&self, a: usize, b: usize, rng: &mut impl Rng) -> Time {
        let ha = &self.hosts[a];
        let hb = &self.hosts[b];
        let base_ms = if ha.validator == hb.validator && ha.region == hb.region {
            INTRA_DC_MS
        } else {
            ONE_WAY_MS[ha.region.idx()][hb.region.idx()]
        };
        let factor = 1.0 + JITTER * (rng.random::<f64>() * 2.0 - 1.0);
        ((base_ms * factor) * MS as f64) as Time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matrix_is_symmetric() {
        for (i, row) in ONE_WAY_MS.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(*cell, ONE_WAY_MS[j][i]);
            }
        }
    }

    #[test]
    fn latency_scales_with_distance() {
        let hosts = vec![
            HostSpec::new(0, Region::UsEast1),
            HostSpec::new(1, Region::UsWest1),
            HostSpec::new(2, Region::ApSoutheast2),
        ];
        let topo = Topology::new(hosts);
        let mut rng = SmallRng::seed_from_u64(1);
        let near = topo.latency(0, 1, &mut rng);
        let far = topo.latency(0, 2, &mut rng);
        assert!(far > near);
        // Around 100 ms one-way to Sydney, +/- jitter.
        assert!(far > 85 * MS && far < 115 * MS, "far = {far}");
    }

    #[test]
    fn same_validator_same_region_is_intra_dc() {
        let hosts = vec![
            HostSpec::new(0, Region::UsEast1),
            HostSpec::new(0, Region::UsEast1),
        ];
        let topo = Topology::new(hosts);
        let mut rng = SmallRng::seed_from_u64(1);
        let lat = topo.latency(0, 1, &mut rng);
        assert!(lat < MS, "intra-DC latency below 1 ms, got {lat}");
    }

    #[test]
    fn nic_time_matches_bandwidth() {
        // 500 KB over 10 Gbps = 400 microseconds.
        let t = nic_time(500_000);
        assert!((t as i64 - 400_000).abs() < 1_000, "t = {t}");
    }

    #[test]
    fn region_assignment_round_robins() {
        assert_eq!(Region::for_index(0), Region::UsEast1);
        assert_eq!(Region::for_index(5), Region::UsEast1);
        assert_eq!(Region::for_index(6), Region::UsWest1);
    }
}
