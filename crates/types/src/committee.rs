//! The validator committee and its quorum arithmetic.

use nt_codec::{Decode, DecodeError, Encode, Reader};
use nt_crypto::{KeyPair, PreparedKey, PublicKey, Scheme};
use std::sync::Arc;

/// Index of a validator within the committee (0-based, dense).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct ValidatorId(pub u32);

/// Index of a worker machine within one validator (0-based, dense).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct WorkerId(pub u32);

impl std::fmt::Display for ValidatorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Static description of one committee member.
#[derive(Clone, Debug)]
pub struct ValidatorInfo {
    /// The validator's signing identity.
    pub public: PublicKey,
    /// Number of worker machines this validator operates (§4.2).
    pub num_workers: u32,
}

/// An immutable BFT committee of `n = 3f + 1` validators.
///
/// The committee fixes the signature [`Scheme`] all members use, provides
/// the quorum thresholds from the paper (`2f + 1` for availability
/// certificates, `f + 1` for the Tusk commit rule), and the round-robin
/// leader schedule used by HotStuff.
///
/// Every member's key is prepared for verification once, here: under
/// Ed25519 the point is decompressed and its window table built (see
/// [`PreparedKey`]), so no signature check pays for that again. The keys
/// sit behind one `Arc`; cloning a committee copies no table.
#[derive(Clone, Debug)]
pub struct Committee {
    validators: Vec<ValidatorInfo>,
    scheme: Scheme,
    keys: Arc<[PreparedKey]>,
}

impl Committee {
    /// Builds a committee from explicit validator descriptions.
    ///
    /// # Panics
    ///
    /// Panics if `validators` is empty. A key whose bytes do not decode is
    /// not an error here: every signature checked against it fails.
    pub fn new(validators: Vec<ValidatorInfo>, scheme: Scheme) -> Self {
        assert!(!validators.is_empty(), "committee cannot be empty");
        let keys = validators
            .iter()
            .map(|v| PreparedKey::new(scheme, v.public))
            .collect();
        Committee {
            validators,
            scheme,
            keys,
        }
    }

    /// Derives a deterministic test committee of `n` validators with
    /// `workers` workers each. Key pairs come from [`KeyPair::for_index`].
    pub fn deterministic(n: usize, workers: u32, scheme: Scheme) -> (Committee, Vec<KeyPair>) {
        let keypairs: Vec<KeyPair> = (0..n).map(|i| KeyPair::for_index(scheme, i)).collect();
        let validators = keypairs
            .iter()
            .map(|kp| ValidatorInfo {
                public: kp.public(),
                num_workers: workers,
            })
            .collect();
        (Committee::new(validators, scheme), keypairs)
    }

    /// Number of validators `n`.
    pub fn size(&self) -> usize {
        self.validators.len()
    }

    /// Maximum number of Byzantine validators tolerated, `f = ⌊(n-1)/3⌋`.
    pub fn faults_tolerated(&self) -> usize {
        (self.size() - 1) / 3
    }

    /// The availability/quorum threshold `2f + 1`.
    pub fn quorum_threshold(&self) -> usize {
        2 * self.faults_tolerated() + 1
    }

    /// The validity threshold `f + 1` (Tusk commit rule, coin reconstruction).
    pub fn validity_threshold(&self) -> usize {
        self.faults_tolerated() + 1
    }

    /// The signature scheme this committee runs.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The public key of validator `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn public_key(&self, id: ValidatorId) -> PublicKey {
        self.validators[id.0 as usize].public
    }

    /// The key of validator `id`, prepared for verification.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn key(&self, id: ValidatorId) -> &PreparedKey {
        &self.keys[id.0 as usize]
    }

    /// Number of workers of validator `id`.
    pub fn num_workers(&self, id: ValidatorId) -> u32 {
        self.validators[id.0 as usize].num_workers
    }

    /// Looks up a validator id by public key.
    pub fn id_of(&self, public: &PublicKey) -> Option<ValidatorId> {
        self.validators
            .iter()
            .position(|v| v.public == *public)
            .map(|i| ValidatorId(i as u32))
    }

    /// True if `id` indexes a committee member.
    pub fn contains(&self, id: ValidatorId) -> bool {
        (id.0 as usize) < self.size()
    }

    /// Iterates over all validator ids.
    pub fn ids(&self) -> impl Iterator<Item = ValidatorId> + '_ {
        (0..self.size() as u32).map(ValidatorId)
    }

    /// Round-robin leader schedule (used by HotStuff's pacemaker).
    pub fn leader(&self, round: u64) -> ValidatorId {
        ValidatorId((round % self.size() as u64) as u32)
    }
}

impl Encode for ValidatorId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for ValidatorId {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ValidatorId(u32::decode(reader)?))
    }
}

impl Encode for WorkerId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for WorkerId {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WorkerId(u32::decode(reader)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_math() {
        // (n, f, 2f+1, f+1) for the committee sizes used in the paper.
        for (n, f) in [(4usize, 1usize), (10, 3), (20, 6), (50, 16)] {
            let (c, _) = Committee::deterministic(n, 1, Scheme::Insecure);
            assert_eq!(c.faults_tolerated(), f, "n={n}");
            assert_eq!(c.quorum_threshold(), 2 * f + 1);
            assert_eq!(c.validity_threshold(), f + 1);
        }
    }

    #[test]
    fn quorums_intersect_in_honest_party() {
        // Any 2f+1 quorum and any f+1 set intersect; any two 2f+1 quorums
        // intersect in at least f+1 members.
        let (c, _) = Committee::deterministic(10, 1, Scheme::Insecure);
        let n = c.size();
        let q = c.quorum_threshold();
        let v = c.validity_threshold();
        assert!(q + v > n, "2f+1 and f+1 sets must intersect");
        assert!(2 * q - n >= v, "two quorums share at least f+1 members");
    }

    #[test]
    fn leader_rotates() {
        let (c, _) = Committee::deterministic(4, 1, Scheme::Insecure);
        let leaders: Vec<ValidatorId> = (0..8).map(|r| c.leader(r)).collect();
        assert_eq!(leaders[0], leaders[4]);
        assert_ne!(leaders[0], leaders[1]);
    }

    #[test]
    fn id_lookup() {
        let (c, kps) = Committee::deterministic(4, 2, Scheme::Ed25519);
        for (i, kp) in kps.iter().enumerate() {
            assert_eq!(c.id_of(&kp.public()), Some(ValidatorId(i as u32)));
            assert_eq!(c.public_key(ValidatorId(i as u32)), kp.public());
        }
        assert_eq!(c.num_workers(ValidatorId(0)), 2);
        assert!(!c.contains(ValidatorId(4)));
    }

    #[test]
    fn prepared_keys_verify_like_the_bytes_and_a_bad_key_fails_without_panicking() {
        let (c, kps) = Committee::deterministic(4, 1, Scheme::Ed25519);
        let sig = kps[2].sign(b"message");
        assert_eq!(c.key(ValidatorId(2)).public(), kps[2].public());
        assert!(c.key(ValidatorId(2)).verify(b"message", &sig));
        assert!(!c.key(ValidatorId(1)).verify(b"message", &sig));
        // Bytes that are no curve point: the committee builds, clones, and
        // rejects every signature under that key, as `verify_with` does.
        let not_a_point = (0u8..=255)
            .map(|b| {
                let mut bytes = [0xaau8; 32];
                bytes[0] = b;
                PublicKey(bytes)
            })
            .find(|pk| nt_crypto::ed25519::point::Point::decompress(&pk.0).is_none())
            .expect("half of all y have no x");
        let members = vec![
            ValidatorInfo {
                public: not_a_point,
                num_workers: 1,
            },
            ValidatorInfo {
                public: kps[0].public(),
                num_workers: 1,
            },
        ];
        let broken = Committee::new(members, Scheme::Ed25519).clone();
        assert!(!broken.key(ValidatorId(0)).verify(b"message", &sig));
        assert!(!not_a_point.verify_with(Scheme::Ed25519, b"message", &sig));
        let own = kps[0].sign(b"message");
        assert!(broken.key(ValidatorId(1)).verify(b"message", &own));
    }
}
