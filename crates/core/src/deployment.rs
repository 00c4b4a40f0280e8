//! Host layout shared by the simulator and the socket runtime.
//!
//! A deployment of `n` validators with `W` workers each uses `n * (1 + W)`
//! hosts: primaries occupy node ids `0..n`, and worker `w` of validator `v`
//! occupies `n + v*W + w`. Both runtimes and the topology builder use this
//! single mapping, so actors can compute peer addresses without
//! configuration files.

use nt_network::NodeId;
use nt_types::{ValidatorId, WorkerId};

/// Maps `(validator, role)` to flat host ids.
#[derive(Clone, Copy, Debug)]
pub struct AddressBook {
    validators: usize,
    workers_per_validator: u32,
}

impl AddressBook {
    /// Layout for `validators` validators with `workers_per_validator`
    /// workers each (0 workers = primaries only, as in the HotStuff
    /// baselines).
    pub fn new(validators: usize, workers_per_validator: u32) -> Self {
        AddressBook {
            validators,
            workers_per_validator,
        }
    }

    /// Number of validators.
    pub fn validators(&self) -> usize {
        self.validators
    }

    /// Workers per validator.
    pub fn workers_per_validator(&self) -> u32 {
        self.workers_per_validator
    }

    /// Total host count.
    pub fn total_hosts(&self) -> usize {
        self.validators * (1 + self.workers_per_validator as usize)
    }

    /// Node id of a validator's primary.
    pub fn primary(&self, v: ValidatorId) -> NodeId {
        v.0 as usize
    }

    /// Node id of worker `w` of validator `v`.
    pub fn worker(&self, v: ValidatorId, w: WorkerId) -> NodeId {
        self.validators + v.0 as usize * self.workers_per_validator as usize + w.0 as usize
    }

    /// If `node` is a primary, its validator.
    pub fn primary_of(&self, node: NodeId) -> Option<ValidatorId> {
        (node < self.validators).then_some(ValidatorId(node as u32))
    }

    /// If `node` is a worker, its `(validator, worker)` pair.
    pub fn worker_of(&self, node: NodeId) -> Option<(ValidatorId, WorkerId)> {
        if node < self.validators || node >= self.total_hosts() {
            return None;
        }
        let rel = node - self.validators;
        let w = self.workers_per_validator as usize;
        Some((ValidatorId((rel / w) as u32), WorkerId((rel % w) as u32)))
    }

    /// The validator to ask on try number `attempts` of a pull first aimed
    /// at `hint`: "the probability of receiving a correct response grows
    /// exponentially after asking a handful of validators" (§4.1), so every
    /// retry moves one validator on — and steps over `me`, since a request
    /// to ourselves can never be answered. Alone in the committee there is
    /// nobody else to land on.
    pub(crate) fn rotate(&self, me: ValidatorId, hint: ValidatorId, attempts: u32) -> ValidatorId {
        let n = self.validators as u64;
        let target = (hint.0 as u64 + attempts as u64) % n;
        let target = if target == me.0 as u64 && n > 1 {
            (target + 1) % n
        } else {
            target
        };
        ValidatorId(target as u32)
    }

    /// Node ids of all primaries except `me`.
    pub fn other_primaries(&self, me: ValidatorId) -> Vec<NodeId> {
        (0..self.validators)
            .filter(|v| *v != me.0 as usize)
            .collect()
    }

    /// Node ids of every worker of validator `me`.
    pub fn own_workers(&self, me: ValidatorId) -> Vec<NodeId> {
        (0..self.workers_per_validator)
            .map(|w| self.worker(me, WorkerId(w)))
            .collect()
    }

    /// Node ids of worker slot `w` at all validators except `me`.
    pub fn peer_workers(&self, me: ValidatorId, w: WorkerId) -> Vec<NodeId> {
        (0..self.validators as u32)
            .filter(|v| *v != me.0)
            .map(|v| self.worker(ValidatorId(v), w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_dense_and_invertible() {
        let book = AddressBook::new(4, 3);
        assert_eq!(book.total_hosts(), 16);
        let mut seen = std::collections::HashSet::new();
        for v in 0..4u32 {
            let p = book.primary(ValidatorId(v));
            assert!(seen.insert(p));
            assert_eq!(book.primary_of(p), Some(ValidatorId(v)));
            assert_eq!(book.worker_of(p), None);
            for w in 0..3u32 {
                let node = book.worker(ValidatorId(v), WorkerId(w));
                assert!(seen.insert(node));
                assert_eq!(book.worker_of(node), Some((ValidatorId(v), WorkerId(w))));
                assert_eq!(book.primary_of(node), None);
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn zero_workers_layout() {
        let book = AddressBook::new(10, 0);
        assert_eq!(book.total_hosts(), 10);
        assert_eq!(book.worker_of(5), None);
        assert_eq!(book.primary_of(9), Some(ValidatorId(9)));
        assert_eq!(book.primary_of(10), None);
    }

    #[test]
    fn rotation_never_lands_on_self_and_visits_every_peer() {
        for n in 2..=7u32 {
            let book = AddressBook::new(n as usize, 1);
            for me in 0..n {
                for hint in 0..n {
                    let mut seen = std::collections::HashSet::new();
                    for attempts in 0..2 * n {
                        let target = book.rotate(ValidatorId(me), ValidatorId(hint), attempts);
                        assert_ne!(target.0, me, "n={n} hint={hint} attempts={attempts}");
                        assert!(target.0 < n);
                        seen.insert(target.0);
                    }
                    assert_eq!(seen.len() as u32, n - 1, "two laps reach every peer");
                }
            }
        }
        // Alone, the rotation has only ourselves to return — and returns.
        let alone = AddressBook::new(1, 1);
        assert_eq!(
            alone.rotate(ValidatorId(0), ValidatorId(0), u32::MAX),
            ValidatorId(0)
        );
    }

    #[test]
    fn peer_listings_exclude_self() {
        let book = AddressBook::new(4, 2);
        let peers = book.other_primaries(ValidatorId(1));
        assert_eq!(peers, vec![0, 2, 3]);
        let workers = book.peer_workers(ValidatorId(1), WorkerId(1));
        assert_eq!(workers.len(), 3);
        assert!(!workers.contains(&book.worker(ValidatorId(1), WorkerId(1))));
        assert_eq!(book.own_workers(ValidatorId(1)), vec![6, 7]);
        assert!(AddressBook::new(4, 0)
            .own_workers(ValidatorId(1))
            .is_empty());
    }
}
