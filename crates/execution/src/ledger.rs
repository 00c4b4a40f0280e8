//! An account ledger: the real application behind the [`Execution`] trait.
//!
//! Grown out of `examples/payment_ledger.rs`: accounts are `u64` ids with
//! signed net positions (initially 0, so the conservation invariant is
//! simply "balances sum to zero"), and transfers move an amount between
//! two accounts. Account *access* is zipfian-distributed, as in real
//! payment workloads.
//!
//! Two payload modes execute:
//!
//! - `BatchPayload::Data` batches carry real [`transfer_tx`]-encoded
//!   transactions, applied byte-for-byte.
//! - `BatchPayload::Synthetic` batches (the benchmark load) carry no
//!   bytes, only a count — the ledger *derives* that many transfers
//!   deterministically from the batch digest, with zipfian account
//!   selection. Every validator derives the identical transfers from the
//!   identical digest, so synthetic load exercises real state mutation
//!   without shipping payloads.
//!
//! The state root is `Digest::of` over the canonical state serialization
//! (`state_bytes`), which commits to every balance, the applied sequence
//! number, and a running history digest chained over all applied commits.

use crate::zipf::ZipfSampler;
use crate::{BatchData, Execution, ExecutionError};
use nt_codec::{put_varint, Decode, Encode, Reader};
use nt_crypto::{Digest, Hashable};
use nt_types::{BatchPayload, CommitEvent, Transaction};
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Size of the account universe synthetic transfers draw from.
pub const LEDGER_ACCOUNTS: usize = 1024;

/// Zipf skew for synthetic account selection (YCSB-style).
const LEDGER_EXPONENT: f64 = 1.01;

/// Wire size of a transfer transaction (padded to a realistic size).
const TRANSFER_TX_BYTES: usize = 64;

/// Minimum payload length for a parseable transfer.
const TRANSFER_MIN: usize = 16;

/// Encodes a transfer as transaction payload bytes: `[0..8]` id (LE),
/// `[8..10]` source account (LE), `[10..12]` destination account (LE),
/// `[12..16]` amount (LE), zero-padded to `TRANSFER_TX_BYTES` (64).
pub fn transfer_tx(id: u64, from: u16, to: u16, amount: u32) -> Transaction {
    let mut payload = vec![0u8; TRANSFER_TX_BYTES];
    payload[..8].copy_from_slice(&id.to_le_bytes());
    payload[8..10].copy_from_slice(&from.to_le_bytes());
    payload[10..12].copy_from_slice(&to.to_le_bytes());
    payload[12..16].copy_from_slice(&amount.to_le_bytes());
    Transaction::new(payload)
}

/// The replicated account ledger.
pub struct LedgerApp {
    /// Net position per touched account. `BTreeMap` so every iteration —
    /// and therefore the canonical serialization — is ordered.
    accounts: BTreeMap<u64, i64>,
    /// Sequence of the last applied commit.
    last_applied: u64,
    /// Digest chained over every applied commit and batch commitment.
    history: Digest,
    /// Account selector for synthetic-batch derivation.
    zipf: ZipfSampler,
}

impl Default for LedgerApp {
    fn default() -> Self {
        Self::new()
    }
}

impl LedgerApp {
    /// A fresh ledger over the default [`LEDGER_ACCOUNTS`] universe.
    pub fn new() -> Self {
        Self::with_accounts(LEDGER_ACCOUNTS)
    }

    /// A fresh ledger whose synthetic transfers draw from `n` accounts.
    pub fn with_accounts(n: usize) -> Self {
        LedgerApp {
            accounts: BTreeMap::new(),
            last_applied: 0,
            history: Digest::default(),
            zipf: ZipfSampler::new(n, LEDGER_EXPONENT),
        }
    }

    /// Net position of `account` (0 if never touched).
    pub fn balance(&self, account: u64) -> i64 {
        self.accounts.get(&account).copied().unwrap_or(0)
    }

    /// Number of accounts touched so far.
    pub fn touched(&self) -> usize {
        self.accounts.len()
    }

    /// Sum of all net positions; transfers conserve it at zero.
    pub fn net_total(&self) -> i64 {
        self.accounts.values().sum()
    }

    fn transfer(&mut self, from: u64, to: u64, amount: i64) {
        *self.accounts.entry(from).or_insert(0) -= amount;
        *self.accounts.entry(to).or_insert(0) += amount;
    }

    /// Applies one `Data` transaction; malformed payloads are skipped
    /// (skipping is itself deterministic — every validator sees the same
    /// bytes).
    fn apply_tx(&mut self, tx: &Transaction) {
        if tx.payload.len() < TRANSFER_MIN {
            return;
        }
        let from = u16::from_le_bytes(tx.payload[8..10].try_into().expect("2 bytes")) as u64;
        let to = u16::from_le_bytes(tx.payload[10..12].try_into().expect("2 bytes")) as u64;
        let amount = u32::from_le_bytes(tx.payload[12..16].try_into().expect("4 bytes")) as i64;
        self.transfer(from, to, amount);
    }

    /// Derives and applies `count` transfers from a synthetic batch: the
    /// batch digest seeds the generator, so the derivation is a pure
    /// function of the committed reference.
    fn apply_synthetic(&mut self, digest: &Digest, count: u64) {
        let mut rng = SmallRng::seed_from_u64(digest.to_u64());
        for _ in 0..count {
            let from = self.zipf.sample(&mut rng) as u64;
            let to = self.zipf.sample(&mut rng) as u64;
            let amount = rng.random_range_u64(1, 1_000) as i64;
            self.transfer(from, to, amount);
        }
    }

    /// Canonical serialization of the full state. [`Execution::root`] is
    /// `Digest::of` over exactly these bytes.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"nt-ledger-v1");
        put_varint(&mut buf, self.last_applied);
        self.history.encode(&mut buf);
        put_varint(&mut buf, self.accounts.len() as u64);
        for (account, balance) in &self.accounts {
            put_varint(&mut buf, *account);
            balance.encode(&mut buf);
        }
        buf
    }
}

impl Execution for LedgerApp {
    fn apply(&mut self, event: &CommitEvent, batches: &[BatchData]) -> Digest {
        debug_assert_eq!(
            event.sequence,
            self.last_applied + 1,
            "commits apply in sequence order"
        );
        let mut folded = self.history;
        for data in batches {
            match data {
                BatchData::Full(batch) => {
                    let digest = batch.digest();
                    match &batch.payload {
                        BatchPayload::Data(txs) => {
                            for tx in txs {
                                self.apply_tx(tx);
                            }
                        }
                        BatchPayload::Synthetic { count, .. } => {
                            self.apply_synthetic(&digest, *count);
                        }
                    }
                    folded = Digest::of_parts(&[b"batch", folded.as_bytes(), digest.as_bytes()]);
                }
                BatchData::Missing(digest) => {
                    folded = Digest::of_parts(&[b"opaque", folded.as_bytes(), digest.as_bytes()]);
                }
            }
        }
        self.history = Digest::of_parts(&[
            b"commit",
            folded.as_bytes(),
            &event.sequence.to_le_bytes(),
            &event.round.to_le_bytes(),
            &event.author.0.to_le_bytes(),
        ]);
        self.last_applied = event.sequence;
        self.root()
    }

    fn last_applied(&self) -> u64 {
        self.last_applied
    }

    fn root(&self) -> Digest {
        Digest::of(&self.state_bytes())
    }

    fn snapshot(&self) -> Vec<u8> {
        self.state_bytes()
    }

    fn restore(&mut self, sequence: u64, bytes: &[u8]) -> Result<(), ExecutionError> {
        let mut reader = Reader::new(bytes);
        let magic = reader
            .take(12)
            .map_err(|_| ExecutionError::Corrupt("truncated header"))?;
        if magic != b"nt-ledger-v1" {
            return Err(ExecutionError::Corrupt("bad magic"));
        }
        let last_applied = reader
            .take_varint()
            .map_err(|_| ExecutionError::Corrupt("sequence"))?;
        if last_applied != sequence {
            return Err(ExecutionError::SequenceMismatch {
                expected: sequence,
                found: last_applied,
            });
        }
        let history =
            Digest::decode(&mut reader).map_err(|_| ExecutionError::Corrupt("history"))?;
        let count = reader
            .take_varint()
            .map_err(|_| ExecutionError::Corrupt("account count"))?;
        let mut accounts = BTreeMap::new();
        for _ in 0..count {
            let account = reader
                .take_varint()
                .map_err(|_| ExecutionError::Corrupt("account id"))?;
            let balance =
                i64::decode(&mut reader).map_err(|_| ExecutionError::Corrupt("balance"))?;
            accounts.insert(account, balance);
        }
        if reader.remaining() != 0 {
            return Err(ExecutionError::Corrupt("trailing bytes"));
        }
        self.accounts = accounts;
        self.last_applied = last_applied;
        self.history = history;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_types::{Batch, ValidatorId, WorkerId};

    fn data_batch(seq: u64, txs: Vec<Transaction>) -> Batch {
        Batch::new(ValidatorId(0), WorkerId(0), seq, txs, Vec::new())
    }

    fn event(sequence: u64) -> CommitEvent {
        CommitEvent {
            sequence,
            round: sequence,
            author: ValidatorId((sequence % 4) as u32),
            ..Default::default()
        }
    }

    #[test]
    fn transfers_move_balances_and_conserve_total() {
        let mut app = LedgerApp::new();
        let batch = data_batch(
            1,
            vec![transfer_tx(1, 3, 7, 250), transfer_tx(2, 7, 9, 100)],
        );
        app.apply(&event(1), &[BatchData::Full(batch)]);
        assert_eq!(app.balance(3), -250);
        assert_eq!(app.balance(7), 150);
        assert_eq!(app.balance(9), 100);
        assert_eq!(app.net_total(), 0);
        assert_eq!(app.last_applied(), 1);
    }

    #[test]
    fn synthetic_batches_mutate_state_deterministically() {
        let batch = Batch::synthetic(ValidatorId(1), WorkerId(0), 9, 100, 512, Vec::new());
        let mut a = LedgerApp::new();
        let mut b = LedgerApp::new();
        let ra = a.apply(&event(1), &[BatchData::Full(batch.clone())]);
        let rb = b.apply(&event(1), &[BatchData::Full(batch)]);
        assert_eq!(ra, rb);
        assert!(a.touched() > 0, "synthetic load touches accounts");
        assert_eq!(a.net_total(), 0);
    }

    #[test]
    fn roots_depend_on_the_sequence_not_the_payload_alone() {
        let batch = data_batch(1, vec![transfer_tx(1, 0, 1, 5)]);
        let mut a = LedgerApp::new();
        let mut b = LedgerApp::new();
        let ra = a.apply(&event(1), &[BatchData::Full(batch.clone())]);
        let mut e2 = event(1);
        e2.author = ValidatorId(2);
        let rb = b.apply(&e2, &[BatchData::Full(batch)]);
        assert_ne!(ra, rb, "history commits to the committed block identity");
    }

    #[test]
    fn snapshot_restore_reproduces_the_root() {
        let mut app = LedgerApp::new();
        for seq in 1..=5u64 {
            let batch = Batch::synthetic(ValidatorId(0), WorkerId(0), seq, 50, 512, Vec::new());
            app.apply(&event(seq), &[BatchData::Full(batch)]);
        }
        let bytes = app.snapshot();
        assert_eq!(app.root(), Digest::of(&bytes), "root commits to snapshot");
        let mut restored = LedgerApp::new();
        restored.restore(5, &bytes).expect("restores");
        assert_eq!(restored.root(), app.root());
        assert_eq!(restored.last_applied(), 5);
        // Both continue identically.
        let next = Batch::synthetic(ValidatorId(2), WorkerId(0), 6, 10, 512, Vec::new());
        let ra = app.apply(&event(6), &[BatchData::Full(next.clone())]);
        let rb = restored.apply(&event(6), &[BatchData::Full(next)]);
        assert_eq!(ra, rb);
    }

    #[test]
    fn restore_rejects_wrong_sequence_and_corruption() {
        let mut app = LedgerApp::new();
        app.apply(&event(1), &[]);
        let bytes = app.snapshot();
        let mut other = LedgerApp::new();
        assert_eq!(
            other.restore(2, &bytes),
            Err(ExecutionError::SequenceMismatch {
                expected: 2,
                found: 1
            })
        );
        let mut torn = bytes.clone();
        torn.truncate(bytes.len() - 1);
        assert!(matches!(
            other.restore(1, &torn),
            Err(ExecutionError::Corrupt(_))
        ));
    }

    #[test]
    fn missing_payloads_fold_the_commitment() {
        let batch = data_batch(1, vec![transfer_tx(1, 0, 1, 5)]);
        let digest = batch.digest();
        let mut with_data = LedgerApp::new();
        let mut without = LedgerApp::new();
        let ra = with_data.apply(&event(1), &[BatchData::Full(batch)]);
        let rb = without.apply(&event(1), &[BatchData::Missing(digest)]);
        // Different roots — which is exactly why a committee must not mix
        // resolved and unresolved deployments.
        assert_ne!(ra, rb);
        assert_eq!(without.touched(), 0);
    }
}
