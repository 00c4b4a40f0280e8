//! Persistent storage for Narwhal validators.
//!
//! The paper persists blocks, certificates and batches in RocksDB ("Data-
//! structures are persisted using RocksDB", §6). This crate provides the
//! same durability interface with two backends:
//!
//! - [`MemStore`]: a thread-safe in-memory map, used by the simulator and
//!   most tests (durability is not what those experiments measure).
//! - [`WalStore`]: a crash-recoverable store backed by an append-only,
//!   checksummed write-ahead log with explicit compaction. Only the index
//!   is resident — `key → (value offset, length)` — and values are read
//!   back from the file on demand, so a validator's memory does not grow
//!   with the bytes it has ever stored (§3.3: "validators can operate with
//!   a fixed size memory"). Used by the socket runtime and the recovery
//!   tests.
//!
//! Keys and values are opaque bytes; the `narwhal` crate layers a typed
//! block store on top.

pub mod journal;
pub mod mem;
pub mod wal;

pub use journal::JournalStore;
pub use mem::MemStore;
pub use wal::WalStore;

use std::fmt;
use std::sync::{Arc, PoisonError};

/// Takes a lock's guard whether or not a holder panicked. Every critical
/// section in this crate applies a write to the map or log it guards in
/// full or not at all, so what a poisoned lock protects is still valid —
/// and a store that answered with a second panic would turn one failed
/// actor into a failed validator.
fn unpoisoned<G>(guard: Result<G, PoisonError<G>>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The log contained a corrupt record (bad checksum or truncation mid-
    /// record); data up to that point was recovered.
    Corrupt {
        /// Byte offset of the first bad record.
        offset: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt { offset } => write!(f, "corrupt record at offset {offset}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// A byte-oriented key-value store.
///
/// All methods take `&self`: implementations synchronize internally so a
/// store can be shared between the primary and worker actors of a validator.
pub trait Store: Send + Sync {
    /// Inserts or overwrites `key`.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;

    /// Reads `key`, returning `None` if absent.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError>;

    /// Removes `key` (no-op if absent).
    fn delete(&self, key: &[u8]) -> Result<(), StoreError>;

    /// True if `key` is present.
    fn contains(&self, key: &[u8]) -> Result<bool, StoreError> {
        Ok(self.get(key)?.is_some())
    }

    /// Returns all keys with the given prefix (used by garbage collection).
    fn keys_with_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError>;

    /// Number of live entries.
    fn len(&self) -> Result<usize, StoreError>;

    /// True if the store holds no entries.
    fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Durability fence: everything written so far survives any later
    /// crash (an `fsync` of the log). [`Store::tear_tail`] never discards
    /// writes behind the latest barrier. Callers place one before
    /// *externalizing* state — e.g. broadcasting a certificate whose
    /// payload bookkeeping recovery will need — the classic
    /// write-ahead-then-sync discipline. No-op for stores that are always
    /// durable (or never, like [`MemStore`]).
    fn sync_barrier(&self) -> Result<(), StoreError> {
        Ok(())
    }

    /// Rolls back the most recent `ops` write operations (puts *and*
    /// deletes), simulating a crash that lost the un-synced tail of a
    /// write-ahead log — bounded by the latest [`Store::sync_barrier`]
    /// (synced writes cannot tear). The surviving state is exactly the
    /// store as it was `ops` writes ago — a consistent prefix of the write
    /// history, which is what torn-tail recovery guarantees.
    ///
    /// Returns the number of operations actually discarded. Stores without
    /// an operation log (e.g. [`MemStore`]) cannot tear and return 0; fault
    /// injectors that need tearing use [`WalStore`] or [`JournalStore`].
    fn tear_tail(&self, ops: usize) -> Result<usize, StoreError> {
        let _ = ops;
        Ok(0)
    }
}

/// A shareable store handle.
pub type DynStore = Arc<dyn Store>;

/// Slicing-by-8 lookup tables for the reflected polynomial 0xEDB88320:
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// An incremental CRC-32, so a WAL record can be checksummed piece by
/// piece (header, key, value) without first being assembled in one buffer.
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xffff_ffff)
    }

    pub(crate) fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xff) as usize];
        }
        self.0 = crc;
    }

    pub(crate) fn finish(&self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE 802.3) used to checksum WAL records.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_change() {
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
    }

    /// The bit-at-a-time definition the table-driven code must reproduce.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_bitwise_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            start in 0usize..8,
            split in 0usize..4096,
        ) {
            // Unaligned starts: the 8-byte stride must not depend on where
            // the slice begins in memory.
            let data = &data[start.min(data.len())..];
            proptest::prop_assert_eq!(crc32(data), crc32_bitwise(data));
            // Piecewise updates equal the one-shot checksum.
            let (head, tail) = data.split_at(split.min(data.len()));
            let mut crc = Crc32::new();
            crc.update(head);
            crc.update(tail);
            proptest::prop_assert_eq!(crc.finish(), crc32_bitwise(data));
        }
    }
}
