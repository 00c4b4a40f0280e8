//! An in-memory store with a tearable write journal.
//!
//! [`JournalStore`] behaves like [`crate::MemStore`] but additionally keeps
//! every write (put or delete) in an append-ordered journal, so
//! [`Store::tear_tail`] can discard the most recent writes — the in-memory
//! stand-in for a [`crate::WalStore`] whose un-synced tail was lost to a
//! crash. The schedule fuzzer uses it to inject torn-tail faults into
//! simulated validators without paying file I/O for every record.
//!
//! The journal grows with every write for the lifetime of the store; that
//! is the point (any suffix must be revocable) and is fine for simulation
//! runs, which are minutes of simulated time at most.

use crate::{unpoisoned, Store, StoreError};
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Default)]
struct Inner {
    /// `(key, Some(value))` for puts, `(key, None)` for deletes, in write
    /// order. Replaying a prefix reproduces the store at that point.
    journal: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    /// Journal index of the latest [`Store::sync_barrier`]: writes below
    /// it are durable and cannot tear.
    synced: usize,
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

/// A thread-safe in-memory store whose write history can be torn.
#[derive(Default)]
pub struct JournalStore {
    inner: Mutex<Inner>,
}

impl JournalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of journalled write operations since creation.
    pub fn journal_len(&self) -> usize {
        unpoisoned(self.inner.lock()).journal.len()
    }

    /// Journal index of the latest durability barrier.
    pub fn synced_len(&self) -> usize {
        unpoisoned(self.inner.lock()).synced
    }
}

impl Store for JournalStore {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        inner.journal.push((key.to_vec(), Some(value.to_vec())));
        inner.map.insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(unpoisoned(self.inner.lock()).map.get(key).cloned())
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        inner.journal.push((key.to_vec(), None));
        inner.map.remove(key);
        Ok(())
    }

    fn keys_with_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        let inner = unpoisoned(self.inner.lock());
        Ok(inner
            .map
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn len(&self) -> Result<usize, StoreError> {
        Ok(unpoisoned(self.inner.lock()).map.len())
    }

    fn sync_barrier(&self) -> Result<(), StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        inner.synced = inner.journal.len();
        Ok(())
    }

    fn tear_tail(&self, ops: usize) -> Result<usize, StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        let torn = ops.min(inner.journal.len() - inner.synced);
        if torn == 0 {
            return Ok(0);
        }
        let keep = inner.journal.len() - torn;
        inner.journal.truncate(keep);
        let mut map = BTreeMap::new();
        for (key, value) in &inner.journal {
            match value {
                Some(v) => {
                    map.insert(key.clone(), v.clone());
                }
                None => {
                    map.remove(key);
                }
            }
        }
        inner.map = map;
        Ok(torn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_store() {
        let s = JournalStore::new();
        s.put(b"h/1", b"x").unwrap();
        s.put(b"h/2", b"y").unwrap();
        s.put(b"c/1", b"z").unwrap();
        s.delete(b"h/2").unwrap();
        assert_eq!(s.get(b"h/1").unwrap(), Some(b"x".to_vec()));
        assert_eq!(s.get(b"h/2").unwrap(), None);
        assert_eq!(s.keys_with_prefix(b"h/").unwrap(), vec![b"h/1".to_vec()]);
        assert_eq!(s.len().unwrap(), 2);
        assert_eq!(s.journal_len(), 4, "deletes are journalled too");
    }

    #[test]
    fn tear_tail_restores_the_prefix_state() {
        let s = JournalStore::new();
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        s.put(b"a", b"3").unwrap();
        s.delete(b"b").unwrap();
        assert_eq!(s.tear_tail(2).unwrap(), 2);
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        // Tearing everything empties the store.
        assert_eq!(s.tear_tail(100).unwrap(), 2);
        assert!(s.is_empty().unwrap());
        assert_eq!(s.tear_tail(1).unwrap(), 0);
    }

    #[test]
    fn tear_tail_respects_sync_barriers() {
        let s = JournalStore::new();
        s.put(b"a", b"1").unwrap();
        s.sync_barrier().unwrap();
        s.put(b"b", b"2").unwrap();
        s.delete(b"a").unwrap();
        assert_eq!(s.synced_len(), 1);
        assert_eq!(s.tear_tail(10).unwrap(), 2, "barrier caps the tear");
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"b").unwrap(), None);
        assert_eq!(s.tear_tail(1).unwrap(), 0);
    }

    #[test]
    fn matches_wal_store_tear_semantics() {
        // The same op sequence torn by the same amount must leave the
        // journal store and the WAL store with identical contents.
        let mut path = std::env::temp_dir();
        path.push(format!(
            "nt-journal-vs-wal-{}-{}.log",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let wal = crate::WalStore::open(&path).unwrap();
        let jrn = JournalStore::new();
        let ops: Vec<(&[u8], Option<&[u8]>)> = vec![
            (b"k1", Some(b"a")),
            (b"k2", Some(b"b")),
            (b"k1", Some(b"c")),
            (b"k2", None),
            (b"k3", Some(b"d")),
        ];
        for (k, v) in &ops {
            match v {
                Some(v) => {
                    wal.put(k, v).unwrap();
                    jrn.put(k, v).unwrap();
                }
                None => {
                    wal.delete(k).unwrap();
                    jrn.delete(k).unwrap();
                }
            }
        }
        for tear in [1usize, 2] {
            assert_eq!(wal.tear_tail(tear).unwrap(), jrn.tear_tail(tear).unwrap());
            assert_eq!(
                wal.keys_with_prefix(b"").unwrap(),
                jrn.keys_with_prefix(b"").unwrap()
            );
            for key in jrn.keys_with_prefix(b"").unwrap() {
                assert_eq!(wal.get(&key).unwrap(), jrn.get(&key).unwrap());
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
