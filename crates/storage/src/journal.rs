//! An in-memory store whose un-synced writes can be torn.
//!
//! [`JournalStore`] behaves like [`crate::MemStore`] but can also undo the
//! most recent writes (puts and deletes alike) since its last
//! [`Store::sync_barrier`] — the in-memory stand-in for a
//! [`crate::WalStore`] whose un-synced tail was lost to a crash. The
//! schedule fuzzer uses it to inject torn-tail faults into simulated
//! validators without paying file I/O for every record.
//!
//! It keeps only what a crash could tear: one undo record per write since
//! the last barrier, holding the value that write replaced. Every value
//! lives once, in the map, and a barrier drops the records.

use crate::{unpoisoned, Store, StoreError};
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Default)]
struct Inner {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    /// One record per write since the latest [`Store::sync_barrier`], in
    /// write order: the key, and the value the write replaced (`None` if
    /// the key was absent). Undoing a suffix restores the store as it was
    /// before those writes.
    undo: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

/// A thread-safe in-memory store whose un-synced writes can be torn.
#[derive(Default)]
pub struct JournalStore {
    inner: Mutex<Inner>,
}

impl JournalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Store for JournalStore {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        let replaced = inner.map.insert(key.to_vec(), value.to_vec());
        inner.undo.push((key.to_vec(), replaced));
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(unpoisoned(self.inner.lock()).map.get(key).cloned())
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        let replaced = inner.map.remove(key);
        inner.undo.push((key.to_vec(), replaced));
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
        unpoisoned(self.inner.lock()).undo.clear();
        Ok(())
    }

    fn tear_tail(&self, ops: usize) -> Result<usize, StoreError> {
        let mut guard = unpoisoned(self.inner.lock());
        let inner = &mut *guard;
        let torn = ops.min(inner.undo.len());
        let keep = inner.undo.len() - torn;
        for (key, replaced) in inner.undo.drain(keep..).rev() {
            match replaced {
                Some(value) => inner.map.insert(key, value),
                None => inner.map.remove(&key),
            };
        }
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
        assert_eq!(s.tear_tail(10).unwrap(), 2, "barrier caps the tear");
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"b").unwrap(), None);
        assert_eq!(s.tear_tail(1).unwrap(), 0);
    }

    mod wal_equivalence {
        use super::*;
        use crate::WalStore;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Clone, Debug)]
        enum Op {
            Put(u8, Vec<u8>),
            Delete(u8),
            Barrier,
            Tear(usize),
        }

        /// Few keys, so overwrites and deletes of absent keys are common.
        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                4 => (0u8..4, proptest::collection::vec(any::<u8>(), 0..3))
                    .prop_map(|(k, v)| Op::Put(k, v)),
                2 => (0u8..4).prop_map(Op::Delete),
                1 => Just(Op::Barrier),
                2 => (0usize..6).prop_map(Op::Tear),
            ]
        }

        fn fresh_wal() -> (WalStore, std::path::PathBuf) {
            static CASE: AtomicUsize = AtomicUsize::new(0);
            let mut path = std::env::temp_dir();
            path.push(format!(
                "nt-journal-vs-wal-{}-{}.log",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::remove_file(&path).ok();
            (WalStore::open(&path).unwrap(), path)
        }

        fn contents(s: &dyn Store) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
            let keys = s.keys_with_prefix(b"").unwrap();
            keys.into_iter()
                .map(|k| {
                    let v = s.get(&k).unwrap();
                    (k, v)
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            /// The same writes, barriers and tears leave the journal store
            /// and the WAL store with the same contents, and every tear
            /// reports the same count.
            #[test]
            fn matches_wal_store_tear_semantics(ops in proptest::collection::vec(arb_op(), 0..40)) {
                let (wal, path) = fresh_wal();
                let jrn = JournalStore::new();
                for op in &ops {
                    match op {
                        Op::Put(k, v) => {
                            wal.put(&[*k], v).unwrap();
                            jrn.put(&[*k], v).unwrap();
                        }
                        Op::Delete(k) => {
                            wal.delete(&[*k]).unwrap();
                            jrn.delete(&[*k]).unwrap();
                        }
                        Op::Barrier => {
                            wal.sync_barrier().unwrap();
                            jrn.sync_barrier().unwrap();
                        }
                        Op::Tear(n) => {
                            prop_assert_eq!(jrn.tear_tail(*n).unwrap(), wal.tear_tail(*n).unwrap(), "{:?}", ops);
                        }
                    }
                    prop_assert_eq!(contents(&jrn), contents(&wal), "{:?}", ops);
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }
}
