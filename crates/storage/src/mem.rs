//! In-memory store used by the simulator and unit tests.

use crate::{unpoisoned, Store, StoreError};
use std::collections::BTreeMap;
use std::sync::RwLock;

/// A thread-safe in-memory key-value store.
///
/// Uses a `BTreeMap` so prefix scans are efficient and iteration order is
/// deterministic (important for reproducible simulations).
#[derive(Default)]
pub struct MemStore {
    map: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Store for MemStore {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        unpoisoned(self.map.write()).insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(unpoisoned(self.map.read()).get(key).cloned())
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        unpoisoned(self.map.write()).remove(key);
        Ok(())
    }

    fn keys_with_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        let map = unpoisoned(self.map.read());
        Ok(map
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn len(&self) -> Result<usize, StoreError> {
        Ok(unpoisoned(self.map.read()).len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let s = MemStore::new();
        s.put(b"a", b"1").unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert!(s.contains(b"a").unwrap());
        s.put(b"a", b"2").unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(b"2".to_vec()));
        s.delete(b"a").unwrap();
        assert_eq!(s.get(b"a").unwrap(), None);
        assert!(s.is_empty().unwrap());
    }

    #[test]
    fn prefix_scan() {
        let s = MemStore::new();
        s.put(b"h/1", b"x").unwrap();
        s.put(b"h/2", b"y").unwrap();
        s.put(b"c/1", b"z").unwrap();
        let keys = s.keys_with_prefix(b"h/").unwrap();
        assert_eq!(keys, vec![b"h/1".to_vec(), b"h/2".to_vec()]);
        assert_eq!(s.keys_with_prefix(b"z").unwrap().len(), 0);
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let s = Arc::new(MemStore::new());
        let handles: Vec<_> = (0..4u8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..100u8 {
                        s.put(&[t, i], &[i]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len().unwrap(), 400);
    }
}
