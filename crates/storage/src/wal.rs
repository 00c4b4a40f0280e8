//! A crash-recoverable key-value store backed by a write-ahead log.
//!
//! Record format (all integers little-endian):
//!
//! ```text
//! +-------+--------+--------+----------------+------------------+
//! | crc32 | klen   | vlen   | key (klen)     | value (vlen)     |
//! | u32   | u32    | u32    | bytes          | bytes            |
//! +-------+--------+--------+----------------+------------------+
//! ```
//!
//! A `vlen` of `u32::MAX` marks a tombstone (deletion). The CRC covers
//! `klen || vlen || key || value`.
//!
//! The log is the only copy of the values. The resident index maps each
//! live key to the *file offset and length* of its latest value, and a
//! `get` is one positioned read — so resident memory is proportional to
//! the number of live keys, never to the bytes stored (§3.3: "validators
//! can operate with a fixed size memory"). Invariant: **every append is
//! flushed to the OS before the index learns its offset**, so an offset
//! found in the index is readable through any handle on the file.
//!
//! On open, the log is streamed once into the index; a torn tail
//! (truncated or checksum-failing record) is detected, the log is
//! truncated to the last good record, and recovery proceeds — mirroring
//! how RocksDB handles a crash mid-write.

use crate::{unpoisoned, Crc32, Store, StoreError};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const TOMBSTONE: u32 = u32::MAX;
/// Bytes before the key in every record: crc, klen, vlen.
const HEADER_LEN: u64 = 12;

/// Where a live key's latest value sits in the log.
#[derive(Clone, Copy)]
struct Slot {
    offset: u64,
    len: u32,
}

/// The index over a log's complete records and the accounting that goes
/// with it: what a replay produces and what appends keep current.
struct Log {
    index: BTreeMap<Vec<u8>, Slot>,
    /// Bytes of live key + value data; used to decide when compaction
    /// pays off.
    live_bytes: u64,
    /// Offset just past the last complete record (= the log's size).
    end: u64,
    /// Records in the log (including dead ones).
    records: usize,
}

impl Log {
    /// Folds the record at `self.end` — `key` with a value of `vlen` bytes,
    /// or a tombstone (`None`) — into the index. An overwrite replaces the
    /// old value's bytes (the key is already counted) instead of accruing
    /// a second full key + value.
    fn apply(&mut self, key: &[u8], vlen: Option<u32>) {
        let offset = self.end + HEADER_LEN + key.len() as u64;
        match vlen.map(|len| Slot { offset, len }) {
            Some(slot) => match self.index.get_mut(key) {
                Some(old) => {
                    self.live_bytes = self.live_bytes - old.len as u64 + slot.len as u64;
                    *old = slot;
                }
                None => {
                    self.live_bytes += key.len() as u64 + slot.len as u64;
                    self.index.insert(key.to_vec(), slot);
                }
            },
            None => {
                if let Some(old) = self.index.remove(key) {
                    self.live_bytes -= key.len() as u64 + old.len as u64;
                }
            }
        }
        self.end = offset + vlen.unwrap_or(0) as u64;
        self.records += 1;
    }
}

/// Streams the first `max_records` complete records of the log at `path`
/// (a missing file is an empty log), stopping early at a torn tail. Holds
/// one key and one read buffer at a time — never the log, never a value.
fn replay(path: &Path, max_records: usize) -> Result<Log, StoreError> {
    let mut log = Log {
        index: BTreeMap::new(),
        live_bytes: 0,
        end: 0,
        records: 0,
    };
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(log),
        Err(e) => return Err(e.into()),
    };
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(64 * 1024, file);
    let mut key = Vec::new();
    while log.records < max_records && file_len - log.end >= HEADER_LEN {
        let mut header = [0u8; HEADER_LEN as usize];
        reader.read_exact(&mut header)?;
        let stored_crc = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let klen = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let vlen_raw = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let vlen = if vlen_raw == TOMBSTONE { 0 } else { vlen_raw };
        // Lengths come off the disk: bound them by what the file holds
        // before sizing anything by them.
        if file_len - log.end - HEADER_LEN < klen as u64 + vlen as u64 {
            break;
        }
        let mut crc = Crc32::new();
        crc.update(&header[4..]);
        key.resize(klen as usize, 0);
        reader.read_exact(&mut key)?;
        crc.update(&key);
        let mut left = vlen as usize;
        while left > 0 {
            let buffered = reader.fill_buf()?;
            if buffered.is_empty() {
                return Err(std::io::Error::from(ErrorKind::UnexpectedEof).into());
            }
            let n = buffered.len().min(left);
            crc.update(&buffered[..n]);
            reader.consume(n);
            left -= n;
        }
        if crc.finish() != stored_crc {
            break;
        }
        log.apply(&key, (vlen_raw != TOMBSTONE).then_some(vlen));
    }
    Ok(log)
}

/// Checksums and writes one record, header / key / value straight into
/// `w` — no assembled copy of the record.
fn write_record(w: &mut impl Write, key: &[u8], value: Option<&[u8]>) -> Result<(), StoreError> {
    let too_long = || std::io::Error::new(ErrorKind::InvalidInput, "key or value over 4 GiB");
    let klen = u32::try_from(key.len()).map_err(|_| too_long())?;
    let vlen = match value {
        Some(v) => u32::try_from(v.len())
            .ok()
            .filter(|&len| len != TOMBSTONE)
            .ok_or_else(too_long)?,
        None => TOMBSTONE,
    };
    let value = value.unwrap_or_default();
    let mut lens = [0u8; 8];
    lens[..4].copy_from_slice(&klen.to_le_bytes());
    lens[4..].copy_from_slice(&vlen.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&lens);
    crc.update(key);
    crc.update(value);
    w.write_all(&crc.finish().to_le_bytes())?;
    w.write_all(&lens)?;
    w.write_all(key)?;
    w.write_all(value)?;
    Ok(())
}

/// Reads the value at `slot` through `file`, the handle it was paired
/// with under the lock. A handle that outlived a [`WalStore::compact`]
/// still names the old log, where its slots stay valid; a slot past the
/// end of its file is an error. Only [`Store::tear_tail`] shortens a log
/// in place, and it models a crash: no read is in flight across one.
fn read_slot(file: &File, slot: Slot) -> Result<Vec<u8>, StoreError> {
    let mut value = vec![0u8; slot.len as usize];
    file.read_exact_at(&mut value, slot.offset)?;
    Ok(value)
}

struct Inner {
    log: Log,
    writer: BufWriter<File>,
    /// Read handle on the file `log`'s offsets refer to; replaced together
    /// with the index whenever the file is.
    reader: Arc<File>,
    /// Records covered by the latest durability barrier ([`Store::sync_barrier`]
    /// or the state found on open); [`Store::tear_tail`] cannot cross it.
    synced_records: usize,
    sync_writes: bool,
}

/// A WAL-backed persistent store.
pub struct WalStore {
    path: PathBuf,
    inner: Mutex<Inner>,
}

/// Opens the append and read handles on the log at `path`.
fn open_handles(path: &Path) -> Result<(BufWriter<File>, Arc<File>), StoreError> {
    let writer = OpenOptions::new().create(true).append(true).open(path)?;
    Ok((BufWriter::new(writer), Arc::new(File::open(path)?)))
}

impl WalStore {
    /// Opens (or creates) the store at `path`, replaying any existing log.
    ///
    /// If the tail of the log is torn (a crash happened mid-append), the bad
    /// tail is discarded and the store opens with every complete record.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, false)
    }

    /// Opens with `fsync` after every write (slower, stronger durability).
    pub fn open_durable(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, true)
    }

    fn open_with(path: impl AsRef<Path>, sync_writes: bool) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let log = replay(&path, usize::MAX)?;
        let (writer, reader) = open_handles(&path)?;
        // Truncate a torn tail so future appends start clean.
        if reader.metadata()?.len() > log.end {
            writer.get_ref().set_len(log.end)?;
        }
        Ok(WalStore {
            path,
            inner: Mutex::new(Inner {
                // Whatever the log held at open is on disk and therefore
                // durable: a later tear must not touch it.
                synced_records: log.records,
                log,
                writer,
                reader,
                sync_writes,
            }),
        })
    }

    /// Rewrites the log keeping only live entries, reclaiming space from
    /// overwrites and tombstones. Returns the new log size in bytes.
    pub fn compact(&self) -> Result<u64, StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        let tmp_path = self.path.with_extension("compact");
        {
            let mut w = BufWriter::new(File::create(&tmp_path)?);
            for (key, slot) in &inner.log.index {
                write_record(&mut w, key, Some(&read_slot(&inner.reader, *slot)?))?;
            }
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        // The rename is an update of the directory: until that reaches the
        // disk a crash can bring the old log back — minus whatever the
        // caller, told the compaction succeeded, did next.
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        inner.log = replay(&self.path, usize::MAX)?;
        (inner.writer, inner.reader) = open_handles(&self.path)?;
        // The compacted log was fsynced before the rename.
        inner.synced_records = inner.log.records;
        Ok(inner.log.end)
    }

    /// Current log file size in bytes (including dead records).
    pub fn log_bytes(&self) -> u64 {
        unpoisoned(self.inner.lock()).log.end
    }

    /// Bytes of live key + value data (excluding overwritten and deleted
    /// records); the numerator of the compaction-pays-off heuristic.
    pub fn live_bytes(&self) -> u64 {
        unpoisoned(self.inner.lock()).log.live_bytes
    }

    /// Flushes buffered writes to the OS (and disk if opened durable).
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        inner.writer.flush()?;
        if inner.sync_writes {
            inner.writer.get_ref().sync_all()?;
        }
        Ok(())
    }

    fn append(&self, key: &[u8], value: Option<&[u8]>) -> Result<(), StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        write_record(&mut inner.writer, key, value)?;
        // The record reaches the OS before the index can hand out its
        // offset to a reader.
        inner.writer.flush()?;
        if inner.sync_writes {
            inner.writer.get_ref().sync_all()?;
        }
        inner.log.apply(key, value.map(|v| v.len() as u32));
        Ok(())
    }
}

impl Store for WalStore {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.append(key, Some(value))
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        // Pair the slot with the handle it is valid for under the lock;
        // read outside it, so a large value never stalls writers.
        let (reader, slot) = {
            let inner = unpoisoned(self.inner.lock());
            match inner.log.index.get(key) {
                Some(slot) => (inner.reader.clone(), *slot),
                None => return Ok(None),
            }
        };
        read_slot(&reader, slot).map(Some)
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.append(key, None)
    }

    fn contains(&self, key: &[u8]) -> Result<bool, StoreError> {
        Ok(unpoisoned(self.inner.lock()).log.index.contains_key(key))
    }

    fn keys_with_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        let inner = unpoisoned(self.inner.lock());
        Ok(inner
            .log
            .index
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn len(&self) -> Result<usize, StoreError> {
        Ok(unpoisoned(self.inner.lock()).log.index.len())
    }

    fn sync_barrier(&self) -> Result<(), StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        inner.writer.flush()?;
        inner.writer.get_ref().sync_all()?;
        inner.synced_records = inner.log.records;
        Ok(())
    }

    /// Discards the last `ops` un-synced records, as if the process had
    /// crashed before those appends reached disk: the index is rebuilt
    /// from the surviving prefix and the log truncated to its last record
    /// boundary (what [`WalStore::open`]'s torn-tail scan would itself do
    /// to a ragged file), so the store stays appendable in place.
    fn tear_tail(&self, ops: usize) -> Result<usize, StoreError> {
        let mut inner = unpoisoned(self.inner.lock());
        let torn = ops.min(inner.log.records - inner.synced_records);
        if torn == 0 {
            return Ok(0);
        }
        let prefix = replay(&self.path, inner.log.records - torn)?;
        let file = inner.writer.get_ref();
        file.set_len(prefix.end)?;
        file.sync_all()?;
        inner.log = prefix;
        Ok(torn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "nt-wal-{}-{}-{name}.log",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        p
    }

    #[test]
    fn put_get_roundtrip() {
        let path = tmp("roundtrip");
        let s = WalStore::open(&path).unwrap();
        s.put(b"key", b"value").unwrap();
        assert_eq!(s.get(b"key").unwrap(), Some(b"value".to_vec()));
        s.delete(b"key").unwrap();
        assert_eq!(s.get(b"key").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn survives_reopen() {
        let path = tmp("reopen");
        {
            let s = WalStore::open(&path).unwrap();
            s.put(b"a", b"1").unwrap();
            s.put(b"b", b"2").unwrap();
            s.put(b"a", b"3").unwrap();
            s.delete(b"b").unwrap();
            s.flush().unwrap();
        }
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(b"3".to_vec()));
        assert_eq!(s.get(b"b").unwrap(), None);
        assert_eq!(s.len().unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovers_from_torn_tail() {
        let path = tmp("torn");
        {
            let s = WalStore::open(&path).unwrap();
            s.put(b"a", b"1").unwrap();
            s.put(b"b", b"2").unwrap();
            s.flush().unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the tail.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let s = WalStore::open(&path).unwrap();
        assert_eq!(
            s.get(b"a").unwrap(),
            Some(b"1".to_vec()),
            "first record intact"
        );
        assert_eq!(s.get(b"b").unwrap(), None, "torn record dropped");
        // The store is writable again after truncation.
        s.put(b"c", b"3").unwrap();
        s.flush().unwrap();
        drop(s);
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.get(b"c").unwrap(), Some(b"3".to_vec()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_corrupt_record() {
        let path = tmp("corrupt");
        {
            let s = WalStore::open(&path).unwrap();
            s.put(b"a", b"1").unwrap();
            s.put(b"b", b"2").unwrap();
            s.flush().unwrap();
        }
        // Flip a byte in the middle of the second record's value.
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xff;
        std::fs::write(&path, &data).unwrap();

        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"b").unwrap(), None, "corrupt record dropped");
        std::fs::remove_file(&path).ok();
    }

    /// Regression: replay used to add `key + value` for every put record
    /// unconditionally, discarding the old value `index.insert` returned —
    /// unlike the live `append` path — so a reopened store over-reported
    /// `live_bytes` for any log containing overwrites, skewing the
    /// compaction heuristic.
    #[test]
    fn replay_accounting_matches_fresh_write_accounting() {
        let path = tmp("replay-acct");
        let fresh_live = {
            let s = WalStore::open(&path).unwrap();
            // Overwrites (same key, different sizes), a delete, a
            // delete-then-reinsert, and an untouched key.
            s.put(b"hot", b"1").unwrap();
            s.put(b"hot", b"22").unwrap();
            s.put(b"hot", b"333").unwrap();
            s.put(b"gone", b"xxxx").unwrap();
            s.delete(b"gone").unwrap();
            s.put(b"back", b"y").unwrap();
            s.delete(b"back").unwrap();
            s.put(b"back", b"zz").unwrap();
            s.put(b"cold", b"value").unwrap();
            s.flush().unwrap();
            s.live_bytes()
        };
        // Ground truth: the live index holds hot=333, back=zz, cold=value.
        assert_eq!(fresh_live, (3 + 3) + (4 + 2) + (4 + 5));
        let replayed = WalStore::open(&path).unwrap();
        assert_eq!(
            replayed.live_bytes(),
            fresh_live,
            "replayed accounting equals fresh-write accounting"
        );
        assert_eq!(
            replayed.log_bytes(),
            std::fs::metadata(&path).unwrap().len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_shrinks_log() {
        let path = tmp("compact");
        let s = WalStore::open(&path).unwrap();
        for i in 0..100u32 {
            // Overwrite the same key repeatedly: 99 dead records.
            s.put(b"hot", &i.to_le_bytes()).unwrap();
        }
        let before = s.log_bytes();
        let after = s.compact().unwrap();
        assert!(after < before / 10, "compaction reclaims dead space");
        assert_eq!(s.get(b"hot").unwrap(), Some(99u32.to_le_bytes().to_vec()));
        // Store still durable after compaction.
        s.put(b"cold", b"x").unwrap();
        s.flush().unwrap();
        drop(s);
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.get(b"hot").unwrap(), Some(99u32.to_le_bytes().to_vec()));
        assert_eq!(s.get(b"cold").unwrap(), Some(b"x".to_vec()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacted_log_reopens_with_the_same_contents_and_accounting() {
        let path = tmp("compact_reopen");
        let s = WalStore::open(&path).unwrap();
        for i in 0..50u32 {
            s.put(b"hot", &i.to_le_bytes()).unwrap();
            s.put(&i.to_le_bytes(), b"cold").unwrap();
        }
        s.delete(&7u32.to_le_bytes()).unwrap();
        let live = s.live_bytes();
        assert_eq!(live, (3 + 4) + 49 * (4 + 4));
        let compacted = s.compact().unwrap();
        assert_eq!(s.live_bytes(), live);
        // Nothing is written after the compaction: what reopens is the
        // renamed file alone.
        drop(s);
        assert!(!path.with_extension("compact").exists());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), compacted);
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.live_bytes(), live);
        assert_eq!(s.log_bytes(), compacted);
        assert_eq!(s.len().unwrap(), 50);
        assert_eq!(s.get(b"hot").unwrap(), Some(49u32.to_le_bytes().to_vec()));
        assert_eq!(s.get(&7u32.to_le_bytes()).unwrap(), None);
        assert_eq!(s.get(&8u32.to_le_bytes()).unwrap(), Some(b"cold".to_vec()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prefix_scan() {
        let path = tmp("prefix");
        let s = WalStore::open(&path).unwrap();
        s.put(b"h/1", b"x").unwrap();
        s.put(b"h/2", b"y").unwrap();
        s.put(b"c/1", b"z").unwrap();
        assert_eq!(s.keys_with_prefix(b"h/").unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tear_tail_rolls_back_recent_writes() {
        let path = tmp("tear");
        let s = WalStore::open(&path).unwrap();
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        s.put(b"a", b"3").unwrap(); // overwrite
        s.delete(b"b").unwrap(); // tombstone
        assert_eq!(s.tear_tail(2).unwrap(), 2, "overwrite + delete torn");
        // The store is exactly as it was two writes ago.
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(s.live_bytes(), 4, "accounting rebuilt from the prefix");
        // Still appendable and durable after the tear.
        s.put(b"c", b"4").unwrap();
        s.flush().unwrap();
        drop(s);
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(s.get(b"c").unwrap(), Some(b"4".to_vec()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tear_tail_respects_sync_barriers() {
        let path = tmp("tear-barrier");
        let s = WalStore::open(&path).unwrap();
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        s.sync_barrier().unwrap();
        s.put(b"c", b"3").unwrap();
        s.put(b"d", b"4").unwrap();
        // Only the two un-synced writes can tear, however much is asked.
        assert_eq!(s.tear_tail(10).unwrap(), 2);
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(s.get(b"c").unwrap(), None);
        assert_eq!(s.get(b"d").unwrap(), None);
        assert_eq!(s.tear_tail(1).unwrap(), 0, "nothing left to tear");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopened_state_is_durable_and_untearable() {
        let path = tmp("tear-reopen");
        {
            let s = WalStore::open(&path).unwrap();
            s.put(b"a", b"1").unwrap();
            s.put(b"b", b"2").unwrap();
            s.flush().unwrap();
        }
        // Everything found on open is on disk: a tear cannot discard it.
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.tear_tail(5).unwrap(), 0);
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        // Only writes made after the reopen are tearable.
        s.put(b"c", b"3").unwrap();
        assert_eq!(s.tear_tail(5).unwrap(), 1);
        assert_eq!(s.get(b"c").unwrap(), None);
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tear_tail_clamps_and_handles_empty() {
        let path = tmp("tear-clamp");
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.tear_tail(3).unwrap(), 0, "empty log tears nothing");
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        assert_eq!(s.tear_tail(0).unwrap(), 0, "zero ops is a no-op");
        assert_eq!(s.tear_tail(10).unwrap(), 2, "clamped to the log length");
        assert!(s.is_empty().unwrap());
        assert_eq!(s.log_bytes(), 0);
        // A store torn to nothing accepts new writes.
        s.put(b"fresh", b"x").unwrap();
        assert_eq!(s.get(b"fresh").unwrap(), Some(b"x".to_vec()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn large_and_empty_values_survive_every_rewrite() {
        // 300 KB bypasses the `BufWriter` (capacity 8 KiB) and spans many
        // replay buffers; an empty value writes and reads zero bytes.
        let path = tmp("large");
        let big: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let big2: Vec<u8> = big.iter().rev().copied().collect();
        let check = |s: &WalStore, big: &[u8], empty: &[u8], small: &[u8]| {
            assert_eq!(s.get(b"big").unwrap().as_deref(), Some(big));
            assert_eq!(s.get(b"empty").unwrap().as_deref(), Some(empty));
            assert_eq!(s.get(b"small").unwrap().as_deref(), Some(small));
        };
        let s = WalStore::open(&path).unwrap();
        s.put(b"big", &big).unwrap();
        s.put(b"empty", b"").unwrap();
        s.put(b"small", b"x").unwrap();
        check(&s, &big, b"", b"x");
        // Overwrites in both directions: offsets move to the new records.
        s.put(b"big", &big2).unwrap();
        s.put(b"empty", b"filled").unwrap();
        s.put(b"small", b"").unwrap();
        check(&s, &big2, b"filled", b"");
        drop(s);
        let s = WalStore::open(&path).unwrap();
        check(&s, &big2, b"filled", b"");
        let live = (3 + 300_000) + (5 + 6) + 5;
        assert_eq!(s.live_bytes(), live);
        assert_eq!(s.compact().unwrap(), live + 3 * HEADER_LEN);
        check(&s, &big2, b"filled", b"");
        // Writes after the compaction land behind it and can tear.
        s.put(b"big", &big).unwrap();
        s.put(b"empty", b"").unwrap();
        check(&s, &big, b"", b"");
        assert_eq!(s.tear_tail(2).unwrap(), 2);
        check(&s, &big2, b"filled", b"");
        assert_eq!(s.live_bytes(), live);
        assert_eq!(s.log_bytes(), std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_from_before_a_compaction_never_sees_foreign_bytes() {
        let path = tmp("swap");
        let s = WalStore::open(&path).unwrap();
        s.put(b"a", b"dead").unwrap();
        s.put(b"pad", &[7u8; 4096]).unwrap();
        s.put(b"a", b"alive").unwrap();
        s.put(b"z", b"last").unwrap();
        // What a `get` holds between leaving the lock and reading.
        let (reader, slot) = {
            let inner = unpoisoned(s.inner.lock());
            (inner.reader.clone(), inner.log.index[b"a".as_slice()])
        };
        s.compact().unwrap();
        // Every offset moved; the new index is right for the new file.
        assert!(unpoisoned(s.inner.lock()).log.index[b"a".as_slice()].offset < slot.offset);
        assert_eq!(s.get(b"a").unwrap(), Some(b"alive".to_vec()));
        assert_eq!(s.get(b"pad").unwrap(), Some(vec![7u8; 4096]));
        assert_eq!(s.get(b"z").unwrap(), Some(b"last".to_vec()));
        // The old pair still names the old file, and reads the old value.
        assert_eq!(read_slot(&reader, slot).unwrap(), b"alive");
        // A slot that runs past the end of its file is an error.
        let inner = unpoisoned(s.inner.lock());
        let past_end = Slot {
            offset: inner.log.end - 1,
            len: 2,
        };
        assert!(read_slot(&inner.reader, past_end).is_err());
        drop(inner);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn contains_never_reads_the_value() {
        let path = tmp("contains");
        let s = WalStore::open(&path).unwrap();
        s.put(b"big", &vec![1u8; 1 << 20]).unwrap();
        // Take the bytes away underneath the store: anything that needed
        // them fails, anything answered by the index does not.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(0).unwrap();
        assert!(s.contains(b"big").unwrap());
        assert!(!s.contains(b"other").unwrap());
        assert!(s.get(b"big").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_key_and_value() {
        let path = tmp("empty");
        let s = WalStore::open(&path).unwrap();
        s.put(b"", b"").unwrap();
        assert_eq!(s.get(b"").unwrap(), Some(vec![]));
        drop(s);
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.get(b"").unwrap(), Some(vec![]));
        std::fs::remove_file(&path).ok();
    }
}
