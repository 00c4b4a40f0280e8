//! The typed persistent block store (the paper's RocksDB role, §6).
//!
//! "Data-structures are persisted using RocksDB." This module layers typed
//! accessors for certificates and batches over any [`nt_storage::Store`]
//! backend (the WAL store for durability, the memory store for simulation),
//! with round-prefixed certificate keys so garbage collection (§3.3) and
//! recovery scans are prefix range queries.
//!
//! Recovery: [`BlockStore::load_dag`] rebuilds the certified DAG from disk
//! after a crash, so a restarted validator resumes from its persisted
//! frontier instead of genesis (paired with the WAL's torn-tail recovery
//! in `nt-storage`).

use crate::dag::Dag;
use nt_codec::{decode_from_slice, encode_to_vec};
use nt_crypto::Digest;
use nt_execution::SnapshotPackage;
use nt_storage::{DynStore, StoreError};
use nt_types::{Batch, Certificate, Committee, Header, Round, ValidatorId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Typed store for certificates, batches, and the primary's recovery
/// bookkeeping (ordered markers, vote locks, consensus checkpoint).
///
/// Cloning is cheap: clones share the same backend.
#[derive(Clone)]
pub struct BlockStore {
    inner: DynStore,
}

/// Errors surfaced by the block store.
#[derive(Debug)]
pub enum BlockStoreError {
    /// The backend failed.
    Storage(StoreError),
    /// A stored value failed to decode (on-disk corruption).
    Corrupt(Digest),
}

impl From<StoreError> for BlockStoreError {
    fn from(e: StoreError) -> Self {
        BlockStoreError::Storage(e)
    }
}

impl std::fmt::Display for BlockStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockStoreError::Storage(e) => write!(f, "storage: {e}"),
            BlockStoreError::Corrupt(d) => write!(f, "corrupt record for {d}"),
        }
    }
}

impl std::error::Error for BlockStoreError {}

fn cert_key(round: Round, digest: &Digest) -> Vec<u8> {
    let mut key = Vec::with_capacity(2 + 8 + 32);
    key.extend_from_slice(b"c/");
    key.extend_from_slice(&round.to_be_bytes());
    key.extend_from_slice(digest.as_bytes());
    key
}

fn cert_index_key(digest: &Digest) -> Vec<u8> {
    let mut key = Vec::with_capacity(2 + 32);
    key.extend_from_slice(b"i/");
    key.extend_from_slice(digest.as_bytes());
    key
}

fn batch_key(digest: &Digest) -> Vec<u8> {
    let mut key = Vec::with_capacity(2 + 32);
    key.extend_from_slice(b"b/");
    key.extend_from_slice(digest.as_bytes());
    key
}

fn ordered_key(digest: &Digest) -> Vec<u8> {
    let mut key = Vec::with_capacity(2 + 32);
    key.extend_from_slice(b"o/");
    key.extend_from_slice(digest.as_bytes());
    key
}

fn vote_key(round: Round, creator: ValidatorId) -> Vec<u8> {
    let mut key = Vec::with_capacity(2 + 8 + 4);
    key.extend_from_slice(b"v/");
    key.extend_from_slice(&round.to_be_bytes());
    key.extend_from_slice(&creator.0.to_be_bytes());
    key
}

fn committed_batch_key(digest: &Digest) -> Vec<u8> {
    let mut key = Vec::with_capacity(3 + 32);
    key.extend_from_slice(b"cb/");
    key.extend_from_slice(digest.as_bytes());
    key
}

fn snapshot_key(sequence: u64) -> Vec<u8> {
    let mut key = Vec::with_capacity(4 + 8);
    key.extend_from_slice(b"s/p/");
    key.extend_from_slice(&sequence.to_be_bytes());
    key
}

fn install_key(sequence: u64) -> Vec<u8> {
    let mut key = Vec::with_capacity(4 + 8);
    key.extend_from_slice(b"s/j/");
    key.extend_from_slice(&sequence.to_be_bytes());
    key
}

const CONSENSUS_KEY: &[u8] = b"k/consensus";
const SEQUENCE_KEY: &[u8] = b"k/sequence";
const GC_ROUND_KEY: &[u8] = b"k/gc";
const OWN_HEADER_KEY: &[u8] = b"k/own-header";
const APP_STATE_KEY: &[u8] = b"k/app";

/// How many snapshot packages a validator retains; older ones are
/// superseded and garbage-collected on the next `put_snapshot`.
const SNAPSHOTS_RETAINED: usize = 2;

/// The one disk-failure policy of both roles: fail-stop. A validator whose
/// vote lock, ordered marker or acknowledged batch did not reach disk must
/// not go on to vote, commit or acknowledge as if it had — its next
/// incarnation would equivocate or renumber the sequence. Crashing instead
/// is a fault the protocol tolerates (§2: up to `f` validators), and
/// recovery restarts from whatever the store did keep.
pub(crate) fn fail_stop<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    // Invariant of the deployment, not of the program: the disk works.
    result.unwrap_or_else(|e| panic!("fail-stop, durable state is unavailable: {e}"))
}

// Key parsers. A key of the wrong length is skipped by every reader, the
// way an unreadable record is: on-disk data is never trusted to be
// well formed.

/// The digest that makes up all of `key` after its `prefix` bytes.
fn digest_after(key: &[u8], prefix: usize) -> Option<Digest> {
    Some(Digest(key.get(prefix..)?.try_into().ok()?))
}

/// The `(round, creator)` of a `v/` key.
fn vote_key_parts(key: &[u8]) -> Option<(Round, ValidatorId)> {
    let (round, creator) = key.get(2..)?.split_first_chunk::<8>()?;
    let creator = u32::from_be_bytes(creator.try_into().ok()?);
    Some((Round::from_be_bytes(*round), ValidatorId(creator)))
}

#[cfg(test)]
thread_local! {
    /// Calls to [`BlockStore::encode_batch`] on this thread, for the worker
    /// tests that pin one encode and one hash per batch.
    pub(crate) static BATCH_ENCODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl BlockStore {
    /// Wraps a backend store.
    pub fn new(inner: DynStore) -> Self {
        BlockStore { inner }
    }

    /// Persists a certificate (idempotent).
    pub fn put_certificate(&self, cert: &Certificate) -> Result<(), BlockStoreError> {
        let digest = cert.header_digest();
        let bytes = encode_to_vec(cert);
        self.inner.put(&cert_key(cert.round(), &digest), &bytes)?;
        // Secondary index: digest -> round, for point lookups.
        self.inner
            .put(&cert_index_key(&digest), &cert.round().to_be_bytes())?;
        Ok(())
    }

    /// Reads a certificate by header digest.
    pub fn get_certificate(&self, digest: &Digest) -> Result<Option<Certificate>, BlockStoreError> {
        let Some(round_bytes) = self.inner.get(&cert_index_key(digest))? else {
            return Ok(None);
        };
        let round = Round::from_be_bytes(
            round_bytes
                .as_slice()
                .try_into()
                .map_err(|_| BlockStoreError::Corrupt(*digest))?,
        );
        let Some(bytes) = self.inner.get(&cert_key(round, digest))? else {
            return Ok(None);
        };
        let cert = decode_from_slice(&bytes).map_err(|_| BlockStoreError::Corrupt(*digest))?;
        Ok(Some(cert))
    }

    /// Encodes `batch` and digests that encoding: the one `(digest, bytes)`
    /// pair a worker makes per batch, which [`BlockStore::put_batch`]
    /// writes and every report names.
    pub fn encode_batch(batch: &Batch) -> (Digest, Vec<u8>) {
        #[cfg(test)]
        BATCH_ENCODES.with(|n| n.set(n.get() + 1));
        let bytes = encode_to_vec(batch);
        // `Batch::digest` over the encoding already in hand (the
        // `batch_roundtrip` test holds the two equal).
        (Digest::of_parts(&[b"batch", &bytes]), bytes)
    }

    /// Persists a batch as the pair [`BlockStore::encode_batch`] made
    /// (idempotent).
    pub fn put_batch(&self, digest: &Digest, bytes: &[u8]) -> Result<(), BlockStoreError> {
        self.inner.put(&batch_key(digest), bytes)?;
        Ok(())
    }

    /// Reads a batch by digest.
    pub fn get_batch(&self, digest: &Digest) -> Result<Option<Batch>, BlockStoreError> {
        let Some(bytes) = self.inner.get(&batch_key(digest))? else {
            return Ok(None);
        };
        let batch = decode_from_slice(&bytes).map_err(|_| BlockStoreError::Corrupt(*digest))?;
        Ok(Some(batch))
    }

    /// True if the batch is stored; never reads its bytes.
    pub fn has_batch(&self, digest: &Digest) -> Result<bool, BlockStoreError> {
        Ok(self.inner.contains(&batch_key(digest))?)
    }

    /// Deletes a batch's bytes (garbage collection). Its committed marker
    /// stays: the bytes may outlive this call in a store the primary does
    /// not share (one WAL per role), and be reported again.
    pub fn delete_batch(&self, digest: &Digest) -> Result<(), BlockStoreError> {
        self.inner.delete(&batch_key(digest))?;
        Ok(())
    }

    /// Digests of all persisted batches, so restart recovery can walk them
    /// one [`BlockStore::get_batch`] at a time.
    pub fn batch_digests(&self) -> Result<Vec<Digest>, BlockStoreError> {
        Ok(self
            .inner
            .keys_with_prefix(b"b/")?
            .iter()
            .filter_map(|key| digest_after(key, 2))
            .collect())
    }

    /// Marks one of our own batches as committed (its digest reached the
    /// committed sequence), so it is never proposed again — by a restarted
    /// primary, or by this one once garbage collection has made it forget
    /// the batch. Never deleted: it is the one permanent record.
    pub fn put_committed_batch(&self, digest: &Digest) -> Result<(), BlockStoreError> {
        self.inner.put(&committed_batch_key(digest), &[])?;
        Ok(())
    }

    /// True if our own batch `digest` is marked committed.
    pub fn is_committed_batch(&self, digest: &Digest) -> Result<bool, BlockStoreError> {
        Ok(self.inner.contains(&committed_batch_key(digest))?)
    }

    /// Digests of own batches marked committed.
    pub fn committed_batches(&self) -> Result<HashSet<Digest>, BlockStoreError> {
        Ok(self
            .inner
            .keys_with_prefix(b"cb/")?
            .iter()
            .filter_map(|key| digest_after(key, 3))
            .collect())
    }

    /// Marks a block as linearized into the committed sequence at position
    /// `sequence`. One atomic record carries both facts: a torn log tail
    /// can lose whole commits (recovery then re-derives the same order)
    /// but can never split a block's marker from its sequence number —
    /// which would make the counter and the ordered set disagree and
    /// renumber the replay.
    pub fn put_ordered(&self, digest: &Digest, sequence: u64) -> Result<(), BlockStoreError> {
        self.inner
            .put(&ordered_key(digest), &sequence.to_be_bytes())?;
        Ok(())
    }

    /// Unmarks an ordered block (its certificate was garbage collected).
    pub fn delete_ordered(&self, digest: &Digest) -> Result<(), BlockStoreError> {
        self.inner.delete(&ordered_key(digest))?;
        Ok(())
    }

    /// Digests of all blocks marked ordered.
    pub fn ordered_digests(&self) -> Result<HashSet<Digest>, BlockStoreError> {
        Ok(self.load_ordered()?.0)
    }

    /// All ordered markers plus the highest sequence number they carry
    /// (0 when none do). Recovery resumes the commit counter at
    /// `max(this, `[`BlockStore::sequence`]`)` — the floor covers markers
    /// deleted by garbage collection.
    #[allow(clippy::type_complexity)]
    pub fn load_ordered(&self) -> Result<(HashSet<Digest>, u64), BlockStoreError> {
        let mut out = HashSet::new();
        let mut max_seq = 0u64;
        for key in self.inner.keys_with_prefix(b"o/")? {
            let Some(digest) = digest_after(&key, 2) else {
                continue;
            };
            out.insert(digest);
            if let Some(value) = self.inner.get(&key)? {
                if let Ok(raw) = <[u8; 8]>::try_from(value.as_slice()) {
                    max_seq = max_seq.max(u64::from_be_bytes(raw));
                }
            }
        }
        Ok((out, max_seq))
    }

    /// Durability fence on the backend (see [`nt_storage::Store::sync_barrier`]):
    /// everything written so far survives any later torn tail.
    pub fn barrier(&self) -> Result<(), BlockStoreError> {
        self.inner.sync_barrier()?;
        Ok(())
    }

    /// Persists the block digest we acknowledged for `(round, creator)`.
    ///
    /// This is the §3.1 condition-4 vote lock: a restarted validator must
    /// never sign a *different* block from the same creator in the same
    /// round, or it would help certify an equivocation it already rejected.
    pub fn put_vote(
        &self,
        round: Round,
        creator: ValidatorId,
        digest: &Digest,
    ) -> Result<(), BlockStoreError> {
        self.inner
            .put(&vote_key(round, creator), digest.as_bytes())?;
        Ok(())
    }

    /// All persisted vote locks, grouped by round.
    pub fn load_votes(
        &self,
    ) -> Result<BTreeMap<Round, HashMap<ValidatorId, Digest>>, BlockStoreError> {
        let mut out: BTreeMap<Round, HashMap<ValidatorId, Digest>> = BTreeMap::new();
        for key in self.inner.keys_with_prefix(b"v/")? {
            let Some((round, creator)) = vote_key_parts(&key) else {
                continue;
            };
            let Some(bytes) = self.inner.get(&key)? else {
                continue;
            };
            let Ok(raw) = <[u8; 32]>::try_from(bytes.as_slice()) else {
                continue;
            };
            out.entry(round).or_default().insert(creator, Digest(raw));
        }
        Ok(out)
    }

    /// Deletes vote locks for rounds strictly below `round` (GC).
    pub fn gc_votes_below(&self, round: Round) -> Result<(), BlockStoreError> {
        for key in self.inner.keys_with_prefix(b"v/")? {
            if vote_key_parts(&key).is_some_and(|(key_round, _)| key_round < round) {
                self.inner.delete(&key)?;
            }
        }
        Ok(())
    }

    /// Persists the primary's current in-flight proposal (one slot,
    /// overwritten per round). A proposal is externalized the moment its
    /// header is broadcast, but it only completes once `2f + 1` votes
    /// return — a primary that crashes inside that window can neither
    /// re-propose the round (§3.1 condition 4: it already signed a block
    /// there) nor retransmit a header it no longer has, leaving the round
    /// one certificate short forever. Recovery re-arms the slot so the
    /// §4.1 retransmission completes the round; peers' acknowledgments are
    /// idempotent, so re-sending the same signed header is always safe.
    pub fn put_own_header(&self, header: &Header) -> Result<(), BlockStoreError> {
        self.inner.put(OWN_HEADER_KEY, &encode_to_vec(header))?;
        Ok(())
    }

    /// Reads the persisted in-flight proposal, if any.
    pub fn own_header(&self) -> Result<Option<Header>, BlockStoreError> {
        let Some(bytes) = self.inner.get(OWN_HEADER_KEY)? else {
            return Ok(None);
        };
        Ok(decode_from_slice(&bytes).ok())
    }

    /// Persists the consensus plug-in's checkpoint blob.
    pub fn put_consensus_checkpoint(&self, blob: &[u8]) -> Result<(), BlockStoreError> {
        self.inner.put(CONSENSUS_KEY, blob)?;
        Ok(())
    }

    /// Reads the consensus checkpoint blob, if one was written.
    pub fn consensus_checkpoint(&self) -> Result<Option<Vec<u8>>, BlockStoreError> {
        Ok(self.inner.get(CONSENSUS_KEY)?)
    }

    /// Persists the commit-sequence floor. Written right before garbage
    /// collection deletes ordered markers, so the counter those markers
    /// carried (see [`BlockStore::put_ordered`]) survives the deletion.
    pub fn put_sequence(&self, sequence: u64) -> Result<(), BlockStoreError> {
        self.inner.put(SEQUENCE_KEY, &sequence.to_be_bytes())?;
        Ok(())
    }

    /// Reads the commit-sequence floor (0 if never written).
    pub fn sequence(&self) -> Result<u64, BlockStoreError> {
        Ok(self
            .inner
            .get(SEQUENCE_KEY)?
            .and_then(|b| b.as_slice().try_into().ok().map(u64::from_be_bytes))
            .unwrap_or(0))
    }

    /// Persists the last garbage-collection round.
    pub fn put_gc_round(&self, round: Round) -> Result<(), BlockStoreError> {
        self.inner.put(GC_ROUND_KEY, &round.to_be_bytes())?;
        Ok(())
    }

    /// Reads the last garbage-collection round (`None` before the first GC).
    pub fn gc_round(&self) -> Result<Option<Round>, BlockStoreError> {
        Ok(self
            .inner
            .get(GC_ROUND_KEY)?
            .and_then(|b| b.as_slice().try_into().ok().map(Round::from_be_bytes)))
    }

    /// Deletes all certificates below `round` (garbage collection, §3.3:
    /// "blocks from earlier rounds can safely be stored off the main
    /// validator" — or dropped once committed).
    pub fn gc_certificates_below(&self, round: Round) -> Result<usize, BlockStoreError> {
        let mut removed = 0;
        for key in self.inner.keys_with_prefix(b"c/")? {
            let Some((key_round, rest)) = key.get(2..).and_then(<[u8]>::split_first_chunk) else {
                continue;
            };
            if Round::from_be_bytes(*key_round) < round {
                if let Some(digest) = rest.first_chunk() {
                    self.inner.delete(&cert_index_key(&Digest(*digest)))?;
                }
                self.inner.delete(&key)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Rebuilds the DAG from persisted certificates, verifying each against
    /// the committee (on-disk data is not trusted blindly). Certificates
    /// are inserted in round order so ancestry is satisfied bottom-up;
    /// unverifiable records are skipped.
    pub fn load_dag(&self, committee: &Committee) -> Result<Dag, BlockStoreError> {
        let mut dag = Dag::new();
        dag.insert_genesis(Certificate::genesis_set(committee));
        // Keys are big-endian-round prefixed: lexicographic order == round
        // order.
        for key in self.inner.keys_with_prefix(b"c/")? {
            let Some(bytes) = self.inner.get(&key)? else {
                continue;
            };
            let Ok(cert) = decode_from_slice::<Certificate>(&bytes) else {
                continue;
            };
            if cert.verify(committee).is_ok() {
                dag.insert(cert);
            }
        }
        Ok(dag)
    }

    /// All ordered markers with the sequence number each carries — the
    /// committed positions within the retained window, used to package
    /// snapshots and to replay the app across a torn-tail restart.
    pub fn ordered_refs(&self) -> Result<Vec<(Digest, u64)>, BlockStoreError> {
        let mut out = Vec::new();
        for key in self.inner.keys_with_prefix(b"o/")? {
            let Some(digest) = digest_after(&key, 2) else {
                continue;
            };
            let Some(value) = self.inner.get(&key)? else {
                continue;
            };
            let Ok(raw) = <[u8; 8]>::try_from(value.as_slice()) else {
                continue;
            };
            out.push((digest, u64::from_be_bytes(raw)));
        }
        out.sort_by_key(|(_, seq)| *seq);
        Ok(out)
    }

    /// Persists the app state at `sequence` (one slot, overwritten per
    /// commit). Written *after* the commit's ordered marker, so recovery
    /// can only find app state at or behind the commit counter — the gap
    /// is closed by replaying the ordered markers above it.
    pub fn put_app_state(&self, sequence: u64, bytes: &[u8]) -> Result<(), BlockStoreError> {
        let mut value = Vec::with_capacity(8 + bytes.len());
        value.extend_from_slice(&sequence.to_be_bytes());
        value.extend_from_slice(bytes);
        self.inner.put(APP_STATE_KEY, &value)?;
        Ok(())
    }

    /// Reads the persisted app state and its sequence, if any.
    #[allow(clippy::type_complexity)]
    pub fn app_state(&self) -> Result<Option<(u64, Vec<u8>)>, BlockStoreError> {
        let Some(value) = self.inner.get(APP_STATE_KEY)? else {
            return Ok(None);
        };
        let Some((sequence, app)) = value.split_first_chunk::<8>() else {
            return Err(BlockStoreError::Corrupt(Digest::of(APP_STATE_KEY)));
        };
        Ok(Some((u64::from_be_bytes(*sequence), app.to_vec())))
    }

    /// Persists one snapshot package at its snapshot point and prunes
    /// superseded packages, keeping the newest `SNAPSHOTS_RETAINED`.
    pub fn put_snapshot(&self, package: &SnapshotPackage) -> Result<(), BlockStoreError> {
        self.inner.put(
            &snapshot_key(package.manifest.sequence),
            &encode_to_vec(package),
        )?;
        let sequences = self.snapshot_sequences()?;
        if sequences.len() > SNAPSHOTS_RETAINED {
            for seq in &sequences[..sequences.len() - SNAPSHOTS_RETAINED] {
                self.inner.delete(&snapshot_key(*seq))?;
            }
        }
        Ok(())
    }

    /// Reads the snapshot package at `sequence`, if retained.
    pub fn snapshot(&self, sequence: u64) -> Result<Option<SnapshotPackage>, BlockStoreError> {
        let Some(bytes) = self.inner.get(&snapshot_key(sequence))? else {
            return Ok(None);
        };
        let package = decode_from_slice(&bytes)
            .map_err(|_| BlockStoreError::Corrupt(Digest::of(&sequence.to_be_bytes())))?;
        Ok(Some(package))
    }

    /// Snapshot points with a retained package, ascending.
    pub fn snapshot_sequences(&self) -> Result<Vec<u64>, BlockStoreError> {
        self.sequences_under(b"s/p/")
    }

    /// The newest retained snapshot package, if any.
    pub fn latest_snapshot(&self) -> Result<Option<SnapshotPackage>, BlockStoreError> {
        match self.snapshot_sequences()?.last() {
            Some(seq) => self.snapshot(*seq),
            None => Ok(None),
        }
    }

    /// Records that state transfer installed a snapshot whose checkpoint
    /// was `sequence`. Written only on install — never by snapshot
    /// *production* — so a sequence jump in this validator's commit stream
    /// is licensed exactly when a marker matches the jump boundary.
    pub fn put_snapshot_install(&self, sequence: u64) -> Result<(), BlockStoreError> {
        self.inner.put(&install_key(sequence), &[])?;
        Ok(())
    }

    /// Checkpoint sequences of every installed snapshot, ascending.
    pub fn snapshot_installs(&self) -> Result<Vec<u64>, BlockStoreError> {
        self.sequences_under(b"s/j/")
    }

    /// The sequences named by the keys under a four-byte `prefix`,
    /// ascending.
    fn sequences_under(&self, prefix: &[u8]) -> Result<Vec<u64>, BlockStoreError> {
        let keys = self.inner.keys_with_prefix(prefix)?;
        let sequence = |key: &Vec<u8>| Some(u64::from_be_bytes(key.get(4..)?.try_into().ok()?));
        let mut out: Vec<u64> = keys.iter().filter_map(sequence).collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Number of stored entries (certificates + indexes + batches).
    pub fn len(&self) -> Result<usize, BlockStoreError> {
        Ok(self.inner.len()?)
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> Result<bool, BlockStoreError> {
        Ok(self.inner.is_empty()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_crypto::{Hashable, KeyPair, Scheme};
    use nt_storage::MemStore;
    use nt_types::{ValidatorId, Vote, WorkerId};
    use std::sync::Arc;

    fn store() -> BlockStore {
        BlockStore::new(Arc::new(MemStore::new()))
    }

    fn make_cert(
        committee: &Committee,
        kps: &[KeyPair],
        round: Round,
        author: u32,
        parents: Vec<Digest>,
    ) -> Certificate {
        let header = Header::new(
            &kps[author as usize],
            ValidatorId(author),
            round,
            vec![],
            parents,
            None,
        );
        let votes: Vec<Vote> = kps
            .iter()
            .enumerate()
            .map(|(j, kp)| {
                Vote::new(
                    kp,
                    ValidatorId(j as u32),
                    header.digest(),
                    round,
                    header.author,
                )
            })
            .collect();
        Certificate::from_votes(committee, header, &votes).expect("quorum")
    }

    #[test]
    fn certificate_roundtrip() {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let s = store();
        let parents: Vec<Digest> = Certificate::genesis_set(&committee)
            .iter()
            .map(Certificate::header_digest)
            .collect();
        let cert = make_cert(&committee, &kps, 1, 0, parents);
        s.put_certificate(&cert).unwrap();
        let back = s.get_certificate(&cert.header_digest()).unwrap().unwrap();
        assert_eq!(back, cert);
        assert_eq!(s.get_certificate(&Digest::of(b"nope")).unwrap(), None);
    }

    #[test]
    fn batch_roundtrip() {
        let s = store();
        let batch = Batch::synthetic(ValidatorId(0), WorkerId(0), 1, 10, 5_120, vec![]);
        let (digest, bytes) = BlockStore::encode_batch(&batch);
        assert_eq!(digest, batch.digest(), "the digest is the batch's own");
        assert!(!s.has_batch(&digest).unwrap());
        s.put_batch(&digest, &bytes).unwrap();
        assert!(s.has_batch(&digest).unwrap());
        let back = s.get_batch(&digest).unwrap().unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn dag_recovers_from_store() {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let s = store();
        // Persist three fully connected rounds.
        let mut prev: Vec<Digest> = Certificate::genesis_set(&committee)
            .iter()
            .map(Certificate::header_digest)
            .collect();
        for r in 1..=3u64 {
            let mut next = Vec::new();
            for a in 0..4u32 {
                let cert = make_cert(&committee, &kps, r, a, prev.clone());
                s.put_certificate(&cert).unwrap();
                next.push(cert.header_digest());
            }
            prev = next;
        }
        let dag = s.load_dag(&committee).unwrap();
        assert_eq!(dag.len(), 16, "genesis + 3 rounds x 4");
        assert_eq!(dag.highest_round(), 3);
        // Histories are complete after recovery.
        let anchor = dag.get(3, ValidatorId(2)).unwrap().clone();
        assert!(dag
            .collect_history(&anchor, &std::collections::HashSet::new())
            .is_ok());
    }

    #[test]
    fn recovery_skips_corrupt_and_forged_records() {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Ed25519);
        let backend = Arc::new(MemStore::new());
        let s = BlockStore::new(backend.clone());
        let parents: Vec<Digest> = Certificate::genesis_set(&committee)
            .iter()
            .map(Certificate::header_digest)
            .collect();
        let good = make_cert(&committee, &kps, 1, 0, parents.clone());
        s.put_certificate(&good).unwrap();
        // A forged certificate (bad signatures) written directly.
        let mut forged = make_cert(&committee, &kps, 1, 1, parents);
        forged.votes[0].1 = forged.votes[1].1;
        let digest = forged.header_digest();
        use nt_storage::Store;
        backend
            .put(&super::cert_key(1, &digest), &encode_to_vec(&forged))
            .unwrap();
        // And a garbage record.
        backend.put(b"c/garbagekey", b"not a certificate").unwrap();

        let dag = s.load_dag(&committee).unwrap();
        assert_eq!(dag.len(), 4 + 1, "genesis + only the good certificate");
        assert!(dag.contains_digest(&good.header_digest()));
        assert!(!dag.contains_digest(&digest));
    }

    #[test]
    fn keys_of_the_wrong_length_are_skipped_by_every_reader() {
        use nt_storage::Store;
        let backend = Arc::new(MemStore::new());
        for prefix in ["b/", "c/", "cb/", "o/", "v/", "s/p/", "s/j/"] {
            backend
                .put(format!("{prefix}?").as_bytes(), &[0; 8])
                .unwrap();
        }
        let s = BlockStore::new(backend);
        assert!(s.batch_digests().unwrap().is_empty());
        assert!(s.committed_batches().unwrap().is_empty());
        assert_eq!(s.load_ordered().unwrap(), (HashSet::new(), 0));
        assert!(s.ordered_refs().unwrap().is_empty());
        assert!(s.load_votes().unwrap().is_empty());
        s.gc_votes_below(Round::MAX).unwrap();
        assert_eq!(s.gc_certificates_below(Round::MAX).unwrap(), 0);
        assert!(s.snapshot_sequences().unwrap().is_empty());
        assert!(s.snapshot_installs().unwrap().is_empty());
        assert_eq!(s.len().unwrap(), 7, "skipped, not deleted");
    }

    #[test]
    fn gc_removes_old_rounds_only() {
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let s = store();
        let mut prev: Vec<Digest> = Certificate::genesis_set(&committee)
            .iter()
            .map(Certificate::header_digest)
            .collect();
        let mut last = None;
        for r in 1..=4u64 {
            let mut next = Vec::new();
            for a in 0..4u32 {
                let cert = make_cert(&committee, &kps, r, a, prev.clone());
                s.put_certificate(&cert).unwrap();
                next.push(cert.header_digest());
                last = Some(cert);
            }
            prev = next;
        }
        let removed = s.gc_certificates_below(3).unwrap();
        assert_eq!(removed, 8, "rounds 1-2 dropped");
        let last = last.unwrap();
        assert!(s.get_certificate(&last.header_digest()).unwrap().is_some());
        let dag = s.load_dag(&committee).unwrap();
        assert_eq!(dag.highest_round(), 4);
        assert_eq!(dag.round_size(1), 0);
    }

    #[test]
    fn vote_locks_roundtrip_and_gc() {
        let s = store();
        let d1 = Digest::of(b"block 1");
        let d2 = Digest::of(b"block 2");
        s.put_vote(1, ValidatorId(0), &d1).unwrap();
        s.put_vote(1, ValidatorId(2), &d2).unwrap();
        s.put_vote(5, ValidatorId(1), &d1).unwrap();
        let votes = s.load_votes().unwrap();
        assert_eq!(votes.len(), 2);
        assert_eq!(votes[&1][&ValidatorId(0)], d1);
        assert_eq!(votes[&1][&ValidatorId(2)], d2);
        assert_eq!(votes[&5][&ValidatorId(1)], d1);
        s.gc_votes_below(5).unwrap();
        let votes = s.load_votes().unwrap();
        assert_eq!(votes.len(), 1, "round 1 locks pruned");
        assert!(votes.contains_key(&5));
    }

    #[test]
    fn ordered_markers_and_counters_roundtrip() {
        let s = store();
        let d = Digest::of(b"ordered block");
        assert!(s.ordered_digests().unwrap().is_empty());
        s.put_ordered(&d, 7).unwrap();
        assert!(s.ordered_digests().unwrap().contains(&d));
        let d2 = Digest::of(b"second block");
        s.put_ordered(&d2, 9).unwrap();
        assert_eq!(s.load_ordered().unwrap().1, 9, "markers carry sequences");
        s.delete_ordered(&d).unwrap();
        s.delete_ordered(&d2).unwrap();
        assert!(s.ordered_digests().unwrap().is_empty());
        assert_eq!(s.load_ordered().unwrap().1, 0);

        assert_eq!(s.sequence().unwrap(), 0);
        s.put_sequence(42).unwrap();
        assert_eq!(s.sequence().unwrap(), 42);

        assert_eq!(s.gc_round().unwrap(), None);
        s.put_gc_round(7).unwrap();
        assert_eq!(s.gc_round().unwrap(), Some(7));

        assert_eq!(s.consensus_checkpoint().unwrap(), None);
        s.put_consensus_checkpoint(b"wave 3").unwrap();
        assert_eq!(s.consensus_checkpoint().unwrap(), Some(b"wave 3".to_vec()));
    }

    #[test]
    fn batch_recovery_and_committed_markers() {
        let s = store();
        let a = Batch::synthetic(ValidatorId(0), WorkerId(0), 1, 10, 5_120, vec![]);
        let b = Batch::synthetic(ValidatorId(1), WorkerId(0), 2, 20, 10_240, vec![]);
        for batch in [&a, &b] {
            let (digest, bytes) = BlockStore::encode_batch(batch);
            s.put_batch(&digest, &bytes).unwrap();
        }
        s.put_committed_batch(&a.digest()).unwrap();
        let mut recovered = s.batch_digests().unwrap();
        recovered.sort();
        let mut expected = vec![a.digest(), b.digest()];
        expected.sort();
        assert_eq!(recovered, expected);
        assert!(s.committed_batches().unwrap().contains(&a.digest()));
        assert!(s.is_committed_batch(&a.digest()).unwrap());
        assert!(!s.is_committed_batch(&b.digest()).unwrap());
        // GC removes the bytes; the marker is the permanent filter.
        s.delete_batch(&a.digest()).unwrap();
        assert_eq!(s.get_batch(&a.digest()).unwrap(), None);
        assert!(s.is_committed_batch(&a.digest()).unwrap());
        assert_eq!(s.batch_digests().unwrap(), vec![b.digest()]);
    }

    #[test]
    fn snapshots_persist_and_supersede() {
        use nt_execution::{SnapshotBase, SnapshotManifest};
        let s = store();
        assert_eq!(s.latest_snapshot().unwrap(), None);
        let package_at = |seq: u64| SnapshotPackage {
            manifest: SnapshotManifest::for_app(seq, &seq.to_le_bytes()),
            signatures: Vec::new(),
            base: SnapshotBase {
                checkpoint_seq: seq + 1,
                ..Default::default()
            },
            app: seq.to_le_bytes().to_vec(),
        };
        for seq in [32u64, 64, 96] {
            s.put_snapshot(&package_at(seq)).unwrap();
        }
        // Only the newest two are retained; the oldest was superseded.
        assert_eq!(s.snapshot_sequences().unwrap(), vec![64, 96]);
        assert_eq!(s.snapshot(32).unwrap(), None);
        assert_eq!(s.snapshot(64).unwrap(), Some(package_at(64)));
        assert_eq!(
            s.latest_snapshot().unwrap().unwrap().manifest.sequence,
            96,
            "latest wins"
        );
        // Re-putting an existing point (e.g. after a new signature
        // arrives) overwrites in place.
        let mut updated = package_at(96);
        updated.base.checkpoint_seq = 99;
        s.put_snapshot(&updated).unwrap();
        assert_eq!(s.snapshot(96).unwrap().unwrap().base.checkpoint_seq, 99);
        assert_eq!(s.snapshot_sequences().unwrap(), vec![64, 96]);
    }

    #[test]
    fn install_markers_and_app_state_roundtrip() {
        let s = store();
        assert!(s.snapshot_installs().unwrap().is_empty());
        s.put_snapshot_install(64).unwrap();
        s.put_snapshot_install(128).unwrap();
        assert_eq!(s.snapshot_installs().unwrap(), vec![64, 128]);

        assert_eq!(s.app_state().unwrap(), None);
        s.put_app_state(7, b"ledger bytes").unwrap();
        assert_eq!(s.app_state().unwrap(), Some((7, b"ledger bytes".to_vec())));
        s.put_app_state(8, b"newer").unwrap();
        assert_eq!(s.app_state().unwrap(), Some((8, b"newer".to_vec())));
    }

    #[test]
    fn ordered_refs_sort_by_sequence() {
        let s = store();
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        let c = Digest::of(b"c");
        s.put_ordered(&b, 2).unwrap();
        s.put_ordered(&c, 3).unwrap();
        s.put_ordered(&a, 1).unwrap();
        assert_eq!(s.ordered_refs().unwrap(), vec![(a, 1), (b, 2), (c, 3)]);
    }

    #[test]
    fn recovery_survives_a_real_wal_crash() {
        // End-to-end: persist to a WAL file, tear the tail, reopen, reload.
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "nt-blockstore-{}-{}.log",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        {
            let wal = Arc::new(nt_storage::WalStore::open(&path).unwrap());
            let s = BlockStore::new(wal);
            let parents: Vec<Digest> = Certificate::genesis_set(&committee)
                .iter()
                .map(Certificate::header_digest)
                .collect();
            for a in 0..4u32 {
                s.put_certificate(&make_cert(&committee, &kps, 1, a, parents.clone()))
                    .unwrap();
            }
        }
        // Crash: truncate a few bytes off the log tail.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let wal = Arc::new(nt_storage::WalStore::open(&path).unwrap());
        let s = BlockStore::new(wal);
        let dag = s.load_dag(&committee).unwrap();
        // At least the first three certificates survive (the fourth's tail
        // record was torn; recovery keeps every complete record).
        assert!(
            dag.round_size(1) >= 3,
            "recovered {} certs",
            dag.round_size(1)
        );
        std::fs::remove_file(&path).ok();
    }
}
