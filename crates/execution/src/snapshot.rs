//! Signed snapshots: the state-transfer vocabulary.
//!
//! A validator that falls more than `gc_depth` rounds behind can never
//! catch up by per-certificate pull sync — GC has pruned the history it
//! would need (Narwhal §3.3's garbage-collection claim only holds in
//! practice if state transfer replaces replay beyond the horizon). Instead
//! it installs a *snapshot*: app state at an agreed sequence number plus
//! the serving validator's committed frontier.
//!
//! Trust is split by what can be verified:
//!
//! - **App state** is unverifiable on its own, so it travels behind a
//!   [`SnapshotManifest`] — sequence, state root, and per-chunk digests —
//!   whose digest 2f+1 validators sign. Manifests are deterministic:
//!   every honest validator produces byte-identical manifests at the same
//!   snapshot point (the root is a pure function of the committed
//!   sequence), so signatures collected from the whole committee all cover
//!   one digest. Chunks verify individually, which makes transfers
//!   resumable across serving validators.
//! - **Frontier certificates** are self-verifying (each carries its 2f+1
//!   votes), so they ride outside the manifest; different servers may
//!   legitimately ship different DAG windows.
//! - The **consensus checkpoint** and the ordered-set delta are adopted
//!   with crash-fault trust from the serving validator — the same trust
//!   restart recovery places in the local WAL. Hardening them against a
//!   Byzantine server (e.g. anchoring the ordered set in the manifest) is
//!   recorded as headroom in the ROADMAP.

use nt_codec::{put_varint, Decode, DecodeError, Encode, Reader};
use nt_crypto::{Digest, KeyPair, Signature};
use nt_types::{Certificate, Committee, Round, ValidatorId};

/// Chunk size for app-state transfer. Small enough to interleave with
/// normal traffic, large enough that realistic states need few round
/// trips.
pub const SNAPSHOT_CHUNK: usize = 64 * 1024;

/// Returns chunk `index` of `bytes` under [`SNAPSHOT_CHUNK`] chunking.
pub fn chunk_of(bytes: &[u8], index: usize) -> Option<&[u8]> {
    let start = index.checked_mul(SNAPSHOT_CHUNK)?;
    if start >= bytes.len() && !(bytes.is_empty() && index == 0) {
        return None;
    }
    let end = (start + SNAPSHOT_CHUNK).min(bytes.len());
    Some(&bytes[start..end])
}

/// The signed description of one snapshot: everything a joiner needs to
/// verify downloaded app state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// Committed sequence number the app state reflects.
    pub sequence: u64,
    /// App-state root at `sequence` (`Digest::of` the serialized state).
    pub app_root: Digest,
    /// Total serialized app-state length in bytes.
    pub app_len: u64,
    /// Digest of every [`SNAPSHOT_CHUNK`]-sized chunk, in order.
    pub chunks: Vec<Digest>,
}

impl SnapshotManifest {
    /// Builds the manifest for app state `app` at `sequence`.
    pub fn for_app(sequence: u64, app: &[u8]) -> Self {
        let mut chunks = Vec::new();
        let mut index = 0;
        while let Some(chunk) = chunk_of(app, index) {
            chunks.push(Digest::of(chunk));
            index += 1;
            if chunk.is_empty() {
                break;
            }
        }
        SnapshotManifest {
            sequence,
            app_root: Digest::of(app),
            app_len: app.len() as u64,
            chunks,
        }
    }

    /// Number of chunks a transfer must fetch.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The digest the committee signs.
    pub fn digest(&self) -> Digest {
        let seq = self.sequence.to_le_bytes();
        let len = self.app_len.to_le_bytes();
        let count = (self.chunks.len() as u64).to_le_bytes();
        let mut parts: Vec<&[u8]> = vec![
            b"nt-snapshot-manifest-v1",
            &seq,
            self.app_root.as_bytes(),
            &len,
            &count,
        ];
        for chunk in &self.chunks {
            parts.push(chunk.as_bytes());
        }
        Digest::of_parts(&parts)
    }

    /// Whether the chunk list has the one length `app_len` allows:
    /// `max(1, ceil(app_len / SNAPSHOT_CHUNK))`, as [`for_app`](Self::for_app)
    /// builds it. A manifest arrives unsigned from whichever peer serves
    /// the transfer, so check this before sizing anything by its fields.
    pub fn is_well_formed(&self) -> bool {
        self.app_len.div_ceil(SNAPSHOT_CHUNK as u64).max(1) == self.chunks.len() as u64
    }

    /// Whether `chunk` is the genuine chunk at `index`.
    pub fn verify_chunk(&self, index: usize, chunk: &[u8]) -> bool {
        let Some(expected) = self.chunks.get(index) else {
            return false;
        };
        // Every chunk except the last is exactly SNAPSHOT_CHUNK bytes. The
        // lengths are the peer's claim: a chunk list longer than `app_len`
        // covers has no last-chunk length at all.
        let expected_len = if index + 1 == self.chunks.len() {
            let rest = index
                .checked_mul(SNAPSHOT_CHUNK)
                .and_then(|start| usize::try_from(self.app_len).ok()?.checked_sub(start));
            match rest {
                Some(len) => len,
                None => return false,
            }
        } else {
            SNAPSHOT_CHUNK
        };
        chunk.len() == expected_len && Digest::of(chunk) == *expected
    }
}

/// One validator's signature over a [`SnapshotManifest`] digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotSig {
    /// The signing validator.
    pub signer: ValidatorId,
    /// `sign_digest` over [`SnapshotManifest::digest`].
    pub signature: Signature,
}

impl SnapshotSig {
    /// Signs `manifest` with `keypair` on behalf of `signer`.
    pub fn sign(signer: ValidatorId, keypair: &KeyPair, manifest: &SnapshotManifest) -> Self {
        SnapshotSig {
            signer,
            signature: keypair.sign_digest(&manifest.digest()),
        }
    }

    /// Verifies this signature against `manifest` under `committee`.
    pub fn verify(&self, committee: &Committee, manifest: &SnapshotManifest) -> bool {
        self.verify_digest(committee, &manifest.digest())
    }

    /// Verifies this signature against a bare manifest `digest` (used when
    /// a vote arrives before the local manifest exists).
    pub fn verify_digest(&self, committee: &Committee, digest: &Digest) -> bool {
        if self.signer.0 as usize >= committee.size() {
            return false;
        }
        committee
            .key(self.signer)
            .verify_digest(digest, &self.signature)
    }

    /// Keeps those of `sigs` that verify over `digest` under `committee`.
    ///
    /// All of them cover the one digest, so the set is checked as a single
    /// batched multiscalar equation under the committee's prepared keys; if
    /// that fails (some signature is bad), each is checked on its own.
    pub fn retain_valid(committee: &Committee, digest: &Digest, sigs: &mut Vec<SnapshotSig>) {
        sigs.retain(|s| (s.signer.0 as usize) < committee.size());
        let items: Vec<nt_crypto::PreparedItem<'_>> = sigs
            .iter()
            .map(|s| nt_crypto::PreparedItem {
                key: committee.key(s.signer),
                message: digest.as_bytes(),
                signature: s.signature,
            })
            .collect();
        if nt_crypto::verify_prepared(&items).is_err() {
            sigs.retain(|s| s.verify_digest(committee, digest));
        }
    }
}

/// A committed block's position in the total order, shipped so the joiner
/// can deduplicate history walks exactly like the serving validator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderedRef {
    /// Digest of the committed certificate.
    pub digest: Digest,
    /// Its sequence number in the total order.
    pub sequence: u64,
}

/// The serving validator's own view at the capture moment: everything a
/// joiner adopts with crash-fault trust (certificates still self-verify).
///
/// Captured at the checkpoint-consistent moment the anchor queue drained,
/// so `checkpoint_seq >= manifest.sequence`; the gap is closed on install
/// by replaying `ordered` refs through the app.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotBase {
    /// The serving validator's retained DAG window at capture time.
    pub frontier: Vec<Certificate>,
    /// Committed positions within the retained window, through
    /// `checkpoint_seq`.
    pub ordered: Vec<OrderedRef>,
    /// Consensus checkpoint blob at `checkpoint_seq`.
    pub consensus: Vec<u8>,
    /// Committed sequence at the capture moment.
    pub checkpoint_seq: u64,
    /// GC round at the capture moment.
    pub gc_round: Option<Round>,
}

/// Everything one validator persists and serves for one snapshot point.
///
/// The manifest is identical across validators; the base is the serving
/// validator's own view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotPackage {
    /// The committee-signed description of the app state.
    pub manifest: SnapshotManifest,
    /// Collected signatures over `manifest.digest()`; servable once a
    /// quorum accumulates.
    pub signatures: Vec<SnapshotSig>,
    /// The capture-time frontier, order and consensus state.
    pub base: SnapshotBase,
    /// Full serialized app state at `manifest.sequence` (persisted so the
    /// validator can serve chunks; never shipped whole).
    pub app: Vec<u8>,
}

impl SnapshotPackage {
    /// Adds a signature, deduplicating by signer; returns whether it was
    /// new.
    pub fn add_signature(&mut self, sig: SnapshotSig) -> bool {
        if self.signatures.iter().any(|s| s.signer == sig.signer) {
            return false;
        }
        self.signatures.push(sig);
        true
    }

    /// Number of valid signatures over the manifest
    /// ([`SnapshotSig::retain_valid`]).
    pub fn valid_signatures(&self, committee: &Committee) -> usize {
        let mut valid = self.signatures.clone();
        SnapshotSig::retain_valid(committee, &self.manifest.digest(), &mut valid);
        valid.len()
    }

    /// Whether 2f+1 distinct validators vouch for the manifest.
    pub fn has_quorum(&self, committee: &Committee) -> bool {
        self.valid_signatures(committee) >= committee.quorum_threshold()
    }
}

impl Encode for SnapshotManifest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.sequence.encode(buf);
        self.app_root.encode(buf);
        self.app_len.encode(buf);
        self.chunks.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.sequence.encoded_len()
            + self.app_root.encoded_len()
            + self.app_len.encoded_len()
            + self.chunks.encoded_len()
    }
}

impl Decode for SnapshotManifest {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SnapshotManifest {
            sequence: u64::decode(reader)?,
            app_root: Digest::decode(reader)?,
            app_len: u64::decode(reader)?,
            chunks: Vec::decode(reader)?,
        })
    }
}

impl Encode for SnapshotSig {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.signer.encode(buf);
        self.signature.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.signer.encoded_len() + self.signature.encoded_len()
    }
}

impl Decode for SnapshotSig {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SnapshotSig {
            signer: ValidatorId::decode(reader)?,
            signature: Signature::decode(reader)?,
        })
    }
}

impl Encode for OrderedRef {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.digest.encode(buf);
        self.sequence.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.digest.encoded_len() + self.sequence.encoded_len()
    }
}

impl Decode for OrderedRef {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(OrderedRef {
            digest: Digest::decode(reader)?,
            sequence: u64::decode(reader)?,
        })
    }
}

fn encode_bytes(bytes: &[u8], buf: &mut Vec<u8>) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

fn decode_bytes(reader: &mut Reader<'_>) -> Result<Vec<u8>, DecodeError> {
    let len = reader.take_len()?;
    Ok(reader.take(len)?.to_vec())
}

impl Encode for SnapshotBase {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.frontier.encode(buf);
        self.ordered.encode(buf);
        encode_bytes(&self.consensus, buf);
        self.checkpoint_seq.encode(buf);
        self.gc_round.encode(buf);
    }
}

impl Decode for SnapshotBase {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SnapshotBase {
            frontier: Vec::decode(reader)?,
            ordered: Vec::decode(reader)?,
            consensus: decode_bytes(reader)?,
            checkpoint_seq: u64::decode(reader)?,
            gc_round: Option::<Round>::decode(reader)?,
        })
    }
}

impl Encode for SnapshotPackage {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.manifest.encode(buf);
        self.signatures.encode(buf);
        self.base.encode(buf);
        encode_bytes(&self.app, buf);
    }
}

impl Decode for SnapshotPackage {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SnapshotPackage {
            manifest: SnapshotManifest::decode(reader)?,
            signatures: Vec::decode(reader)?,
            base: SnapshotBase::decode(reader)?,
            app: decode_bytes(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_codec::{decode_from_slice, encode_to_vec};
    use nt_crypto::Scheme;

    fn committee() -> (Committee, Vec<KeyPair>) {
        Committee::deterministic(4, 1, Scheme::Insecure)
    }

    fn sample_package(app: &[u8]) -> SnapshotPackage {
        SnapshotPackage {
            manifest: SnapshotManifest::for_app(32, app),
            signatures: Vec::new(),
            base: SnapshotBase {
                frontier: Vec::new(),
                ordered: vec![OrderedRef {
                    digest: Digest::of(b"block"),
                    sequence: 33,
                }],
                consensus: vec![1, 2, 3],
                checkpoint_seq: 33,
                gc_round: Some(10),
            },
            app: app.to_vec(),
        }
    }

    #[test]
    fn chunking_covers_exactly_the_state() {
        let app = vec![0xabu8; SNAPSHOT_CHUNK + 100];
        let manifest = SnapshotManifest::for_app(5, &app);
        assert_eq!(manifest.chunk_count(), 2);
        assert!(manifest.verify_chunk(0, chunk_of(&app, 0).unwrap()));
        assert!(manifest.verify_chunk(1, chunk_of(&app, 1).unwrap()));
        assert_eq!(chunk_of(&app, 1).unwrap().len(), 100);
        assert!(chunk_of(&app, 2).is_none());
        // Wrong data, wrong index, and truncated chunks all fail.
        assert!(!manifest.verify_chunk(0, chunk_of(&app, 1).unwrap()));
        assert!(!manifest.verify_chunk(2, &[]));
        assert!(!manifest.verify_chunk(1, &app[SNAPSHOT_CHUNK..SNAPSHOT_CHUNK + 50]));
    }

    /// A transfer adopts the manifest before any signature covers it, so
    /// its lengths are whatever the serving peer wrote.
    #[test]
    fn forged_manifest_lengths_are_rejected_not_subtracted() {
        let forged = SnapshotManifest {
            sequence: 9,
            app_root: Digest::of(b"root"),
            app_len: 0,
            chunks: vec![Digest::of(b"d0"), Digest::of(b"d1")],
        };
        assert!(!forged.is_well_formed());
        assert!(!forged.verify_chunk(1, &[]), "0 - 1 * SNAPSHOT_CHUNK");
        let oversized = SnapshotManifest {
            app_len: u64::MAX,
            chunks: vec![Digest::of(b"d0")],
            ..forged.clone()
        };
        assert!(!oversized.is_well_formed());
        assert!(!oversized.verify_chunk(0, &[]));
        // Genuine manifests, including the boundary sizes, are well formed.
        for len in [0, 1, SNAPSHOT_CHUNK - 1, SNAPSHOT_CHUNK, SNAPSHOT_CHUNK + 1] {
            assert!(SnapshotManifest::for_app(1, &vec![0u8; len]).is_well_formed());
        }
    }

    #[test]
    fn empty_state_has_one_empty_chunk() {
        let manifest = SnapshotManifest::for_app(1, &[]);
        assert_eq!(manifest.chunk_count(), 1);
        assert!(manifest.verify_chunk(0, &[]));
    }

    #[test]
    fn manifest_digest_commits_to_every_field() {
        let app = vec![7u8; 100];
        let base = SnapshotManifest::for_app(3, &app);
        let mut other = base.clone();
        other.sequence = 4;
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.app_root = Digest::of(b"x");
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.chunks[0] = Digest::of(b"y");
        assert_ne!(base.digest(), other.digest());
    }

    #[test]
    fn signatures_verify_and_quorum_counts_distinct_signers() {
        let (committee, keypairs) = committee();
        let app = vec![9u8; 10];
        let mut package = sample_package(&app);
        let manifest = package.manifest.clone();
        for (i, kp) in keypairs.iter().enumerate().take(2) {
            let sig = SnapshotSig::sign(ValidatorId(i as u32), kp, &manifest);
            assert!(sig.verify(&committee, &manifest));
            assert!(package.add_signature(sig));
        }
        assert!(!package.has_quorum(&committee), "2 of 4 is not a quorum");
        // A duplicate signer does not help.
        let dup = SnapshotSig::sign(ValidatorId(0), &keypairs[0], &manifest);
        assert!(!package.add_signature(dup));
        // A forged signature does not count.
        let forged = SnapshotSig {
            signer: ValidatorId(2),
            signature: keypairs[3].sign_digest(&manifest.digest()),
        };
        package.signatures.push(forged);
        assert!(!package.has_quorum(&committee));
        // A third honest signature completes the quorum (the forged entry
        // still occupies signer 2's slot, so it comes from signer 3).
        let sig = SnapshotSig::sign(ValidatorId(3), &keypairs[3], &manifest);
        assert!(package.add_signature(sig));
        assert!(package.has_quorum(&committee));
    }

    #[test]
    fn package_round_trips_through_the_codec() {
        let (_, keypairs) = committee();
        let app: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut package = sample_package(&app);
        let manifest = package.manifest.clone();
        package.add_signature(SnapshotSig::sign(ValidatorId(1), &keypairs[1], &manifest));
        let bytes = encode_to_vec(&package);
        let decoded: SnapshotPackage = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(decoded, package);
    }

    #[test]
    fn truncated_packages_fail_to_decode() {
        let package = sample_package(&[1, 2, 3]);
        let bytes = encode_to_vec(&package);
        for cut in 0..bytes.len() {
            assert!(
                decode_from_slice::<SnapshotPackage>(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }
}
