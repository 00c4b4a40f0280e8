//! The Narwhal wire protocol, generic over a consensus extension.
//!
//! Systems that pair Narwhal with a message-exchanging consensus protocol
//! (Narwhal-HotStuff, §3.2) wrap their messages in the [`NarwhalMsg::Ext`]
//! variant; Tusk needs no extension (zero-message overhead, §5) and uses
//! [`crate::NoExt`].

use nt_codec::{Decode, DecodeError, Encode, Reader};
use nt_crypto::Digest;
use nt_execution::{SnapshotBase, SnapshotManifest, SnapshotSig};
use nt_network::SimMessage;
use nt_types::{
    Batch, Certificate, Header, Round, Transaction, TxSample, ValidatorId, Vote, WireSize, WorkerId,
};

/// Metadata a worker reports to its primary about a stored batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchInfo {
    /// The batch digest.
    pub digest: Digest,
    /// The worker slot holding it.
    pub worker: WorkerId,
    /// The validator whose worker created it.
    pub creator: ValidatorId,
    /// Transactions in the batch.
    pub tx_count: u64,
    /// Transaction payload bytes in the batch.
    pub tx_bytes: u64,
    /// Latency samples carried by the batch.
    pub samples: Vec<TxSample>,
}

/// All messages exchanged by a Narwhal deployment.
#[derive(Clone, Debug)]
pub enum NarwhalMsg<Ext> {
    /// A block proposal, broadcast by its creator (§3.1).
    Header(Header),
    /// An acknowledgment signature over a block (§3.1).
    Vote(Vote),
    /// A certificate of availability, broadcast after quorum (§3.1).
    Certificate(Certificate),
    /// Pull request for missing certified blocks (§4.1).
    CertRequest {
        /// Header digests whose certificates are wanted.
        digests: Vec<Digest>,
    },
    /// Response carrying the requested certificates.
    CertResponse {
        /// The certificates found.
        certs: Vec<Certificate>,
    },
    /// Pull request for every certificate in a round range (§4.1's batched
    /// catch-up): a validator that finds itself several rounds behind the
    /// committee closes the whole gap in one round-trip instead of
    /// discovering ancestry one suspended parent — one network round-trip —
    /// per DAG round. The responder answers with a [`NarwhalMsg::CertResponse`]
    /// carrying its retained certificates for `from..=to` in ascending round
    /// order (capped, so a malicious range cannot request unbounded work).
    CertRangeRequest {
        /// First round wanted.
        from: Round,
        /// Last round wanted (inclusive; the responder may cap it).
        to: Round,
    },
    /// A transaction batch streamed between workers (§4.2).
    Batch(Batch),
    /// A worker's acknowledgment that it stored a batch (§4.2).
    BatchAck {
        /// Digest of the stored batch.
        digest: Digest,
        /// The acknowledging validator.
        voter: ValidatorId,
    },
    /// Pull request for missing batches (§4.2).
    BatchRequest {
        /// Digests of the wanted batches.
        digests: Vec<Digest>,
    },
    /// Response carrying the requested batches.
    BatchResponse {
        /// The batches found.
        batches: Vec<Batch>,
    },
    /// Worker → own primary: a batch is stored locally (own batches are
    /// reported only after a `2f + 1` ack quorum; peer batches immediately).
    ReportBatch(BatchInfo),
    /// Primary → own worker: fetch a batch we are missing (§4.2 pull).
    FetchBatch {
        /// Digest of the missing batch.
        digest: Digest,
        /// The worker slot that should hold it.
        worker: WorkerId,
        /// The validator whose worker created it.
        creator: ValidatorId,
    },
    /// A client transaction (local-runtime mode).
    ClientTx(Transaction),
    /// Consensus-protocol extension (e.g. HotStuff messages).
    Ext(Ext),
    /// A validator's signature over a produced snapshot manifest,
    /// broadcast so every validator can assemble a 2f+1-signed package.
    SnapshotVote {
        /// Snapshot point (committed sequence) the manifest describes.
        sequence: u64,
        /// Digest of the manifest being vouched for.
        manifest: Digest,
        /// The vouching signature.
        sig: SnapshotSig,
    },
    /// Pull request for snapshot state transfer (one chunk per request;
    /// transfers are resumable and chunks verify individually).
    SnapshotRequest {
        /// Snapshot point wanted; 0 means "your latest".
        sequence: u64,
        /// Index of the app-state chunk wanted.
        cursor: u64,
    },
    /// One step of a snapshot transfer.
    SnapshotResponse {
        /// The signed description of the app state.
        manifest: SnapshotManifest,
        /// Collected signatures over the manifest digest.
        signatures: Vec<SnapshotSig>,
        /// Index of the carried chunk.
        chunk_index: u64,
        /// The app-state chunk at `chunk_index`.
        chunk: Vec<u8>,
        /// Frontier certificates, committed positions and consensus
        /// checkpoint — carried on the first chunk only.
        base: Option<SnapshotBase>,
    },
}

impl<Ext> NarwhalMsg<Ext> {
    /// Approximate wire size in bytes, without a serialization pass.
    ///
    /// Batches use their declared [`WireSize`] (synthetic batches stand for
    /// real payloads); fixed-layout messages use their encoded length
    /// analytically. `Ext` sizes are delegated via `ext_size`.
    pub fn wire_size_with(&self, ext_size: impl Fn(&Ext) -> usize) -> usize {
        match self {
            NarwhalMsg::Header(h) => h.wire_size(),
            NarwhalMsg::Vote(_) => 32 + 9 + 4 + 4 + 64,
            NarwhalMsg::Certificate(c) => c.header.wire_size() + 2 + 68 * c.votes.len(),
            NarwhalMsg::CertRequest { digests } => 8 + 32 * digests.len(),
            NarwhalMsg::CertRangeRequest { .. } => 16,
            NarwhalMsg::CertResponse { certs } => {
                8 + certs
                    .iter()
                    .map(|c| c.header.wire_size() + 2 + 68 * c.votes.len())
                    .sum::<usize>()
            }
            NarwhalMsg::Batch(b) => b.wire_size(),
            NarwhalMsg::BatchAck { .. } => 32 + 4 + 8,
            NarwhalMsg::BatchRequest { digests } => 8 + 32 * digests.len(),
            NarwhalMsg::BatchResponse { batches } => {
                8 + batches.iter().map(WireSize::wire_size).sum::<usize>()
            }
            NarwhalMsg::ReportBatch(info) => 32 + 8 + 8 + 8 + 8 + 16 * info.samples.len(),
            NarwhalMsg::FetchBatch { .. } => 32 + 8 + 8,
            NarwhalMsg::ClientTx(tx) => tx.encoded_len(),
            NarwhalMsg::Ext(ext) => ext_size(ext),
            NarwhalMsg::SnapshotVote { .. } => 8 + 32 + 8 + 64,
            NarwhalMsg::SnapshotRequest { .. } => 16,
            NarwhalMsg::SnapshotResponse {
                manifest,
                signatures,
                chunk,
                base,
                ..
            } => {
                let base_size = base.as_ref().map_or(0, |b| {
                    b.frontier
                        .iter()
                        .map(|c| c.header.wire_size() + 2 + 68 * c.votes.len())
                        .sum::<usize>()
                        + 40 * b.ordered.len()
                        + b.consensus.len()
                        + 16
                });
                48 + 32 * manifest.chunks.len() + 68 * signatures.len() + chunk.len() + base_size
            }
        }
    }
}

impl<Ext: SimMessage> SimMessage for NarwhalMsg<Ext> {
    fn wire_size(&self) -> usize {
        self.wire_size_with(SimMessage::wire_size)
    }

    fn verify_count(&self) -> usize {
        match self {
            // Creator signature plus the embedded coin share.
            NarwhalMsg::Header(h) => 1 + usize::from(h.coin_share.is_some()),
            NarwhalMsg::Vote(_) => 1,
            NarwhalMsg::Certificate(c) => c.votes.len() + 1,
            NarwhalMsg::CertResponse { certs } => certs.iter().map(|c| c.votes.len() + 1).sum(),
            NarwhalMsg::Ext(ext) => ext.verify_count(),
            NarwhalMsg::SnapshotVote { .. } => 1,
            // The receiver verifies manifest signatures and frontier
            // certificates once, on the base-carrying first response;
            // chunk integrity is a hash, covered by the per-byte cost.
            NarwhalMsg::SnapshotResponse {
                signatures,
                base: Some(b),
                ..
            } => signatures.len() + b.frontier.iter().map(|c| c.votes.len() + 1).sum::<usize>(),
            // Batch integrity is a hash, covered by the per-byte cost.
            _ => 0,
        }
    }

    fn sign_count(&self) -> usize {
        match self {
            // Votes and acknowledgments are created once and sent once, so
            // charging them per send is exact. Block/coin-share signing (two
            // signatures per round per validator) is negligible by
            // comparison and folded into the per-message cost.
            NarwhalMsg::Vote(_) => 1,
            NarwhalMsg::BatchAck { .. } => 1,
            NarwhalMsg::Ext(ext) => ext.sign_count(),
            _ => 0,
        }
    }
}

impl SimMessage for crate::consensus::NoExt {
    fn wire_size(&self) -> usize {
        match *self {}
    }
}

impl Encode for BatchInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.digest.encode(buf);
        self.worker.encode(buf);
        self.creator.encode(buf);
        self.tx_count.encode(buf);
        self.tx_bytes.encode(buf);
        self.samples.encode(buf);
    }
}

impl Decode for BatchInfo {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BatchInfo {
            digest: Digest::decode(reader)?,
            worker: WorkerId::decode(reader)?,
            creator: ValidatorId::decode(reader)?,
            tx_count: u64::decode(reader)?,
            tx_bytes: u64::decode(reader)?,
            samples: Vec::<TxSample>::decode(reader)?,
        })
    }
}

// Wire discriminants: the declaration order of the enum, frozen here —
// reorder the enum freely, never these numbers.
const TAG_HEADER: u64 = 0;
const TAG_VOTE: u64 = 1;
const TAG_CERTIFICATE: u64 = 2;
const TAG_CERT_REQUEST: u64 = 3;
const TAG_CERT_RESPONSE: u64 = 4;
const TAG_BATCH: u64 = 5;
const TAG_BATCH_ACK: u64 = 6;
const TAG_BATCH_REQUEST: u64 = 7;
const TAG_BATCH_RESPONSE: u64 = 8;
const TAG_REPORT_BATCH: u64 = 9;
const TAG_FETCH_BATCH: u64 = 10;
const TAG_CLIENT_TX: u64 = 11;
const TAG_EXT: u64 = 12;
const TAG_SNAPSHOT_VOTE: u64 = 13;
const TAG_SNAPSHOT_REQUEST: u64 = 14;
const TAG_SNAPSHOT_RESPONSE: u64 = 15;
const TAG_CERT_RANGE_REQUEST: u64 = 16;

impl<Ext: Encode> Encode for NarwhalMsg<Ext> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            NarwhalMsg::Header(h) => {
                nt_codec::put_varint(buf, TAG_HEADER);
                h.encode(buf);
            }
            NarwhalMsg::Vote(v) => {
                nt_codec::put_varint(buf, TAG_VOTE);
                v.encode(buf);
            }
            NarwhalMsg::Certificate(c) => {
                nt_codec::put_varint(buf, TAG_CERTIFICATE);
                c.encode(buf);
            }
            NarwhalMsg::CertRequest { digests } => {
                nt_codec::put_varint(buf, TAG_CERT_REQUEST);
                digests.encode(buf);
            }
            NarwhalMsg::CertResponse { certs } => {
                nt_codec::put_varint(buf, TAG_CERT_RESPONSE);
                certs.encode(buf);
            }
            NarwhalMsg::CertRangeRequest { from, to } => {
                nt_codec::put_varint(buf, TAG_CERT_RANGE_REQUEST);
                from.encode(buf);
                to.encode(buf);
            }
            NarwhalMsg::Batch(b) => {
                nt_codec::put_varint(buf, TAG_BATCH);
                b.encode(buf);
            }
            NarwhalMsg::BatchAck { digest, voter } => {
                nt_codec::put_varint(buf, TAG_BATCH_ACK);
                digest.encode(buf);
                voter.encode(buf);
            }
            NarwhalMsg::BatchRequest { digests } => {
                nt_codec::put_varint(buf, TAG_BATCH_REQUEST);
                digests.encode(buf);
            }
            NarwhalMsg::BatchResponse { batches } => {
                nt_codec::put_varint(buf, TAG_BATCH_RESPONSE);
                batches.encode(buf);
            }
            NarwhalMsg::ReportBatch(info) => {
                nt_codec::put_varint(buf, TAG_REPORT_BATCH);
                info.encode(buf);
            }
            NarwhalMsg::FetchBatch {
                digest,
                worker,
                creator,
            } => {
                nt_codec::put_varint(buf, TAG_FETCH_BATCH);
                digest.encode(buf);
                worker.encode(buf);
                creator.encode(buf);
            }
            NarwhalMsg::ClientTx(tx) => {
                nt_codec::put_varint(buf, TAG_CLIENT_TX);
                tx.encode(buf);
            }
            NarwhalMsg::Ext(ext) => {
                nt_codec::put_varint(buf, TAG_EXT);
                ext.encode(buf);
            }
            NarwhalMsg::SnapshotVote {
                sequence,
                manifest,
                sig,
            } => {
                nt_codec::put_varint(buf, TAG_SNAPSHOT_VOTE);
                sequence.encode(buf);
                manifest.encode(buf);
                sig.encode(buf);
            }
            NarwhalMsg::SnapshotRequest { sequence, cursor } => {
                nt_codec::put_varint(buf, TAG_SNAPSHOT_REQUEST);
                sequence.encode(buf);
                cursor.encode(buf);
            }
            NarwhalMsg::SnapshotResponse {
                manifest,
                signatures,
                chunk_index,
                chunk,
                base,
            } => {
                nt_codec::put_varint(buf, TAG_SNAPSHOT_RESPONSE);
                manifest.encode(buf);
                signatures.encode(buf);
                chunk_index.encode(buf);
                nt_codec::put_varint(buf, chunk.len() as u64);
                buf.extend_from_slice(chunk);
                base.encode(buf);
            }
        }
    }
}

impl<Ext: Decode> Decode for NarwhalMsg<Ext> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = reader.take_varint()?;
        Ok(match tag {
            TAG_HEADER => NarwhalMsg::Header(Header::decode(reader)?),
            TAG_VOTE => NarwhalMsg::Vote(Vote::decode(reader)?),
            TAG_CERTIFICATE => NarwhalMsg::Certificate(Certificate::decode(reader)?),
            TAG_CERT_REQUEST => NarwhalMsg::CertRequest {
                digests: Vec::<Digest>::decode(reader)?,
            },
            TAG_CERT_RESPONSE => NarwhalMsg::CertResponse {
                certs: Vec::<Certificate>::decode(reader)?,
            },
            TAG_CERT_RANGE_REQUEST => NarwhalMsg::CertRangeRequest {
                from: Round::decode(reader)?,
                to: Round::decode(reader)?,
            },
            TAG_BATCH => NarwhalMsg::Batch(Batch::decode(reader)?),
            TAG_BATCH_ACK => NarwhalMsg::BatchAck {
                digest: Digest::decode(reader)?,
                voter: ValidatorId::decode(reader)?,
            },
            TAG_BATCH_REQUEST => NarwhalMsg::BatchRequest {
                digests: Vec::<Digest>::decode(reader)?,
            },
            TAG_BATCH_RESPONSE => NarwhalMsg::BatchResponse {
                batches: Vec::<Batch>::decode(reader)?,
            },
            TAG_REPORT_BATCH => NarwhalMsg::ReportBatch(BatchInfo::decode(reader)?),
            TAG_FETCH_BATCH => NarwhalMsg::FetchBatch {
                digest: Digest::decode(reader)?,
                worker: WorkerId::decode(reader)?,
                creator: ValidatorId::decode(reader)?,
            },
            TAG_CLIENT_TX => NarwhalMsg::ClientTx(Transaction::decode(reader)?),
            TAG_EXT => NarwhalMsg::Ext(Ext::decode(reader)?),
            TAG_SNAPSHOT_VOTE => NarwhalMsg::SnapshotVote {
                sequence: u64::decode(reader)?,
                manifest: Digest::decode(reader)?,
                sig: SnapshotSig::decode(reader)?,
            },
            TAG_SNAPSHOT_REQUEST => NarwhalMsg::SnapshotRequest {
                sequence: u64::decode(reader)?,
                cursor: u64::decode(reader)?,
            },
            TAG_SNAPSHOT_RESPONSE => NarwhalMsg::SnapshotResponse {
                manifest: SnapshotManifest::decode(reader)?,
                signatures: Vec::<SnapshotSig>::decode(reader)?,
                chunk_index: u64::decode(reader)?,
                chunk: {
                    let len = reader.take_len()?;
                    reader.take(len)?.to_vec()
                },
                base: Option::<SnapshotBase>::decode(reader)?,
            },
            other => return Err(DecodeError::InvalidTag(other)),
        })
    }
}

impl Encode for crate::consensus::NoExt {
    fn encode(&self, _buf: &mut Vec<u8>) {
        match *self {}
    }

    fn encoded_len(&self) -> usize {
        match *self {}
    }
}

impl Decode for crate::consensus::NoExt {
    fn decode(_reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // `NoExt` is uninhabited: an `Ext` frame in a Tusk/Bullshark
        // deployment is a protocol violation, reported as a bad tag.
        Err(DecodeError::InvalidTag(TAG_EXT))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_types::BatchPayload;

    type Msg = NarwhalMsg<()>;

    #[test]
    fn synthetic_batch_wire_size_dominates() {
        let batch = Batch::synthetic(ValidatorId(0), WorkerId(0), 0, 1000, 512_000, vec![]);
        let msg: Msg = NarwhalMsg::Batch(batch);
        assert!(msg.wire_size_with(|_| 0) >= 512_000);
    }

    #[test]
    fn data_batch_wire_size_is_encoded_len() {
        let batch = Batch::new(
            ValidatorId(0),
            WorkerId(0),
            0,
            vec![Transaction::filler(0, 0, 512)],
            vec![],
        );
        if let BatchPayload::Data(_) = batch.payload {
            let expected = batch.encoded_len();
            let msg: Msg = NarwhalMsg::Batch(batch);
            assert_eq!(msg.wire_size_with(|_| 0), expected);
        } else {
            unreachable!();
        }
    }

    #[test]
    fn small_messages_are_small() {
        let msg: Msg = NarwhalMsg::BatchAck {
            digest: Digest::default(),
            voter: ValidatorId(0),
        };
        assert!(msg.wire_size_with(|_| 0) < 100);
    }

    #[test]
    fn ext_size_is_delegated() {
        let msg: NarwhalMsg<u32> = NarwhalMsg::Ext(7);
        assert_eq!(msg.wire_size_with(|_| 1234), 1234);
    }

    fn round_trip(msg: &NarwhalMsg<u32>) -> NarwhalMsg<u32> {
        let bytes = nt_codec::encode_to_vec(msg);
        nt_codec::decode_from_slice(&bytes).expect("round trip")
    }

    #[test]
    fn wire_codec_round_trips_every_variant() {
        use nt_crypto::{Hashable, Scheme};
        use nt_types::Committee;

        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Ed25519);
        let header = Header::new(
            &kps[1],
            ValidatorId(1),
            1,
            vec![(Digest::of(b"payload"), WorkerId(0))],
            vec![Digest::of(b"parent")],
            None,
        );
        let vote = Vote::new(&kps[0], ValidatorId(0), header.digest(), 1, ValidatorId(1));
        let votes: Vec<Vote> = kps
            .iter()
            .enumerate()
            .take(3)
            .map(|(i, kp)| {
                Vote::new(
                    kp,
                    ValidatorId(i as u32),
                    header.digest(),
                    1,
                    ValidatorId(1),
                )
            })
            .collect();
        let cert = Certificate::from_votes(&committee, header.clone(), &votes).unwrap();
        let batch = Batch::new(
            ValidatorId(2),
            WorkerId(0),
            9,
            vec![Transaction::filler(1, 2, 64)],
            vec![TxSample {
                id: 5,
                submit_ns: 17,
            }],
        );
        let info = BatchInfo {
            digest: batch.digest(),
            worker: WorkerId(0),
            creator: ValidatorId(2),
            tx_count: 1,
            tx_bytes: 64,
            samples: vec![TxSample {
                id: 5,
                submit_ns: 17,
            }],
        };
        let variants: Vec<NarwhalMsg<u32>> = vec![
            NarwhalMsg::Header(header),
            NarwhalMsg::Vote(vote),
            NarwhalMsg::Certificate(cert.clone()),
            NarwhalMsg::CertRequest {
                digests: vec![Digest::of(b"a"), Digest::of(b"b")],
            },
            NarwhalMsg::CertResponse { certs: vec![cert] },
            NarwhalMsg::CertRangeRequest { from: 9, to: 41 },
            NarwhalMsg::Batch(batch.clone()),
            NarwhalMsg::BatchAck {
                digest: batch.digest(),
                voter: ValidatorId(3),
            },
            NarwhalMsg::BatchRequest {
                digests: vec![batch.digest()],
            },
            NarwhalMsg::BatchResponse {
                batches: vec![batch.clone()],
            },
            NarwhalMsg::ReportBatch(info),
            NarwhalMsg::FetchBatch {
                digest: batch.digest(),
                worker: WorkerId(0),
                creator: ValidatorId(2),
            },
            NarwhalMsg::ClientTx(Transaction::filler(7, 1, 32)),
            NarwhalMsg::Ext(99),
            NarwhalMsg::SnapshotVote {
                sequence: 32,
                manifest: Digest::of(b"manifest"),
                sig: SnapshotSig {
                    signer: ValidatorId(1),
                    signature: kps[1].sign_digest(&Digest::of(b"manifest")),
                },
            },
            NarwhalMsg::SnapshotRequest {
                sequence: 0,
                cursor: 3,
            },
            NarwhalMsg::SnapshotResponse {
                manifest: SnapshotManifest::for_app(32, b"app state"),
                signatures: vec![SnapshotSig {
                    signer: ValidatorId(2),
                    signature: kps[2].sign_digest(&Digest::of(b"manifest")),
                }],
                chunk_index: 0,
                chunk: b"app state".to_vec(),
                base: Some(SnapshotBase {
                    frontier: vec![Certificate::genesis(ValidatorId(0))],
                    ordered: vec![nt_execution::OrderedRef {
                        digest: Digest::of(b"ordered"),
                        sequence: 31,
                    }],
                    consensus: vec![9, 9, 9],
                    checkpoint_seq: 33,
                    gc_round: Some(7),
                }),
            },
            NarwhalMsg::SnapshotResponse {
                manifest: SnapshotManifest::for_app(32, b"app state"),
                signatures: Vec::new(),
                chunk_index: 1,
                chunk: Vec::new(),
                base: None,
            },
        ];
        for msg in &variants {
            // Structural equality via a second encode: the enum has no
            // PartialEq (Ext need not), the canonical codec is injective.
            let back = round_trip(msg);
            assert_eq!(
                nt_codec::encode_to_vec(msg),
                nt_codec::encode_to_vec(&back),
                "round trip changed {msg:?}"
            );
        }
    }

    #[test]
    fn wire_codec_rejects_unknown_tag_and_truncation() {
        let msg: NarwhalMsg<u32> = NarwhalMsg::BatchRequest {
            digests: vec![Digest::of(b"x")],
        };
        let bytes = nt_codec::encode_to_vec(&msg);
        for cut in 0..bytes.len() {
            assert!(
                nt_codec::decode_from_slice::<NarwhalMsg<u32>>(&bytes[..cut]).is_err(),
                "truncation at {cut}"
            );
        }
        let bogus = nt_codec::encode_to_vec(&200u64);
        assert!(matches!(
            nt_codec::decode_from_slice::<NarwhalMsg<u32>>(&bogus),
            Err(nt_codec::DecodeError::InvalidTag(200))
        ));
    }

    #[test]
    fn no_ext_never_decodes() {
        use crate::consensus::NoExt;
        // A frame claiming the `Ext` variant (tag 12) in a NoExt deployment.
        let bytes = [TAG_EXT as u8];
        assert!(nt_codec::decode_from_slice::<NarwhalMsg<NoExt>>(&bytes).is_err());
    }
}
