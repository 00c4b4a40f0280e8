//! Worker batches: the unit of bulk data dissemination (§4.2).
//!
//! Workers accumulate client transactions into batches (~500 KB in the
//! paper's baseline configuration), stream them to the corresponding worker
//! of every other validator, and hand the batch *digest* to their primary
//! for inclusion in the next block.

use crate::committee::{ValidatorId, WorkerId};
use crate::transaction::{Transaction, TransactionRef, TxSample};
use crate::WireSize;
use nt_codec::{Decode, DecodeBorrowed, DecodeError, Encode, Reader};
use nt_crypto::{Digest, Hashable};

/// The transactions carried by a batch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BatchPayload {
    /// Real transaction bytes (socket runtime, examples, integration tests).
    Data(Vec<Transaction>),
    /// A simulation descriptor: `count` transactions totalling `bytes` bytes.
    ///
    /// The discrete-event simulator moves hundreds of thousands of
    /// transactions per second; materializing each would dominate memory and
    /// time without changing protocol behaviour. A synthetic payload has the
    /// same wire size as the data it stands for (see [`WireSize`]).
    Synthetic {
        /// Number of transactions represented.
        count: u64,
        /// Total payload bytes represented.
        bytes: u64,
    },
}

/// A batch of transactions produced by one worker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Batch {
    /// The validator whose worker created the batch.
    pub creator: ValidatorId,
    /// Which of the creator's workers made it.
    pub worker: WorkerId,
    /// Creator-local sequence number (makes digests unique).
    pub seq: u64,
    /// The transactions (real or synthetic).
    pub payload: BatchPayload,
    /// Latency-tracking samples for transactions inside this batch.
    pub samples: Vec<TxSample>,
}

impl Batch {
    /// Creates a batch of real transactions.
    pub fn new(
        creator: ValidatorId,
        worker: WorkerId,
        seq: u64,
        transactions: Vec<Transaction>,
        samples: Vec<TxSample>,
    ) -> Self {
        Batch {
            creator,
            worker,
            seq,
            payload: BatchPayload::Data(transactions),
            samples,
        }
    }

    /// Creates a synthetic batch descriptor for simulation.
    pub fn synthetic(
        creator: ValidatorId,
        worker: WorkerId,
        seq: u64,
        count: u64,
        bytes: u64,
        samples: Vec<TxSample>,
    ) -> Self {
        Batch {
            creator,
            worker,
            seq,
            payload: BatchPayload::Synthetic { count, bytes },
            samples,
        }
    }

    /// Number of transactions in the batch.
    pub fn tx_count(&self) -> u64 {
        match &self.payload {
            BatchPayload::Data(txs) => txs.len() as u64,
            BatchPayload::Synthetic { count, .. } => *count,
        }
    }

    /// Total transaction payload bytes.
    pub fn tx_bytes(&self) -> u64 {
        match &self.payload {
            BatchPayload::Data(txs) => txs.iter().map(|t| t.len() as u64).sum(),
            BatchPayload::Synthetic { bytes, .. } => *bytes,
        }
    }
}

impl Encode for Batch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.creator.encode(buf);
        self.worker.encode(buf);
        self.seq.encode(buf);
        match &self.payload {
            BatchPayload::Data(txs) => {
                buf.push(0);
                txs.encode(buf);
            }
            BatchPayload::Synthetic { count, bytes } => {
                buf.push(1);
                count.encode(buf);
                bytes.encode(buf);
            }
        }
        self.samples.encode(buf);
    }
}

impl Decode for Batch {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let creator = ValidatorId::decode(reader)?;
        let worker = WorkerId::decode(reader)?;
        let seq = u64::decode(reader)?;
        let payload = match reader.take_byte()? {
            0 => BatchPayload::Data(Vec::<Transaction>::decode(reader)?),
            1 => BatchPayload::Synthetic {
                count: u64::decode(reader)?,
                bytes: u64::decode(reader)?,
            },
            t => return Err(DecodeError::InvalidTag(t as u64)),
        };
        let samples = Vec::<TxSample>::decode(reader)?;
        Ok(Batch {
            creator,
            worker,
            seq,
            payload,
            samples,
        })
    }
}

impl Hashable for Batch {
    fn digest(&self) -> Digest {
        Digest::of_parts(&[b"batch", &nt_codec::encode_to_vec(self)])
    }
}

impl WireSize for Batch {
    fn wire_size(&self) -> usize {
        match &self.payload {
            BatchPayload::Data(_) => self.encoded_len(),
            // Synthetic batches stand for `bytes` of transaction data plus
            // the same framing a data batch would carry.
            BatchPayload::Synthetic { bytes, .. } => *bytes as usize + 64,
        }
    }
}

/// The transactions carried by a [`BatchRef`], borrowing the input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BatchPayloadRef<'a> {
    /// Real transaction bytes as slices into the decode input.
    Data(Vec<TransactionRef<'a>>),
    /// A simulation descriptor (nothing to borrow).
    Synthetic {
        /// Number of transactions represented.
        count: u64,
        /// Total payload bytes represented.
        bytes: u64,
    },
}

/// A zero-copy view of a [`Batch`]: transaction payloads borrow the input.
///
/// The wire format is identical to [`Batch`] — a `BatchRef` decoded from a
/// batch encoding re-encodes to the same bytes, so [`BatchRef::digest`]
/// agrees with the owned [`Hashable`] digest. Worker ingress can therefore
/// verify and digest a received batch without materializing its
/// transactions, copying only if the batch is actually stored.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchRef<'a> {
    /// The validator whose worker created the batch.
    pub creator: ValidatorId,
    /// Which of the creator's workers made it.
    pub worker: WorkerId,
    /// Creator-local sequence number (makes digests unique).
    pub seq: u64,
    /// The transactions (real or synthetic), borrowed.
    pub payload: BatchPayloadRef<'a>,
    /// Latency-tracking samples (small; owned).
    pub samples: Vec<TxSample>,
}

impl BatchRef<'_> {
    /// Number of transactions in the batch.
    pub fn tx_count(&self) -> u64 {
        match &self.payload {
            BatchPayloadRef::Data(txs) => txs.len() as u64,
            BatchPayloadRef::Synthetic { count, .. } => *count,
        }
    }

    /// Total transaction payload bytes.
    pub fn tx_bytes(&self) -> u64 {
        match &self.payload {
            BatchPayloadRef::Data(txs) => txs.iter().map(|t| t.len() as u64).sum(),
            BatchPayloadRef::Synthetic { bytes, .. } => *bytes,
        }
    }

    /// Materializes an owned [`Batch`], copying each transaction payload.
    pub fn to_owned(&self) -> Batch {
        Batch {
            creator: self.creator,
            worker: self.worker,
            seq: self.seq,
            payload: match &self.payload {
                BatchPayloadRef::Data(txs) => {
                    BatchPayload::Data(txs.iter().map(TransactionRef::to_owned).collect())
                }
                BatchPayloadRef::Synthetic { count, bytes } => BatchPayload::Synthetic {
                    count: *count,
                    bytes: *bytes,
                },
            },
            samples: self.samples.clone(),
        }
    }

    /// The batch digest; equal to the owned [`Hashable`] digest.
    pub fn digest(&self) -> Digest {
        Digest::of_parts(&[b"batch", &nt_codec::encode_to_vec(self)])
    }
}

impl Encode for BatchRef<'_> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.creator.encode(buf);
        self.worker.encode(buf);
        self.seq.encode(buf);
        match &self.payload {
            BatchPayloadRef::Data(txs) => {
                buf.push(0);
                nt_codec::put_varint(buf, txs.len() as u64);
                for tx in txs {
                    nt_codec::put_varint(buf, tx.payload.len() as u64);
                    buf.extend_from_slice(tx.payload);
                }
            }
            BatchPayloadRef::Synthetic { count, bytes } => {
                buf.push(1);
                count.encode(buf);
                bytes.encode(buf);
            }
        }
        self.samples.encode(buf);
    }
}

impl<'a> DecodeBorrowed<'a> for BatchRef<'a> {
    fn decode_borrowed(reader: &mut Reader<'a>) -> Result<Self, DecodeError> {
        let creator = ValidatorId::decode(reader)?;
        let worker = WorkerId::decode(reader)?;
        let seq = u64::decode(reader)?;
        let payload = match reader.take_byte()? {
            0 => BatchPayloadRef::Data(Vec::<TransactionRef<'a>>::decode_borrowed(reader)?),
            1 => BatchPayloadRef::Synthetic {
                count: u64::decode(reader)?,
                bytes: u64::decode(reader)?,
            },
            t => return Err(DecodeError::InvalidTag(t as u64)),
        };
        let samples = Vec::<TxSample>::decode(reader)?;
        Ok(BatchRef {
            creator,
            worker,
            seq,
            payload,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_codec::{decode_from_slice, encode_to_vec};

    fn sample_batch() -> Batch {
        Batch::new(
            ValidatorId(1),
            WorkerId(0),
            7,
            vec![
                Transaction::filler(1, 0, 128),
                Transaction::filler(2, 0, 128),
            ],
            vec![TxSample {
                id: 1,
                submit_ns: 500,
            }],
        )
    }

    #[test]
    fn roundtrip_data() {
        let b = sample_batch();
        let back: Batch = decode_from_slice(&encode_to_vec(&b)).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.tx_count(), 2);
        assert_eq!(back.tx_bytes(), 256);
    }

    #[test]
    fn roundtrip_synthetic() {
        let b = Batch::synthetic(ValidatorId(0), WorkerId(2), 3, 1000, 512_000, vec![]);
        let back: Batch = decode_from_slice(&encode_to_vec(&b)).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.tx_count(), 1000);
        assert_eq!(back.tx_bytes(), 512_000);
    }

    #[test]
    fn synthetic_wire_size_is_declared() {
        let b = Batch::synthetic(ValidatorId(0), WorkerId(0), 0, 1000, 512_000, vec![]);
        assert!(b.wire_size() >= 512_000);
        // The descriptor itself is tiny.
        assert!(encode_to_vec(&b).len() < 100);
    }

    #[test]
    fn batch_ref_borrows_and_agrees_with_owned() {
        let b = sample_batch();
        let bytes = encode_to_vec(&b);
        let view: BatchRef<'_> = nt_codec::decode_borrowed_from_slice(&bytes).unwrap();
        assert_eq!(view.creator, b.creator);
        assert_eq!(view.tx_count(), b.tx_count());
        assert_eq!(view.tx_bytes(), b.tx_bytes());
        assert_eq!(view.digest(), b.digest());
        assert_eq!(view.to_owned(), b);
        // Transaction payloads alias the input buffer — no payload copy.
        if let BatchPayloadRef::Data(txs) = &view.payload {
            for tx in txs {
                let start = tx.payload.as_ptr() as usize - bytes.as_ptr() as usize;
                assert!(start + tx.payload.len() <= bytes.len());
            }
        } else {
            panic!("expected data payload");
        }
        // Synthetic descriptors take the same path.
        let s = Batch::synthetic(ValidatorId(0), WorkerId(2), 3, 1000, 512_000, vec![]);
        let bytes = encode_to_vec(&s);
        let view: BatchRef<'_> = nt_codec::decode_borrowed_from_slice(&bytes).unwrap();
        assert_eq!(view.digest(), s.digest());
        assert_eq!(view.to_owned(), s);
    }

    #[test]
    fn batch_ref_rejects_what_owned_rejects() {
        let bytes = encode_to_vec(&sample_batch());
        for cut in 0..bytes.len() {
            assert_eq!(
                nt_codec::decode_borrowed_from_slice::<BatchRef<'_>>(&bytes[..cut]).is_err(),
                decode_from_slice::<Batch>(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn digests_are_unique_per_seq() {
        let mut a = sample_batch();
        let b = {
            let mut b = sample_batch();
            b.seq += 1;
            b
        };
        assert_ne!(a.digest(), b.digest());
        // And per-creator.
        a.creator = ValidatorId(2);
        assert_ne!(a.digest(), sample_batch().digest());
    }
}
