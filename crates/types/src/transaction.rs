//! Client transactions and the latency-sampling machinery.

use crate::WireSize;
use nt_codec::{put_varint, varint_len, Decode, DecodeBorrowed, DecodeError, Encode, Reader};

/// An opaque client transaction.
///
/// Narwhal treats transaction contents as opaque bytes; the evaluation uses
/// fixed 512 B transactions (§7).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

impl Transaction {
    /// Creates a transaction from raw bytes.
    pub fn new(payload: Vec<u8>) -> Self {
        Transaction { payload }
    }

    /// Creates a deterministic filler transaction of `size` bytes whose
    /// first 16 bytes encode `(id, tag)` so tests can tell them apart.
    pub fn filler(id: u64, tag: u64, size: usize) -> Self {
        let mut payload = vec![0u8; size.max(16)];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        payload[8..16].copy_from_slice(&tag.to_le_bytes());
        Transaction { payload }
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

impl Encode for Transaction {
    /// The bytes of `Vec<u8>::encode`, as one copy instead of a push per
    /// byte: a batch encodes at one `extend_from_slice` per transaction.
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.payload.len() as u64);
        buf.extend_from_slice(&self.payload);
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.payload.len() as u64) + self.payload.len()
    }
}

impl Decode for Transaction {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Transaction {
            payload: Vec::<u8>::decode(reader)?,
        })
    }
}

impl WireSize for Transaction {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

/// A zero-copy view of a [`Transaction`]: the payload borrows the input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TransactionRef<'a> {
    /// Raw payload bytes, borrowed from the decode input.
    pub payload: &'a [u8],
}

impl TransactionRef<'_> {
    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Materializes an owned [`Transaction`] (the single payload copy).
    pub fn to_owned(&self) -> Transaction {
        Transaction {
            payload: self.payload.to_vec(),
        }
    }
}

impl<'a> DecodeBorrowed<'a> for TransactionRef<'a> {
    fn decode_borrowed(reader: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(TransactionRef {
            payload: <&[u8]>::decode_borrowed(reader)?,
        })
    }
}

/// A sampled transaction used for end-to-end latency measurement.
///
/// The paper measures latency "from when the client submits the transaction
/// to when the transaction is committed" by "tracking sample transactions
/// throughout the system" (§7). A `TxSample` records a submission timestamp;
/// it rides inside the batch that contains the sampled transaction and
/// surfaces again in the [`crate::CommitEvent`] when that batch commits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxSample {
    /// Unique sample id (for deduplication in the metrics collector).
    pub id: u64,
    /// Client submission time, nanoseconds since simulation start.
    pub submit_ns: u64,
}

impl Encode for TxSample {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.submit_ns.encode(buf);
    }
}

impl Decode for TxSample {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TxSample {
            id: u64::decode(reader)?,
            submit_ns: u64::decode(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_codec::{decode_from_slice, encode_to_vec};

    #[test]
    fn filler_encodes_id() {
        let tx = Transaction::filler(42, 7, 512);
        assert_eq!(tx.len(), 512);
        assert_eq!(u64::from_le_bytes(tx.payload[..8].try_into().unwrap()), 42);
    }

    #[test]
    fn transaction_roundtrip() {
        let tx = Transaction::filler(1, 2, 64);
        let back: Transaction = decode_from_slice(&encode_to_vec(&tx)).unwrap();
        assert_eq!(back, tx);
    }

    /// The one-copy encoding is the generic `Vec<u8>` one, byte for byte,
    /// across the varint's width steps.
    #[test]
    fn transaction_encodes_as_its_payload_vec() {
        for size in [0, 1, 127, 128, 512, 16_383, 16_384, 70_000] {
            let tx = Transaction::new((0..size).map(|i| i as u8).collect());
            let bytes = encode_to_vec(&tx);
            assert_eq!(bytes, encode_to_vec(&tx.payload), "{size} B");
            assert_eq!(bytes.len(), tx.encoded_len(), "{size} B");
        }
    }

    #[test]
    fn sample_roundtrip() {
        let s = TxSample {
            id: 9,
            submit_ns: 1_000_000,
        };
        let back: TxSample = decode_from_slice(&encode_to_vec(&s)).unwrap();
        assert_eq!(back, s);
    }
}
