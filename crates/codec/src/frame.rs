//! Length-prefixed framing and the versioned wire envelope.
//!
//! Real-socket transports (the `nt_runtime` crate) exchange *frames*:
//!
//! ```text
//! +----------------+---------------------------------------+
//! | length: u32 LE | envelope bytes (canonical nt_codec)   |
//! +----------------+---------------------------------------+
//! ```
//!
//! where the envelope carries the protocol version, the sender's flat
//! `NodeId`, and the opaque encoded message payload:
//!
//! ```text
//! envelope := version: u32 (LE) | sender: varint u64 | payload: Vec<u8>
//! ```
//!
//! Every frame is self-describing: the first frame on a connection
//! identifies the peer and no separate handshake is needed. A frame that
//! fails any bound or decode check is a protocol violation — transports
//! must drop the connection (and never panic); the peer will reconnect.

use crate::{
    decode_borrowed_from_slice, decode_from_slice, encode_to_vec, Decode, DecodeBorrowed,
    DecodeError, Encode, Reader,
};

/// Version stamped into every [`Envelope`]; bump on incompatible wire changes.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on the byte length of a single frame body.
///
/// Slightly above [`MAX_SEQUENCE_LEN`](crate::MAX_SEQUENCE_LEN) so a
/// maximum-size payload still fits with envelope overhead.
pub const MAX_FRAME_LEN: u32 = crate::MAX_SEQUENCE_LEN as u32 + 1024;

/// A framed wire message: protocol version, sender id, opaque payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Protocol version of the sender ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// The sender's flat `NodeId` (`u64::MAX` is the external-client id).
    pub sender: u64,
    /// The encoded message (interpretation is up to the application).
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Creates an envelope at the current [`PROTOCOL_VERSION`].
    pub fn new(sender: u64, payload: Vec<u8>) -> Self {
        Envelope {
            version: PROTOCOL_VERSION,
            sender,
            payload,
        }
    }

    /// Encodes `msg` and wraps it in an envelope from `sender`.
    pub fn seal<M: Encode>(sender: u64, msg: &M) -> Self {
        Envelope::new(sender, encode_to_vec(msg))
    }

    /// Decodes the payload as an `M`, requiring full consumption.
    pub fn open<M: Decode>(&self) -> Result<M, DecodeError> {
        decode_from_slice(&self.payload)
    }
}

impl Encode for Envelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.version.encode(buf);
        self.sender.encode(buf);
        self.payload.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        4 + self.sender.encoded_len() + self.payload.encoded_len()
    }
}

impl Decode for Envelope {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Envelope {
            version: u32::decode(reader)?,
            sender: u64::decode(reader)?,
            payload: Vec::<u8>::decode(reader)?,
        })
    }
}

/// A zero-copy view of an [`Envelope`]: the payload borrows the frame body.
///
/// Transports buffer raw connection bytes and drain whole frames out of the
/// buffer; parsing the envelope as a view means the only copy on the read
/// path is the one that materializes the payload for the recipient — the
/// frame body itself is never duplicated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnvelopeRef<'a> {
    /// Protocol version of the sender ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// The sender's flat `NodeId` (`u64::MAX` is the external-client id).
    pub sender: u64,
    /// The encoded message, borrowed from the frame body.
    pub payload: &'a [u8],
}

impl<'a> EnvelopeRef<'a> {
    /// Parses a frame body as an envelope view, requiring full consumption.
    ///
    /// Accepts exactly the bytes `decode_from_slice::<Envelope>` accepts.
    pub fn parse(body: &'a [u8]) -> Result<EnvelopeRef<'a>, DecodeError> {
        decode_borrowed_from_slice(body)
    }

    /// Decodes the payload as an `M`, requiring full consumption.
    pub fn open<M: Decode>(&self) -> Result<M, DecodeError> {
        decode_from_slice(self.payload)
    }

    /// Materializes an owned [`Envelope`] (the single payload copy).
    pub fn to_owned(&self) -> Envelope {
        Envelope {
            version: self.version,
            sender: self.sender,
            payload: self.payload.to_vec(),
        }
    }
}

impl<'a> DecodeBorrowed<'a> for EnvelopeRef<'a> {
    fn decode_borrowed(reader: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(EnvelopeRef {
            version: u32::decode(reader)?,
            sender: u64::decode(reader)?,
            payload: <&[u8]>::decode_borrowed(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope::new(3, vec![9, 8, 7, 6, 5])
    }

    #[test]
    fn envelope_round_trip() {
        let env = sample();
        let bytes = encode_to_vec(&env);
        assert_eq!(bytes.len(), env.encoded_len());
        let back: Envelope = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.version, PROTOCOL_VERSION);
    }

    #[test]
    fn envelope_ref_agrees_with_owned() {
        let env = sample();
        let bytes = encode_to_vec(&env);
        let view = EnvelopeRef::parse(&bytes).unwrap();
        assert_eq!(view.version, env.version);
        assert_eq!(view.sender, env.sender);
        assert_eq!(view.payload, &env.payload[..]);
        assert_eq!(view.to_owned(), env);
        // Truncations and trailing bytes are rejected exactly like the
        // owned decoder.
        for cut in 0..bytes.len() {
            assert_eq!(
                EnvelopeRef::parse(&bytes[..cut]).is_err(),
                decode_from_slice::<Envelope>(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            EnvelopeRef::parse(&extended),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    #[test]
    fn envelope_ref_open_decodes_payload() {
        let env = Envelope::seal(7, &(42u64, vec![1u8, 2, 3]));
        let bytes = encode_to_vec(&env);
        let view = EnvelopeRef::parse(&bytes).unwrap();
        let (n, data): (u64, Vec<u8>) = view.open().unwrap();
        assert_eq!(n, 42);
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn seal_open_round_trip() {
        let env = Envelope::seal(7, &(42u64, vec![1u8, 2, 3]));
        let (n, bytes): (u64, Vec<u8>) = env.open().unwrap();
        assert_eq!(n, 42);
        assert_eq!(bytes, vec![1, 2, 3]);
    }
}
