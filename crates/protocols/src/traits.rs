//! The protocol-codec abstraction shared by all communication-optimization
//! protocols, and the [`ProtocolId`] naming them across the framework.

/// Identifies one of the communication-optimization protocols (the leaves of
/// the case-study PAT, Figure 8 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum ProtocolId {
    /// Direct sending — no optimization.
    Direct,
    /// Gzip — LZ77-family compression.
    Gzip,
    /// Bitmap — fixed-size block differencing.
    Bitmap,
    /// Vary-sized blocking — content-defined chunk differencing (LBFS).
    VaryBlock,
    /// Fixed-sized blocking — rsync-style rolling-checksum differencing
    /// (related-work extension).
    FixedBlock,
}

impl ProtocolId {
    /// All protocols in canonical order.
    pub const ALL: [ProtocolId; 5] = [
        ProtocolId::Direct,
        ProtocolId::Gzip,
        ProtocolId::Bitmap,
        ProtocolId::VaryBlock,
        ProtocolId::FixedBlock,
    ];

    /// The paper's four case-study protocols (Table 1).
    pub const PAPER_FOUR: [ProtocolId; 4] =
        [ProtocolId::Direct, ProtocolId::Gzip, ProtocolId::Bitmap, ProtocolId::VaryBlock];

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolId::Direct => "Direct sending",
            ProtocolId::Gzip => "Gzip",
            ProtocolId::Bitmap => "Bitmap",
            ProtocolId::VaryBlock => "Vary-sized blocking",
            ProtocolId::FixedBlock => "Fixed-sized blocking",
        }
    }

    /// Short identifier used in PAD names and logs.
    pub fn slug(self) -> &'static str {
        match self {
            ProtocolId::Direct => "direct",
            ProtocolId::Gzip => "gzip",
            ProtocolId::Bitmap => "bitmap",
            ProtocolId::VaryBlock => "vary",
            ProtocolId::FixedBlock => "fixed",
        }
    }

    /// Stable numeric id used on the wire.
    pub fn wire_id(self) -> u16 {
        match self {
            ProtocolId::Direct => 1,
            ProtocolId::Gzip => 2,
            ProtocolId::Bitmap => 3,
            ProtocolId::VaryBlock => 4,
            ProtocolId::FixedBlock => 5,
        }
    }

    /// Decodes a wire id.
    pub fn from_wire_id(id: u16) -> Option<ProtocolId> {
        ProtocolId::ALL.into_iter().find(|p| p.wire_id() == id)
    }
}

impl core::fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from the native protocol decoders.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Payload ends before a declared field.
    Truncated,
    /// Structurally invalid payload.
    BadFormat(&'static str),
    /// A copy op references bytes the old version does not have.
    OldOutOfRange,
    /// Decoded output did not reach the declared length.
    LengthMismatch {
        /// Length the payload header declared.
        declared: usize,
        /// Length actually produced.
        produced: usize,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::BadFormat(what) => write!(f, "bad payload format: {what}"),
            CodecError::OldOutOfRange => write!(f, "copy op outside old version"),
            CodecError::LengthMismatch { declared, produced } => {
                write!(f, "declared length {declared} but produced {produced}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<fractal_crypto::wire::Truncated> for CodecError {
    fn from(_: fractal_crypto::wire::Truncated) -> Self {
        CodecError::Truncated
    }
}

/// Bytes on the wire for one content transfer, split by direction. The
/// paper's Figure 11(a) reports the sum.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Traffic {
    /// Client → server bytes (e.g. block digests for Bitmap).
    pub upstream: u64,
    /// Server → client bytes (the encoded payload).
    pub downstream: u64,
}

impl Traffic {
    /// Total bytes in both directions.
    pub fn total(&self) -> u64 {
        self.upstream + self.downstream
    }
}

/// A differencing/compression codec: the server-side encoder plus the native
/// reference decoder for one protocol.
///
/// `old` is the version the client already holds (empty slice on a cold
/// fetch); `new` is the version to deliver. Every codec must satisfy
/// `decode(old, encode(old, new)) == new` for all inputs — the property
/// tests in each module and in `tests/` enforce this, and the FVM decoders
/// are differential-tested against `decode`.
///
/// Payloads are produced as [`bytes::Bytes`] so the session pipeline can
/// hand the same encoded buffer to the response store, the wire-accounting
/// layer, and the client without copying — cached responses and repeated
/// downloads are refcount bumps.
pub trait DiffCodec {
    /// Which protocol this codec implements.
    fn id(&self) -> ProtocolId;

    /// Server-side encode.
    fn encode(&self, old: &[u8], new: &[u8]) -> bytes::Bytes;

    /// Client-side reference decode.
    fn decode(&self, old: &[u8], payload: &[u8]) -> Result<bytes::Bytes, CodecError>;

    /// Bytes the client must send upstream before the server can encode
    /// (e.g. Bitmap's block digests). Defaults to a bare request header.
    fn upstream_bytes(&self, _old_len: usize) -> u64 {
        0
    }

    /// Full traffic accounting for one transfer.
    fn traffic(&self, old: &[u8], new: &[u8]) -> Traffic {
        Traffic {
            upstream: self.upstream_bytes(old.len()),
            downstream: self.encode(old, new).len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_ids_round_trip() {
        for p in ProtocolId::ALL {
            assert_eq!(ProtocolId::from_wire_id(p.wire_id()), Some(p));
        }
        assert_eq!(ProtocolId::from_wire_id(0), None);
        assert_eq!(ProtocolId::from_wire_id(999), None);
    }

    #[test]
    fn names_and_slugs_unique() {
        let names: std::collections::HashSet<_> =
            ProtocolId::ALL.iter().map(|p| p.name()).collect();
        let slugs: std::collections::HashSet<_> =
            ProtocolId::ALL.iter().map(|p| p.slug()).collect();
        assert_eq!(names.len(), ProtocolId::ALL.len());
        assert_eq!(slugs.len(), ProtocolId::ALL.len());
    }

    #[test]
    fn traffic_total() {
        let t = Traffic { upstream: 10, downstream: 32 };
        assert_eq!(t.total(), 42);
    }

    #[test]
    fn paper_four_is_subset_of_all() {
        for p in ProtocolId::PAPER_FOUR {
            assert!(ProtocolId::ALL.contains(&p));
        }
    }
}
