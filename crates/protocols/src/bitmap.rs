//! The Bitmap protocol: fixed-size block differencing (§4.1 protocol 4).
//!
//! From the paper: "files are updated by dividing both files into fix-sized
//! chunks. The client sends digests of each chunk to the server, and the
//! server responds only with new data chunks." It excels on formats whose
//! edits are positionally stable — DICOM/BMP images where pixels change in
//! place (reference \[29\], the computer-assisted-surgery workload).
//!
//! ## Wire formats
//!
//! *Upstream* (client → server), counted in traffic accounting:
//!
//! ```text
//! u32 block_size
//! u32 n_blocks_old
//! n_blocks_old × 8-byte truncated SHA-1 block digests
//! ```
//!
//! *Downstream* payload:
//!
//! ```text
//! u32 new_len
//! u32 block_size
//! u32 n_blocks                      ; = ceil(new_len / block_size)
//! ceil(n_blocks / 8) bitmap bytes   ; bit i set ⇒ block i included below
//! changed blocks, in order          ; last block may be short
//! ```
//!
//! Block *i* is marked unchanged only when the old version contains the
//! identical bytes at the same offsets, so the decoder can always rebuild
//! unchanged blocks from `old` directly.

use fractal_crypto::sha1::sha1;
use fractal_crypto::wire::{Cursor, Sink};

use crate::traits::{CodecError, DiffCodec, ProtocolId};

/// Default block size. 2 KiB balances bitmap overhead against diff
/// granularity for the paper's ~32 KiB images.
pub const DEFAULT_BLOCK_SIZE: usize = 2048;

/// The Bitmap codec.
#[derive(Clone, Copy, Debug)]
pub struct Bitmap {
    /// Fixed block size in bytes.
    pub block_size: usize,
}

impl Default for Bitmap {
    fn default() -> Self {
        Bitmap { block_size: DEFAULT_BLOCK_SIZE }
    }
}

impl Bitmap {
    /// Creates a codec with an explicit block size (must be non-zero).
    pub fn with_block_size(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Bitmap { block_size }
    }

    /// Number of blocks covering `len` bytes.
    pub fn n_blocks(&self, len: usize) -> usize {
        len.div_ceil(self.block_size)
    }

    /// The 8-byte truncated digest of one block — what the client uploads.
    pub fn block_digest(block: &[u8]) -> [u8; 8] {
        let d = sha1(block);
        d.0[..8].try_into().expect("8-byte prefix")
    }

    /// Builds the upstream digest message for an old version (what the
    /// client's PAD computes and sends).
    pub fn upstream_message(&self, old: &[u8]) -> Vec<u8> {
        let n = self.n_blocks(old.len());
        let mut out = Vec::with_capacity(8 + n * 8);
        out.u32(self.block_size as u32);
        out.u32(n as u32);
        for block in old.chunks(self.block_size) {
            out.put(&Self::block_digest(block));
        }
        out
    }
}

impl DiffCodec for Bitmap {
    fn id(&self) -> ProtocolId {
        ProtocolId::Bitmap
    }

    fn encode(&self, old: &[u8], new: &[u8]) -> bytes::Bytes {
        let bs = self.block_size;
        let n_blocks = self.n_blocks(new.len());
        let bitmap_len = n_blocks.div_ceil(8);

        let mut bitmap = vec![0u8; bitmap_len];
        let mut blocks: Vec<&[u8]> = Vec::new();
        for (i, new_block) in new.chunks(bs).enumerate() {
            if old.get(i * bs..i * bs + new_block.len()) != Some(new_block) {
                bitmap[i / 8] |= 1 << (i % 8);
                blocks.push(new_block);
            }
        }

        let data_len: usize = blocks.iter().map(|b| b.len()).sum();
        let mut out = Vec::with_capacity(12 + bitmap_len + data_len);
        out.u32(new.len() as u32);
        out.u32(bs as u32);
        out.u32(n_blocks as u32);
        out.put(&bitmap);
        for b in blocks {
            out.extend_from_slice(b);
        }
        out.into()
    }

    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    fn decode(&self, old: &[u8], payload: &[u8]) -> Result<bytes::Bytes, CodecError> {
        let mut c = Cursor::new(payload);
        let new_len = c.u32()? as usize;
        let bs = c.u32()? as usize;
        let n_blocks = c.u32()? as usize;
        if bs == 0 {
            return Err(CodecError::BadFormat("zero block size"));
        }
        if n_blocks != new_len.div_ceil(bs) {
            return Err(CodecError::BadFormat("block count inconsistent with length"));
        }
        let bitmap = c.take(n_blocks.div_ceil(8))?;
        let changed = bitmap.iter().flat_map(|byte| (0..8).map(move |bit| byte & (1 << bit) != 0));
        // Every byte out is a byte of `old` or of the payload.
        let mut out = Vec::with_capacity(new_len.min(old.len() + payload.len()));
        for (i, changed) in changed.take(n_blocks).enumerate() {
            let start = i * bs;
            let end = (start + bs).min(new_len);
            if changed {
                out.extend_from_slice(c.take(end - start)?);
            } else {
                let bytes = old.get(start..end).ok_or(CodecError::OldOutOfRange)?;
                out.extend_from_slice(bytes);
            }
        }
        if out.len() != new_len {
            return Err(CodecError::LengthMismatch { declared: new_len, produced: out.len() });
        }
        Ok(out.into())
    }

    fn upstream_bytes(&self, old_len: usize) -> u64 {
        8 + self.n_blocks(old_len) as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> Bitmap {
        Bitmap::with_block_size(16)
    }

    #[test]
    fn identical_versions_send_only_header() {
        let c = codec();
        let v = vec![42u8; 160];
        let payload = c.encode(&v, &v);
        // Header 12 + bitmap 2, zero blocks.
        assert_eq!(payload.len(), 14);
        assert_eq!(c.decode(&v, &payload).unwrap(), v);
    }

    #[test]
    fn single_block_edit_sends_one_block() {
        let c = codec();
        let old = vec![1u8; 160];
        let mut new = old.clone();
        new[40] = 99; // block 2
        let payload = c.encode(&old, &new);
        assert_eq!(payload.len(), 12 + 2 + 16);
        assert_eq!(c.decode(&old, &payload).unwrap(), new);
    }

    #[test]
    fn cold_fetch_sends_everything() {
        let c = codec();
        let new = (0..100u8).collect::<Vec<_>>();
        let payload = c.encode(&[], &new);
        assert_eq!(c.decode(&[], &payload).unwrap(), new);
        assert!(payload.len() >= new.len());
    }

    #[test]
    fn shrinking_content() {
        let c = codec();
        let old = vec![7u8; 160];
        let new = vec![7u8; 100]; // last block shortens: 6 full + 1 short... 100/16 → 7 blocks
        let payload = c.encode(&old, &new);
        assert_eq!(c.decode(&old, &payload).unwrap(), new);
    }

    #[test]
    fn growing_content() {
        let c = codec();
        let old = vec![7u8; 100];
        let new = vec![7u8; 160];
        let payload = c.encode(&old, &new);
        assert_eq!(c.decode(&old, &payload).unwrap(), new);
    }

    #[test]
    fn insertion_destroys_alignment_costs_everything_after() {
        // Bitmap's weakness: one inserted byte shifts all later blocks.
        let c = codec();
        let old: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(3)).collect();
        let mut new = old.clone();
        new.insert(10, 0xEE);
        let payload = c.encode(&old, &new);
        assert_eq!(c.decode(&old, &payload).unwrap(), new);
        // Nearly all blocks change: payload close to full size.
        assert!(payload.len() as f64 > new.len() as f64 * 0.9);
    }

    #[test]
    fn in_place_edit_is_cheap_where_insertion_is_not() {
        let c = codec();
        let old: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(3)).collect();
        let mut edited = old.clone();
        edited[10] = 0xEE; // in-place
        let in_place = c.encode(&old, &edited).len();
        let mut inserted = old.clone();
        inserted.insert(10, 0xEE);
        let shifted = c.encode(&old, &inserted).len();
        assert!(in_place < shifted / 2, "in-place {in_place} vs shifted {shifted}");
    }

    #[test]
    fn empty_new_version() {
        let c = codec();
        let payload = c.encode(b"old stuff", &[]);
        assert_eq!(c.decode(b"old stuff", &payload).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn upstream_accounting() {
        let c = codec();
        assert_eq!(c.upstream_bytes(0), 8);
        assert_eq!(c.upstream_bytes(1), 16);
        assert_eq!(c.upstream_bytes(16), 16);
        assert_eq!(c.upstream_bytes(17), 24);
        let msg = c.upstream_message(&[0u8; 17]);
        assert_eq!(msg.len() as u64, c.upstream_bytes(17));
    }

    #[test]
    fn decode_rejects_garbage() {
        let c = codec();
        assert_eq!(c.decode(&[], &[1, 2, 3]), Err(CodecError::Truncated));
        // Inconsistent block count.
        let mut p = Vec::new();
        p.extend_from_slice(&100u32.to_le_bytes());
        p.extend_from_slice(&16u32.to_le_bytes());
        p.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(c.decode(&[], &p), Err(CodecError::BadFormat(_))));
        // Zero block size.
        let mut p = Vec::new();
        p.extend_from_slice(&0u32.to_le_bytes());
        p.extend_from_slice(&0u32.to_le_bytes());
        p.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(c.decode(&[], &p), Err(CodecError::BadFormat(_))));
    }

    #[test]
    fn decode_rejects_unchanged_block_missing_from_old() {
        let c = codec();
        let old = vec![5u8; 160];
        let payload = c.encode(&old, &old);
        // Claim the same payload against a shorter old version.
        assert_eq!(c.decode(&old[..50], &payload), Err(CodecError::OldOutOfRange));
    }

    #[test]
    fn truncated_block_data_rejected() {
        let c = codec();
        let old = vec![1u8; 64];
        let mut new = old.clone();
        new[0] = 2;
        let payload = c.encode(&old, &new);
        assert!(c.decode(&old, &payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn block_digests_differ_for_different_blocks() {
        assert_ne!(Bitmap::block_digest(b"aaaa"), Bitmap::block_digest(b"aaab"));
    }
}
