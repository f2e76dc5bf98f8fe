//! Fixed-sized blocking: the rsync algorithm, included as the related-work
//! extension (§5: "Fix-sized blocking was used in the Rsync software").
//!
//! The client uploads, for every fixed-size block of its *old* version, a
//! cheap 32-bit rolling checksum and an 8-byte strong digest. The server
//! slides a window over the *new* version; wherever the rolling checksum
//! hits a known block (confirmed by the strong digest) it emits a `COPY`,
//! otherwise literal bytes accumulate into `DATA` runs. The downstream
//! payload reuses the [`recipe`](crate::recipe#) module format, so the same FVM
//! decoder serves this protocol and vary-sized blocking.
//!
//! ## Upstream format
//!
//! ```text
//! u32 block_size
//! u32 n_blocks
//! n_blocks × { u32 weak_sum, 8-byte strong digest }
//! ```

use std::collections::HashMap;

use fractal_crypto::checksum::{weak_sum, weak_sum_roll};
use fractal_crypto::wire::Sink;

use crate::bitmap::Bitmap;
use crate::recipe::{self, RecipeOp};
use crate::traits::{CodecError, DiffCodec, ProtocolId};

/// Default rsync block size.
pub const DEFAULT_BLOCK_SIZE: usize = 2048;

/// The fixed-sized blocking (rsync-style) codec.
#[derive(Clone, Copy, Debug)]
pub struct FixedBlock {
    /// Block size in bytes.
    pub block_size: usize,
}

impl Default for FixedBlock {
    fn default() -> Self {
        FixedBlock { block_size: DEFAULT_BLOCK_SIZE }
    }
}

impl FixedBlock {
    /// Creates a codec with an explicit block size.
    pub fn with_block_size(block_size: usize) -> Self {
        assert!(block_size > 0);
        FixedBlock { block_size }
    }

    /// Builds the upstream signature message for the client's old version.
    pub fn upstream_message(&self, old: &[u8]) -> Vec<u8> {
        let bs = self.block_size;
        let n = old.len() / bs; // only full blocks are matchable
        let mut out = Vec::with_capacity(8 + n * 12);
        out.u32(bs as u32);
        out.u32(n as u32);
        for block in old.chunks_exact(bs) {
            out.u32(weak_sum(block));
            out.put(&Bitmap::block_digest(block));
        }
        out
    }
}

impl DiffCodec for FixedBlock {
    fn id(&self) -> ProtocolId {
        ProtocolId::FixedBlock
    }

    fn encode(&self, old: &[u8], new: &[u8]) -> bytes::Bytes {
        let bs = self.block_size;
        // Signature table the client would have uploaded.
        let n_old = old.len() / bs;
        let mut table: HashMap<u32, Vec<usize>> = HashMap::with_capacity(n_old);
        let mut strong_of: Vec<[u8; 8]> = Vec::with_capacity(n_old);
        for (i, block) in old.chunks_exact(bs).enumerate() {
            table.entry(weak_sum(block)).or_default().push(i);
            strong_of.push(Bitmap::block_digest(block));
        }

        let mut ops: Vec<RecipeOp> = Vec::new();
        let mut lit_start = 0usize;
        let mut pos = 0usize;
        let mut rolling: Option<u32> = None;

        let push_copy = |ops: &mut Vec<RecipeOp>, block_idx: usize| {
            let old_offset = (block_idx * bs) as u32;
            if let Some(RecipeOp::Copy { old_offset: o, len }) = ops.last_mut() {
                if *o as usize + *len as usize == old_offset as usize {
                    *len += bs as u32;
                    return;
                }
            }
            ops.push(RecipeOp::Copy { old_offset, len: bs as u32 });
        };

        while pos + bs <= new.len() {
            let w = match rolling {
                Some(prev) => {
                    let w = weak_sum_roll(prev, new[pos - 1], new[pos + bs - 1], bs);
                    debug_assert_eq!(w, weak_sum(&new[pos..pos + bs]));
                    w
                }
                None => weak_sum(&new[pos..pos + bs]),
            };
            rolling = Some(w);

            let matched = table.get(&w).and_then(|cands| {
                let strong = Bitmap::block_digest(&new[pos..pos + bs]);
                cands.iter().copied().find(|&i| strong_of[i] == strong)
            });

            if let Some(block_idx) = matched {
                if lit_start < pos {
                    push_data(&mut ops, &new[lit_start..pos]);
                }
                push_copy(&mut ops, block_idx);
                pos += bs;
                lit_start = pos;
                rolling = None;
            } else {
                pos += 1;
            }
        }
        if lit_start < new.len() {
            push_data(&mut ops, &new[lit_start..]);
        }
        recipe::encode(new.len(), &ops).into()
    }

    fn decode(&self, old: &[u8], payload: &[u8]) -> Result<bytes::Bytes, CodecError> {
        recipe::apply(old, payload).map(Into::into)
    }

    fn upstream_bytes(&self, old_len: usize) -> u64 {
        8 + (old_len / self.block_size) as u64 * 12
    }
}

fn push_data(ops: &mut Vec<RecipeOp>, bytes: &[u8]) {
    // Literal runs arrive already coalesced (a Data push is always followed
    // by a Copy), so each run becomes exactly one op.
    debug_assert!(!matches!(ops.last(), Some(RecipeOp::Data(_))));
    ops.push(RecipeOp::Data(bytes::Bytes::copy_from_slice(bytes)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    fn codec() -> FixedBlock {
        FixedBlock::with_block_size(64)
    }

    #[test]
    fn identical_versions_collapse_to_one_copy() {
        let v = data(1, 64 * 100);
        let c = codec();
        let payload = c.encode(&v, &v);
        assert_eq!(c.decode(&v, &payload).unwrap(), v);
        let (_, ops) = recipe::parse(&payload).unwrap();
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn insertion_found_at_shifted_offsets() {
        // rsync's advantage over Bitmap: matches at arbitrary offsets.
        let old = data(2, 64 * 50);
        let mut new = old.clone();
        new.insert(100, 0xAA); // shifts everything after by 1
        let c = codec();
        let payload = c.encode(&old, &new);
        assert_eq!(c.decode(&old, &payload).unwrap(), new);
        assert!(
            payload.len() < new.len() / 4,
            "shifted content should still diff small, got {} of {}",
            payload.len(),
            new.len()
        );
    }

    #[test]
    fn cold_fetch_round_trips() {
        let new = data(3, 5000);
        let c = codec();
        let payload = c.encode(&[], &new);
        assert_eq!(c.decode(&[], &payload).unwrap(), new);
    }

    #[test]
    fn tail_shorter_than_block_round_trips() {
        let old = data(4, 64 * 10 + 17);
        let mut new = old.clone();
        new[640] ^= 1;
        let c = codec();
        let payload = c.encode(&old, &new);
        assert_eq!(c.decode(&old, &payload).unwrap(), new);
    }

    #[test]
    fn empty_inputs() {
        let c = codec();
        assert_eq!(c.decode(&[], &c.encode(&[], &[])).unwrap(), Vec::<u8>::new());
        let new = data(5, 100);
        assert_eq!(c.decode(&[], &c.encode(&[], &new)).unwrap(), new);
    }

    #[test]
    fn upstream_accounting_matches_message() {
        let c = codec();
        let old = data(6, 64 * 9 + 3);
        assert_eq!(c.upstream_message(&old).len() as u64, c.upstream_bytes(old.len()));
        assert_eq!(c.upstream_bytes(0), 8);
    }

    #[test]
    fn rearranged_blocks_still_match() {
        let c = codec();
        let a = data(7, 64 * 4);
        let b = data(8, 64 * 4);
        let old = [a.clone(), b.clone()].concat();
        let new = [b, a].concat(); // swap halves
        let payload = c.encode(&old, &new);
        assert_eq!(c.decode(&old, &payload).unwrap(), new);
        let (_, ops) = recipe::parse(&payload).unwrap();
        assert!(
            ops.iter().all(|o| matches!(o, RecipeOp::Copy { .. })),
            "swap should be pure copies: {ops:?}"
        );
    }
}
