//! LZ77/LZSS compression engine: the core of the [`gzip`](crate::gzip)
//! protocol.
//!
//! The paper's Gzip PAD "uses the LZ77 algorithm" (§4.1, via the gzip tool).
//! This is a from-scratch LZ77 with a hash-chain match finder and a
//! byte-aligned token stream chosen so the client-side decoder is a tight
//! loop of bulk copies — exactly what the FVM executes well.
//!
//! ## Token stream format
//!
//! ```text
//! u32 raw_len                       ; decompressed length
//! tokens until raw_len bytes produced:
//!   control byte C:
//!     0x00..=0x7F  literal run of C+1 bytes follows (1..=128)
//!     0x80..=0xFF  match: length = (C & 0x7F) + MIN_MATCH, then u16 distance
//! ```
//!
//! Distances are 1..=65535 back from the current output position; matches
//! may overlap forward (distance < length), the classic LZ replication
//! trick.
//!
//! ## Match finder scratch
//!
//! [`compress`] allocates nothing but its output. Its tables are one
//! per-thread scratch of 384 KB, allocated on a thread's first call: `head`,
//! 2^15 `u32`s holding `pos + 1` of the latest position per hash (0 = none,
//! so clearing is one `fill(0)` per call), and `prev`, a ring of 65 536
//! `u32`s indexed `pos % 65536` holding each position's predecessor in its
//! chain. The ring is never cleared: chains start at `head`, so every link
//! followed was written by this call, and the `MAX_DIST` break comes before
//! `prev` is read, so a slot a later position has reused is never followed.
//! Candidates that differ from the target at offset `best_len` are not
//! extended and the rest are extended a word at a time; neither can change
//! which match wins, and `tests/lz77_identity.rs` holds the stream byte for
//! byte to the straightforward compressor this replaced.

use crate::traits::CodecError;
use fractal_crypto::wire::{Cursor, Sink};
use std::cell::RefCell;

/// Minimum match length worth encoding (a match token costs 3 bytes).
pub const MIN_MATCH: usize = 4;
/// Maximum match length encodable in one token.
pub const MAX_MATCH: usize = 0x7F + MIN_MATCH; // 131
/// Maximum back-reference distance.
pub const MAX_DIST: usize = 65535;
/// Maximum literal run per token.
pub const MAX_LITERAL_RUN: usize = 128;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Slots in the `prev` ring: the first power of two above [`MAX_DIST`].
const RING: usize = MAX_DIST + 1;
/// How many chain links the match finder follows before giving up. Higher
/// finds better matches but costs encode time (the server-side asymmetry
/// the paper's Figure 10 shows).
const MAX_CHAIN: usize = 64;

thread_local! {
    /// `head` then `prev`, allocated on a thread's first [`compress`].
    static SCRATCH: RefCell<Vec<u32>> = RefCell::new(vec![0; HASH_SIZE + RING]);
}

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    // Multiplicative hash of the next 4 bytes.
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of two equally long slices, compared a
/// little-endian word at a time: the lowest set bit of the XOR is the first
/// byte that differs.
#[inline]
fn match_len(a: &[u8], b: &[u8]) -> usize {
    let word = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("chunks_exact(8)"));
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..].iter().zip(&b[n..]).take_while(|(x, y)| x == y).count()
}

/// Compresses `input` into the token stream format.
pub fn compress(input: &[u8]) -> Vec<u8> {
    assert!(input.len() < u32::MAX as usize, "raw_len and the match tables are 32-bit");
    let mut out = Vec::with_capacity(16 + input.len() / 2);
    out.u32(input.len() as u32);

    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        // Sized arrays let the hashed and masked indexing go unchecked.
        let (head, prev) = scratch.split_at_mut(HASH_SIZE);
        let head: &mut [u32; HASH_SIZE] = head.try_into().expect("scratch layout");
        let prev: &mut [u32; RING] = prev.try_into().expect("scratch layout");
        head.fill(0);

        let mut pos = 0usize;
        let mut literal_start = 0usize;

        while pos < input.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;

            if pos + MIN_MATCH <= input.len() {
                let limit = (input.len() - pos).min(MAX_MATCH);
                let target = &input[pos..pos + limit];
                let h = hash4(target);
                let mut link = head[h];
                let mut chain = 0;
                while link != 0 && chain < MAX_CHAIN {
                    let candidate = link as usize - 1;
                    let dist = pos - candidate;
                    if dist > MAX_DIST {
                        break;
                    }
                    // A longer match must agree at offset best_len (< limit).
                    if input[candidate + best_len] == target[best_len] {
                        let len = match_len(&input[candidate..candidate + limit], target);
                        if len > best_len {
                            best_len = len;
                            best_dist = dist;
                            if len == limit {
                                break;
                            }
                        }
                    }
                    // dist <= MAX_DIST: only candidate + RING > pos could
                    // have reused this slot.
                    link = prev[candidate % RING];
                    chain += 1;
                }
                head_insert(head, prev, h, pos);
            }

            if best_len >= MIN_MATCH {
                flush_literals(&mut out, &input[literal_start..pos]);
                // Emit the match token.
                out.push(0x80 | ((best_len - MIN_MATCH) as u8));
                out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                // Index the skipped positions so later matches can reference
                // them (bounded to keep encode cost linear-ish).
                let end = pos + best_len;
                let index_limit = (pos + 1 + 32).min(end);
                for (p, w) in (pos + 1..index_limit).zip(input[pos + 1..].windows(MIN_MATCH)) {
                    head_insert(head, prev, hash4(w), p);
                }
                pos = end;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }
        flush_literals(&mut out, &input[literal_start..]);
    });
    out
}

#[inline]
fn head_insert(head: &mut [u32; HASH_SIZE], prev: &mut [u32; RING], h: usize, pos: usize) {
    prev[pos % RING] = head[h];
    head[h] = pos as u32 + 1;
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    for run in lits.chunks(MAX_LITERAL_RUN) {
        out.push((run.len() - 1) as u8);
        out.extend_from_slice(run);
    }
}

/// Decompresses a token stream produced by [`compress`].
#[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub fn decompress(payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut c = Cursor::new(payload);
    let raw_len = c.u32()? as usize;
    // The densest token is a 3-byte match producing MAX_MATCH bytes, so a
    // header declaring more than that per token cannot be met: refuse it
    // before reserving what it asks for.
    c.count(raw_len.div_ceil(MAX_MATCH), 3)?;
    let mut out = Vec::with_capacity(raw_len);
    while out.len() < raw_len {
        let control = c.u8()?;
        if control < 0x80 {
            out.extend_from_slice(c.take(control as usize + 1)?);
        } else {
            let len = (control & 0x7F) as usize + MIN_MATCH;
            let dist = c.u16()? as usize;
            if dist == 0 || dist > out.len() {
                return Err(CodecError::BadFormat("match distance out of range"));
            }
            // From `start` on the output repeats with period `dist`, so an
            // overlapping match doubles what it can copy on every pass.
            let start = out.len() - dist;
            let end = out.len() + len;
            while out.len() < end {
                let chunk = (out.len() - start).min(end - out.len());
                out.extend_from_within(start..start + chunk);
            }
        }
    }
    if out.len() != raw_len {
        return Err(CodecError::LengthMismatch { declared: raw_len, produced: out.len() });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        let d = decompress(&c).expect("decompresses");
        assert_eq!(d, data);
        c
    }

    #[test]
    fn empty_input() {
        let c = round_trip(b"");
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn short_incompressible() {
        round_trip(b"abc");
        round_trip(b"a");
    }

    #[test]
    fn repeated_bytes_compress_well() {
        let data = vec![b'x'; 10_000];
        let c = round_trip(&data);
        assert!(c.len() < 400, "run of 10k identical bytes should shrink a lot, got {}", c.len());
    }

    #[test]
    fn periodic_pattern_compresses() {
        let data: Vec<u8> = b"the quick brown fox ".iter().copied().cycle().take(8000).collect();
        let c = round_trip(&data);
        assert!(c.len() < data.len() / 4, "periodic text should compress 4x+, got {}", c.len());
    }

    #[test]
    fn random_data_does_not_explode() {
        // Worst case: token overhead is 1 byte per 128 literals.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        let c = round_trip(&data);
        assert!(c.len() <= data.len() + data.len() / 100 + 16);
    }

    #[test]
    fn overlapping_match_replication() {
        // "abcabcabc…" forces dist=3 matches with len > dist; the shorter
        // units dist 1 and 2, the longer one a non-power-of-two stride.
        for unit in [&b"a"[..], b"ab", b"abc", b"abcdefg"] {
            let data: Vec<u8> = unit.iter().copied().cycle().take(5000).collect();
            round_trip(&data);
            // Decoder alone: the unit as literals, then one match of every
            // length back onto it, against the byte-at-a-time definition.
            for len in MIN_MATCH..=MAX_MATCH {
                let mut payload = ((unit.len() + len) as u32).to_le_bytes().to_vec();
                payload.push(unit.len() as u8 - 1);
                payload.extend_from_slice(unit);
                payload.push(0x80 | (len - MIN_MATCH) as u8);
                payload.extend_from_slice(&(unit.len() as u16).to_le_bytes());
                assert_eq!(decompress(&payload).unwrap(), data[..unit.len() + len]);
            }
        }
    }

    #[test]
    fn long_matches_split_at_max_match() {
        for dist in 1..=3u8 {
            let data: Vec<u8> = (0..dist).cycle().take(1000 + MAX_MATCH * 3).collect();
            let c = round_trip(&data);
            // Header, `dist` literals, then one token per MAX_MATCH bytes.
            assert!(c.len() <= 4 + 1 + dist as usize + 3 * data.len().div_ceil(MAX_MATCH));
        }
    }

    #[test]
    fn text_like_content() {
        let text = "Fractal works entirely at the application level and has no \
                    specific requirements about underlying network topologies, \
                    connection media types, network protocols, and client \
                    hardware configurations. "
            .repeat(40);
        let c = round_trip(text.as_bytes());
        assert!(c.len() < text.len() / 3);
    }

    #[test]
    fn decompress_rejects_truncated_header() {
        assert_eq!(decompress(&[1, 2]), Err(CodecError::Truncated));
    }

    #[test]
    fn decompress_rejects_truncated_literals() {
        let mut payload = 10u32.to_le_bytes().to_vec();
        payload.push(9); // literal run of 10…
        payload.extend_from_slice(b"only5"); // …but 5 bytes
        assert_eq!(decompress(&payload), Err(CodecError::Truncated));
    }

    #[test]
    fn decompress_rejects_wild_distance() {
        let mut payload = 8u32.to_le_bytes().to_vec();
        payload.push(0x80); // match len=MIN_MATCH
        payload.extend_from_slice(&100u16.to_le_bytes()); // dist 100 into empty output
        assert!(matches!(decompress(&payload), Err(CodecError::BadFormat(_))));
    }

    #[test]
    fn decompress_rejects_zero_distance() {
        let mut payload = 8u32.to_le_bytes().to_vec();
        payload.push(0x00); // one literal
        payload.push(b'a');
        payload.push(0x80);
        payload.extend_from_slice(&0u16.to_le_bytes());
        assert!(matches!(decompress(&payload), Err(CodecError::BadFormat(_))));
    }

    #[test]
    fn all_byte_values_round_trip() {
        let data: Vec<u8> = (0u16..256).map(|b| b as u8).collect::<Vec<_>>().repeat(30);
        round_trip(&data);
    }
}
