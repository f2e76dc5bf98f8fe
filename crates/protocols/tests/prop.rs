//! Property-based tests for the protocol codecs: the round-trip law on
//! arbitrary version pairs, and decoder robustness on arbitrary payloads.

use fractal_protocols::bitmap::Bitmap;
use fractal_protocols::direct::Direct;
use fractal_protocols::fixedblock::FixedBlock;
use fractal_protocols::gzip::Gzip;
use fractal_protocols::varyblock::{ChunkParams, VaryBlock};
use fractal_protocols::{huffman, lz77, recipe, CodecError, DiffCodec};
use proptest::prelude::*;

fn codecs() -> Vec<Box<dyn DiffCodec>> {
    vec![
        Box::new(Direct),
        Box::new(Gzip),
        Box::new(Bitmap::with_block_size(64)),
        Box::new(VaryBlock::with_params(ChunkParams { min: 32, max: 512, mask: 0x3F })),
        Box::new(FixedBlock::with_block_size(64)),
    ]
}

/// An "edit script" applied to old → new, covering the interesting diff
/// shapes: in-place overwrite, insertion, deletion, append, truncate.
#[derive(Debug, Clone)]
enum Edit {
    Overwrite { at: usize, bytes: Vec<u8> },
    Insert { at: usize, bytes: Vec<u8> },
    Delete { at: usize, len: usize },
    Append(Vec<u8>),
    Truncate(usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(at, bytes)| Edit::Overwrite { at, bytes }),
        (any::<usize>(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(at, bytes)| Edit::Insert { at, bytes }),
        (any::<usize>(), 1usize..64).prop_map(|(at, len)| Edit::Delete { at, len }),
        proptest::collection::vec(any::<u8>(), 1..64).prop_map(Edit::Append),
        any::<usize>().prop_map(Edit::Truncate),
    ]
}

fn apply_edits(old: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut v = old.to_vec();
    for e in edits {
        match e {
            Edit::Overwrite { at, bytes } => {
                if !v.is_empty() {
                    let at = at % v.len();
                    let n = bytes.len().min(v.len() - at);
                    v[at..at + n].copy_from_slice(&bytes[..n]);
                }
            }
            Edit::Insert { at, bytes } => {
                let at = at % (v.len() + 1);
                v.splice(at..at, bytes.iter().copied());
            }
            Edit::Delete { at, len } => {
                if !v.is_empty() {
                    let at = at % v.len();
                    let end = (at + len).min(v.len());
                    v.drain(at..end);
                }
            }
            Edit::Append(bytes) => v.extend_from_slice(bytes),
            Edit::Truncate(n) => {
                if !v.is_empty() {
                    v.truncate(n % (v.len() + 1));
                }
            }
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fundamental codec law: decode(old, encode(old, new)) == new,
    /// for every codec, over arbitrary edit histories.
    #[test]
    fn all_codecs_round_trip(old in proptest::collection::vec(any::<u8>(), 0..4096),
                             edits in proptest::collection::vec(arb_edit(), 0..6)) {
        let new = apply_edits(&old, &edits);
        for codec in codecs() {
            let payload = codec.encode(&old, &new);
            let decoded = codec.decode(&old, &payload);
            prop_assert_eq!(decoded.as_deref().ok(), Some(new.as_slice()),
                            "codec {} failed", codec.id());
        }
    }

    /// Decoders never panic on arbitrary payload bytes — they return
    /// Ok or Err.
    #[test]
    fn decoders_are_total_on_garbage(old in proptest::collection::vec(any::<u8>(), 0..512),
                                     payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        for codec in codecs() {
            let _ = codec.decode(&old, &payload);
        }
    }

    /// LZ77 compression never loses data and bounds expansion.
    #[test]
    fn lz77_round_trip_and_bound(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let c = lz77::compress(&data);
        prop_assert_eq!(lz77::decompress(&c).unwrap(), data.clone());
        // Worst case: 1 control byte per 128 literals + 4 byte header.
        prop_assert!(c.len() <= 4 + data.len() + data.len() / 128 + 1);
    }

    /// Any well-formed token stream — not only what `compress` emits —
    /// decodes to what the byte-at-a-time definition says, overlapping
    /// matches included; so the header bound refuses nothing a payload can
    /// meet and the strided copy replicates as the per-byte one did.
    #[test]
    fn lz77_decodes_arbitrary_well_formed_streams(
        ops in proptest::collection::vec((any::<bool>(), any::<u16>(), 0u8..128), 1..48)
    ) {
        let mut payload = vec![0u8; 4];
        let mut expected: Vec<u8> = Vec::new();
        for (is_match, d, c) in ops {
            payload.push(c);
            if is_match && !expected.is_empty() {
                *payload.last_mut().unwrap() |= 0x80;
                let dist = d as usize % expected.len().min(lz77::MAX_DIST) + 1;
                payload.extend_from_slice(&(dist as u16).to_le_bytes());
                for _ in 0..c as usize + lz77::MIN_MATCH {
                    expected.push(expected[expected.len() - dist]);
                }
            } else {
                let at = expected.len();
                expected.extend((0..=c).map(|i| i.wrapping_mul(31) ^ d as u8));
                payload.extend_from_slice(&expected[at..]);
            }
        }
        payload[..4].copy_from_slice(&(expected.len() as u32).to_le_bytes());
        prop_assert_eq!(lz77::decompress(&payload), Ok(expected));
    }

    /// Recipe payloads constructed from arbitrary op lists apply correctly.
    #[test]
    fn recipe_apply_matches_construction(
        old in proptest::collection::vec(any::<u8>(), 1..1024),
        raw_ops in proptest::collection::vec(
            (any::<bool>(), any::<usize>(), 1usize..128), 0..12)
    ) {
        let mut ops = Vec::new();
        let mut expected = Vec::new();
        for (is_copy, at, len) in raw_ops {
            if is_copy {
                let at = at % old.len();
                let len = len.min(old.len() - at);
                if len == 0 { continue; }
                ops.push(recipe::RecipeOp::Copy { old_offset: at as u32, len: len as u32 });
                expected.extend_from_slice(&old[at..at + len]);
            } else {
                let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + at) as u8).collect();
                expected.extend_from_slice(&bytes);
                ops.push(recipe::RecipeOp::Data(bytes.into()));
            }
        }
        let payload = recipe::encode(expected.len(), &ops);
        prop_assert_eq!(recipe::apply(&old, &payload).unwrap(), expected);
    }

    /// Bitmap payload size is monotone-ish in the number of changed
    /// blocks: identical versions always beat fully-rewritten ones.
    #[test]
    fn bitmap_identical_cheaper_than_rewrite(data in proptest::collection::vec(any::<u8>(), 64..2048)) {
        let c = Bitmap::with_block_size(64);
        let same = c.encode(&data, &data).len();
        let rewritten: Vec<u8> = data.iter().map(|b| b.wrapping_add(1)).collect();
        let diff = c.encode(&data, &rewritten).len();
        prop_assert!(same < diff);
    }

    /// Vary-sized chunking is deterministic and covers the input exactly.
    #[test]
    fn chunking_partitions_input(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let params = ChunkParams { min: 64, max: 1024, mask: 0x7F };
        let chunks = fractal_protocols::varyblock::chunk(&data, &params);
        let mut pos = 0usize;
        for c in &chunks {
            prop_assert_eq!(c.offset, pos);
            prop_assert!(c.len > 0 && c.len <= params.max);
            pos += c.len;
        }
        prop_assert_eq!(pos, data.len());
    }
}

/// ROADMAP 3(b): a decoder reserves no more than its payload can produce.
/// A `raw_len` header is attacker-chosen; four `FF` bytes used to reserve
/// 4 GiB before the first token was looked at.
#[test]
fn lz77_refuses_a_header_the_payload_cannot_meet() {
    assert_eq!(lz77::decompress(&[0xFF; 4]), Err(CodecError::Truncated));
    // One literal, then ten full-length matches onto it: eleven tokens.
    let mut payload = vec![0, 0, 0, 0, 0x00, b'z'];
    payload.extend_from_slice(&[0xFF, 1, 0].repeat(10));
    let produced = 1 + 10 * lz77::MAX_MATCH;
    payload[..4].copy_from_slice(&(produced as u32).to_le_bytes());
    assert_eq!(lz77::decompress(&payload), Ok(vec![b'z'; produced]));
    // Eleven tokens cannot make 11 × MAX_MATCH + 1 bytes.
    payload[..4].copy_from_slice(&(11 * lz77::MAX_MATCH as u32 + 1).to_le_bytes());
    assert_eq!(lz77::decompress(&payload), Err(CodecError::Truncated));
}

#[test]
fn huffman_refuses_a_header_the_payload_cannot_meet() {
    // One symbol, 1-bit codes: 16 symbols fill the two payload bytes.
    let mut c = huffman::compress(&[b'a'; 16]);
    assert_eq!(c.len(), 4 + 128 + 2);
    assert_eq!(huffman::decompress(&c), Ok(vec![b'a'; 16]));
    for declared in [17u32, u32::MAX] {
        c[..4].copy_from_slice(&declared.to_le_bytes());
        assert_eq!(huffman::decompress(&c), Err(CodecError::Truncated), "declared {declared}");
    }
}
