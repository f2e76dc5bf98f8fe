//! Token-stream identity of the LZ77 match finder.
//!
//! `lz77::compress` keeps its tables in a per-thread scratch, skips chain
//! candidates that cannot beat the best match and extends matches a word at
//! a time. None of that may change a single output byte: the payload sizes
//! behind Figure 11(a), the FVM fuel the gzip PAD burns and every scenario
//! fingerprint are functions of this stream. [`reference_compress`] is the
//! straightforward compressor it replaced, kept here as the oracle.

use fractal::protocols::lz77::{self, MAX_DIST, MAX_LITERAL_RUN, MAX_MATCH, MIN_MATCH};
use fractal::workload::mutate::EditProfile;
use fractal::workload::PageSet;
use proptest::prelude::*;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const MAX_CHAIN: usize = 64;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// The compressor as it stood before the scratch/pre-check/word-compare
/// rewrite: fresh `usize::MAX`-filled tables per call, a full-length `prev`,
/// every chain candidate extended one byte at a time.
fn reference_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + input.len() / 2);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());

    // head[h] = most recent position with hash h; prev[pos & mask] = chain.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; input.len().max(1)];

    let mut pos = 0usize;
    let mut literal_start = 0usize;

    while pos < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;

        if pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let mut candidate = head[h];
            let mut chain = 0;
            while candidate != usize::MAX && chain < MAX_CHAIN {
                let dist = pos - candidate;
                if dist > MAX_DIST {
                    break;
                }
                // Extend the match.
                let limit = (input.len() - pos).min(MAX_MATCH);
                let mut len = 0;
                while len < limit && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                    if len == limit {
                        break;
                    }
                }
                candidate = prev[candidate];
                chain += 1;
            }
            head_insert(&mut head, &mut prev, input, pos);
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
            for p in pos + 1..index_limit {
                if p + MIN_MATCH <= input.len() {
                    head_insert(&mut head, &mut prev, input, p);
                }
            }
            pos = end;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_literals(&mut out, &input[literal_start..]);
    out
}

fn head_insert(head: &mut [usize], prev: &mut [usize], input: &[u8], pos: usize) {
    let h = hash4(&input[pos..]);
    prev[pos] = head[h];
    head[h] = pos;
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let take = lits.len().min(MAX_LITERAL_RUN);
        out.push((take - 1) as u8);
        out.extend_from_slice(&lits[..take]);
        lits = &lits[take..];
    }
}

/// Asserts stream identity and that the stream still decodes to `input`.
fn assert_identical(input: &[u8], what: &str) {
    let got = lz77::compress(input);
    assert!(got == reference_compress(input), "token stream differs: {what} ({} B)", input.len());
    assert!(lz77::decompress(&got).as_deref() == Ok(input), "round trip: {what}");
}

fn xorshift(state: &mut u32) -> u32 {
    *state ^= *state << 13;
    *state ^= *state >> 17;
    *state ^= *state << 5;
    *state
}

/// One stretch of generated input. `a` selects the alphabet size, the period
/// or the copy distance depending on the kind.
#[derive(Clone, Debug)]
struct Segment {
    kind: u8,
    a: u16,
    len: usize,
    seed: u32,
}

fn arb_segments(max_len: usize) -> impl Strategy<Value = Vec<Segment>> {
    let seg = (0u8..4, 1u16..400, 0usize..max_len, any::<u32>())
        .prop_map(|(kind, a, len, seed)| Segment { kind, a, len, seed });
    proptest::collection::vec(seg, 0..8)
}

/// Random, low-entropy, periodic and copied-from-earlier stretches, the last
/// kind overlapping its own output when `a < len`.
fn build(segments: &[Segment]) -> Vec<u8> {
    let mut out = Vec::new();
    for s in segments {
        let mut state = s.seed | 1;
        match s.kind {
            0 => out.extend((0..s.len).map(|_| (xorshift(&mut state) >> 24) as u8)),
            1 => {
                let alphabet = (s.a % 4 + 1) as u32;
                out.extend(
                    (0..s.len).map(|_| b'a' + ((xorshift(&mut state) >> 24) % alphabet) as u8),
                )
            }
            2 => {
                let unit: Vec<u8> = (0..s.a).map(|_| (xorshift(&mut state) >> 24) as u8).collect();
                out.extend(unit.iter().copied().cycle().take(s.len))
            }
            _ => {
                let back = (s.a as usize).min(out.len());
                for _ in 0..if back == 0 { 0 } else { s.len } {
                    out.push(out[out.len() - back]);
                }
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn generated_inputs_compress_to_the_reference_stream(segments in arb_segments(1500)) {
        assert_identical(&build(&segments), "generated");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Past 128 KiB the `prev` ring has wrapped twice and chains run into
    /// the `MAX_DIST` break.
    #[test]
    fn inputs_past_two_ring_laps_compress_to_the_reference_stream(
        segments in arb_segments(6000),
        seed in any::<u32>()
    ) {
        let mut state = seed | 1;
        let mut input = build(&segments);
        // Random fill: ~4 positions per hash bucket, ~32 K apart, so most
        // chains reach a candidate more than MAX_DIST back.
        input.extend((0..70_000).map(|_| (xorshift(&mut state) >> 24) as u8));
        input.extend(build(&segments));
        input.extend((0..70_000).map(|_| b'a' + ((xorshift(&mut state) >> 24) % 3) as u8));
        input.extend(build(&segments));
        prop_assert!(input.len() > 128 * 1024);
        assert_identical(&input, "large generated");
    }
}

#[test]
fn inputs_shorter_than_a_word_and_around_it() {
    let mut state = 0x2005_u32;
    for len in 0..=40 {
        assert_identical(&vec![b'x'; len], "run");
        let abab: Vec<u8> = b"ab".iter().copied().cycle().take(len).collect();
        assert_identical(&abab, "period 2");
        let noise: Vec<u8> = (0..len).map(|_| (xorshift(&mut state) >> 24) as u8).collect();
        assert_identical(&noise, "noise");
    }
}

/// `(length, distance)` of the longest match token in `stream`.
fn longest_match(stream: &[u8]) -> (usize, usize) {
    let (mut at, mut best) = (4, (0, 0));
    while at < stream.len() {
        let c = stream[at] as usize;
        if c < 0x80 {
            at += 2 + c;
        } else {
            let dist = u16::from_le_bytes([stream[at + 1], stream[at + 2]]) as usize;
            best = best.max((c - 0x80 + MIN_MATCH, dist));
            at += 3;
        }
    }
    best
}

/// A 200-byte marker repeated exactly 65 534 … 65 537 bytes later: the last
/// distance a token can carry is `MAX_DIST`, one more must not match.
#[test]
fn marker_repeated_around_max_dist() {
    let mut state = 65_535_u32;
    let mut noise =
        |n: usize| -> Vec<u8> { (0..n).map(|_| (xorshift(&mut state) >> 24) as u8).collect() };
    let marker = noise(200);
    for dist in MAX_DIST - 1..=MAX_DIST + 2 {
        let mut input = marker.clone();
        input.extend(noise(dist - marker.len()));
        input.extend_from_slice(&marker);
        assert_identical(&input, "marker");
        let (len, at) = longest_match(&lz77::compress(&input));
        if dist <= MAX_DIST {
            assert_eq!((len, at), (MAX_MATCH, dist));
        } else {
            assert!(len < 8, "a {len}-byte match at distance {at} with the marker {dist} back");
        }
    }
}

/// What the benchmark and the figures actually encode: both versions of the
/// 24 warm pages and the 16 KB prefix cold sessions fetch.
#[test]
fn workload_pages_compress_to_the_reference_stream() {
    let set = PageSet::new(2005, 24);
    for p in 0..24 {
        assert_identical(&set.original(p).to_bytes(), "page v0");
        assert_identical(&set.version(p, 1, EditProfile::Localized).to_bytes(), "page v1");
    }
    assert_identical(&set.original(0).to_bytes()[..16 * 1024], "cold prefix");
}

/// The scratch outlives a call; nothing of a long input may leak into the
/// stream of a short one that follows it on the same thread.
#[test]
fn a_short_input_after_a_long_one_on_the_same_thread() {
    let long = PageSet::new(2005, 1).original(0).to_bytes();
    assert!(long.len() > 2 * 65_536);
    for short in [&long[..3], &long[..300], &long[70_000..71_000], &b""[..]] {
        assert_identical(&long, "long");
        assert_identical(short, "short after long");
    }
}

#[test]
fn the_same_input_from_two_threads() {
    let page = PageSet::new(2005, 1).original(0).to_bytes();
    let expected = reference_compress(&page);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| s.spawn(|| (0..3).map(|_| lz77::compress(&page)).collect::<Vec<_>>()))
            .collect();
        for w in workers {
            for stream in w.join().expect("compress does not panic") {
                assert!(stream == expected);
            }
        }
    });
}
