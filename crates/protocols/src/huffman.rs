//! Canonical Huffman coding over the byte alphabet — the entropy stage
//! that turns the LZ77 token stream into a DEFLATE-class compressor
//! (the actual algorithm inside the paper's `gzip` tool).
//!
//! ## Format
//!
//! ```text
//! u32 raw_len
//! 128 bytes: code length of each symbol 0..=255, packed two per byte
//!            (low nibble = even symbol), lengths 0..=15
//! bitstream: MSB-first canonical codes
//! ```
//!
//! Codes are *canonical*: symbols sorted by (length, value) receive
//! lexicographically increasing codes, so the decoder needs only the
//! length table. Lengths are capped at [`MAX_BITS`]; the builder uses
//! heap-based Huffman followed by depth rebalancing when the cap binds.

use crate::traits::CodecError;
use fractal_crypto::wire::{Cursor, Sink};

/// Maximum code length (DEFLATE's limit).
pub const MAX_BITS: usize = 15;
const ALPHABET: usize = 256;

/// Writes bits MSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the last byte (0..8; 0 means byte-aligned).
    used: u8,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Appends the low `n` bits of `value`, MSB first.
    pub fn put(&mut self, value: u32, n: u8) {
        debug_assert!(n <= 32);
        for i in (0..n).rev() {
            let bit = (value >> i) & 1;
            if self.used == 0 {
                self.bytes.push(0);
                self.used = 8;
            }
            let last = self.bytes.last_mut().expect("pushed");
            self.used -= 1;
            *last |= (bit as u8) << self.used;
        }
    }

    /// Finishes, returning the byte stream (zero-padded).
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }

    /// Total bits written.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 - self.used as usize
    }
}

/// Reads bits MSB-first.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit; `None` at end of input.
    pub fn bit(&mut self) -> Option<u32> {
        let byte = *self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Some(bit as u32)
    }
}

/// Computes capped canonical code lengths from symbol frequencies.
pub fn code_lengths(freqs: &[u64; ALPHABET]) -> [u8; ALPHABET] {
    let mut lengths = [0u8; ALPHABET];
    let present: Vec<usize> = (0..ALPHABET).filter(|&s| freqs[s] > 0).collect();
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Heap-based Huffman over (weight, node). Internal nodes get indices
    // ≥ ALPHABET; parent[] reconstructs depths.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut parent = vec![usize::MAX; ALPHABET + present.len()];
    for &s in &present {
        heap.push(Reverse((freqs[s], s)));
    }
    let mut next_internal = ALPHABET;
    while heap.len() > 1 {
        let Reverse((wa, a)) = heap.pop().expect("≥2");
        let Reverse((wb, b)) = heap.pop().expect("≥2");
        parent[a] = next_internal;
        parent[b] = next_internal;
        heap.push(Reverse((wa + wb, next_internal)));
        next_internal += 1;
    }
    let root = heap.pop().expect("root").0 .1;

    for &s in &present {
        let mut depth = 0u8;
        let mut node = s;
        while node != root {
            node = parent[node];
            depth += 1;
        }
        lengths[s] = depth.max(1);
    }

    // Cap at MAX_BITS by flattening over-deep codes and restoring the
    // Kraft inequality (the standard zlib-style rebalance).
    let mut counts = [0usize; MAX_BITS + 1];
    for &s in &present {
        let l = (lengths[s] as usize).min(MAX_BITS);
        lengths[s] = l as u8;
        counts[l] += 1;
    }
    // Kraft sum in units of 2^-MAX_BITS.
    let kraft = |counts: &[usize; MAX_BITS + 1]| -> u64 {
        (1..=MAX_BITS).map(|l| (counts[l] as u64) << (MAX_BITS - l)).sum()
    };
    let budget = 1u64 << MAX_BITS;
    while kraft(&counts) > budget {
        // Find the deepest non-max length with entries, demote one code
        // from the longest length by promoting a shorter one down.
        let mut l = MAX_BITS - 1;
        while counts[l] == 0 {
            l -= 1;
        }
        counts[l] -= 1;
        counts[l + 1] += 2;
        counts[MAX_BITS] -= 1;
    }
    // Re-assign lengths canonically: shortest lengths to most frequent
    // symbols.
    let mut by_freq = present.clone();
    by_freq.sort_by_key(|&s| (Reverse(freqs[s]), s));
    let mut assigned = Vec::with_capacity(by_freq.len());
    #[allow(clippy::needless_range_loop)]
    for l in 1..=MAX_BITS {
        for _ in 0..counts[l] {
            assigned.push(l as u8);
        }
    }
    debug_assert_eq!(assigned.len(), by_freq.len());
    let mut out = [0u8; ALPHABET];
    for (&s, &l) in by_freq.iter().zip(&assigned) {
        out[s] = l;
    }
    out
}

/// Builds the canonical code for each symbol from its length table.
pub fn canonical_codes(lengths: &[u8; ALPHABET]) -> [(u32, u8); ALPHABET] {
    let mut count = [0u32; MAX_BITS + 1];
    for &l in lengths.iter() {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next = [0u32; MAX_BITS + 1];
    let mut code = 0u32;
    for l in 1..=MAX_BITS {
        code = (code + count[l - 1]) << 1;
        next[l] = code;
    }
    let mut codes = [(0u32, 0u8); ALPHABET];
    for s in 0..ALPHABET {
        let l = lengths[s];
        if l > 0 {
            codes[s] = (next[l as usize], l);
            next[l as usize] += 1;
        }
    }
    codes
}

/// Compresses `data` (header + canonical bitstream).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut freqs = [0u64; ALPHABET];
    for &b in data {
        freqs[b as usize] += 1;
    }
    let lengths = code_lengths(&freqs);
    let codes = canonical_codes(&lengths);

    let mut out = Vec::with_capacity(16 + 128 + data.len() / 2);
    out.u32(data.len() as u32);
    for pair in lengths.chunks_exact(2) {
        out.push(pair[0] | (pair[1] << 4));
    }
    let mut bw = BitWriter::new();
    for &b in data {
        let (code, len) = codes[b as usize];
        bw.put(code, len);
    }
    out.extend_from_slice(&bw.finish());
    out
}

/// Decompresses a [`compress`] payload.
#[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub fn decompress(payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut c = Cursor::new(payload);
    let raw_len = c.u32()? as usize;
    let packed: [u8; ALPHABET / 2] = c.array()?;
    let lengths = || packed.iter().flat_map(|&b| [b & 0x0F, b >> 4]);

    // Canonical decoding tables: per length, the first code, the count,
    // and the symbol list sorted by (length, symbol).
    let mut count = [0u32; MAX_BITS + 1];
    for l in lengths().filter(|&l| l > 0) {
        *count.get_mut(l as usize).ok_or(CodecError::BadFormat("code length over limit"))? += 1;
    }
    if raw_len > 0 && count.iter().sum::<u32>() == 0 {
        return Err(CodecError::BadFormat("no codes declared"));
    }
    // (first code, count, index of the first symbol) of lengths 1..=MAX_BITS.
    let mut levels = [(0u32, 0u32, 0u32); MAX_BITS];
    let (mut code, mut idx) = (0u32, 0u32);
    for (level, (&shorter, &n)) in levels.iter_mut().zip(count.iter().zip(count.iter().skip(1))) {
        code = (code + shorter) << 1;
        *level = (code, n, idx);
        idx += n;
    }
    let mut symbols = Vec::with_capacity(idx as usize);
    for l in 1..=MAX_BITS as u8 {
        symbols.extend((0..=u8::MAX).zip(lengths()).filter(|&(_, sl)| sl == l).map(|(s, _)| s));
    }

    // Every symbol costs at least one bit: refuse a header the payload
    // cannot meet before reserving what it asks for.
    c.count(raw_len.div_ceil(8), 1)?;
    let mut br = BitReader::new(c.remaining());
    let mut out = Vec::with_capacity(raw_len);
    while out.len() < raw_len {
        let mut code = 0u32;
        let mut longer = levels.iter();
        let symbol = loop {
            code = (code << 1) | br.bit().ok_or(CodecError::Truncated)?;
            let &(first, n, index) = longer.next().ok_or(CodecError::BadFormat("code too long"))?;
            if code >= first && code - first < n {
                break symbols.get((index + code - first) as usize);
            }
        };
        // A canonical table has a symbol for every code it accepts.
        out.push(*symbol.ok_or(CodecError::BadFormat("code outside the table"))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "round trip");
        c
    }

    #[test]
    fn empty_input() {
        round_trip(b"");
    }

    #[test]
    fn single_symbol_runs() {
        let c = round_trip(&vec![b'z'; 10_000]);
        // One symbol → 1-bit codes → ~1.25 KB + header.
        assert!(c.len() < 1500, "got {}", c.len());
    }

    #[test]
    fn two_symbols() {
        let data: Vec<u8> = (0..5000).map(|i| if i % 3 == 0 { b'a' } else { b'b' }).collect();
        round_trip(&data);
    }

    #[test]
    fn skewed_text_compresses() {
        let text = b"the adaptation proxy negotiates protocol adaptors ".repeat(200);
        let c = round_trip(&text);
        assert!(c.len() < text.len() * 6 / 10, "entropy stage should save 40%+");
    }

    #[test]
    fn uniform_bytes_do_not_explode() {
        let data: Vec<u8> = (0u32..20_000).map(|i| (i % 256) as u8).collect();
        let c = round_trip(&data);
        assert!(c.len() <= data.len() + 256);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0u16..256).map(|b| b as u8).collect::<Vec<_>>().repeat(8);
        round_trip(&data);
    }

    #[test]
    fn pathological_frequencies_respect_cap() {
        // Fibonacci-ish frequencies force deep trees; lengths must cap at
        // MAX_BITS and stay decodable.
        let mut data = Vec::new();
        let mut f = (1u64, 1u64);
        for s in 0..40u8 {
            for _ in 0..f.0.min(100_000) {
                data.push(s);
            }
            f = (f.1, f.0 + f.1);
        }
        let mut freqs = [0u64; 256];
        for &b in &data {
            freqs[b as usize] += 1;
        }
        let lengths = code_lengths(&freqs);
        assert!(lengths.iter().all(|&l| l as usize <= MAX_BITS));
        // Kraft equality/inequality must hold.
        let kraft: u64 =
            lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (MAX_BITS - l as usize)).sum();
        assert!(kraft <= 1 << MAX_BITS, "Kraft violated: {kraft}");
        round_trip(&data);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freqs = [0u64; 256];
        for (s, f) in freqs.iter_mut().enumerate() {
            *f = (s as u64 % 17) + 1;
        }
        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths);
        for a in 0..256 {
            for b in 0..256 {
                if a == b {
                    continue;
                }
                let (ca, la) = codes[a];
                let (cb, lb) = codes[b];
                if la == 0 || lb == 0 || la > lb {
                    continue;
                }
                // ca must not be a prefix of cb.
                assert_ne!(cb >> (lb - la), ca, "code {a} is a prefix of {b}");
            }
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let c = compress(b"some content worth compressing, repeated a bit, repeated a bit");
        for cut in 0..c.len() {
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bitio_round_trip() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0b1, 1);
        w.put(0xABCD, 16);
        let bits_written = w.bit_len();
        assert_eq!(bits_written, 20);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut val = 0u64;
        for _ in 0..20 {
            val = (val << 1) | r.bit().unwrap() as u64;
        }
        assert_eq!(val, (0b101 << 17) | (0b1 << 16) | 0xABCD);
    }
}
