//! The weak 32-bit rolling checksum used by the fixed-block (rsync-style)
//! protocol: the classic two-component sum that admits O(1) rolling.

/// Computes the weak checksum of `data` from scratch: with `n = data.len()`,
/// `a = Σ xᵢ` and `b = Σ (n − i)·xᵢ`, both mod 2³², packed as
/// `(a & 0xFFFF) | b << 16`.
///
/// The bytes are taken 16 at a time, one lane per position in the chunk:
/// each lane keeps its byte sum and the running prefix of that sum, which
/// the compiler keeps in vector registers. Since `b = n·a − Σ i·xᵢ`, and
/// over `C` whole chunks `Σ i·xᵢ = 16·(C·a − Σ prefixes) + Σ j·lane_sum[j]`,
/// the lanes fold to the byte-at-a-time sums exactly: every step wraps mod
/// 2³², so the order of the additions does not matter.
pub fn weak_sum(data: &[u8]) -> u32 {
    const LANES: usize = 16;
    let mut sums = [0u32; LANES];
    let mut prefixes = [0u32; LANES];
    let chunks = data.chunks_exact(LANES);
    let tail = chunks.remainder();
    let whole = chunks.len() as u32;
    for chunk in chunks {
        for ((sum, prefix), &byte) in sums.iter_mut().zip(prefixes.iter_mut()).zip(chunk) {
            *sum = sum.wrapping_add(byte as u32);
            *prefix = prefix.wrapping_add(*sum);
        }
    }
    let mut a: u32 = 0;
    let mut prefix_total: u32 = 0;
    let mut lane_weighted: u32 = 0;
    for (j, (&sum, &prefix)) in sums.iter().zip(&prefixes).enumerate() {
        a = a.wrapping_add(sum);
        prefix_total = prefix_total.wrapping_add(prefix);
        lane_weighted = lane_weighted.wrapping_add((j as u32).wrapping_mul(sum));
    }
    // Σ i·xᵢ over the whole chunks, then over the tail.
    let mut weighted = (LANES as u32)
        .wrapping_mul(whole.wrapping_mul(a).wrapping_sub(prefix_total))
        .wrapping_add(lane_weighted);
    let mut i = whole.wrapping_mul(LANES as u32);
    for &byte in tail {
        a = a.wrapping_add(byte as u32);
        weighted = weighted.wrapping_add(i.wrapping_mul(byte as u32));
        i = i.wrapping_add(1);
    }
    let b = (data.len() as u32).wrapping_mul(a).wrapping_sub(weighted);
    (a & 0xFFFF) | (b << 16)
}

/// Rolls [`weak_sum`] one byte forward: removes `out`, appends `inc`, for a
/// window of length `len`.
pub fn weak_sum_roll(sum: u32, out: u8, inc: u8, len: usize) -> u32 {
    let a = sum & 0xFFFF;
    let b = sum >> 16;
    let a2 = a.wrapping_sub(out as u32).wrapping_add(inc as u32) & 0xFFFF;
    let b2 = b.wrapping_sub(len as u32 * out as u32).wrapping_add(a2);
    (a2 & 0xFFFF) | (b2 << 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition the lane kernel must equal.
    fn reference_weak_sum(data: &[u8]) -> u32 {
        let mut a: u32 = 0;
        let mut b: u32 = 0;
        for (i, &byte) in data.iter().enumerate() {
            a = a.wrapping_add(byte as u32);
            b = b.wrapping_add((data.len() - i) as u32 * byte as u32);
        }
        (a & 0xFFFF) | (b << 16)
    }

    /// A xorshift stream: the test needs varied bytes and lengths, not a
    /// generator crate.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn the_lane_kernel_equals_the_byte_at_a_time_sum() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..140_000).map(|_| xorshift(&mut state) as u8).collect();
        for n in 0..=80 {
            assert_eq!(weak_sum(&data[..n]), reference_weak_sum(&data[..n]), "length {n}");
        }
        for _ in 0..64 {
            let n = xorshift(&mut state) as usize % (data.len() + 1);
            let at = xorshift(&mut state) as usize % (data.len() - n + 1);
            let slice = &data[at..at + n];
            assert_eq!(weak_sum(slice), reference_weak_sum(slice), "length {n} at {at}");
        }
        // All-0xFF bytes make every sum as large as it gets: the widest wrap.
        let ones = vec![0xFFu8; 140_000];
        for n in [15, 16, 17, 1_000, 65_537, 140_000] {
            assert_eq!(weak_sum(&ones[..n]), reference_weak_sum(&ones[..n]), "0xFF × {n}");
        }
    }

    #[test]
    fn weak_sum_basics() {
        assert_eq!(weak_sum(&[]), 0);
        assert_ne!(weak_sum(b"abc"), weak_sum(b"acb"), "order sensitive");
        assert_eq!(weak_sum(b"abc"), weak_sum(b"abc"));
    }

    #[test]
    fn weak_sum_rolls_correctly() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 31 + 7) as u8).collect();
        let w = 32usize;
        let mut s = weak_sum(&data[..w]);
        for start in 1..data.len() - w {
            s = weak_sum_roll(s, data[start - 1], data[start + w - 1], w);
            assert_eq!(s, weak_sum(&data[start..start + w]), "window at {start}");
        }
    }

    #[test]
    fn rolling_over_extreme_bytes() {
        let data = [0u8, 255, 0, 255, 255, 0, 1, 254, 3];
        let w = 4usize;
        let mut s = weak_sum(&data[..w]);
        for start in 1..=data.len() - w {
            s = weak_sum_roll(s, data[start - 1], data[start + w - 1], w);
            assert_eq!(s, weak_sum(&data[start..start + w]));
        }
    }
}
