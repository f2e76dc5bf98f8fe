//! Rolling Rabin fingerprint over a sliding 48-byte window.
//!
//! This is the content-defined chunk boundary detector from LBFS
//! (Muthitacharoen et al., SOSP'01), which the paper's *vary-sized blocking*
//! protocol adopts: a chunk boundary is declared wherever the fingerprint of
//! the previous [`WINDOW`] bytes, reduced modulo a divisor, hits a magic
//! value. Because boundaries depend only on local content, insertions and
//! deletions shift chunk positions without invalidating the digests of
//! unrelated chunks.
//!
//! The fingerprint is a polynomial hash over GF(2^64)-style arithmetic
//! implemented as wrapping integer arithmetic with a fixed odd multiplier —
//! the standard "Rabin-Karp" rolling form. The crucial property used by the
//! chunker (O(1) slide, position independence) holds exactly.

/// Sliding window width in bytes (the paper and LBFS both use 48).
pub const WINDOW: usize = 48;

/// The polynomial base (odd, chosen once; value is arbitrary but fixed so
/// chunk boundaries are stable across versions of this crate).
const BASE: u64 = 0x0000_0100_0000_01B3; // FNV-ish prime, odd

/// `BASE^(WINDOW-1)`, the weight of the outgoing byte.
const POW_OUT: u64 = {
    let mut p = 1u64;
    let mut i = 0;
    while i < WINDOW - 1 {
        p = p.wrapping_mul(BASE);
        i += 1;
    }
    p
};

/// Precomputed `(b+1)·BASE^(WINDOW-1)` for every byte value, so sliding a
/// byte out of the window is one table lookup instead of a 64-bit multiply
/// on the chunker's per-byte hot path.
const OUT_TABLE: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = (b as u64 + 1).wrapping_mul(POW_OUT);
        b += 1;
    }
    t
};

/// Rolling hash state over the last [`WINDOW`] bytes.
#[derive(Clone)]
pub struct RollingHash {
    /// Current fingerprint value.
    hash: u64,
    /// Circular buffer of the current window contents.
    window: [u8; WINDOW],
    /// Next write position in the circular buffer.
    pos: usize,
    /// Number of bytes absorbed so far (saturates at WINDOW).
    filled: usize,
}

impl Default for RollingHash {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for RollingHash {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RollingHash")
            .field("hash", &self.hash)
            .field("filled", &self.filled)
            .finish()
    }
}

impl RollingHash {
    /// Creates an empty window.
    pub fn new() -> Self {
        RollingHash { hash: 0, window: [0; WINDOW], pos: 0, filled: 0 }
    }

    /// Slides one byte into the window (and the oldest byte out once the
    /// window is full). Returns the new fingerprint.
    ///
    /// The steady-state cost is two table lookups (the circular window and
    /// `OUT_TABLE`) plus the shift-and-add — the outgoing byte's weight
    /// `(b+1)·BASE^(W-1)` is precomputed at compile time.
    pub fn roll(&mut self, byte: u8) -> u64 {
        if self.filled == WINDOW {
            let outgoing = self.window[self.pos];
            // Remove outgoing's weight, shift, add incoming.
            self.hash = self.hash.wrapping_sub(OUT_TABLE[outgoing as usize]);
        } else {
            self.filled += 1;
        }
        self.hash = self.hash.wrapping_mul(BASE).wrapping_add(byte as u64 + 1);
        self.window[self.pos] = byte;
        self.pos += 1;
        if self.pos == WINDOW {
            self.pos = 0;
        }
        self.hash
    }

    /// Current fingerprint value.
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// True once a full window has been absorbed; boundary tests before this
    /// point are not meaningful.
    pub fn is_warm(&self) -> bool {
        self.filled == WINDOW
    }

    /// Resets to the empty-window state (used after emitting a chunk so the
    /// next boundary decision does not straddle the previous chunk).
    pub fn reset(&mut self) {
        self.hash = 0;
        self.pos = 0;
        self.filled = 0;
    }
}

/// Computes the fingerprint of exactly one window worth of bytes from
/// scratch. Used by tests to validate the rolling form.
pub fn fingerprint(window: &[u8]) -> u64 {
    assert!(window.len() <= WINDOW);
    let mut h = 0u64;
    for &b in window {
        h = h.wrapping_mul(BASE).wrapping_add(b as u64 + 1);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_matches_scratch_on_every_window() {
        let data: Vec<u8> = (0..500u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let mut rh = RollingHash::new();
        for (i, &b) in data.iter().enumerate() {
            let v = rh.roll(b);
            if i + 1 >= WINDOW {
                let start = i + 1 - WINDOW;
                assert_eq!(v, fingerprint(&data[start..=i]), "window ending at {i}");
            }
        }
    }

    #[test]
    fn position_independence() {
        // The same 48 bytes produce the same fingerprint regardless of what
        // preceded them — the property that makes chunking shift-resistant.
        let window = [7u8; WINDOW];
        let mut a = RollingHash::new();
        for &b in window.iter() {
            a.roll(b);
        }
        let mut b = RollingHash::new();
        for &x in [1u8, 2, 3, 4, 5].iter() {
            b.roll(x);
        }
        for &x in window.iter() {
            b.roll(x);
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn warm_flag() {
        let mut rh = RollingHash::new();
        for i in 0..WINDOW - 1 {
            rh.roll(i as u8);
            assert!(!rh.is_warm());
        }
        rh.roll(0);
        assert!(rh.is_warm());
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut rh = RollingHash::new();
        for i in 0..100u8 {
            rh.roll(i);
        }
        rh.reset();
        assert!(!rh.is_warm());
        // After reset, behaves like new.
        let mut fresh = RollingHash::new();
        for i in 0..10u8 {
            assert_eq!(rh.roll(i), fresh.roll(i));
        }
    }

    #[test]
    fn out_table_matches_definition() {
        // OUT_TABLE[b] must equal (b+1)·BASE^(WINDOW−1) computed the slow way.
        let mut pow_out = 1u64;
        for _ in 0..WINDOW - 1 {
            pow_out = pow_out.wrapping_mul(BASE);
        }
        for b in 0..=255u64 {
            assert_eq!(OUT_TABLE[b as usize], (b + 1).wrapping_mul(pow_out), "byte {b}");
        }
    }

    #[test]
    fn zero_byte_contributes() {
        // The +1 in the polynomial ensures runs of zeros still roll.
        let mut rh = RollingHash::new();
        let mut last = 0;
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..WINDOW {
            last = rh.roll(0);
            distinct.insert(last);
        }
        assert!(distinct.len() > 1, "zero bytes must change the hash");
        let _ = last;
    }
}
