//! Linear memory that knows what was written to it.
//!
//! An instance's memory is recycled between deployments of one admitted
//! module ([`crate::instance`]), and the next tenant must find exactly what
//! a fresh allocation holds: zeroes. Zeroing 4 MiB per deployment is what
//! recycling exists to avoid, so the memory records the span its writers
//! touched and [`LinearMemory::scrub`] zeroes that span alone. The buffer is
//! private to this module and [`LinearMemory::slice_mut`] /
//! [`LinearMemory::copy_within`] are its only mutable views — a write the
//! span misses cannot be expressed outside this file.

use core::ops::Range;

/// A zero-initialised byte array with a dirty span: every byte outside
/// `lo..hi` is zero. The default is the empty memory.
#[derive(Default)]
pub(crate) struct LinearMemory {
    bytes: Vec<u8>,
    /// Start of the dirty span; `lo >= hi` while nothing has been written.
    lo: usize,
    /// End of the dirty span.
    hi: usize,
}

impl LinearMemory {
    /// `len` zero bytes, none of them dirty.
    pub(crate) fn zeroed(len: usize) -> LinearMemory {
        LinearMemory { bytes: vec![0u8; len], lo: len, hi: 0 }
    }

    /// Size in bytes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// The whole memory, read-only.
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// `range` for writing; the span grows to cover it. Panics when `range`
    /// is not inside the memory, like the slice index it stands for: the
    /// caller has bounds-checked the access it is about to make.
    #[inline]
    pub(crate) fn slice_mut(&mut self, range: Range<usize>) -> &mut [u8] {
        self.touch(range.start, range.end);
        &mut self.bytes[range]
    }

    /// `memmove` of `src` to `dst`; the span grows to cover the destination.
    /// Panics when either end is outside the memory.
    #[inline]
    pub(crate) fn copy_within(&mut self, src: Range<usize>, dst: usize) {
        self.touch(dst, dst + src.len());
        self.bytes.copy_within(src, dst);
    }

    #[inline]
    fn touch(&mut self, start: usize, end: usize) {
        self.lo = self.lo.min(start);
        self.hi = self.hi.max(end);
    }

    /// The span writers have touched since the memory was created or last
    /// scrubbed (empty when nothing was written).
    pub(crate) fn dirty(&self) -> Range<usize> {
        self.lo.min(self.hi)..self.hi
    }

    /// Zeroes the dirty span, leaving the memory as [`LinearMemory::zeroed`]
    /// made it.
    pub(crate) fn scrub(&mut self) {
        let dirty = self.dirty();
        self.bytes[dirty].fill(0);
        (self.lo, self.hi) = (self.bytes.len(), 0);
    }

    /// Whether every byte is zero. A scan of the whole buffer (one `memcmp`
    /// of the buffer against itself shifted by a byte), for assertions.
    pub(crate) fn is_zero(&self) -> bool {
        match self.bytes.split_first() {
            Some((&first, rest)) => first == 0 && *rest == self.bytes[..rest.len()],
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_span_covers_every_write_and_scrub_zeroes_exactly_it() {
        let mut m = LinearMemory::zeroed(256);
        assert!(m.dirty().is_empty() && m.is_zero());
        m.slice_mut(100..104).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(m.dirty(), 100..104);
        m.copy_within(100..104, 10);
        assert_eq!(m.dirty(), 10..104);
        assert_eq!(&m.bytes()[10..14], &[1, 2, 3, 4]);
        m.slice_mut(200..201)[0] = 9;
        assert_eq!(m.dirty(), 10..201);
        assert!(!m.is_zero());
        m.scrub();
        assert!(m.dirty().is_empty() && m.is_zero());
        assert_eq!(m.len(), 256);
    }

    #[test]
    fn an_empty_write_keeps_the_span_consistent() {
        let mut m = LinearMemory::zeroed(64);
        m.slice_mut(40..40);
        assert!(m.dirty().is_empty());
        m.slice_mut(8..9)[0] = 1;
        // The empty write at 40 widened the span; it never narrows it.
        assert_eq!(m.dirty(), 8..40);
        m.scrub();
        assert!(m.is_zero());
    }

    #[test]
    fn is_zero_finds_a_single_stray_byte_anywhere() {
        for at in [0, 1, 31, 63] {
            let mut m = LinearMemory::zeroed(64);
            m.bytes[at] = 1;
            assert!(!m.is_zero(), "stray byte at {at}");
        }
        assert!(LinearMemory::zeroed(0).is_zero());
    }
}
