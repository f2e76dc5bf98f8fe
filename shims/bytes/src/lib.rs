//! Offline stand-in for the `bytes` crate.
//!
//! Provides an immutable, cheaply-cloneable byte buffer backed by
//! `Arc<Vec<u8>>` plus a `[start, end)` view, which preserves the three
//! properties the payload pipeline relies on: clones share the allocation
//! (O(1)), [`Bytes::slice`] hands out refcounted sub-views of one buffer
//! without copying — recipe literals, PAD artifacts, and page content all
//! stay slices of the buffer they were produced in — and `Bytes::from` a
//! `Vec<u8>` takes the vector's allocation over instead of copying it
//! (`Arc<[u8]>::from(Vec)` cannot: the counts sit in front of the bytes).

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply-cloneable immutable byte buffer (a refcounted `[start, end)`
/// view of a shared allocation).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view of this buffer sharing the same allocation
    /// (O(1), no copy). Panics when the range is out of bounds, matching
    /// the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice range reversed: {begin} > {end}");
        assert!(end <= len, "slice range {end} out of bounds of {len}");
        Bytes { data: Arc::clone(&self.data), start: self.start + begin, end: self.start + end }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::Bytes;

    #[test]
    fn conversions_and_deref() {
        let b: Bytes = vec![1u8, 2, 3].into();
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        let s: Bytes = (&[9u8, 8][..]).into();
        assert_eq!(s[0], 9);
        let back: Vec<u8> = b.clone().into();
        assert_eq!(back, vec![1, 2, 3]);
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v = vec![7u8; 200 * 1024];
        let before = v.as_ptr();
        let b: Bytes = v.into();
        assert_eq!(b.as_ptr(), before);
        assert_eq!(b.len(), 200 * 1024);
    }

    #[test]
    fn clones_share_storage() {
        let b: Bytes = vec![0u8; 1 << 20].into();
        let c = b.clone();
        assert_eq!(b.as_ptr(), c.as_ptr());
    }

    #[test]
    fn slices_share_storage() {
        let b: Bytes = (0u8..100).collect::<Vec<u8>>().into();
        let s = b.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(&s[..], &(10u8..20).collect::<Vec<u8>>()[..]);
        // The slice points into the parent allocation.
        assert_eq!(s.as_ptr(), b[10..].as_ptr());
        // Slices of slices compose.
        let ss = s.slice(2..=4);
        assert_eq!(&ss[..], &[12, 13, 14]);
        assert_eq!(b.slice(..).len(), 100);
        assert_eq!(b.slice(95..).len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b: Bytes = vec![0u8; 4].into();
        let _ = b.slice(2..6);
    }

    #[test]
    fn eq_and_hash_are_view_based() {
        let a: Bytes = vec![1u8, 2, 3, 1, 2, 3].into();
        let left = a.slice(0..3);
        let right = a.slice(3..6);
        assert_eq!(left, right);
        let mut set = std::collections::HashSet::new();
        set.insert(left);
        assert!(set.contains(&right));
    }
}
