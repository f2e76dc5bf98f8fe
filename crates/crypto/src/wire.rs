//! The one reader and the one writer of wire bytes: a bounds-checked
//! [`Cursor`] and a [`Sink`].
//!
//! PAD containers, INP frames and codec payloads arrive from outside the
//! trust boundary. Every decoder reads them through a `Cursor`: a read past
//! the end is [`Truncated`], never a panic, and a header-declared count
//! goes through [`Cursor::count`] before anything is reserved for it.
//!
//! Every structured encoder writes through a `Sink`: into a `Vec<u8>`, or
//! into a [`Counter`] that keeps only the number of bytes. A format's wire
//! length is its encoder run into the counter ([`counted`]), so a priced
//! length cannot drift from the bytes.

/// The input ends before a field it declares, or declares more elements
/// than its remaining bytes can carry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Truncated;

/// A read position in a byte string. A read returns what it asked for and
/// moves past it, or fails with [`Truncated`] and moves nothing.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
    /// How many bytes have been read.
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: bytes, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(Truncated)?;
        self.rest = rest;
        self.pos += n;
        Ok(head)
    }

    /// The next `N` bytes, by value: `u32::from_be_bytes(c.array()?)`
    /// reads a field of any width and byte order.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or(Truncated)?;
        self.rest = rest;
        self.pos += N;
        Ok(*head)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        self.array().map(u8::from_le_bytes)
    }

    /// The next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.array().map(f64::from_le_bytes)
    }

    /// The bytes not read yet, without moving.
    #[inline]
    pub fn remaining(&self) -> &'a [u8] {
        self.rest
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn done(&self) -> bool {
        self.rest.is_empty()
    }

    /// How many bytes have been read.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Checks a header-declared count `n` of elements of at least
    /// `min_wire_len` bytes against the bytes left (allowing one shorter
    /// last element: `n ≤ ⌈remaining / min_wire_len⌉`). Call it before
    /// reserving for `n`; a decoder whose loop must keep its own error
    /// reserves `count(n, …).unwrap_or(0)`.
    #[inline]
    pub fn count(&self, n: usize, min_wire_len: usize) -> Result<usize, Truncated> {
        if n <= self.rest.len().div_ceil(min_wire_len.max(1)) {
            Ok(n)
        } else {
            Err(Truncated)
        }
    }
}

/// Where an encoder writes: [`put`](Self::put) appends bytes, and the
/// little-endian helpers append a fixed-width field.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Appends a byte.
    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn f64(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`Sink`] that counts the bytes put into it and keeps none.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counter(usize);

impl Sink for Counter {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// How many bytes `encode` writes, counted instead of written.
pub fn counted(encode: impl FnOnce(&mut Counter)) -> usize {
    let mut counter = Counter::default();
    encode(&mut counter);
    counter.0
}
