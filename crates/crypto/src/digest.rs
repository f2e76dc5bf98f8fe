//! The 160-bit digest value type shared across the framework.

use crate::hex;

/// A 160-bit (20-byte) SHA-1 digest.
///
/// Used as the integrity check in `PADMeta` (paper Figure 3), as the chunk
/// identifier in the differencing protocols, and as the content address in
/// the CDN substrate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// The all-zero digest, used as a placeholder before computation.
    pub const ZERO: Digest = Digest([0u8; 20]);

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Lowercase hex rendering (40 chars).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }

    /// Parses a 40-char hex string.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let bytes = hex::decode(s)?;
        let arr: [u8; 20] = bytes.try_into().ok()?;
        Some(Digest(arr))
    }

    /// A short (8 hex char) prefix for human-readable logs.
    pub fn short(&self) -> String {
        hex::encode(&self.0[..4])
    }
}

impl core::fmt::Debug for Digest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl core::fmt::Display for Digest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 20]> for Digest {
    fn from(b: [u8; 20]) -> Self {
        Digest(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::sha1;

    #[test]
    fn hex_round_trip() {
        let d = sha1(b"round trip");
        let s = d.to_hex();
        assert_eq!(s.len(), 40);
        assert_eq!(Digest::from_hex(&s), Some(d));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex("abcd"), None); // too short
        let long = "a".repeat(42);
        assert_eq!(Digest::from_hex(&long), None); // too long
    }

    #[test]
    fn short_is_prefix() {
        let d = sha1(b"prefix");
        assert!(d.to_hex().starts_with(&d.short()));
        assert_eq!(d.short().len(), 8);
    }

    #[test]
    fn display_matches_to_hex() {
        let d = sha1(b"display");
        assert_eq!(format!("{d}"), d.to_hex());
    }
}
