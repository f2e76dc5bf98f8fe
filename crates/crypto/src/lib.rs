//! # fractal-crypto
//!
//! Digest and code-signing substrate for the Fractal framework.
//!
//! The Fractal paper (§3.2, §3.5) relies on two cryptographic services:
//!
//! * **Message digests** — every protocol adaptor (PAD) carries a SHA-1
//!   digest in its `PADMeta` so clients can verify the integrity of mobile
//!   code downloaded from untrusted CDN edge servers. [`sha1`] is a
//!   from-scratch FIPS 180-1 implementation.
//! * **Code signing** — clients keep a list of trusted signing entities and
//!   reject PADs whose signature does not verify against that list.
//!   [`sign`] implements this with HMAC-SHA1 and a signer registry (see
//!   DESIGN.md for the substitution rationale versus PKI).
//!
//! The crate also hosts the rolling [Rabin fingerprint](rabin) used by the
//! vary-sized blocking protocol (LBFS-style content-defined chunking),
//! because it is a fingerprinting primitive shared by several layers.
//!
//! * **Wire reading and writing** — [`wire::Cursor`] is the one
//!   bounds-checked reader under every decoder of untrusted bytes, and
//!   [`wire::Sink`] the one writer (or byte counter) under every encoder.
//!   They live here because every decoding crate already depends on this
//!   one, and they are, like [`rabin`], non-crypto primitives it shares.
//!
//! Everything in this crate is deterministic and free of I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod digest;
pub mod hex;
pub mod hmac;
pub mod rabin;
pub mod sha1;
pub mod sign;
pub mod wire;

pub use digest::Digest;
pub use hmac::HmacSha1;
pub use sha1::Sha1;
pub use sign::{KeyId, Signature, Signer, SignerRegistry, TrustStore};
