//! # fractal-protocols
//!
//! The four communication-optimization protocols evaluated by the Fractal
//! paper's case study (§4.1), plus one related-work extension:
//!
//! | Protocol | Module | Idea |
//! |---|---|---|
//! | Direct sending | [`direct`] | no optimization; send content verbatim |
//! | Gzip | [`gzip`] | LZ77-family compression at the server, decompression at the client |
//! | Bitmap | [`bitmap`] | fixed-size block diff against the client's old version |
//! | Vary-sized blocking | [`varyblock`] | LBFS-style content-defined chunk diff (Rabin fingerprints) |
//! | Fixed-sized blocking | [`fixedblock`] | rsync-style rolling-checksum diff (related work §5, extension) |
//!
//! Each protocol is a [`DiffCodec`](crate::traits::DiffCodec#): the server encodes
//! `(old, new) → payload`, the client decodes `(old, payload) → new`. The
//! native decoders here are the *reference* implementations; the deployable
//! client-side decoders are FVM mobile-code modules in `fractal-pads` whose
//! byte-level wire formats are defined by this crate and differential-tested
//! against these references.
//!
//! All formats use little-endian integers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod deflate;
pub mod direct;
pub mod fixedblock;
pub mod gzip;
pub mod huffman;
pub mod lz77;
pub mod recipe;
pub mod traits;
pub mod varyblock;

pub use traits::{CodecError, DiffCodec, ProtocolId, Traffic};
