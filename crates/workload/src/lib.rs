//! # fractal-workload
//!
//! Deterministic synthetic workload matching the paper's experimental
//! content (§4.2): "a set of 75 Web pages with the average size of about
//! 135KB consisting of 5KB text and four images totalling about 130KB,
//! which is inspired by a typical example of a medical application server
//! that holds four images of different 3D views".
//!
//! * [`text`] — Zipf-distributed English-like markup (compressible, the
//!   regime where Gzip shines);
//! * [`image`] — DICOM-like 16-bit grayscale renderings of a smooth 3-D
//!   field (the medical-imaging workload of reference \[29\]);
//! * [`burst`] — self-similar bursty arrival schedules (beta-multiplier
//!   multiplicative cascade over a dyadic tree);
//! * [`mutate`] — version evolution: *in-place* pixel edits (Bitmap's best
//!   case), *insertions/deletions* in text (vary-sized blocking's best
//!   case), and fresh-content churn (Gzip/Direct's case);
//! * [`pages`] — assembling pages and version chains.
//!
//! Everything is seeded and reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod image;
pub mod mutate;
pub mod pages;
pub mod text;

pub use burst::BurstCascade;
pub use pages::{Page, PageSet};
