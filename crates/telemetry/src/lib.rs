//! fractal-telemetry — deterministic tracing + metrics for the Fractal
//! stack.
//!
//! The paper's argument is quantitative: Eq. 1–3 price PAD deployment and
//! Figs. 9–11 compare negotiation/adaptation latencies, so the repo needs
//! to *measure* where cycles go, not guess. This crate provides:
//!
//! - [`metrics`] — atomic [`Counter`]s, [`Gauge`]s, and log2-bucketed
//!   [`Histogram`](metrics::Histogram)s with lock-free recording and
//!   associative, deterministic snapshot merge;
//! - [`registry`] — a sharded `&self` name→handle map, snapshots rendered
//!   as a Prometheus text page (the bench crate builds its `BENCH_*.json`
//!   members from the snapshot's public maps);
//! - [`journal`] — the flight recorder: per-shard bounded ring-buffer
//!   event journals with a deterministic, associative snapshot merge
//!   and a per-session `tail` query;
//! - [`clock`] — the pluggable time sources: real monotonic time in
//!   benches, a deterministic [`VirtualClock`] in tests so traces come out
//!   byte-identical at any thread count.
//!
//! # One build configuration
//!
//! Recording is always on: the crate-root `Counter`, `Gauge`,
//! `Histogram` and `Telemetry` *are* the types from [`metrics`] and
//! [`registry`], there is no cargo feature and no no-op variant, so every
//! build — tier-1, `check.sh`, CI, `benchmark/` — runs the same
//! instrumented code and every reconciliation test asserts in it.
//! DESIGN.md §4.9 records the measurement that retired the gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod journal;
pub mod metrics;
pub mod registry;

pub use clock::{Clock, MonotonicClock, NullClock, SharedClock, VirtualClock};
pub use journal::{Event, Journal, JournalSnapshot, KindId, SessionJournal};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{Registry, Snapshot, Telemetry};
