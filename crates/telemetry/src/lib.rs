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
//!   as a Prometheus text page or as JSON for embedding in `BENCH_*.json`;
//! - [`journal`] — the flight recorder: per-shard bounded ring-buffer
//!   event journals with a deterministic, associative snapshot merge
//!   and a per-session `tail` query;
//! - [`clock`] — the pluggable time sources: real monotonic time in
//!   benches, a deterministic [`VirtualClock`] in tests so traces come out
//!   byte-identical at any thread count.
//!
//! # Feature gating
//!
//! The crate root re-exports *handle* types (`Counter`, `Gauge`,
//! `Histogram`, `Telemetry`) that are the real implementations when the
//! `enabled` feature is on and zero-sized no-ops when it is off.
//! Consumers instrument unconditionally; a disabled build compiles every
//! recording call to nothing (no dynamic dispatch, no branches — the
//! cheapest possible "off"). The real modules are always compiled and
//! tested either way, and plain-data types (snapshots, clocks, journals)
//! are never gated, so diagnostics like stalled-session phase timings
//! work in every build.
//!
//! Sites that must skip *work* (e.g. computing a delta before recording
//! it) can branch on [`enabled()`], a `const fn` the optimizer folds away.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod journal;
pub mod metrics;
#[cfg(not(feature = "enabled"))]
mod noop;
pub mod registry;

pub use clock::{Clock, MonotonicClock, NullClock, SharedClock, VirtualClock};
pub use journal::{Event, Journal, JournalSnapshot, KindId, SessionJournal};
pub use metrics::HistogramSnapshot;
pub use registry::{Registry, Snapshot};

/// Whether this build records telemetry. `const`, so `if
/// fractal_telemetry::enabled() { … }` costs nothing when off.
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
pub use metrics::{Counter, Gauge, Histogram};
#[cfg(feature = "enabled")]
pub use registry::Telemetry;

#[cfg(not(feature = "enabled"))]
pub use noop::{Counter, Gauge, Histogram, Telemetry};
