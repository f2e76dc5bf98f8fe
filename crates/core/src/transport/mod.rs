//! Byte-stream transports for the event-driven INP endpoint.
//!
//! The paper's INP (§3.3) is a wire protocol: client and adaptation proxy
//! exchange framed packets over a real link. Until this module existed the
//! [`Reactor`](crate::reactor::Reactor) handed [`InpMessage`](crate::inp::InpMessage) values around
//! by value, so nothing exercised framing, partial reads, or backpressure.
//! Here the delivery path becomes bytes end to end:
//!
//! * [`Transport`] — a non-blocking byte pipe with I/O-readiness semantics:
//!   `writable()`/`readable()` report budgets, `send`/`recv` move at most
//!   that many bytes and never block, and the simulated-time hooks
//!   (`next_ready_at`/`advance_to`) let an event loop distinguish "starved
//!   until the link delivers" from "stuck forever".
//! * [`LoopbackTransport`] — the one in-memory pipe: a capacity-bounded
//!   byte ring per direction. An untimed [`pair`](LoopbackTransport::pair)
//!   makes bytes readable the instant they are written, so reactor runs
//!   over it are exactly as deterministic as the old in-memory delivery
//!   path. A pair built [`over`](LoopbackTransport::over) a
//!   [`fractal_net::Link`] also keeps a FIFO ledger of `(ready_at, len)`
//!   per chunk: each `send` occupies the link for the chunk's
//!   serialization time at goodput `ρ × bandwidth` (Equation 3) and
//!   surfaces to the reader only after serialization plus propagation
//!   latency, on a per-pair simulated clock; a [`LinkHandoff`] reprices
//!   later sends mid-session.
//! * [`Framer`] — length-prefixed frame reassembly over the INP header
//!   (`"IN"` + generation + version + type + u24 body length), tolerant of arbitrary
//!   chunk boundaries, rejecting garbage prefixes and oversized frames.
//! * [`SendQueue`] — per-session outbound frames awaiting `writable()`
//!   budget; its depth is what the reactor's backpressure gauge reports.
//!
//! The in-memory pair is single-threaded by construction
//! (`Rc<RefCell<…>>`): a pair belongs to exactly one reactor, and reactors
//! are built inside their worker thread. Determinism therefore needs no
//! locks — byte arrival order is a pure function of the call sequence.

use crate::error::WireError;

mod framer;
mod loopback;
#[cfg(unix)]
mod tcp;

pub use framer::{Framer, SendQueue, CHECKSUM_TRAILER_LEN, MAX_FRAME_BODY};
pub use loopback::{LinkHandoff, LoopbackTransport};
#[cfg(unix)]
pub use tcp::{TcpTransport, TCP_IO_HINT};

/// Default capacity (bytes) of one direction of a transport pair. Small
/// enough that multi-kilobyte PAD frames must cross in several partial
/// writes, large enough that control messages fit in one.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Failures of the byte pipe itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportError {
    /// The pair was closed and the readable backlog is drained; no more
    /// bytes will ever move.
    Closed,
    /// The OS socket under a [`TcpTransport`] failed with a real I/O
    /// error (not `WouldBlock`/`Interrupted` — those are readiness, and
    /// not a disconnect — that is [`Closed`](Self::Closed)).
    Io(std::io::ErrorKind),
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Io(kind) => write!(f, "transport I/O error: {kind}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Failures of frame reassembly ([`Framer::next_frame`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The buffered bytes do not start with a valid INP header (wrong
    /// magic or version) — the stream is garbage and cannot be resynced.
    BadPrefix,
    /// The header declares a body longer than the framer accepts.
    Oversized {
        /// Declared body length.
        len: usize,
        /// The framer's limit.
        max: usize,
    },
    /// A complete frame failed to parse as an [`InpMessage`](crate::inp::InpMessage).
    Malformed(WireError),
    /// A checksum-trailered frame arrived with a mismatched checksum —
    /// the bytes were corrupted in flight and must not be delivered.
    Corrupt {
        /// The checksum the received bytes actually sum to.
        expected: u32,
        /// The checksum the trailer claimed.
        got: u32,
    },
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::BadPrefix => write!(f, "stream does not start with an INP header"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Malformed(e) => write!(f, "frame failed to parse: {e}"),
            FrameError::Corrupt { expected, got } => {
                write!(f, "frame checksum mismatch: bytes sum to {expected:#010x}, trailer says {got:#010x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A non-blocking byte-stream endpoint with I/O-readiness semantics.
///
/// The contract an event loop can rely on:
///
/// * `send` moves at most [`writable()`](Self::writable) bytes and returns
///   how many it took (`Ok(0)` = no budget right now, try again later);
/// * `recv` moves at most [`readable()`](Self::readable) bytes (`Ok(0)` =
///   nothing readable right now);
/// * neither ever blocks; after [`close`](Self::close), `send` returns
///   [`TransportError::Closed`], and `recv` does once the backlog —
///   readable or still in flight — is drained;
/// * when nothing is readable *now* but bytes are in flight,
///   [`next_ready_at`](Self::next_ready_at) names the earliest simulated
///   instant at which that changes, and
///   [`advance_to`](Self::advance_to) moves the pair's clock there. A
///   transport with no notion of time (an untimed loopback pair) returns
///   `None` and ignores advances — everything it will ever deliver is
///   readable already.
pub trait Transport {
    /// Bytes `send` would accept right now.
    fn writable(&self) -> usize;
    /// Bytes `recv` would yield right now.
    fn readable(&self) -> usize;
    /// Writes as much of `bytes` as fits; returns the number taken.
    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError>;
    /// Reads up to `buf.len()` readable bytes; returns the number read.
    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError>;
    /// Closes the pair (both directions, both ends).
    fn close(&mut self);
    /// Whether the pair has been closed.
    fn is_closed(&self) -> bool;
    /// The pair's current simulated time in microseconds (0 for untimed
    /// transports).
    fn now_us(&self) -> u64 {
        0
    }
    /// Earliest future simulated instant (µs) at which more bytes become
    /// readable at **this** end; `None` when nothing is in flight toward
    /// it (or the transport is untimed).
    fn next_ready_at(&self) -> Option<u64> {
        None
    }
    /// Advances the pair's simulated clock to `t_us` (never backwards).
    fn advance_to(&mut self, _t_us: u64) {}
    /// The OS file descriptor under this end, when there is one — what a
    /// [`sys::Poller`](crate::sys::Poller) registers. In-memory transports
    /// return `None` and are driven by direct readability instead.
    #[cfg(unix)]
    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        None
    }
    /// Feeds a readiness hint back into the transport: a kernel edge (what
    /// a poller learned about [`raw_fd`](Self::raw_fd)), or the reactor's
    /// own write to the peer end. It is a hint, not a promise: if the bytes
    /// have not arrived, the next `recv` costs one read that returns
    /// `Ok(0)` and clears it again. No-op for transports whose readiness is
    /// intrinsic.
    fn set_ready(&mut self, _readable: bool, _writable: bool) {}
}

/// The two ends of one bidirectional byte pipe, as the reactor registers
/// them: the session's end and the service (proxy/CDN/server) end.
pub struct TransportPair {
    /// The session's endpoint.
    pub client: Box<dyn Transport>,
    /// The service endpoint.
    pub service: Box<dyn Transport>,
}
