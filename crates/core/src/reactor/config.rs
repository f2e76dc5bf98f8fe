//! [`ReactorConfig`]: every reactor knob in one builder.

use std::sync::Arc;

use fractal_telemetry::journal::Journal;
use fractal_telemetry::SharedClock;

use crate::transport::TransportProfile;

/// Every reactor knob in one builder, shared by [`Reactor`](super::Reactor) and
/// [`ShardedReactor`](crate::shard::ShardedReactor) — new knobs land here
/// once instead of multiplying `with_*` constructors on both drivers.
///
/// A driver reads the knobs that apply to it and ignores the rest:
///
/// | knob | `Reactor` | `ShardedReactor` |
/// |---|---|---|
/// | [`transport`](Self::transport) | pair builder for `spawn` | — (pairs come from the acceptor) |
/// | [`frame_checksums`](Self::frame_checksums) | ✓ | ✓ (every shard) |
/// | [`clock`](Self::clock) | ✓ | — (see `virtual_time`) |
/// | [`telemetry`](Self::telemetry) | ✓ | — (per-shard registries) |
/// | [`journal`](Self::journal) | ✓ | — (per-shard journals) |
/// | [`stall_timeout`](Self::stall_timeout) | — (simulated-clock stall protocol) | ✓ |
/// | [`virtual_time`](Self::virtual_time) | — (use `clock`) | ✓ |
/// | [`journal_capacity`](Self::journal_capacity) | — (use `journal`) | ✓ |
/// | [`introspect`](Self::introspect) | — | ✓ |
#[derive(Default)]
pub struct ReactorConfig {
    pub(crate) transport: TransportProfile,
    pub(crate) frame_checksums: bool,
    pub(crate) clock: Option<SharedClock>,
    pub(crate) telemetry: Option<fractal_telemetry::Telemetry>,
    pub(crate) journal: Option<Arc<Journal>>,
    pub(crate) stall_timeout: Option<std::time::Duration>,
    pub(crate) virtual_tick: Option<u64>,
    pub(crate) journal_capacity: Option<usize>,
    #[cfg(unix)]
    pub(crate) introspect: Option<Arc<crate::introspect::IntrospectSource>>,
}

impl ReactorConfig {
    /// All defaults: loopback transport, unchecked framing, monotonic
    /// clock, process-global telemetry, no journal/introspection.
    pub fn new() -> ReactorConfig {
        ReactorConfig::default()
    }

    /// Replaces the transport profile used by
    /// [`Reactor::spawn`](super::Reactor::spawn) — e.g.
    /// `LinkKind::Bluetooth` to put every session behind a simulated
    /// Bluetooth link.
    pub fn transport(mut self, profile: impl Into<TransportProfile>) -> ReactorConfig {
        self.transport = profile.into();
        self
    }

    /// Turns on checked framing for every pair the driver runs: each
    /// frame carries a weak-sum trailer, and a frame corrupted in flight
    /// fails its session with a typed
    /// [`FrameError::Corrupt`](crate::transport::FrameError::Corrupt)
    /// instead of being silently decoded. The adversity scenarios run
    /// with this on whenever corruption faults are injected.
    pub fn frame_checksums(mut self) -> ReactorConfig {
        self.frame_checksums = true;
        self
    }

    /// Replaces the per-phase accounting clock (tests use a
    /// [`VirtualClock`](fractal_telemetry::VirtualClock) so timings are a
    /// pure function of event order).
    pub fn clock(mut self, clock: SharedClock) -> ReactorConfig {
        self.clock = Some(clock);
        self
    }

    /// Rebinds the reactor's metrics to an explicit telemetry bundle
    /// (default: the process-global one).
    pub fn telemetry(mut self, bundle: &fractal_telemetry::Telemetry) -> ReactorConfig {
        self.telemetry = Some(bundle.clone());
        self
    }

    /// Attaches a flight recorder: every session journals its phase
    /// transitions, handoffs, tolerated stale drops, and stall marks
    /// under its label ([`InpSession::with_label`](super::InpSession::with_label), slot id by default).
    /// Stall reports then carry the last few causal
    /// events per stuck session.
    pub fn journal(mut self, journal: Arc<Journal>) -> ReactorConfig {
        self.journal = Some(journal);
        self
    }

    /// Replaces the consecutive-quiet time after which a sharded driver
    /// with live sessions reports them stuck (default 5 s).
    pub fn stall_timeout(mut self, timeout: std::time::Duration) -> ReactorConfig {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Puts every shard's telemetry *and* journal on its own
    /// [`VirtualClock`](fractal_telemetry::VirtualClock) starting at 0
    /// and advancing `tick` ns per reading, instead of real monotonic
    /// time. With `tick == 0` the timeline is pinned: every recorded
    /// timestamp is identical, so the merged journal becomes a pure
    /// function of the per-session event streams — byte-identical at any
    /// shard count.
    pub fn virtual_time(mut self, tick: u64) -> ReactorConfig {
        self.virtual_tick = Some(tick);
        self
    }

    /// Replaces each shard's flight-recorder ring capacity (default
    /// [`DEFAULT_JOURNAL_CAPACITY`](fractal_telemetry::journal::DEFAULT_JOURNAL_CAPACITY);
    /// rounded up to a power of two).
    pub fn journal_capacity(mut self, capacity: usize) -> ReactorConfig {
        self.journal_capacity = Some(capacity);
        self
    }

    /// Publishes a sharded run to a live introspection plane: every
    /// shard's registry + journal is attached before the shards spawn (so
    /// `/metrics` sees the run mid-flight), retired when they join, and
    /// stall diagnostics are pushed to `/stalls` as they surface.
    #[cfg(unix)]
    pub fn introspect(mut self, source: Arc<crate::introspect::IntrospectSource>) -> ReactorConfig {
        self.introspect = Some(source);
        self
    }
}
