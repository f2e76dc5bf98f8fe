//! [`ReactorConfig`]: every reactor knob in one builder.

#[cfg(unix)]
use std::sync::Arc;

/// Every reactor knob in one builder, shared by [`Reactor`](super::Reactor) and
/// [`ShardedReactor`](crate::shard::ShardedReactor) — new knobs land here
/// once instead of multiplying `with_*` constructors on both drivers.
///
/// A driver reads the knobs that apply to it and ignores the rest:
///
/// | knob | `Reactor` | `ShardedReactor` |
/// |---|---|---|
/// | [`frame_checksums`](Self::frame_checksums) | ✓ | ✓ (every shard) |
/// | [`telemetry`](Self::telemetry) | ✓ (registry, phase clock, journal) | — (per-shard bundles) |
/// | [`stall_timeout`](Self::stall_timeout) | — (simulated-clock stall protocol) | ✓ |
/// | [`virtual_time`](Self::virtual_time) | — (a bundle on a `VirtualClock`) | ✓ |
/// | [`journal_capacity`](Self::journal_capacity) | — (`Telemetry::with_journal`) | ✓ |
/// | [`introspect`](Self::introspect) | — | ✓ |
///
/// The transport is not a knob: [`Reactor::spawn`](super::Reactor::spawn)
/// builds an untimed loopback pair, and a session that wants a link, a
/// window or a fault plan brings its own pair to
/// [`Reactor::spawn_on`](super::Reactor::spawn_on).
#[derive(Clone, Default)]
pub struct ReactorConfig {
    pub(crate) frame_checksums: bool,
    pub(crate) telemetry: Option<fractal_telemetry::Telemetry>,
    pub(crate) stall_timeout: Option<std::time::Duration>,
    pub(crate) virtual_tick: Option<u64>,
    pub(crate) journal_capacity: Option<usize>,
    #[cfg(unix)]
    pub(crate) introspect: Option<Arc<crate::introspect::IntrospectSource>>,
}

impl ReactorConfig {
    /// All defaults: unchecked framing, the process-global telemetry
    /// bundle (monotonic clock, no journal), no introspection.
    pub fn new() -> ReactorConfig {
        ReactorConfig::default()
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

    /// Rebinds the reactor to an explicit telemetry bundle (default: the
    /// process-global one). The reactor records its metrics to the
    /// bundle's registry and times phases on the bundle's clock (tests
    /// use a [`VirtualClock`](fractal_telemetry::VirtualClock) so timings
    /// are a pure function of event order). When the bundle carries a
    /// flight recorder
    /// ([`Telemetry::with_journal`](fractal_telemetry::Telemetry::with_journal)),
    /// every session journals its phase transitions, handoffs, dropped
    /// frames (`drop:dup`, `drop:stale`), and stall marks under its label
    /// ([`InpSession::with_label`](super::InpSession::with_label), slot id
    /// by default), and stall reports carry the last few causal events per
    /// stuck session.
    pub fn telemetry(mut self, bundle: &fractal_telemetry::Telemetry) -> ReactorConfig {
        self.telemetry = Some(bundle.clone());
        self
    }

    /// Replaces the consecutive-quiet time after which a sharded driver
    /// with live sessions reports them stuck (default 5 s).
    pub fn stall_timeout(mut self, timeout: std::time::Duration) -> ReactorConfig {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Puts every shard's bundle — registry, phase clock *and* journal —
    /// on its own [`VirtualClock`](fractal_telemetry::VirtualClock)
    /// starting at 0 and advancing `tick` ns per reading, instead of real
    /// monotonic time. With `tick == 0` the timeline is pinned: every
    /// recorded timestamp and phase duration is identical, so the merged
    /// journal and registry become pure functions of the per-session
    /// event streams — byte-identical at any shard count, but for the
    /// summed `fractal_reactor_peak_in_flight` gauge, which measures how
    /// far each shard's sessions overlapped.
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
    /// shard's bundle (registry + journal) is attached before the shards
    /// spawn (so `/metrics` sees the run mid-flight), retired when they
    /// join, and stall diagnostics are pushed to `/stalls` as they
    /// surface.
    #[cfg(unix)]
    pub fn introspect(mut self, source: Arc<crate::introspect::IntrospectSource>) -> ReactorConfig {
        self.introspect = Some(source);
        self
    }
}
