//! What a reactor run reports: the progress summary, per-session wire
//! milestones, and the typed stall diagnostic.

use fractal_telemetry::journal::Event;
use fractal_telemetry::Snapshot;

use super::SessionId;

/// Progress summary of a completed [`Reactor::run`](super::Reactor::run).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReactorReport {
    /// Sessions that reached `Done`.
    pub completed: usize,
    /// Sessions that reached `Failed`.
    pub failed: usize,
    /// Message deliveries performed.
    pub polls: u64,
    /// Maximum number of simultaneously live (non-terminal) sessions.
    pub peak_in_flight: usize,
}

impl ReactorReport {
    /// Checks that a registry snapshot tells the same story as this
    /// report: the `fractal_reactor_{completed,failed,polls}_total`
    /// counters and the `fractal_reactor_peak_in_flight` gauge must match
    /// exactly. `snap` must cover exactly the reactor(s) the report
    /// summarizes (a private bundle, or a before/after diff).
    pub fn reconcile(&self, snap: &Snapshot) -> Result<(), String> {
        let pairs = [
            ("fractal_reactor_completed_total", self.completed as u64),
            ("fractal_reactor_failed_total", self.failed as u64),
            ("fractal_reactor_polls_total", self.polls),
        ];
        for (name, want) in pairs {
            let got = snap.counters.get(name).copied().unwrap_or(0);
            if got != want {
                return Err(format!("{name} = {got}, report says {want}"));
            }
        }
        let peak = snap.gauges.get("fractal_reactor_peak_in_flight").copied().unwrap_or(0);
        if peak != self.peak_in_flight as i64 {
            return Err(format!(
                "peak_in_flight gauge = {peak}, report says {}",
                self.peak_in_flight
            ));
        }
        Ok(())
    }
}

/// One stuck session in a [`ReactorStalled`] report: which phase it died
/// in **and** where its time went on the way there, so a stall diagnostic
/// distinguishes "never got past negotiation" from "downloaded for 2 s
/// then went quiet".
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StuckSession {
    /// The stuck session.
    pub id: SessionId,
    /// The phase it was stuck in when the stall was detected.
    pub phase: &'static str,
    /// Accumulated time per visited phase (name, nanoseconds), in protocol
    /// order, including time accrued in the current phase up to stall
    /// detection. Phases never entered are omitted.
    pub phase_ns: Vec<(&'static str, u64)>,
    /// Frames still queued behind full peer windows (both directions) at
    /// stall detection: 0 means protocol-stuck (nothing left to send),
    /// nonzero means transport-starved (the wire stopped draining).
    pub queue_depth: usize,
    /// The session's last journaled events (oldest first) when a flight
    /// recorder is attached — the causal history behind the bare phase
    /// name. Empty without a journal.
    pub recent: Vec<Event>,
}

/// The reactor stopped with live sessions, no deliverable frames, and no
/// bytes in flight — the event-driven equivalent of a deadlock, reported
/// instead of spun on. Sessions merely waiting on a simulated link are
/// *not* stalls: the run loop advances their pair clocks and keeps going;
/// only protocol-stuck sessions (nothing in flight in either direction)
/// end up here.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReactorStalled {
    /// The stuck sessions, their phases, and their per-phase timings.
    pub stuck: Vec<StuckSession>,
}

impl core::fmt::Display for ReactorStalled {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "reactor stalled with {} live session(s):", self.stuck.len())?;
        for s in &self.stuck {
            write!(f, " #{}@{} q={} [", s.id, s.phase, s.queue_depth)?;
            for (i, (name, ns)) in s.phase_ns.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{name}={ns}ns")?;
            }
            write!(f, "]")?;
            if !s.recent.is_empty() {
                write!(f, " last:")?;
                for e in &s.recent {
                    write!(f, " {}", e.kind)?;
                }
            }
        }
        Ok(())
    }
}

impl std::error::Error for ReactorStalled {}

/// Wire-clock milestones of one session, in the pair's simulated
/// microseconds (always 0 over the untimed loopback): when negotiation
/// ended (the session left `PathSearch`) and when the session reached a
/// terminal phase. This is what the throughput harness's per-link
/// negotiation-time rows report.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TransportTimes {
    /// Pair time when the session left `PathSearch` (negotiation done);
    /// `None` if it never entered or never left that phase (warm fast
    /// path, early failure).
    pub negotiated_us: Option<u64>,
    /// Pair time when the session reached `Done`/`Failed`.
    pub done_us: Option<u64>,
}
