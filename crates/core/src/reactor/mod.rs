//! Event-driven INP: one sans-IO protocol core, multiplexed by a
//! poll-based reactor over byte-stream transports.
//!
//! The paper's Figure 4 exchange is implemented once, as events, in two
//! layers:
//!
//! * **The core** (`session.rs`, `service.rs`) is messages in, messages
//!   out — no transports, no time source. [`InpSession`] is the client
//!   half: one negotiation/session as a state machine (`Init →
//!   MetaExchange → PathSearch → PadDownload → Sessioning →
//!   Done`/`Failed`). [`InpService`] is the other half: the proxy, PAD
//!   repository and application server behind one `on_message`, with a
//!   per-connection [`ServiceConn`] enforcing Figure 4's order. Neither
//!   blocks and neither panics on hostile input — every (state, message)
//!   pair either advances or returns a typed [`SessionError`].
//! * **The driver** (this file) is [`Reactor`]: it owns the transports,
//!   framers, send queues and the accounting clock, and multiplexes many
//!   in-flight sessions over **one shared** `&AdaptationProxy` +
//!   `&ApplicationServer` + `&PadRepo` trio. Each session registers a
//!   [`Transport`] pair at spawn; every poll flushes the session's pending
//!   frames subject to the peer's `writable()` budget, drains whatever
//!   bytes the wire has made readable, hands the service-side frames to
//!   the [`InpService`], and delivers **one** reassembled frame to the
//!   session — so with N live sessions the reactor round-robins between
//!   them and session 63 negotiates while session 0 is mid-download. No
//!   threads, no async runtime: a plain readiness loop a caller can drive,
//!   stop, or fan out (one reactor per worker thread — all workers sharing
//!   the same server and proxy, which both serve through `&self`;
//!   [`ShardedReactor`](crate::shard::ShardedReactor) is that driver over
//!   kernel sockets). The third driver,
//!   [`run_session`](crate::session::run_session), runs one session to
//!   completion with no transport at all and prices each message on a
//!   link model — the figure harness.
//!
//! Frames that don't fit the peer's window queue per session (their depth
//! is the `fractal_transport_queue_depth` gauge); over a
//! [`SimLinkTransport`](crate::transport::SimLinkTransport) the run loop
//! advances the pair's simulated clock to the next delivery instant when
//! every live session is transport-starved. Only when no session has
//! bytes in flight *and* none has deliverable work does the reactor
//! report [`ReactorStalled`] — distinguishing protocol-stuck from
//! transport-starved is what keeps the CI smoke gate's timeout wrapper an
//! actual deadlock detector.

use std::collections::VecDeque;
use std::sync::Arc;

use fractal_telemetry::journal::{Journal, KindId, SessionJournal};
use fractal_telemetry::{MonotonicClock, SharedClock};

use crate::error::InpError;
use crate::inp::InpMessage;
use crate::meta::NtwkMeta;
use crate::proxy::AdaptationProxy;
use crate::server::ApplicationServer;
use crate::session::PadRepo;
use crate::transport::{
    Framer, SendQueue, Transport, TransportError, TransportPair, TransportProfile,
};

mod config;
mod report;
mod service;
mod session;
#[cfg(test)]
mod tests;

pub use config::ReactorConfig;
pub use report::{ReactorReport, ReactorStalled, StuckSession, TransportTimes};
pub use service::{InpService, ServiceConn};
pub use session::{decode_app_payload, encode_app_payload, InpSession, SessionError, SessionPhase};

/// Identifier of a session inside one reactor.
pub type SessionId = usize;

/// The five timed phases' histogram names, indexed by
/// [`SessionPhase::index`].
pub const PHASE_METRICS: [&str; SessionPhase::TIMED] = [
    "fractal_inp_phase_ns_init",
    "fractal_inp_phase_ns_meta_exchange",
    "fractal_inp_phase_ns_path_search",
    "fractal_inp_phase_ns_pad_download",
    "fractal_inp_phase_ns_sessioning",
];

/// Name of the backpressure gauge: frames queued per session awaiting
/// `writable()` budget, summed over the reactor's live sessions.
pub const TRANSPORT_QUEUE_METRIC: &str = "fractal_transport_queue_depth";

/// Pre-bound reactor metrics: per-phase latency histograms plus the
/// [`ReactorReport`] counters, so the registry is the single source of
/// truth for what the report struct summarizes
/// ([`ReactorReport::reconcile`] checks exactly that).
struct ReactorTelemetry {
    phase_ns: [fractal_telemetry::Histogram; SessionPhase::TIMED],
    completed: fractal_telemetry::Counter,
    failed: fractal_telemetry::Counter,
    polls: fractal_telemetry::Counter,
    peak_in_flight: fractal_telemetry::Gauge,
    /// Outbound frames queued behind full peer windows, reactor-wide.
    queue_depth: fractal_telemetry::Gauge,
}

impl ReactorTelemetry {
    fn bind(bundle: &fractal_telemetry::Telemetry) -> ReactorTelemetry {
        ReactorTelemetry {
            phase_ns: PHASE_METRICS.map(|name| bundle.histogram(name)),
            completed: bundle.counter("fractal_reactor_completed_total"),
            failed: bundle.counter("fractal_reactor_failed_total"),
            polls: bundle.counter("fractal_reactor_polls_total"),
            peak_in_flight: bundle.gauge("fractal_reactor_peak_in_flight"),
            queue_depth: bundle.gauge(TRANSPORT_QUEUE_METRIC),
        }
    }
}

/// Events of causal history a stall report carries per stuck session.
const STALL_TAIL_EVENTS: usize = 8;

/// Pre-bound flight-recorder kind ids — one interning pass when the
/// journal is attached, so the recording path never touches the label
/// table.
struct JournalKinds {
    /// `phase:<name>` per [`SessionPhase::index`].
    phases: [KindId; SessionPhase::ALL.len()],
    /// `handoff` — a mid-session mobility renegotiation.
    handoff: KindId,
    /// `stale:drop` — a tolerated post-handoff stale delivery.
    stale: KindId,
    /// `stall:mark` — the session was named in a stall report.
    stall: KindId,
}

impl JournalKinds {
    fn bind(journal: &Journal) -> JournalKinds {
        JournalKinds {
            phases: SessionPhase::ALL.map(|p| journal.kind(&format!("phase:{}", p.name()))),
            handoff: journal.kind("handoff"),
            stale: journal.kind("stale:drop"),
            stall: journal.kind("stall:mark"),
        }
    }
}

/// One end of a session's byte pipe with its framing state.
struct Leg {
    end: Box<dyn Transport>,
    /// Reassembles inbound bytes into frames.
    rx: Framer,
    /// Outbound frames awaiting `writable()` budget.
    tx: SendQueue,
}

impl Leg {
    /// Drains every readable byte of the end into the framer.
    fn pull(&mut self) -> Result<usize, TransportError> {
        self.rx.pull(self.end.as_mut())
    }

    /// Whether pumping this leg would make progress *right now*: pending
    /// frames with window to enter, readable bytes, or a complete (or
    /// known-bad) frame already buffered.
    fn actionable(&self) -> bool {
        (!self.tx.is_empty() && self.end.writable() > 0)
            || self.end.readable() > 0
            || self.rx.frame_ready()
    }
}

/// Index of the session's leg in [`Slot::legs`] — and the low bit of its
/// poller token.
const CLIENT: usize = 0;
/// Index of the reactor-service leg in [`Slot::legs`].
const SERVICE: usize = 1;

struct Slot {
    session: InpSession,
    /// Service-side state of this connection (Figure 4 order
    /// enforcement on the proxy leg).
    conn: ServiceConn,
    /// The two ends of the byte pipe: `[CLIENT, SERVICE]`.
    legs: [Leg; 2],
    /// Whether the id currently sits in the ready queue.
    queued: bool,
    /// Last phase [`Reactor::sync_phase`] observed.
    last_phase: SessionPhase,
    /// Clock reading when `last_phase` was entered.
    phase_entered_ns: u64,
    /// Accumulated nanoseconds per timed phase.
    phase_ns: [u64; SessionPhase::TIMED],
    /// Wire-clock milestones (simulated µs).
    times: TransportTimes,
    /// Flight-recorder handle under the session's label (global id in a
    /// sharded run, slot id otherwise).
    journal: Option<SessionJournal>,
}

/// Poll-based reactor multiplexing many [`InpSession`]s over one shared
/// proxy + server + PAD repository, each session behind its own
/// [`Transport`] pair.
///
/// All three services are taken by shared reference: the proxy negotiates
/// through `&self` (per-application cache locks), the server serves through
/// `&self` (read-only between `publish` calls), and the repository is a
/// read-only map — so any number of reactors on any number of threads can
/// drive sessions against the *same* pair, which is exactly how the
/// throughput harness scales it. (A reactor itself stays on the thread
/// that built it: transport pairs are single-threaded by construction.)
pub struct Reactor<'a> {
    service: InpService<'a>,
    slots: Vec<Slot>,
    ready: VecDeque<SessionId>,
    /// Pair builder for [`spawn`](Self::spawn) (default: loopback).
    profile: TransportProfile,
    /// Checked framing: frames carry a weak-sum trailer and corrupted
    /// deliveries surface as [`FrameError::Corrupt`](crate::transport::FrameError::Corrupt).
    checksums: bool,
    /// Running count of live (non-terminal) sessions: `+1` per spawn, `−1`
    /// where [`sync_phase`](Self::sync_phase) observes the terminal
    /// transition. What [`in_flight`](Self::in_flight) returns.
    live: usize,
    /// The running summary [`report`](Self::report) returns: `completed` /
    /// `failed` move at that same transition, `polls` per delivery.
    report: ReactorReport,
    /// Running total of [`queued_frames`](Self::queued_frames), kept where
    /// frames are queued, flushed and cleared — what the backpressure
    /// gauge is fed from.
    tx_frames: usize,
    /// Time source for per-phase accounting and stall diagnostics.
    clock: SharedClock,
    tele: ReactorTelemetry,
    /// Flight recorder shared by every session this reactor drives
    /// (normally the shard's journal).
    journal: Option<(Arc<Journal>, JournalKinds)>,
}

impl<'a> Reactor<'a> {
    /// Creates a reactor over the shared service trio with every knob at
    /// its [`ReactorConfig`] default (loopback transports, monotonic
    /// clock, global telemetry).
    pub fn new(
        proxy: &'a AdaptationProxy,
        server: &'a ApplicationServer,
        pad_repo: &'a PadRepo,
    ) -> Reactor<'a> {
        Reactor::with_config(proxy, server, pad_repo, ReactorConfig::new())
    }

    /// Creates a reactor over the shared service trio, configured by one
    /// [`ReactorConfig`]. Shard-only knobs (`stall_timeout`,
    /// `virtual_time`, `journal_capacity`, `introspect`) are ignored
    /// here — see the knob table on [`ReactorConfig`].
    pub fn with_config(
        proxy: &'a AdaptationProxy,
        server: &'a ApplicationServer,
        pad_repo: &'a PadRepo,
        config: ReactorConfig,
    ) -> Reactor<'a> {
        let tele = match &config.telemetry {
            Some(bundle) => ReactorTelemetry::bind(bundle),
            None => ReactorTelemetry::bind(&fractal_telemetry::Telemetry::global()),
        };
        Reactor {
            service: InpService { proxy, server, pad_repo },
            slots: Vec::new(),
            ready: VecDeque::new(),
            profile: config.transport,
            checksums: config.frame_checksums,
            live: 0,
            report: ReactorReport::default(),
            tx_frames: 0,
            clock: config.clock.unwrap_or_else(MonotonicClock::shared),
            tele,
            journal: config.journal.map(|j| {
                let kinds = JournalKinds::bind(&j);
                (j, kinds)
            }),
        }
    }

    /// Admits a session on a fresh pair from the reactor's transport
    /// profile. The session is live immediately; nothing crosses the wire
    /// until [`poll`] (or [`run`]) pumps it.
    ///
    /// [`poll`]: Self::poll
    /// [`run`]: Self::run
    pub fn spawn(&mut self, session: InpSession) -> SessionId {
        let pair = self.profile.pair();
        self.spawn_on(session, pair)
    }

    /// Admits a session on an explicit transport pair: starts it and
    /// queues its opening frames on the client side of `pair`.
    pub fn spawn_on(&mut self, mut session: InpSession, pair: TransportPair) -> SessionId {
        let id = self.slots.len();
        // Clock read *before* start(): the Init phase gets a real duration
        // covering the session's opening work.
        let spawned_at = self.clock.now_ns();
        let opening = session.start().unwrap_or_default();
        let mut conn = ServiceConn::new();
        let journal = self.journal.as_ref().map(|(journal, kinds)| {
            let handle = journal.session(session.label().unwrap_or(id as u64));
            // Both halves of the core record their tolerated stale drops
            // on the same per-session stream.
            session.stale_trace = Some((handle.clone(), kinds.stale));
            conn.stale_trace = Some((handle.clone(), kinds.stale));
            handle.record(kinds.phases[SessionPhase::Init.index()]);
            handle
        });
        let leg = |end| Leg { end, rx: self.rx_framer(), tx: SendQueue::new() };
        self.slots.push(Slot {
            session,
            conn,
            legs: [leg(pair.client), leg(pair.service)],
            queued: true,
            last_phase: SessionPhase::Init,
            phase_entered_ns: spawned_at,
            phase_ns: [0; SessionPhase::TIMED],
            times: TransportTimes::default(),
            journal,
        });
        self.send(id, CLIENT, &opening);
        self.ready.push_back(id);
        self.live += 1;
        self.sync_phase(id);
        self.report.peak_in_flight = self.report.peak_in_flight.max(self.live);
        self.tele.peak_in_flight.set_max(self.report.peak_in_flight as i64);
        id
    }

    /// A receive framer matching the reactor's framing mode.
    fn rx_framer(&self) -> Framer {
        if self.checksums {
            Framer::new().with_checksum()
        } else {
            Framer::new()
        }
    }

    /// Frames `msgs` per the reactor's framing mode and queues them on one
    /// leg of `id`.
    fn send(&mut self, id: SessionId, leg: usize, msgs: &[InpMessage]) {
        let frame: fn(&InpMessage) -> Vec<u8> =
            if self.checksums { Framer::frame_checked } else { Framer::frame };
        let tx = &mut self.slots[id].legs[leg].tx;
        for msg in msgs {
            tx.push(frame(msg));
        }
        self.tx_frames += msgs.len();
    }

    /// Puts one leg's queued frames on the wire, up to the peer's
    /// `writable()` budget.
    fn flush(&mut self, id: SessionId, leg: usize) -> Result<(), TransportError> {
        let leg = &mut self.slots[id].legs[leg];
        let before = leg.tx.frames();
        let moved = leg.tx.flush(leg.end.as_mut());
        self.tx_frames -= before - leg.tx.frames();
        moved.map(drop)
    }

    /// Folds a session's phase change (if any) into the per-phase
    /// accounting: the time since the last transition is credited to the
    /// phase just left (a multi-phase jump credits the phase it started
    /// from), recorded in the phase histogram, and journaled. Idempotent
    /// while the phase is unchanged.
    fn sync_phase(&mut self, id: SessionId) {
        let phase = self.slots[id].session.phase();
        if phase == self.slots[id].last_phase {
            return;
        }
        let now = self.clock.now_ns();
        let slot = &mut self.slots[id];
        let wire_now = slot.legs[CLIENT].end.now_us();
        if slot.last_phase == SessionPhase::PathSearch {
            slot.times.negotiated_us = Some(wire_now);
        }
        if !slot.last_phase.is_terminal() {
            let spent = now.saturating_sub(slot.phase_entered_ns);
            slot.phase_ns[slot.last_phase.index()] += spent;
            self.tele.phase_ns[slot.last_phase.index()].record(spent);
        }
        if let (Some(handle), Some((_, kinds))) = (slot.journal.as_ref(), self.journal.as_ref()) {
            handle.record(kinds.phases[phase.index()]);
        }
        if phase.is_terminal() {
            self.live -= 1;
            slot.times.done_us = Some(wire_now);
            if phase == SessionPhase::Done {
                self.report.completed += 1;
                self.tele.completed.inc();
            } else {
                self.report.failed += 1;
                self.tele.failed.inc();
            }
        }
        slot.last_phase = phase;
        slot.phase_entered_ns = now;
    }

    /// Number of live (non-terminal) sessions.
    pub fn in_flight(&self) -> usize {
        self.live
    }

    /// Maximum number of simultaneously live sessions seen so far.
    pub fn peak_in_flight(&self) -> usize {
        self.report.peak_in_flight
    }

    /// Frames queued for `id` (both directions) that have not fully
    /// reached the wire — the session's backpressure debt.
    pub fn pending_frames(&self, id: SessionId) -> usize {
        self.slots[id].legs.iter().map(|leg| leg.tx.frames()).sum()
    }

    /// Total queued frames across all sessions, by scanning every slot —
    /// the definition of what the [`TRANSPORT_QUEUE_METRIC`] gauge reports
    /// after each poll (the gauge itself is fed from a running counter).
    pub fn queued_frames(&self) -> usize {
        (0..self.slots.len()).map(|id| self.pending_frames(id)).sum()
    }

    /// Pumps the next ready session one readiness step: flush its pending
    /// frames (up to the peer's `writable()` budget), drain and route
    /// whatever the wire has delivered, and hand the session **at most
    /// one** reassembled frame. Returns the session that was pumped, or
    /// `None` when no session has actionable work (all done — or waiting
    /// on the wire/stalled, which [`run`](Self::run) distinguishes).
    ///
    /// One delivery per poll is what makes the multiplexing real: with N
    /// live sessions the reactor round-robins between them, so session 63
    /// negotiates while session 0 is mid-download.
    pub fn poll(&mut self) -> Option<SessionId> {
        let id = self.ready.pop_front()?;
        self.slots[id].queued = false;
        // A session that ended (e.g. aborted on a routing failure) while
        // frames were still queued or in flight is not pumped: that would
        // only raise UnexpectedMessage over the recorded root cause. Its
        // pipe is torn down instead.
        if !self.slots[id].session.phase().is_terminal() {
            if let Err(e) = self.pump(id) {
                self.slots[id].session.abort(e);
            }
        }
        if self.slots[id].session.phase().is_terminal() {
            self.teardown(id);
        }
        self.sync_phase(id);
        debug_assert_eq!(self.tx_frames, self.queued_frames());
        debug_assert_eq!(
            self.live,
            self.slots.iter().filter(|s| !s.session.phase().is_terminal()).count()
        );
        self.tele.queue_depth.set(self.tx_frames as i64);
        self.enqueue_ready(id);
        Some(id)
    }

    /// One readiness step for one session. Transport and framing failures
    /// bubble up as [`InpError`] and abort the session (first error wins).
    fn pump(&mut self, id: SessionId) -> Result<(), InpError> {
        // Client → wire: put pending frames on the wire, up to writable().
        self.flush(id, CLIENT)?;
        // Wire → services: drain every readable byte, hand every complete
        // frame to the service core, queue the replies.
        let service = self.service;
        self.slots[id].legs[SERVICE].pull()?;
        while let Some(msg) = self.slots[id].legs[SERVICE].rx.next_frame()? {
            let replies = service.on_message(&mut self.slots[id].conn, &msg)?;
            self.send(id, SERVICE, &replies);
        }
        self.flush(id, SERVICE)?;
        // Wire → session: drain the client end, deliver at most ONE frame.
        self.slots[id].legs[CLIENT].pull()?;
        if let Some(msg) = self.slots[id].legs[CLIENT].rx.next_frame()? {
            self.report.polls += 1;
            self.tele.polls.inc();
            match self.slots[id].session.on_message(&msg) {
                Ok(replies) => {
                    self.send(id, CLIENT, &replies);
                    self.flush(id, CLIENT)?;
                }
                // The wire delivered something the session cannot accept:
                // a routing bug or a duplicated frame. Dropping it would
                // stall the session silently; fail it loudly instead.
                Err(e) => self.slots[id].session.abort(e),
            }
        }
        Ok(())
    }

    /// Re-queues `id` for [`poll`](Self::poll) if it is live and has
    /// actionable work — how an external readiness driver (the sharded
    /// TCP front-end) feeds kernel events back into the poll loop.
    /// Idempotent per drain: an id already queued is not queued twice.
    pub fn enqueue_ready(&mut self, id: SessionId) {
        let s = &mut self.slots[id];
        if !s.queued && !s.session.phase().is_terminal() && s.legs.iter().any(Leg::actionable) {
            s.queued = true;
            self.ready.push_back(id);
        }
    }

    /// Registers every live session's socket-backed ends with `poller`:
    /// token `2·id` is the client end, `2·id + 1` the service end. Read
    /// interest is unconditional; write interest only where frames are
    /// queued (waking on an always-writable idle socket would busy-spin).
    /// Ends without a file descriptor (in-memory transports) are skipped —
    /// their readiness is intrinsic and [`poll`](Self::poll) sees it
    /// directly.
    #[cfg(unix)]
    pub fn register_interest(&self, poller: &mut crate::sys::Poller) {
        use crate::sys::Interest;
        for (id, s) in self.slots.iter().enumerate() {
            if s.session.phase().is_terminal() {
                continue;
            }
            for (k, leg) in s.legs.iter().enumerate() {
                if let Some(fd) = leg.end.raw_fd() {
                    let interest =
                        if leg.tx.is_empty() { Interest::READ } else { Interest::READ_WRITE };
                    poller.register(fd, 2 * id + k, interest);
                }
            }
        }
    }

    /// Feeds one kernel readiness event (token scheme of
    /// [`register_interest`](Self::register_interest)) into the matching
    /// transport end and re-queues the session if that made it actionable.
    #[cfg(unix)]
    pub fn apply_event(&mut self, ev: &crate::sys::Event) {
        let id = ev.token / 2;
        let Some(s) = self.slots.get_mut(id) else { return };
        s.legs[ev.token % 2].end.set_ready(ev.readable, ev.writable);
        self.enqueue_ready(id);
    }

    /// Drops a terminal session's queued frames and buffered bytes and
    /// closes its pair. Stale in-flight replies must not reach a Failed
    /// session and overwrite its root-cause error.
    fn teardown(&mut self, id: SessionId) {
        let s = &mut self.slots[id];
        for leg in &mut s.legs {
            self.tx_frames -= leg.tx.frames();
            leg.tx.clear();
            leg.rx.clear();
        }
        s.legs[CLIENT].end.close();
    }

    /// Polls until every session is terminal. When every live session is
    /// merely transport-starved (bytes in flight on a timed link), the
    /// pair clocks advance — each to its *own* next delivery instant, so
    /// a session's wire timeline stays a pure function of its own traffic
    /// — and polling resumes. Only when no bytes are in flight anywhere
    /// does the reactor return [`ReactorStalled`] (wrapped in
    /// [`InpError`]) naming the protocol-stuck sessions.
    pub fn run(&mut self) -> Result<ReactorReport, InpError> {
        self.run_until(|_| false)
    }

    /// [`run`](Self::run) with an external stop predicate checked before
    /// every poll — how a driver interleaves its own actions (e.g. firing
    /// a mid-session [`handoff`](Self::handoff) once a session reaches a
    /// given phase) with the event loop. Returns the in-progress report
    /// as soon as `stop` fires; the reactor can be run again afterwards.
    pub fn run_until(
        &mut self,
        mut stop: impl FnMut(&Reactor<'a>) -> bool,
    ) -> Result<ReactorReport, InpError> {
        loop {
            loop {
                if stop(self) {
                    return Ok(self.report());
                }
                if self.poll().is_none() {
                    break;
                }
            }
            if self.in_flight() == 0 {
                break;
            }
            let mut advanced = false;
            for s in &mut self.slots {
                if s.session.phase().is_terminal() {
                    continue;
                }
                let [client, service] = &mut s.legs;
                let next = match (client.end.next_ready_at(), service.end.next_ready_at()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if let Some(t) = next {
                    client.end.advance_to(t);
                    service.end.advance_to(t);
                    advanced = true;
                }
            }
            if !advanced {
                return Err(self.stall_report().into());
            }
            for id in 0..self.slots.len() {
                self.enqueue_ready(id);
            }
        }
        Ok(self.report())
    }

    /// The progress summary as of now — what [`run`](Self::run) returns on
    /// completion, available to external drive loops (the sharded TCP
    /// front-end) that pump via [`poll`](Self::poll) directly.
    pub fn report(&self) -> ReactorReport {
        let in_phase = |p| self.slots.iter().filter(|s| s.session.phase() == p).count();
        debug_assert_eq!(self.report.completed, in_phase(SessionPhase::Done));
        debug_assert_eq!(self.report.failed, in_phase(SessionPhase::Failed));
        self.report
    }

    /// Builds the protocol-stuck diagnostic for every live session —
    /// public so external drive loops with their own quiescence detection
    /// (kernel-poll timeouts instead of simulated clocks) report the same
    /// typed stall as [`run`](Self::run).
    pub fn stall_report(&self) -> ReactorStalled {
        // One clock reading for the whole report: every stuck session's
        // open phase accrues up to the same detection instant.
        let now = self.clock.now_ns();
        let stuck = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.session.phase().is_terminal())
            .map(|(id, s)| {
                // Mark the stall on the session's own event stream, then
                // pull its recent causal history (the mark included).
                let recent = match (s.journal.as_ref(), self.journal.as_ref()) {
                    (Some(handle), Some((journal, kinds))) => {
                        handle.record(kinds.stall);
                        journal.tail(handle.session(), STALL_TAIL_EVENTS)
                    }
                    _ => Vec::new(),
                };
                StuckSession {
                    id,
                    phase: s.session.phase().name(),
                    phase_ns: self.phase_timings_at(id, now),
                    queue_depth: self.pending_frames(id),
                    recent,
                }
            })
            .collect();
        ReactorStalled { stuck }
    }

    /// Read access to a session.
    pub fn session(&self, id: SessionId) -> &InpSession {
        &self.slots[id].session
    }

    /// Fires a mid-session mobility handoff on `id`: the client's link
    /// changed to `ntwk`, so the session rolls back through negotiation
    /// ([`InpSession::renegotiate`]) and the service side of the
    /// connection rewinds to await the fresh `INIT_REQ`
    /// ([`ServiceConn::rewind`]). Frames of the old generation still in
    /// flight — in either direction — are drained and dropped by the side
    /// that receives them. The caller is responsible for repricing the
    /// wire itself (e.g.
    /// [`LinkHandoff::switch`](crate::transport::LinkHandoff::switch)).
    pub fn handoff(&mut self, id: SessionId, ntwk: NtwkMeta) -> Result<(), InpError> {
        let opening = self.slots[id].session.renegotiate(ntwk)?;
        let slot = &mut self.slots[id];
        slot.conn.rewind();
        if let (Some(handle), Some((_, kinds))) = (slot.journal.as_ref(), self.journal.as_ref()) {
            handle.record(kinds.handoff);
        }
        self.send(id, CLIENT, &opening);
        self.sync_phase(id);
        self.enqueue_ready(id);
        Ok(())
    }

    /// The session's wire-clock milestones (simulated µs on its pair):
    /// when negotiation finished and when the session ended. Always 0 over
    /// the untimed loopback; over a
    /// [`SimLinkTransport`](crate::transport::SimLinkTransport) these are
    /// the per-link negotiation/session times the throughput harness
    /// reports.
    pub fn transport_times(&self, id: SessionId) -> TransportTimes {
        self.slots[id].times
    }

    /// Accumulated time per visited phase for one session (name,
    /// nanoseconds, protocol order), including the currently open phase up
    /// to now. This is the same accounting [`ReactorStalled`] reports for
    /// stuck sessions.
    pub fn phase_timings(&self, id: SessionId) -> Vec<(&'static str, u64)> {
        self.phase_timings_at(id, self.clock.now_ns())
    }

    /// [`phase_timings`](Self::phase_timings) with the open phase accrued
    /// up to the clock reading `now`; phases never entered are omitted.
    fn phase_timings_at(&self, id: SessionId, now: u64) -> Vec<(&'static str, u64)> {
        let s = &self.slots[id];
        let mut per_phase = s.phase_ns;
        if !s.last_phase.is_terminal() {
            per_phase[s.last_phase.index()] += now.saturating_sub(s.phase_entered_ns);
        }
        SessionPhase::ALL
            .iter()
            .zip(per_phase)
            .filter(|&(_, ns)| ns > 0)
            .map(|(phase, ns)| (phase.name(), ns))
            .collect()
    }

    /// Consumes the reactor, returning every session in spawn order.
    pub fn into_sessions(self) -> Vec<InpSession> {
        self.slots.into_iter().map(|s| s.session).collect()
    }
}
