//! The client half of the INP core: [`InpSession`], one negotiation +
//! application exchange as a state machine. Messages in, messages out —
//! the driver above it owns the byte streams and the time source.

use std::borrow::BorrowMut;

use fractal_telemetry::journal::{KindId, SessionJournal};

use crate::client::FractalClient;
use crate::error::{FractalError, InpError, WireError};
use crate::inp::InpMessage;
use crate::meta::{AppId, NtwkMeta, PadId, PadMeta, Reader, Writer};

/// Phases of one event-driven INP session, in protocol order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionPhase {
    /// Created; nothing sent yet.
    Init,
    /// INIT_REQ sent; awaiting INIT_REP then CLI_META_REQ.
    MetaExchange,
    /// CLI_META_REP sent; the proxy is running the Figure 6 path search.
    PathSearch,
    /// Awaiting PAD_DOWNLOAD_REPs for the negotiated, not-yet-deployed
    /// PADs.
    PadDownload,
    /// APP_REQ sent; awaiting the encoded APP_REP.
    Sessioning,
    /// Content decoded and stored; terminal.
    Done,
    /// Terminal failure; see [`InpSession::error`].
    Failed,
}

impl SessionPhase {
    /// The one phase table: all seven phases in protocol order, the
    /// [`TIMED`](Self::TIMED) non-terminal ones first. Per-phase arrays
    /// (histograms, accumulated timings, flight-recorder kinds) are laid
    /// out in this order and indexed by [`index`](Self::index).
    pub const ALL: [SessionPhase; 7] = [
        SessionPhase::Init,
        SessionPhase::MetaExchange,
        SessionPhase::PathSearch,
        SessionPhase::PadDownload,
        SessionPhase::Sessioning,
        SessionPhase::Done,
        SessionPhase::Failed,
    ];

    /// How many leading entries of [`ALL`](Self::ALL) are timed: the
    /// terminal phases accrue no time.
    pub const TIMED: usize = 5;

    /// Position of this phase in [`ALL`](Self::ALL).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the session can make no further transitions.
    pub fn is_terminal(self) -> bool {
        self.index() >= Self::TIMED
    }

    /// Phase name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SessionPhase::Init => "Init",
            SessionPhase::MetaExchange => "MetaExchange",
            SessionPhase::PathSearch => "PathSearch",
            SessionPhase::PadDownload => "PadDownload",
            SessionPhase::Sessioning => "Sessioning",
            SessionPhase::Done => "Done",
            SessionPhase::Failed => "Failed",
        }
    }
}

/// Typed rejections of the INP core, client and service side alike.
/// Everything a reactor caller sees is widened to [`InpError`] (see
/// [`InpSession::error`] and [`Reactor::run`](super::Reactor::run)).
#[derive(Clone, PartialEq, Debug)]
pub enum SessionError {
    /// A message arrived that the current phase (client side) or
    /// connection state (service side) does not accept. The receiver's
    /// state is left unchanged — duplicates and reordering are rejected,
    /// not acted on.
    UnexpectedMessage {
        /// Phase or connection state at the time.
        phase: &'static str,
        /// Offending message name.
        message: &'static str,
    },
    /// `start()` called on a session that already started.
    AlreadyStarted,
    /// A `PAD_DOWNLOAD_REP` for a PAD that is not pending download.
    UnexpectedPad(PadId),
    /// An `APP_REP` for a content id the session never requested.
    WrongContent {
        /// Content the session asked for.
        expected: u32,
        /// Content the reply carried.
        got: u32,
    },
    /// A framework failure (negotiation, PAD gauntlet, server encode).
    Fractal(FractalError),
}

impl core::fmt::Display for SessionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SessionError::UnexpectedMessage { phase, message } => {
                write!(f, "unexpected {message} in phase {phase}")
            }
            SessionError::AlreadyStarted => write!(f, "session already started"),
            SessionError::UnexpectedPad(id) => write!(f, "PAD {id} was not pending download"),
            SessionError::WrongContent { expected, got } => {
                write!(f, "APP_REP for content {got}, expected {expected}")
            }
            SessionError::Fractal(e) => write!(f, "session failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<FractalError> for SessionError {
    fn from(e: FractalError) -> Self {
        SessionError::Fractal(e)
    }
}

/// Encodes the `APP_REQ` payload the event-driven server side understands:
/// content id, the version the client already holds (if any), and the
/// version it wants.
pub fn encode_app_payload(content_id: u32, have: Option<u32>, want: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(content_id);
    w.u32(want);
    match have {
        Some(v) => {
            w.u8(1);
            w.u32(v);
        }
        None => w.u8(0),
    }
    w.0
}

/// Decodes an `APP_REQ` payload produced by [`encode_app_payload`].
pub fn decode_app_payload(payload: &[u8]) -> Result<(u32, Option<u32>, u32), WireError> {
    let mut r = Reader::new(payload);
    let content_id = r.u32()?;
    let want = r.u32()?;
    let have = match r.u8()? {
        0 => None,
        1 => Some(r.u32()?),
        _ => return Err(WireError::BadEnum("have flag")),
    };
    if !r.done() {
        return Err(WireError::TrailingBytes);
    }
    Ok((content_id, have, want))
}

/// Where a tolerated post-handoff stale delivery leaves its trace: the
/// session's flight-recorder handle plus the `stale:drop` kind. The
/// driver attaches one to each side of a connection; `None` records
/// nothing.
pub(super) type StaleTrace = Option<(SessionJournal, KindId)>;

/// Records one `stale:drop` event, if a journal is attached.
pub(super) fn record_stale_drop(trace: &StaleTrace) {
    if let Some((journal, kind)) = trace {
        journal.record(*kind);
    }
}

/// One negotiation/session as an event-driven state machine (client side).
///
/// Holds its [`FractalClient`] — owned, or lent as `&mut FractalClient` by
/// a driver whose caller keeps the client — so PAD deployment, the protocol
/// cache, and content decoding all run against real client state; the
/// transport is whatever delivers [`InpMessage`]s to
/// [`on_message`](Self::on_message) — normally a
/// [`Reactor`](super::Reactor) pumping a framed byte stream.
#[derive(Debug)]
pub struct InpSession<C = FractalClient> {
    client: C,
    app_id: AppId,
    content_id: u32,
    want_version: u32,
    phase: SessionPhase,
    init_acked: bool,
    pads: Vec<PadMeta>,
    pending: Vec<PadMeta>,
    error: Option<InpError>,
    /// Set by [`renegotiate`](Self::renegotiate): replies from the
    /// pre-handoff generation may still be in flight and are dropped
    /// instead of failing the session.
    tolerates_stale: bool,
    /// Caller-assigned flight-recorder label (e.g. the global session
    /// index in a sharded run); defaults to the reactor slot id.
    label: Option<u64>,
    /// Attached by the reactor so silently-tolerated stale deliveries
    /// leave a trace.
    pub(super) stale_trace: StaleTrace,
}

impl<C: BorrowMut<FractalClient>> InpSession<C> {
    /// Creates a session that will fetch `content_id` at `want_version`
    /// from `app_id`.
    pub fn new(client: C, app_id: AppId, content_id: u32, want_version: u32) -> Self {
        InpSession {
            client,
            app_id,
            content_id,
            want_version,
            phase: SessionPhase::Init,
            init_acked: false,
            pads: Vec::new(),
            pending: Vec::new(),
            error: None,
            tolerates_stale: false,
            label: None,
            stale_trace: None,
        }
    }

    /// Tags the session with a caller-chosen flight-recorder label —
    /// the sharded front-end uses the *global* session index, so journal
    /// queries line up across shards.
    pub fn with_label(mut self, label: u64) -> Self {
        self.label = Some(label);
        self
    }

    /// The caller-assigned flight-recorder label, if any.
    pub fn label(&self) -> Option<u64> {
        self.label
    }

    /// Current phase.
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }

    /// The terminal error, once [`SessionPhase::Failed`] — unified over
    /// every layer that can kill a session (state machine, service side,
    /// transport, framing).
    pub fn error(&self) -> Option<&InpError> {
        self.error.as_ref()
    }

    /// The negotiated PADs (known from `PadDownload` onward; empty before).
    pub fn negotiated(&self) -> Option<&[PadMeta]> {
        (!self.pads.is_empty()).then_some(self.pads.as_slice())
    }

    /// Read access to the client (content cache, stats).
    pub fn client(&self) -> &FractalClient {
        self.client.borrow()
    }

    /// The client, for what a driver runs on it beside the exchange (the
    /// figure harness's upstream protocol message).
    pub fn client_mut(&mut self) -> &mut FractalClient {
        self.client.borrow_mut()
    }

    /// Takes the client back out of a finished session.
    pub fn into_client(self) -> C {
        self.client
    }

    /// Kicks the session off. Emits `INIT_REQ` — or, when the client's
    /// protocol cache already holds this application's PADs (the Figure 4
    /// fast path), skips negotiation entirely and emits the download or
    /// application requests directly.
    pub fn start(&mut self) -> Result<Vec<InpMessage>, SessionError> {
        if self.phase != SessionPhase::Init {
            return Err(SessionError::AlreadyStarted);
        }
        if let Some(pads) = self.client.borrow_mut().cached_protocols(self.app_id) {
            self.pads = pads;
            return self.after_negotiation();
        }
        self.phase = SessionPhase::MetaExchange;
        Ok(vec![InpMessage::InitReq { app_id: self.app_id, payload: b"app-request".to_vec() }])
    }

    /// Feeds one framed message. Returns the message(s) to send, which the
    /// transport routes to the proxy, the PAD repository, or the server.
    ///
    /// Out-of-order, duplicate, and unknown messages return a typed error
    /// and leave the phase unchanged; framework failures (a PAD failing
    /// the acceptance gauntlet, the server rejecting the request) move the
    /// session to `Failed` terminally.
    pub fn on_message(&mut self, msg: &InpMessage) -> Result<Vec<InpMessage>, SessionError> {
        match (self.phase, msg) {
            (SessionPhase::MetaExchange, InpMessage::InitRep) if !self.init_acked => {
                self.init_acked = true;
                Ok(Vec::new())
            }
            (SessionPhase::MetaExchange, InpMessage::CliMetaReq) if self.init_acked => {
                self.phase = SessionPhase::PathSearch;
                let env = self.client.borrow().probe();
                Ok(vec![InpMessage::CliMetaRep { dev: env.dev, ntwk: env.ntwk }])
            }
            (SessionPhase::PathSearch, InpMessage::PadMetaRep { pads }) => {
                self.client.borrow_mut().remember_protocols(self.app_id, pads);
                self.pads = pads.clone();
                self.after_negotiation()
            }
            (SessionPhase::PadDownload, InpMessage::PadDownloadRep { pad_id, bytes }) => {
                let Some(at) = self.pending.iter().position(|p| p.id == *pad_id) else {
                    if self.tolerates_stale {
                        // A pre-handoff download still in flight; drop it.
                        record_stale_drop(&self.stale_trace);
                        return Ok(Vec::new());
                    }
                    return Err(SessionError::UnexpectedPad(*pad_id));
                };
                let pad = self.pending.remove(at);
                if let Err(e) = self.client.borrow_mut().deploy_pad(&pad, bytes) {
                    return self.fail(SessionError::Fractal(e));
                }
                if self.pending.is_empty() {
                    self.app_request()
                } else {
                    Ok(Vec::new())
                }
            }
            (
                SessionPhase::Sessioning,
                InpMessage::AppRep { content_id, version, protocol, payload },
            ) => {
                if self.tolerates_stale && *protocol != self.pads[0].protocol {
                    // A reply encoded with the pre-handoff PAD: decoding
                    // it with the renegotiated one would corrupt content.
                    record_stale_drop(&self.stale_trace);
                    return Ok(Vec::new());
                }
                if *content_id != self.content_id {
                    return Err(SessionError::WrongContent {
                        expected: self.content_id,
                        got: *content_id,
                    });
                }
                let pad_id = self.pads[0].id;
                let decoded =
                    match self.client.borrow_mut().decode_content(pad_id, *content_id, payload) {
                        Ok(d) => d,
                        Err(e) => return self.fail(SessionError::Fractal(e)),
                    };
                self.client.borrow_mut().store_content(*content_id, *version, decoded);
                self.phase = SessionPhase::Done;
                Ok(Vec::new())
            }
            (_, m) => {
                if self.tolerates_stale {
                    // Post-handoff, off-phase deliveries are expected:
                    // whatever the old generation left on the wire drains
                    // through here without failing the session.
                    record_stale_drop(&self.stale_trace);
                    return Ok(Vec::new());
                }
                Err(SessionError::UnexpectedMessage { phase: self.phase.name(), message: m.name() })
            }
        }
    }

    /// Rolls a live session back through negotiation after a mobility
    /// handoff: the client re-probes its (changed) environment, its
    /// protocol cache is invalidated, and a fresh `INIT_REQ` is emitted.
    /// From here on, replies from the pre-handoff generation that are
    /// still in flight are silently dropped rather than treated as
    /// protocol violations (see [`on_message`](Self::on_message)).
    pub fn renegotiate(&mut self, ntwk: NtwkMeta) -> Result<Vec<InpMessage>, SessionError> {
        if self.phase.is_terminal() || self.phase == SessionPhase::Init {
            return Err(SessionError::UnexpectedMessage {
                phase: self.phase.name(),
                message: "HANDOFF",
            });
        }
        self.client.borrow_mut().handoff(ntwk);
        self.pads.clear();
        self.pending.clear();
        self.init_acked = false;
        self.tolerates_stale = true;
        self.phase = SessionPhase::MetaExchange;
        Ok(vec![InpMessage::InitReq {
            app_id: self.app_id,
            payload: b"handoff-renegotiate".to_vec(),
        }])
    }

    /// Terminates the session from outside — the transport saw an
    /// unrecoverable routing, framing, or peer failure (e.g. the service
    /// side rejected our message, or the byte stream went bad). The first
    /// recorded error wins: a late stray delivery must not mask the root
    /// cause.
    pub fn abort(&mut self, error: impl Into<InpError>) {
        self.phase = SessionPhase::Failed;
        if self.error.is_none() {
            self.error = Some(error.into());
        }
    }

    /// Negotiation finished (from cache or PAD_META_REP): queue downloads
    /// for undeployed PADs or go straight to the application exchange.
    fn after_negotiation(&mut self) -> Result<Vec<InpMessage>, SessionError> {
        if self.pads.is_empty() {
            return self.fail(SessionError::Fractal(FractalError::NoFeasiblePath));
        }
        self.pending =
            self.pads.iter().filter(|p| !self.client.borrow().is_deployed(p.id)).cloned().collect();
        if self.pending.is_empty() {
            self.app_request()
        } else {
            self.phase = SessionPhase::PadDownload;
            Ok(self.pending.iter().map(|p| InpMessage::PadDownloadReq { pad_id: p.id }).collect())
        }
    }

    /// Emits `APP_REQ` and enters `Sessioning`.
    fn app_request(&mut self) -> Result<Vec<InpMessage>, SessionError> {
        self.phase = SessionPhase::Sessioning;
        let have = self.client.borrow().cached_content(self.content_id).map(|c| c.version);
        Ok(vec![InpMessage::AppReq {
            app_id: self.app_id,
            protocols: self.pads.iter().map(|p| p.protocol).collect(),
            payload: encode_app_payload(self.content_id, have, self.want_version),
        }])
    }

    fn fail(&mut self, error: SessionError) -> Result<Vec<InpMessage>, SessionError> {
        self.abort(error.clone());
        Err(error)
    }
}
