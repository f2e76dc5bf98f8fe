//! The service half of the INP core: the three parties a client talks to
//! in Figure 4 — adaptation proxy, PAD repository, application server —
//! behind one `on_message`. Like [`InpSession`](super::InpSession) it is
//! messages in, messages out; a driver feeds it whatever the client put
//! on the wire and sends back what it returns.

use crate::error::FractalError;
use crate::inp::InpMessage;
use crate::meta::{AppId, ClientEnv};
use crate::proxy::AdaptationProxy;
use crate::server::ApplicationServer;
use crate::session::PadRepo;

use super::session::{decode_app_payload, record_stale_drop, SessionError, StaleTrace};

/// Where one connection stands in the proxy leg of Figure 4. PAD
/// downloads and application requests are served in every state: the
/// repository and the server are separate parties, and a warm client
/// legitimately opens with either.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum ConnState {
    /// Awaiting INIT_REQ.
    #[default]
    AwaitInit,
    /// INIT_REP + CLI_META_REQ sent for this application; awaiting
    /// CLI_META_REP.
    AwaitMetaRep(AppId),
    /// PAD_META_REP sent.
    Negotiated,
}

/// Per-connection service-side state: Figure 4's message order on the
/// proxy leg, enforced by rejecting what the current state does not
/// accept rather than acting on it.
#[derive(Debug, Default)]
pub struct ServiceConn {
    state: ConnState,
    /// Set by [`rewind`](Self::rewind): negotiation frames of the
    /// pre-handoff generation may still be in flight and are dropped
    /// instead of failing the connection.
    tolerates_stale: bool,
    /// What `server.respond` reported for the last APP_REP.
    computed_on_request: bool,
    /// Attached by the reactor so silently-tolerated stale deliveries
    /// leave a trace.
    pub(super) stale_trace: StaleTrace,
}

impl ServiceConn {
    /// State for one fresh client connection.
    pub fn new() -> ServiceConn {
        ServiceConn::default()
    }

    /// The connection state's name, as [`SessionError::UnexpectedMessage`]
    /// reports it: `AwaitInit`, `AwaitMetaRep` or `Negotiated`.
    pub fn state_name(&self) -> &'static str {
        match self.state {
            ConnState::AwaitInit => "AwaitInit",
            ConnState::AwaitMetaRep(_) => "AwaitMetaRep",
            ConnState::Negotiated => "Negotiated",
        }
    }

    /// Whether the last `APP_REP` was encoded on the request path (`false`:
    /// served from the proactive store, or no `APP_REQ` served yet). The
    /// server's mode alone does not say: a proactive server still encodes
    /// on request for a version pair it did not pre-compute.
    pub fn computed_on_request(&self) -> bool {
        self.computed_on_request
    }

    /// Rewinds the connection to await a fresh INIT_REQ — the service side
    /// of a mid-session mobility handoff, mirroring
    /// [`InpSession::renegotiate`](super::InpSession::renegotiate). From
    /// here on an off-state INIT_REQ or CLI_META_REP (the old generation's,
    /// still on the wire) is dropped, not rejected.
    pub fn rewind(&mut self) {
        self.state = ConnState::AwaitInit;
        self.tolerates_stale = true;
    }
}

/// The shared service trio. All three serve through `&self`, so one
/// `InpService` value (it is `Copy`) backs any number of connections on
/// any number of threads.
#[derive(Clone, Copy)]
pub struct InpService<'a> {
    /// Negotiates the adaptation path (INIT_REQ, CLI_META_REP).
    pub proxy: &'a AdaptationProxy,
    /// Encodes content (APP_REQ).
    pub server: &'a ApplicationServer,
    /// Serves PAD wire bytes (PAD_DOWNLOAD_REQ).
    pub pad_repo: &'a PadRepo,
}

impl InpService<'_> {
    /// Feeds one client-emitted message to the party it addresses and
    /// returns the replies to put back on the wire. A message the
    /// connection's state does not accept — or one only a service ever
    /// sends — is a typed [`SessionError::UnexpectedMessage`] and leaves
    /// `conn` untouched.
    pub fn on_message(
        &self,
        conn: &mut ServiceConn,
        msg: &InpMessage,
    ) -> Result<Vec<InpMessage>, SessionError> {
        match (conn.state, msg) {
            (ConnState::AwaitInit, InpMessage::InitReq { app_id, .. }) => {
                conn.state = ConnState::AwaitMetaRep(*app_id);
                Ok(vec![InpMessage::InitRep, InpMessage::CliMetaReq])
            }
            (ConnState::AwaitMetaRep(app_id), InpMessage::CliMetaRep { dev, ntwk }) => {
                let pads = self.proxy.negotiate(app_id, ClientEnv { dev: *dev, ntwk: *ntwk })?;
                conn.state = ConnState::Negotiated;
                Ok(vec![InpMessage::PadMetaRep { pads }])
            }
            (_, InpMessage::InitReq { .. } | InpMessage::CliMetaRep { .. })
                if conn.tolerates_stale =>
            {
                record_stale_drop(&conn.stale_trace);
                Ok(Vec::new())
            }
            (_, InpMessage::PadDownloadReq { pad_id }) => match self.pad_repo.get(*pad_id) {
                Some(wire) => Ok(vec![InpMessage::PadDownloadRep { pad_id: *pad_id, bytes: wire }]),
                None => Err(FractalError::PadUnavailable(*pad_id).into()),
            },
            (_, InpMessage::AppReq { protocols, payload, .. }) => {
                let (content_id, have, want) =
                    decode_app_payload(payload).map_err(FractalError::Wire)?;
                let protocol = *protocols.first().ok_or(FractalError::NoFeasiblePath)?;
                let resp = self.server.respond(content_id, have, want, protocol)?;
                conn.computed_on_request = resp.computed_on_request;
                Ok(vec![InpMessage::AppRep {
                    content_id,
                    version: want,
                    protocol: resp.protocol,
                    payload: resp.payload,
                }])
            }
            (_, other) => Err(SessionError::UnexpectedMessage {
                phase: conn.state_name(),
                message: other.name(),
            }),
        }
    }
}
