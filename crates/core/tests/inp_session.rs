//! Exhaustive transition coverage for both halves of the sans-IO INP
//! core: on the client side ([`InpSession`]) every phase × every message
//! kind, on the service side ([`InpService`] + [`ServiceConn`]) every
//! connection state × every message kind, either advances the protocol or
//! returns a typed [`SessionError`] — never a panic, and a rejected
//! message never corrupts the receiver's state.

use bytes::Bytes;
use fractal_core::inp::InpMessage;
use fractal_core::meta::{AppId, PadId, PadMeta};
use fractal_core::presets::ClientClass;
use fractal_core::reactor::{
    encode_app_payload, InpService, InpSession, ServiceConn, SessionError, SessionPhase,
};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_protocols::ProtocolId;

const CONTENT_ID: u32 = 0;
const CLASS: ClientClass = ClientClass::PdaBluetooth;

/// The fixture: a real testbed plus the real messages of one full
/// exchange, so accepted transitions run against genuine PAD bytes and
/// server payloads.
struct Fixture {
    tb: Testbed,
    pads: Vec<PadMeta>,
}

impl Fixture {
    fn new() -> Fixture {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        tb.server.publish(CONTENT_ID, vec![7u8; 4_000]);
        let pads = tb.proxy.negotiate(tb.app_id, CLASS.env()).unwrap();
        Fixture { tb, pads }
    }

    fn init_req(&self) -> InpMessage {
        InpMessage::InitReq { app_id: self.tb.app_id, payload: b"req".to_vec() }
    }

    fn cli_meta_rep(&self) -> InpMessage {
        let env = CLASS.env();
        InpMessage::CliMetaRep { dev: env.dev, ntwk: env.ntwk }
    }

    fn pad_meta_rep(&self) -> InpMessage {
        InpMessage::PadMetaRep { pads: self.pads.clone() }
    }

    fn pad_download_rep(&self) -> InpMessage {
        let id = self.pads[0].id;
        InpMessage::PadDownloadRep { pad_id: id, bytes: self.tb.pad_repo.get(id).unwrap() }
    }

    fn app_rep(&self) -> InpMessage {
        let protocol = self.pads[0].protocol;
        let resp = self.tb.server.respond(CONTENT_ID, None, 0, protocol).unwrap();
        InpMessage::AppRep { content_id: CONTENT_ID, version: 0, protocol, payload: resp.payload }
    }

    /// One representative message per wire kind (9 kinds).
    fn all_kinds(&self) -> Vec<InpMessage> {
        vec![
            self.init_req(),
            InpMessage::InitRep,
            InpMessage::CliMetaReq,
            self.cli_meta_rep(),
            self.pad_meta_rep(),
            InpMessage::PadDownloadReq { pad_id: self.pads[0].id },
            self.pad_download_rep(),
            InpMessage::AppReq {
                app_id: self.tb.app_id,
                protocols: vec![self.pads[0].protocol],
                payload: encode_app_payload(CONTENT_ID, None, 0),
            },
            self.app_rep(),
        ]
    }

    fn service(&self) -> InpService<'_> {
        InpService { proxy: &self.tb.proxy, server: &self.tb.server, pad_repo: &self.tb.pad_repo }
    }

    /// A fresh service-side connection driven with real messages up to
    /// the named state.
    fn conn_at(&self, state: &str) -> ServiceConn {
        let mut conn = ServiceConn::new();
        for msg in [self.init_req(), self.cli_meta_rep()] {
            if conn.state_name() == state {
                break;
            }
            self.service().on_message(&mut conn, &msg).unwrap();
        }
        assert_eq!(conn.state_name(), state);
        conn
    }

    /// A fresh session driven with real messages up to `phase`.
    /// `acked` distinguishes the two sub-states of `MetaExchange`.
    fn session_at(&self, phase: SessionPhase, acked: bool) -> InpSession {
        let mut s = InpSession::new(self.tb.client(CLASS), self.tb.app_id, CONTENT_ID, 0);
        if phase == SessionPhase::Init {
            return s;
        }
        s.start().unwrap();
        if phase == SessionPhase::MetaExchange && !acked {
            return s;
        }
        s.on_message(&InpMessage::InitRep).unwrap();
        if phase == SessionPhase::MetaExchange {
            return s;
        }
        s.on_message(&InpMessage::CliMetaReq).unwrap();
        if phase == SessionPhase::PathSearch {
            return s;
        }
        s.on_message(&self.pad_meta_rep()).unwrap();
        if phase == SessionPhase::PadDownload {
            return s;
        }
        s.on_message(&self.pad_download_rep()).unwrap();
        if phase == SessionPhase::Sessioning {
            return s;
        }
        s.on_message(&self.app_rep()).unwrap();
        if phase == SessionPhase::Done {
            return s;
        }
        s.abort(SessionError::AlreadyStarted); // arbitrary terminal error
        assert_eq!(phase, SessionPhase::Failed);
        s
    }
}

/// Every (phase, message-kind) pair: accepted kinds advance, everything
/// else returns a typed error and leaves the phase exactly as it was.
#[test]
fn every_phase_times_every_message_kind() {
    let fx = Fixture::new();
    // (phase, acked, message names the phase accepts)
    let matrix: &[(SessionPhase, bool, &[&str])] = &[
        (SessionPhase::Init, false, &[]),
        (SessionPhase::MetaExchange, false, &["INIT_REP"]),
        (SessionPhase::MetaExchange, true, &["Cli_META_REQ"]),
        (SessionPhase::PathSearch, false, &["PAD_META_REP"]),
        (SessionPhase::PadDownload, false, &["PAD_DOWNLOAD_REP"]),
        (SessionPhase::Sessioning, false, &["APP_REP"]),
        (SessionPhase::Done, false, &[]),
        (SessionPhase::Failed, false, &[]),
    ];
    for &(phase, acked, accepted) in matrix {
        for msg in fx.all_kinds() {
            let mut s = fx.session_at(phase, acked);
            assert_eq!(s.phase(), phase);
            let result = s.on_message(&msg);
            if accepted.contains(&msg.name()) {
                assert!(
                    result.is_ok(),
                    "{phase:?} (acked={acked}) must accept {}: {result:?}",
                    msg.name()
                );
            } else {
                let err = result
                    .expect_err(&format!("{phase:?} (acked={acked}) must reject {}", msg.name()));
                assert!(
                    matches!(err, SessionError::UnexpectedMessage { .. }),
                    "{phase:?} × {} → {err:?}",
                    msg.name()
                );
                assert_eq!(s.phase(), phase, "rejection must not move the phase");
            }
        }
    }
}

#[test]
fn double_start_rejected() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::MetaExchange, false);
    assert_eq!(s.start().unwrap_err(), SessionError::AlreadyStarted);
    assert_eq!(s.phase(), SessionPhase::MetaExchange);
}

#[test]
fn duplicate_init_rep_rejected_after_ack() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::MetaExchange, true);
    let err = s.on_message(&InpMessage::InitRep).unwrap_err();
    assert!(matches!(err, SessionError::UnexpectedMessage { .. }));
    assert_eq!(s.phase(), SessionPhase::MetaExchange);
    // The proper continuation still works after the rejected duplicate.
    assert_eq!(s.on_message(&InpMessage::CliMetaReq).unwrap().len(), 1);
    assert_eq!(s.phase(), SessionPhase::PathSearch);
}

#[test]
fn unknown_pad_download_rejected_without_phase_change() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::PadDownload, false);
    let bogus = InpMessage::PadDownloadRep { pad_id: PadId(999), bytes: Bytes::new() };
    assert_eq!(s.on_message(&bogus).unwrap_err(), SessionError::UnexpectedPad(PadId(999)));
    assert_eq!(s.phase(), SessionPhase::PadDownload);
    // The real download still completes the phase.
    s.on_message(&fx.pad_download_rep()).unwrap();
    assert_eq!(s.phase(), SessionPhase::Sessioning);
}

#[test]
fn duplicate_pad_download_rejected_after_deploy() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::Sessioning, false);
    // PadDownloadRep is no longer expected at all once in Sessioning.
    let err = s.on_message(&fx.pad_download_rep()).unwrap_err();
    assert!(matches!(err, SessionError::UnexpectedMessage { .. }));
    assert_eq!(s.phase(), SessionPhase::Sessioning);
}

#[test]
fn wrong_content_app_rep_rejected_without_phase_change() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::Sessioning, false);
    let protocol = fx.pads[0].protocol;
    let wrong = InpMessage::AppRep {
        content_id: CONTENT_ID + 9,
        version: 0,
        protocol,
        payload: Bytes::new(),
    };
    assert_eq!(
        s.on_message(&wrong).unwrap_err(),
        SessionError::WrongContent { expected: CONTENT_ID, got: CONTENT_ID + 9 }
    );
    assert_eq!(s.phase(), SessionPhase::Sessioning);
    // The right reply still lands.
    s.on_message(&fx.app_rep()).unwrap();
    assert_eq!(s.phase(), SessionPhase::Done);
}

#[test]
fn tampered_pad_bytes_fail_terminally_with_typed_error() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::PadDownload, false);
    let id = fx.pads[0].id;
    let mut bytes = fx.tb.pad_repo.get(id).unwrap().to_vec();
    let at = bytes.len() - 3;
    bytes[at] ^= 0xFF;
    let err =
        s.on_message(&InpMessage::PadDownloadRep { pad_id: id, bytes: bytes.into() }).unwrap_err();
    assert!(matches!(err, SessionError::Fractal(_)), "{err:?}");
    assert_eq!(s.phase(), SessionPhase::Failed, "gauntlet failure is terminal");
    assert!(s.error().is_some());
}

#[test]
fn undecodable_app_rep_fails_terminally() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::Sessioning, false);
    let garbage = InpMessage::AppRep {
        content_id: CONTENT_ID,
        version: 0,
        protocol: ProtocolId::Bitmap,
        payload: vec![0xDE, 0xAD, 0xBE, 0xEF].into(),
    };
    let err = s.on_message(&garbage).unwrap_err();
    assert!(matches!(err, SessionError::Fractal(_)), "{err:?}");
    assert_eq!(s.phase(), SessionPhase::Failed);
}

#[test]
fn empty_pad_meta_rep_fails_with_no_feasible_path() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::PathSearch, false);
    let err = s.on_message(&InpMessage::PadMetaRep { pads: vec![] }).unwrap_err();
    assert!(
        matches!(err, SessionError::Fractal(fractal_core::FractalError::NoFeasiblePath)),
        "{err:?}"
    );
    assert_eq!(s.phase(), SessionPhase::Failed);
}

#[test]
fn abort_keeps_the_first_recorded_error() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::Sessioning, false);
    s.abort(SessionError::UnexpectedPad(PadId(3)));
    // A later stray abort (e.g. from a stale delivery) must not mask it.
    s.abort(SessionError::AlreadyStarted);
    assert_eq!(s.phase(), SessionPhase::Failed);
    // error() surfaces the unified InpError, wrapping the session-layer type.
    assert_eq!(s.error(), Some(&SessionError::UnexpectedPad(PadId(3)).into()));
}

#[test]
fn phase_names_and_terminality() {
    assert!(SessionPhase::Done.is_terminal());
    assert!(SessionPhase::Failed.is_terminal());
    for p in [
        SessionPhase::Init,
        SessionPhase::MetaExchange,
        SessionPhase::PathSearch,
        SessionPhase::PadDownload,
        SessionPhase::Sessioning,
    ] {
        assert!(!p.is_terminal(), "{}", p.name());
    }
    assert_eq!(SessionPhase::PathSearch.name(), "PathSearch");
}

#[test]
fn errors_display_useful_diagnostics() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::Init, false);
    let err = s.on_message(&InpMessage::InitRep).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("INIT_REP") && text.contains("Init"), "{text}");
    assert!(SessionError::UnexpectedPad(PadId(4)).to_string().contains('4'));
    assert!(SessionError::WrongContent { expected: 1, got: 2 }.to_string().contains("expected 1"));
    assert_eq!(AppId(1), fx.tb.app_id);
}

/// The service side of the same discipline. The proxy leg advances on
/// exactly one kind per state (`Cli_META_REP` before `INIT_REQ`, a second
/// `INIT_REQ`, anything after `PAD_META_REP` are all rejected); PAD
/// downloads and application requests are served in every state without
/// moving it; kinds only a service ever sends are rejected everywhere.
#[test]
fn every_connection_state_times_every_message_kind() {
    let fx = Fixture::new();
    let matrix = [
        ("AwaitInit", "INIT_REQ", "AwaitMetaRep", 2),
        ("AwaitMetaRep", "Cli_META_REP", "Negotiated", 1),
        ("Negotiated", "(nothing)", "Negotiated", 0),
    ];
    for (state, advances_on, next, replies) in matrix {
        for msg in fx.all_kinds() {
            let mut conn = fx.conn_at(state);
            let result = fx.service().on_message(&mut conn, &msg);
            let at = format!("{state} × {}", msg.name());
            match msg.name() {
                name if name == advances_on => {
                    assert_eq!(result.expect(&at).len(), replies, "{at}");
                    assert_eq!(conn.state_name(), next, "{at}");
                }
                "PAD_DOWNLOAD_REQ" | "APP_REQ" => {
                    assert_eq!(result.expect(&at).len(), 1, "{at}");
                    assert_eq!(conn.state_name(), state, "{at}: serving must not move the state");
                }
                name => {
                    assert_eq!(
                        result.expect_err(&at),
                        SessionError::UnexpectedMessage { phase: state, message: name }
                    );
                    assert_eq!(conn.state_name(), state, "{at}: rejection must not move the state");
                }
            }
        }
    }
}

#[test]
fn unknown_pad_download_req_is_pad_unavailable() {
    let fx = Fixture::new();
    let mut conn = ServiceConn::new();
    let err = fx
        .service()
        .on_message(&mut conn, &InpMessage::PadDownloadReq { pad_id: PadId(999) })
        .unwrap_err();
    assert_eq!(err, SessionError::Fractal(fractal_core::FractalError::PadUnavailable(PadId(999))));
}

#[test]
fn garbage_app_req_payload_is_a_typed_wire_error() {
    let fx = Fixture::new();
    let mut conn = fx.conn_at("Negotiated");
    let garbage = InpMessage::AppReq {
        app_id: fx.tb.app_id,
        protocols: vec![fx.pads[0].protocol],
        payload: vec![0xDE, 0xAD],
    };
    let err = fx.service().on_message(&mut conn, &garbage).unwrap_err();
    assert!(matches!(err, SessionError::Fractal(fractal_core::FractalError::Wire(_))), "{err:?}");
    assert_eq!(conn.state_name(), "Negotiated");
}

/// `computed_on_request` says what the server did for the last `APP_REP`,
/// which its mode alone does not: a proactive server serves the pairs it
/// pre-computed (cold, and one version back) from its store and encodes
/// any other pair on request; a reactive one always encodes.
#[test]
fn computed_on_request_follows_the_server_not_its_mode() {
    let app_req = |tb: &Testbed, have, want| InpMessage::AppReq {
        app_id: tb.app_id,
        protocols: vec![ProtocolId::Gzip],
        payload: encode_app_payload(CONTENT_ID, have, want),
    };
    for (mode, cold, one_back, two_back) in [
        (AdaptiveContentMode::Proactive, false, false, true),
        (AdaptiveContentMode::Reactive, true, true, true),
    ] {
        let tb = Testbed::case_study(mode);
        for fill in [1u8, 2, 3] {
            tb.server.publish(CONTENT_ID, vec![fill; 4_000]);
        }
        let service = InpService { proxy: &tb.proxy, server: &tb.server, pad_repo: &tb.pad_repo };
        let mut conn = ServiceConn::new();
        assert!(!conn.computed_on_request(), "nothing served yet");
        for (have, want, expected) in
            [(None, 0, cold), (Some(1), 2, one_back), (Some(0), 2, two_back), (None, 2, cold)]
        {
            service.on_message(&mut conn, &app_req(&tb, have, want)).unwrap();
            assert_eq!(
                conn.computed_on_request(),
                expected,
                "{mode:?}: have {have:?}, want {want}"
            );
        }
    }
}

/// After a handoff rewind the connection awaits a fresh `INIT_REQ`, and
/// the old generation's negotiation frames still on the wire are dropped
/// (no reply, no error, no state change) — while kinds a client never
/// sends stay typed rejections.
#[test]
fn rewound_connection_drops_stale_negotiation_frames() {
    let fx = Fixture::new();
    let (init_req, cli_meta_rep) = (&fx.init_req(), &fx.cli_meta_rep());
    for state in ["AwaitInit", "AwaitMetaRep", "Negotiated"] {
        let mut conn = fx.conn_at(state);
        conn.rewind();
        assert_eq!(conn.state_name(), "AwaitInit", "rewound from {state}");
        // The old generation's Cli_META_REP arrives before the new INIT_REQ.
        assert!(fx.service().on_message(&mut conn, cli_meta_rep).unwrap().is_empty());
        assert_eq!(conn.state_name(), "AwaitInit");
        assert_eq!(fx.service().on_message(&mut conn, init_req).unwrap().len(), 2);
        // ... and so does a second INIT_REQ behind the one that was served.
        assert!(fx.service().on_message(&mut conn, init_req).unwrap().is_empty());
        assert_eq!(conn.state_name(), "AwaitMetaRep");
        assert!(matches!(
            fx.service().on_message(&mut conn, &InpMessage::InitRep),
            Err(SessionError::UnexpectedMessage { .. })
        ));
        // The exchange then completes normally.
        assert_eq!(fx.service().on_message(&mut conn, cli_meta_rep).unwrap().len(), 1);
        assert_eq!(conn.state_name(), "Negotiated");
    }
}

/// Drives the complete Figure 4 exchange between the two halves of the
/// core over serialized bytes, with no reactor and no transport: the core
/// is usable on its own.
#[test]
fn full_exchange_between_the_two_halves_over_serialized_bytes() {
    let fx = Fixture::new();
    let mut session = fx.session_at(SessionPhase::Init, false);
    let mut conn = ServiceConn::new();
    assert!(InpMessage::from_bytes(b"garbage").is_err(), "malformed bytes never reach the core");

    let mut to_service = session.start().unwrap();
    let mut deliveries = 0;
    while !to_service.is_empty() {
        let mut to_client = Vec::new();
        for msg in to_service.drain(..) {
            let on_wire = InpMessage::from_bytes(&msg.to_bytes()).unwrap();
            to_client.extend(fx.service().on_message(&mut conn, &on_wire).unwrap());
        }
        for msg in to_client {
            // The negotiated PADs are gated on the phase: unknown until
            // PAD_META_REP has been processed.
            assert_eq!(
                session.negotiated().is_some(),
                session.phase().index() >= SessionPhase::PadDownload.index(),
            );
            let on_wire = InpMessage::from_bytes(&msg.to_bytes()).unwrap();
            to_service.extend(session.on_message(&on_wire).unwrap());
            deliveries += 1;
        }
    }
    // INIT_REP, Cli_META_REQ, PAD_META_REP, PAD_DOWNLOAD_REP, APP_REP.
    assert_eq!(deliveries, 5);
    assert_eq!(session.phase(), SessionPhase::Done);
    assert_eq!(conn.state_name(), "Negotiated");
    assert_eq!(session.negotiated().unwrap(), fx.pads.as_slice());
    assert_eq!(
        session.client().cached_content(CONTENT_ID).unwrap().bytes,
        fx.tb.server.content(CONTENT_ID, 0).unwrap()
    );
}
