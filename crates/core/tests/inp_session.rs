//! Exhaustive transition coverage for both halves of the sans-IO INP
//! core: on the client side ([`InpSession`]) every phase × every message
//! kind, on the service side ([`InpService`] + [`ServiceConn`]) every
//! connection state × every message kind, either advances the protocol,
//! drops a duplicate or stale frame, or returns a typed [`SessionError`] —
//! never a panic, and neither a drop nor a rejection changes the
//! receiver's state.

use bytes::Bytes;
use fractal_core::inp::{Dropped, InpMessage};
use fractal_core::meta::{AppId, PadId, PadMeta};
use fractal_core::presets::ClientClass;
use fractal_core::reactor::{
    decode_app_payload, encode_app_payload, InpService, InpSession, Received, ServiceConn,
    SessionError, SessionPhase,
};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_protocols::ProtocolId;

const CONTENT_ID: u32 = 0;
const CLASS: ClientClass = ClientClass::PdaBluetooth;
const DUP: Result<Received, SessionError> = Ok(Received::Dropped(Dropped::Dup));
const STALE: Result<Received, SessionError> = Ok(Received::Dropped(Dropped::Stale));

/// The replies of a message that was acted on.
fn replies(result: Result<Received, SessionError>) -> Vec<InpMessage> {
    match result {
        Ok(Received::Replies(replies)) => replies,
        other => panic!("expected the message to be acted on, got {other:?}"),
    }
}

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

    fn app_req(&self) -> InpMessage {
        InpMessage::AppReq {
            app_id: self.tb.app_id,
            protocols: vec![self.pads[0].protocol],
            payload: encode_app_payload(CONTENT_ID, None, 0),
        }
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
            self.app_req(),
            self.app_rep(),
        ]
    }

    fn service(&self) -> InpService<'_> {
        InpService { proxy: &self.tb.proxy, server: &self.tb.server, pad_repo: &self.tb.pad_repo }
    }

    /// A fresh service-side connection driven with real generation-0
    /// messages up to the named state.
    fn conn_at(&self, state: &str) -> ServiceConn {
        let mut conn = ServiceConn::new();
        for msg in [self.init_req(), self.cli_meta_rep()] {
            if conn.state_name() == state {
                break;
            }
            replies(self.service().on_message(&mut conn, 0, &msg));
        }
        assert_eq!(conn.state_name(), state);
        conn
    }

    /// A fresh session driven with real generation-0 messages up to
    /// `phase`. `acked` distinguishes the two sub-states of `MetaExchange`.
    fn session_at(&self, phase: SessionPhase, acked: bool) -> InpSession {
        let mut s = InpSession::new(self.tb.client(CLASS), self.tb.app_id, CONTENT_ID, 0);
        if phase == SessionPhase::Init {
            return s;
        }
        s.start().unwrap();
        if phase == SessionPhase::MetaExchange && !acked {
            return s;
        }
        let script = [
            (SessionPhase::MetaExchange, InpMessage::InitRep),
            (SessionPhase::PathSearch, InpMessage::CliMetaReq),
            (SessionPhase::PadDownload, self.pad_meta_rep()),
            (SessionPhase::Sessioning, self.pad_download_rep()),
            (SessionPhase::Done, self.app_rep()),
        ];
        for (reached, msg) in script {
            replies(s.on_message(0, &msg));
            if phase == reached {
                return s;
            }
        }
        s.abort(SessionError::AlreadyStarted); // arbitrary terminal error
        assert_eq!(phase, SessionPhase::Failed);
        s
    }
}

/// Every (phase, message-kind) pair: the kind the phase awaits advances,
/// and delivered again it is a duplicate, dropped with the phase left
/// where the first delivery put it; a reply the session already answered
/// in this generation is a duplicate too; everything else returns a typed
/// error and leaves the phase exactly as it was.
#[test]
fn every_phase_times_every_message_kind() {
    let fx = Fixture::new();
    let answered = ["INIT_REP", "Cli_META_REQ", "PAD_META_REP", "PAD_DOWNLOAD_REP", "APP_REP"];
    // (phase, acked, the kind it accepts, how many replies it has answered)
    let matrix: &[(SessionPhase, bool, Option<&str>, usize)] = &[
        (SessionPhase::Init, false, None, 0),
        (SessionPhase::MetaExchange, false, Some("INIT_REP"), 0),
        (SessionPhase::MetaExchange, true, Some("Cli_META_REQ"), 1),
        (SessionPhase::PathSearch, false, Some("PAD_META_REP"), 2),
        (SessionPhase::PadDownload, false, Some("PAD_DOWNLOAD_REP"), 3),
        (SessionPhase::Sessioning, false, Some("APP_REP"), 4),
        (SessionPhase::Done, false, None, 5),
        (SessionPhase::Failed, false, None, 5),
    ];
    for &(phase, acked, accepted, n_answered) in matrix {
        for msg in fx.all_kinds() {
            let mut s = fx.session_at(phase, acked);
            assert_eq!(s.phase(), phase);
            let at = format!("{phase:?} (acked={acked}) × {}", msg.name());
            let result = s.on_message(0, &msg);
            if accepted == Some(msg.name()) {
                replies(result);
                let after = s.phase();
                assert_eq!(s.on_message(0, &msg), DUP, "{at}: its duplicate is dropped");
                assert_eq!(s.phase(), after, "{at}: a duplicate must not move the phase");
            } else if answered[..n_answered].contains(&msg.name()) {
                assert_eq!(result, DUP, "{at}");
                assert_eq!(s.phase(), phase, "{at}: a duplicate must not move the phase");
            } else {
                let err = result.expect_err(&format!("{at} must be rejected"));
                assert!(matches!(err, SessionError::UnexpectedMessage { .. }), "{at} → {err:?}");
                assert_eq!(s.phase(), phase, "{at}: rejection must not move the phase");
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
fn duplicate_init_rep_is_dropped_after_ack() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::MetaExchange, true);
    assert_eq!(s.on_message(0, &InpMessage::InitRep), DUP);
    assert_eq!(s.phase(), SessionPhase::MetaExchange);
    // The proper continuation still works after the dropped duplicate.
    assert_eq!(replies(s.on_message(0, &InpMessage::CliMetaReq)).len(), 1);
    assert_eq!(s.phase(), SessionPhase::PathSearch);
}

/// A reorder is not a duplicate: `Cli_META_REQ` before `INIT_REP` answers
/// nothing yet, so it is a typed failure (a retry layer would resend).
#[test]
fn cli_meta_req_before_init_rep_is_unexpected() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::MetaExchange, false);
    let err = s.on_message(0, &InpMessage::CliMetaReq).unwrap_err();
    assert_eq!(
        err,
        SessionError::UnexpectedMessage { phase: "MetaExchange", message: "Cli_META_REQ" }
    );
    assert_eq!(s.phase(), SessionPhase::MetaExchange);
}

/// A warm client takes the Figure 4 fast path: its protocol cache and
/// deployed PAD skip negotiation and download, so `start` emits `APP_REQ`
/// at once. It never sent an `INIT_REQ` in its generation, so an
/// `INIT_REP` answers nothing — a typed failure, not a dropped duplicate.
#[test]
fn warm_client_takes_the_fast_path() {
    let fx = Fixture::new();
    fx.tb.server.publish(1, vec![9u8; 3_000]);
    let client = fx.session_at(SessionPhase::Done, false).into_client();
    let mut warm = InpSession::new(client, fx.tb.app_id, 1, 0);
    let opening = warm.start().unwrap();
    assert_eq!(warm.phase(), SessionPhase::Sessioning);
    let [InpMessage::AppReq { protocols, payload, .. }] = opening.as_slice() else {
        panic!("the fast path must emit APP_REQ alone, got {opening:?}");
    };
    assert_eq!(decode_app_payload(payload).unwrap(), (1, None, 0));
    assert_eq!(warm.start().unwrap_err(), SessionError::AlreadyStarted);
    let err = warm.on_message(0, &InpMessage::InitRep).unwrap_err();
    assert_eq!(err, SessionError::UnexpectedMessage { phase: "Sessioning", message: "INIT_REP" });

    let resp = fx.tb.server.respond(1, None, 0, protocols[0]).unwrap();
    let (protocol, payload) = (resp.protocol, resp.payload);
    let rep = InpMessage::AppRep { content_id: 1, version: 0, protocol, payload };
    assert!(replies(warm.on_message(0, &rep)).is_empty());
    assert_eq!(warm.phase(), SessionPhase::Done);
    let client = warm.into_client();
    assert_eq!(client.stats().negotiations, 1, "no re-negotiation");
    assert_eq!(client.cached_content(1).unwrap().bytes, fx.tb.server.content(1, 0).unwrap());
}

#[test]
fn unknown_pad_download_rejected_without_phase_change() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::PadDownload, false);
    let bogus = InpMessage::PadDownloadRep { pad_id: PadId(999), bytes: Bytes::new() };
    assert_eq!(s.on_message(0, &bogus).unwrap_err(), SessionError::UnexpectedPad(PadId(999)));
    assert_eq!(s.phase(), SessionPhase::PadDownload);
    // The real download still completes the phase.
    replies(s.on_message(0, &fx.pad_download_rep()));
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
        s.on_message(0, &wrong).unwrap_err(),
        SessionError::WrongContent { expected: CONTENT_ID, got: CONTENT_ID + 9 }
    );
    assert_eq!(s.phase(), SessionPhase::Sessioning);
    // The right reply still lands.
    replies(s.on_message(0, &fx.app_rep()));
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
    let tampered = InpMessage::PadDownloadRep { pad_id: id, bytes: bytes.into() };
    let err = s.on_message(0, &tampered).unwrap_err();
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
    let err = s.on_message(0, &garbage).unwrap_err();
    assert!(matches!(err, SessionError::Fractal(_)), "{err:?}");
    assert_eq!(s.phase(), SessionPhase::Failed);
}

#[test]
fn empty_pad_meta_rep_fails_with_no_feasible_path() {
    let fx = Fixture::new();
    let mut s = fx.session_at(SessionPhase::PathSearch, false);
    let err = s.on_message(0, &InpMessage::PadMetaRep { pads: vec![] }).unwrap_err();
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
    let err = s.on_message(0, &InpMessage::InitRep).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("INIT_REP") && text.contains("Init"), "{text}");
    assert!(SessionError::UnexpectedPad(PadId(4)).to_string().contains('4'));
    assert!(SessionError::WrongContent { expected: 1, got: 2 }.to_string().contains("expected 1"));
    assert_eq!(AppId(1), fx.tb.app_id);
}

/// The service side of the same discipline. The proxy leg advances on
/// exactly one kind per state, and that kind delivered again is a
/// dropped duplicate, as is any proxy-leg request the state has already
/// answered; a `Cli_META_REP` before `INIT_REQ` and kinds only a service
/// ever sends are rejected everywhere. PAD downloads and application
/// requests are served in every state without moving it — duplicates
/// included: serving them again is what a retry needs.
#[test]
fn every_connection_state_times_every_message_kind() {
    let fx = Fixture::new();
    let matrix: [(&str, &str, &str, usize, &[&str]); 3] = [
        ("AwaitInit", "INIT_REQ", "AwaitMetaRep", 2, &[]),
        ("AwaitMetaRep", "Cli_META_REP", "Negotiated", 1, &["INIT_REQ"]),
        ("Negotiated", "(nothing)", "Negotiated", 0, &["INIT_REQ", "Cli_META_REP"]),
    ];
    for (state, advances_on, next, n_replies, answered) in matrix {
        for msg in fx.all_kinds() {
            let mut conn = fx.conn_at(state);
            let result = fx.service().on_message(&mut conn, 0, &msg);
            let at = format!("{state} × {}", msg.name());
            match msg.name() {
                name if name == advances_on => {
                    assert_eq!(replies(result).len(), n_replies, "{at}");
                    assert_eq!(conn.state_name(), next, "{at}");
                    assert_eq!(fx.service().on_message(&mut conn, 0, &msg), DUP, "{at} again");
                    assert_eq!(conn.state_name(), next, "{at}: a duplicate must not move it");
                }
                "PAD_DOWNLOAD_REQ" | "APP_REQ" => {
                    assert_eq!(replies(result).len(), 1, "{at}");
                    let again = fx.service().on_message(&mut conn, 0, &msg);
                    assert_eq!(replies(again).len(), 1, "{at}: a duplicate is served again");
                    assert_eq!(conn.state_name(), state, "{at}: serving must not move the state");
                }
                name if answered.contains(&name) => {
                    assert_eq!(result, DUP, "{at}");
                    assert_eq!(conn.state_name(), state, "{at}: a duplicate must not move it");
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
        .on_message(&mut conn, 0, &InpMessage::PadDownloadReq { pad_id: PadId(999) })
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
    let err = fx.service().on_message(&mut conn, 0, &garbage).unwrap_err();
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
            replies(service.on_message(&mut conn, 0, &app_req(&tb, have, want)));
            assert_eq!(
                conn.computed_on_request(),
                expected,
                "{mode:?}: have {have:?}, want {want}"
            );
        }
    }
}

/// A handoff reaches the service as an `INIT_REQ` of the next generation:
/// whatever state the connection is in, it restarts negotiation there, and
/// from then on the old generation's frames still on the wire are stale —
/// dropped, no reply, no state change — while the new generation's
/// duplicates are dropped and kinds a client never sends stay typed
/// rejections.
#[test]
fn a_later_generation_rewinds_the_connection_and_stales_the_old_one() {
    let fx = Fixture::new();
    let (init_req, cli_meta_rep) = (&fx.init_req(), &fx.cli_meta_rep());
    for state in ["AwaitInit", "AwaitMetaRep", "Negotiated"] {
        let mut conn = fx.conn_at(state);
        assert_eq!(replies(fx.service().on_message(&mut conn, 1, init_req)).len(), 2, "{state}");
        assert_eq!(conn.state_name(), "AwaitMetaRep", "rewound from {state}");
        // The old generation's frames behind the new INIT_REQ.
        assert_eq!(fx.service().on_message(&mut conn, 0, cli_meta_rep), STALE);
        assert_eq!(fx.service().on_message(&mut conn, 0, init_req), STALE);
        assert_eq!(fx.service().on_message(&mut conn, 0, &fx.app_req()), STALE);
        // A second INIT_REQ of the new generation is a duplicate.
        assert_eq!(fx.service().on_message(&mut conn, 1, init_req), DUP);
        assert_eq!(conn.state_name(), "AwaitMetaRep");
        assert!(matches!(
            fx.service().on_message(&mut conn, 1, &InpMessage::InitRep),
            Err(SessionError::UnexpectedMessage { .. })
        ));
        // The exchange then completes normally in the new generation.
        assert_eq!(replies(fx.service().on_message(&mut conn, 1, cli_meta_rep)).len(), 1);
        assert_eq!(conn.state_name(), "Negotiated");
    }
}

/// After a handoff, a frame stamped with a generation that is neither the
/// one before the handoff (stale) nor the one after it (open) is a typed
/// violation on either side — it was never opened — and leaves the
/// receiver as it was.
#[test]
fn after_a_handoff_a_frame_from_neither_generation_is_a_violation() {
    let fx = Fixture::new();
    // Client: handed off in PathSearch, so generation 0 → 1.
    let mut s = fx.session_at(SessionPhase::PathSearch, false);
    let opening = s.renegotiate(ClientClass::LaptopWlan.env().ntwk).unwrap();
    assert_eq!((s.generation(), opening[0].name()), (1, "INIT_REQ"));
    assert_eq!(s.on_message(0, &InpMessage::InitRep), STALE, "the old generation");
    assert_eq!(s.on_message(0, &fx.pad_meta_rep()), STALE, "the old generation");
    let err = s.on_message(2, &InpMessage::InitRep).unwrap_err();
    assert_eq!(err, SessionError::UnexpectedMessage { phase: "MetaExchange", message: "INIT_REP" });
    assert_eq!(s.phase(), SessionPhase::MetaExchange);
    replies(s.on_message(1, &InpMessage::InitRep));

    // Service: negotiated in generation 0, then the handoff's INIT_REQ.
    let mut conn = fx.conn_at("Negotiated");
    replies(fx.service().on_message(&mut conn, 1, &fx.init_req()));
    for msg in [fx.cli_meta_rep(), fx.app_req()] {
        let err = fx.service().on_message(&mut conn, 2, &msg).unwrap_err();
        assert!(matches!(err, SessionError::UnexpectedMessage { .. }), "{err:?}");
        assert_eq!(conn.state_name(), "AwaitMetaRep");
    }
    replies(fx.service().on_message(&mut conn, 1, &fx.cli_meta_rep()));
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
            to_client.extend(replies(fx.service().on_message(&mut conn, 0, &on_wire)));
        }
        for msg in to_client {
            // The negotiated PADs are gated on the phase: unknown until
            // PAD_META_REP has been processed.
            assert_eq!(
                session.negotiated().is_some(),
                session.phase().index() >= SessionPhase::PadDownload.index(),
            );
            let on_wire = InpMessage::from_bytes(&msg.to_bytes()).unwrap();
            to_service.extend(replies(session.on_message(0, &on_wire)));
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
