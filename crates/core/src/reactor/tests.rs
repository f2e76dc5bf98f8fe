use super::*;
use crate::error::{FractalError, WireError};
use crate::fault::FaultPlan;
use crate::meta::AppId;
use crate::presets::ClientClass;
use crate::server::AdaptiveContentMode;
use crate::testbed::Testbed;
use crate::transport::{LoopbackTransport, DEFAULT_CAPACITY};
use fractal_net::LinkKind;

fn content(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i / 5) as u8).wrapping_mul(seed).wrapping_add(seed)).collect()
}

/// A pair that loses every chunk put on it, as if the transport dropped
/// `INIT_REQ`: the session behind it never progresses, and `run` must
/// report [`ReactorStalled`] — the deadlock-diagnostic path the CI smoke
/// timeout depends on.
fn lossy_pair() -> TransportPair {
    FaultPlan::new(7).with_drop(1000).wrap_pair(LoopbackTransport::pair(4096)).0
}

/// A default-capacity pair over `link`, or untimed.
fn pair_over(link: Option<LinkKind>) -> TransportPair {
    match link {
        Some(kind) => LoopbackTransport::over(kind.link(), DEFAULT_CAPACITY),
        None => LoopbackTransport::pair(DEFAULT_CAPACITY),
    }
}

fn testbed_with_pages(n: u32) -> Testbed {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    for id in 0..n {
        tb.server.publish(id, content(id as u8 + 1, 9_000));
    }
    tb
}

/// A private bundle on a virtual clock advancing `tick` ns per read.
fn virtual_bundle(tick: u64) -> fractal_telemetry::Telemetry {
    use fractal_telemetry::{Registry, Telemetry, VirtualClock};
    Telemetry::new(Arc::new(Registry::new()), VirtualClock::shared(tick))
}

#[test]
fn one_session_completes_end_to_end() {
    let tb = testbed_with_pages(1);
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    let id = reactor.spawn(InpSession::new(tb.client(ClientClass::PdaBluetooth), tb.app_id, 0, 0));
    let report = reactor.run().unwrap();
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0);
    let session = reactor.session(id);
    assert_eq!(session.phase(), SessionPhase::Done);
    let got = session.client().cached_content(0).expect("content stored");
    assert_eq!(got.bytes, tb.server.content(0, 0).unwrap());
}

#[test]
fn many_sessions_complete_over_one_shared_pair() {
    const N: u32 = 32;
    let tb = testbed_with_pages(N);
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    for i in 0..N {
        let class = ClientClass::ALL[i as usize % 3];
        reactor.spawn(InpSession::new(tb.client(class), tb.app_id, i, 0));
    }
    assert_eq!(reactor.in_flight(), N as usize, "all sessions live before polling");
    let report = reactor.run().unwrap();
    assert_eq!(report.completed, N as usize);
    assert_eq!(report.peak_in_flight, N as usize);
    // Every session decoded its own page through the shared server.
    for (i, s) in reactor.into_sessions().into_iter().enumerate() {
        let client = s.into_client();
        assert_eq!(
            client.cached_content(i as u32).unwrap().bytes,
            tb.server.content(i as u32, 0).unwrap(),
            "session {i}"
        );
    }
}

#[test]
fn reactor_decisions_match_direct_negotiation() {
    let tb = testbed_with_pages(3);
    let oracle_tb = testbed_with_pages(3);
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    let ids: Vec<_> = ClientClass::ALL
        .iter()
        .map(|&c| reactor.spawn(InpSession::new(tb.client(c), tb.app_id, 0, 0)))
        .collect();
    reactor.run().unwrap();
    for (&id, &class) in ids.iter().zip(ClientClass::ALL.iter()) {
        let expect = oracle_tb.proxy.negotiate(oracle_tb.app_id, class.env()).unwrap();
        assert_eq!(reactor.session(id).negotiated().unwrap(), expect.as_slice(), "{class}");
    }
}

#[test]
fn timed_link_sessions_complete_with_the_same_decisions() {
    let tb = testbed_with_pages(3);
    // Oracle: the same classes over the untimed loopback.
    let loop_tb = testbed_with_pages(3);
    let mut oracle = Reactor::new(&loop_tb.proxy, &loop_tb.server, &loop_tb.pad_repo);
    let oracle_ids: Vec<_> = ClientClass::ALL
        .iter()
        .map(|&c| oracle.spawn(InpSession::new(loop_tb.client(c), loop_tb.app_id, 0, 0)))
        .collect();
    oracle.run().unwrap();

    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    let ids: Vec<_> = ClientClass::ALL
        .iter()
        .map(|&c| {
            let session = InpSession::new(tb.client(c), tb.app_id, 0, 0);
            reactor.spawn_on(session, pair_over(Some(LinkKind::Bluetooth)))
        })
        .collect();
    let report = reactor.run().unwrap();
    assert_eq!(report.failed, 0);
    for (&id, &oid) in ids.iter().zip(oracle_ids.iter()) {
        assert_eq!(
            reactor.session(id).negotiated().unwrap(),
            oracle.session(oid).negotiated().unwrap(),
            "byte-gated delivery must not change adaptation decisions"
        );
        // The simulated wire clock moved: negotiation took real link
        // time and the session finished after it.
        let times = reactor.transport_times(id);
        let negotiated = times.negotiated_us.expect("cold session negotiates");
        let done = times.done_us.expect("session finished");
        assert!(negotiated > 0, "negotiation costs link time");
        assert!(done > negotiated, "PAD download + app exchange cost more");
        // Loopback sessions report zero wire time.
        assert_eq!(oracle.transport_times(oid).done_us, Some(0));
    }
}

#[test]
fn timed_link_wire_times_are_deterministic_and_link_ordered() {
    let time_for = |kind: LinkKind| {
        let tb = testbed_with_pages(1);
        let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
        let session = InpSession::new(tb.client(ClientClass::PdaBluetooth), tb.app_id, 0, 0);
        let id = reactor.spawn_on(session, pair_over(Some(kind)));
        reactor.run().unwrap();
        reactor.transport_times(id).done_us.unwrap()
    };
    assert_eq!(time_for(LinkKind::Wlan), time_for(LinkKind::Wlan), "deterministic");
    assert!(
        time_for(LinkKind::Lan) < time_for(LinkKind::Wlan)
            && time_for(LinkKind::Wlan) < time_for(LinkKind::Bluetooth),
        "slower links take longer in simulated time"
    );
}

#[test]
fn tiny_window_forces_backpressure_but_sessions_still_complete() {
    let tb = testbed_with_pages(2);
    // A 64-byte window: every PAD frame (multi-KB) crosses in dozens
    // of partial writes and the send queues are exercised hard.
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    for i in 0..2u32 {
        let session = InpSession::new(tb.client(ClientClass::LaptopWlan), tb.app_id, i, 0);
        reactor.spawn_on(session, LoopbackTransport::pair(64));
    }
    assert!(reactor.queued_frames() > 0, "openings queue behind the tiny window");
    let report = reactor.run().unwrap();
    assert_eq!(report.completed, 2);
    assert_eq!(reactor.queued_frames(), 0, "queues drain by completion");
}

#[test]
fn unknown_app_fails_session_with_typed_error() {
    let tb = testbed_with_pages(1);
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    let id = reactor.spawn(InpSession::new(tb.client(ClientClass::DesktopLan), AppId(99), 0, 0));
    let report = reactor.run().unwrap();
    assert_eq!(report.failed, 1);
    assert!(matches!(
        reactor.session(id).error(),
        Some(InpError::Session(SessionError::Fractal(FractalError::UnknownApp(AppId(99)))))
    ));
}

#[test]
fn missing_pad_fails_session_not_reactor() {
    let tb = testbed_with_pages(1);
    tb.pad_repo.clear();
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    let id = reactor.spawn(InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0));
    let report = reactor.run().unwrap();
    assert_eq!(report.failed, 1);
    assert!(matches!(
        reactor.session(id).error(),
        Some(InpError::Session(SessionError::Fractal(FractalError::PadUnavailable(_))))
    ));
}

#[test]
fn stale_delivery_to_failed_session_keeps_root_cause() {
    let tb = testbed_with_pages(1);
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    let id = reactor.spawn(InpSession::new(tb.client(ClientClass::PdaBluetooth), tb.app_id, 0, 0));
    // spawn() queued the framed INIT_REQ; it has not crossed yet.
    assert!(reactor.pending_frames(id) > 0, "spawn queues the opening frame");
    // The transport fails the session while that frame is in flight
    // (e.g. a later leg could not be served).
    let root = InpError::Session(SessionError::Fractal(FractalError::PadUnavailable(
        crate::meta::PadId(7),
    )));
    reactor.slots[id].session.abort(root.clone());
    // Draining must tear the pipe down — not pump the stale frame
    // through and overwrite the root cause with
    // UnexpectedMessage{phase: "Failed"}.
    let report = reactor.run().unwrap();
    assert_eq!(report.failed, 1);
    assert_eq!(reactor.pending_frames(id), 0, "stale frames dropped");
    assert!(reactor.slots[id].legs[CLIENT].end.is_closed(), "pair closed on teardown");
    assert_eq!(reactor.session(id).error(), Some(&root));
}

#[test]
fn lost_opening_is_reported_as_stall_not_hang() {
    let tb = testbed_with_pages(2);
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    reactor.spawn(InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0));
    let stuck_id = reactor.spawn_on(
        InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 1, 0),
        lossy_pair(),
    );
    let InpError::Stalled(err) = reactor.run().unwrap_err() else {
        panic!("quiescent live session must surface as InpError::Stalled");
    };
    assert_eq!(err.stuck.len(), 1);
    assert_eq!(err.stuck[0].id, stuck_id);
    assert_eq!(err.stuck[0].phase, "MetaExchange");
    // The diagnostic says where the stuck session's time went: it
    // visited Init and then sat in MetaExchange until stall detection.
    let phases: Vec<&str> = err.stuck[0].phase_ns.iter().map(|(n, _)| *n).collect();
    assert!(phases.contains(&"MetaExchange"), "{phases:?}");
    assert!(err.to_string().contains("MetaExchange"));
    assert!(err.to_string().contains("ns"));
    // The healthy session still completed.
    assert_eq!(reactor.session(0).phase(), SessionPhase::Done);
}

#[test]
fn stall_report_carries_deterministic_phase_timings_under_virtual_clock() {
    let tb = testbed_with_pages(1);
    let mut reactor = tb.reactor_with(ReactorConfig::new().telemetry(&virtual_bundle(100)));
    let id = reactor.spawn_on(
        InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0),
        lossy_pair(),
    );
    let InpError::Stalled(err) = reactor.run().unwrap_err() else {
        panic!("lossy spawn must stall");
    };
    assert_eq!(err.stuck[0].id, id);
    // Virtual clock: spawn reads t=0, the Init→MetaExchange sync reads
    // t=100, stall detection reads t=200 — Init gets 100 ns, the stuck
    // MetaExchange gets 100 ns, every run.
    assert_eq!(err.stuck[0].phase_ns, vec![("Init", 100), ("MetaExchange", 100)]);
}

#[test]
fn phase_timings_cover_all_five_phases_for_a_cold_session() {
    let tb = testbed_with_pages(1);
    let mut reactor = tb.reactor_with(ReactorConfig::new().telemetry(&virtual_bundle(10)));
    let id = reactor.spawn(InpSession::new(tb.client(ClientClass::PdaBluetooth), tb.app_id, 0, 0));
    reactor.run().unwrap();
    let timings = reactor.phase_timings(id);
    let names: Vec<&str> = timings.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        ["Init", "MetaExchange", "PathSearch", "PadDownload", "Sessioning"],
        "a cold session visits every timed phase"
    );
    assert!(timings.iter().all(|&(_, ns)| ns > 0));
}

#[test]
fn checked_framing_completes_sessions_end_to_end() {
    const N: u32 = 4;
    let tb = testbed_with_pages(N);
    let mut reactor = tb.reactor_with(ReactorConfig::new().frame_checksums());
    for i in 0..N {
        let class = ClientClass::ALL[i as usize % 3];
        reactor.spawn(InpSession::new(tb.client(class), tb.app_id, i, 0));
    }
    let report = reactor.run().unwrap();
    assert_eq!((report.completed, report.failed), (N as usize, 0));
}

#[test]
fn corrupted_frames_fail_sessions_with_typed_errors_never_silently() {
    use crate::transport::FrameError;
    const N: usize = 8;
    let tb = testbed_with_pages(N as u32);
    let mut reactor = tb.reactor_with(ReactorConfig::new().frame_checksums());
    let plan = FaultPlan::new(0xC0FFEE).with_corrupt(400);
    let mut ids = Vec::new();
    for i in 0..N {
        let (pair, _log) = plan.for_session(i as u64).wrap_pair(LoopbackTransport::pair(4096));
        let class = ClientClass::ALL[i % 3];
        ids.push(reactor.spawn_on(InpSession::new(tb.client(class), tb.app_id, i as u32, 0), pair));
    }
    // A corrupted length byte can leave a frame forever incomplete —
    // that surfaces as a typed stall, which is also acceptable.
    match reactor.run() {
        Ok(_) | Err(InpError::Stalled(_)) => {}
        Err(e) => panic!("only typed completion or stall allowed, got {e}"),
    }
    let mut caught = 0;
    for &id in &ids {
        match reactor.session(id).phase() {
            SessionPhase::Done => {
                // Completed despite the adversary: content must be exact.
                assert_eq!(
                    reactor.session(id).client().cached_content(id as u32).unwrap().bytes,
                    tb.server.content(id as u32, 0).unwrap(),
                    "session {id} completed with corrupted content"
                );
            }
            SessionPhase::Failed => {
                let err = reactor.session(id).error().expect("typed error");
                if matches!(err, InpError::Frame(FrameError::Corrupt { .. })) {
                    caught += 1;
                }
            }
            _ => {} // protocol-stuck after a length-byte flip: typed stall above
        }
    }
    assert!(caught > 0, "40% corruption must trip the checksum at least once");
}

#[test]
fn app_payload_round_trip() {
    for have in [None, Some(0), Some(7)] {
        let bytes = encode_app_payload(42, have, 9);
        assert_eq!(decode_app_payload(&bytes).unwrap(), (42, have, 9));
    }
    assert!(decode_app_payload(&[1, 2]).is_err());
    let mut bad = encode_app_payload(1, None, 2);
    bad.push(0);
    assert_eq!(decode_app_payload(&bad), Err(WireError::TrailingBytes));
}

#[test]
fn journal_records_full_phase_chain_per_session_deterministically() {
    let run_once = || {
        let tb = testbed_with_pages(2);
        let bundle = virtual_bundle(1).with_journal(256);
        let mut reactor = tb.reactor_with(ReactorConfig::new().telemetry(&bundle));
        for i in 0..2u32 {
            reactor.spawn(InpSession::new(tb.client(ClientClass::LaptopWlan), tb.app_id, i, 0));
        }
        reactor.run().unwrap();
        bundle.journal_snapshot()
    };
    let snap = run_once();
    assert_eq!(snap.render(), run_once().render(), "same event order ⇒ byte-identical trace");
    assert_eq!(snap.sessions(), vec![0, 1], "slot-id labels by default");
    for session in 0..2u64 {
        let tail = snap.tail(session, 16);
        let kinds: Vec<&str> = tail.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "phase:Init",
                "phase:MetaExchange",
                "phase:PathSearch",
                "phase:PadDownload",
                "phase:Sessioning",
                "phase:Done"
            ],
            "session {session}"
        );
    }
}

#[test]
fn stall_report_carries_queue_depth_and_recent_events() {
    let tb = testbed_with_pages(1);
    let bundle = virtual_bundle(100).with_journal(64);
    let mut reactor = tb.reactor_with(ReactorConfig::new().telemetry(&bundle));
    let id = reactor.spawn_on(
        InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0),
        lossy_pair(),
    );
    let InpError::Stalled(err) = reactor.run().unwrap_err() else {
        panic!("lossy spawn must stall");
    };
    assert_eq!(err.stuck[0].id, id);
    // The opening frame left the queue and was lost on the wire:
    // protocol-stuck, not transport-starved.
    assert_eq!(err.stuck[0].queue_depth, 0);
    let kinds: Vec<&str> = err.stuck[0].recent.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(kinds, ["phase:Init", "phase:MetaExchange", "stall:mark"]);
    let rendered = err.to_string();
    assert!(rendered.contains("q=0"), "{rendered}");
    assert!(rendered.contains("stall:mark"), "{rendered}");
}

#[test]
fn journal_recording_is_optional_and_absent_by_default() {
    let tb = testbed_with_pages(1);
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    let id = reactor.spawn_on(
        InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0),
        lossy_pair(),
    );
    let InpError::Stalled(err) = reactor.run().unwrap_err() else {
        panic!("lossy spawn must stall");
    };
    assert_eq!(err.stuck[0].id, id);
    assert!(err.stuck[0].recent.is_empty(), "no journal ⇒ no causal tail");
}

#[test]
fn report_reconcile_rejects_a_registry_that_recorded_nothing() {
    let empty = fractal_telemetry::Snapshot::default();
    let report = ReactorReport { completed: 2, failed: 0, polls: 9, peak_in_flight: 2 };
    let err = report.reconcile(&empty).unwrap_err();
    assert!(err.contains("fractal_reactor_completed_total = 0, report says 2"), "{err}");
    assert!(ReactorReport::default().reconcile(&empty).is_ok(), "nothing ran, nothing recorded");
}
