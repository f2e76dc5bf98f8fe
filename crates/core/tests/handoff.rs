//! The receive rule through the reactor: a mobility handoff renegotiates
//! against the new environment while the old generation's frames drain as
//! stale drops, and a link that duplicates frames costs drops, never
//! sessions. Every drop is counted in the registry and journaled.

use std::sync::Arc;

use fractal_core::error::InpError;
use fractal_core::fault::FaultPlan;
use fractal_core::reactor::{
    InpSession, ReactorConfig, SessionError, SessionPhase, DROPPED_METRICS,
};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_core::transport::{LoopbackTransport, TransportPair, DEFAULT_CAPACITY};
use fractal_core::ClientClass;
use fractal_net::LinkKind;
use fractal_telemetry::{Registry, Telemetry, VirtualClock};

fn testbed_with_pages(n: u32) -> Testbed {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    for id in 0..n {
        let seed = id as u8 + 1;
        let page = (0..9_000).map(|i| ((i / 5) as u8).wrapping_mul(seed).wrapping_add(seed));
        tb.server.publish(id, page.collect::<Vec<u8>>());
    }
    tb
}

/// A default-capacity pair over `link`, or untimed.
fn pair_over(link: Option<LinkKind>) -> TransportPair {
    match link {
        Some(kind) => LoopbackTransport::over(kind.link(), DEFAULT_CAPACITY),
        None => LoopbackTransport::pair(DEFAULT_CAPACITY),
    }
}

/// A private registry and a journal on a virtual clock.
fn journaled_bundle() -> Telemetry {
    Telemetry::new(Arc::new(Registry::new()), VirtualClock::shared(1)).with_journal(4096)
}

/// `[duplicates, stale frames]` as the registry counted them, checked
/// against the journal's `drop:dup` / `drop:stale` events.
fn drops(bundle: &Telemetry) -> [u64; 2] {
    let (snap, journal) = (bundle.snapshot(), bundle.journal_snapshot());
    let counted = DROPPED_METRICS.map(|name| snap.counters[name]);
    let journaled = ["drop:dup", "drop:stale"]
        .map(|kind| journal.events.iter().filter(|e| e.kind == kind).count() as u64);
    assert_eq!(counted, journaled, "every drop is counted and journaled once");
    counted
}

/// A handoff fired in any live phase, on an untimed or a timed link,
/// renegotiates to the new environment's decision and still delivers the
/// content: whatever the old generation left on the wire — toward the
/// client or toward the service — drains as stale drops, not violations,
/// and nothing is a duplicate.
#[test]
fn handoff_in_every_live_phase_renegotiates_against_the_new_environment_oracle() {
    let new_ntwk = ClientClass::PdaBluetooth.env().ntwk;
    let mut env = ClientClass::LaptopWlan.env();
    env.ntwk = new_ntwk;
    let oracle_tb = testbed_with_pages(1);
    let expect = oracle_tb.proxy.negotiate(oracle_tb.app_id, env).unwrap();
    for link in [None, Some(LinkKind::Bluetooth)] {
        for phase in [
            SessionPhase::MetaExchange,
            SessionPhase::PathSearch,
            SessionPhase::PadDownload,
            SessionPhase::Sessioning,
        ] {
            let at = format!("handoff in {} over {link:?}", phase.name());
            let tb = testbed_with_pages(1);
            let bundle = journaled_bundle();
            let mut reactor = tb.reactor_with(ReactorConfig::new().telemetry(&bundle));
            let session = InpSession::new(tb.client(ClientClass::LaptopWlan), tb.app_id, 0, 0);
            let id = reactor.spawn_on(session, pair_over(link));
            // Drive until the session is in the phase under test, then
            // walk out of WLAN range: the PDA-class Bluetooth link takes
            // over.
            reactor.run_until(|r| r.session(id).phase() == phase).unwrap();
            assert_eq!(reactor.session(id).phase(), phase, "{at}");
            reactor.handoff(id, new_ntwk).unwrap();
            assert_eq!(
                reactor.session(id).phase(),
                SessionPhase::MetaExchange,
                "{at}: rolled back"
            );
            assert_eq!(reactor.session(id).generation(), 1, "{at}");
            let report = reactor.run().unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(
                (report.completed, report.failed),
                (1, 0),
                "{at}: {:?}",
                reactor.session(id).error()
            );
            // The re-negotiated decision matches the serial oracle for
            // the NEW environment, and the content was decoded with the
            // renegotiated protocol.
            assert_eq!(reactor.session(id).negotiated().unwrap(), expect.as_slice(), "{at}");
            // A client that already held the old decision negotiated twice.
            let had_decision =
                matches!(phase, SessionPhase::PadDownload | SessionPhase::Sessioning);
            assert_eq!(
                reactor.session(id).client().stats().negotiations,
                if had_decision { 2 } else { 1 },
                "{at}"
            );
            assert_eq!(
                reactor.session(id).client().cached_content(0).unwrap().bytes,
                tb.server.content(0, 0).unwrap(),
                "{at}"
            );
            // An old-generation request was in flight at the handoff in
            // every phase; its reply reached the client stale.
            let [dups, stale] = drops(&bundle);
            assert_eq!(dups, 0, "{at}");
            assert!(stale > 0, "{at}");
        }
    }
}

#[test]
fn handoff_rejected_on_terminal_or_unstarted_sessions() {
    let tb = testbed_with_pages(1);
    let new_ntwk = ClientClass::PdaBluetooth.env().ntwk;
    let mut done = InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0);
    done.abort(InpError::Session(SessionError::AlreadyStarted));
    assert!(done.renegotiate(new_ntwk).is_err(), "terminal sessions cannot renegotiate");
    let mut fresh = InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0);
    assert!(fresh.renegotiate(new_ntwk).is_err(), "unstarted sessions cannot renegotiate");
}

#[test]
fn journal_uses_caller_labels_and_marks_handoffs() {
    let tb = testbed_with_pages(1);
    let bundle = Telemetry::global().with_journal(128);
    let mut reactor = tb.reactor_with(ReactorConfig::new().telemetry(&bundle));
    let id = reactor.spawn(
        InpSession::new(tb.client(ClientClass::LaptopWlan), tb.app_id, 0, 0).with_label(4711),
    );
    reactor.run_until(|r| r.session(id).phase() == SessionPhase::Sessioning).unwrap();
    reactor.handoff(id, ClientClass::PdaBluetooth.env().ntwk).unwrap();
    reactor.run().unwrap();
    let tail = bundle.journal().unwrap().tail(4711, 32);
    assert!(!tail.is_empty(), "events land under the caller's label");
    let kinds: Vec<&str> = tail.iter().map(|e| e.kind.as_str()).collect();
    assert!(kinds.contains(&"handoff"), "{kinds:?}");
    // The old generation's APP_REP reaches the client after the handoff.
    assert!(kinds.contains(&"drop:stale"), "{kinds:?}");
    // The handoff rolls the phase chain back through MetaExchange.
    assert!(kinds.iter().filter(|k| **k == "phase:MetaExchange").count() >= 2, "{kinds:?}");
    assert_eq!(*kinds.last().unwrap(), "phase:Done");
    // Per-session seq stream is gap-free from 0.
    let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (0..tail.len() as u64).collect::<Vec<_>>());
}

/// A link that delivers every frame twice completes every session: each
/// duplicate is dropped by the receive rule, never a failure. The
/// service answers a duplicated `PAD_DOWNLOAD_REQ` or `APP_REQ` again,
/// and the client drops the extra replies.
#[test]
fn a_link_that_duplicates_every_frame_completes_every_session() {
    const N: u32 = 6;
    let tb = testbed_with_pages(N);
    let bundle = journaled_bundle();
    let mut reactor = tb.reactor_with(ReactorConfig::new().frame_checksums().telemetry(&bundle));
    for i in 0..N {
        // A window above the largest frame: each frame is one send, so
        // each duplicate is a whole frame.
        let plan = FaultPlan::new(7).with_dup(1000).for_session(i as u64);
        let (pair, _log) = plan.wrap_pair(LoopbackTransport::pair(1 << 20));
        let class = ClientClass::ALL[i as usize % 3];
        reactor.spawn_on(InpSession::new(tb.client(class), tb.app_id, i, 0), pair);
    }
    let report = reactor.run().unwrap();
    assert_eq!((report.completed, report.failed), (N as usize, 0));
    for (i, s) in reactor.into_sessions().iter().enumerate() {
        let bytes = &s.client().cached_content(i as u32).unwrap().bytes;
        assert_eq!(bytes, &tb.server.content(i as u32, 0).unwrap(), "session {i}");
    }
    let [dups, stale] = drops(&bundle);
    // At least INIT_REQ, Cli_META_REP, INIT_REP, Cli_META_REQ and
    // PAD_META_REP arrive twice per session.
    assert!(dups >= 5 * N as u64, "{dups}");
    assert_eq!(stale, 0, "no handoff, nothing stale");
}
