//! End-to-end integration: the complete Fractal flow — negotiation, PAD
//! download from the CDN substrate, verification, sandboxed deployment,
//! adapted transfer, mobile-code decode — across crates.

use std::sync::Arc;

use fractal::core::presets::ClientClass;
use fractal::core::reactor::{InpSession, ReactorConfig, PHASE_METRICS};
use fractal::core::server::AdaptiveContentMode;
use fractal::core::session::run_session;
use fractal::core::testbed::Testbed;
use fractal::net::time::SimDuration;
use fractal::protocols::ProtocolId;
use fractal::telemetry::{Registry, Snapshot, Telemetry, VirtualClock};
use fractal::workload::mutate::EditProfile;
use fractal::workload::PageSet;

const PAGES: u32 = 4;

fn publish_pages(tb: &mut Testbed, pages: &PageSet) {
    for p in 0..pages.len() {
        tb.server.publish(p, pages.original(p).to_bytes());
        tb.server.publish(p, pages.version(p, 1, EditProfile::Localized).to_bytes());
    }
}

#[test]
fn every_client_class_completes_sessions_on_real_pages() {
    let pages = PageSet::new(7, PAGES);
    for class in ClientClass::ALL {
        let mut tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        publish_pages(&mut tb, &pages);
        let mut client = tb.client(class);
        let link = class.link();
        for p in 0..PAGES {
            // Cold fetch of v0, then warm update to v1.
            for v in [0u32, 1] {
                let report = run_session(
                    &mut client,
                    &tb.proxy,
                    &tb.server,
                    &tb.pad_repo,
                    &link,
                    tb.app_id,
                    p,
                    v,
                )
                .unwrap();
                assert!(report.total() > SimDuration::ZERO);
            }
            assert_eq!(client.cached_content(p).unwrap().version, 1);
        }
        // One negotiation total: the protocol cache covers the rest.
        assert_eq!(client.stats().negotiations, 1, "{class}");
        assert_eq!(client.stats().pads_deployed, 1, "{class}");
    }
}

#[test]
fn adaptation_winners_match_paper_figure11b() {
    let pages = PageSet::new(8, 2);
    let picks: Vec<(ClientClass, ProtocolId)> = ClientClass::ALL
        .iter()
        .map(|&class| {
            let mut tb = Testbed::case_study(AdaptiveContentMode::Reactive);
            publish_pages(&mut tb, &pages);
            let mut client = tb.client(class);
            let link = class.link();
            let report = run_session(
                &mut client,
                &tb.proxy,
                &tb.server,
                &tb.pad_repo,
                &link,
                tb.app_id,
                0,
                0,
            )
            .unwrap();
            (class, report.protocol)
        })
        .collect();
    assert_eq!(picks[0], (ClientClass::DesktopLan, ProtocolId::Direct));
    assert_eq!(picks[1], (ClientClass::LaptopWlan, ProtocolId::Gzip));
    assert_eq!(picks[2], (ClientClass::PdaBluetooth, ProtocolId::Bitmap));
}

#[test]
fn warm_differencing_sessions_save_traffic_on_slow_links() {
    let pages = PageSet::new(9, 1);
    let mut tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    publish_pages(&mut tb, &pages);
    let mut client = tb.client(ClientClass::PdaBluetooth);
    let link = ClientClass::PdaBluetooth.link();

    let cold =
        run_session(&mut client, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, 0, 0)
            .unwrap();
    let warm =
        run_session(&mut client, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, 0, 1)
            .unwrap();
    assert!(
        warm.traffic.total() < cold.traffic.total() / 4,
        "warm {} vs cold {}",
        warm.traffic.total(),
        cold.traffic.total()
    );
    assert!(warm.total() < cold.total());
}

#[test]
fn environment_change_renegotiates_and_changes_protocol() {
    // A mobile user: the same logical client moves from LAN to Bluetooth
    // (the paper's motivating scenario). The protocol cache is dropped on
    // an environment change and the negotiated protocol flips.
    let pages = PageSet::new(10, 1);
    let mut tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    publish_pages(&mut tb, &pages);

    let mut desktop = tb.client(ClientClass::DesktopLan);
    let link = ClientClass::DesktopLan.link();
    let r1 = run_session(&mut desktop, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, 0, 0)
        .unwrap();
    assert_eq!(r1.protocol, ProtocolId::Direct);

    // Same person, now on the PDA: a new environment probes differently.
    let mut pda = tb.client(ClientClass::PdaBluetooth);
    let link = ClientClass::PdaBluetooth.link();
    let r2 =
        run_session(&mut pda, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, 0, 0).unwrap();
    assert_eq!(r2.protocol, ProtocolId::Bitmap);

    // The proxy cached both environments independently.
    assert!(tb.proxy.cached(tb.app_id, &ClientClass::DesktopLan.env()));
    assert!(tb.proxy.cached(tb.app_id, &ClientClass::PdaBluetooth.env()));
}

#[test]
fn proactive_server_mode_flips_pda_protocol_end_to_end() {
    let pages = PageSet::new(11, 1);
    let mut tb = Testbed::case_study(AdaptiveContentMode::Proactive);
    publish_pages(&mut tb, &pages);

    let mut client = tb.client(ClientClass::PdaBluetooth);
    let link = ClientClass::PdaBluetooth.link();
    let report =
        run_session(&mut client, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, 0, 1)
            .unwrap();
    assert_eq!(report.protocol, ProtocolId::VaryBlock);
    assert!(report.server_compute < SimDuration::millis(1));
}

#[test]
fn five_protocol_testbed_with_extension() {
    let mut tb = Testbed::with_protocols(&ProtocolId::ALL, AdaptiveContentMode::Reactive);
    let pages = PageSet::new(12, 1);
    publish_pages(&mut tb, &pages);
    let mut client = tb.client(ClientClass::LaptopWlan);
    let link = ClientClass::LaptopWlan.link();
    let report =
        run_session(&mut client, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, 0, 0)
            .unwrap();
    // With five leaves the negotiation still runs and picks something
    // feasible; the extension protocol must at least be deployable.
    assert!(ProtocolId::ALL.contains(&report.protocol));
}

/// One 16-session reactor batch recording into a private registry under a
/// virtual clock; returns the registry's snapshot after checking it against
/// the reactor's own report.
fn recorded_reactor_batch() -> Snapshot {
    const SESSIONS: u32 = 16;
    let pages = PageSet::new(13, PAGES);
    let mut tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    publish_pages(&mut tb, &pages);

    let bundle = Telemetry::new(Arc::new(Registry::new()), VirtualClock::shared(5));
    let mut reactor = tb.reactor_with(ReactorConfig::new().telemetry(&bundle));
    for i in 0..SESSIONS {
        let class = ClientClass::ALL[i as usize % ClientClass::ALL.len()];
        reactor.spawn(InpSession::new(tb.client(class), tb.app_id, i % PAGES, 0));
    }
    let report = reactor.run().expect("loopback sessions complete");
    assert_eq!((report.completed, report.failed), (SESSIONS as usize, 0));
    assert_eq!(report.peak_in_flight, SESSIONS as usize);

    let snap = bundle.snapshot();
    report.reconcile(&snap).expect("registry must tell the report's story");
    snap
}

#[test]
fn reactor_batch_records_into_its_registry_in_every_build() {
    // Recording has no off switch: a registry that stays empty (a no-op
    // handle, a gated probe) fails here, in tier-1.
    let snap = recorded_reactor_batch();
    for name in PHASE_METRICS {
        let h = snap.histograms.get(name).unwrap_or_else(|| panic!("{name} never registered"));
        assert!(!h.is_empty(), "{name} must be non-empty after a full batch");
    }
    // Virtual time makes the snapshot a pure function of the run.
    assert_eq!(snap, recorded_reactor_batch());
}
