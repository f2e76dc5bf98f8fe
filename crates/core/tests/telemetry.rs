//! Registry reconciliation tests: the live registry mirrors the existing
//! struct counters *exactly*, the five INP phase histograms fill, and
//! instrumented components can be rebound to local registries — which is
//! what keeps these tests race-free against everything else recording into
//! the process-global bundle.

use std::sync::Arc;

use fractal_core::meta::AppId;
use fractal_core::proxy::ProxyStats;
use fractal_core::reactor::{InpSession, Reactor, ReactorConfig, PHASE_METRICS};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_core::ClientClass;
use fractal_telemetry::{Registry, Telemetry, VirtualClock};

fn local_bundle() -> Telemetry {
    Telemetry::new(Arc::new(Registry::new()), VirtualClock::shared(50))
}

fn content(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i / 5) as u8).wrapping_mul(seed).wrapping_add(seed)).collect()
}

/// A case-study testbed whose proxy records into `bundle`.
fn testbed_bound_to(bundle: &Telemetry) -> Testbed {
    let mut tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let spare = Testbed::case_study(AdaptiveContentMode::Reactive).proxy;
    tb.proxy = std::mem::replace(&mut tb.proxy, spare).with_telemetry(bundle);
    tb
}

#[test]
fn proxy_registry_counters_reconcile_exactly_with_proxy_stats() {
    let bundle = local_bundle();
    let tb = testbed_bound_to(&bundle);

    for _ in 0..3 {
        for class in ClientClass::ALL {
            tb.proxy.negotiate(tb.app_id, class.env()).unwrap();
        }
    }
    tb.proxy.clear_adaptation_state();
    tb.proxy.negotiate(tb.app_id, ClientClass::DesktopLan.env()).unwrap();

    let snap = bundle.snapshot();
    let ProxyStats { cache_hits, cache_misses, app_pushes } = tb.proxy.stats();
    assert_eq!(snap.counters["fractal_proxy_cache_hits_total"], cache_hits);
    assert_eq!(snap.counters["fractal_proxy_cache_misses_total"], cache_misses);
    // app_pushes were recorded before the rebind (Testbed construction
    // pushes into the global bundle), so only assert the struct counter.
    assert!(app_pushes > 0);

    // Every cache miss is one path search, and nothing else searches.
    assert_eq!(snap.histograms["fractal_search_time_ns"].count, cache_misses);
    assert!(snap.counters["fractal_search_nodes_expanded_total"] > 0);
    assert!(snap.counters["fractal_search_paths_examined_total"] >= cache_misses);
}

#[test]
fn client_registry_mirrors_client_stats_and_pad_costs() {
    let bundle = local_bundle();
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let mut client = tb.client(ClientClass::LaptopWlan).with_telemetry(&bundle);

    let pads = tb.proxy.negotiate(tb.app_id, ClientClass::LaptopWlan.env()).unwrap();
    client.remember_protocols(tb.app_id, &pads);
    client.cached_protocols(tb.app_id).unwrap();

    let mut wire_total = 0u64;
    for pad in &pads {
        let wire = tb.pad_repo.get(pad.id).unwrap();
        wire_total += wire.len() as u64;
        client.deploy_pad(pad, &wire).unwrap();
    }
    // A garbage PAD exercises the rejection counter (and still counts its
    // bytes as downloaded — the bytes were fetched before the gauntlet).
    let garbage = vec![0u8; 64];
    assert!(client.deploy_pad(&pads[0], &garbage).is_err());

    let snap = bundle.snapshot();
    let stats = client.stats();
    assert_eq!(snap.counters["fractal_client_negotiations_total"], stats.negotiations);
    assert_eq!(
        snap.counters["fractal_client_protocol_cache_hits_total"],
        stats.protocol_cache_hits
    );
    assert_eq!(snap.counters["fractal_client_pads_deployed_total"], stats.pads_deployed);
    assert_eq!(snap.counters["fractal_client_pads_rejected_total"], stats.pads_rejected);
    assert_eq!(snap.counters["fractal_client_admission_hits_total"], stats.admission_hits);
    assert_eq!(snap.counters["fractal_client_admission_misses_total"], stats.admission_misses);
    assert_eq!(stats.admission_hits + stats.admission_misses, stats.pads_deployed);
    assert_eq!(snap.counters["fractal_client_pad_download_bytes_total"], wire_total + 64);
    // One gauntlet run per deploy attempt, timed by the virtual clock.
    let gauntlet = &snap.histograms["fractal_client_gauntlet_ns"];
    assert_eq!(gauntlet.count, stats.pads_deployed + stats.pads_rejected);
    assert!(gauntlet.sum > 0, "virtual clock advances between gauntlet endpoints");
}

#[test]
fn reactor_fills_all_five_phase_histograms_and_mirrors_the_report() {
    let bundle = local_bundle();
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    for id in 0..4u32 {
        tb.server.publish(id, content(id as u8 + 1, 8_000));
    }
    let cfg = ReactorConfig::new().clock(bundle.clock()).telemetry(&bundle);
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    for i in 0..4u32 {
        let class = ClientClass::ALL[i as usize % 3];
        reactor.spawn(InpSession::new(tb.client(class), tb.app_id, i, 0));
    }
    let report = reactor.run().unwrap();

    let snap = bundle.snapshot();
    for name in PHASE_METRICS {
        let h = &snap.histograms[name];
        assert!(!h.is_empty(), "{name} must be non-empty");
        assert!(h.sum > 0, "{name} must accumulate virtual time");
    }
    assert_eq!(snap.counters["fractal_reactor_completed_total"], report.completed as u64);
    assert_eq!(snap.counters["fractal_reactor_failed_total"], report.failed as u64);
    assert_eq!(snap.counters["fractal_reactor_polls_total"], report.polls);
    assert_eq!(snap.gauges["fractal_reactor_peak_in_flight"], report.peak_in_flight as i64);
    // Cold sessions visit Init and Sessioning exactly once each.
    assert_eq!(snap.histograms["fractal_inp_phase_ns_init"].count, 4);
    assert_eq!(snap.histograms["fractal_inp_phase_ns_sessioning"].count, 4);
}

#[test]
fn queue_depth_gauge_reconciles_with_per_session_pending_counts() {
    use fractal_core::reactor::TRANSPORT_QUEUE_METRIC;
    use fractal_core::transport::TransportProfile;

    let bundle = local_bundle();
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    for id in 0..3u32 {
        tb.server.publish(id, content(id as u8 + 1, 8_000));
    }
    // A 48-byte window keeps multi-KB PAD frames queued for many polls, so
    // the gauge is exercised at real depths, not just 0.
    let cfg = ReactorConfig::new()
        .transport(TransportProfile::Loopback { capacity: 48 })
        .clock(bundle.clock())
        .telemetry(&bundle);
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    let ids: Vec<_> = (0..3u32)
        .map(|i| {
            reactor.spawn(InpSession::new(tb.client(ClientClass::ALL[i as usize]), tb.app_id, i, 0))
        })
        .collect();

    let mut saw_backpressure = false;
    while reactor.poll().is_some() {
        let gauge = bundle.snapshot().gauges[TRANSPORT_QUEUE_METRIC];
        let pending: usize = ids.iter().map(|&id| reactor.pending_frames(id)).sum();
        assert_eq!(gauge, pending as i64, "gauge must equal the sum of per-session queues");
        saw_backpressure |= pending > 0;
    }
    assert!(saw_backpressure, "the tiny window must actually queue frames");
    let report = reactor.run().unwrap();
    assert_eq!(report.completed, 3);
    assert_eq!(bundle.snapshot().gauges[TRANSPORT_QUEUE_METRIC], 0, "queues drain by completion");
}

#[test]
fn failed_session_counts_into_the_failed_counter() {
    let bundle = local_bundle();
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let cfg = ReactorConfig::new().clock(bundle.clock()).telemetry(&bundle);
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    reactor.spawn(InpSession::new(tb.client(ClientClass::DesktopLan), AppId(99), 0, 0));
    let report = reactor.run().unwrap();
    assert_eq!(report.failed, 1);
    let snap = bundle.snapshot();
    assert_eq!(snap.counters["fractal_reactor_failed_total"], 1);
    assert_eq!(snap.counters["fractal_reactor_completed_total"], 0);
}

#[test]
fn vm_counters_move_through_the_global_registry() {
    // The VM records into the process-global bundle (no handle to thread
    // through PadRuntime), so assert monotonic increase, not exact deltas —
    // other tests in this binary share the registry.
    let global = Telemetry::global();
    let before = global.snapshot();
    let fuel_before = before.counters.get("fractal_vm_fuel_consumed_total").copied().unwrap_or(0);
    let calls_before = before.counters.get("fractal_vm_calls_fast_total").copied().unwrap_or(0)
        + before.counters.get("fractal_vm_calls_checked_total").copied().unwrap_or(0);

    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    tb.server.publish(0, content(3, 9_000));
    let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
    reactor.spawn(InpSession::new(tb.client(ClientClass::PdaBluetooth), tb.app_id, 0, 0));
    reactor.run().unwrap();

    let after = global.snapshot();
    assert!(
        after.counters["fractal_vm_fuel_consumed_total"] > fuel_before,
        "decoding a page consumes fuel"
    );
    let calls_after = after.counters.get("fractal_vm_calls_fast_total").copied().unwrap_or(0)
        + after.counters.get("fractal_vm_calls_checked_total").copied().unwrap_or(0);
    assert!(calls_after > calls_before, "the decode entry ran at least once");
}

#[test]
fn prometheus_page_renders_the_whole_stack() {
    let bundle = local_bundle();
    let tb = testbed_bound_to(&bundle);
    tb.server.publish(0, content(1, 8_000));
    let cfg = ReactorConfig::new().clock(bundle.clock()).telemetry(&bundle);
    let mut reactor = Reactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, cfg);
    reactor.spawn(InpSession::new(tb.client(ClientClass::LaptopWlan), tb.app_id, 0, 0));
    reactor.run().unwrap();

    let page = bundle.snapshot().render_prometheus();
    assert!(page.contains("# TYPE fractal_proxy_cache_misses_total counter"));
    assert!(page.contains("# TYPE fractal_inp_phase_ns_path_search histogram"));
    assert!(page.contains("fractal_inp_phase_ns_path_search_count 1"));
    assert!(page.contains("fractal_reactor_peak_in_flight 1"));
}
