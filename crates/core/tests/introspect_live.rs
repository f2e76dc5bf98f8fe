//! Live introspection over a real sharded run: scrape `/metrics` from a
//! sidecar HTTP server **while** live-socket sessions are in flight,
//! then pin the two acceptance properties — counters are monotonic
//! across scrapes, and the final scrape reconciles byte-for-byte with
//! the in-process merged snapshot — at 64 sessions, and again with more
//! connections held open than the listen backlog and the default fd limit.
#![cfg(unix)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use fractal_core::introspect::{
    http_get, parse_prometheus, response_body, IntrospectServer, IntrospectSource,
};
use fractal_core::meta::PadMeta;
use fractal_core::presets::ClientClass;
use fractal_core::reactor::{InpSession, ReactorConfig, TRANSPORT_QUEUE_METRIC};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::shard::ShardedReactor;
use fractal_core::sys::raise_nofile_limit;
use fractal_core::testbed::Testbed;

fn testbed_with_pages(n: u32) -> Testbed {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    for id in 0..n {
        let body: Vec<u8> =
            (0..6_000).map(|i| ((i / 7) as u8).wrapping_mul(id as u8).wrapping_add(3)).collect();
        tb.server.publish(id, body);
    }
    tb
}

#[test]
fn live_scrapes_are_monotonic_and_final_scrape_reconciles_exactly() {
    const N: u32 = 64;
    let tb = testbed_with_pages(N);
    let sessions: Vec<InpSession> = (0..N)
        .map(|i| InpSession::new(tb.client(ClientClass::ALL[i as usize % 3]), tb.app_id, i, 0))
        .collect();

    let source = IntrospectSource::new();
    let server = IntrospectServer::spawn(0, source.clone()).expect("bind ephemeral");
    let addr = server.addr();

    let done = AtomicBool::new(false);
    let mut scrapes: Vec<String> = Vec::new();
    let outcome = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let cfg = ReactorConfig::new().introspect(source.clone());
            let run = ShardedReactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, 2, cfg)
                .run(sessions);
            done.store(true, Ordering::Relaxed);
            run
        });
        // Scrape as fast as the plane answers until the run completes,
        // then once more: the last scrape observes the quiescent state.
        while !done.load(Ordering::Relaxed) {
            scrapes.push(http_get(addr, "/metrics").expect("mid-run scrape"));
        }
        scrapes.push(http_get(addr, "/metrics").expect("final scrape"));
        worker.join().expect("worker panicked")
    })
    .expect("sharded run completes");

    assert_eq!(outcome.aggregate_report().completed, N as usize);
    assert!(scrapes.len() >= 2, "at least one mid-run + one final scrape");
    for resp in &scrapes {
        assert!(resp.starts_with("HTTP/1.0 200 OK\r\n"), "{resp}");
    }

    // Monotonicity: no series ever decreases between consecutive scrapes.
    // The one exception is the queue-depth gauge, a level that drains as
    // the run progresses (peak_in_flight is a gauge too, but tracks a
    // maximum, so it is checked like everything else).
    let mut last: HashMap<String, f64> = HashMap::new();
    for (i, resp) in scrapes.iter().enumerate() {
        for (name, value) in parse_prometheus(response_body(resp)) {
            if name.starts_with(TRANSPORT_QUEUE_METRIC) {
                continue;
            }
            if let Some(prev) = last.get(&name) {
                assert!(value >= *prev, "scrape {i}: {name} went backwards ({prev} -> {value})");
            }
            last.insert(name, value);
        }
    }

    // Exact reconciliation: the quiescent scrape equals the in-process
    // merged snapshot, rendered identically.
    let final_body = response_body(scrapes.last().unwrap()).to_string();
    assert_eq!(final_body, source.merged_snapshot().render_prometheus());
    let series: HashMap<String, f64> = parse_prometheus(&final_body).into_iter().collect();
    assert_eq!(series["fractal_reactor_completed_total"], N as f64);
    assert_eq!(series["fractal_reactor_failed_total"], 0.0);

    // The retired journals survive the shard threads: every session's
    // terminal phase is queryable post-mortem.
    let journal = http_get(addr, "/journal?session=0").expect("journal scrape");
    assert!(response_body(&journal).contains("kind=phase:Done"), "{journal}");
    let stalls = http_get(addr, "/stalls").expect("stalls scrape");
    assert!(response_body(&stalls).contains("# stalls=0"), "{stalls}");
}

/// A population past the listen backlog (128) and past the default soft
/// fd limit (1024, two sockets per session), all held open at once: the
/// soft limit is raised toward the hard cap and the population shrunk to
/// what the cap allows. No backlog is raised — each shard accepts the one
/// connection it has just made — and the run still reconciles: with its
/// reports, the serial oracle and the live plane. Every socket stays open
/// until its shard ends: a finished session's transports live in its slot
/// until `into_sessions`.
#[test]
fn held_connections_past_the_backlog_and_the_default_fd_limit() {
    /// File descriptors beyond this test's session sockets: listener,
    /// stdio, the introspection plane, and the 64-session test above
    /// running beside it in this binary.
    const FD_HEADROOM: u64 = 256;
    let mut n = 640usize;
    let needed = 2 * n as u64 + FD_HEADROOM;
    let in_force = raise_nofile_limit(needed).unwrap_or(needed);
    if in_force < needed {
        n = ((in_force - FD_HEADROOM) / 2) as usize;
    }

    let tb = testbed_with_pages(1);
    // Serial oracle: the proxy's direct decision per client class, taken
    // before a single socket exists.
    let oracle: Vec<Vec<PadMeta>> = ClientClass::ALL
        .iter()
        .map(|class| tb.proxy.negotiate(tb.app_id, class.env()).unwrap())
        .collect();
    let sessions: Vec<InpSession> = (0..n)
        .map(|i| InpSession::new(tb.client(ClientClass::ALL[i % 3]), tb.app_id, 0, 0))
        .collect();

    let source = IntrospectSource::new();
    let server = IntrospectServer::spawn(0, source.clone()).expect("bind ephemeral");
    let cfg = ReactorConfig::new().introspect(source.clone());
    let outcome = ShardedReactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, 2, cfg)
        .run(sessions)
        .expect("no held session may stall");

    let agg = outcome.aggregate_report();
    assert_eq!((agg.completed, agg.failed), (n, 0));
    // Shards pump while they admit, so the summed shard peaks are measured
    // overlap, not the population by construction.
    assert!((1..=n).contains(&agg.peak_in_flight), "summed shard peaks {}", agg.peak_in_flight);
    outcome.reconcile().expect("per-shard telemetry reconciles with the reports");

    let scrape = http_get(server.addr(), "/metrics").expect("final scrape");
    assert!(scrape.starts_with("HTTP/1.0 200 OK\r\n"), "{scrape}");
    assert_eq!(response_body(&scrape), source.merged_snapshot().render_prometheus());

    for (i, s) in outcome.into_sessions().iter().enumerate() {
        assert_eq!(s.negotiated().expect("negotiated"), oracle[i % 3].as_slice(), "session {i}");
    }
}

#[test]
fn stalled_run_publishes_diagnostics_to_the_plane() {
    let tb = testbed_with_pages(1);
    // Pre-starting loses the opening frames in transit: the socket never
    // carries a byte, so the shard must report the session stuck.
    let mut session = InpSession::new(tb.client(ClientClass::DesktopLan), tb.app_id, 0, 0);
    session.start().unwrap();

    let source = IntrospectSource::new();
    let server = IntrospectServer::spawn(0, source.clone()).expect("bind ephemeral");
    let cfg = ReactorConfig::new().stall_timeout(Duration::from_millis(200)).introspect(source);
    let err = ShardedReactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, 1, cfg)
        .run(vec![session])
        .unwrap_err();
    assert!(matches!(err, fractal_core::error::InpError::Stalled(_)), "{err:?}");

    let stalls = http_get(server.addr(), "/stalls").expect("stalls scrape");
    let body = response_body(&stalls);
    assert!(body.contains("# stalls=1"), "{body}");
    assert!(body.contains("MetaExchange"), "{body}");
    assert!(body.contains("q=0"), "queue depth diagnostic: {body}");
    // Post-mortem flight-recorder tail for the stuck session.
    let journal = http_get(server.addr(), "/journal?session=0").expect("journal scrape");
    assert!(response_body(&journal).contains("kind=stall:mark"), "{journal}");
}
