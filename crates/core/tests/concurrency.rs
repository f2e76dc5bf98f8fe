//! Concurrency suite for the sharded adaptation proxy: real threads
//! hammering `negotiate` on one shared proxy must (1) produce exactly the
//! decisions the serial oracle produces, and (2) keep the hit/miss
//! accounting exact — the double-checked stripe locking counts one miss
//! per distinct environment no matter how the schedule interleaves.

use std::sync::Arc;

use fractal_core::meta::{ClientEnv, PadMeta};
use fractal_core::presets::ClientClass;
use fractal_core::proxy::AdaptationProxy;
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;

/// Mixed-client environment stream: three classes × four memory variants,
/// the Fig. 9(a) workload shape.
fn env(i: usize) -> ClientEnv {
    let class = ClientClass::ALL[i % 3];
    let mut env = class.env();
    env.dev.memory_mb = match (i / 3) % 4 {
        0 => env.dev.memory_mb,
        1 => env.dev.memory_mb / 2,
        2 => env.dev.memory_mb * 2,
        _ => env.dev.memory_mb + 128,
    };
    env
}

/// Number of distinct environments the stream cycles through.
const DISTINCT: u64 = 12;

fn shared_proxy() -> (Arc<AdaptationProxy>, fractal_core::meta::AppId) {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    (Arc::new(tb.proxy), tb.app_id)
}

/// Interleaved fan-out: thread `t` handles indices `i % n_threads == t`,
/// so every thread races every other on every distinct environment.
fn negotiate_striped(
    proxy: &Arc<AdaptationProxy>,
    app_id: fractal_core::meta::AppId,
    n_clients: usize,
    n_threads: usize,
) -> Vec<Vec<PadMeta>> {
    let mut out: Vec<Option<Vec<PadMeta>>> = vec![None; n_clients];
    let slots: Vec<(usize, Vec<PadMeta>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|t| {
                let proxy = Arc::clone(proxy);
                scope.spawn(move || {
                    (t..n_clients)
                        .step_by(n_threads)
                        .map(|i| {
                            (i, proxy.negotiate(app_id, env(i)).expect("negotiation succeeds"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker thread")).collect()
    });
    for (i, pads) in slots {
        out[i] = Some(pads);
    }
    out.into_iter().map(|s| s.expect("every index negotiated")).collect()
}

#[test]
fn threads_agree_with_serial_oracle() {
    const N: usize = 240;
    // Serial oracle on its own proxy.
    let (oracle_proxy, app_id) = shared_proxy();
    let oracle: Vec<Vec<PadMeta>> =
        (0..N).map(|i| oracle_proxy.negotiate(app_id, env(i)).unwrap()).collect();

    for n_threads in [2, 4, 8] {
        let (proxy, app_id) = shared_proxy();
        let parallel = negotiate_striped(&proxy, app_id, N, n_threads);
        assert_eq!(parallel, oracle, "decisions diverged at {n_threads} threads");
    }
}

#[test]
fn hit_accounting_stays_exact_under_contention() {
    const N: usize = 600;
    let (proxy, app_id) = shared_proxy();
    negotiate_striped(&proxy, app_id, N, 6);
    let stats = proxy.stats();
    // Double-checked stripe locking: exactly one miss per distinct key,
    // every other negotiation a hit — no lost updates, no double-computes.
    assert_eq!(stats.cache_misses, DISTINCT, "misses must equal distinct environments");
    assert_eq!(stats.cache_hits, N as u64 - DISTINCT);
}

#[test]
fn disabled_cache_counts_every_negotiation_as_miss() {
    const N: usize = 120;
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let proxy = Arc::new(tb.proxy.with_cache_disabled());
    negotiate_striped(&proxy, tb.app_id, N, 4);
    let stats = proxy.stats();
    assert_eq!(stats.cache_misses, N as u64);
    assert_eq!(stats.cache_hits, 0);
}

/// Reactors on real threads over ONE shared `&self` server + proxy pair:
/// every thread runs its own event loop, all of them multiplex sessions
/// against the same services, and the negotiated protocol per client must
/// match the serial oracle exactly.
#[test]
fn threaded_reactors_share_one_server_and_proxy() {
    use fractal_core::reactor::{InpSession, Reactor};

    const N: usize = 96;
    const CONTENT: u32 = 7;
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    tb.server.publish(CONTENT, vec![3u8; 8_000]);

    // Serial oracle: the proxy's direct decision for every environment.
    let oracle: Vec<Vec<PadMeta>> =
        (0..N).map(|i| tb.proxy.negotiate(tb.app_id, env(i)).unwrap()).collect();

    for n_threads in [2, 4, 8] {
        let decisions: Vec<(usize, Vec<PadMeta>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|t| {
                    let tb = &tb;
                    scope.spawn(move || {
                        let mut reactor = Reactor::new(&tb.proxy, &tb.server, &tb.pad_repo);
                        let ids: Vec<(usize, fractal_core::reactor::SessionId)> = (t..N)
                            .step_by(n_threads)
                            .map(|i| {
                                let client = tb.client_with_env(env(i));
                                let s = InpSession::new(client, tb.app_id, CONTENT, 0);
                                (i, reactor.spawn(s))
                            })
                            .collect();
                        let report = reactor.run().expect("no session may stall");
                        assert_eq!(report.failed, 0);
                        let sessions = reactor.into_sessions();
                        ids.into_iter()
                            .map(|(i, sid)| {
                                let s = &sessions[sid];
                                (i, s.negotiated().expect("session negotiated").to_vec())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("reactor thread")).collect()
        });
        let mut got: Vec<Option<Vec<PadMeta>>> = vec![None; N];
        for (i, pads) in decisions {
            got[i] = Some(pads);
        }
        let got: Vec<Vec<PadMeta>> = got.into_iter().map(|p| p.unwrap()).collect();
        assert_eq!(got, oracle, "reactor decisions diverged at {n_threads} threads");
    }
    // Shared-cache accounting still exact after all the reactor traffic.
    let stats = tb.proxy.stats();
    assert_eq!(stats.cache_misses, DISTINCT);
}

/// Eight threads of fresh clients deploy the four case-study PADs through
/// the testbed's one admission cache, released together onto a cold cache.
/// Each PAD must be analysed exactly once — whoever wins the race — and
/// every client must end up exactly where the serial run puts it: same
/// acceptance, same decoded bytes.
#[test]
fn racing_deployers_share_one_admission_cache() {
    use fractal_core::presets::{pad_id, pad_overhead};
    use fractal_core::server::codec_for;
    use fractal_protocols::ProtocolId;
    use fractal_vm::SignedModule;

    const THREADS: usize = 8;
    const DEPLOYS: usize = 64;
    const PADS: [ProtocolId; 4] = ProtocolId::PAPER_FOUR;

    let page = |i: usize| -> Vec<u8> {
        format!("client {i}: {}", "negotiated, downloaded, admitted. ".repeat(20 + i % 7))
            .into_bytes()
    };
    let pad_of = |tb: &Testbed, p: ProtocolId| -> (PadMeta, Vec<u8>) {
        let wire = tb.pad_repo.get(pad_id(p)).expect("case-study PAD is published");
        let meta = PadMeta {
            id: pad_id(p),
            protocol: p,
            size: wire.len() as u32,
            overhead: pad_overhead(p),
            digest: SignedModule::from_wire(&wire).unwrap().digest(),
            url: String::new(),
            parent: None,
            children: vec![],
        };
        (meta, wire.to_vec())
    };
    // One client's whole story: deploy PAD `(t + i) % 4`, decode a page.
    let deploy_and_decode = |tb: &Testbed, t: usize, i: usize| -> (Vec<u8>, u64) {
        let protocol = PADS[(t + i) % PADS.len()];
        let (meta, wire) = pad_of(tb, protocol);
        let mut client = tb.client_with_env(env(i));
        client.deploy_pad(&meta, &wire).expect("genuine PADs are admitted");
        let payload = codec_for(protocol).encode(&[], &page(i));
        let decoded = client.decode_content(meta.id, i as u32, &payload).expect("decodes");
        (decoded, client.stats().admission_misses)
    };

    let serial_tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let serial: Vec<Vec<Vec<u8>>> = (0..THREADS)
        .map(|t| (0..DEPLOYS).map(|i| deploy_and_decode(&serial_tb, t, i).0).collect())
        .collect();
    assert_eq!(serial_tb.admission.len(), PADS.len());

    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let start = std::sync::Barrier::new(THREADS);
    let results: Vec<(Vec<Vec<u8>>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (tb, start, deploy_and_decode) = (&tb, &start, &deploy_and_decode);
                scope.spawn(move || {
                    start.wait();
                    let mut misses = 0;
                    let decoded = (0..DEPLOYS)
                        .map(|i| {
                            let (bytes, missed) = deploy_and_decode(tb, t, i);
                            misses += missed;
                            bytes
                        })
                        .collect();
                    (decoded, misses)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("deployer thread")).collect()
    });

    let analyses: u64 = results.iter().map(|(_, misses)| misses).sum();
    assert_eq!(analyses, PADS.len() as u64, "each PAD is proven once, whoever gets there first");
    assert_eq!(tb.admission.len(), PADS.len());
    for (t, (decoded, _)) in results.iter().enumerate() {
        assert_eq!(decoded, &serial[t], "thread {t} diverged from the serial run");
    }
    for (t, row) in serial.iter().enumerate() {
        for (i, bytes) in row.iter().enumerate() {
            assert_eq!(bytes, &page(i), "serial run, thread slot {t}, client {i}");
        }
    }
}

/// The epoch-versioned server under a live writer: reader threads run
/// full INP sessions pinned to version 1 of a page while the main thread
/// keeps publishing successor versions of that same page. The version
/// chain must never tear — every reader decodes byte-exactly the version
/// it negotiated, `latest_version` only moves forward, and once the
/// threads quiesce every superseded snapshot generation has been
/// reclaimed.
#[test]
fn publish_under_load() {
    use fractal_core::session::run_session;

    const CONTENT: u32 = 0;
    const READERS: usize = 4;
    const SESSIONS_PER_READER: usize = 6;
    const REPUBLISHES: u32 = 40;

    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let v0 = vec![1u8; 6_000];
    let v1 = vec![2u8; 6_000];
    tb.server.publish(CONTENT, v0.clone());
    tb.server.publish(CONTENT, v1.clone());

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let (tb, v0, v1) = (&tb, &v0, &v1);
                scope.spawn(move || {
                    let class = ClientClass::ALL[t % 3];
                    let link = class.link();
                    let mut last_seen = 1u32;
                    for _ in 0..SESSIONS_PER_READER {
                        // Fixed-version chain entries are immutable no
                        // matter how many successors the writer appends.
                        assert_eq!(
                            tb.server.content(CONTENT, 1).expect("v1 published").as_ref(),
                            &v1[..],
                            "version 1 bytes changed under a racing publish"
                        );
                        let latest = tb.server.latest_version(CONTENT).expect("published");
                        assert!(latest >= last_seen, "latest_version moved backwards");
                        last_seen = latest;
                        // Full INP session against version 1: run_session
                        // asserts the FVM decode reproduces the exact
                        // negotiated version's bytes.
                        let mut client = tb.client(class);
                        client.store_content(CONTENT, 0, v0.clone());
                        run_session(
                            &mut client,
                            &tb.proxy,
                            &tb.server,
                            &tb.pad_repo,
                            &link,
                            tb.app_id,
                            CONTENT,
                            1,
                        )
                        .expect("session under live republish succeeds");
                    }
                })
            })
            .collect();

        // The writer: keep appending distinct versions to the same page
        // the readers are decoding, through the plain `&self` publish.
        for k in 0..REPUBLISHES {
            let appended = tb.server.publish(CONTENT, vec![(k % 251) as u8 + 3; 4_000]);
            assert_eq!(appended, k + 2, "publish must append exactly one version");
        }
        for r in readers {
            r.join().expect("reader thread panicked");
        }
    });

    assert_eq!(tb.server.latest_version(CONTENT), Some(1 + REPUBLISHES));
    // Grace periods complete: with all pins dropped, only the current
    // generation survives.
    let epoch = tb.server.epoch_stats();
    assert_eq!(epoch.live, 1, "superseded generations must be reclaimed: {epoch:?}");
    assert_eq!(epoch.published, epoch.retired, "every superseded generation retires");
}

#[test]
fn repeated_runs_are_deterministic_across_thread_counts() {
    // The decision set must not depend on scheduling: re-run the same
    // stream at several thread counts on fresh proxies and require
    // identical bytes (PadMeta derives PartialEq over the full record,
    // including urls and digests).
    const N: usize = 96;
    let mut first: Option<Vec<Vec<PadMeta>>> = None;
    for n_threads in [1, 2, 3, 8] {
        let (proxy, app_id) = shared_proxy();
        let run = negotiate_striped(&proxy, app_id, N, n_threads);
        match &first {
            None => first = Some(run),
            Some(f) => assert_eq!(f, &run, "run differed at {n_threads} threads"),
        }
    }
}
