//! Integration tests for the negotiation machinery: INP over the wire,
//! adaptation caching at both ends, and deeper PATs with symbolic links.

use fractal::core::inp::InpMessage;
use fractal::core::meta::{AppId, PadId, PadMeta, PadOverhead};
use fractal::core::overhead::OverheadModel;
use fractal::core::pat::Pat;
use fractal::core::presets::{paper_ratios, ClientClass};
use fractal::core::proxy::AdaptationProxy;
use fractal::core::search::search;
use fractal::core::server::AdaptiveContentMode;
use fractal::core::testbed::Testbed;
use fractal::protocols::ProtocolId;

#[test]
fn inp_messages_survive_the_wire_with_real_pad_meta() {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let env = ClientClass::PdaBluetooth.env();
    let pads = tb.proxy.negotiate(tb.app_id, env).unwrap();

    let msg = InpMessage::PadMetaRep { pads: pads.clone() };
    let bytes = msg.to_bytes();
    let back = InpMessage::from_bytes(&bytes).unwrap();
    match back {
        InpMessage::PadMetaRep { pads: got } => {
            assert_eq!(got, pads);
            // Distribution manager hid the tree links before sending.
            assert!(got.iter().all(|p| p.parent.is_none() && p.children.is_empty()));
        }
        other => panic!("wrong message: {}", other.name()),
    }
}

#[test]
fn proxy_cache_and_client_cache_compose() {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let env = ClientClass::LaptopWlan.env();

    // Three negotiations from distinct client hosts with identical envs:
    // one search, two proxy-cache hits.
    for _ in 0..3 {
        tb.proxy.negotiate(tb.app_id, env).unwrap();
    }
    let stats = tb.proxy.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 2);
}

fn deep_pad(id: u64, client_ms: f64) -> PadMeta {
    PadMeta {
        id: PadId(id),
        protocol: ProtocolId::Direct,
        size: 500,
        overhead: PadOverhead {
            server_ms_per_mb: 0.0,
            client_ms_per_mb: client_ms,
            traffic_ratio: 0.5,
        },
        digest: fractal::crypto::sha1::sha1(&id.to_le_bytes()),
        url: String::new(),
        parent: None,
        children: vec![],
    }
}

#[test]
fn multi_level_pat_negotiates_a_chain() {
    // An application protocol over a transport choice (the paper's
    // FTP-over-TCP/UDP example shape): app PADs at level 1, transport PADs
    // at level 2, one transport shared via symlink.
    let mut pat = Pat::new(AppId(9));
    pat.insert(deep_pad(1, 2000.0), None).unwrap(); // app A (expensive)
    pat.insert(deep_pad(2, 100.0), None).unwrap(); // app B
    pat.insert(deep_pad(10, 50.0), Some(PadId(1))).unwrap(); // transport under A
    pat.insert(deep_pad(11, 30.0), Some(PadId(2))).unwrap(); // transport under B
    pat.insert_symlink(PadId(12), PadId(10), Some(PadId(2))).unwrap(); // shared transport

    assert_eq!(pat.leaf_count(), 3);
    let model = OverheadModel::paper(paper_ratios());
    let env = ClientClass::DesktopLan.env();
    let path = search(&pat, &model, &env, 1_000_000).unwrap();
    // Cheapest: B (100) + its transport (30).
    assert_eq!(path.pads, vec![PadId(2), PadId(11)]);

    // Mid-tree insertion: splice a mandatory compression PAD under B.
    pat.insert_between(deep_pad(20, 10.0), PadId(2)).unwrap();
    let path2 = search(&pat, &model, &env, 1_000_000).unwrap();
    assert_eq!(path2.pads.len(), 3);
    assert_eq!(path2.pads[0], PadId(2));
    assert_eq!(path2.pads[1], PadId(20));
}

#[test]
fn proxy_serves_multiple_applications_independently() {
    let proxy = AdaptationProxy::new(OverheadModel::paper(paper_ratios()));
    // App 1: one-level case study; App 2: a deep tree.
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let pat1 = tb.proxy.pat(tb.app_id).unwrap();
    let meta1 = fractal::core::meta::AppMeta {
        app_id: AppId(1),
        pads: pat1.ids().iter().map(|&id| pat1.meta(id).unwrap().clone()).collect(),
    };
    proxy.push_app_meta(&meta1);

    let mut pads2 = vec![deep_pad(1, 10.0), deep_pad(2, 20.0)];
    pads2[1].parent = Some(PadId(1));
    let meta2 = fractal::core::meta::AppMeta { app_id: AppId(2), pads: pads2 };
    proxy.push_app_meta(&meta2);

    let env = ClientClass::DesktopLan.env();
    let r1 = proxy.negotiate(AppId(1), env).unwrap();
    let r2 = proxy.negotiate(AppId(2), env).unwrap();
    assert_eq!(r1.len(), 1);
    assert_eq!(r2.len(), 2, "deep tree negotiates a chain");
}

#[test]
fn negotiation_estimates_track_measured_bytes_directionally() {
    // The proxy decides on estimated traffic ratios; the real codecs then
    // move real bytes. The ordering the decision depends on must agree.
    use fractal::workload::{mutate::EditProfile, PageSet};
    let pages = PageSet::new(2005, 3);

    let measured = |p: ProtocolId| -> u64 {
        let codec = fractal::core::server::codec_for(p);
        (0..3)
            .map(|i| {
                let v0 = pages.original(i).to_bytes();
                let v1 = pages.version(i, 1, EditProfile::Localized).to_bytes();
                codec.traffic(&v0, &v1).total()
            })
            .sum()
    };
    let estimated =
        |p: ProtocolId| -> f64 { fractal::core::presets::pad_overhead(p).traffic_ratio };

    let pairs = [
        (ProtocolId::Direct, ProtocolId::Gzip),
        (ProtocolId::Gzip, ProtocolId::Bitmap),
        (ProtocolId::Bitmap, ProtocolId::VaryBlock),
    ];
    for (a, b) in pairs {
        assert!(
            (measured(a) > measured(b)) == (estimated(a) > estimated(b)),
            "estimate ordering diverges from measured for {a} vs {b}"
        );
    }
}

/// A PAD whose overheads cycle with its id, so sibling marks differ.
fn cycled_pad(id: u64) -> PadMeta {
    PadMeta {
        overhead: PadOverhead {
            server_ms_per_mb: (id % 13) as f64 * 50.0,
            client_ms_per_mb: (id % 7) as f64 * 100.0,
            traffic_ratio: 0.2 + (id % 5) as f64 * 0.2,
        },
        size: 1000,
        ..deep_pad(id, 0.0)
    }
}

#[test]
fn search_is_optimal_on_wide_two_level_pats() {
    // `width` level-1 nodes with `width` children each: up to 1 056 nodes,
    // far past the proptest's 4×3 trees.
    let model = OverheadModel::paper(fractal::core::ratio::Ratios::linear());
    let env = ClientClass::LaptopWlan.env();
    for width in [2u64, 8, 16, 32] {
        let mut pat = Pat::new(AppId(1));
        let mut next = 1u64;
        for _ in 0..width {
            let parent = next;
            pat.insert(cycled_pad(parent), None).unwrap();
            for _ in 0..width {
                next += 1;
                pat.insert(cycled_pad(next), Some(PadId(parent))).unwrap();
            }
            next += 1;
        }
        assert_eq!(pat.len() as u64, width * (width + 1));

        let best = search(&pat, &model, &env, 1_000_000).unwrap();
        let marks = fractal::core::search::mark_nodes(&pat, &model, &env, 1_000_000);
        let cheapest = pat
            .paths()
            .iter()
            .map(|path| path.iter().map(|id| marks[id]).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best.total_overhead_s, cheapest, "width {width}");
        assert_eq!(best.paths_examined as u64, width * width);
    }
}
