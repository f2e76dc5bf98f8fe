//! Property-based tests for the core framework: wire totality, metadata
//! round-trips, and the optimality invariant of the path search.

use fractal_core::inp::InpMessage;
use fractal_core::meta::{
    AppId, AppMeta, ClientEnv, CpuType, DevMeta, NtwkMeta, OsType, PadId, PadMeta, PadOverhead,
};
use fractal_core::overhead::OverheadModel;
use fractal_core::pat::Pat;
use fractal_core::ratio::Ratios;
use fractal_core::reactor::{decode_app_payload, encode_app_payload};
use fractal_core::search::search;
use fractal_net::link::LinkKind;
use fractal_protocols::ProtocolId;
use proptest::prelude::*;

fn arb_protocol() -> impl Strategy<Value = ProtocolId> {
    prop_oneof![
        Just(ProtocolId::Direct),
        Just(ProtocolId::Gzip),
        Just(ProtocolId::Bitmap),
        Just(ProtocolId::VaryBlock),
        Just(ProtocolId::FixedBlock),
    ]
}

fn arb_pad_meta(id: u64) -> impl Strategy<Value = PadMeta> {
    (
        arb_protocol(),
        0u32..100_000,
        0.0f64..10_000.0,
        0.0f64..10_000.0,
        0.0f64..2.0,
        "[a-z0-9/.:]{0,40}",
    )
        .prop_map(move |(protocol, size, srv, cli, ratio, url)| PadMeta {
            id: PadId(id),
            protocol,
            size,
            overhead: PadOverhead {
                server_ms_per_mb: srv,
                client_ms_per_mb: cli,
                traffic_ratio: ratio,
            },
            digest: fractal_crypto::sha1::sha1(&id.to_le_bytes()),
            url,
            parent: None,
            children: vec![],
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// INP parsing is total on arbitrary bytes.
    #[test]
    fn inp_parser_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = InpMessage::from_bytes(&bytes);
    }

    /// `APP_REQ` payload parsing is total on arbitrary bytes: a value or a
    /// typed error, never a panic.
    #[test]
    fn app_payload_parser_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_app_payload(&bytes);
    }

    /// `decode_app_payload ∘ encode_app_payload = id`.
    #[test]
    fn app_payload_round_trips(
        content_id in any::<u32>(),
        (holds, held) in (any::<bool>(), any::<u32>()),
        want in any::<u32>(),
    ) {
        let have = holds.then_some(held);
        let bytes = encode_app_payload(content_id, have, want);
        prop_assert_eq!(decode_app_payload(&bytes), Ok((content_id, have, want)));
    }

    /// AppMeta parsing is total on arbitrary bytes.
    #[test]
    fn app_meta_parser_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = AppMeta::from_bytes(&bytes);
    }

    /// AppMeta round-trips for arbitrary PAD lists.
    #[test]
    fn app_meta_round_trips(app in 0u32..1000,
                            metas in proptest::collection::vec(arb_pad_meta(0), 0..6)) {
        // Re-id the pads uniquely.
        let pads: Vec<PadMeta> = metas
            .into_iter()
            .enumerate()
            .map(|(i, mut m)| { m.id = PadId(i as u64); m })
            .collect();
        let meta = AppMeta { app_id: AppId(app), pads };
        let bytes = meta.to_bytes();
        prop_assert_eq!(AppMeta::from_bytes(&bytes).unwrap(), meta);
    }

    /// INP messages round-trip for arbitrary payloads and PAD lists.
    #[test]
    fn inp_round_trips(app in 0u32..100,
                       payload in proptest::collection::vec(any::<u8>(), 0..256),
                       pad in arb_pad_meta(7)) {
        let messages = vec![
            InpMessage::InitReq { app_id: AppId(app), payload: payload.clone() },
            InpMessage::PadMetaRep { pads: vec![pad] },
            InpMessage::PadDownloadRep { pad_id: PadId(9), bytes: payload.clone().into() },
            InpMessage::AppReq {
                app_id: AppId(app),
                protocols: vec![ProtocolId::Gzip, ProtocolId::Bitmap],
                payload,
            },
        ];
        for msg in messages {
            let bytes = msg.to_bytes();
            prop_assert_eq!(InpMessage::from_bytes(&bytes).unwrap(), msg);
        }
    }

    /// Search optimality: the returned path's total is minimal over the
    /// exhaustive path enumeration, on arbitrary single- and two-level
    /// trees.
    #[test]
    fn search_is_optimal(
        level1 in proptest::collection::vec(arb_pad_meta(0), 1..5),
        level2_counts in proptest::collection::vec(0usize..4, 1..5)
    ) {
        let mut pat = Pat::new(AppId(1));
        let mut next_id = 0u64;
        let mut l1_ids = Vec::new();
        for mut m in level1 {
            m.id = PadId(next_id);
            next_id += 1;
            l1_ids.push(m.id);
            pat.insert(m, None).unwrap();
        }
        // Attach children per the counts (cycled over level-1 nodes).
        for (i, &count) in level2_counts.iter().enumerate() {
            let parent = l1_ids[i % l1_ids.len()];
            for _ in 0..count {
                let mut child = PadMeta {
                    id: PadId(next_id),
                    protocol: ProtocolId::Direct,
                    size: 100,
                    overhead: PadOverhead {
                        server_ms_per_mb: (next_id % 7) as f64 * 100.0,
                        client_ms_per_mb: (next_id % 5) as f64 * 100.0,
                        traffic_ratio: 0.5,
                    },
                    digest: fractal_crypto::sha1::sha1(&next_id.to_le_bytes()),
                    url: String::new(),
                    parent: None,
                    children: vec![],
                };
                child.id = PadId(next_id);
                next_id += 1;
                pat.insert(child, Some(parent)).unwrap();
            }
        }

        let env = ClientEnv {
            dev: DevMeta {
                os: OsType::FedoraCore2,
                cpu: CpuType::Reference500,
                cpu_mhz: 500,
                memory_mb: 256,
            },
            ntwk: NtwkMeta { kind: LinkKind::Wan, bandwidth_kbps: 1000 },
        };
        let model = OverheadModel::paper(Ratios::linear());
        let marks = fractal_core::search::mark_nodes(&pat, &model, &env, 100_000);
        let best = search(&pat, &model, &env, 100_000).unwrap();
        for path in pat.paths() {
            let total: f64 = path.iter().map(|id| marks[id]).sum();
            prop_assert!(best.total_overhead_s <= total + 1e-9,
                         "found cheaper path {path:?} ({total}) than search ({})",
                         best.total_overhead_s);
        }
        // The reported total is consistent with the marks.
        let reported: f64 = best.pads.iter().map(|id| marks[id]).sum();
        prop_assert!((reported - best.total_overhead_s).abs() < 1e-9);
    }

    /// Equation 3 monotonicity: slower CPU or slower network never makes a
    /// PAD cheaper.
    #[test]
    fn overhead_is_monotone(cpu_a in 100u32..4000, cpu_b in 100u32..4000,
                            bw_a in 50u32..100_000, bw_b in 50u32..100_000,
                            pad in arb_pad_meta(3)) {
        let model = OverheadModel::paper(Ratios::linear());
        let env = |cpu_mhz: u32, bw: u32| ClientEnv {
            dev: DevMeta {
                os: OsType::FedoraCore2,
                cpu: CpuType::Reference500,
                cpu_mhz,
                memory_mb: 128,
            },
            ntwk: NtwkMeta { kind: LinkKind::Wan, bandwidth_kbps: bw },
        };
        let (cpu_fast, cpu_slow) = (cpu_a.max(cpu_b), cpu_a.min(cpu_b));
        let (bw_fast, bw_slow) = (bw_a.max(bw_b), bw_a.min(bw_b));
        let fast = model.pad_total(&pad, &env(cpu_fast, bw_fast), 1_000_000);
        let slow = model.pad_total(&pad, &env(cpu_slow, bw_slow), 1_000_000);
        prop_assert!(slow >= fast - 1e-12);
    }
}
