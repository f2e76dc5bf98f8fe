//! The probe pass: the run's actual inputs — the PAD wire bytes, the
//! environments, the pages, the frames a session exchanges — replayed
//! straight into each layer's public functions and timed there. Together
//! with the spans around the reactor calls these are the rows of the
//! per-session budget.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fractal_core::inp::InpMessage;
use fractal_core::meta::{PadId, PadMeta};
use fractal_core::presets::pad_id;
use fractal_core::reactor::encode_app_payload;
use fractal_core::sys::{Interest, Poller};
use fractal_core::transport::{
    Framer, LoopbackTransport, TcpTransport, Transport, DEFAULT_CAPACITY,
};
use fractal_crypto::sha1::sha1;
use fractal_pads::PadRuntime;
use fractal_protocols::ProtocolId;
use fractal_vm::verify::verify_module;
use fractal_vm::{analyze_module, Module, SandboxPolicy, SignedModule};

use crate::bed::{Bed, COLD_ID, WARM_CLIENTS, WARM_ID_BASE};
use crate::gen::{client_env, N_ENVS};
use crate::stats;
use crate::{Metric, Workload};

/// The four case-study protocols and the suffix their rows carry.
pub const PROTOCOLS: [(ProtocolId, &str); 4] = [
    (ProtocolId::Direct, "direct"),
    (ProtocolId::Gzip, "gzip"),
    (ProtocolId::Bitmap, "bitmap"),
    (ProtocolId::VaryBlock, "vary"),
];

/// Mean ns per call of `f` in the least disturbed of five batches that
/// together take about `budget`: on a shared box interference only ever adds
/// time. The result of `f` is dropped inside the timed region, so use this
/// for calls whose results are small.
fn time_ns<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_nanos().max(1) as u64;
    let per_batch = (budget.as_nanos() as u64 / 5 / once).clamp(1, 1 << 20);
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Ascending ns samples of `run`, one per call, for about `budget` (at
/// least five). `setup` runs before, and the result is dropped after, the
/// timed region — for calls that consume an input or build something big.
fn samples_ns<S, R>(
    budget: Duration,
    mut setup: impl FnMut(usize) -> S,
    mut run: impl FnMut(S) -> R,
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let input = setup(samples.len());
        let t = Instant::now();
        let out = black_box(run(input));
        samples.push(t.elapsed().as_nanos() as f64);
        drop(out);
    }
    stats::sort(&mut samples);
    samples
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The typical sample: the median, which a descheduled call cannot move.
fn typical(sorted_samples: &[f64]) -> f64 {
    stats::percentile(sorted_samples, 50.0)
}

/// What the probe pass found.
#[derive(Default)]
pub struct Probes {
    /// The per-layer rows it measures.
    pub metrics: Vec<Metric>,
    /// Budget rows: what one session of this workload spends in each
    /// probed layer, µs, weighted by the workload's protocol mix.
    pub per_session_us: Vec<(&'static str, f64)>,
    /// A probe's own output check failed (a decode that did not round-trip).
    pub mismatch: Option<String>,
    /// Frames a session receives according to the replayed transcript —
    /// cross-checked against `core.reactor.frames_per_session`.
    pub transcript_frames_per_session: f64,
}

impl Probes {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// One session's frames, as the reactor would put them on the wire.
struct Transcript {
    /// Small control messages, both directions.
    control: Vec<InpMessage>,
    /// The PAD download and application replies: the bytes that matter.
    bulk: Vec<InpMessage>,
    /// How many of the messages travel service → client.
    to_client: usize,
}

/// What `deploys_per_session`, `frames_per_session` and the hit ratio were
/// in the run the probes are to be weighed by.
pub struct RunFacts {
    /// PADs deployed per session.
    pub deploys_per_session: f64,
    /// Share of negotiations the adaptation cache answered.
    pub cache_hit_ratio: f64,
    /// Negotiations per session (1 cold, 0 warm).
    pub negotiations_per_session: f64,
}

/// Runs every probe against `bed`, each for about `probe_ms`.
pub fn run(bed: &Bed, facts: &RunFacts, probe_ms: u64) -> Probes {
    let budget = Duration::from_millis(probe_ms);
    let mut out = Probes::default();
    let mix = protocol_mix(bed);

    gauntlet(bed, facts, budget, &mut out);
    negotiation(bed, facts, budget, &mut out);
    pages(bed, &mix, budget, &mut out);
    wire(bed, budget, &mut out);
    sockets(budget, &mut out);
    out
}

/// Share of the workload's sessions served with each protocol, by the
/// oracle's decisions over one round's session order.
fn protocol_mix(bed: &Bed) -> Vec<(ProtocolId, f64)> {
    let deciders: Vec<usize> = if bed.workload == Workload::WarmFetch {
        (0..WARM_CLIENTS).collect()
    } else {
        bed.inputs.order.clone()
    };
    PROTOCOLS
        .iter()
        .map(|&(p, _)| {
            let n = deciders.iter().filter(|&&e| bed.oracle[e].protocol() == p).count();
            (p, n as f64 / deciders.len() as f64)
        })
        .collect()
}

/// The gauntlet's steps on one PAD's wire bytes, ns each: SHA-1, HMAC
/// verify, parse, `verify_module`, `analyze_module`, instantiate.
fn gauntlet_steps(bed: &Bed, pad: &PadMeta, budget: Duration) -> [f64; 6] {
    let policy = SandboxPolicy::for_pads();
    let trust = bed.tb.client_with_env(client_env(0)).trust;
    let wire = bed.tb.pad_repo.get(pad.id).expect("negotiated PADs are published");
    let signed = SignedModule::from_wire(&wire).expect("published PADs parse");
    let module = Module::from_bytes(&signed.bytes).expect("published PADs parse");
    [
        time_ns(budget, || sha1(&signed.bytes)),
        time_ns(budget, || trust.verify(&signed.bytes, &signed.signature)),
        time_ns(budget, || {
            let s = SignedModule::from_wire(&wire).expect("parses");
            Module::from_bytes(&s.bytes)
        }),
        time_ns(budget, || verify_module(&module)),
        time_ns(budget, || analyze_module(&module, &policy)),
        typical(&samples_ns(
            budget,
            |_| (module.clone(), policy.clone()),
            |(m, p)| PadRuntime::new(m, p),
        )),
    ]
}

/// The acceptance gauntlet, step by step, on the PAD wire bytes the
/// sessions download, then `deploy_pad` as a whole on fresh clients.
fn gauntlet(bed: &Bed, facts: &RunFacts, budget: Duration, out: &mut Probes) {
    // Every PAD a session deploys, one chain per environment of the stream:
    // averaging over it weighs the PADs by the session mix. Each distinct
    // PAD is timed once.
    let deployed: Vec<&PadMeta> = bed.oracle.iter().flat_map(|d| &d.pads).collect();
    let mut timed: Vec<(PadId, [f64; 6])> = Vec::new();
    for pad in &deployed {
        if !timed.iter().any(|(id, _)| *id == pad.id) {
            timed.push((pad.id, gauntlet_steps(bed, pad, budget)));
        }
    }
    let mut rows = [0.0f64; 6];
    for pad in &deployed {
        let (_, steps) = timed.iter().find(|(id, _)| *id == pad.id).expect("timed above");
        for (sum, ns) in rows.iter_mut().zip(steps) {
            *sum += ns / deployed.len() as f64;
        }
    }
    // (metric, budget label): the budget's unit is µs per session, not ns
    // per deploy, so it gets labels of its own.
    let names = [
        ("crypto.sha1_ns_per_deploy", "crypto.sha1"),
        ("crypto.hmac_verify_ns_per_deploy", "crypto.hmac_verify"),
        ("vm.parse_ns_per_deploy", "vm.parse"),
        ("vm.verify_ns_per_deploy", "vm.verify"),
        ("vm.analyze_ns_per_deploy", "vm.analyze"),
        ("pads.instantiate_ns_per_deploy", "pads.instantiate"),
    ];
    for ((name, label), ns) in names.into_iter().zip(rows) {
        out.push(name, ns, "ns");
        out.per_session_us.push((label, ns / 1e3 * facts.deploys_per_session));
    }

    let samples = samples_ns(
        budget * 4,
        |i| {
            let decision = &bed.oracle[i % N_ENVS];
            let pad = decision.pads[0].clone();
            let wire = bed.tb.pad_repo.get(pad.id).expect("negotiated PADs are published");
            (bed.tb.client_with_env(client_env(i % N_ENVS)), pad, wire)
        },
        |(mut client, pad, wire)| {
            client.deploy_pad(&pad, &wire).expect("published PADs pass the gauntlet");
            client
        },
    );
    out.push("core.client.deploy_pad_us_p50", stats::percentile(&samples, 50.0) / 1e3, "us");
    out.push("core.client.deploy_pad_us_p99", stats::percentile(&samples, 99.0) / 1e3, "us");
}

/// `negotiate` on a cache hit and on a miss (cache and path-search memo
/// cleared, as after an `AppMeta` push), over the stream's environments.
fn negotiation(bed: &Bed, facts: &RunFacts, budget: Duration, out: &mut Probes) {
    let proxy = &bed.tb.proxy;
    let app = bed.tb.app_id;
    let miss = typical(&samples_ns(
        budget,
        |i| {
            proxy.clear_adaptation_state();
            client_env(i % N_ENVS)
        },
        |env| proxy.negotiate(app, env),
    ));
    for i in 0..N_ENVS {
        black_box(proxy.negotiate(app, client_env(i)).expect("negotiates"));
    }
    let mut i = 0;
    let hit = time_ns(budget, || {
        i += 1;
        proxy.negotiate(app, client_env(i % N_ENVS))
    });
    out.push("core.proxy.negotiate_hit_ns", hit, "ns");
    out.push("core.proxy.negotiate_miss_ns", miss, "ns");
    let per_negotiation = facts.cache_hit_ratio * hit + (1.0 - facts.cache_hit_ratio) * miss;
    out.per_session_us
        .push(("core.proxy.negotiate", per_negotiation / 1e3 * facts.negotiations_per_session));
}

/// One fetch as this workload's sessions make it.
struct Fetch<'a> {
    content_id: u32,
    have: Option<u32>,
    want: u32,
    /// The bytes the client holds.
    old: &'a [u8],
    /// The bytes it must end up with.
    new: &'a [u8],
}

/// Every distinct fetch of this workload's sessions.
fn fetches(bed: &Bed) -> Vec<Fetch<'_>> {
    if bed.workload == Workload::WarmFetch {
        bed.inputs
            .warm_pages
            .iter()
            .enumerate()
            .map(|(p, page)| Fetch {
                content_id: WARM_ID_BASE + p as u32,
                have: Some(0),
                want: 1,
                old: &page.v0,
                new: &page.v1,
            })
            .collect()
    } else {
        vec![Fetch {
            content_id: COLD_ID,
            have: None,
            want: 0,
            old: &[],
            new: &bed.inputs.cold_page,
        }]
    }
}

/// A PAD runtime for `protocol`, built from the published wire bytes.
fn runtime_for(bed: &Bed, protocol: ProtocolId) -> PadRuntime {
    let wire = bed.tb.pad_repo.get(pad_id(protocol)).expect("the four PADs are published");
    let signed = SignedModule::from_wire(&wire).expect("published PADs parse");
    let module = Module::from_bytes(&signed.bytes).expect("published PADs parse");
    PadRuntime::new(module, SandboxPolicy::for_pads()).expect("published PADs instantiate")
}

/// `server.respond` and the PAD's `decode` for every page the workload
/// fetches, under each of the four protocols. Payload bytes and fuel come
/// from the first pass over the pages and are exact; a page's time is its
/// median over the passes (three at least), a row the mean over the pages.
fn pages(bed: &Bed, mix: &[(ProtocolId, f64)], budget: Duration, out: &mut Probes) {
    const RESPOND: [&str; 4] = [
        "core.server.respond_us_per_page.direct",
        "core.server.respond_us_per_page.gzip",
        "core.server.respond_us_per_page.bitmap",
        "core.server.respond_us_per_page.vary",
    ];
    const PAYLOAD: [&str; 4] = [
        "protocols.payload_bytes_per_page.direct",
        "protocols.payload_bytes_per_page.gzip",
        "protocols.payload_bytes_per_page.bitmap",
        "protocols.payload_bytes_per_page.vary",
    ];
    const DECODE: [&str; 4] = [
        "pads.decode_us_per_page.direct",
        "pads.decode_us_per_page.gzip",
        "pads.decode_us_per_page.bitmap",
        "pads.decode_us_per_page.vary",
    ];
    const FUEL: [&str; 4] = [
        "vm.fuel_per_page.direct",
        "vm.fuel_per_page.gzip",
        "vm.fuel_per_page.bitmap",
        "vm.fuel_per_page.vary",
    ];
    let server = &bed.tb.server;
    let fetches = fetches(bed);
    let (mut respond_us, mut decode_us) = (0.0, 0.0);
    for (k, &(protocol, _)) in PROTOCOLS.iter().enumerate() {
        let mut runtime = runtime_for(bed, protocol);
        // Per page, one sample per pass.
        let mut respond_ns = vec![Vec::new(); fetches.len()];
        let mut decode_ns = vec![Vec::new(); fetches.len()];
        let (mut payload_bytes, mut fuel) = (0u64, 0u64);
        let start = Instant::now();
        let mut pass = 0;
        while pass < 3 || start.elapsed() < budget * 2 {
            for (page, f) in fetches.iter().enumerate() {
                let t = Instant::now();
                let resp = server
                    .respond(f.content_id, f.have, f.want, protocol)
                    .expect("published content");
                respond_ns[page].push(t.elapsed().as_nanos() as f64);
                let fuel_before = runtime.fuel_used();
                let t = Instant::now();
                let decoded = runtime.decode(f.old, &resp.payload);
                decode_ns[page].push(t.elapsed().as_nanos() as f64);
                if pass == 0 {
                    payload_bytes += resp.payload.len() as u64;
                    fuel += runtime.fuel_used() - fuel_before;
                    if decoded.as_deref().ok() != Some(f.new) {
                        out.mismatch.get_or_insert(format!(
                            "{protocol} decode of content {}",
                            f.content_id
                        ));
                    }
                }
            }
            pass += 1;
        }
        // The typical pass of each page, then the mean page.
        let per_page = |samples: &[Vec<f64>]| {
            mean(&samples.iter().map(|s| stats::median(s)).collect::<Vec<f64>>()) / 1e3
        };
        let pages = fetches.len() as f64;
        out.push(RESPOND[k], per_page(&respond_ns), "us");
        out.push(PAYLOAD[k], payload_bytes as f64 / pages, "bytes");
        out.push(DECODE[k], per_page(&decode_ns), "us");
        out.push(FUEL[k], fuel as f64 / pages, "fuel");
        respond_us += mix[k].1 * per_page(&respond_ns);
        decode_us += mix[k].1 * per_page(&decode_ns);
    }
    out.per_session_us.push(("core.server.respond", respond_us));
    out.per_session_us.push(("pads.decode", decode_us));

    // The cold fetch of the 16 KB page over the cold mix: what `respond`
    // costs when the page is small, whatever this workload fetches.
    let small: Vec<f64> = [ProtocolId::Direct, ProtocolId::Gzip, ProtocolId::Bitmap]
        .into_iter()
        .map(|p| time_ns(budget, || server.respond(COLD_ID, None, 0, p)))
        .collect();
    out.push("core.server.respond_small_us", mean(&small) / 1e3, "us");
}

/// The frames of one session per environment of the stream (cold), or per
/// warm client and page of the first wave (warm), rebuilt from the same PAD
/// bytes, decisions and server replies the reactor would use. Every
/// transcript stands for the same share of the workload's sessions.
fn transcripts(bed: &Bed) -> Vec<Transcript> {
    let tb = &bed.tb;
    let app_id = tb.app_id;
    if bed.workload == Workload::WarmFetch {
        let mut all = Vec::new();
        for c in 0..WARM_CLIENTS {
            let protocol = bed.oracle[c].protocol();
            for &page in &bed.inputs.order[..WARM_CLIENTS] {
                let id = WARM_ID_BASE + page as u32;
                let resp = tb.server.respond(id, Some(0), 1, protocol).expect("published content");
                all.push(Transcript {
                    control: vec![InpMessage::AppReq {
                        app_id,
                        protocols: vec![protocol],
                        payload: encode_app_payload(id, Some(0), 1),
                    }],
                    bulk: vec![InpMessage::AppRep {
                        content_id: id,
                        version: 1,
                        protocol,
                        payload: resp.payload,
                    }],
                    to_client: 1,
                });
            }
        }
        return all;
    }
    (0..N_ENVS)
        .map(|e| {
            let env = client_env(e);
            let decision = &bed.oracle[e];
            let protocol = decision.protocol();
            let resp = tb.server.respond(COLD_ID, None, 0, protocol).expect("published content");
            let mut control = vec![
                InpMessage::InitReq { app_id, payload: b"app-request".to_vec() },
                InpMessage::InitRep,
                InpMessage::CliMetaReq,
                InpMessage::CliMetaRep { dev: env.dev, ntwk: env.ntwk },
                InpMessage::PadMetaRep { pads: decision.pads.clone() },
                InpMessage::AppReq {
                    app_id,
                    protocols: decision.pads.iter().map(|p| p.protocol).collect(),
                    payload: encode_app_payload(COLD_ID, None, 0),
                },
            ];
            let mut bulk = vec![InpMessage::AppRep {
                content_id: COLD_ID,
                version: 0,
                protocol,
                payload: resp.payload,
            }];
            for pad in &decision.pads {
                control.push(InpMessage::PadDownloadReq { pad_id: pad.id });
                bulk.push(InpMessage::PadDownloadRep {
                    pad_id: pad.id,
                    bytes: tb.pad_repo.get(pad.id).expect("negotiated PADs are published"),
                });
            }
            Transcript { control, bulk, to_client: 4 + decision.pads.len() }
        })
        .collect()
}

/// INP codec, framing with and without checksums, and the in-memory ring,
/// on the frames of this workload's sessions.
fn wire(bed: &Bed, budget: Duration, out: &mut Probes) {
    let transcripts = transcripts(bed);
    let sessions = transcripts.len() as f64;
    out.transcript_frames_per_session =
        transcripts.iter().map(|t| t.to_client as f64).sum::<f64>() / sessions;

    let control: Vec<&InpMessage> = transcripts.iter().flat_map(|t| &t.control).collect();
    let bulk: Vec<&InpMessage> = transcripts.iter().flat_map(|t| &t.bulk).collect();
    let all: Vec<&InpMessage> = control.iter().chain(&bulk).copied().collect();
    let plain: Vec<Vec<u8>> = all.iter().map(|m| Framer::frame(m)).collect();
    let checked: Vec<Vec<u8>> = all.iter().map(|m| Framer::frame_checked(m)).collect();
    let kb = |bytes: usize| bytes as f64 / 1024.0;
    let bulk_kb = kb(bulk.iter().map(|m| m.wire_len()).sum());
    let total_kb = kb(plain.iter().map(Vec::len).sum());
    let encoded_len = |msgs: &[&InpMessage]| msgs.iter().map(|m| m.to_bytes().len()).sum::<usize>();

    let encode_per_msg = time_ns(budget, || encoded_len(&control)) / control.len() as f64;
    let encode_bulk = time_ns(budget, || encoded_len(&bulk));
    let decode =
        time_ns(budget, || plain.iter().filter(|w| InpMessage::from_bytes(w).is_ok()).count());
    let frame = time_ns(budget, || all.iter().map(|m| Framer::frame(m).len()).sum::<usize>());
    let frame_checked =
        time_ns(budget, || all.iter().map(|m| Framer::frame_checked(m).len()).sum::<usize>());
    let deframe = time_ns(budget, || deframe_all(Framer::new(), &plain));
    let deframe_checked = time_ns(budget, || deframe_all(Framer::new().with_checksum(), &checked));

    out.push("core.inp.encode_ns_per_msg", encode_per_msg, "ns");
    out.push("core.inp.decode_ns_per_msg", decode / all.len() as f64, "ns");
    let encode_bytes = (encode_bulk - encode_per_msg * bulk.len() as f64).max(0.0);
    out.push("core.inp.encode_ns_per_kb", encode_bytes / bulk_kb, "ns");
    out.push("core.transport.frame_ns_per_kb", frame / total_kb, "ns");
    out.push("core.transport.frame_checked_ns_per_kb", frame_checked / total_kb, "ns");
    out.push("core.transport.deframe_ns_per_kb", deframe / total_kb, "ns");
    out.push("core.transport.deframe_checked_ns_per_kb", deframe_checked / total_kb, "ns");

    // The ring: push a session's worth of bytes through a pair the way the
    // reactor does — send what fits, drain in 4 KB reads.
    let payload = vec![0xA5u8; (total_kb / sessions * 1024.0) as usize];
    let copy_ns = time_ns(budget, || {
        let mut pair = LoopbackTransport::pair(DEFAULT_CAPACITY);
        let mut chunk = [0u8; 4096];
        let (mut sent, mut received) = (0, 0);
        while received < payload.len() {
            sent += pair.client.send(&payload[sent..]).expect("open pair");
            loop {
                let n = pair.service.recv(&mut chunk).expect("open pair");
                if n == 0 {
                    break;
                }
                received += n;
            }
        }
        received
    });
    out.push("core.transport.loopback_copy_ns_per_kb", copy_ns / kb(payload.len()), "ns");

    // The budget takes the framing the workload really uses. Encode and
    // decode happen inside frame and deframe, so they are not added again.
    let (framing, deframing) =
        if bed.checked_frames() { (frame_checked, deframe_checked) } else { (frame, deframe) };
    out.per_session_us.push(("core.transport.frame", framing / sessions / 1e3));
    out.per_session_us.push(("core.transport.deframe", deframing / sessions / 1e3));
    if bed.workload != Workload::TcpWave {
        out.per_session_us.push(("core.transport.loopback_copy", copy_ns / 1e3));
    }
}

/// Feeds whole frames to `framer` and pulls the messages back out.
fn deframe_all(mut framer: Framer, frames: &[Vec<u8>]) -> usize {
    let mut messages = 0;
    for frame in frames {
        framer.push(frame);
        while let Ok(Some(_)) = framer.next_frame() {
            messages += 1;
        }
    }
    messages
}

/// Ascending ns samples of a 64-byte round trip over a loopback
/// `TcpTransport` pair, each end spinning on its nonblocking socket.
fn tcp_roundtrips_ns(budget: Duration) -> std::io::Result<Vec<f64>> {
    let mut pair = TcpTransport::pair()?;
    let ping = [0x5Au8; 64];
    let mut buf = [0u8; 64];
    let mut hop = |from: &mut Box<dyn Transport>, to: &mut Box<dyn Transport>| {
        let mut sent = 0;
        while sent < ping.len() {
            from.set_ready(false, true);
            sent += from.send(&ping[sent..]).unwrap_or(ping.len());
        }
        let mut got = 0;
        while got < ping.len() {
            to.set_ready(true, false);
            match to.recv(&mut buf[got..]) {
                Ok(n) => got += n,
                Err(_) => break,
            }
        }
    };
    Ok(samples_ns(
        budget,
        |_| (),
        |()| {
            hop(&mut pair.client, &mut pair.service);
            hop(&mut pair.service, &mut pair.client);
        },
    ))
}

/// Ascending ns samples of registering 512 idle sockets with a `Poller` and
/// one zero-timeout `wait`: what one turn of a shard's loop pays at that
/// population before any session is pumped.
fn poller_waits_ns(budget: Duration) -> std::io::Result<Vec<f64>> {
    let pairs: Vec<_> = (0..256).map(|_| TcpTransport::pair()).collect::<Result<_, _>>()?;
    let fds: Vec<_> =
        pairs.iter().flat_map(|p| [p.client.raw_fd(), p.service.raw_fd()]).flatten().collect();
    let mut poller = Poller::new();
    Ok(samples_ns(
        budget,
        |_| (),
        |()| {
            poller.clear();
            for (token, &fd) in fds.iter().enumerate() {
                poller.register(fd, token, Interest::READ);
            }
            poller.wait(Some(Duration::ZERO)).map(<[_]>::len).unwrap_or(0)
        },
    ))
}

/// The socket rows. A probe that cannot get its sockets reads 0.
fn sockets(budget: Duration, out: &mut Probes) {
    let roundtrips = tcp_roundtrips_ns(budget).unwrap_or_default();
    out.push("core.transport.tcp_roundtrip_us", typical(&roundtrips) / 1e3, "us");
    let waits = poller_waits_ns(budget).unwrap_or_default();
    out.push("core.sys.poller_wait_us.n512", typical(&waits) / 1e3, "us");
}
