//! The link-model session driver behind Figures 10 and 11, and the PAD
//! repository sessions download from.
//!
//! [`run_session`] is a driver over the sans-IO INP core, like
//! [`Reactor`](crate::reactor::Reactor) and
//! [`ShardedReactor`](crate::shard::ShardedReactor), so every step really
//! happens — messages are built and parsed, PADs verified and deployed,
//! the server encodes, the sandboxed FVM module decodes — while *time* is
//! charged from the calibrated link and overhead model instead of read off
//! a clock: results are exact and reproducible.

use std::collections::HashMap;

use bytes::Bytes;
use fractal_net::link::Link;
use fractal_net::time::SimDuration;
use fractal_protocols::{ProtocolId, Traffic};

use crate::client::FractalClient;
use crate::error::FractalError;
use crate::inp::InpMessage;
use crate::meta::{AppId, PadId};
use crate::overhead::STD_CPU_MHZ;
use crate::proxy::AdaptationProxy;
use crate::reactor::{InpService, InpSession, ServiceConn, SessionError, SessionPhase};
use crate::server::ApplicationServer;

/// Where clients download PADs from in the uncontended sessions of
/// Figures 10/11 (the contended Figure 9(b) capacity experiment uses the
/// full CDN deployment in `fractal-cdn`). Wires are [`Bytes`]: every
/// client's `PAD_DOWNLOAD_REP` shares the one artifact buffer.
///
/// Epoch-versioned like the server's content store: `insert`/`clear`
/// take `&self` and publish a successor snapshot, so a PAD rollout (or
/// rollback) lands atomically under live download traffic — a reader
/// pins one consistent repo generation per lookup.
#[derive(Default)]
pub struct PadRepo {
    wires: crate::epoch::Epoch<HashMap<PadId, Bytes>>,
}

impl PadRepo {
    /// An empty repo (generation 0).
    pub fn new() -> PadRepo {
        PadRepo::default()
    }

    /// Publishes (or replaces) one PAD artifact's wire form.
    pub fn insert(&self, pad_id: PadId, wire: impl Into<Bytes>) {
        let wire = wire.into();
        self.wires.publish_with(|m| {
            m.insert(pad_id, wire);
        });
    }

    /// The wire form served for `PAD_DOWNLOAD_REQ` — an O(1) refcount
    /// clone out of the pinned snapshot.
    pub fn get(&self, pad_id: PadId) -> Option<Bytes> {
        self.wires.pin().get(&pad_id).cloned()
    }

    /// Withdraws every artifact (the "repo offline" fault in the
    /// session tests).
    pub fn clear(&self) {
        self.wires.publish_with(HashMap::clear);
    }

    /// Number of artifacts currently published.
    pub fn len(&self) -> usize {
        self.wires.pin().len()
    }

    /// Whether no artifacts are published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every published wire, ordered by PAD id (deterministic — the repo
    /// index is a hash map, its iteration order is not).
    pub fn wires(&self) -> Vec<Bytes> {
        let pinned = self.wires.pin();
        let mut entries: Vec<(&PadId, &Bytes)> = pinned.iter().collect();
        entries.sort_by_key(|(id, _)| **id);
        entries.into_iter().map(|(_, w)| w.clone()).collect()
    }

    /// The repo's snapshot generation (+1 per insert/clear).
    pub fn generation(&self) -> u64 {
        self.wires.generation()
    }
}

impl core::fmt::Debug for PadRepo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PadRepo")
            .field("pads", &self.len())
            .field("generation", &self.generation())
            .finish()
    }
}

/// Per-session measurements, decomposed the way the paper plots them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SessionReport {
    /// The negotiated protocol (first PAD of the path).
    pub protocol: ProtocolId,
    /// INIT_REQ → PAD_META_REP (zero on a protocol-cache hit).
    pub negotiation: SimDuration,
    /// Whether the client's protocol cache short-circuited negotiation.
    pub negotiation_cached: bool,
    /// PAD download + verify + deploy (zero when already deployed).
    pub pad_retrieval: SimDuration,
    /// Server-side computing overhead (Figure 10's dark bars).
    pub server_compute: SimDuration,
    /// Client-side computing overhead (Figure 10's light bars).
    pub client_compute: SimDuration,
    /// Wire time for the application exchange (requests, upstream
    /// protocol messages, encoded payload).
    pub transmission: SimDuration,
    /// Bytes on the wire for the application exchange (Figure 11(a)).
    pub traffic: Traffic,
}

impl SessionReport {
    /// The paper's "total time" (Figure 11(b)/(c)): everything after
    /// negotiation, i.e. PAD retrieval + compute + transmission.
    pub fn total(&self) -> SimDuration {
        self.pad_retrieval + self.server_compute + self.client_compute + self.transmission
    }
}

/// Runs one full client session for `content_id` at version
/// `want_version`, negotiating (or reusing) the protocol, downloading and
/// deploying PADs as needed, and transferring + decoding the content.
///
/// The exchange is the core's: an [`InpSession`] on the lent client and an
/// [`InpService`] connection, each message handed across in order. The
/// driver prices it. What the session emits in one phase, and every reply,
/// goes into that phase's bucket at `link.transfer_time` of its wire
/// length, plus the proxy's service time behind `CLI_META_REP` and the
/// gauntlet per PAD download. The protocol's own upstream message (Bitmap
/// digests, fixed-block signatures) is built by the deployed mobile code
/// and counted beside `APP_REQ`, not sent: the server does not read it.
#[allow(clippy::too_many_arguments)] // one parameter per party in Figure 4
pub fn run_session(
    client: &mut FractalClient,
    proxy: &AdaptationProxy,
    server: &ApplicationServer,
    pad_repo: &PadRepo,
    link: &Link,
    app_id: AppId,
    content_id: u32,
    want_version: u32,
) -> Result<SessionReport, FractalError> {
    let service = InpService { proxy, server, pad_repo };
    let mut conn = ServiceConn::new();
    let mut session = InpSession::new(client, app_id, content_id, want_version);
    let env = session.client().probe();
    // Verification + instantiation cost per PAD, linear-model scaled.
    let gauntlet = SimDuration::millis(1).scale(STD_CPU_MHZ / env.dev.cpu_mhz as f64);

    let (mut negotiation, mut pad_retrieval, mut transmission) =
        (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO);
    let mut traffic = Traffic::default();
    let mut upstream = session.start().map_err(framework)?;
    let negotiation_cached = session.phase() != SessionPhase::MetaExchange;
    while !upstream.is_empty() {
        let phase = session.phase();
        let bucket = match phase {
            SessionPhase::PadDownload => &mut pad_retrieval,
            SessionPhase::Sessioning => &mut transmission,
            _ => &mut negotiation,
        };
        let mut next = Vec::new();
        for msg in &upstream {
            let sent = msg.wire_len() as u64;
            *bucket += link.transfer_time(sent);
            match phase {
                SessionPhase::PathSearch => {
                    *bucket += proxy.service_time(app_id, proxy.cached(app_id, &env));
                }
                SessionPhase::PadDownload => *bucket += gauntlet,
                SessionPhase::Sessioning => {
                    traffic.upstream = sent;
                    let pad = &session.negotiated().expect("APP_REQ follows negotiation")[0];
                    let (pad_id, protocol) = (pad.id, pad.protocol);
                    let built = session.client_mut().upstream_message(pad_id, protocol, content_id);
                    if let Some(built) = built? {
                        *bucket += link.transfer_time(built.len() as u64);
                        traffic.upstream += built.len() as u64;
                    }
                }
                _ => {}
            }
            let replies = service.on_message(&mut conn, msg).map_err(framework)?;
            let received = replies.iter().map(priced_len).sum();
            *bucket += link.transfer_time(received);
            if phase == SessionPhase::Sessioning {
                traffic.downstream = received;
            }
            for reply in &replies {
                next.extend(session.on_message(reply).map_err(framework)?);
            }
        }
        upstream = next;
    }

    // The oracle: what the mobile code decoded is what was published.
    let expected = server.content(content_id, want_version).expect("published version");
    let stored = session.client().cached_content(content_id).expect("a finished session stored");
    assert_eq!(stored.bytes, expected, "mobile-code decode must reproduce the content");

    // Equation 3's compute terms at the measured content size.
    let pad = &session.negotiated().expect("a finished session negotiated")[0];
    let content_bytes = expected.len() as u64;
    let server_compute = if conn.computed_on_request() {
        SimDuration::from_secs_f64(proxy.model().server_compute_s(pad, &env, content_bytes))
    } else {
        // Proactive store lookup.
        SimDuration::micros(50)
    };
    let client_compute =
        SimDuration::from_secs_f64(proxy.model().client_compute_s(pad, &env, content_bytes));

    Ok(SessionReport {
        protocol: pad.protocol,
        negotiation,
        negotiation_cached,
        pad_retrieval,
        server_compute,
        client_compute,
        transmission,
        traffic,
    })
}

/// The bytes a reply is priced at: its wire length, except `APP_REP`,
/// which counts as the encoded payload it carries.
fn priced_len(reply: &InpMessage) -> u64 {
    match reply {
        InpMessage::AppRep { payload, .. } => payload.len() as u64,
        other => other.wire_len() as u64,
    }
}

/// Both halves of the core are fed in Figure 4's order, so the only
/// rejection either returns is a framework failure.
fn framework(e: SessionError) -> FractalError {
    match e {
        SessionError::Fractal(e) => e,
        other => unreachable!("in-order driver rejected: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::ClientClass;
    use crate::server::AdaptiveContentMode;
    use crate::testbed::Testbed;

    fn content(seed: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i / 7) as u8).wrapping_mul(seed).wrapping_add(seed)).collect()
    }

    #[test]
    fn full_session_cold_then_warm() {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        let v0 = content(3, 40_000);
        let mut v1 = v0.clone();
        v1[100] ^= 0xFF;
        tb.server.publish(7, v0);
        tb.server.publish(7, v1);

        let mut client = tb.client(ClientClass::PdaBluetooth);
        let link = ClientClass::PdaBluetooth.link();

        let cold =
            run_session(&mut client, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, 7, 0)
                .unwrap();
        assert!(!cold.negotiation_cached);
        assert!(cold.negotiation > SimDuration::ZERO);
        assert!(cold.pad_retrieval > SimDuration::ZERO);
        assert!(cold.total() > SimDuration::ZERO);

        let warm =
            run_session(&mut client, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, 7, 1)
                .unwrap();
        assert!(warm.negotiation_cached, "protocol cache should hit");
        assert_eq!(warm.negotiation, SimDuration::ZERO);
        assert_eq!(warm.pad_retrieval, SimDuration::ZERO, "PAD already deployed");
        // Warm differencing transfer moves far fewer bytes than cold.
        assert!(warm.traffic.downstream < cold.traffic.downstream / 2);
    }

    #[test]
    fn session_decodes_through_vm_for_every_class() {
        for class in ClientClass::ALL {
            let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
            tb.server.publish(7, content(5, 20_000));
            let mut client = tb.client(class);
            let link = class.link();
            let report = run_session(
                &mut client,
                &tb.proxy,
                &tb.server,
                &tb.pad_repo,
                &link,
                tb.app_id,
                7,
                0,
            )
            .unwrap();
            assert!(report.traffic.downstream > 0, "{class}");
            assert_eq!(client.cached_content(7).unwrap().version, 0);
        }
    }

    #[test]
    fn proactive_mode_charges_no_server_compute() {
        let mut tb = Testbed::case_study(AdaptiveContentMode::Proactive);
        tb.proxy.set_mode(crate::overhead::ServerComputeMode::Exclude);
        tb.server.publish(7, content(6, 20_000));
        let mut client = tb.client(ClientClass::PdaBluetooth);
        let link = ClientClass::PdaBluetooth.link();
        let report =
            run_session(&mut client, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, 7, 0)
                .unwrap();
        assert!(report.server_compute < SimDuration::millis(1));
    }

    #[test]
    fn missing_pad_in_repo_fails_cleanly() {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        tb.server.publish(7, content(9, 5_000));
        tb.pad_repo.clear();
        let mut client = tb.client(ClientClass::DesktopLan);
        let link = ClientClass::DesktopLan.link();
        let err =
            run_session(&mut client, &tb.proxy, &tb.server, &tb.pad_repo, &link, tb.app_id, 7, 0)
                .unwrap_err();
        assert!(matches!(err, FractalError::PadUnavailable(_)));
    }

    /// The whole report, field for field, for each case-study protocol on
    /// the PDA: a charge that moves to another bucket, a dropped latency
    /// term or a miscounted byte fails here by name. (`pad_retrieval`
    /// follows the shipped PAD artifacts' wire sizes.)
    #[test]
    fn pda_reports_are_pinned_cold_then_warm() {
        use ProtocolId::{Bitmap, Direct, Gzip, VaryBlock};
        // (negotiation, pad_retrieval, server, client, transmission) in
        // µs, then (upstream, downstream) bytes; cold row, warm row.
        type Row = ([u64; 5], [u64; 2]);
        let pinned: [(ProtocolId, Row, Row); 4] = [
            (
                Direct,
                ([82_382, 42_743, 0, 250, 593_651], [29, 40_000]),
                ([0, 0, 0, 250, 593_706], [33, 40_000]),
            ),
            (
                Gzip,
                ([82_354, 45_980, 3_571, 16_500, 70_277], [29, 2_160]),
                ([0, 0, 3_571, 16_500, 70_567], [33, 2_177]),
            ),
            (
                Bitmap,
                ([82_382, 48_193, 857, 143_000, 613_970], [37, 40_015]),
                ([0, 0, 857, 143_000, 91_314], [201, 2_063]),
            ),
            (
                VaryBlock,
                ([82_354, 46_270, 85_714, 148_500, 593_776], [29, 40_009]),
                ([0, 0, 85_714, 148_500, 97_607], [33, 4_132]),
            ),
        ];
        let link = ClientClass::PdaBluetooth.link();
        for (protocol, cold, warm) in pinned {
            let tb = Testbed::with_protocols(&[protocol], AdaptiveContentMode::Reactive);
            let v0 = content(3, 40_000);
            let mut v1 = v0.clone();
            v1[100] ^= 0xFF;
            tb.server.publish(7, v0);
            tb.server.publish(7, v1);
            let mut client = tb.client(ClientClass::PdaBluetooth);
            for (want, ([negotiation, pad, server, client_us, tx], [up, down])) in
                [(0, cold), (1, warm)]
            {
                let report = run_session(
                    &mut client,
                    &tb.proxy,
                    &tb.server,
                    &tb.pad_repo,
                    &link,
                    tb.app_id,
                    7,
                    want,
                )
                .unwrap();
                let expected = SessionReport {
                    protocol,
                    negotiation: SimDuration::micros(negotiation),
                    negotiation_cached: want == 1,
                    pad_retrieval: SimDuration::micros(pad),
                    server_compute: SimDuration::micros(server),
                    client_compute: SimDuration::micros(client_us),
                    transmission: SimDuration::micros(tx),
                    traffic: Traffic { upstream: up, downstream: down },
                };
                assert_eq!(report, expected, "{protocol} want v{want}");
            }
        }
    }

    /// A PAD the client refuses fails the session with the gauntlet's own
    /// error, and the client the caller lent comes back usable: the
    /// negotiation is remembered, nothing is deployed, the refusal counted.
    #[test]
    fn gauntlet_failure_leaves_the_lent_client_intact() {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        tb.server.publish(7, content(4, 5_000));
        let class = ClientClass::PdaBluetooth;
        let mut client = tb.untrusting_client(class);
        let err = run_session(
            &mut client,
            &tb.proxy,
            &tb.server,
            &tb.pad_repo,
            &class.link(),
            tb.app_id,
            7,
            0,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                FractalError::PadRejected(fractal_vm::ModuleError::Signature(
                    fractal_crypto::sign::VerifyError::UntrustedSigner(_)
                ))
            ),
            "{err:?}"
        );
        let pads = client.cached_protocols(tb.app_id).expect("negotiation was remembered");
        assert_eq!(pads[0].protocol, ProtocolId::Bitmap);
        assert!(!client.is_deployed(pads[0].id));
        assert!(client.cached_content(7).is_none());
        let stats = client.stats();
        assert_eq!((stats.negotiations, stats.pads_deployed, stats.pads_rejected), (1, 0, 1));
    }
}
