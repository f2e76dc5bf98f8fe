//! Set-up: assemble the testbed, generate and publish the inputs, compute
//! the serial oracle, and (for `warm_fetch`) warm the clients. All of it is
//! timed as `setup_s`, so work a later change moves into set-up shows.

use std::cell::RefCell;

use bytes::Bytes;
use fractal_core::client::FractalClient;
use fractal_core::meta::{AppMeta, PadMeta};
use fractal_core::presets::{case_study_app_meta, pad_id};
use fractal_core::reactor::{InpSession, ReactorConfig, SessionPhase};
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_protocols::ProtocolId;
use fractal_vm::SignedModule;

use crate::gen::{client_env, Inputs, N_ENVS, PUBLISH_IDS};
use crate::{Shape, Workload};

/// The content id cold sessions fetch (pinned at version 0). The
/// `republish_mixed` writer rotates over ids `0..PUBLISH_IDS`, this one
/// included.
pub const COLD_ID: u32 = 0;
/// Content id of warm page `p` is `WARM_ID_BASE + p`.
pub const WARM_ID_BASE: u32 = 100;
/// Warm clients: two per paper class.
pub const WARM_CLIENTS: usize = 6;

/// Order-sensitive FNV fold over an adaptation decision (PAD ids and
/// protocols): what "the same decision as the serial oracle" compares.
pub fn fingerprint(pads: &[PadMeta]) -> u64 {
    pads.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, p| {
        (h ^ p.id.0 ^ ((p.protocol as u64) << 32)).wrapping_mul(0x100_0000_01b3)
    })
}

/// What the serial oracle `proxy.negotiate(env)` decided for one
/// environment.
pub struct Decision {
    /// The negotiated chain.
    pub pads: Vec<PadMeta>,
    /// Its [`fingerprint`].
    pub fingerprint: u64,
}

impl Decision {
    /// The protocol the application payload is encoded with.
    pub fn protocol(&self) -> ProtocolId {
        self.pads[0].protocol
    }
}

/// One published warm page as the waves use it.
pub struct WarmContent {
    /// Version 0, shared with every client that is handed it.
    pub v0: Bytes,
    /// Version 1 as the server holds it.
    pub v1: Bytes,
}

/// An assembled, published, oracle-checked testbed plus the inputs.
pub struct Bed {
    /// Which workload this bed was built for.
    pub workload: Workload,
    /// The program under test.
    pub tb: Testbed,
    /// The generated inputs.
    pub inputs: Inputs,
    /// Oracle decision per environment index (`client_env(i)`).
    pub oracle: Vec<Decision>,
    /// `warm_fetch` only: the published pages, by page index.
    pub warm_content: Vec<WarmContent>,
    /// `warm_fetch` only: the warmed clients, taken and returned each wave.
    /// (Interior mutability so the waves need only `&Bed`, which the
    /// `republish_mixed` writer thread shares.)
    pub warm_clients: RefCell<Vec<FractalClient>>,
    /// Makes the client of a cold session from its environment index.
    /// [`trusting_client`] in every workload; the self-tests swap in a
    /// client that must fail, to see failures counted.
    pub client_factory: fn(&Testbed, usize) -> FractalClient,
}

/// The client a cold session starts with: fresh, trusting the operator.
pub fn trusting_client(tb: &Testbed, env: usize) -> FractalClient {
    tb.client_with_env(client_env(env))
}

impl Bed {
    /// Builds the bed of `workload` from `seed`.
    ///
    /// # Panics
    /// If the program cannot serve its own set-up (an oracle negotiation
    /// or a warming session fails): there is nothing to measure then.
    pub fn build(workload: Workload, seed: u64, shape: &Shape) -> Bed {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        let inputs = Inputs::generate(workload, seed, shape.round_sessions());

        tb.server.publish(COLD_ID, inputs.cold_page.clone());
        for (id, body) in inputs.publish_bodies.iter().enumerate().take(PUBLISH_IDS).skip(1) {
            tb.server.publish(id as u32, body.clone());
        }
        let warm_content: Vec<WarmContent> = inputs
            .warm_pages
            .iter()
            .enumerate()
            .map(|(p, page)| {
                let id = WARM_ID_BASE + p as u32;
                tb.server.publish(id, page.v0.clone());
                tb.server.publish(id, page.v1.clone());
                WarmContent {
                    v0: tb.server.content(id, 0).expect("just published"),
                    v1: tb.server.content(id, 1).expect("just published"),
                }
            })
            .collect();

        let oracle: Vec<Decision> = (0..N_ENVS)
            .map(|i| {
                let pads = tb
                    .proxy
                    .negotiate(tb.app_id, client_env(i))
                    .expect("the oracle negotiates every environment of the stream");
                Decision { fingerprint: fingerprint(&pads), pads }
            })
            .collect();
        // The measured rounds must find the adaptation cache as a fresh
        // deployment would, not pre-filled by the oracle.
        tb.proxy.clear_adaptation_state();

        let warm_clients =
            if workload == Workload::WarmFetch { warm_up_clients(&tb) } else { Vec::new() };
        Bed {
            workload,
            tb,
            inputs,
            oracle,
            warm_content,
            warm_clients: RefCell::new(warm_clients),
            client_factory: trusting_client,
        }
    }

    /// Whether this workload's sessions use checksummed frames.
    pub fn checked_frames(&self) -> bool {
        matches!(self.workload, Workload::WarmFetch | Workload::TcpWave)
    }

    /// The reactor configuration of this workload.
    pub fn reactor_config(&self) -> ReactorConfig {
        if self.checked_frames() {
            ReactorConfig::new().frame_checksums()
        } else {
            ReactorConfig::new()
        }
    }
}

/// The case-study `AppMeta` exactly as `Testbed` pushed it, rebuilt from the
/// published PAD bytes: what the `republish_mixed` writer re-pushes.
pub fn unchanged_app_meta(tb: &Testbed) -> AppMeta {
    let artifacts: Vec<_> = ProtocolId::PAPER_FOUR
        .iter()
        .map(|&p| {
            let wire = tb.pad_repo.get(pad_id(p)).expect("the four PADs are published");
            let signed = SignedModule::from_wire(&wire).expect("published PADs parse");
            (p, signed.digest(), wire.len() as u32)
        })
        .collect();
    case_study_app_meta(tb.app_id, &artifacts)
}

/// Runs one full cold session per warm client (negotiate, download and
/// deploy the PAD, fetch version 0 of a warm page), so the measured waves
/// start from a protocol-cache hit with the PAD already deployed.
fn warm_up_clients(tb: &Testbed) -> Vec<FractalClient> {
    let mut reactor = tb.reactor_with(ReactorConfig::new().frame_checksums());
    for c in 0..WARM_CLIENTS {
        let client = tb.client_with_env(client_env(c));
        reactor.spawn(InpSession::new(client, tb.app_id, WARM_ID_BASE + c as u32, 0));
    }
    reactor.run().expect("warming sessions do not stall");
    reactor
        .into_sessions()
        .into_iter()
        .map(|s| {
            assert_eq!(s.phase(), SessionPhase::Done, "warming session failed: {:?}", s.error());
            s.into_client()
        })
        .collect()
}
