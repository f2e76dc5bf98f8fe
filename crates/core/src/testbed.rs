//! A pre-wired case-study testbed: signer, PAD catalog, adaptation proxy,
//! application server, and PAD repository — everything Figure 7 sets up,
//! ready for sessions.
//!
//! Used by the integration tests, the examples, and the figure harness so
//! they all exercise the same assembly code path.

use std::sync::Arc;

use fractal_crypto::sign::{Signer, SignerRegistry, TrustStore};
use fractal_pads::Catalog;
use fractal_protocols::ProtocolId;
use fractal_vm::AdmissionCache;

use crate::client::FractalClient;
use crate::meta::AppId;
use crate::overhead::OverheadModel;
use crate::presets::{case_study_app_meta, pad_id, paper_ratios, ClientClass};
use crate::proxy::AdaptationProxy;
use crate::server::{AdaptiveContentMode, ApplicationServer};
use crate::session::PadRepo;

/// The assembled experimental platform.
pub struct Testbed {
    /// The adaptation proxy, PAT pushed and ready.
    pub proxy: AdaptationProxy,
    /// The application server with the four case-study protocols deployed.
    pub server: ApplicationServer,
    /// PAD wire bytes by id (what the CDN serves).
    pub pad_repo: PadRepo,
    /// The application id.
    pub app_id: AppId,
    /// The operator's signer (for publishing more PADs).
    pub signer: Signer,
    /// The admission cache every client this testbed makes deploys
    /// through — the untrusting ones too, whose deployments never get as
    /// far as consulting it. Per testbed, not per process: two testbeds
    /// (a scenario run twice) must not see each other's state. Starts
    /// empty and fills on first deployment.
    pub admission: Arc<AdmissionCache>,
    registry: SignerRegistry,
}

impl Testbed {
    /// Builds the paper's case study: four PADs signed and published, the
    /// one-level PAT pushed to the proxy, server in the given
    /// adaptive-content mode.
    pub fn case_study(mode: AdaptiveContentMode) -> Testbed {
        Self::with_protocols(&ProtocolId::PAPER_FOUR, mode)
    }

    /// Builds a testbed with an arbitrary protocol set (e.g. including the
    /// fixed-block extension).
    pub fn with_protocols(protocols: &[ProtocolId], mode: AdaptiveContentMode) -> Testbed {
        let mut registry = SignerRegistry::new();
        let signer = registry.provision("application-operator");
        let catalog = if protocols == ProtocolId::PAPER_FOUR {
            Catalog::paper_four(&signer)
        } else {
            Catalog::all(&signer)
        };

        let app_id = AppId(1);
        let pad_repo = PadRepo::new();
        let mut artifacts = Vec::new();
        for &p in protocols {
            let a = catalog.get(p).expect("catalog holds protocol");
            pad_repo.insert(pad_id(p), a.signed.to_wire());
            artifacts.push((p, a.digest(), a.wire_len() as u32));
        }

        let meta = case_study_app_meta(app_id, &artifacts);
        // §3.1: proactive content is pre-computed, so the proxy charges
        // no server compute for it (Figures 10(d), 11(c)).
        let proxy = AdaptationProxy::new(OverheadModel::paper(paper_ratios()).with_mode(mode));
        proxy.register_app(&meta);

        let server = ApplicationServer::new(app_id, protocols, mode);
        let admission = Arc::new(AdmissionCache::new());
        Testbed { proxy, server, pad_repo, app_id, signer, admission, registry }
    }

    /// Creates a client of the given class with the operator's trust
    /// anchors installed.
    pub fn client(&self, class: ClientClass) -> FractalClient {
        self.client_with_env(class.env())
    }

    /// Creates a client for an arbitrary environment (e.g. the mixed
    /// Fig. 9(a) workload stream) with the operator's trust anchors
    /// installed.
    pub fn client_with_env(&self, env: crate::meta::ClientEnv) -> FractalClient {
        let mut trust = TrustStore::new();
        self.registry.export_trust(&mut trust);
        FractalClient::admitting_through(Arc::clone(&self.admission), env, trust)
    }

    /// Creates a client that trusts nobody (for security failure tests).
    pub fn untrusting_client(&self, class: ClientClass) -> FractalClient {
        FractalClient::admitting_through(
            Arc::clone(&self.admission),
            class.env(),
            TrustStore::new(),
        )
    }

    /// Builds a reactor over this testbed's trio from a full
    /// [`ReactorConfig`](crate::reactor::ReactorConfig) — the one-stop
    /// constructor for tests that need checksums, virtual clocks,
    /// journals, or explicit telemetry.
    pub fn reactor_with(
        &self,
        config: crate::reactor::ReactorConfig,
    ) -> crate::reactor::Reactor<'_> {
        crate::reactor::Reactor::with_config(&self.proxy, &self.server, &self.pad_repo, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_assembly() {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        assert_eq!(tb.pad_repo.len(), 4);
        assert!(tb.proxy.pat(tb.app_id).is_some());
        assert_eq!(tb.proxy.pat(tb.app_id).unwrap().leaf_count(), 4);
    }

    #[test]
    fn with_extension_protocols() {
        let tb = Testbed::with_protocols(&ProtocolId::ALL, AdaptiveContentMode::Reactive);
        assert_eq!(tb.pad_repo.len(), 5);
        assert_eq!(tb.proxy.pat(tb.app_id).unwrap().leaf_count(), 5);
    }

    #[test]
    fn clients_trust_or_not() {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        let trusted = tb.client(ClientClass::DesktopLan);
        assert!(!trusted.trust.is_empty());
        let untrusted = tb.untrusting_client(ClientClass::DesktopLan);
        assert!(untrusted.trust.is_empty());
    }
}
