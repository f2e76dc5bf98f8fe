//! The Fractal client: protocol cache, PAD acceptance gauntlet, sandboxed
//! deployment, and mobile-code decoding.
//!
//! §3.3: "a client first checks its own protocol cache, which contains
//! some PADMeta saved for previous requests"; §3.5: "when a PAD is
//! received, the client verifies that it was signed by an entity on this
//! list" plus digest integrity and sandboxing. The acceptance gauntlet in
//! [`FractalClient::deploy_pad`] is, in order:
//!
//! 1. digest check against the `PADMeta` the proxy advertised;
//! 2. code-signature check against the client's trust store;
//! 3. static structural verification (every opcode decodes, branches land
//!    on instruction boundaries, …);
//! 4. abstract interpretation: stack discipline within the policy bound,
//!    reachable host calls within the granted capabilities, and a proven
//!    minimum fuel that fits the budget — all before any code runs;
//! 5. instantiation under the sandbox policy.
//!
//! Steps 1 and 2 are about *this download* and run on every deployment.
//! Steps 3 and 4 are a pure function of (the bytes step 1 just hashed, the
//! sandbox policy), so their result is looked up in — or, the first time,
//! computed into — the [`AdmissionCache`] the client shares with its
//! [`Testbed`](crate::testbed::Testbed)'s other clients, and only reached
//! once 1 and 2 have passed; a module declaring more memory than the policy
//! grants is refused there, so it is never stored. Step 5 is per client
//! again: the fuel budget is checked against the cached proof and a sandbox
//! is built around the shared code — checked out of the instances earlier
//! deployments of the same admitted PAD have been dropped from, each wiped
//! to what a new one holds, or allocated when none is idle.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use fractal_crypto::sign::TrustStore;
use fractal_crypto::Digest;
use fractal_pads::runtime::PadRuntime;
use fractal_protocols::ProtocolId;
use fractal_vm::{AdmissionCache, Module, ModuleError, SandboxPolicy, SignedModule};

use crate::error::FractalError;
use crate::meta::{AppId, ClientEnv, NtwkMeta, PadId, PadMeta};

/// One locally cached content version.
#[derive(Clone, Debug)]
pub struct CachedContent {
    /// Version number held.
    pub version: u32,
    /// The bytes ([`Bytes`]: handing the old version to the decoder is a
    /// refcount bump, not a copy of the page).
    pub bytes: Bytes,
}

/// Client-side statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ClientStats {
    /// Negotiations skipped thanks to the protocol cache.
    pub protocol_cache_hits: u64,
    /// Full negotiations performed.
    pub negotiations: u64,
    /// PADs downloaded and deployed.
    pub pads_deployed: u64,
    /// PADs rejected by the acceptance gauntlet.
    pub pads_rejected: u64,
    /// Deployments whose verification + analysis came from the admission
    /// cache (digest and signature were still checked).
    pub admission_hits: u64,
    /// Deployments that ran verification + analysis themselves and filled
    /// the cache (a refused module counts under `pads_rejected` only).
    pub admission_misses: u64,
    /// Deployments whose sandbox was checked out of the admitted module's
    /// instance pool instead of allocated.
    pub instances_recycled: u64,
}

/// Pre-bound telemetry handles mirroring [`ClientStats`] plus the PAD
/// acceptance costs (download bytes, gauntlet wall time).
struct ClientTelemetry {
    bundle: fractal_telemetry::Telemetry,
    protocol_cache_hits: fractal_telemetry::Counter,
    negotiations: fractal_telemetry::Counter,
    pads_deployed: fractal_telemetry::Counter,
    pads_rejected: fractal_telemetry::Counter,
    admission_hits: fractal_telemetry::Counter,
    admission_misses: fractal_telemetry::Counter,
    instances_recycled: fractal_telemetry::Counter,
    download_bytes: fractal_telemetry::Counter,
    gauntlet_ns: fractal_telemetry::Histogram,
}

impl ClientTelemetry {
    fn bind(bundle: &fractal_telemetry::Telemetry) -> ClientTelemetry {
        ClientTelemetry {
            protocol_cache_hits: bundle.counter("fractal_client_protocol_cache_hits_total"),
            negotiations: bundle.counter("fractal_client_negotiations_total"),
            pads_deployed: bundle.counter("fractal_client_pads_deployed_total"),
            pads_rejected: bundle.counter("fractal_client_pads_rejected_total"),
            admission_hits: bundle.counter("fractal_client_admission_hits_total"),
            admission_misses: bundle.counter("fractal_client_admission_misses_total"),
            instances_recycled: bundle.counter("fractal_client_instances_recycled_total"),
            download_bytes: bundle.counter("fractal_client_pad_download_bytes_total"),
            gauntlet_ns: bundle.histogram("fractal_client_gauntlet_ns"),
            bundle: bundle.clone(),
        }
    }
}

/// A Fractal client host.
pub struct FractalClient {
    /// The environment this client probes and reports.
    pub env: ClientEnv,
    /// Trusted signing entities (§3.5).
    pub trust: TrustStore,
    /// Sandbox policy for deployed PADs.
    pub policy: SandboxPolicy,
    protocol_cache: HashMap<AppId, Vec<PadMeta>>,
    deployed: HashMap<PadId, PadRuntime>,
    content_cache: HashMap<u32, CachedContent>,
    admission: Arc<AdmissionCache>,
    stats: ClientStats,
    tele: ClientTelemetry,
}

impl core::fmt::Debug for FractalClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FractalClient")
            .field("env", &self.env)
            .field("deployed", &self.deployed.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FractalClient {
    /// Creates a client in the given environment with the given trust
    /// anchors. It admits PADs through a cache of its own; clients made by
    /// a [`Testbed`](crate::testbed::Testbed) share the testbed's.
    pub fn new(env: ClientEnv, trust: TrustStore) -> FractalClient {
        Self::admitting_through(Arc::new(AdmissionCache::new()), env, trust)
    }

    /// [`FractalClient::new`], admitting PADs through a shared `admission`
    /// cache.
    pub(crate) fn admitting_through(
        admission: Arc<AdmissionCache>,
        env: ClientEnv,
        trust: TrustStore,
    ) -> FractalClient {
        FractalClient {
            env,
            trust,
            policy: SandboxPolicy::for_pads(),
            protocol_cache: HashMap::new(),
            deployed: HashMap::new(),
            content_cache: HashMap::new(),
            admission,
            stats: ClientStats::default(),
            tele: ClientTelemetry::bind(&fractal_telemetry::Telemetry::global()),
        }
    }

    /// Rebinds the client's metrics to an explicit telemetry bundle
    /// (default: the process-global one).
    pub fn with_telemetry(mut self, bundle: &fractal_telemetry::Telemetry) -> FractalClient {
        self.tele = ClientTelemetry::bind(bundle);
        self
    }

    /// "Probing the system using system calls": returns the metadata for
    /// `Cli_META_REP`.
    pub fn probe(&self) -> ClientEnv {
        self.env
    }

    /// Protocol-cache lookup (the fast path of Figure 4).
    pub fn cached_protocols(&mut self, app_id: AppId) -> Option<Vec<PadMeta>> {
        match self.protocol_cache.get(&app_id) {
            Some(pads) => {
                self.stats.protocol_cache_hits += 1;
                self.tele.protocol_cache_hits.inc();
                Some(pads.clone())
            }
            None => None,
        }
    }

    /// Records a negotiation result ("the client updates his protocol
    /// cache").
    pub fn remember_protocols(&mut self, app_id: AppId, pads: &[PadMeta]) {
        self.stats.negotiations += 1;
        self.tele.negotiations.inc();
        self.protocol_cache.insert(app_id, pads.to_vec());
    }

    /// Drops the protocol cache (e.g. when the environment changes).
    pub fn clear_protocol_cache(&mut self) {
        self.protocol_cache.clear();
    }

    /// A mobility handoff: the device moved onto a different link. The
    /// environment the client reports changes and every cached
    /// negotiation result is invalidated — the old decisions were priced
    /// for the old network. Deployed PADs stay: code already through the
    /// acceptance gauntlet remains trustworthy on any link.
    pub fn handoff(&mut self, ntwk: NtwkMeta) {
        self.env.ntwk = ntwk;
        self.clear_protocol_cache();
    }

    /// Whether the PAD is already deployed locally.
    pub fn is_deployed(&self, pad: PadId) -> bool {
        self.deployed.contains_key(&pad)
    }

    /// Runs the full acceptance gauntlet on downloaded PAD bytes and
    /// deploys the module into the sandbox.
    pub fn deploy_pad(&mut self, meta: &PadMeta, wire_bytes: &[u8]) -> Result<(), FractalError> {
        self.tele.download_bytes.add(wire_bytes.len() as u64);
        let t0 = self.tele.bundle.now_ns();
        let result = self.admit_and_instantiate(&meta.digest, wire_bytes);
        self.tele.gauntlet_ns.record(self.tele.bundle.now_ns().saturating_sub(t0));
        match result {
            Ok(runtime) => {
                if runtime.is_recycled() {
                    self.stats.instances_recycled += 1;
                    self.tele.instances_recycled.inc();
                }
                self.deployed.insert(meta.id, runtime);
                self.stats.pads_deployed += 1;
                self.tele.pads_deployed.inc();
                Ok(())
            }
            Err(e) => {
                self.stats.pads_rejected += 1;
                self.tele.pads_rejected.inc();
                Err(e)
            }
        }
    }

    /// The gauntlet proper; see the module docs for the order and for what
    /// is per deployment and what is shared.
    fn admit_and_instantiate(
        &mut self,
        advertised: &Digest,
        wire_bytes: &[u8],
    ) -> Result<PadRuntime, FractalError> {
        let signed = SignedModule::from_wire(wire_bytes)?;
        let digest = signed.digest();
        if digest != *advertised {
            return Err(ModuleError::DigestMismatch.into());
        }
        self.trust.verify(&signed.bytes, &signed.signature).map_err(ModuleError::from)?;

        // Parse, structural verification, abstract interpretation (stack
        // and capability proof obligations) and translation to register
        // form: once per
        // (digest, policy), shared from then on.
        let policy = &self.policy;
        let (analyzed, hit) = self.admission.get_or_admit(&digest, policy, || {
            Ok::<_, FractalError>(Module::from_bytes(&signed.bytes)?.analyzed(policy)?)
        })?;
        if hit {
            self.stats.admission_hits += 1;
            self.tele.admission_hits.inc();
        } else {
            self.stats.admission_misses += 1;
            self.tele.admission_misses.inc();
        }

        let min_fuel = analyzed.analysis.module_min_fuel;
        if min_fuel > self.policy.max_fuel {
            return Err(FractalError::PadInfeasible { min_fuel, budget: self.policy.max_fuel });
        }
        Ok(PadRuntime::from_analyzed(analyzed)?)
    }

    /// Decodes a server payload with a deployed PAD (mobile code, in the
    /// sandbox), using the locally cached old version when present.
    pub fn decode_content(
        &mut self,
        pad: PadId,
        content_id: u32,
        payload: &[u8],
    ) -> Result<Vec<u8>, FractalError> {
        let old = self.content_cache.get(&content_id).map(|c| c.bytes.clone()).unwrap_or_default();
        let runtime = self.deployed.get_mut(&pad).ok_or(FractalError::PadUnavailable(pad))?;
        Ok(runtime.decode(&old, payload)?)
    }

    /// Builds a protocol's upstream message (Bitmap digests / fixed-block
    /// signatures) via the deployed PAD. Returns `None` for protocols with
    /// no upstream leg.
    pub fn upstream_message(
        &mut self,
        pad: PadId,
        protocol: ProtocolId,
        content_id: u32,
    ) -> Result<Option<Vec<u8>>, FractalError> {
        let entry = match protocol {
            ProtocolId::Bitmap => "digests",
            ProtocolId::FixedBlock => "signatures",
            _ => return Ok(None),
        };
        let block_size: u32 = match protocol {
            ProtocolId::Bitmap => fractal_protocols::bitmap::DEFAULT_BLOCK_SIZE as u32,
            _ => fractal_protocols::fixedblock::DEFAULT_BLOCK_SIZE as u32,
        };
        let old = self.content_cache.get(&content_id).map(|c| c.bytes.clone()).unwrap_or_default();
        let runtime = self.deployed.get_mut(&pad).ok_or(FractalError::PadUnavailable(pad))?;
        Ok(Some(runtime.upstream(entry, &old, block_size)?))
    }

    /// The locally cached version of `content_id`.
    pub fn cached_content(&self, content_id: u32) -> Option<&CachedContent> {
        self.content_cache.get(&content_id)
    }

    /// Stores a decoded content version.
    pub fn store_content(&mut self, content_id: u32, version: u32, bytes: impl Into<Bytes>) {
        self.content_cache.insert(content_id, CachedContent { version, bytes: bytes.into() });
    }

    /// Counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{pad_id, pad_overhead, ClientClass};
    use fractal_crypto::sign::SignerRegistry;
    use fractal_pads::artifact::build_pad;

    fn setup(trusted: bool) -> (FractalClient, PadMeta, Vec<u8>) {
        let mut reg = SignerRegistry::new();
        let signer = reg.provision("app-operator");
        let artifact = build_pad(ProtocolId::Gzip, &signer);
        let meta = PadMeta {
            id: pad_id(ProtocolId::Gzip),
            protocol: ProtocolId::Gzip,
            size: artifact.wire_len() as u32,
            overhead: pad_overhead(ProtocolId::Gzip),
            digest: artifact.digest(),
            url: "cdn://pads/gzip".into(),
            parent: None,
            children: vec![],
        };
        let mut trust = TrustStore::new();
        if trusted {
            reg.export_trust(&mut trust);
        }
        let client = FractalClient::new(ClientClass::LaptopWlan.env(), trust);
        (client, meta, artifact.signed.to_wire())
    }

    #[test]
    fn deploy_and_decode() {
        let (mut client, meta, wire) = setup(true);
        client.deploy_pad(&meta, &wire).unwrap();
        assert!(client.is_deployed(meta.id));

        let content = b"some page content, some page content".repeat(50);
        let payload = fractal_protocols::gzip::Gzip.encode(&[], &content).to_vec();
        let decoded = client.decode_content(meta.id, 7, &payload).unwrap();
        assert_eq!(decoded, content);
        assert_eq!(client.stats().pads_deployed, 1);
    }

    #[test]
    fn untrusted_signer_rejected_at_deploy() {
        let (mut client, meta, wire) = setup(false);
        let err = client.deploy_pad(&meta, &wire).unwrap_err();
        assert!(matches!(err, FractalError::PadRejected(_)), "{err:?}");
        assert!(!client.is_deployed(meta.id));
        assert_eq!(client.stats().pads_rejected, 1);
    }

    #[test]
    fn tampered_bytes_rejected_at_deploy() {
        let (mut client, meta, mut wire) = setup(true);
        let idx = wire.len() - 5;
        wire[idx] ^= 0xFF;
        let err = client.deploy_pad(&meta, &wire).unwrap_err();
        assert!(matches!(err, FractalError::PadRejected(_)));
    }

    #[test]
    fn capability_exceeding_pad_rejected_before_instantiation() {
        use fractal_vm::{HostId, VerifyError};
        let mut reg = SignerRegistry::new();
        let signer = reg.provision("op");
        let mut trust = TrustStore::new();
        reg.export_trust(&mut trust);
        let mut client = FractalClient::new(ClientClass::PdaBluetooth.env(), trust);
        // The bitmap PAD's digests entry reaches the sha1 intrinsic; a
        // policy that does not grant it must reject the PAD statically.
        client.policy = SandboxPolicy::for_pads().with_hosts(&[HostId::Abort, HostId::Log]);
        let artifact = build_pad(ProtocolId::Bitmap, &signer);
        let meta = PadMeta {
            id: pad_id(ProtocolId::Bitmap),
            protocol: ProtocolId::Bitmap,
            size: artifact.wire_len() as u32,
            overhead: pad_overhead(ProtocolId::Bitmap),
            digest: artifact.digest(),
            url: String::new(),
            parent: None,
            children: vec![],
        };
        let err = client.deploy_pad(&meta, &artifact.signed.to_wire()).unwrap_err();
        assert!(
            matches!(err, FractalError::PadUnverifiable(VerifyError::CapabilityViolation { .. })),
            "{err:?}"
        );
        assert!(!client.is_deployed(meta.id));
        assert_eq!(client.stats().pads_rejected, 1);
    }

    #[test]
    fn fuel_infeasible_pad_rejected_before_instantiation() {
        let (mut client, meta, wire) = setup(true);
        client.policy = SandboxPolicy::for_pads().with_fuel(3);
        let err = client.deploy_pad(&meta, &wire).unwrap_err();
        assert!(matches!(err, FractalError::PadInfeasible { budget: 3, .. }), "{err:?}");
        assert_eq!(client.stats().pads_rejected, 1);
    }

    #[test]
    fn wrong_advertised_digest_rejected() {
        let (mut client, mut meta, wire) = setup(true);
        meta.digest = fractal_crypto::sha1::sha1(b"something else");
        assert!(client.deploy_pad(&meta, &wire).is_err());
    }

    #[test]
    fn decode_without_deploy_fails() {
        let (mut client, meta, _) = setup(true);
        let err = client.decode_content(meta.id, 7, &[]).unwrap_err();
        assert_eq!(err, FractalError::PadUnavailable(meta.id));
    }

    #[test]
    fn protocol_cache_round_trip() {
        let (mut client, meta, _) = setup(true);
        assert!(client.cached_protocols(AppId(1)).is_none());
        client.remember_protocols(AppId(1), std::slice::from_ref(&meta));
        let cached = client.cached_protocols(AppId(1)).unwrap();
        assert_eq!(cached[0].id, meta.id);
        assert_eq!(client.stats().protocol_cache_hits, 1);
        client.clear_protocol_cache();
        assert!(client.cached_protocols(AppId(1)).is_none());
    }

    #[test]
    fn content_cache() {
        let (mut client, _, _) = setup(true);
        assert!(client.cached_content(3).is_none());
        client.store_content(3, 2, vec![1, 2, 3]);
        let c = client.cached_content(3).unwrap();
        assert_eq!(c.version, 2);
        assert_eq!(c.bytes, vec![1, 2, 3]);
    }

    #[test]
    fn upstream_message_for_bitmap_only() {
        let mut reg = SignerRegistry::new();
        let signer = reg.provision("op");
        let mut trust = TrustStore::new();
        reg.export_trust(&mut trust);
        let mut client = FractalClient::new(ClientClass::PdaBluetooth.env(), trust);

        let bitmap = build_pad(ProtocolId::Bitmap, &signer);
        let meta = PadMeta {
            id: pad_id(ProtocolId::Bitmap),
            protocol: ProtocolId::Bitmap,
            size: bitmap.wire_len() as u32,
            overhead: pad_overhead(ProtocolId::Bitmap),
            digest: bitmap.digest(),
            url: String::new(),
            parent: None,
            children: vec![],
        };
        client.deploy_pad(&meta, &bitmap.signed.to_wire()).unwrap();
        client.store_content(7, 0, vec![9u8; 10_000]);
        let msg = client
            .upstream_message(meta.id, ProtocolId::Bitmap, 7)
            .unwrap()
            .expect("bitmap has an upstream leg");
        let expected =
            fractal_protocols::bitmap::Bitmap::default().upstream_message(&vec![9u8; 10_000]);
        assert_eq!(msg, expected);

        // Direct has no upstream leg.
        assert_eq!(client.upstream_message(meta.id, ProtocolId::Direct, 7).unwrap(), None);
    }

    use fractal_protocols::DiffCodec;
}
