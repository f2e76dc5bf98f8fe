//! The adaptation proxy of §3.2: negotiation manager, distribution
//! manager, and the adaptation cache.
//!
//! The **negotiation manager** holds one PAT per application (built from
//! `AppMeta` pushed by the application server) and runs the Figure 6 path
//! search. The **distribution manager** post-processes the result — it
//! strips the parent/child links from the `PADMeta` sent to clients
//! ("hides the parent and child links since the exposure to the client is
//! unnecessary") — and maintains the **adaptation cache**:
//!
//! ```text
//! { DevMeta, Application ID, NtwkMeta } ⇒ { PADMeta₁ … PADMetaₙ }
//! ```
//!
//! ## Concurrency model
//!
//! Every traffic-path operation takes `&self`. A negotiation pins one
//! immutable generation of the PAT table ([`crate::epoch`]); each
//! application in it owns its tree *and* the cache of decisions priced on
//! that tree. A miss holds that application's cache write lock across the
//! search (double-checked), so each distinct environment misses exactly
//! once however many threads race on it (`tests/concurrency.rs`). A push
//! publishes a successor table in which the pushed applications start with
//! an empty cache: a negotiation that pinned the superseded table can only
//! fill the superseded cache, which no later pin reaches and which is freed
//! with the last pin.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fractal_net::time::SimDuration;
use parking_lot::RwLock;

use crate::epoch::Epoch;
use crate::error::FractalError;
use crate::meta::{AppId, AppMeta, ClientEnv, PadMeta};
use crate::overhead::{OverheadModel, ServerComputeMode};
use crate::pat::Pat;
use crate::search::search;

/// `Std` content size used during negotiation (Equation 1's "fixed size of
/// traffic, 1MB in our implementation").
pub const STD_CONTENT_BYTES: u64 = 1_000_000;

/// Counters for Figure 9(a) and the ablations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProxyStats {
    /// Negotiations answered from the adaptation cache.
    pub cache_hits: u64,
    /// Negotiations that ran the path search.
    pub cache_misses: u64,
    /// `AppMeta` pushes received.
    pub app_pushes: u64,
}

/// Pre-bound telemetry handles: one registry lookup per name at proxy
/// construction, zero lookups on the hot path.
struct ProxyTelemetry {
    bundle: fractal_telemetry::Telemetry,
    cache_hits: fractal_telemetry::Counter,
    cache_misses: fractal_telemetry::Counter,
    app_pushes: fractal_telemetry::Counter,
    nodes_expanded: fractal_telemetry::Counter,
    paths_examined: fractal_telemetry::Counter,
    search_ns: fractal_telemetry::Histogram,
}

impl ProxyTelemetry {
    fn bind(bundle: &fractal_telemetry::Telemetry) -> ProxyTelemetry {
        ProxyTelemetry {
            cache_hits: bundle.counter("fractal_proxy_cache_hits_total"),
            cache_misses: bundle.counter("fractal_proxy_cache_misses_total"),
            app_pushes: bundle.counter("fractal_proxy_app_pushes_total"),
            nodes_expanded: bundle.counter("fractal_search_nodes_expanded_total"),
            paths_examined: bundle.counter("fractal_search_paths_examined_total"),
            search_ns: bundle.histogram("fractal_search_time_ns"),
            bundle: bundle.clone(),
        }
    }
}

/// One application as of one `AppMeta` push: its PAT and the adaptation
/// cache of decisions computed on that PAT. A re-push replaces the whole
/// state, so a cached decision cannot outlive the tree it was priced on.
struct AppState {
    pat: Arc<Pat>,
    /// Client environment → client-view `PADMeta` list.
    cache: RwLock<HashMap<ClientEnv, Vec<PadMeta>>>,
}

/// The negotiation manager's table, published as one epoch snapshot: a
/// pinned reader sees every application at a consistent instant, even
/// mid-batch-push. Cloning copies the index; applications a push does not
/// name keep their state (tree and cache) across generations.
type PatTable = HashMap<AppId, Arc<AppState>>;

/// The adaptation proxy.
pub struct AdaptationProxy {
    pats: Epoch<PatTable>,
    model: OverheadModel,
    cache_enabled: bool,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    app_pushes: AtomicU64,
    tele: ProxyTelemetry,
}

impl core::fmt::Debug for AdaptationProxy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let table = self.pats.pin();
        let entries: usize = table.values().map(|app| app.cache.read().len()).sum();
        f.debug_struct("AdaptationProxy")
            .field("apps", &table.len())
            .field("cache_entries", &entries)
            .field("stats", &self.stats())
            .finish()
    }
}

impl AdaptationProxy {
    /// Creates a proxy with the given overhead model.
    pub fn new(model: OverheadModel) -> AdaptationProxy {
        AdaptationProxy {
            pats: Epoch::new(PatTable::default()),
            model,
            cache_enabled: true,
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            app_pushes: AtomicU64::new(0),
            tele: ProxyTelemetry::bind(&fractal_telemetry::Telemetry::global()),
        }
    }

    /// Disables the adaptation cache (ablation): every negotiation runs
    /// the path search.
    pub fn with_cache_disabled(mut self) -> AdaptationProxy {
        self.cache_enabled = false;
        self
    }

    /// Rebinds the proxy's metrics to an explicit telemetry bundle
    /// (default: the process-global one). Tests and the determinism suite
    /// use per-work-unit registries and virtual clocks here.
    pub fn with_telemetry(mut self, bundle: &fractal_telemetry::Telemetry) -> AdaptationProxy {
        self.tele = ProxyTelemetry::bind(bundle);
        self
    }

    /// Receives an `AppMeta` push from an application server, (re)building
    /// that application's PAT and so invalidating its cached decisions.
    /// Takes `&self` — pushes run concurrently with live negotiations (see
    /// the module docs).
    pub fn push_app_meta(&self, meta: &AppMeta) {
        self.push_app_metas(std::slice::from_ref(meta));
    }

    /// Registers an application with the negotiation manager — the
    /// server-side half of deployment. Semantically the first `AppMeta`
    /// push for that app; returns `true` if the application was new,
    /// `false` if this re-registered (and so reconfigured) a known one.
    pub fn register_app(&self, meta: &AppMeta) -> bool {
        let known = self.pats.pin().contains_key(&meta.app_id);
        self.push_app_meta(meta);
        !known
    }

    /// Receives a batch of `AppMeta` pushes at once, `&self`, concurrent
    /// with negotiations: one successor table in which every pushed
    /// application has a fresh tree and an empty cache, however many
    /// applications reconfigure.
    pub fn push_app_metas(&self, metas: &[AppMeta]) {
        if metas.is_empty() {
            return;
        }
        self.pats.publish_with(|table| {
            for meta in metas {
                let pat = Arc::new(Pat::from_app_meta(meta));
                table.insert(meta.app_id, Arc::new(AppState { pat, cache: RwLock::default() }));
            }
        });
        self.app_pushes.fetch_add(metas.len() as u64, Ordering::Relaxed);
        self.tele.app_pushes.add(metas.len() as u64);
    }

    /// Switches the server-compute mode (reactive ↔ proactive adaptive
    /// content). Clears the cache: cached decisions embed the old mode.
    pub fn set_mode(&mut self, mode: ServerComputeMode) {
        if self.model.mode != mode {
            self.model.mode = mode;
            self.clear_adaptation_state();
        }
    }

    /// Current server-compute mode.
    pub fn mode(&self) -> ServerComputeMode {
        self.model.mode
    }

    /// The proxy's overhead model (read-only).
    pub fn model(&self) -> &OverheadModel {
        &self.model
    }

    /// Direct access to an application's PAT (diagnostics, figure
    /// harness). A refcounted handle to the tree in the current table
    /// generation — stable even if a push lands right after.
    pub fn pat(&self, app_id: AppId) -> Option<Arc<Pat>> {
        self.pats.pin().get(&app_id).map(|app| Arc::clone(&app.pat))
    }

    /// The heart of the negotiation: answers `Cli_META_REP` with the
    /// `PADMeta` list for `PAD_META_REP`. Safe to call from any number of
    /// threads sharing the proxy.
    pub fn negotiate(
        &self,
        app_id: AppId,
        client: ClientEnv,
    ) -> Result<Vec<PadMeta>, FractalError> {
        // Pin one table generation for the whole negotiation: the tree we
        // search and the cache we fill belong to the same push.
        let table = self.pats.pin();
        let app = table.get(&app_id).ok_or(FractalError::UnknownApp(app_id))?;
        if !self.cache_enabled {
            return self.search_counted(&app.pat, &client);
        }

        let hit = |pads: &Vec<PadMeta>| {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.tele.cache_hits.inc();
            pads.clone()
        };
        if let Some(pads) = app.cache.read().get(&client) {
            return Ok(hit(pads));
        }
        // Double-checked under the write lock: a racing thread may have
        // filled the entry between our read and write acquisition. Holding
        // the write lock across the search keeps the accounting exact —
        // one miss per distinct environment, everything else a hit.
        let mut cache = app.cache.write();
        if let Some(pads) = cache.get(&client) {
            return Ok(hit(pads));
        }
        let pads = self.search_counted(&app.pat, &client)?;
        cache.insert(client, pads.clone());
        Ok(pads)
    }

    /// One counted miss: the negotiation manager's path search, then the
    /// distribution manager's client views (links hidden) of the result.
    fn search_counted(&self, pat: &Pat, client: &ClientEnv) -> Result<Vec<PadMeta>, FractalError> {
        let t0 = self.tele.bundle.now_ns();
        let path = search(pat, &self.model, client, STD_CONTENT_BYTES)?;
        self.tele.search_ns.record(self.tele.bundle.now_ns().saturating_sub(t0));
        self.tele.nodes_expanded.add(u64::from(path.nodes_marked));
        self.tele.paths_examined.add(u64::from(path.paths_examined));
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.tele.cache_misses.inc();
        Ok(path
            .pads
            .iter()
            .map(|id| pat.meta(*id).expect("path ids resolve").client_view())
            .collect())
    }

    /// Estimated proxy service time for one negotiation — used by the
    /// Figure 9(a) capacity simulation. Cache hits are one table lookup;
    /// misses pay the path search, linear in PAT size.
    pub fn service_time(&self, app_id: AppId, cache_hit: bool) -> SimDuration {
        let nodes = self.pats.pin().get(&app_id).map_or(0, |app| app.pat.len()) as u64;
        if cache_hit {
            SimDuration::micros(40)
        } else {
            SimDuration::micros(200 + 25 * nodes)
        }
    }

    /// Clears the adaptation cache on a shared proxy (`&self`): the next
    /// negotiation for any key pays the full cold path search again.
    /// Benchmarks call this between timed passes so each pass starts cold
    /// and rows measure path-search scaling rather than cache hits.
    /// Counters are left untouched — recomputed entries count as fresh
    /// misses.
    pub fn clear_adaptation_state(&self) {
        for app in self.pats.pin().values() {
            app.cache.write().clear();
        }
    }

    /// Whether the cache currently holds an entry for `(client, app)` —
    /// exactly when `negotiate` would answer it as a hit.
    pub fn cached(&self, app_id: AppId, client: &ClientEnv) -> bool {
        self.pats.pin().get(&app_id).is_some_and(|app| app.cache.read().contains_key(client))
    }

    /// Counters (a consistent-enough snapshot of the atomics).
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            app_pushes: self.app_pushes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{case_study_app_meta, paper_ratios, ClientClass};
    use crate::ratio::Ratios;
    use fractal_crypto::sha1::sha1;
    use fractal_protocols::ProtocolId;

    fn case_study_meta(app_id: AppId) -> AppMeta {
        let artifacts: Vec<_> = ProtocolId::PAPER_FOUR
            .iter()
            .map(|&p| (p, sha1(p.slug().as_bytes()), 2000u32))
            .collect();
        case_study_app_meta(app_id, &artifacts)
    }

    fn proxy_with_case_study() -> AdaptationProxy {
        let proxy = AdaptationProxy::new(OverheadModel::paper(paper_ratios()));
        proxy.push_app_meta(&case_study_meta(AppId(1)));
        proxy
    }

    #[test]
    fn unknown_app_rejected() {
        let proxy = AdaptationProxy::new(OverheadModel::paper(Ratios::linear()));
        let err = proxy.negotiate(AppId(9), ClientClass::DesktopLan.env());
        assert_eq!(err, Err(FractalError::UnknownApp(AppId(9))));
    }

    #[test]
    fn negotiation_returns_client_views() {
        let proxy = proxy_with_case_study();
        let pads = proxy.negotiate(AppId(1), ClientClass::DesktopLan.env()).unwrap();
        assert_eq!(pads.len(), 1, "one-level PAT picks a single PAD");
        assert!(pads[0].parent.is_none());
        assert!(pads[0].children.is_empty());
        assert!(!pads[0].url.is_empty());
    }

    #[test]
    fn case_study_winners_per_class() {
        // The headline adaptation decisions of Figure 11(b).
        let proxy = proxy_with_case_study();
        let pick = |proxy: &AdaptationProxy, class: ClientClass| {
            proxy.negotiate(AppId(1), class.env()).unwrap()[0].protocol
        };
        assert_eq!(pick(&proxy, ClientClass::DesktopLan), ProtocolId::Direct);
        assert_eq!(pick(&proxy, ClientClass::LaptopWlan), ProtocolId::Gzip);
        assert_eq!(pick(&proxy, ClientClass::PdaBluetooth), ProtocolId::Bitmap);
    }

    #[test]
    fn proactive_mode_flips_pda_to_varyblock() {
        // Figure 10(d) / 11(c): excluding server compute changes the PDA's
        // negotiated protocol from Bitmap to Vary-sized blocking.
        let mut proxy = proxy_with_case_study();
        proxy.set_mode(ServerComputeMode::Exclude);
        let pads = proxy.negotiate(AppId(1), ClientClass::PdaBluetooth.env()).unwrap();
        assert_eq!(pads[0].protocol, ProtocolId::VaryBlock);
        // Desktop and laptop keep their winners.
        let d = proxy.negotiate(AppId(1), ClientClass::DesktopLan.env()).unwrap();
        assert_eq!(d[0].protocol, ProtocolId::Direct);
        let l = proxy.negotiate(AppId(1), ClientClass::LaptopWlan.env()).unwrap();
        assert_eq!(l[0].protocol, ProtocolId::Gzip);
    }

    #[test]
    fn clear_adaptation_state_makes_next_negotiation_cold() {
        let proxy = proxy_with_case_study();
        let env = ClientClass::PdaBluetooth.env();
        let first = proxy.negotiate(AppId(1), env).unwrap();
        assert!(proxy.cached(AppId(1), &env));
        proxy.clear_adaptation_state();
        assert!(!proxy.cached(AppId(1), &env));
        // The recomputed decision is identical, and it was a real
        // recomputation: a second miss, not a hit.
        let second = proxy.negotiate(AppId(1), env).unwrap();
        assert_eq!(first, second);
        let stats = proxy.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn cache_hits_after_first_negotiation() {
        let proxy = proxy_with_case_study();
        let env = ClientClass::LaptopWlan.env();
        let first = proxy.negotiate(AppId(1), env).unwrap();
        assert!(proxy.cached(AppId(1), &env));
        let second = proxy.negotiate(AppId(1), env).unwrap();
        assert_eq!(first, second);
        let stats = proxy.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn cache_disabled_ablation() {
        let proxy = proxy_with_case_study().with_cache_disabled();
        let env = ClientClass::LaptopWlan.env();
        proxy.negotiate(AppId(1), env).unwrap();
        proxy.negotiate(AppId(1), env).unwrap();
        let stats = proxy.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn mode_switch_clears_cache() {
        let mut proxy = proxy_with_case_study();
        let env = ClientClass::PdaBluetooth.env();
        proxy.negotiate(AppId(1), env).unwrap();
        assert!(proxy.cached(AppId(1), &env));
        proxy.set_mode(ServerComputeMode::Exclude);
        assert!(!proxy.cached(AppId(1), &env));
        // Same-mode set is a no-op that keeps the cache.
        proxy.negotiate(AppId(1), env).unwrap();
        proxy.set_mode(ServerComputeMode::Exclude);
        assert!(proxy.cached(AppId(1), &env));
    }

    #[test]
    fn app_push_invalidates_only_that_app() {
        let proxy = proxy_with_case_study();
        let artifacts: Vec<_> = ProtocolId::PAPER_FOUR
            .iter()
            .map(|&p| (p, sha1(p.slug().as_bytes()), 2000u32))
            .collect();
        let other = case_study_app_meta(AppId(2), &artifacts);
        proxy.push_app_meta(&other);

        let env = ClientClass::DesktopLan.env();
        proxy.negotiate(AppId(1), env).unwrap();
        proxy.negotiate(AppId(2), env).unwrap();
        proxy.push_app_meta(&other); // re-push app 2
        assert!(proxy.cached(AppId(1), &env));
        assert!(!proxy.cached(AppId(2), &env));
    }

    #[test]
    fn batched_push_invalidates_all_affected_apps_at_once() {
        let proxy = proxy_with_case_study();
        let artifacts: Vec<_> = ProtocolId::PAPER_FOUR
            .iter()
            .map(|&p| (p, sha1(p.slug().as_bytes()), 2000u32))
            .collect();
        let app2 = case_study_app_meta(AppId(2), &artifacts);
        let app3 = case_study_app_meta(AppId(3), &artifacts);
        proxy.push_app_metas(&[app2.clone(), app3.clone()]);
        assert_eq!(proxy.stats().app_pushes, 3, "1 from setup + 2 batched");

        let env = ClientClass::DesktopLan.env();
        for id in [1, 2, 3] {
            proxy.negotiate(AppId(id), env).unwrap();
        }
        // Re-pushing apps 2 and 3 in one batch evicts both and leaves app 1.
        proxy.push_app_metas(&[app2, app3]);
        assert!(proxy.cached(AppId(1), &env));
        assert!(!proxy.cached(AppId(2), &env));
        assert!(!proxy.cached(AppId(3), &env));
        // Empty batch is a no-op.
        proxy.push_app_metas(&[]);
        assert_eq!(proxy.stats().app_pushes, 5);
    }

    #[test]
    fn service_time_scales_with_tree() {
        let proxy = proxy_with_case_study();
        let hit = proxy.service_time(AppId(1), true);
        let miss = proxy.service_time(AppId(1), false);
        assert!(miss > hit);
    }

    #[test]
    fn cache_disabled_searches_every_time() {
        let bundle = fractal_telemetry::Telemetry::new(
            Arc::new(fractal_telemetry::Registry::new()),
            fractal_telemetry::NullClock::shared(),
        );
        let proxy = proxy_with_case_study().with_cache_disabled().with_telemetry(&bundle);
        let env = ClientClass::PdaBluetooth.env();
        let a = proxy.negotiate(AppId(1), env).unwrap();
        let b = proxy.negotiate(AppId(1), env).unwrap();
        assert_eq!(a, b);
        assert!(!proxy.cached(AppId(1), &env), "the ablation stores nothing");
        assert_eq!(bundle.snapshot().histograms["fractal_search_time_ns"].count, 2);
    }

    #[test]
    fn register_app_reports_novelty() {
        let proxy = proxy_with_case_study();
        let artifacts: Vec<_> = ProtocolId::PAPER_FOUR
            .iter()
            .map(|&p| (p, sha1(p.slug().as_bytes()), 2000u32))
            .collect();
        let app2 = case_study_app_meta(AppId(2), &artifacts);
        assert!(proxy.register_app(&app2), "first registration is new");
        assert!(!proxy.register_app(&app2), "re-registration reconfigures");
        assert!(proxy.negotiate(AppId(2), ClientClass::DesktopLan.env()).is_ok());
    }

    #[test]
    fn a_negotiation_that_pinned_the_old_table_cannot_fill_the_new_cache() {
        // The push/negotiate race, replayed deterministically: a
        // negotiation pins the table, a push lands, and only then does the
        // negotiation fill the cache of the state it pinned.
        let proxy = proxy_with_case_study();
        let env = ClientClass::PdaBluetooth.env();
        let stale = proxy.negotiate(AppId(1), env).unwrap();

        let pinned = proxy.pats.pin();
        proxy.push_app_meta(&case_study_meta(AppId(1)));
        pinned[&AppId(1)].cache.write().insert(env, stale.clone());
        assert!(!proxy.cached(AppId(1), &env), "the late fill went to the superseded state");

        let fresh = proxy.negotiate(AppId(1), env).unwrap();
        assert_eq!(fresh, stale, "same meta ⇒ same decision, but recomputed");
        assert_eq!(proxy.stats().cache_misses, 2, "the late fill was not served");
        assert!(proxy.cached(AppId(1), &env));
    }

    #[test]
    fn a_superseded_app_state_is_freed_with_its_last_pin() {
        let proxy = proxy_with_case_study();
        let env = ClientClass::PdaBluetooth.env();
        proxy.negotiate(AppId(1), env).unwrap();
        let pinned = proxy.pats.pin();
        let superseded = Arc::downgrade(&pinned[&AppId(1)]);
        proxy.push_app_meta(&case_study_meta(AppId(1)));
        assert!(superseded.upgrade().is_some(), "the pin keeps its generation alive");
        drop(pinned);
        assert!(superseded.upgrade().is_none(), "tree and cache went with the last pin");
    }

    #[test]
    fn pushes_race_negotiations_without_stale_decisions() {
        use std::sync::atomic::AtomicBool;
        let proxy = Arc::new(proxy_with_case_study());
        let serial: Vec<_> = ClientClass::ALL
            .iter()
            .map(|c| proxy_with_case_study().negotiate(AppId(1), c.env()).unwrap())
            .collect();
        let artifacts: Vec<_> = ProtocolId::PAPER_FOUR
            .iter()
            .map(|&p| (p, sha1(p.slug().as_bytes()), 2000u32))
            .collect();
        let meta = case_study_app_meta(AppId(1), &artifacts);
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let proxy = Arc::clone(&proxy);
                let serial = serial.clone();
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        for (i, class) in ClientClass::ALL.iter().enumerate() {
                            // Identical meta is re-pushed throughout, so
                            // the decision must never waver — even when a
                            // negotiation spans a push.
                            let got = proxy.negotiate(AppId(1), class.env()).unwrap();
                            assert_eq!(got, serial[i], "{class}");
                        }
                    }
                });
            }
            for _ in 0..200 {
                proxy.push_app_meta(&meta);
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(proxy.stats().app_pushes, 201);
    }

    #[test]
    fn concurrent_negotiations_agree_with_serial() {
        use std::sync::Arc;
        let proxy = Arc::new(proxy_with_case_study());
        let serial: Vec<_> = ClientClass::ALL
            .iter()
            .map(|c| proxy_with_case_study().negotiate(AppId(1), c.env()).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let proxy = Arc::clone(&proxy);
                let serial = serial.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        for (i, class) in ClientClass::ALL.iter().enumerate() {
                            let got = proxy.negotiate(AppId(1), class.env()).unwrap();
                            assert_eq!(got, serial[i], "{class}");
                        }
                    }
                });
            }
        });
        let stats = proxy.stats();
        assert_eq!(stats.cache_hits + stats.cache_misses, 4 * 50 * 3);
        assert_eq!(stats.cache_misses, 3, "one miss per distinct environment");
    }
}
