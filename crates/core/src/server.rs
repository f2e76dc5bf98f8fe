//! The application server: versioned adaptive content, reactive vs.
//! proactive generation, and the PAD-encoded session responses.
//!
//! §3.1: "adaptive content can be generated either reactively or
//! proactively. The former is suitable for the case in which content keeps
//! changing … the price of computing the dynamic adaptive content maybe
//! high. On the contrary, the latter, where adaptive content is
//! precalculated in advance and saved in memory or disk consumes less CPU
//! and has large memory or disk space requirements."
//!
//! Both stores live behind an [`Epoch`]: `publish` takes `&self`, builds
//! the successor snapshot (new version appended, proactive entries
//! precomputed) entirely off the read path, then swaps it in. Sessions
//! pin one generation per `respond`, so a racing republish can never show
//! them a torn version chain — and since version chains are append-only,
//! a session that negotiated version `v` decodes against exactly `v` no
//! matter how many publishes land mid-flight.

use std::collections::HashMap;

use bytes::Bytes;
use fractal_protocols::bitmap::Bitmap;
use fractal_protocols::direct::Direct;
use fractal_protocols::fixedblock::FixedBlock;
use fractal_protocols::gzip::Gzip;
use fractal_protocols::varyblock::VaryBlock;
use fractal_protocols::{DiffCodec, ProtocolId};

use crate::epoch::{Epoch, EpochStats};
use crate::error::FractalError;
use crate::meta::AppId;

/// Reactive vs. proactive adaptive-content generation (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdaptiveContentMode {
    /// Encode per request; server compute is on the critical path.
    Reactive,
    /// Pre-encode into the adaptive-content store; requests are lookups.
    Proactive,
}

/// One encoded response plus its accounting.
#[derive(Clone, Debug)]
pub struct EncodedResponse {
    /// The protocol used.
    pub protocol: ProtocolId,
    /// Encoded payload. A [`Bytes`] view: serving a proactive-store entry
    /// or re-serving a cached response clones a refcount, not the buffer.
    pub payload: Bytes,
    /// Whether the encode ran on the request path (false = served from the
    /// proactive store).
    pub computed_on_request: bool,
}

/// Memory accounting for the proactive store — the space/CPU trade-off the
/// paper calls out.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Pre-encoded entries held.
    pub entries: usize,
    /// Bytes held.
    pub bytes: u64,
}

type StoreKey = (u32, Option<u32>, u32, ProtocolId);

/// The epoch-versioned snapshot behind one server: the version chains and
/// the proactive store publish together, so a reader that pins the
/// snapshot sees them consistent. Cloning copies the two indexes; every
/// payload is a [`Bytes`] refcount.
#[derive(Clone, Default)]
struct ServerState {
    /// content id → versions (index = version number). Append-only.
    contents: HashMap<u32, Vec<Bytes>>,
    /// Proactive store: (content, have, want, protocol) → payload.
    store: HashMap<StoreKey, Bytes>,
}

/// The application server.
pub struct ApplicationServer {
    /// Application this server provides.
    pub app_id: AppId,
    mode: AdaptiveContentMode,
    /// Deployed server-side PADs.
    protocols: Vec<ProtocolId>,
    state: Epoch<ServerState>,
}

impl core::fmt::Debug for ApplicationServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let state = self.state.pin();
        f.debug_struct("ApplicationServer")
            .field("app_id", &self.app_id)
            .field("mode", &self.mode)
            .field("protocols", &self.protocols)
            .field("contents", &state.contents.len())
            .field("store", &self.store_stats())
            .field("generation", &self.state.generation())
            .field("epoch", &self.state.stats())
            .finish()
    }
}

/// Builds the codec for one protocol (the server-side PAD function).
pub fn codec_for(protocol: ProtocolId) -> Box<dyn DiffCodec> {
    match protocol {
        ProtocolId::Direct => Box::new(Direct),
        ProtocolId::Gzip => Box::new(Gzip),
        ProtocolId::Bitmap => Box::new(Bitmap::default()),
        ProtocolId::VaryBlock => Box::new(VaryBlock::default()),
        ProtocolId::FixedBlock => Box::new(FixedBlock::default()),
    }
}

impl ApplicationServer {
    /// Creates a server with the given deployed protocols.
    pub fn new(app_id: AppId, protocols: &[ProtocolId], mode: AdaptiveContentMode) -> Self {
        ApplicationServer {
            app_id,
            mode,
            protocols: protocols.to_vec(),
            state: Epoch::new(ServerState::default()),
        }
    }

    /// Current generation mode.
    pub fn mode(&self) -> AdaptiveContentMode {
        self.mode
    }

    /// Publishes a new version of `content_id`; returns the version number.
    /// In proactive mode the adaptive content for the new version is
    /// pre-computed immediately (the off-request-path cost).
    ///
    /// Takes `&self`: the successor snapshot — appended version chain plus
    /// any proactive precomputes — is built off the read path and swapped
    /// in atomically, so publish runs concurrently with live `respond`
    /// traffic. Concurrent publishers serialize; readers never wait.
    pub fn publish(&self, content_id: u32, bytes: impl Into<Bytes>) -> u32 {
        let bytes = bytes.into();
        self.state.publish_with(|state| {
            let versions = state.contents.entry(content_id).or_default();
            versions.push(bytes);
            let version = (versions.len() - 1) as u32;
            if self.mode == AdaptiveContentMode::Proactive {
                precompute(state, &self.protocols, content_id, version);
            }
            version
        })
    }

    /// Latest version number of `content_id`.
    pub fn latest_version(&self, content_id: u32) -> Option<u32> {
        self.state.pin().contents.get(&content_id).map(|v| (v.len() - 1) as u32)
    }

    /// Raw bytes of a version (for tests and the session runner's oracle).
    /// An O(1) [`Bytes`] view into the pinned snapshot.
    pub fn content(&self, content_id: u32, version: u32) -> Option<Bytes> {
        self.state.pin().contents.get(&content_id)?.get(version as usize).cloned()
    }

    /// The snapshot generation currently being served (0 until the first
    /// publish; +1 per publish). Monotonic — the `live_republish` scenario
    /// stamps it into its `BENCH_scenarios.json` row.
    pub fn generation(&self) -> u64 {
        self.state.generation()
    }

    /// Epoch accounting: generations published / retired / still live.
    pub fn epoch_stats(&self) -> EpochStats {
        self.state.stats()
    }

    /// Handles the encoded-content part of an `APP_REQ`: the client holds
    /// `have_version` (or nothing) and wants `want_version` encoded with
    /// `protocol`.
    ///
    /// Takes `&self` and pins one snapshot generation for the duration:
    /// any number of sessions — reactor-driven or thread-parallel — serve
    /// concurrently from one shared server, and a racing
    /// [`publish`](Self::publish) can never tear the version chain out
    /// from under a response in flight. Reactive encodes are pure
    /// computation over the pinned [`Bytes`] store and allocate their own
    /// output.
    pub fn respond(
        &self,
        content_id: u32,
        have_version: Option<u32>,
        want_version: u32,
        protocol: ProtocolId,
    ) -> Result<EncodedResponse, FractalError> {
        if !self.protocols.contains(&protocol) {
            return Err(FractalError::ProtocolNotDeployed(protocol));
        }
        let state = self.state.pin();
        let versions =
            state.contents.get(&content_id).ok_or(FractalError::UnknownContent(content_id))?;
        let new =
            versions.get(want_version as usize).ok_or(FractalError::UnknownContent(content_id))?;

        if self.mode == AdaptiveContentMode::Proactive {
            if let Some(payload) =
                state.store.get(&(content_id, have_version, want_version, protocol))
            {
                return Ok(EncodedResponse {
                    protocol,
                    payload: payload.clone(),
                    computed_on_request: false,
                });
            }
        }

        let old: &[u8] = match have_version {
            Some(v) => versions
                .get(v as usize)
                .map(Bytes::as_ref)
                .ok_or(FractalError::UnknownContent(content_id))?,
            None => &[],
        };
        let payload = codec_for(protocol).encode(old, new);
        Ok(EncodedResponse { protocol, payload, computed_on_request: true })
    }

    /// Proactive-store accounting.
    pub fn store_stats(&self) -> StoreStats {
        let state = self.state.pin();
        StoreStats {
            entries: state.store.len(),
            bytes: state.store.values().map(|p| p.len() as u64).sum(),
        }
    }
}

/// Pre-encodes the cold fetch and the adjacent-pair diff for `version`
/// into the successor snapshot's proactive store. Runs inside
/// `publish_with`, i.e. off the read path.
fn precompute(state: &mut ServerState, protocols: &[ProtocolId], content_id: u32, version: u32) {
    let versions = &state.contents[&content_id];
    let new = versions[version as usize].clone();
    let old_versions: Vec<(Option<u32>, Bytes)> = {
        let mut v: Vec<(Option<u32>, Bytes)> = vec![(None, Bytes::new())];
        if version > 0 {
            v.push((Some(version - 1), versions[version as usize - 1].clone()));
        }
        v
    };
    for &protocol in protocols {
        let codec = codec_for(protocol);
        for (have, old) in &old_versions {
            let payload = codec.encode(old, &new);
            state.store.insert((content_id, *have, version, protocol), payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn content(seed: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(seed).wrapping_add(seed)).collect()
    }

    fn server(mode: AdaptiveContentMode) -> ApplicationServer {
        ApplicationServer::new(AppId(1), &ProtocolId::PAPER_FOUR, mode)
    }

    #[test]
    fn publish_and_version_chain() {
        let s = server(AdaptiveContentMode::Reactive);
        assert_eq!(s.publish(7, content(1, 100)), 0);
        assert_eq!(s.publish(7, content(2, 100)), 1);
        assert_eq!(s.latest_version(7), Some(1));
        assert_eq!(s.latest_version(8), None);
        assert_eq!(s.content(7, 0).unwrap().len(), 100);
        assert_eq!(s.generation(), 2, "one snapshot generation per publish");
    }

    #[test]
    fn reactive_respond_round_trips_every_protocol() {
        let s = server(AdaptiveContentMode::Reactive);
        let v0 = content(1, 5000);
        let v1 = content(2, 5000);
        s.publish(7, v0.clone());
        s.publish(7, v1.clone());
        for p in ProtocolId::PAPER_FOUR {
            let resp = s.respond(7, Some(0), 1, p).unwrap();
            assert!(resp.computed_on_request);
            let decoded = codec_for(p).decode(&v0, &resp.payload).unwrap();
            assert_eq!(decoded, v1, "{p}");
        }
    }

    #[test]
    fn proactive_serves_from_store() {
        let s = server(AdaptiveContentMode::Proactive);
        s.publish(7, content(1, 2000));
        s.publish(7, content(2, 2000));
        // Cold fetch and warm fetch are both precomputed.
        let cold = s.respond(7, None, 1, ProtocolId::Gzip).unwrap();
        assert!(!cold.computed_on_request);
        let warm = s.respond(7, Some(0), 1, ProtocolId::VaryBlock).unwrap();
        assert!(!warm.computed_on_request);
        assert!(s.store_stats().entries > 0);
        assert!(s.store_stats().bytes > 0);
    }

    #[test]
    fn proactive_falls_back_to_reactive_for_unexpected_pairs() {
        let s = server(AdaptiveContentMode::Proactive);
        s.publish(7, content(1, 1000));
        s.publish(7, content(2, 1000));
        s.publish(7, content(3, 1000));
        // have=0 want=2 was not precomputed (only adjacent pairs are).
        let resp = s.respond(7, Some(0), 2, ProtocolId::Gzip).unwrap();
        assert!(resp.computed_on_request);
    }

    #[test]
    fn unknown_content_and_versions_rejected() {
        let s = server(AdaptiveContentMode::Reactive);
        assert!(matches!(
            s.respond(9, None, 0, ProtocolId::Direct),
            Err(FractalError::UnknownContent(9))
        ));
        s.publish(7, content(1, 10));
        assert!(s.respond(7, None, 5, ProtocolId::Direct).is_err());
        assert!(s.respond(7, Some(9), 0, ProtocolId::Direct).is_err());
    }

    #[test]
    fn undeployed_protocol_rejected() {
        let s =
            ApplicationServer::new(AppId(1), &[ProtocolId::Direct], AdaptiveContentMode::Reactive);
        s.publish(7, content(1, 10));
        assert_eq!(
            s.respond(7, None, 0, ProtocolId::Gzip).unwrap_err(),
            FractalError::ProtocolNotDeployed(ProtocolId::Gzip)
        );
    }

    #[test]
    fn proactive_store_grows_with_versions() {
        let s = server(AdaptiveContentMode::Proactive);
        s.publish(7, content(1, 1000));
        let after_one = s.store_stats().entries;
        s.publish(7, content(2, 1000));
        let after_two = s.store_stats().entries;
        assert!(after_two > after_one);
        // v0: 4 protocols × cold; v1: 4 × (cold + warm).
        assert_eq!(after_one, 4);
        assert_eq!(after_two, 12);
    }

    #[test]
    fn debug_dump_shows_deployments() {
        // The STALL_*.txt satellite: a debug dump must show what the
        // server actually had deployed — protocols and store stats.
        let s = server(AdaptiveContentMode::Proactive);
        s.publish(7, content(1, 1000));
        let dump = format!("{s:?}");
        assert!(dump.contains("protocols"), "{dump}");
        assert!(dump.contains("Gzip"), "{dump}");
        assert!(dump.contains("StoreStats"), "{dump}");
        assert!(dump.contains("generation"), "{dump}");
    }

    #[test]
    fn concurrent_publish_and_respond_never_tear() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let s = std::sync::Arc::new(server(AdaptiveContentMode::Proactive));
        s.publish(7, content(1, 2000));
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let s = &s;
                let done = &done;
                scope.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let latest = s.latest_version(7).unwrap();
                        // The version we just observed stays servable: the
                        // chain is append-only within a pinned snapshot and
                        // across publishes.
                        let resp = s.respond(7, None, latest, ProtocolId::Gzip).unwrap();
                        let decoded = codec_for(ProtocolId::Gzip).decode(&[], &resp.payload);
                        let expected = s.content(7, latest).unwrap();
                        assert_eq!(decoded.unwrap(), expected);
                    }
                });
            }
            for seed in 2..40u8 {
                s.publish(7, content(seed, 2000));
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(s.latest_version(7), Some(38));
    }
}
