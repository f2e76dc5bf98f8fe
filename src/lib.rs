//! # Fractal
//!
//! A Rust reproduction of *"Fractal: A Mobile Code Based Framework for
//! Dynamic Application Protocol Adaptation in Pervasive Computing"*
//! (Lufei & Shi, IPPS 2005).
//!
//! Fractal decomposes an application protocol into **protocol adaptors
//! (PADs)** packaged as signed **mobile code**. Before a session, a client
//! negotiates with an **adaptation proxy** which walks a **protocol
//! adaptation tree** with the paper's linear-plus-ratio overhead model to
//! pick the cheapest PAD chain for that client's device and network; the
//! client then downloads the PADs from **CDN edge servers**, verifies and
//! sandboxes them, and runs the adapted protocol.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`core`] | the framework: metadata, PAT, path search, proxy, INP, client/server, sessions |
//! | [`pads`] | the protocol adaptors as signed FVM mobile-code modules |
//! | [`vm`] | the FVM mobile-code virtual machine (bytecode, assembler, sandbox) |
//! | [`protocols`] | the communication-optimization codecs (Direct, Gzip, Bitmap, vary/fixed blocking) |
//! | [`cdn`] | origin + edge servers, proximity routing, deployments |
//! | [`net`] | the deterministic network simulator (links, queues, topology) |
//! | [`crypto`] | SHA-1, HMAC, code signing, Rabin fingerprints |
//! | [`telemetry`] | deterministic metrics + flight-recorder journals (always recording) |
//! | [`workload`] | the synthetic 75-page medical-imaging workload |
//!
//! ## Quickstart
//!
//! ```
//! use fractal::core::presets::ClientClass;
//! use fractal::core::server::AdaptiveContentMode;
//! use fractal::core::session::run_session;
//! use fractal::core::testbed::Testbed;
//!
//! // Assemble the paper's platform: signed PADs, proxy with the PAT, server.
//! let mut tb = Testbed::case_study(AdaptiveContentMode::Reactive);
//! tb.server.publish(1, b"content v0".repeat(1000).to_vec());
//!
//! // A PDA on Bluetooth negotiates, downloads mobile code, and runs a session.
//! let mut client = tb.client(ClientClass::PdaBluetooth);
//! let link = ClientClass::PdaBluetooth.link();
//! let report = run_session(
//!     &mut client, &tb.proxy, &tb.server, &tb.pad_repo,
//!     &link, tb.app_id, 1, 0,
//! ).unwrap();
//! println!("negotiated {} in {}", report.protocol, report.total());
//! ```

pub use fractal_cdn as cdn;
pub use fractal_core as core;
pub use fractal_crypto as crypto;
pub use fractal_net as net;
pub use fractal_pads as pads;
pub use fractal_protocols as protocols;
pub use fractal_telemetry as telemetry;
pub use fractal_vm as vm;

/// The byte-stream transport layer under the reactor (loopback and
/// simulated-link implementations, framing) — re-exported so callers can
/// write `fractal::transport::Transport` next to `fractal::telemetry`.
pub use fractal_core::transport;
pub use fractal_workload as workload;
