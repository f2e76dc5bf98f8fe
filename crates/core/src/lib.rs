//! # fractal-core
//!
//! The Fractal framework itself — the paper's contribution (§3):
//!
//! * [`meta`] — the metadata vocabulary of Figure 3 (`DevMeta`, `NtwkMeta`,
//!   `PADMeta`, `AppMeta`) with binary wire codecs;
//! * [`ratio`] — the normalized ratio matrices 𝓐 (processor × PAD),
//!   𝓑 (OS × PAD), 𝓡 (network × PAD) of Equation 2, including ∞ entries
//!   that disqualify a PAD outright (the WinMedia/Kinoma example);
//! * [`overhead`] — the total-overhead estimator of Equations 1 and 3:
//!   linear CPU/bandwidth scaling corrected by the ratio matrices;
//! * [`pat`] — the Protocol Adaptation Tree of §3.4.1, with symbolic-link
//!   nodes for PADs shared by several parents;
//! * [`search`] — the adaptation path search algorithm of Figure 6
//!   (mark every node with its estimated total overhead, then depth-first
//!   search all root→leaf paths for the cheapest);
//! * [`inp`] — the Interactive Negotiation Protocol of Figure 4, messages
//!   and wire formats;
//! * [`reactor`] — event-driven INP: the sans-IO protocol core
//!   ([`reactor::InpSession`] on the client side, [`reactor::InpService`]
//!   on the service side — together the "protocol integrity" of the INP
//!   header, Figure 4's message order enforced on both ends) under a
//!   poll-based [`reactor::Reactor`] multiplexing many sessions over one
//!   shared proxy + server pair;
//! * [`fault`] — seeded fault injection over any transport pair: loss,
//!   duplication, reorder, corruption, transient partitions, hard link
//!   drops — each logged deterministically;
//! * [`transport`] — the byte-stream layer under the reactor: the
//!   [`transport::Transport`] readiness trait, the in-memory loopback and
//!   the [`fractal_net`]-timed simulated-link implementations, and the
//!   length-prefixed [`transport::Framer`];
//! * [`proxy`] — the adaptation proxy: negotiation manager + distribution
//!   manager + adaptation cache (§3.2);
//! * [`server`] — the application server: versioned adaptive content,
//!   reactive vs. proactive generation (§3.1);
//! * [`client`] — the Fractal client: protocol cache, PAD download,
//!   verification (digest + code signature + static verification),
//!   sandboxed deployment (§3.3, §3.5);
//! * [`session`] — the link-model driver over the INP core: one session
//!   run to completion with every message priced, producing the
//!   measurements behind Figures 10 and 11; and the PAD repository;
//! * [`presets`] — the experimental platform of Figure 7 (Desktop/LAN,
//!   Laptop/WLAN, PDA/Bluetooth) and the calibrated cost table;
//! * [`sys`] — the narrow `poll(2)`/rlimit OS bindings behind the
//!   socket-backed transport (the one module where `unsafe` is allowed);
//! * [`shard`] — N independent reactors behind one TCP acceptor: the
//!   C100k front-end driving live sockets via [`sys::Poller`] readiness;
//! * [`epoch`] — RCU-style epoch versioning: the `&self` write path under
//!   the server's content store, the proxy's PAT table, and the PAD wire
//!   repo, so republish runs live under full read load.

// `unsafe` is denied crate-wide and re-allowed in exactly one module:
// `sys`, the hand-rolled poll(2)/rlimit FFI (crates.io is offline, so
// there is no libc/mio to lean on). Everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod epoch;
pub mod error;
pub mod fault;
pub mod inp;
#[cfg(unix)]
pub mod introspect;
pub mod meta;
pub mod overhead;
pub mod pat;
pub mod presets;
pub mod proxy;
pub mod ratio;
pub mod reactor;
pub mod search;
pub mod server;
pub mod session;
#[cfg(unix)]
pub mod shard;
#[cfg(unix)]
pub mod sys;
pub mod testbed;
pub mod transport;

pub use error::{FractalError, InpError};
pub use meta::{AppId, AppMeta, ClientEnv, CpuType, DevMeta, NtwkMeta, OsType, PadId, PadMeta};
pub use overhead::{OverheadModel, ServerComputeMode};
pub use pat::Pat;
pub use presets::ClientClass;
pub use proxy::AdaptationProxy;
pub use ratio::RatioMatrix;
