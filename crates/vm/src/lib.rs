//! # fractal-vm — the Fractal mobile-code virtual machine (FVM)
//!
//! The Fractal paper packages each protocol adaptor (PAD) as a *mobile code*
//! module that clients download from CDN edge servers and execute locally
//! (§2.1, §3.5). The original prototype used Java class objects; a Rust
//! reproduction needs its own late-binding execution substrate, so this
//! crate implements one from scratch:
//!
//! * a compact stack-machine **bytecode** ([`bytecode`]) with linear memory,
//!   designed for the data-movement loops protocol decoders actually run
//!   (bulk copy, LZ window copy, digest intrinsics);
//! * a line-oriented **assembler** ([`asm`]) so PAD programs are written as
//!   readable `.fasm` text and compiled to modules at build time (the
//!   disassembler, the lints and `fasmlint` are dev-only tools in
//!   `fractal-vm-oracle`);
//! * a static **verifier** ([`verify`]) that rejects malformed code before
//!   it ever executes (unknown opcodes, wild jumps, bad local/function
//!   indices);
//! * a **sandboxed interpreter** ([`machine`]) enforcing the paper's §3.5
//!   sandbox requirement: bounded memory, bounded value/call stacks,
//!   deterministic fuel metering, and a capability policy over host calls;
//! * a **signed module container** ([`module`]) carrying the SHA-1 digest
//!   and HMAC code signature checked against the client's trust store;
//! * an **admission cache** ([`admission`]) so the verifier and analyzer
//!   run once per distinct PAD, not once per session that deploys it;
//! * a **register form** ([`analysis::reg`]) the analyzer's proof licenses:
//!   admitted code runs as three-address slots over frame registers, at most
//!   one dispatch per source statement, at exactly the fuel the ISA charges
//!   op by op.
//!
//! The VM is deliberately small but real: every client-side protocol decode
//! in the reproduction's experiments runs through this interpreter.
//!
//! ## Execution model
//!
//! Values are `i64`. A module declares functions (by name), each with a
//! fixed argument and local count. Memory is a single linear byte array
//! sized in 64 KiB pages by the module header, bounds-checked on every
//! access. Host intrinsics (SHA-1, logging, abort) are reached through
//! [`Op::HostCall`](bytecode::Op) and gated by the
//! [`SandboxPolicy`](crate::sandbox::SandboxPolicy#).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod analysis;
pub mod asm;
pub mod bytecode;
pub mod error;
pub mod host;
mod instance;
pub mod machine;
mod memory;
pub mod module;
pub mod sandbox;
pub mod verify;

pub use admission::AdmissionCache;
pub use analysis::{analyze_module, AnalyzedModule, ModuleAnalysis};
pub use asm::assemble;
pub use bytecode::Op;
pub use error::{AsmError, ModuleError, Trap, VerifyError};
pub use host::HostId;
pub use machine::Machine;
pub use module::{Function, Module, SignedModule};
pub use sandbox::SandboxPolicy;
