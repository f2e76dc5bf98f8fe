//! The client-side PAD runtime: executing a deployed protocol adaptor.
//!
//! After a Fractal client has downloaded a PAD, checked its digest against
//! `PADMeta`, and verified its code signature, it *deploys* the PAD by
//! instantiating the module in a sandboxed [`Machine`] and drives it
//! through this runtime:
//!
//! * [`PadRuntime::decode`] — stage `(old, payload)` in linear memory, call
//!   the module's `decode` entry, extract the rebuilt content;
//! * [`PadRuntime::upstream`] — call an upstream-message builder entry
//!   (`digests` for Bitmap, `signatures` for fixed-block) to produce the
//!   bytes the client sends the server before the transfer.
//!
//! ## Memory layout convention
//!
//! ```text
//! 0   .. 64          module scratch (sha1 output etc.)
//! 64  .. +old_len    the client's old version
//! ..  .. +pay_len    the server payload (8-byte aligned)
//! ..  .. end         output region (8-byte aligned; capacity = the rest)
//! ```

use std::sync::Arc;

use fractal_vm::{AnalyzedModule, Machine, Module, SandboxPolicy, Trap, VerifyError};

/// Scratch area reserved at the bottom of linear memory.
const SCRATCH: usize = 64;

fn align8(x: usize) -> usize {
    (x + 7) & !7
}

/// Errors surfaced by running a PAD.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PadError {
    /// The verifier or the analyser refused the module: nothing was
    /// instantiated.
    Refused(VerifyError),
    /// The machine trapped (sandbox violation, fuel exhaustion, …).
    Trap(Trap),
    /// The module returned a negative status code
    /// (−1 truncated, −2 bad format, −3 old out of range, −4 capacity).
    Status(i64),
    /// Inputs do not fit the module's linear memory.
    InputsTooLarge {
        /// Bytes required.
        required: usize,
        /// Bytes available.
        available: usize,
    },
    /// The module reported an output length larger than its output region.
    BogusOutputLength(i64),
}

impl core::fmt::Display for PadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PadError::Refused(e) => write!(f, "PAD refused: {e}"),
            PadError::Trap(t) => write!(f, "PAD trapped: {t}"),
            PadError::Status(code) => write!(f, "PAD returned error status {code}"),
            PadError::InputsTooLarge { required, available } => {
                write!(f, "inputs need {required} bytes, module memory has {available}")
            }
            PadError::BogusOutputLength(n) => write!(f, "PAD claimed bogus output length {n}"),
        }
    }
}

impl std::error::Error for PadError {}

impl From<Trap> for PadError {
    fn from(t: Trap) -> Self {
        PadError::Trap(t)
    }
}

impl From<VerifyError> for PadError {
    fn from(e: VerifyError) -> Self {
        PadError::Refused(e)
    }
}

/// A deployed PAD: an instantiated sandboxed module plus the calling
/// conventions of the Fractal PAD ABI.
pub struct PadRuntime {
    machine: Machine,
}

impl core::fmt::Debug for PadRuntime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PadRuntime").field("machine", &self.machine).finish()
    }
}

impl PadRuntime {
    /// Admits `module` under `policy` and instantiates it on the
    /// interpreter's fast path (no per-op stack checks) — the admission
    /// rule of the client's gauntlet: a module the verifier or the abstract
    /// interpreter cannot prove safe is [`PadError::Refused`], not run.
    pub fn new(module: Module, policy: SandboxPolicy) -> Result<PadRuntime, PadError> {
        PadRuntime::from_analyzed(Arc::new(module.analyzed(&policy)?))
    }

    /// Instantiates around an already admitted module: the per-session half
    /// of a deployment. Code, proof, register-form slots and the policy
    /// they were proven under stay in the shared bundle; the instance has
    /// its own memory, stacks, fuel and log — a previous deployment's,
    /// wiped, when one has been dropped ([`PadRuntime::is_recycled`]).
    pub fn from_analyzed(analyzed: Arc<AnalyzedModule>) -> Result<PadRuntime, PadError> {
        Ok(PadRuntime { machine: Machine::new_analyzed(analyzed)? })
    }

    /// Instantiates on the fully checked interpreter path, skipping the
    /// verifier and the analyzer: the reference the differential tests hold
    /// the fast path to. Nothing deploys through it.
    pub fn new_checked(module: Module, policy: SandboxPolicy) -> Result<PadRuntime, PadError> {
        Ok(PadRuntime { machine: Machine::new(module, policy)? })
    }

    /// Instantiates in claims-auditor mode: the checked interpreter runs
    /// and every claim the analyzer made (fuel lower bounds, capability
    /// set, per-site intervals and proven facts) is asserted against
    /// observed execution. Discrepancies accumulate in
    /// [`PadRuntime::audit_violations`] — each one is an analyzer
    /// soundness bug. Used by the differential trust harness.
    pub fn new_audited(module: Module, policy: SandboxPolicy) -> Result<PadRuntime, PadError> {
        Ok(PadRuntime { machine: Machine::new_audited(module.analyzed(&policy)?)? })
    }

    /// Whether the sandbox was checked out of the admitted module's pool
    /// rather than allocated for this deployment.
    pub fn is_recycled(&self) -> bool {
        self.machine.is_recycled()
    }

    /// Claim violations the auditor has observed (empty unless built with
    /// [`PadRuntime::new_audited`]).
    pub fn audit_violations(&self) -> &[fractal_vm::AuditViolation] {
        self.machine.audit_violations()
    }

    /// How many analyzer claims the auditor has checked so far.
    pub fn claims_audited(&self) -> u64 {
        self.machine.claims_audited()
    }

    /// Whether this instance runs on the analyzed fast path.
    pub fn is_fast_path(&self) -> bool {
        self.machine.is_fast_path()
    }

    /// Total fuel the instance has consumed (a proxy for client-side
    /// compute in diagnostics; the simulation charges modeled time).
    pub fn fuel_used(&self) -> u64 {
        self.machine.fuel_used()
    }

    /// Runs the module's `decode` entry over `(old, payload)`.
    pub fn decode(&mut self, old: &[u8], payload: &[u8]) -> Result<Vec<u8>, PadError> {
        let old_base = SCRATCH;
        let pay_base = align8(old_base + old.len());
        let out_base = align8(pay_base + payload.len());
        let mem = self.machine.memory_len();
        if out_base >= mem {
            return Err(PadError::InputsTooLarge { required: out_base + 1, available: mem });
        }
        let out_cap = mem - out_base;

        self.machine.refuel();
        self.machine.write_memory(old_base, old)?;
        self.machine.write_memory(pay_base, payload)?;
        let ret = self.machine.call(
            "decode",
            &[
                old_base as i64,
                old.len() as i64,
                pay_base as i64,
                payload.len() as i64,
                out_base as i64,
                out_cap as i64,
            ],
        )?;
        if ret < 0 {
            return Err(PadError::Status(ret));
        }
        if ret as usize > out_cap {
            return Err(PadError::BogusOutputLength(ret));
        }
        Ok(self.machine.read_memory(out_base, ret as usize)?.to_vec())
    }

    /// Runs an upstream-message builder entry (`digests` / `signatures`)
    /// with the given block-size parameter.
    pub fn upstream(
        &mut self,
        entry: &str,
        old: &[u8],
        block_size: u32,
    ) -> Result<Vec<u8>, PadError> {
        let old_base = SCRATCH;
        let out_base = align8(old_base + old.len());
        let mem = self.machine.memory_len();
        if out_base >= mem {
            return Err(PadError::InputsTooLarge { required: out_base + 1, available: mem });
        }
        let out_cap = mem - out_base;

        self.machine.refuel();
        self.machine.write_memory(old_base, old)?;
        let ret = self.machine.call(
            entry,
            &[
                old_base as i64,
                old.len() as i64,
                block_size as i64,
                out_base as i64,
                out_cap as i64,
            ],
        )?;
        if ret < 0 {
            return Err(PadError::Status(ret));
        }
        if ret as usize > out_cap {
            return Err(PadError::BogusOutputLength(ret));
        }
        Ok(self.machine.read_memory(out_base, ret as usize)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{build_pad, open_unchecked};
    use fractal_crypto::sign::SignerRegistry;
    use fractal_protocols::bitmap::Bitmap;
    use fractal_protocols::direct::Direct;
    use fractal_protocols::fixedblock::FixedBlock;
    use fractal_protocols::gzip::Gzip;
    use fractal_protocols::varyblock::VaryBlock;
    use fractal_protocols::{DiffCodec, ProtocolId};

    fn runtime(p: ProtocolId) -> PadRuntime {
        let signer = SignerRegistry::new().provision("rt-test");
        let artifact = build_pad(p, &signer);
        PadRuntime::new(open_unchecked(&artifact), SandboxPolicy::for_pads()).unwrap()
    }

    fn data(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    /// Text-like compressible data.
    fn texty(len: usize) -> Vec<u8> {
        b"adaptation proxy negotiates protocol adaptors for heterogeneous clients. "
            .iter()
            .copied()
            .cycle()
            .take(len)
            .collect()
    }

    #[test]
    fn direct_vm_matches_native() {
        let mut rt = runtime(ProtocolId::Direct);
        let new = data(1, 5000);
        let payload = Direct.encode(&[], &new);
        assert_eq!(rt.decode(&[], &payload).unwrap(), new);
    }

    #[test]
    fn gzip_vm_matches_native() {
        let mut rt = runtime(ProtocolId::Gzip);
        for content in [texty(40_000), data(2, 10_000), Vec::new(), texty(1)] {
            let payload = Gzip.encode(&[], &content);
            assert_eq!(rt.decode(&[], &payload).unwrap(), content, "len {}", content.len());
        }
    }

    #[test]
    fn bitmap_vm_matches_native() {
        let codec = Bitmap::with_block_size(512);
        let mut rt = runtime(ProtocolId::Bitmap);
        let old = data(3, 20_000);
        let mut new = old.clone();
        new[1000] ^= 0xFF;
        new[15_000] ^= 0x0F;
        let payload = codec.encode(&old, &new);
        assert_eq!(rt.decode(&old, &payload).unwrap(), new);
    }

    #[test]
    fn bitmap_vm_upstream_matches_native() {
        let codec = Bitmap::with_block_size(512);
        let mut rt = runtime(ProtocolId::Bitmap);
        for len in [0usize, 1, 511, 512, 513, 20_000] {
            let old = data(4, len);
            let vm_msg = rt.upstream("digests", &old, 512).unwrap();
            assert_eq!(vm_msg, codec.upstream_message(&old), "old len {len}");
        }
    }

    #[test]
    fn varyblock_vm_matches_native() {
        let codec = VaryBlock::default();
        let mut rt = runtime(ProtocolId::VaryBlock);
        let old = data(5, 60_000);
        let mut new = old.clone();
        for (i, b) in data(6, 50).into_iter().enumerate() {
            new.insert(10_000 + i, b);
        }
        let payload = codec.encode(&old, &new);
        assert_eq!(rt.decode(&old, &payload).unwrap(), new);
    }

    #[test]
    fn fixedblock_vm_matches_native() {
        let codec = FixedBlock::with_block_size(512);
        let mut rt = runtime(ProtocolId::FixedBlock);
        let old = data(7, 30_000);
        let mut new = old.clone();
        new.insert(5_000, 0xAA);
        let payload = codec.encode(&old, &new);
        assert_eq!(rt.decode(&old, &payload).unwrap(), new);
    }

    #[test]
    fn fixedblock_vm_signatures_match_native() {
        let codec = FixedBlock::with_block_size(512);
        let mut rt = runtime(ProtocolId::FixedBlock);
        for len in [0usize, 511, 512, 1024, 10_000, 10_100] {
            let old = data(8, len);
            let vm_msg = rt.upstream("signatures", &old, 512).unwrap();
            assert_eq!(vm_msg, codec.upstream_message(&old), "old len {len}");
        }
    }

    #[test]
    fn truncated_payload_yields_status() {
        let mut rt = runtime(ProtocolId::Gzip);
        let payload = Gzip.encode(&[], &texty(1000));
        let err = rt.decode(&[], &payload[..payload.len() / 2]).unwrap_err();
        assert!(matches!(err, PadError::Status(-1) | PadError::Status(-2)), "{err:?}");
    }

    #[test]
    fn garbage_payload_yields_status_not_trap() {
        let mut rt = runtime(ProtocolId::VaryBlock);
        // A recipe whose COPY references old bytes that don't exist.
        let payload = VaryBlock::default().encode(&data(9, 9000), &data(9, 9000));
        let err = rt.decode(&[], &payload).unwrap_err(); // empty old
        assert_eq!(err, PadError::Status(-3));
    }

    #[test]
    fn oversized_inputs_rejected_cleanly() {
        let mut rt = runtime(ProtocolId::Direct);
        // Module memory is 64 pages = 4 MiB; 5 MiB input can't fit.
        let huge = vec![0u8; 5 * 1024 * 1024];
        let err = rt.decode(&[], &huge).unwrap_err();
        assert!(matches!(err, PadError::InputsTooLarge { .. }));
    }

    #[test]
    fn fuel_is_consumed_and_reported() {
        let mut rt = runtime(ProtocolId::Gzip);
        let payload = Gzip.encode(&[], &texty(5000));
        rt.decode(&[], &payload).unwrap();
        assert!(rt.fuel_used() > 100, "fuel used: {}", rt.fuel_used());
    }

    #[test]
    fn shipped_pads_deploy_on_the_fast_path() {
        for p in ProtocolId::ALL {
            assert!(runtime(p).is_fast_path(), "{p} fell back to the checked path");
        }
    }

    #[test]
    fn hand_built_module_with_wild_data_segment_is_refused_not_panicked() {
        use fractal_vm::module::DataSegment;
        let signer = SignerRegistry::new().provision("rt-test");
        let mut module = open_unchecked(&build_pad(ProtocolId::Direct, &signer));
        let offset = module.memory_bytes() as u32 - 1;
        module.data.push(DataSegment { offset, bytes: vec![1, 2] });
        let expected = PadError::Trap(Trap::OutOfBounds { addr: offset as u64, len: 2 });
        // `new_checked` skips the verifier entirely; `new` analyses first.
        let policy = SandboxPolicy::for_pads();
        assert_eq!(PadRuntime::new_checked(module.clone(), policy.clone()).unwrap_err(), expected);
        assert_eq!(PadRuntime::new(module, policy).unwrap_err(), expected);
    }

    #[test]
    fn a_module_the_analyser_refuses_is_refused_with_its_reason() {
        // Structurally valid, but pops an empty stack: the checked loop
        // would run it into a trap; deployment must not get that far.
        let src = ".memory 1\n.func decode args=0 locals=0\n drop\n ret\n";
        let module = fractal_vm::assemble(src).unwrap();
        let policy = SandboxPolicy::for_pads();
        for build in [PadRuntime::new, PadRuntime::new_audited] {
            let err = build(module.clone(), policy.clone()).unwrap_err();
            assert!(
                matches!(err, PadError::Refused(VerifyError::StackUnderflow { .. })),
                "{err:?}"
            );
        }
        assert!(PadRuntime::new_checked(module, policy).is_ok(), "the oracle still loads it");
    }

    #[test]
    fn repeated_decodes_on_one_instance() {
        let mut rt = runtime(ProtocolId::Gzip);
        for i in 0..5 {
            let content = texty(1000 + i * 997);
            let payload = Gzip.encode(&[], &content);
            assert_eq!(rt.decode(&[], &payload).unwrap(), content);
        }
    }
}
