//! The client-side PAD runtime: executing a deployed protocol adaptor.
//!
//! After a Fractal client has downloaded a PAD, checked its digest against
//! `PADMeta`, and verified its code signature, it *deploys* the PAD: the
//! admitted module, shared with every other client of the same PAD, and the
//! calling conventions below. A deployment holds no sandbox. Each call
//! leases a [`Machine`] from the admitted module's instance pool, runs in
//! it and drops it before returning, which scrubs the instance and puts it
//! back: an idle deployment pins no linear memory, and every call starts
//! from a zeroed sandbox, however the last one ended.
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

/// A deployed PAD: an admitted module plus the calling conventions of the
/// Fractal PAD ABI. It owns no instance; see the [module docs](self).
pub struct PadRuntime {
    analyzed: Arc<AnalyzedModule>,
    /// Fuel its calls have consumed, summed.
    fuel_used: u64,
    /// Calls whose instance came out of the pool.
    recycled: u64,
}

impl core::fmt::Debug for PadRuntime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PadRuntime")
            .field("memory", &self.analyzed.module.memory_bytes())
            .field("fuel_used", &self.fuel_used)
            .field("recycled", &self.recycled)
            .finish()
    }
}

impl PadRuntime {
    /// Admits `module` under `policy` — the admission rule of the client's
    /// gauntlet: a module the verifier or the abstract interpreter cannot
    /// prove safe is [`PadError::Refused`], not run.
    pub fn new(module: Module, policy: SandboxPolicy) -> Result<PadRuntime, PadError> {
        Ok(PadRuntime::from_analyzed(Arc::new(module.analyzed(&policy)?)))
    }

    /// Deploys an already admitted module: code, proof, register-form slots,
    /// the policy they were proven under and the instance pool stay in the
    /// shared bundle, and nothing is allocated until a call leases an
    /// instance.
    pub fn from_analyzed(analyzed: Arc<AnalyzedModule>) -> PadRuntime {
        PadRuntime { analyzed, fuel_used: 0, recycled: 0 }
    }

    /// Calls whose sandbox was checked out of the admitted module's pool
    /// rather than allocated for the call.
    pub fn calls_recycled(&self) -> u64 {
        self.recycled
    }

    /// Total fuel the calls have consumed (a proxy for client-side compute
    /// in diagnostics; the simulation charges modeled time).
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Runs the module's `decode` entry over `(old, payload)`.
    pub fn decode(&mut self, old: &[u8], payload: &[u8]) -> Result<Vec<u8>, PadError> {
        let old_base = SCRATCH;
        let pay_base = align8(old_base + old.len());
        let out_base = align8(pay_base + payload.len());
        let out_cap = self.output_room(out_base)?;
        let args = [old_base, old.len(), pay_base, payload.len(), out_base, out_cap];
        let inputs = [(old_base, old), (pay_base, payload)];
        self.call("decode", &inputs, &args.map(|a| a as i64), (out_base, out_cap))
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
        let out_cap = self.output_room(out_base)?;
        let args = [old_base, old.len(), block_size as usize, out_base, out_cap];
        self.call(entry, &[(old_base, old)], &args.map(|a| a as i64), (out_base, out_cap))
    }

    /// The bytes from `out_base` to the end of linear memory, the output
    /// region's capacity; none is an error.
    fn output_room(&self, out_base: usize) -> Result<usize, PadError> {
        let mem = self.analyzed.module.memory_bytes();
        if out_base >= mem {
            return Err(PadError::InputsTooLarge { required: out_base + 1, available: mem });
        }
        Ok(mem - out_base)
    }

    /// One call in a leased instance: stage each `(address, bytes)` input,
    /// call `entry` with `args`, and copy out the length it returns from the
    /// output region at `out_base`, which holds at most `out_cap`. The
    /// instance goes back to the pool, scrubbed, when this returns, however
    /// the call ended; its fuel goes into the tally first.
    fn call(
        &mut self,
        entry: &str,
        inputs: &[(usize, &[u8])],
        args: &[i64],
        (out_base, out_cap): (usize, usize),
    ) -> Result<Vec<u8>, PadError> {
        let mut machine = Machine::new_analyzed(Arc::clone(&self.analyzed))?;
        self.recycled += u64::from(machine.is_recycled());
        let ret = inputs
            .iter()
            .try_for_each(|&(at, bytes)| machine.write_memory(at, bytes))
            .and_then(|()| machine.call(entry, args));
        self.fuel_used += machine.fuel_used();
        let ret = ret?;
        if ret < 0 {
            return Err(PadError::Status(ret));
        }
        if ret as usize > out_cap {
            return Err(PadError::BogusOutputLength(ret));
        }
        Ok(machine.read_memory(out_base, ret as usize)?.to_vec())
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
    fn hand_built_module_with_wild_data_segment_is_refused_not_panicked() {
        use fractal_vm::module::DataSegment;
        let signer = SignerRegistry::new().provision("rt-test");
        let mut module = open_unchecked(&build_pad(ProtocolId::Direct, &signer));
        let offset = module.memory_bytes() as u32 - 1;
        module.data.push(DataSegment { offset, bytes: vec![1, 2] });
        let out_of_range = fractal_vm::ModuleError::DataOutOfRange { offset, len: 2 };
        let expected = PadError::Refused(VerifyError::Code(out_of_range));
        assert_eq!(PadRuntime::new(module, SandboxPolicy::for_pads()).unwrap_err(), expected);
    }

    #[test]
    fn a_module_the_analyser_refuses_is_refused_with_its_reason() {
        // Structurally valid, but pops an empty stack: deployment must not
        // get as far as running it.
        let src = ".memory 1\n.func decode args=0 locals=0\n drop\n ret\n";
        let module = fractal_vm::assemble(src).unwrap();
        let err = PadRuntime::new(module, SandboxPolicy::for_pads()).unwrap_err();
        assert!(matches!(err, PadError::Refused(VerifyError::StackUnderflow { .. })), "{err:?}");
    }

    #[test]
    fn repeated_decodes_on_one_instance() {
        let mut rt = runtime(ProtocolId::Gzip);
        for i in 0..5 {
            let content = texty(1000 + i * 997);
            let payload = Gzip.encode(&[], &content);
            assert_eq!(rt.decode(&[], &payload).unwrap(), content);
        }
        // The first call's instance, scrubbed, served the four after it.
        assert_eq!(rt.calls_recycled(), 4);
    }
}
