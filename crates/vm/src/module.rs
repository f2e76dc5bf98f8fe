//! FVM module container: functions, data segments, serialization, and the
//! signed wrapper checked by clients before deployment.
//!
//! ## Container layout (all integers little-endian)
//!
//! ```text
//! magic      4  "FVM\x01"
//! version    2  = 1
//! mem_pages  2  linear memory size in 64 KiB pages
//! n_funcs    2
//! per func:  name_len u8, name bytes, n_args u8, n_locals u8,
//!            code_len u32, code bytes
//! n_data     2
//! per seg:   offset u32, len u32, bytes
//! ```
//!
//! A [`SignedModule`] prepends nothing and appends nothing: it is the raw
//! container plus a detached `Signature`
//! and the SHA-1 digest of the container, mirroring the `Message digest`
//! and implicit signing fields of the paper's `PADMeta` (Figure 3).

use fractal_crypto::sign::{Signature, Signer, TrustStore};
use fractal_crypto::wire::{counted, Cursor, Sink};
use fractal_crypto::{sha1::sha1, Digest};

use crate::error::ModuleError;

/// 64 KiB, the linear-memory page size.
pub const PAGE_SIZE: usize = 64 * 1024;

/// Hard limits keeping hostile containers from ballooning the loader.
pub const MAX_FUNCS: usize = 256;
/// Maximum number of data segments in a container.
pub const MAX_DATA_SEGMENTS: usize = 256;
/// Maximum linear memory (pages) a module may declare: 64 MiB.
pub const MAX_MEM_PAGES: u16 = 1024;

const MAGIC: [u8; 4] = *b"FVM\x01";
const VERSION: u16 = 1;

/// One function: named, fixed arity, fixed local count, flat bytecode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Function {
    /// Export name (unique within the module).
    pub name: String,
    /// Number of arguments (become locals `0..n_args`).
    pub n_args: u8,
    /// Number of additional zero-initialized locals.
    pub n_locals: u8,
    /// Encoded instruction stream.
    pub code: Vec<u8>,
}

/// A data segment copied into linear memory at instantiation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DataSegment {
    /// Destination offset in linear memory.
    pub offset: u32,
    /// Bytes to place there.
    pub bytes: Vec<u8>,
}

/// A decoded, unverified FVM module.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Module {
    /// Linear memory size in pages.
    pub mem_pages: u16,
    /// Function table; `Call` indices refer into this.
    pub functions: Vec<Function>,
    /// Initial data segments.
    pub data: Vec<DataSegment>,
}

impl Module {
    /// Looks up a function index by export name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// Linear memory size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.mem_pages as usize * PAGE_SIZE
    }

    /// Serializes to the container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(64 + self.functions.iter().map(|f| f.code.len()).sum::<usize>());
        out.put(&MAGIC);
        out.u16(VERSION);
        out.u16(self.mem_pages);
        out.u16(self.functions.len() as u16);
        for f in &self.functions {
            out.u8(f.name.len() as u8);
            out.put(f.name.as_bytes());
            out.u8(f.n_args);
            out.u8(f.n_locals);
            out.u32(f.code.len() as u32);
            out.put(&f.code);
        }
        out.u16(self.data.len() as u16);
        for seg in &self.data {
            out.u32(seg.offset);
            out.u32(seg.bytes.len() as u32);
            out.put(&seg.bytes);
        }
        out
    }

    /// Parses a container. Structural checks only; run
    /// [`verify`](crate::verify::verify_module) before execution.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    pub fn from_bytes(bytes: &[u8]) -> Result<Module, ModuleError> {
        let mut r = Cursor::new(bytes);
        if r.array()? != MAGIC {
            return Err(ModuleError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(ModuleError::BadVersion(version));
        }
        let mem_pages = r.u16()?;
        if mem_pages > MAX_MEM_PAGES {
            return Err(ModuleError::LimitExceeded("memory pages"));
        }
        let n_funcs = r.u16()? as usize;
        if n_funcs > MAX_FUNCS {
            return Err(ModuleError::LimitExceeded("functions"));
        }
        let mut functions = Vec::with_capacity(r.count(n_funcs, 7).unwrap_or(0));
        let mut names = std::collections::HashSet::new();
        for _ in 0..n_funcs {
            let name_len = r.u8()? as usize;
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| ModuleError::Truncated)?;
            if !names.insert(name.clone()) {
                return Err(ModuleError::DuplicateFunction(name));
            }
            let n_args = r.u8()?;
            let n_locals = r.u8()?;
            let code_len = r.u32()? as usize;
            let code = r.take(code_len)?.to_vec();
            functions.push(Function { name, n_args, n_locals, code });
        }
        let n_data = r.u16()? as usize;
        if n_data > MAX_DATA_SEGMENTS {
            return Err(ModuleError::LimitExceeded("data segments"));
        }
        let mem_bytes = mem_pages as u64 * PAGE_SIZE as u64;
        let mut data = Vec::with_capacity(r.count(n_data, 8).unwrap_or(0));
        for _ in 0..n_data {
            let offset = r.u32()?;
            let len = r.u32()?;
            if offset as u64 + len as u64 > mem_bytes {
                return Err(ModuleError::DataOutOfRange { offset, len });
            }
            let bytes = r.take(len as usize)?.to_vec();
            data.push(DataSegment { offset, bytes });
        }
        Ok(Module { mem_pages, functions, data })
    }

    /// SHA-1 digest of the serialized container — the integrity value
    /// carried in `PADMeta`.
    pub fn digest(&self) -> Digest {
        sha1(&self.to_bytes())
    }

    /// Runs the full admission pipeline (structural verification, then
    /// abstract interpretation under `policy`) and returns the analyzed
    /// bundle ready for [`Machine::new_analyzed`](crate::machine::Machine).
    pub fn analyzed(
        self,
        policy: &crate::sandbox::SandboxPolicy,
    ) -> Result<crate::analysis::AnalyzedModule, crate::error::VerifyError> {
        crate::analysis::AnalyzedModule::analyze(self, policy)
    }
}

/// A module container with its detached code signature — the unit stored on
/// CDN edge servers and downloaded by clients (`PAD_DOWNLOAD_REP` payload).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedModule {
    /// Serialized module container.
    pub bytes: Vec<u8>,
    /// Detached signature over `bytes`.
    pub signature: Signature,
}

impl SignedModule {
    /// Signs a module.
    pub fn sign(module: &Module, signer: &Signer) -> SignedModule {
        let bytes = module.to_bytes();
        let signature = signer.sign(&bytes);
        SignedModule { bytes, signature }
    }

    /// SHA-1 digest of the module bytes (what `PADMeta` advertises).
    pub fn digest(&self) -> Digest {
        sha1(&self.bytes)
    }

    /// Total wire size (signature + module), counted instead of written.
    pub fn wire_len(&self) -> usize {
        counted(|c| self.encode(c))
    }

    /// Serializes: signature first (fixed size), then the module bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode(&mut out);
        out
    }

    fn encode(&self, out: &mut impl Sink) {
        out.put(&self.signature.to_wire());
        out.put(&self.bytes);
    }

    /// Parses the wire form.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    pub fn from_wire(wire: &[u8]) -> Result<SignedModule, ModuleError> {
        let mut c = Cursor::new(wire);
        let signature =
            Signature::from_wire(c.take(Signature::WIRE_LEN)?).ok_or(ModuleError::Truncated)?;
        Ok(SignedModule { bytes: c.remaining().to_vec(), signature })
    }

    /// Full client-side acceptance check (paper §3.5): the digest must match
    /// what the adaptation proxy advertised in `PADMeta`, and the signature
    /// must verify against the client's trust store. Returns the decoded
    /// module on success.
    pub fn open(
        &self,
        expected_digest: &Digest,
        trust: &TrustStore,
    ) -> Result<Module, ModuleError> {
        if &self.digest() != expected_digest {
            return Err(ModuleError::DigestMismatch);
        }
        trust.verify(&self.bytes, &self.signature)?;
        Module::from_bytes(&self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Op;
    use fractal_crypto::sign::SignerRegistry;

    fn sample_module() -> Module {
        let mut code = Vec::new();
        Op::PushI32(7).encode(&mut code);
        Op::Ret.encode(&mut code);
        Module {
            mem_pages: 2,
            functions: vec![
                Function { name: "main".into(), n_args: 0, n_locals: 1, code: code.clone() },
                Function { name: "helper".into(), n_args: 2, n_locals: 0, code },
            ],
            data: vec![DataSegment { offset: 16, bytes: vec![1, 2, 3, 4] }],
        }
    }

    #[test]
    fn serialization_round_trip() {
        let m = sample_module();
        let bytes = m.to_bytes();
        let back = Module::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn digest_changes_with_content() {
        let m = sample_module();
        let mut m2 = m.clone();
        m2.functions[0].code.push(0x01); // extra Nop
        assert_ne!(m.digest(), m2.digest());
    }

    #[test]
    fn find_by_name() {
        let m = sample_module();
        assert_eq!(m.find("main"), Some(0));
        assert_eq!(m.find("helper"), Some(1));
        assert_eq!(m.find("missing"), None);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample_module().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Module::from_bytes(&bytes), Err(ModuleError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = sample_module().to_bytes();
        bytes[4] = 99;
        assert_eq!(Module::from_bytes(&bytes), Err(ModuleError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample_module().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Module::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn rejects_data_outside_memory() {
        let mut m = sample_module();
        m.data[0].offset = (m.memory_bytes() - 2) as u32; // 4 bytes won't fit
        let bytes = m.to_bytes();
        assert!(matches!(Module::from_bytes(&bytes), Err(ModuleError::DataOutOfRange { .. })));
    }

    #[test]
    fn rejects_duplicate_function_names() {
        let mut m = sample_module();
        m.functions[1].name = "main".into();
        let bytes = m.to_bytes();
        assert!(matches!(Module::from_bytes(&bytes), Err(ModuleError::DuplicateFunction(_))));
    }

    #[test]
    fn rejects_oversized_memory() {
        let mut m = sample_module();
        m.mem_pages = MAX_MEM_PAGES; // ok
        m.data.clear();
        assert!(Module::from_bytes(&m.to_bytes()).is_ok());
        // Force an over-limit page count directly in the bytes.
        let mut bytes = m.to_bytes();
        let too_many = (MAX_MEM_PAGES + 1).to_le_bytes();
        bytes[6] = too_many[0];
        bytes[7] = too_many[1];
        assert_eq!(Module::from_bytes(&bytes), Err(ModuleError::LimitExceeded("memory pages")));
    }

    #[test]
    fn signed_module_round_trip_and_open() {
        let mut reg = SignerRegistry::new();
        let signer = reg.provision("app-server");
        let mut trust = TrustStore::new();
        reg.export_trust(&mut trust);

        let m = sample_module();
        let signed = SignedModule::sign(&m, &signer);
        let wire = signed.to_wire();
        let back = SignedModule::from_wire(&wire).unwrap();
        assert_eq!(back, signed);

        let opened = back.open(&signed.digest(), &trust).unwrap();
        assert_eq!(opened, m);
    }

    #[test]
    fn open_rejects_tampered_bytes() {
        let mut reg = SignerRegistry::new();
        let signer = reg.provision("app-server");
        let mut trust = TrustStore::new();
        reg.export_trust(&mut trust);

        let m = sample_module();
        let expected = SignedModule::sign(&m, &signer).digest();
        let mut signed = SignedModule::sign(&m, &signer);
        // Flip a code byte after signing.
        let idx = signed.bytes.len() - 3;
        signed.bytes[idx] ^= 0xFF;
        // Digest check fires first.
        assert_eq!(signed.open(&expected, &trust), Err(ModuleError::DigestMismatch));
        // Even with the "right" digest for the tampered bytes, the signature
        // check fires.
        let tampered_digest = signed.digest();
        assert!(matches!(signed.open(&tampered_digest, &trust), Err(ModuleError::Signature(_))));
    }

    #[test]
    fn open_rejects_untrusted_signer() {
        let mut rogue_reg = SignerRegistry::new();
        let rogue = rogue_reg.provision("rogue");
        let trust = TrustStore::new(); // trusts nobody
        let m = sample_module();
        let signed = SignedModule::sign(&m, &rogue);
        assert!(matches!(signed.open(&signed.digest(), &trust), Err(ModuleError::Signature(_))));
    }

    #[test]
    fn empty_module_round_trips() {
        let m = Module { mem_pages: 0, functions: vec![], data: vec![] };
        assert_eq!(Module::from_bytes(&m.to_bytes()).unwrap(), m);
    }
}
