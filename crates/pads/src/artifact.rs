//! Building signed PAD artifacts from their FVM assembly sources.

use fractal_crypto::sign::Signer;
use fractal_crypto::Digest;
use fractal_protocols::ProtocolId;
use fractal_vm::{
    analyze_module, assemble, verify::verify_module, AnalysisClaims, HostId, Module, SandboxPolicy,
    SignedModule,
};

/// FVM assembly source for the direct-sending PAD.
pub const DIRECT_FASM: &str = include_str!("../fasm/direct.fasm");
/// FVM assembly source for the Gzip (LZ77) PAD.
pub const GZIP_FASM: &str = include_str!("../fasm/gzip.fasm");
/// FVM assembly source for the Bitmap PAD.
pub const BITMAP_FASM: &str = include_str!("../fasm/bitmap.fasm");
/// FVM assembly source for the recipe decoder (vary-sized blocking).
pub const RECIPE_FASM: &str = include_str!("../fasm/recipe.fasm");
/// FVM assembly source for the rsync signature builder (appended to the
/// recipe decoder for the fixed-sized blocking PAD).
pub const SIGNATURES_FASM: &str = include_str!("../fasm/signatures.fasm");
/// FVM assembly source for the DEFLATE-class (Huffman + LZ77) extension
/// PAD — the entropy-stage upgrade of the Gzip PAD.
pub const DEFLATE_FASM: &str = include_str!("../fasm/deflate.fasm");

/// A built, signed protocol adaptor ready for CDN deployment.
#[derive(Clone, Debug)]
pub struct PadArtifact {
    /// Which protocol the PAD implements.
    pub protocol: ProtocolId,
    /// The signed mobile-code module (what edge servers store and clients
    /// download).
    pub signed: SignedModule,
    /// Entry points the module exports.
    pub entries: Vec<String>,
    /// Static lower bound on the fuel any entry needs to complete, proven
    /// by the abstract interpreter at build time. A client whose sandbox
    /// budget is below this can reject the PAD without downloading it.
    pub min_fuel: u64,
    /// Host intrinsics reachable from any entry — the capabilities the PAD
    /// actually needs, as opposed to the ones it could name. Computed at
    /// build time; not part of the wire format.
    pub required_hosts: Vec<HostId>,
    /// The analyzer's full claims ledger (fuel lower bounds, capability
    /// mask, per-site proven facts and operand intervals). Carried so a
    /// client can run the claims auditor against this exact build; not
    /// part of the wire format.
    pub claims: AnalysisClaims,
}

impl PadArtifact {
    /// SHA-1 digest of the module bytes (advertised in `PADMeta`).
    pub fn digest(&self) -> Digest {
        self.signed.digest()
    }

    /// Wire size of the artifact in bytes (module + signature) — the
    /// `PAD size` field of `PADMeta`.
    pub fn wire_len(&self) -> usize {
        self.signed.wire_len()
    }
}

/// Returns the assembly source for `protocol`.
pub fn source_for(protocol: ProtocolId) -> String {
    match protocol {
        ProtocolId::Direct => DIRECT_FASM.to_string(),
        ProtocolId::Gzip => GZIP_FASM.to_string(),
        ProtocolId::Bitmap => BITMAP_FASM.to_string(),
        ProtocolId::VaryBlock => RECIPE_FASM.to_string(),
        // Fixed-block shares the recipe decoder and adds the upstream
        // signature builder.
        ProtocolId::FixedBlock => format!("{RECIPE_FASM}\n{SIGNATURES_FASM}"),
    }
}

/// Assembles, verifies, and signs the PAD for `protocol`.
///
/// Panics on assembly or verification failure: the sources are part of this
/// crate, so failure is a build bug, not an input condition.
pub fn build_pad(protocol: ProtocolId, signer: &Signer) -> PadArtifact {
    let source = source_for(protocol);
    let module =
        assemble(&source).unwrap_or_else(|e| panic!("PAD {protocol} failed to assemble: {e}"));
    verify_module(&module).unwrap_or_else(|e| panic!("PAD {protocol} failed verification: {e}"));
    let analysis = analyze_module(&module, &SandboxPolicy::for_pads())
        .unwrap_or_else(|e| panic!("PAD {protocol} failed analysis: {e}"));
    let entries = module.functions.iter().map(|f| f.name.clone()).collect();
    PadArtifact {
        protocol,
        signed: SignedModule::sign(&module, signer),
        entries,
        min_fuel: analysis.module_min_fuel,
        required_hosts: analysis.all_hosts(),
        claims: analysis.claims,
    }
}

/// Builds the DEFLATE-class extension PAD (Huffman + LZ77 decoder in
/// mobile code), the upgrade of the Gzip PAD measured by the
/// entropy-stage ablation. Reports itself under the Gzip protocol id.
pub fn build_deflate_pad(signer: &Signer) -> PadArtifact {
    let module =
        assemble(DEFLATE_FASM).unwrap_or_else(|e| panic!("deflate PAD failed to assemble: {e}"));
    verify_module(&module).unwrap_or_else(|e| panic!("deflate PAD failed verification: {e}"));
    let analysis = analyze_module(&module, &SandboxPolicy::for_pads())
        .unwrap_or_else(|e| panic!("deflate PAD failed analysis: {e}"));
    let entries = module.functions.iter().map(|f| f.name.clone()).collect();
    PadArtifact {
        protocol: ProtocolId::Gzip,
        signed: SignedModule::sign(&module, signer),
        entries,
        min_fuel: analysis.module_min_fuel,
        required_hosts: analysis.all_hosts(),
        claims: analysis.claims,
    }
}

/// Decodes the module out of an artifact without any trust checks (used by
/// the server side, which built the artifact itself).
pub fn open_unchecked(artifact: &PadArtifact) -> Module {
    Module::from_bytes(&artifact.signed.bytes).expect("artifact holds a valid module")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_crypto::sign::SignerRegistry;

    fn signer() -> Signer {
        SignerRegistry::new().provision("pad-test")
    }

    #[test]
    fn every_pad_assembles_verifies_and_signs() {
        let s = signer();
        for p in ProtocolId::ALL {
            let a = build_pad(p, &s);
            assert!(a.wire_len() > 24, "{p} artifact too small");
            assert!(a.entries.contains(&"decode".to_string()), "{p} missing decode");
        }
    }

    #[test]
    fn bitmap_exports_digests_entry() {
        let a = build_pad(ProtocolId::Bitmap, &signer());
        assert!(a.entries.contains(&"digests".to_string()));
    }

    #[test]
    fn fixedblock_exports_signatures_entry() {
        let a = build_pad(ProtocolId::FixedBlock, &signer());
        assert!(a.entries.contains(&"signatures".to_string()));
        assert!(a.entries.contains(&"decode".to_string()));
    }

    #[test]
    fn every_pad_carries_finite_static_bounds() {
        let s = signer();
        for p in ProtocolId::ALL {
            let a = build_pad(p, &s);
            assert!(a.min_fuel > 0, "{p} min_fuel must be positive");
            assert!(a.min_fuel < u64::MAX, "{p} must have a completing path");
            assert!(
                a.min_fuel <= SandboxPolicy::for_pads().max_fuel,
                "{p} could never finish under the default budget"
            );
        }
    }

    #[test]
    fn required_hosts_reflect_reachable_intrinsics() {
        let s = signer();
        // The direct PAD just memcopies — no host calls at all.
        assert!(build_pad(ProtocolId::Direct, &s).required_hosts.is_empty());
        // The bitmap PAD hashes blocks with the sha1 intrinsic.
        assert!(build_pad(ProtocolId::Bitmap, &s).required_hosts.contains(&HostId::Sha1));
    }

    #[test]
    fn digests_are_stable_and_distinct() {
        let s = signer();
        let a1 = build_pad(ProtocolId::Gzip, &s);
        let a2 = build_pad(ProtocolId::Gzip, &s);
        assert_eq!(a1.digest(), a2.digest(), "same source same digest");
        let b = build_pad(ProtocolId::Bitmap, &s);
        assert_ne!(a1.digest(), b.digest());
    }

    #[test]
    fn vary_and_fixed_share_decoder_but_differ_as_modules() {
        let s = signer();
        let vary = build_pad(ProtocolId::VaryBlock, &s);
        let fixed = build_pad(ProtocolId::FixedBlock, &s);
        assert_ne!(vary.digest(), fixed.digest());
        let vm = open_unchecked(&vary);
        let fm = open_unchecked(&fixed);
        // Same decode bytecode, extra signatures function in fixed.
        let vd = vm.functions.iter().find(|f| f.name == "decode").unwrap();
        let fd = fm.functions.iter().find(|f| f.name == "decode").unwrap();
        assert_eq!(vd.code, fd.code);
        assert_eq!(vm.functions.len() + 1, fm.functions.len());
    }
}

#[cfg(test)]
mod deflate_tests {
    use super::*;
    use crate::runtime::PadRuntime;
    use fractal_crypto::sign::SignerRegistry;
    use fractal_protocols::deflate::Deflate;
    use fractal_protocols::DiffCodec;
    use fractal_vm::SandboxPolicy;

    fn runtime() -> PadRuntime {
        let signer = SignerRegistry::new().provision("deflate-test");
        let artifact = build_deflate_pad(&signer);
        PadRuntime::new(open_unchecked(&artifact), SandboxPolicy::for_pads()).unwrap()
    }

    fn texty(len: usize) -> Vec<u8> {
        b"adaptation proxies negotiate protocol adaptors for heterogeneous clients. "
            .iter()
            .copied()
            .cycle()
            .take(len)
            .collect()
    }

    #[test]
    fn deflate_pad_assembles_and_verifies() {
        let signer = SignerRegistry::new().provision("deflate-test");
        let artifact = build_deflate_pad(&signer);
        assert!(artifact.entries.contains(&"decode".to_string()));
        assert_eq!(artifact.protocol, ProtocolId::Gzip);
    }

    #[test]
    fn vm_decodes_huffman_lz77_payloads() {
        let mut rt = runtime();
        for content in [texty(50_000), texty(1), Vec::new(), texty(4096)] {
            let payload = Deflate.encode(&[], &content);
            assert_eq!(rt.decode(&[], &payload).unwrap(), content, "len {}", content.len());
        }
    }

    #[test]
    fn vm_decodes_binary_content() {
        let mut rt = runtime();
        let content: Vec<u8> =
            (0..30_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let payload = Deflate.encode(&[], &content);
        assert_eq!(rt.decode(&[], &payload).unwrap(), content);
    }

    /// The deflate PAD keeps its tables at the top of memory and its I/O at
    /// the bottom, so the span it dirties is all 4 MiB whatever it touched
    /// in between: its instance is freed at drop (wiping it would fault in
    /// and pin the untouched middle), where the gzip PAD's is recycled.
    #[test]
    fn a_deflate_instance_is_freed_where_a_gzip_instance_is_recycled() {
        use std::sync::Arc;
        let signer = SignerRegistry::new().provision("deflate-test");
        let redeployed_recycled = |artifact: PadArtifact, payload: &[u8]| {
            let admitted =
                Arc::new(open_unchecked(&artifact).analyzed(&SandboxPolicy::for_pads()).unwrap());
            let mut first = PadRuntime::from_analyzed(Arc::clone(&admitted)).unwrap();
            assert_eq!(first.decode(&[], payload).unwrap(), texty(4096));
            drop(first);
            PadRuntime::from_analyzed(admitted).unwrap().is_recycled()
        };
        let deflated = Deflate.encode(&[], &texty(4096));
        assert!(!redeployed_recycled(build_deflate_pad(&signer), &deflated));
        let gzipped = fractal_protocols::gzip::Gzip.encode(&[], &texty(4096));
        assert!(redeployed_recycled(build_pad(ProtocolId::Gzip, &signer), &gzipped));
    }

    #[test]
    fn vm_rejects_truncated_deflate_payloads() {
        let mut rt = runtime();
        let payload = Deflate.encode(&[], &texty(10_000));
        for cut in [0usize, 4, 100, payload.len() / 2, payload.len() - 1] {
            assert!(rt.decode(&[], &payload[..cut]).is_err(), "cut {cut}");
        }
    }
}
