//! Security integration: the §3.5 mobile-code acceptance gauntlet under
//! attack — tampering, untrusted signers, malformed modules, hostile
//! bytecode, and sandbox escapes.

use fractal::core::client::FractalClient;
use fractal::core::meta::{PadId, PadMeta};
use fractal::core::presets::{pad_id, pad_overhead, ClientClass};
use fractal::core::server::AdaptiveContentMode;
use fractal::core::testbed::Testbed;
use fractal::core::FractalError;
use fractal::crypto::sign::{Signer, SignerRegistry};
use fractal::pads::artifact::build_pad;
use fractal::protocols::ProtocolId;
use fractal::vm::{assemble, Machine, SandboxPolicy, SignedModule, Trap, VerifyError};

fn meta_for(artifact: &fractal::pads::PadArtifact, id: PadId) -> PadMeta {
    PadMeta {
        id,
        protocol: artifact.protocol,
        size: artifact.wire_len() as u32,
        overhead: pad_overhead(artifact.protocol),
        digest: artifact.digest(),
        url: "cdn://pads/x".into(),
        parent: None,
        children: vec![],
    }
}

/// `PadMeta` for a hand-signed module, advertised honestly.
fn meta_for_signed(signed: &SignedModule, id: PadId) -> PadMeta {
    PadMeta {
        id,
        protocol: ProtocolId::Direct,
        size: signed.wire_len() as u32,
        overhead: pad_overhead(ProtocolId::Direct),
        digest: signed.digest(),
        url: String::new(),
        parent: None,
        children: vec![],
    }
}

#[test]
fn bit_flips_anywhere_in_the_artifact_are_rejected() {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let artifact = build_pad(ProtocolId::Gzip, &tb.signer);
    let meta = meta_for(&artifact, pad_id(ProtocolId::Gzip));
    let wire = artifact.signed.to_wire();

    // Flip one bit at a spread of positions including the signature,
    // header, code, and tail.
    let positions: Vec<usize> = (0..wire.len()).step_by((wire.len() / 23).max(1)).collect();
    for pos in positions {
        let mut client = tb.client(ClientClass::LaptopWlan);
        let mut tampered = wire.clone();
        tampered[pos] ^= 0x01;
        let err = client.deploy_pad(&meta, &tampered).unwrap_err();
        assert!(matches!(err, FractalError::PadRejected(_)), "flip at {pos} produced {err:?}");
        assert!(!client.is_deployed(meta.id));
    }
}

#[test]
fn valid_module_signed_by_stranger_is_rejected() {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    // A perfectly well-formed PAD signed by an unknown key.
    let mut rogue_reg = SignerRegistry::new();
    let rogue = rogue_reg.provision("evil-operator");
    let artifact = build_pad(ProtocolId::Gzip, &rogue);
    let meta = meta_for(&artifact, pad_id(ProtocolId::Gzip));
    let mut client = tb.client(ClientClass::LaptopWlan);
    let err = client.deploy_pad(&meta, &artifact.signed.to_wire()).unwrap_err();
    assert!(matches!(err, FractalError::PadRejected(_)));
}

#[test]
fn signed_but_malformed_bytecode_is_rejected_by_verifier() {
    // The operator's key signs garbage bytecode: signature passes, static
    // verification must still refuse it.
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let mut module = assemble(".memory 1\n.func decode args=6 locals=0\n ret\n").unwrap();
    // Corrupt the code *before* signing: a wild jump.
    module.functions[0].code = vec![0x03, 0xFF, 0x00, 0x00, 0x00]; // Jmp +255
    let signed = SignedModule::sign(&module, &tb.signer);
    let meta = meta_for_signed(&signed, PadId(77));
    let mut client = tb.client(ClientClass::DesktopLan);
    let err = client.deploy_pad(&meta, &signed.to_wire()).unwrap_err();
    assert!(matches!(err, FractalError::PadUnverifiable(_)), "{err:?}");
}

#[test]
fn hostile_infinite_loop_is_stopped_by_fuel() {
    let src = ".memory 1\n.func spin args=0 locals=0\nhot:\n jmp hot\n";
    let module = assemble(src).unwrap();
    let mut m = Machine::new(module, SandboxPolicy::for_pads().with_fuel(100_000)).unwrap();
    assert_eq!(m.call("spin", &[]), Err(Trap::FuelExhausted));
}

#[test]
fn hostile_memory_scan_is_stopped_by_bounds() {
    // Code that walks past the end of linear memory.
    let src = r#"
        .memory 1
        .func scan args=0 locals=1
        loop:
            local.get 0
            load8
            drop
            local.get 0
            push 1
            add
            local.set 0
            jmp loop
    "#;
    let module = assemble(src).unwrap();
    let mut m = Machine::new(module, SandboxPolicy::for_pads()).unwrap();
    assert!(matches!(m.call("scan", &[]), Err(Trap::OutOfBounds { .. })));
}

#[test]
fn sandbox_policy_denies_unneeded_intrinsics() {
    // Deploy the direct PAD under a policy that denies sha1; direct never
    // calls it, so it must still work — capability minimization.
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let artifact = build_pad(ProtocolId::Direct, &tb.signer);
    let meta = meta_for(&artifact, pad_id(ProtocolId::Direct));
    let mut client = tb.client(ClientClass::DesktopLan);
    client.policy = SandboxPolicy::for_pads().with_hosts(&[]);
    client.deploy_pad(&meta, &artifact.signed.to_wire()).unwrap();

    let payload = {
        use fractal::protocols::DiffCodec;
        fractal::protocols::direct::Direct.encode(&[], b"hello")
    };
    assert_eq!(client.decode_content(meta.id, 1, &payload).unwrap(), b"hello");

    // But the bitmap PAD's digests entry reaches sha1, and the analyzer
    // proves it: the PAD is rejected at deploy time, before any of its
    // code has run.
    let bitmap = build_pad(ProtocolId::Bitmap, &tb.signer);
    let bmeta = meta_for(&bitmap, pad_id(ProtocolId::Bitmap));
    let err = client.deploy_pad(&bmeta, &bitmap.signed.to_wire()).unwrap_err();
    assert!(
        matches!(err, FractalError::PadUnverifiable(VerifyError::CapabilityViolation { .. })),
        "{err:?}"
    );
    assert!(!client.is_deployed(bmeta.id));
}

#[test]
fn revoking_trust_blocks_future_deployments() {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let artifact = build_pad(ProtocolId::Gzip, &tb.signer);
    let meta = meta_for(&artifact, pad_id(ProtocolId::Gzip));
    let mut client = tb.client(ClientClass::LaptopWlan);
    client.deploy_pad(&meta, &artifact.signed.to_wire()).unwrap();

    // Revoke and try a fresh deployment of another PAD by the same signer.
    let signer_id = artifact.signed.signature.key_id;
    assert!(client.trust.revoke(signer_id));
    let other = build_pad(ProtocolId::Bitmap, &tb.signer);
    let ometa = meta_for(&other, pad_id(ProtocolId::Bitmap));
    assert!(client.deploy_pad(&ometa, &other.signed.to_wire()).is_err());
}

/// Signs `src` with the testbed's trusted key and runs it through the full
/// client acceptance gauntlet, returning the rejection. The signature and
/// digest are *valid* — these modules attack the static analyzer, not the
/// crypto.
fn deploy_hostile(src: &str, tweak: impl FnOnce(&mut FractalClient)) -> FractalError {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let module = assemble(src).unwrap_or_else(|e| panic!("hostile source must assemble: {e}"));
    let signed = SignedModule::sign(&module, &tb.signer);
    let meta = meta_for_signed(&signed, PadId(99));
    let mut client = tb.client(ClientClass::DesktopLan);
    tweak(&mut client);
    let err = client.deploy_pad(&meta, &signed.to_wire()).unwrap_err();
    assert!(!client.is_deployed(meta.id));
    assert_eq!(client.stats().pads_rejected, 1);
    err
}

#[test]
fn stack_underflow_is_rejected_statically() {
    // Structurally valid (decodes, terminates) but pops an empty stack.
    let err = deploy_hostile(".memory 1\n.func decode args=0 locals=0\n drop\n ret\n", |_| {});
    assert!(
        matches!(err, FractalError::PadUnverifiable(VerifyError::StackUnderflow { .. })),
        "{err:?}"
    );
}

#[test]
fn push_loop_stack_bomb_is_rejected_statically() {
    // Each iteration leaks one value onto the operand stack; the runtime
    // would only notice at the stack limit, the analyzer notices at the
    // loop head (heights 0 and 1 merge).
    let err = deploy_hostile(
        ".memory 1\n.func decode args=0 locals=0\nhot:\n push 1\n jmp hot\n",
        |_| {},
    );
    assert!(
        matches!(err, FractalError::PadUnverifiable(VerifyError::HeightMismatch { .. })),
        "{err:?}"
    );
}

#[test]
fn stack_height_beyond_policy_is_rejected_statically() {
    // Straight-line code whose peak height exceeds the client's sandbox
    // stack bound — no loop needed, the dataflow maximum is enough.
    let mut src = String::from(".memory 1\n.func decode args=0 locals=0\n");
    for _ in 0..5 {
        src.push_str(" push 1\n");
    }
    src.push_str(" ret\n");
    let err = deploy_hostile(&src, |client| client.policy.max_stack = 4);
    assert!(
        matches!(err, FractalError::PadUnverifiable(VerifyError::StackLimit { .. })),
        "{err:?}"
    );
}

#[test]
fn never_completing_pad_is_rejected_as_infeasible() {
    // Every path loops forever: the proven minimum fuel is infinite, so no
    // budget can admit it — rejected before instantiation rather than
    // discovered by fuel exhaustion on the first decode.
    let err = deploy_hostile(".memory 1\n.func decode args=0 locals=0\nhot:\n jmp hot\n", |_| {});
    assert!(matches!(err, FractalError::PadInfeasible { .. }), "{err:?}");
}

mod analyzer_soundness {
    //! Property: whatever the analyzer admits never trips an operand-stack
    //! trap at run time, and the fast path agrees with the checked
    //! interpreter on both result and fuel.

    use fractal::vm::{Function, Machine, Module, Op, SandboxPolicy, Trap};
    use proptest::prelude::*;

    /// Maps two random bytes to an instruction from a pool weighted toward
    /// pushes so a useful fraction of sequences pass the analyzer.
    fn op_from(sel: u8, imm: i8) -> Op {
        match sel % 24 {
            0..=7 => Op::PushI8(imm),
            8 => Op::Drop,
            9 => Op::Dup,
            10 => Op::Swap,
            11 => Op::Add,
            12 => Op::Sub,
            13 => Op::Mul,
            14 => Op::And,
            15 => Op::Or,
            16 => Op::Xor,
            17 => Op::Eqz,
            18 => Op::Nop,
            19 => Op::LocalGet(imm as u8 % 3),
            20 => Op::LocalSet(imm as u8 % 3),
            21 => Op::LocalTee(imm as u8 % 3),
            22 => Op::MemSize,
            _ => Op::Load8,
        }
    }

    proptest! {
        #[test]
        fn admitted_modules_never_stack_trap(
            raw in proptest::collection::vec((0u8..=255u8, -128i8..=127i8), 0..40)
        ) {
            let mut code = Vec::new();
            for (sel, imm) in raw {
                op_from(sel, imm).encode(&mut code);
            }
            Op::Ret.encode(&mut code);
            let module = Module {
                mem_pages: 1,
                functions: vec![Function {
                    name: "f".into(),
                    n_args: 0,
                    n_locals: 3,
                    code,
                }],
                data: vec![],
            };
            let policy = SandboxPolicy::for_pads().with_fuel(100_000);
            // Rejected modules are outside the property; admitted ones must
            // uphold it.
            if let Ok(analyzed) = module.clone().analyzed(&policy) {
                let min_fuel = analyzed.analysis.functions[0].min_fuel;
                let mut fast = Machine::new_analyzed(analyzed).unwrap();
                let fast_res = fast.call("f", &[]);
                let mut checked = Machine::new(module, policy).unwrap();
                let checked_res = checked.call("f", &[]);
                prop_assert_eq!(&fast_res, &checked_res);
                prop_assert_eq!(fast.fuel_used(), checked.fuel_used());
                prop_assert!(
                    !matches!(
                        fast_res,
                        Err(Trap::StackUnderflow | Trap::StackOverflow | Trap::Wedged)
                    ),
                    "stack discipline violated at run time: {:?}",
                    fast_res
                );
                if fast_res.is_ok() {
                    prop_assert!(fast.fuel_used() >= min_fuel, "min_fuel was not a lower bound");
                }
            }
        }
    }
}

mod warm_admission_cache {
    //! The admission cache shares *proofs*; it must not share *trust*.
    //! Every attack here is mounted on a testbed whose cache already holds
    //! the genuine PAD — the state in which a shortcut would pay.

    use std::sync::Arc;

    use super::*;
    use fractal::pads::artifact::open_unchecked;
    use fractal::pads::{PadArtifact, PadRuntime};
    use fractal::protocols::DiffCodec;
    use fractal::vm::{HostId, ModuleError};

    /// A testbed on which a trusting client has deployed the genuine
    /// `protocol` PAD, so its proof is cached under the default policy.
    fn warmed(protocol: ProtocolId) -> (Testbed, PadArtifact, PadMeta, Vec<u8>) {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        let artifact = build_pad(protocol, &tb.signer);
        let meta = meta_for(&artifact, pad_id(protocol));
        let wire = artifact.signed.to_wire();
        let mut first = tb.client(ClientClass::LaptopWlan);
        first.deploy_pad(&meta, &wire).unwrap();
        assert_eq!((first.stats().admission_misses, first.stats().admission_hits), (1, 0));
        assert_eq!(tb.admission.len(), 1);
        (tb, artifact, meta, wire)
    }

    #[test]
    fn a_second_trusting_client_hits_and_still_decodes() {
        let (tb, _, meta, wire) = warmed(ProtocolId::Gzip);
        let mut client = tb.client(ClientClass::PdaBluetooth);
        client.deploy_pad(&meta, &wire).unwrap();
        assert_eq!((client.stats().admission_misses, client.stats().admission_hits), (0, 1));
        assert_eq!(tb.admission.len(), 1);
        let page = b"the same proof, a sandbox of its own ".repeat(40);
        let payload = fractal::protocols::gzip::Gzip.encode(&[], &page);
        assert_eq!(client.decode_content(meta.id, 1, &payload).unwrap(), page);
    }

    #[test]
    fn untrusting_client_is_refused_before_the_cache_is_consulted() {
        let (tb, _, meta, wire) = warmed(ProtocolId::Gzip);
        let mut client = tb.untrusting_client(ClientClass::LaptopWlan);
        let err = client.deploy_pad(&meta, &wire).unwrap_err();
        assert!(matches!(err, FractalError::PadRejected(ModuleError::Signature(_))), "{err:?}");
        assert!(!client.is_deployed(meta.id));
        let stats = client.stats();
        assert_eq!(stats.pads_rejected, 1);
        assert_eq!((stats.admission_hits, stats.admission_misses), (0, 0));
    }

    #[test]
    fn one_flipped_byte_is_refused_and_leaves_the_cache_alone() {
        let (tb, _, meta, wire) = warmed(ProtocolId::Gzip);
        for pos in [0, 10, 30, wire.len() / 2, wire.len() - 1] {
            let mut tampered = wire.clone();
            tampered[pos] ^= 0x40;
            let mut client = tb.client(ClientClass::LaptopWlan);
            let err = client.deploy_pad(&meta, &tampered).unwrap_err();
            assert!(matches!(err, FractalError::PadRejected(_)), "flip at {pos}: {err:?}");
            assert_eq!(client.stats().admission_hits, 0, "flip at {pos} reached the cache");
            assert_eq!(tb.admission.len(), 1, "flip at {pos} changed the cache");
        }
    }

    #[test]
    fn wrong_advertised_digest_is_a_mismatch_even_for_cached_bytes() {
        let (tb, _, mut meta, wire) = warmed(ProtocolId::Gzip);
        meta.digest = fractal::crypto::sha1::sha1(b"what the proxy never advertised");
        let mut client = tb.client(ClientClass::LaptopWlan);
        let err = client.deploy_pad(&meta, &wire).unwrap_err();
        assert_eq!(err, FractalError::PadRejected(ModuleError::DigestMismatch));
        assert_eq!(client.stats().admission_hits, 0);
    }

    #[test]
    fn a_proof_under_the_default_policy_does_not_admit_under_a_tighter_one() {
        let (tb, _, meta, wire) = warmed(ProtocolId::Bitmap);
        let mut client = tb.client(ClientClass::PdaBluetooth);
        client.policy = SandboxPolicy::for_pads().with_hosts(&[HostId::Abort, HostId::Log]);
        let err = client.deploy_pad(&meta, &wire).unwrap_err();
        assert!(
            matches!(err, FractalError::PadUnverifiable(VerifyError::CapabilityViolation { .. })),
            "{err:?}"
        );
        assert!(!client.is_deployed(meta.id));
        assert_eq!(client.stats().admission_hits, 0, "policy must be part of the key");
        assert_eq!(tb.admission.len(), 1, "a refusal is never cached");
    }

    #[test]
    fn fuel_feasibility_is_judged_per_client() {
        let (tb, _, meta, wire) = warmed(ProtocolId::Gzip);
        let mut client = tb.client(ClientClass::LaptopWlan);
        client.policy = SandboxPolicy::for_pads().with_fuel(3);
        let err = client.deploy_pad(&meta, &wire).unwrap_err();
        assert!(matches!(err, FractalError::PadInfeasible { budget: 3, .. }), "{err:?}");
        assert!(!client.is_deployed(meta.id));
        assert_eq!(client.stats().pads_rejected, 1);
    }

    #[test]
    fn a_module_the_verifier_refuses_is_never_cached() {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        let mut module = assemble(".memory 1\n.func decode args=6 locals=0\n ret\n").unwrap();
        module.functions[0].code = vec![0x03, 0xFF, 0x00, 0x00, 0x00]; // Jmp +255
        let signed = SignedModule::sign(&module, &tb.signer);
        let meta = meta_for_signed(&signed, PadId(77));
        // The same client twice, then a fresh one: every offer is
        // re-examined and re-refused.
        let mut client = tb.client(ClientClass::DesktopLan);
        for attempt in 1..=2 {
            let err = client.deploy_pad(&meta, &signed.to_wire()).unwrap_err();
            assert!(matches!(err, FractalError::PadUnverifiable(_)), "{err:?}");
            assert_eq!(client.stats().pads_rejected, attempt);
            assert!(tb.admission.is_empty());
        }
        assert!(tb.client(ClientClass::LaptopWlan).deploy_pad(&meta, &signed.to_wire()).is_err());
        assert!(tb.admission.is_empty());
    }

    #[test]
    fn instances_of_one_admitted_pad_do_not_share_linear_memory() {
        let (tb, artifact, ..) = warmed(ProtocolId::Gzip);
        let policy = SandboxPolicy::for_pads();
        let shared = Arc::new(open_unchecked(&artifact).analyzed(&policy).unwrap());
        let mut a = PadRuntime::from_analyzed(Arc::clone(&shared)).unwrap();
        let mut b = PadRuntime::from_analyzed(Arc::clone(&shared)).unwrap();
        drop(tb);

        let pages: Vec<Vec<u8>> = (1..=4u8)
            .map(|k| format!("page {k}: {}", "adaptation ".repeat(50 * k as usize)).into_bytes())
            .collect();
        let payloads: Vec<_> =
            pages.iter().map(|p| fractal::protocols::gzip::Gzip.encode(&[], p)).collect();

        // Interleave: a and b always hold different payloads in memory.
        for i in 0..pages.len() {
            let j = (i + 1) % pages.len();
            assert_eq!(a.decode(&[], &payloads[i]).unwrap(), pages[i]);
            assert_eq!(b.decode(&[], &payloads[j]).unwrap(), pages[j]);
        }
        // Each spent exactly what a private instance spends on the same work.
        let mut fresh_a = PadRuntime::new(open_unchecked(&artifact), policy.clone()).unwrap();
        let mut fresh_b = PadRuntime::new(open_unchecked(&artifact), policy).unwrap();
        for i in 0..pages.len() {
            fresh_a.decode(&[], &payloads[i]).unwrap();
            fresh_b.decode(&[], &payloads[(i + 1) % pages.len()]).unwrap();
        }
        assert_eq!(a.fuel_used(), fresh_a.fuel_used());
        assert_eq!(b.fuel_used(), fresh_b.fuel_used());
    }

    #[test]
    fn more_signed_modules_than_slots_never_overfill_the_cache() {
        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        let slots = tb.admission.capacity();
        let mut client = tb.client(ClientClass::DesktopLan);
        for k in 0..slots as u64 + 8 {
            let src = format!(".memory 1\n.func decode args=6 locals=0\n push {k}\n ret\n");
            let signed = SignedModule::sign(&assemble(&src).unwrap(), &tb.signer);
            let meta = meta_for_signed(&signed, PadId(1000 + k));
            client.deploy_pad(&meta, &signed.to_wire()).unwrap();
            assert!(tb.admission.len() <= slots, "{} slots after {k} modules", tb.admission.len());
        }
        assert_eq!(tb.admission.len(), slots);
        assert_eq!(client.stats().admission_misses, slots as u64 + 8);
        // Evicted modules stay deployed: a running instance owns its Arc.
        assert!(client.is_deployed(PadId(1000)));
    }
}

/// A PAD that lets its caller look at what its sandbox held on arrival:
/// `decode` answers with the 32 KB window at 0x10000 as it finds it, then
/// stashes the payload there. Everything it touches lies in the lower half of
/// its memory: an instance dirtied further than that is freed, not recycled.
const PROBE_PAD: &str = r#"
    .memory 4
    .func decode args=6 locals=0
        local.get 4
        push 0x10000
        push 0x8000
        memcopy
        push 0x10000
        local.get 2
        local.get 3
        memcopy
        push 0x8000
        ret
"#;

#[test]
fn a_recycled_sandbox_holds_none_of_the_previous_clients_bytes() {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let signed = SignedModule::sign(&assemble(PROBE_PAD).unwrap(), &tb.signer);
    let meta = meta_for_signed(&signed, PadId(4242));
    let wire = signed.to_wire();
    let secret = b"client A's page: account 12345, balance 67890. ".repeat(100);

    let mut a = tb.client(ClientClass::LaptopWlan);
    a.deploy_pad(&meta, &wire).unwrap();
    assert_eq!(a.stats().instances_recycled, 0);
    let found = a.decode_content(meta.id, 1, &secret).unwrap();
    assert!(found.iter().all(|&b| b == 0), "a first sandbox starts zeroed");
    // The probe does see bytes that are there: A's second call finds its own.
    let found = a.decode_content(meta.id, 1, &[]).unwrap();
    assert_eq!(&found[..secret.len()], &secret[..]);
    drop(a);

    let mut b = tb.client(ClientClass::PdaBluetooth);
    b.deploy_pad(&meta, &wire).unwrap();
    assert_eq!(b.stats().instances_recycled, 1, "B runs in the sandbox A was dropped from");
    let found = b.decode_content(meta.id, 1, &[]).unwrap();
    assert_eq!(found.len(), 0x8000);
    assert!(found.iter().all(|&b| b == 0), "B read bytes A left behind");
}

#[test]
fn a_module_declaring_more_memory_than_the_policy_grants_is_refused_at_admission() {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    // 32 MiB: legal on the wire (the container allows 64), twice the policy.
    let module = assemble(".memory 512\n.func decode args=6 locals=0\n push 0\n ret\n").unwrap();
    let signed = SignedModule::sign(&module, &tb.signer);
    let meta = meta_for_signed(&signed, PadId(4243));
    let mut client = tb.client(ClientClass::DesktopLan);
    let limit = client.policy.max_memory;
    for attempt in 1..=2 {
        let err = client.deploy_pad(&meta, &signed.to_wire()).unwrap_err();
        let refusal = VerifyError::MemoryLimit { declared: 512 * 65536, limit };
        assert_eq!(err, FractalError::PadUnverifiable(refusal));
        assert!(!client.is_deployed(meta.id));
        assert_eq!(client.stats().pads_rejected, attempt);
        assert_eq!(client.stats().admission_misses, 0);
        assert!(tb.admission.is_empty(), "an over-limit module is never stored");
    }
    // The reference path, which admits nothing, still traps at instantiation.
    let err = Machine::new(module, SandboxPolicy::for_pads()).unwrap_err();
    assert_eq!(err, Trap::OutOfBounds { addr: 512 * 65536, len: 0 });
}

#[test]
fn a_recursive_pad_whose_stack_bound_exceeds_the_policy_is_refused_at_admission() {
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    // Each frame holds 20 operands across its recursive call and is 26 tall
    // with the six arguments on top: no frame is too tall, but 64 of them
    // (`max_call_depth`) may need 1664 slots of the policy's 1024. The fast
    // path counts no slots, so the module may not reach it.
    let src = format!(
        ".memory 1\n.func decode args=6 locals=0\n local.get 0\n jmpifz base\n{} local.get 0\n \
         push 1\n sub\n dup\n dup\n dup\n dup\n dup\n call decode\n{} ret\nbase:\n push 0\n ret\n",
        " push 1\n".repeat(20),
        " add\n".repeat(20),
    );
    let module = assemble(&src).unwrap();
    let signed = SignedModule::sign(&module, &tb.signer);
    let meta = meta_for_signed(&signed, PadId(4244));
    let mut client = tb.client(ClientClass::DesktopLan);
    let (bound, limit) = (client.policy.max_call_depth * 26, client.policy.max_stack);
    let err = client.deploy_pad(&meta, &signed.to_wire()).unwrap_err();
    assert_eq!(err, FractalError::PadUnverifiable(VerifyError::StackBound { bound, limit }));
    assert!(!client.is_deployed(meta.id));
    assert_eq!(client.stats().pads_rejected, 1);
    assert!(tb.admission.is_empty(), "a module over its stack bound is never stored");
    // The reference loop, which counts every slot, runs it and overflows 52
    // frames down.
    let mut checked = Machine::new(module, client.policy.clone()).unwrap();
    assert_eq!(checked.call("decode", &[10, 0, 0, 0, 0, 0]), Ok(200));
    assert_eq!(checked.call("decode", &[63, 0, 0, 0, 0, 0]), Err(Trap::StackOverflow));
}

#[test]
fn signer_provisioning_is_isolated_between_operators() {
    let mut reg = SignerRegistry::new();
    let a: Signer = reg.provision("operator-a");
    let b: Signer = reg.provision("operator-b");
    let artifact_a = build_pad(ProtocolId::Direct, &a);
    let artifact_b = build_pad(ProtocolId::Direct, &b);
    // Same module bytes, different signatures.
    assert_eq!(artifact_a.signed.bytes, artifact_b.signed.bytes);
    assert_ne!(artifact_a.signed.signature, artifact_b.signed.signature);
}
