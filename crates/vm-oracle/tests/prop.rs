//! Property-based tests for the FVM: decoder totality, container fuzzing,
//! verifier soundness on mutated code, and the ISA's arithmetic laws as the
//! reference interpreter implements them (the differential suite holds the
//! machine to it).

use fractal_vm::bytecode::Op;
use fractal_vm::module::{Function, Module};
use fractal_vm::verify::verify_module;
use fractal_vm::{analyze_module, assemble, SandboxPolicy, Trap};
use fractal_vm_oracle::Oracle;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Module::from_bytes is total: arbitrary bytes parse or error, never
    /// panic — the property the download path relies on.
    #[test]
    fn container_parser_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Module::from_bytes(&bytes);
    }

    /// Instruction decoding is total on arbitrary code.
    #[test]
    fn instruction_decoder_is_total(code in proptest::collection::vec(any::<u8>(), 0..256),
                                    pc in any::<usize>()) {
        let _ = Op::decode(&code, pc % (code.len() + 1));
    }

    /// The verifier + interpreter never panic on verified random-ish code:
    /// we build modules out of arbitrary bytes as a single function body;
    /// if the verifier accepts, running must end in Ok or a Trap.
    #[test]
    fn verified_code_runs_to_ok_or_trap(code in proptest::collection::vec(any::<u8>(), 1..128)) {
        let module = Module {
            mem_pages: 1,
            functions: vec![Function { name: "f".into(), n_args: 0, n_locals: 4, code }],
            data: vec![],
        };
        if verify_module(&module).is_ok() {
            let mut m = Oracle::new(&module, SandboxPolicy::strict()).unwrap();
            let _ = m.call("f", &[]);
        }
    }
}

/// One piece of a generated body: now and then a raw byte, otherwise an
/// instruction that calls one of the (up to three) functions or one past
/// them, branches a few bytes either way or to the next instruction, names
/// a host id or a local in range or just out of it, or moves the stack.
fn piece() -> impl Strategy<Value = Vec<u8>> {
    let enc = |op: Op| {
        let mut code = Vec::new();
        op.encode(&mut code);
        code
    };
    let rel = || prop_oneof![Just(0i32), -12i32..12];
    prop_oneof![
        any::<u8>().prop_map(|b| vec![b]),
        (0u16..4).prop_map(move |f| enc(Op::Call(f))),
        rel().prop_map(move |rel| enc(Op::Jmp(rel))),
        rel().prop_map(move |rel| enc(Op::JmpIfZ(rel))),
        (0u8..6).prop_map(move |id| enc(Op::HostCall(id))),
        (0u8..8).prop_map(move |n| enc(Op::LocalGet(n))),
        // Pushes twice as often, so that fewer bodies underflow.
        (-2i8..3).prop_map(move |v| enc(Op::PushI8(v))),
        (-2i8..3).prop_map(move |v| enc(Op::PushI8(v))),
        prop_oneof![Just(Op::Dup), Just(Op::Drop), Just(Op::Add), Just(Op::Ret)].prop_map(enc),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Admission is total on arbitrary modules of one to three functions
    /// that call each other, and refuses whatever the verifier refuses with
    /// the verifier's own error: it decodes with the verifier's decoder.
    #[test]
    fn admission_is_total_and_refuses_what_the_verifier_refuses(
        funcs in proptest::collection::vec(
            (
                proptest::collection::vec(piece(), 0..12),
                0u8..3,
                // One function in four has 252 locals or more, some of them
                // past the 255-slot limit.
                prop_oneof![0u8..4, 0u8..4, 0u8..4, 252u8..=255],
                // Most bodies end in a terminator.
                prop_oneof![Just(Some(Op::Ret)), Just(Some(Op::Halt)), Just(None)],
            ),
            1..4,
        )
    ) {
        let functions = funcs.into_iter().enumerate().map(|(i, (pieces, n_args, n_locals, end))| {
            let mut code = pieces.concat();
            end.iter().for_each(|op| op.encode(&mut code));
            Function { name: format!("f{i}"), n_args, n_locals, code }
        });
        let module = Module { mem_pages: 1, functions: functions.collect(), data: vec![] };
        let policy = SandboxPolicy::default();
        let admitted = analyze_module(&module, &policy);
        if let Err(refused) = verify_module(&module) {
            prop_assert_eq!(admitted.err(), Some(refused));
        }
        // The register form is built from the same decoding.
        let _ = module.analyzed(&policy);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interpreter arithmetic matches Rust semantics for add/sub/mul.
    #[test]
    fn arithmetic_matches_rust(a in any::<i64>(), b in any::<i64>()) {
        let src = r#"
            .memory 1
            .func add args=2 locals=0
                local.get 0
                local.get 1
                add
                ret
            .func sub args=2 locals=0
                local.get 0
                local.get 1
                sub
                ret
            .func mul args=2 locals=0
                local.get 0
                local.get 1
                mul
                ret
        "#;
        let module = assemble(src).unwrap();
        let mut m = Oracle::new(&module, SandboxPolicy::default()).unwrap();
        prop_assert_eq!(m.call("add", &[a, b]).unwrap(), a.wrapping_add(b));
        prop_assert_eq!(m.call("sub", &[a, b]).unwrap(), a.wrapping_sub(b));
        prop_assert_eq!(m.call("mul", &[a, b]).unwrap(), a.wrapping_mul(b));
    }

    /// Unsigned comparisons match Rust semantics.
    #[test]
    fn comparisons_match_rust(a in any::<i64>(), b in any::<i64>()) {
        let src = r#"
            .memory 1
            .func ltu args=2 locals=0
                local.get 0
                local.get 1
                ltu
                ret
            .func geu args=2 locals=0
                local.get 0
                local.get 1
                geu
                ret
        "#;
        let module = assemble(src).unwrap();
        let mut m = Oracle::new(&module, SandboxPolicy::default()).unwrap();
        prop_assert_eq!(m.call("ltu", &[a, b]).unwrap(), ((a as u64) < (b as u64)) as i64);
        prop_assert_eq!(m.call("geu", &[a, b]).unwrap(), ((a as u64) >= (b as u64)) as i64);
    }

    /// Memory store/load round-trips at every width.
    #[test]
    fn memory_round_trip(v in any::<i64>(), addr in 0usize..60_000) {
        let src = r#"
            .memory 1
            .func rt64 args=2 locals=0
                local.get 0
                local.get 1
                store64
                local.get 0
                load64
                ret
            .func rt8 args=2 locals=0
                local.get 0
                local.get 1
                store8
                local.get 0
                load8
                ret
        "#;
        let module = assemble(src).unwrap();
        let mut m = Oracle::new(&module, SandboxPolicy::default()).unwrap();
        let addr8 = (addr % 65536) as i64;
        let addr64 = (addr % (65536 - 8)) as i64;
        prop_assert_eq!(m.call("rt64", &[addr64, v]).unwrap(), v);
        prop_assert_eq!(m.call("rt8", &[addr8, v]).unwrap(), v & 0xFF);
    }

    /// Fuel metering is deterministic: identical runs consume identical
    /// fuel.
    #[test]
    fn fuel_is_deterministic(n in 1i64..500) {
        let src = r#"
            .memory 1
            .func count args=1 locals=0
            loop:
                local.get 0
                eqz
                jmpif done
                local.get 0
                push 1
                sub
                local.set 0
                jmp loop
            done:
                ret
        "#;
        let module = assemble(src).unwrap();
        let mut m1 = Oracle::new(&module, SandboxPolicy::default()).unwrap();
        let mut m2 = Oracle::new(&module, SandboxPolicy::default()).unwrap();
        m1.call("count", &[n]).unwrap();
        m2.call("count", &[n]).unwrap();
        prop_assert_eq!(m1.fuel_used(), m2.fuel_used());
    }

    /// Serialization round-trip for arbitrary well-formed modules.
    #[test]
    fn module_serialization_round_trip(
        n_funcs in 1usize..5,
        mem_pages in 0u16..8,
        codes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..5)
    ) {
        let functions: Vec<Function> = (0..n_funcs.min(codes.len()))
            .map(|i| Function {
                name: format!("f{i}"),
                n_args: (i % 4) as u8,
                n_locals: (i % 3) as u8,
                code: codes[i].clone(),
            })
            .collect();
        let module = Module { mem_pages, functions, data: vec![] };
        let bytes = module.to_bytes();
        prop_assert_eq!(Module::from_bytes(&bytes).unwrap(), module);
    }
}

#[test]
fn truncation_fuzz_on_real_pad_module() {
    // Exhaustively truncate a real PAD container: every prefix must parse
    // as an error, never panic.
    let src = fractal_vm::asm::assemble(".memory 2\n.func decode args=6 locals=2\n push 0\n ret\n")
        .unwrap();
    let bytes = src.to_bytes();
    for cut in 0..bytes.len() {
        assert!(Module::from_bytes(&bytes[..cut]).is_err());
    }
}

#[test]
fn hostile_deep_recursion_traps_cleanly() {
    let src = ".memory 1\n.func f args=0 locals=0\n call f\n ret\n";
    let module = assemble(src).unwrap();
    let mut m = Oracle::new(&module, SandboxPolicy::default()).unwrap();
    assert_eq!(m.call("f", &[]), Err(Trap::CallDepthExceeded));
}
