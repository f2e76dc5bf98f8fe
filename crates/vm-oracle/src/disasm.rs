//! FVM disassembler: [`Module`] → `.fasm` text.
//!
//! The inverse of the [assembler](fractal_vm::asm), used to inspect
//! downloaded PADs (what *is* this mobile code about to do?) and to
//! round-trip-test the toolchain: `assemble(disassemble(m))` reproduces
//! `m`'s code byte-for-byte.

use std::collections::BTreeSet;

use fractal_vm::analysis::{FunctionAnalysis, Slot};
use fractal_vm::{AnalyzedModule, Function, HostId, Module, ModuleError, Op};

use crate::lint::collect_lints;

/// Disassembles a whole module into assembler-compatible text.
pub fn disassemble(module: &Module) -> Result<String, ModuleError> {
    render(module, None)
}

/// Disassembles an admitted module with `fasmlint` annotations: each
/// function header carries its proven bounds and registers, its
/// [lints](crate::lint) follow the header, and each instruction line its
/// inferred frame-relative stack height (`; h=N`, or `; unreachable`) and
/// its index with the register-form slot that starts there (`@12: br.geu
/// r9, r10 -> @57 x4` — `xN` is how many source instructions the slot
/// stands for, `@N` an instruction index), so a PAD's loop can be read as
/// it is dispatched. The output remains assembler-compatible — `;`
/// comments are ignored on re-assembly.
pub fn disassemble_admitted(analyzed: &AnalyzedModule) -> Result<String, ModuleError> {
    render(&analyzed.module, Some(analyzed))
}

/// What is known about one function beyond its code.
struct Annotation<'a> {
    func: usize,
    fa: &'a FunctionAnalysis,
    slots: &'a [Slot],
}

/// The module as `.fasm` text, annotated when it is admitted.
fn render(module: &Module, admitted: Option<&AnalyzedModule>) -> Result<String, ModuleError> {
    let mut out = String::new();
    out.push_str(&format!(".memory {}\n", module.mem_pages));
    for seg in &module.data {
        out.push_str(&format!(
            ".data {} hex:{}\n",
            seg.offset,
            fractal_crypto::hex::encode(&seg.bytes)
        ));
    }
    for (idx, f) in module.functions.iter().enumerate() {
        out.push('\n');
        let note = admitted.map(|analyzed| Annotation {
            func: idx,
            fa: &analyzed.analysis.functions[idx],
            slots: analyzed.slots(idx),
        });
        out.push_str(&disassemble_function(module, f, note)?);
    }
    Ok(out)
}

/// Renders a capability bitmask as comma-separated host mnemonics
/// (`"-"` when empty).
fn host_mask_names(mask: u8) -> String {
    let names: Vec<&str> = (0u8..8)
        .filter(|id| mask & (1 << id) != 0)
        .filter_map(HostId::from_id)
        .map(|h| h.mnemonic())
        .collect();
    if names.is_empty() {
        "-".to_string()
    } else {
        names.join(",")
    }
}

fn disassemble_function(
    module: &Module,
    f: &Function,
    note: Option<Annotation>,
) -> Result<String, ModuleError> {
    // Pass 1: find branch targets to name labels.
    let mut targets: BTreeSet<usize> = BTreeSet::new();
    let mut pc = 0usize;
    while pc < f.code.len() {
        let (op, next) = Op::decode(&f.code, pc)?;
        if let Op::Jmp(rel) | Op::JmpIf(rel) | Op::JmpIfZ(rel) = op {
            let target = next as i64 + rel as i64;
            if target >= 0 {
                targets.insert(target as usize);
            }
        }
        pc = next;
    }

    let label_of = |offset: usize| format!("l{offset}");
    let mut out = format!(".func {} args={} locals={}\n", f.name, f.n_args, f.n_locals);
    if let Some(Annotation { func, fa, .. }) = &note {
        let exit = match fa.exit_height {
            Some(h) => format!("{h}"),
            None => "never".to_string(),
        };
        let fuel =
            if fa.min_fuel == u64::MAX { "inf".to_string() } else { format!("{}", fa.min_fuel) };
        let hosts = host_mask_names(fa.reachable_hosts);
        out.push_str(&format!(
            "    ; max_height={} exit={} min_fuel={} hosts={}\n",
            fa.max_height, exit, fuel, hosts
        ));
        // The register form's frame: arguments and locals, then one
        // register per stack slot up to the proven maximum height.
        let first_stack = f.n_args as usize + f.n_locals as usize;
        let frame = first_stack + fa.max_height as usize;
        out.push_str(&format!(
            "    ; registers: r0..r{} args+locals, r{}..r{} stack\n",
            first_stack.saturating_sub(1),
            first_stack,
            frame.saturating_sub(1)
        ));
        for lint in collect_lints(*func, fa) {
            out.push_str(&format!("    ; lint[{}]: {lint}\n", lint.severity()));
        }
    }
    let mut insn_idx = 0usize;
    let mut pc = 0usize;
    while pc < f.code.len() {
        if targets.contains(&pc) {
            out.push_str(&format!("{}:\n", label_of(pc)));
        }
        let (op, next) = Op::decode(&f.code, pc)?;
        let target = |rel: i32| label_of((next as i64 + rel as i64) as usize);
        let line = match op {
            Op::Jmp(rel) => format!("jmp {}", target(rel)),
            Op::JmpIf(rel) => format!("jmpif {}", target(rel)),
            Op::JmpIfZ(rel) => format!("jmpifz {}", target(rel)),
            Op::Call(idx) => {
                let name = module
                    .functions
                    .get(idx as usize)
                    .map(|f| f.name.clone())
                    .unwrap_or_else(|| format!("fn{idx}"));
                format!("call {name}")
            }
            Op::HostCall(id) => match HostId::from_id(id) {
                Some(h) => format!("host {}", h.mnemonic()),
                None => format!("host {id}"),
            },
            Op::PushI8(v) => format!("push {v}"),
            Op::PushI32(v) => format!("push {v}"),
            Op::PushI64(v) => format!("push {v}"),
            Op::LocalGet(n) => format!("local.get {n}"),
            Op::LocalSet(n) => format!("local.set {n}"),
            Op::LocalTee(n) => format!("local.tee {n}"),
            plain => plain.plain_row().map_or("", |row| row.1).to_string(),
        };
        out.push_str("    ");
        out.push_str(&line);
        if let Some(Annotation { fa, slots, .. }) = &note {
            let pad = 24usize.saturating_sub(line.len()).max(1);
            match fa.insns.get(insn_idx).and_then(|i| i.height) {
                Some(h) => {
                    out.push_str(&format!("{:pad$}; h={h}", ""));
                    if let Some(slot) = slots.get(insn_idx) {
                        out.push_str(&format!(" @{insn_idx}: {slot}"));
                    }
                }
                None => out.push_str(&format!("{:pad$}; unreachable", "")),
            }
        }
        out.push('\n');
        insn_idx += 1;
        pc = next;
    }
    // A label can also sit exactly at the end of the body (backward jump
    // targets always precede code, but a forward jump to end-of-body is
    // rejected by the verifier, so no label is needed here).
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_vm::assemble;

    /// Assembler → disassembler → assembler reproduces the exact bytecode
    /// for every shipped PAD source shape.
    fn round_trip(src: &str) {
        let m1 = assemble(src).expect("assembles");
        let text = disassemble(&m1).expect("disassembles");
        let m2 = assemble(&text).unwrap_or_else(|e| panic!("reassembles: {e}\n{text}"));
        assert_eq!(m1.mem_pages, m2.mem_pages);
        assert_eq!(m1.data, m2.data);
        assert_eq!(m1.functions.len(), m2.functions.len());
        for (a, b) in m1.functions.iter().zip(&m2.functions) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.n_args, b.n_args);
            assert_eq!(a.n_locals, b.n_locals);
            assert_eq!(a.code, b.code, "bytecode differs for {}", a.name);
        }
    }

    #[test]
    fn round_trips_simple_function() {
        round_trip(
            r#"
            .memory 2
            .data 16 hex:DEADBEEF
            .func main args=1 locals=2
            top:
                local.get 0
                eqz
                jmpif done
                local.get 0
                push 1
                sub
                local.set 0
                jmp top
            done:
                push 1000
                ret
        "#,
        );
    }

    #[test]
    fn round_trips_calls_and_hosts() {
        round_trip(
            r#"
            .func a args=0 locals=0
                call b
                push 0
                push 4
                push 64
                host sha1
                drop
                ret
            .func b args=2 locals=1
                local.tee 2
                drop
                ret
        "#,
        );
    }

    #[test]
    fn output_is_human_readable() {
        let m = assemble(".func f args=0 locals=0\n push 7\n ret\n").unwrap();
        let text = disassemble(&m).unwrap();
        assert!(text.contains(".func f args=0 locals=0"));
        assert!(text.contains("push 7"));
        assert!(text.contains("ret"));
    }

    #[test]
    fn labels_are_emitted_for_branch_targets() {
        let m = assemble(".func f args=0 locals=0\nx:\n jmp x\n").unwrap();
        let text = disassemble(&m).unwrap();
        assert!(text.contains("l0:"), "{text}");
        assert!(text.contains("jmp l0"));
    }
}

#[cfg(test)]
mod pad_round_trips {
    use super::*;
    use fractal_vm::{assemble, SandboxPolicy};

    /// All six shipped PAD sources, via include_str! to avoid a dependency
    /// cycle with fractal-pads.
    const SHIPPED: [(&str, &str); 6] = [
        ("direct", include_str!("../../pads/fasm/direct.fasm")),
        ("gzip", include_str!("../../pads/fasm/gzip.fasm")),
        ("bitmap", include_str!("../../pads/fasm/bitmap.fasm")),
        ("recipe", include_str!("../../pads/fasm/recipe.fasm")),
        ("deflate", include_str!("../../pads/fasm/deflate.fasm")),
        ("signatures", include_str!("../../pads/fasm/signatures.fasm")),
    ];

    /// `src` admitted under `policy` and disassembled with annotations.
    fn annotated(src: &str, policy: &SandboxPolicy) -> (AnalyzedModule, String) {
        let admitted = assemble(src).unwrap().analyzed(policy).unwrap();
        let text = disassemble_admitted(&admitted).unwrap();
        (admitted, text)
    }

    /// Every shipped PAD source survives the full tool round trip to
    /// byte-identical bytecode, data segments, and memory declaration.
    #[test]
    fn shipped_pad_sources_round_trip() {
        for (name, src) in SHIPPED {
            let m1 = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let text = disassemble(&m1).unwrap();
            let m2 = assemble(&text).unwrap_or_else(|e| panic!("{name} reassemble: {e}"));
            assert_eq!(m1.mem_pages, m2.mem_pages, "{name}");
            assert_eq!(m1.data, m2.data, "{name}");
            assert_eq!(m1.functions.len(), m2.functions.len(), "{name}");
            for (a, b) in m1.functions.iter().zip(&m2.functions) {
                assert_eq!((a.n_args, a.n_locals), (b.n_args, b.n_locals), "{name}::{}", a.name);
                assert_eq!(a.code, b.code, "{name}::{}", a.name);
            }
        }
    }

    /// The annotated (fasmlint) rendering stays assembler-compatible: its
    /// comments are ignored on re-assembly and the bytecode round-trips.
    #[test]
    fn admitted_disassembly_names_each_slot_and_still_reassembles() {
        let src = include_str!("../../pads/fasm/gzip.fasm");
        let (admitted, text) = annotated(src, &SandboxPolicy::for_pads());
        assert!(text.contains("; registers: r0..r13 args+locals, r14..r16 stack"), "{text}");
        // The loop header: four source ops, one compare-and-branch slot.
        let header = text.lines().find(|l| l.contains("br.geu r9, r10")).expect("loop header");
        assert!(
            header.trim_start().starts_with("local.get 9") && header.ends_with("x4"),
            "{header}"
        );
        let again = assemble(&text).expect("annotations are comments");
        assert_eq!(again.functions[0].code, admitted.module.functions[0].code);
    }

    #[test]
    fn annotated_disassembly_reassembles_and_carries_heights() {
        let src = ".func f args=0 locals=0\n push 1\n push 2\n add\n ret\n";
        let (admitted, text) = annotated(src, &SandboxPolicy::default());
        assert!(text.contains("; h=0"), "{text}");
        assert!(text.contains("; h=2"), "{text}");
        assert!(text.contains("; max_height=2"), "{text}");
        let m2 = assemble(&text).expect("annotations are comments");
        assert_eq!(admitted.module.functions[0].code, m2.functions[0].code);
    }

    #[test]
    fn shipped_pads_annotated_round_trip() {
        for (name, src) in SHIPPED {
            let (admitted, text) = annotated(src, &SandboxPolicy::for_pads());
            let m2 = assemble(&text).unwrap_or_else(|e| panic!("{name} reassemble: {e}\n{text}"));
            for (a, b) in admitted.module.functions.iter().zip(&m2.functions) {
                assert_eq!(a.code, b.code, "{name}::{}", a.name);
            }
        }
    }
}
