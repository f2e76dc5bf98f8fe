//! FVM disassembler: [`Module`] → `.fasm` text.
//!
//! The inverse of the [assembler](crate::asm), used to inspect downloaded
//! PADs (what *is* this mobile code about to do?) and to round-trip-test
//! the toolchain: `assemble(disassemble(m))` reproduces `m`'s code
//! byte-for-byte.

use std::collections::BTreeSet;

use crate::analysis::{
    AnalyzedModule, FunctionAnalysis, LintConfig, LintLevel, ModuleAnalysis, RegFunction,
};
use crate::bytecode::Op;
use crate::error::ModuleError;
use crate::host::HostId;
use crate::module::{Function, Module};

/// Disassembles a whole module into assembler-compatible text.
pub fn disassemble(module: &Module) -> Result<String, ModuleError> {
    render(module, None, None)
}

/// Disassembles with `fvm-lint` annotations: each instruction line carries
/// its inferred frame-relative stack height (`; h=N`, or `; unreachable`),
/// each function header its proven bounds, and lints follow the header.
/// The output remains assembler-compatible — `;` comments are ignored on
/// re-assembly.
pub fn disassemble_annotated(
    module: &Module,
    analysis: &ModuleAnalysis,
) -> Result<String, ModuleError> {
    render(module, Some(analysis), None)
}

/// [`disassemble_annotated`] for an admitted module, with what the fast
/// path executes: each instruction line also carries its index and the
/// register-form slot that starts there (`@12: br.geu r9, r10 -> @57 x4`
/// — `xN` is how many source instructions the slot stands for, `@N` an
/// instruction index), so a PAD's loop can be read as it is dispatched.
pub fn disassemble_admitted(analyzed: &AnalyzedModule) -> Result<String, ModuleError> {
    render(&analyzed.module, Some(&analyzed.analysis), Some(&analyzed.fast))
}

/// The module as `.fasm` text, annotated with whatever is known about it.
fn render(
    module: &Module,
    analysis: Option<&ModuleAnalysis>,
    fast: Option<&[RegFunction]>,
) -> Result<String, ModuleError> {
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
        let fa = analysis.and_then(|a| a.functions.get(idx));
        let slots = fast.and_then(|fast| fast.get(idx));
        out.push_str(&disassemble_function(module, f, fa, slots)?);
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

/// Renders a `proven` fact bitmask as `+`-joined short names.
fn proven_names(p: u8) -> String {
    use crate::analysis::proven;
    let mut names = Vec::new();
    if p & proven::DIV_NONZERO != 0 {
        names.push("nz");
    }
    if p & proven::DIV_NO_OVERFLOW != 0 {
        names.push("novf");
    }
    if p & proven::SHIFT_IN_RANGE != 0 {
        names.push("shift");
    }
    if p & proven::MEM_IN_BOUNDS != 0 {
        names.push("bounds");
    }
    if p & proven::HOST_ARGS_OK != 0 {
        names.push("hostok");
    }
    names.join("+")
}

fn disassemble_function(
    module: &Module,
    f: &Function,
    fa: Option<&FunctionAnalysis>,
    slots: Option<&RegFunction>,
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
    if let Some(fa) = fa {
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
        if let Some(slots) = slots {
            out.push_str(&format!(
                "    ; registers: r0..r{} args+locals, r{}..r{} stack\n",
                slots.first_stack.saturating_sub(1),
                slots.first_stack,
                slots.frame.saturating_sub(1)
            ));
        }
        let config = LintConfig::default();
        for lint in &fa.lints {
            match config.level_for(lint) {
                LintLevel::Allow => {}
                level => out.push_str(&format!("    ; lint[{level}]: {lint}\n")),
            }
        }
    }
    let mut insn_idx = 0usize;
    let mut pc = 0usize;
    while pc < f.code.len() {
        if targets.contains(&pc) {
            out.push_str(&format!("{}:\n", label_of(pc)));
        }
        let (op, next) = Op::decode(&f.code, pc)?;
        let line = match op {
            Op::Halt => "halt".to_string(),
            Op::Nop => "nop".to_string(),
            Op::Unreachable => "unreachable".to_string(),
            Op::Jmp(rel) => format!("jmp {}", label_of((next as i64 + rel as i64) as usize)),
            Op::JmpIf(rel) => {
                format!("jmpif {}", label_of((next as i64 + rel as i64) as usize))
            }
            Op::JmpIfZ(rel) => {
                format!("jmpifz {}", label_of((next as i64 + rel as i64) as usize))
            }
            Op::Call(idx) => {
                let name = module
                    .functions
                    .get(idx as usize)
                    .map(|f| f.name.clone())
                    .unwrap_or_else(|| format!("fn{idx}"));
                format!("call {name}")
            }
            Op::Ret => "ret".to_string(),
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
            Op::Drop => "drop".to_string(),
            Op::Dup => "dup".to_string(),
            Op::Swap => "swap".to_string(),
            Op::Add => "add".to_string(),
            Op::Sub => "sub".to_string(),
            Op::Mul => "mul".to_string(),
            Op::DivU => "divu".to_string(),
            Op::DivS => "divs".to_string(),
            Op::RemU => "remu".to_string(),
            Op::And => "and".to_string(),
            Op::Or => "or".to_string(),
            Op::Xor => "xor".to_string(),
            Op::Shl => "shl".to_string(),
            Op::ShrU => "shru".to_string(),
            Op::ShrS => "shrs".to_string(),
            Op::Eq => "eq".to_string(),
            Op::Ne => "ne".to_string(),
            Op::LtU => "ltu".to_string(),
            Op::LtS => "lts".to_string(),
            Op::GtU => "gtu".to_string(),
            Op::GtS => "gts".to_string(),
            Op::LeU => "leu".to_string(),
            Op::GeU => "geu".to_string(),
            Op::Eqz => "eqz".to_string(),
            Op::Load8 => "load8".to_string(),
            Op::Load16 => "load16".to_string(),
            Op::Load32 => "load32".to_string(),
            Op::Load64 => "load64".to_string(),
            Op::Store8 => "store8".to_string(),
            Op::Store16 => "store16".to_string(),
            Op::Store32 => "store32".to_string(),
            Op::Store64 => "store64".to_string(),
            Op::MemCopy => "memcopy".to_string(),
            Op::MemFill => "memfill".to_string(),
            Op::LzCopy => "lzcopy".to_string(),
            Op::MemSize => "memsize".to_string(),
        };
        out.push_str("    ");
        out.push_str(&line);
        if let Some(fa) = fa {
            let pad = 24usize.saturating_sub(line.len()).max(1);
            match fa.insns.get(insn_idx).and_then(|i| i.height) {
                Some(h) => {
                    out.push_str(&format!("{:pad$}; h={h}", ""));
                    // Range-pass facts, when the pass had anything to say:
                    // discharged checks and claimed operand intervals (top
                    // of stack first).
                    if let Some(facts) = fa.ranges.get(insn_idx) {
                        if facts.proven != 0 {
                            out.push_str(&format!(" proven={}", proven_names(facts.proven)));
                        }
                        if !facts.operands.is_empty() {
                            let ops: Vec<String> =
                                facts.operands.iter().map(|v| v.to_string()).collect();
                            out.push_str(&format!(" stack={}", ops.join(",")));
                        }
                    }
                    if let Some(slot) = slots.and_then(|s| s.code.get(insn_idx)) {
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
    use crate::asm::assemble;

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
    use crate::asm::assemble;

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
        let policy = crate::sandbox::SandboxPolicy::for_pads();
        let admitted = assemble(src).unwrap().analyzed(&policy).unwrap();
        let text = disassemble_admitted(&admitted).unwrap();
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
    fn shipped_pads_annotated_round_trip() {
        use crate::analysis::analyze_module;
        use crate::sandbox::SandboxPolicy;
        use crate::verify::verify_module;

        for (name, src) in SHIPPED {
            let m1 = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            verify_module(&m1).unwrap_or_else(|e| panic!("{name}: {e}"));
            let analysis = analyze_module(&m1, &SandboxPolicy::for_pads())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let text = disassemble_annotated(&m1, &analysis).unwrap();
            let m2 = assemble(&text).unwrap_or_else(|e| panic!("{name} reassemble: {e}\n{text}"));
            for (a, b) in m1.functions.iter().zip(&m2.functions) {
                assert_eq!(a.code, b.code, "{name}::{}", a.name);
            }
        }
    }
}
