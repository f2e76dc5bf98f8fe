//! Static verification of FVM modules before execution, and the one
//! decoder of a function body.
//!
//! Verification is the first of the paper's two §3.5 security mechanisms in
//! spirit: downloaded code is never executed until it has been statically
//! shown to be *structurally* safe — every opcode decodes, every branch
//! lands on an instruction boundary inside its own function, every `Call`
//! names a real function, every local index is in range, every host id is
//! known. Stack discipline, fuel lower bounds, and capability reachability
//! are proven next by abstract interpretation ([`crate::analysis`]); memory
//! bounds and the fuel budget are enforced by the interpreter at run time.
//!
//! The rules are applied while the body is decoded, and the decoding is
//! kept: each function's instructions, every branch resolved to the index
//! of the instruction it lands on and every host call to its intrinsic
//! ([`Flow`]), and the basic blocks over them. Admission decodes a module
//! once; the analyzer and the register form read what this decoder
//! returns and never decode or resolve a branch again.

use crate::bytecode::Op;
use crate::error::VerifyError;
use crate::host::HostId;
use crate::module::{Function, Module};

/// Where control goes after an instruction, as the decoder resolved it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flow {
    /// On to the next instruction (after a `call`, once the callee returns).
    Next,
    /// `jmp`: to the instruction at this index.
    Jump(usize),
    /// `jmpif`, `jmpifz`: to the instruction at this index, or on to the
    /// next.
    Branch(usize),
    /// `host`: the intrinsic runs, then on to the next; `abort` traps.
    Host(HostId),
    /// `ret`: back to the caller.
    Ret,
    /// `halt`: the machine stops.
    Halt,
    /// `unreachable`: the machine traps.
    Trap,
}

impl Flow {
    /// The index a jump or a branch lands on.
    pub fn target(self) -> Option<usize> {
        match self {
            Flow::Jump(t) | Flow::Branch(t) => Some(t),
            _ => None,
        }
    }

    /// Whether control can go on to the next instruction.
    pub fn falls_through(self) -> bool {
        match self {
            Flow::Next | Flow::Branch(_) => true,
            Flow::Host(host) => host != HostId::Abort,
            Flow::Jump(_) | Flow::Ret | Flow::Halt | Flow::Trap => false,
        }
    }
}

/// One decoded instruction with its dataflow facts.
#[derive(Clone, Debug)]
pub struct InsnInfo {
    /// Byte offset of the instruction.
    pub at: usize,
    /// The decoded instruction.
    pub op: Op,
    /// Byte offset of the following instruction.
    pub next: usize,
    /// Where control goes next, branch targets and host ids resolved.
    pub flow: Flow,
    /// Frame-relative stack height on entry, `None` when unreachable. The
    /// decoder leaves it `None`; the analyzer's dataflow fills it.
    pub height: Option<u32>,
}

/// A basic block in a function's CFG.
#[derive(Clone, Debug)]
pub struct BlockInfo {
    /// Index of the block's first instruction in `insns`.
    pub start: usize,
    /// One past the index of the block's last instruction.
    pub end: usize,
    /// Successor blocks (indices into the function's block list).
    pub succs: Vec<usize>,
}

/// A function body as the decoder returns it.
pub(crate) struct FunctionCode {
    /// Instructions in code order.
    pub(crate) insns: Vec<InsnInfo>,
    /// Basic blocks over `insns`, in code order.
    pub(crate) blocks: Vec<BlockInfo>,
}

/// Verifies every function in `module`: the decoder run over each, its
/// decoding dropped.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    decode_module(module).map(drop)
}

/// Decodes and verifies every function of `module` in order, returning
/// the first function's refusal.
pub(crate) fn decode_module(module: &Module) -> Result<Vec<FunctionCode>, VerifyError> {
    let funcs = module.functions.iter().enumerate();
    funcs.map(|(idx, func)| decode(module, idx, func)).collect()
}

/// Decodes function `idx` and applies the structural rules in this order:
/// too many locals, an op that does not decode, a body that does not end
/// in a terminator, then per instruction in code order a wild jump, a call
/// to no function, a local out of range and an unknown host id. Returns
/// the instructions, each with its resolved [`Flow`], and the basic blocks
/// over them.
#[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
fn decode(module: &Module, idx: usize, func: &Function) -> Result<FunctionCode, VerifyError> {
    let n_slots = func.n_args as u16 + func.n_locals as u16;
    if n_slots > 255 {
        return Err(VerifyError::TooManyLocals { func: idx });
    }

    let mut insns = Vec::new();
    let mut pc = 0usize;
    while pc < func.code.len() {
        let (op, next) = Op::decode(&func.code, pc)?;
        insns.push(InsnInfo { at: pc, op, next, flow: Flow::Next, height: None });
        pc = next;
    }
    // One code-end rule covers both ways control could leave the body:
    // no branch may target end-of-code (or beyond), and the final
    // instruction must be a terminator so execution cannot fall off the
    // end. Empty bodies fail the terminator half of the rule.
    match insns.last() {
        Some(insn) if matches!(insn.op, Op::Ret | Op::Halt | Op::Unreachable | Op::Jmp(_)) => {}
        _ => return Err(VerifyError::MissingTerminator { func: idx }),
    }

    // A branch lands on the instruction that starts at its target.
    let flows = insns.iter().map(|insn| {
        let at = insn.at;
        Ok(match insn.op {
            Op::Jmp(rel) | Op::JmpIf(rel) | Op::JmpIfZ(rel) => {
                let target = insn.next as i64 + rel as i64;
                let landing = usize::try_from(target)
                    .ok()
                    .and_then(|t| insns.binary_search_by(|insn| insn.at.cmp(&t)).ok())
                    .ok_or(VerifyError::WildJump { func: idx, at, target })?;
                match insn.op {
                    Op::Jmp(_) => Flow::Jump(landing),
                    _ => Flow::Branch(landing),
                }
            }
            Op::Call(callee) if callee as usize >= module.functions.len() => {
                return Err(VerifyError::BadCallTarget { func: idx, at, callee });
            }
            Op::LocalGet(n) | Op::LocalSet(n) | Op::LocalTee(n) if n as u16 >= n_slots => {
                return Err(VerifyError::BadLocal { func: idx, at, local: n });
            }
            Op::HostCall(id) => match HostId::from_id(id) {
                Some(host) => Flow::Host(host),
                None => return Err(VerifyError::UnknownHost { func: idx, at, id }),
            },
            Op::Ret => Flow::Ret,
            Op::Halt => Flow::Halt,
            Op::Unreachable => Flow::Trap,
            _ => Flow::Next,
        })
    });
    let flows = flows.collect::<Result<Vec<Flow>, VerifyError>>()?;
    for (insn, flow) in insns.iter_mut().zip(flows) {
        insn.flow = flow;
    }

    // Leaders: the entry, every branch target, and every instruction after
    // a branch or an instruction control cannot fall through.
    let n = insns.len();
    let mut starts = vec![0];
    for (i, insn) in insns.iter().enumerate() {
        starts.extend(insn.flow.target());
        if (insn.flow.target().is_some() || !insn.flow.falls_through()) && i + 1 < n {
            starts.push(i + 1);
        }
    }
    starts.sort_unstable();
    starts.dedup();
    // A leader's block is the number of leaders before it.
    let block_of = |leader: usize| starts.partition_point(|&s| s < leader);
    let mut blocks = Vec::with_capacity(starts.len());
    let mut start = 0;
    for (i, insn) in insns.iter().enumerate() {
        // An instruction ends its block when it is the last one or the
        // next one leads a block.
        let end = i + 1;
        if end < n && starts.binary_search(&end).is_err() {
            continue;
        }
        let fall = (insn.flow.falls_through() && end < n).then_some(end);
        let landings = insn.flow.target().into_iter().chain(fall);
        let mut succs: Vec<usize> = landings.map(block_of).collect();
        succs.sort_unstable();
        succs.dedup();
        blocks.push(BlockInfo { start, end, succs });
        start = end;
    }
    Ok(FunctionCode { insns, blocks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn raw_module(code: Vec<u8>, n_args: u8, n_locals: u8) -> Module {
        Module {
            mem_pages: 1,
            functions: vec![Function { name: "f".into(), n_args, n_locals, code }],
            data: vec![],
        }
    }

    #[test]
    fn accepts_well_formed_module() {
        let m = assemble(
            r#"
            .func main args=1 locals=1
            top:
                local.get 0
                jmpifz done
                local.get 0
                push 1
                sub
                local.set 0
                jmp top
            done:
                ret
        "#,
        )
        .unwrap();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn rejects_jump_into_immediate() {
        // Jmp +(-3) from after a PushI32 lands inside the immediate.
        let mut code = Vec::new();
        Op::PushI32(99).encode(&mut code); // bytes 0..5
        Op::Jmp(-3).encode(&mut code); // target = 10 - 3 = 7: inside nothing… compute: next=10, target=7 → not a boundary (boundaries: 0,5)
        Op::Ret.encode(&mut code);
        let m = raw_module(code, 0, 0);
        assert!(matches!(verify_module(&m), Err(VerifyError::WildJump { .. })));
    }

    #[test]
    fn rejects_jump_out_of_function() {
        let mut code = Vec::new();
        Op::Jmp(1000).encode(&mut code);
        Op::Ret.encode(&mut code);
        let m = raw_module(code, 0, 0);
        assert!(matches!(verify_module(&m), Err(VerifyError::WildJump { .. })));
    }

    #[test]
    fn rejects_negative_jump_before_start() {
        let mut code = Vec::new();
        Op::Jmp(-100).encode(&mut code);
        Op::Ret.encode(&mut code);
        let m = raw_module(code, 0, 0);
        assert!(matches!(verify_module(&m), Err(VerifyError::WildJump { .. })));
    }

    #[test]
    fn rejects_bad_call_target() {
        let mut code = Vec::new();
        Op::Call(7).encode(&mut code);
        Op::Ret.encode(&mut code);
        let m = raw_module(code, 0, 0);
        assert!(matches!(verify_module(&m), Err(VerifyError::BadCallTarget { callee: 7, .. })));
    }

    #[test]
    fn rejects_bad_local_index() {
        let mut code = Vec::new();
        Op::LocalGet(5).encode(&mut code);
        Op::Ret.encode(&mut code);
        let m = raw_module(code, 2, 2); // slots 0..4 valid, 5 is not
        assert!(matches!(verify_module(&m), Err(VerifyError::BadLocal { local: 5, .. })));
    }

    #[test]
    fn accepts_max_valid_local_index() {
        let mut code = Vec::new();
        Op::LocalGet(3).encode(&mut code);
        Op::Ret.encode(&mut code);
        let m = raw_module(code, 2, 2);
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn rejects_unknown_host() {
        let mut code = Vec::new();
        Op::HostCall(99).encode(&mut code);
        Op::Ret.encode(&mut code);
        let m = raw_module(code, 0, 0);
        assert!(matches!(verify_module(&m), Err(VerifyError::UnknownHost { id: 99, .. })));
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut code = Vec::new();
        Op::PushI8(1).encode(&mut code);
        let m = raw_module(code, 0, 0);
        assert!(matches!(verify_module(&m), Err(VerifyError::MissingTerminator { .. })));
    }

    #[test]
    fn rejects_empty_body() {
        let m = raw_module(vec![], 0, 0);
        assert!(matches!(verify_module(&m), Err(VerifyError::MissingTerminator { .. })));
    }

    #[test]
    fn rejects_undecodable_code() {
        let m = raw_module(vec![0xFE], 0, 0);
        assert!(matches!(verify_module(&m), Err(VerifyError::Code(_))));
    }

    #[test]
    fn verifies_every_function_not_just_first() {
        let mut good = Vec::new();
        Op::Ret.encode(&mut good);
        let mut bad = Vec::new();
        Op::LocalGet(9).encode(&mut bad);
        Op::Ret.encode(&mut bad);
        let m = Module {
            mem_pages: 1,
            functions: vec![
                Function { name: "a".into(), n_args: 0, n_locals: 0, code: good },
                Function { name: "b".into(), n_args: 0, n_locals: 0, code: bad },
            ],
            data: vec![],
        };
        assert!(matches!(verify_module(&m), Err(VerifyError::BadLocal { func: 1, .. })));
    }
}
