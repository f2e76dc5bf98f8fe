//! Register form: what the fast path executes.
//!
//! The stack-height pass gives every reachable instruction one
//! frame-relative entry height, so the operand-stack slot at height `h` is
//! a fixed place in the frame. A frame's registers are its arguments and
//! locals (`0..first_stack`, the indices `local.get` already uses)
//! followed by one register per stack slot (`first_stack + h`), and every
//! instruction has a canonical three-address form over them: `add` at
//! height 2 is `add r[s0], r[s0], r[s1]`, `local.set 3` at height 1 is
//! `mov r3, r[s0]`, `drop` is a no-op.
//!
//! [`translate`] writes one [`Slot`] per instruction, 1:1 with instruction
//! indices so branch targets need no remapping. Slot `i` is the longest
//! *run* that starts at instruction `i`:
//!
//! ```text
//! run := producer{0..arity} · main · consumer?
//! producer := local.get | push | memsize      (a register or an immediate)
//! consumer := local.set d                     (the result lands in r[d])
//!           | jmpif t | jmpifz t              (after a comparison / eqz)
//! ```
//!
//! The producers directly before `main` become its trailing operands and
//! the consumer directly after it takes its result, so neither touches a
//! stack register: `local.get 9 · local.get 10 · geu · jmpif done` is one
//! `br.geu r9, r10 -> done`. Because only *adjacent* ops fold, nothing can
//! overwrite a local between its `local.get` and the use. A stack register
//! that a run skips is dead: the slot it stands for is popped by the run's
//! own main op, and stack discipline writes a slot before reading it.
//! Slots covered by a run keep their own form (the run, usually shorter,
//! that starts there), so a branch into the middle of a run executes the
//! ops from there on and there is one table per function.
//!
//! ## Superinstructions
//!
//! A last pass replaces slot `i` by one slot for it and the one or two it
//! falls through to when they have one of five shapes, the gzip PAD's
//! token loop (DESIGN.md §4.11): `add · br.ltu`, `mov · sub · br.ltu`,
//! `load · add` stepping the load's address, `add · jmp` and
//! `mov · sub · lzcopy`. A fused slot skips a write only to a stack
//! register its last part pops, dead on both edges of a branch (they share
//! one entry height) — the argument that lets a run skip its producers'
//! registers, one slot further. The covered slots keep their own forms, so
//! a branch into the second or third part runs the original slots.
//!
//! ## Fuel
//!
//! A slot records how many source ops it stands for ([`Slot::n`]) and is
//! charged that many. Everything before the main op writes registers only,
//! and only the main op can trap, so a run that starves part-way has done
//! nothing the embedding can see; when the tank holds at least what the
//! ops through the main op cost (all but [`Slot::tail`]) the interpreter
//! still evaluates a fallible main — a load or a division — so its trap
//! wins over `FuelExhausted`, as it would op by op, and what the ops after
//! it would have cost stays in the tank.

use core::fmt;

use crate::bytecode::Op;
use crate::error::VerifyError;
use crate::host::HostId;
use crate::module::{Function, Module};

use super::{FunctionAnalysis, ModuleAnalysis};

/// Comparisons as truth tables: bit `i` of a table says whether the
/// comparison holds of `(a, b)` when
/// `i = (a <u b) | (a == b) << 1 | (a <s b) << 2`. One `Cmp` form then
/// serves every comparison without a second dispatch on which it is, and
/// the complement of a table is the comparison `jmpifz` wants — the signed
/// orders included, which the instruction set cannot negate.
pub mod truth {
    #![allow(missing_docs)]
    pub const EQ: u8 = 0xCC;
    pub const NE: u8 = !EQ;
    pub const LTU: u8 = 0xAA;
    pub const GEU: u8 = !LTU;
    pub const GTU: u8 = 0x11;
    pub const LEU: u8 = !GTU;
    pub const LTS: u8 = 0xF0;
    pub const GTS: u8 = 0x03;

    /// Whether the comparison `table` holds of `(a, b)`.
    #[inline(always)]
    pub fn holds(table: u8, a: i64, b: i64) -> bool {
        let facts = ((a as u64) < (b as u64)) as u8 | ((a == b) as u8) << 1 | ((a < b) as u8) << 2;
        (table >> facts) & 1 != 0
    }

    pub(super) fn name(table: u8) -> &'static str {
        match table {
            EQ => "eq",
            NE => "ne",
            LTU => "ltu",
            GEU => "geu",
            GTU => "gtu",
            LEU => "leu",
            LTS => "lts",
            GTS => "gts",
            // Complements `jmpifz` makes; the instruction set has no name
            // for them.
            0x0F => "ges",
            0xFC => "les",
            _ => "cmp?",
        }
    }
}

/// How a binary operator of the instruction set is carried out.
enum Alu {
    /// Total arithmetic: its register and its immediate slot op.
    Arith(SlotOp, SlotOp),
    /// A comparison, by truth table.
    Cmp(u8),
    /// A division or remainder, which can trap.
    Div(SlotOp),
}

fn alu(op: Op) -> Option<Alu> {
    use Alu::*;
    Some(match op {
        Op::Add => Arith(SlotOp::Add, SlotOp::AddI),
        Op::Sub => Arith(SlotOp::Sub, SlotOp::SubI),
        Op::Mul => Arith(SlotOp::Mul, SlotOp::MulI),
        Op::And => Arith(SlotOp::And, SlotOp::AndI),
        Op::Or => Arith(SlotOp::Or, SlotOp::OrI),
        Op::Xor => Arith(SlotOp::Xor, SlotOp::XorI),
        Op::Shl => Arith(SlotOp::Shl, SlotOp::ShlI),
        Op::ShrU => Arith(SlotOp::ShrU, SlotOp::ShrUI),
        Op::ShrS => Arith(SlotOp::ShrS, SlotOp::ShrSI),
        Op::DivU => Div(SlotOp::DivU),
        Op::DivS => Div(SlotOp::DivS),
        Op::RemU => Div(SlotOp::RemU),
        Op::Eq => Cmp(truth::EQ),
        Op::Ne => Cmp(truth::NE),
        Op::LtU => Cmp(truth::LTU),
        Op::LtS => Cmp(truth::LTS),
        Op::GtU => Cmp(truth::GTU),
        Op::GtS => Cmp(truth::GTS),
        Op::LeU => Cmp(truth::LEU),
        Op::GeU => Cmp(truth::GEU),
        _ => return None,
    })
}

/// The slot op of a load, a store or a bulk memory op.
fn memory_op(op: Op) -> Option<SlotOp> {
    Some(match op {
        Op::Load8 => SlotOp::Load8,
        Op::Load16 => SlotOp::Load16,
        Op::Load32 => SlotOp::Load32,
        Op::Load64 => SlotOp::Load64,
        Op::Store8 => SlotOp::Store8,
        Op::Store16 => SlotOp::Store16,
        Op::Store32 => SlotOp::Store32,
        Op::Store64 => SlotOp::Store64,
        Op::MemCopy => SlotOp::MemCopy,
        Op::MemFill => SlotOp::MemFill,
        Op::LzCopy => SlotOp::LzCopy,
        _ => return None,
    })
}

/// What a [`Slot`] does; the field roles are listed per variant (`r[x]` is
/// register `x` of the running frame).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotOp {
    /// Stop the machine; `a` is the frame-relative height (the result is
    /// the top of the shared stack, `0` when it is empty).
    Halt,
    /// `nop`, `drop`.
    Nop,
    /// See [`Op::Unreachable`].
    Unreachable,
    /// An instruction no path reaches; executing it is an analyzer bug.
    Wedge,
    /// Jump to instruction `t`.
    Jmp,
    /// Jump to `t` when comparison `k` holds of `(r[a], r[b])`: the form
    /// for the signed orders; equality and the unsigned orders, which are
    /// what address arithmetic branches on, have the forms below.
    Br,
    /// Jump to `t` when comparison `k` holds of `(r[a], b)`.
    BrI,
    /// Jump to `t` when `r[a] == r[b]`.
    BrEq,
    /// Jump to `t` when `r[a] != r[b]`.
    BrNe,
    /// Jump to `t` when `r[a] <u r[b]` (and, operands exchanged, `>u`).
    BrLtU,
    /// Jump to `t` when `r[a] >=u r[b]` (and, operands exchanged, `<=u`).
    BrGeU,
    /// Jump to `t` when `r[a] == b`.
    BrEqI,
    /// Jump to `t` when `r[a] != b`.
    BrNeI,
    /// Jump to `t` when `r[a] <u b`.
    BrLtUI,
    /// Jump to `t` when `r[a] >=u b`.
    BrGeUI,
    /// Jump to `t` when `r[a] >u b`.
    BrGtUI,
    /// Jump to `t` when `r[a] <=u b`.
    BrLeUI,
    /// Call function `t`, whose window starts at `r[a]`: the arguments are
    /// already there, and the results come back there.
    Call,
    /// Return `b` values starting at `r[a]`.
    Ret,
    /// Host call `t` with `b` arguments starting at `r[a]`, which also
    /// receives the result.
    Host,
    /// `r[d] = r[a]`.
    Mov,
    /// `r[d] = b`.
    Const,
    /// `r[d] = t:b` (high and low halves of an `i64`).
    Const64,
    /// Exchange `r[a]` and `r[b]`.
    Swap,
    /// `r[d] = 1` when comparison `k` holds of `(r[a], r[b])`, else `0`.
    Cmp,
    /// `r[d] = 1` when comparison `k` holds of `(r[a], b)`, else `0`.
    CmpI,
    /// `r[d] = r[a] + r[b]`, wrapping; every arithmetic op below has this
    /// form and an `I` form whose second operand is the immediate `b`.
    Add,
    #[allow(missing_docs)]
    AddI,
    /// Wrapping subtraction.
    Sub,
    #[allow(missing_docs)]
    SubI,
    /// Wrapping multiplication.
    Mul,
    #[allow(missing_docs)]
    MulI,
    /// Bitwise and.
    And,
    #[allow(missing_docs)]
    AndI,
    /// Bitwise or.
    Or,
    #[allow(missing_docs)]
    OrI,
    /// Bitwise exclusive or.
    Xor,
    #[allow(missing_docs)]
    XorI,
    /// Left shift by the amount modulo 64.
    Shl,
    #[allow(missing_docs)]
    ShlI,
    /// Logical right shift by the amount modulo 64.
    ShrU,
    #[allow(missing_docs)]
    ShrUI,
    /// Arithmetic right shift by the amount modulo 64.
    ShrS,
    #[allow(missing_docs)]
    ShrSI,
    /// `r[d] = r[a] / r[b]`, unsigned; traps on a zero divisor.
    DivU,
    /// Signed division; traps on a zero divisor and on `MIN / -1`.
    DivS,
    /// Unsigned remainder; traps on a zero divisor.
    RemU,
    /// `r[d] = mem8[r[a]]`.
    Load8,
    /// `r[d] = mem16[r[a]]`.
    Load16,
    /// `r[d] = mem32[r[a]]`.
    Load32,
    /// `r[d] = mem64[r[a]]`.
    Load64,
    /// `mem8[r[a]] = r[b]`.
    Store8,
    /// `mem16[r[a]] = r[b]`.
    Store16,
    /// `mem32[r[a]] = r[b]`.
    Store32,
    /// `mem64[r[a]] = r[b]`.
    Store64,
    /// `memcopy(dst r[d], src r[a], len r[b])`.
    MemCopy,
    /// `memfill(dst r[d], byte r[a], len r[b])`.
    MemFill,
    /// `lzcopy(dst r[d], src r[a], len r[b])`.
    LzCopy,
    /// Jump to `t` when `r[d] <u r[a] + r[b]`.
    BrLtUAdd,
    /// Jump to `t` when `r[d] <u r[a] + b`.
    BrLtUAddI,
    /// Jump to `t` when `r[a] - r[b] <u r[d]`.
    BrLtUSub,
    /// `r[d] = mem8[r[a]]`, then `r[a] += b`.
    Load8Inc,
    /// `r[d] = mem16[r[a]]`, then `r[a] += b`.
    Load16Inc,
    /// `r[d] = r[a] + r[b]`, then jump to `t`.
    AddJmp,
    /// `lzcopy(dst r[d], src r[d] - r[a], len r[b])`.
    LzCopySub,
}

/// One entry of a function's fast-path table: a source instruction, or a
/// run of them, in three-address form. Sixteen bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Slot {
    /// The operation.
    pub op: SlotOp,
    /// Source instructions this slot stands for; it is charged this much
    /// fuel and steps the instruction index this far.
    pub n: u8,
    /// How many of the `n` follow the main op (a folded `local.set`, a
    /// fused increment): what a trap in the main op was charged too much.
    pub tail: u8,
    /// The comparison of `Cmp`/`CmpI`/`Br`/`BrI`, as a [`truth`] table.
    pub k: u8,
    /// Destination register.
    pub d: u16,
    /// First source register.
    pub a: u16,
    /// Second source register, or an immediate.
    pub b: i32,
    /// Branch target (instruction index), callee, host id, or the high
    /// half of a `Const64`.
    pub t: u32,
}

impl Slot {
    const fn new(op: SlotOp) -> Slot {
        Slot { op, n: 1, tail: 0, k: 0, d: 0, a: 0, b: 0, t: 0 }
    }

    /// The value of a [`SlotOp::Const64`].
    pub(crate) fn wide(&self) -> i64 {
        ((self.t as i64) << 32) | (self.b as u32 as i64)
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Slot { k, d, a, b, t, .. } = *self;
        let k = truth::name(k);
        // `Add` -> `add r3, r1, r2`; `AddI` -> `add r3, r1, 7`.
        let arith = |f: &mut fmt::Formatter<'_>| {
            let name = format!("{:?}", self.op).to_lowercase();
            match name.strip_suffix('i') {
                Some(name) => write!(f, "{name} r{d}, r{a}, {b}"),
                None => write!(f, "{name} r{d}, r{a}, r{b}"),
            }
        };
        match self.op {
            SlotOp::Halt => write!(f, "halt"),
            SlotOp::Nop => write!(f, "nop"),
            SlotOp::Unreachable => write!(f, "unreachable"),
            SlotOp::Wedge => write!(f, "wedge"),
            SlotOp::Jmp => write!(f, "jmp @{t}"),
            SlotOp::Br => write!(f, "br.{k} r{a}, r{b} -> @{t}"),
            SlotOp::BrI => write!(f, "br.{k} r{a}, {b} -> @{t}"),
            SlotOp::BrEq => write!(f, "br.eq r{a}, r{b} -> @{t}"),
            SlotOp::BrNe => write!(f, "br.ne r{a}, r{b} -> @{t}"),
            SlotOp::BrLtU => write!(f, "br.ltu r{a}, r{b} -> @{t}"),
            SlotOp::BrGeU => write!(f, "br.geu r{a}, r{b} -> @{t}"),
            SlotOp::BrEqI => write!(f, "br.eq r{a}, {b} -> @{t}"),
            SlotOp::BrNeI => write!(f, "br.ne r{a}, {b} -> @{t}"),
            SlotOp::BrLtUI => write!(f, "br.ltu r{a}, {b} -> @{t}"),
            SlotOp::BrGeUI => write!(f, "br.geu r{a}, {b} -> @{t}"),
            SlotOp::BrGtUI => write!(f, "br.gtu r{a}, {b} -> @{t}"),
            SlotOp::BrLeUI => write!(f, "br.leu r{a}, {b} -> @{t}"),
            SlotOp::Call => write!(f, "call fn{t}, window r{a}"),
            SlotOp::Ret => write!(f, "ret r{a} x{b}"),
            SlotOp::Host => write!(f, "host {t}, r{a} x{b}"),
            SlotOp::Mov => write!(f, "mov r{d}, r{a}"),
            SlotOp::Const => write!(f, "mov r{d}, {b}"),
            SlotOp::Const64 => write!(f, "mov r{d}, {}", self.wide()),
            SlotOp::Swap => write!(f, "swap r{a}, r{b}"),
            SlotOp::Cmp => write!(f, "{k} r{d}, r{a}, r{b}"),
            SlotOp::CmpI => write!(f, "{k} r{d}, r{a}, {b}"),
            SlotOp::Load8 => write!(f, "load8 r{d}, [r{a}]"),
            SlotOp::Load16 => write!(f, "load16 r{d}, [r{a}]"),
            SlotOp::Load32 => write!(f, "load32 r{d}, [r{a}]"),
            SlotOp::Load64 => write!(f, "load64 r{d}, [r{a}]"),
            SlotOp::Store8 => write!(f, "store8 [r{a}], r{b}"),
            SlotOp::Store16 => write!(f, "store16 [r{a}], r{b}"),
            SlotOp::Store32 => write!(f, "store32 [r{a}], r{b}"),
            SlotOp::Store64 => write!(f, "store64 [r{a}], r{b}"),
            SlotOp::MemCopy => write!(f, "memcopy r{d}, r{a}, r{b}"),
            SlotOp::MemFill => write!(f, "memfill r{d}, r{a}, r{b}"),
            SlotOp::LzCopy => write!(f, "lzcopy r{d}, r{a}, r{b}"),
            SlotOp::BrLtUAdd => write!(f, "br.ltu r{d}, r{a}+r{b} -> @{t}"),
            SlotOp::BrLtUAddI => write!(f, "br.ltu r{d}, r{a}+{b} -> @{t}"),
            SlotOp::BrLtUSub => write!(f, "br.ltu r{a}-r{b}, r{d} -> @{t}"),
            SlotOp::Load8Inc => write!(f, "load8 r{d}, [r{a}], r{a}+={b}"),
            SlotOp::Load16Inc => write!(f, "load16 r{d}, [r{a}], r{a}+={b}"),
            SlotOp::AddJmp => write!(f, "add r{d}, r{a}, r{b} -> @{t}"),
            SlotOp::LzCopySub => write!(f, "lzcopy r{d}, r{d}-r{a}, r{b}"),
            _ => arith(f),
        }?;
        if self.n > 1 {
            write!(f, " x{}", self.n)?;
        }
        Ok(())
    }
}

/// One function in register form.
#[derive(Debug)]
pub struct RegFunction {
    /// The slot table, indexed like the function's instructions.
    pub code: Vec<Slot>,
    /// Arguments, which the caller leaves in registers `0..n_args`.
    pub n_args: usize,
    /// Arguments plus locals: the index of the first stack register.
    pub first_stack: usize,
    /// Registers in a frame's window: `first_stack` plus the function's
    /// proven maximum stack height.
    pub frame: usize,
}

/// An operand once the producers before a main op are folded into it.
#[derive(Clone, Copy)]
enum Src {
    Reg(u16),
    Imm(i64),
}

/// Translates every function of an analyzed module. Fails only when a
/// frame needs more registers than a slot can name, which takes a policy
/// with `max_stack` beyond 65 000 and a function that uses it.
pub(crate) fn translate(
    module: &Module,
    analysis: &ModuleAnalysis,
) -> Result<Vec<RegFunction>, VerifyError> {
    module
        .functions
        .iter()
        .zip(&analysis.functions)
        .enumerate()
        .map(|(idx, (func, fa))| {
            let first_stack = func.n_args as usize + func.n_locals as usize;
            let frame = first_stack + fa.max_height as usize;
            let limit = u16::MAX as usize;
            if frame > limit {
                return Err(VerifyError::StackLimit {
                    func: idx,
                    at: 0,
                    height: fa.max_height,
                    limit: limit - first_stack,
                });
            }
            let mut index_of = vec![u32::MAX; func.code.len() + 1];
            for (i, insn) in fa.insns.iter().enumerate() {
                index_of[insn.at] = i as u32;
            }
            let tr = Translator { module, func, fa, index_of };
            let mut code: Vec<Slot> = (0..fa.insns.len()).map(|i| tr.slot_at(i)).collect();
            // In index order: the slots a fused one reads are the originals.
            for i in 0..code.len() {
                code[i] = tr.superinstruction(&code, i).unwrap_or(code[i]);
            }
            Ok(RegFunction { code, n_args: func.n_args as usize, first_stack, frame })
        })
        .collect()
}

struct Translator<'a> {
    module: &'a Module,
    func: &'a Function,
    fa: &'a FunctionAnalysis,
    /// Byte offset → instruction index.
    index_of: Vec<u32>,
}

impl Translator<'_> {
    /// The register holding the stack slot at frame-relative height `h`.
    /// `translate` checked that the whole frame fits a `u16`.
    fn stack(&self, h: usize) -> u16 {
        (self.func.n_args as usize + self.func.n_locals as usize + h) as u16
    }

    /// What `op` pushes, when that is a value known without executing
    /// anything: a local's register or a constant. Linear memory never
    /// grows, so `memsize` is one.
    fn producer(&self, op: Op) -> Option<Src> {
        Some(match op {
            Op::LocalGet(n) => Src::Reg(n as u16),
            Op::PushI8(v) => Src::Imm(v as i64),
            Op::PushI32(v) => Src::Imm(v as i64),
            Op::PushI64(v) => Src::Imm(v),
            Op::MemSize => Src::Imm(self.module.memory_bytes() as i64),
            _ => return None,
        })
    }

    /// The longest run that starts at instruction `i`.
    fn slot_at(&self, i: usize) -> Slot {
        if self.fa.insns[i].height.is_none() {
            return Slot::new(SlotOp::Wedge);
        }
        let mut srcs = [Src::Imm(0); 3];
        let mut p = 0;
        while p < srcs.len() {
            let Some(src) = self.fa.insns.get(i + p).and_then(|insn| self.producer(insn.op)) else {
                break;
            };
            srcs[p] = src;
            p += 1;
        }
        // Either the op after the producers takes all of them, or the
        // first is on its own: a shorter fold would leave it out.
        let folded = if p > 0 { self.run(i + p, &srcs[..p]) } else { None };
        folded.or_else(|| self.run(i, &[])).expect("every op has a canonical register form")
    }

    /// The slot for main op `j` with its last `srcs.len()` operands taken
    /// from `srcs`, or `None` when no single slot says that.
    fn run(&self, j: usize, srcs: &[Src]) -> Option<Slot> {
        let insn = self.fa.insns.get(j)?;
        let h = insn.height? as usize;
        let p = srcs.len();
        // Operand `q` of `r`, deepest first.
        let operand = |r: usize, q: usize| {
            if q + p >= r {
                srcs[q + p - r]
            } else {
                Src::Reg(self.stack(h + q - r))
            }
        };
        let reg = |src: Src| match src {
            Src::Reg(r) => Some(r),
            Src::Imm(_) => None,
        };
        let target = |rel: i32| self.index_of[(insn.next as i64 + rel as i64) as usize];
        let next = self.fa.insns.get(j + 1).map(|insn| insn.op);
        // A value-producing main op of arity `r`: the result goes to its
        // stack register, or straight to the local a `local.set` names.
        let value = |slot: Slot, r: usize| match next {
            Some(Op::LocalSet(n)) => Slot { d: n as u16, n: p as u8 + 2, tail: 1, ..slot },
            _ => Slot { d: self.stack(h - r), n: p as u8 + 1, ..slot },
        };
        // A comparison of `(x, y)`: into a register as 0 or 1, or straight
        // into the conditional jump that follows.
        let cmp = |k: u8, x: Src, y: Src, r: usize| {
            let a = reg(x)?;
            match next {
                Some(Op::JmpIf(rel) | Op::JmpIfZ(rel)) => {
                    let k = if matches!(next, Some(Op::JmpIf(_))) { k } else { !k };
                    let jump = &self.fa.insns[j + 1];
                    let t = self.index_of[(jump.next as i64 + rel as i64) as usize];
                    Some(Slot { t, n: p as u8 + 2, ..branch(k, a, y)? })
                }
                _ => {
                    let (op, b) = match y {
                        Src::Reg(y) => (SlotOp::Cmp, y as i32),
                        Src::Imm(y) => (SlotOp::CmpI, i32::try_from(y).ok()?),
                    };
                    Some(value(Slot { k, a, b, ..Slot::new(op) }, r))
                }
            }
        };

        if let Some(alu) = alu(insn.op) {
            if p > 2 {
                return None;
            }
            let (x, y) = (operand(2, 0), operand(2, 1));
            return match alu {
                Alu::Cmp(k) => cmp(k, x, y, 2),
                Alu::Arith(op, op_imm) => {
                    let a = reg(x)?;
                    let (op, b) = match y {
                        Src::Reg(y) => (op, y as i32),
                        Src::Imm(y) => (op_imm, i32::try_from(y).ok()?),
                    };
                    Some(value(Slot { a, b, ..Slot::new(op) }, 2))
                }
                Alu::Div(op) => {
                    Some(value(Slot { a: reg(x)?, b: reg(y)? as i32, ..Slot::new(op) }, 2))
                }
            };
        }
        let arity = match insn.op {
            Op::Eqz | Op::JmpIf(_) | Op::JmpIfZ(_) | Op::LocalSet(_) => 1,
            Op::Load8 | Op::Load16 | Op::Load32 | Op::Load64 => 1,
            Op::Store8 | Op::Store16 | Op::Store32 | Op::Store64 => 2,
            Op::MemCopy | Op::MemFill | Op::LzCopy => 3,
            _ => 0,
        };
        if p > arity {
            return None;
        }
        match insn.op {
            Op::Eqz => cmp(truth::EQ, operand(1, 0), Src::Imm(0), 1),
            Op::JmpIf(rel) | Op::JmpIfZ(rel) => {
                let k = if matches!(insn.op, Op::JmpIf(_)) { truth::NE } else { truth::EQ };
                let a = reg(operand(1, 0))?;
                Some(Slot { t: target(rel), n: p as u8 + 1, ..branch(k, a, Src::Imm(0))? })
            }
            Op::LocalSet(n) => {
                let slot = match operand(1, 0) {
                    Src::Reg(a) => Slot { a, ..Slot::new(SlotOp::Mov) },
                    Src::Imm(v) => constant(v),
                };
                Some(Slot { d: n as u16, n: p as u8 + 1, ..slot })
            }
            Op::Load8 | Op::Load16 | Op::Load32 | Op::Load64 => {
                Some(value(Slot { a: reg(operand(1, 0))?, ..Slot::new(memory_op(insn.op)?) }, 1))
            }
            Op::Store8 | Op::Store16 | Op::Store32 | Op::Store64 => {
                let (a, b) = (reg(operand(2, 0))?, reg(operand(2, 1))? as i32);
                Some(Slot { a, b, n: p as u8 + 1, ..Slot::new(memory_op(insn.op)?) })
            }
            Op::MemCopy | Op::MemFill | Op::LzCopy => {
                let (d, a, b) =
                    (reg(operand(3, 0))?, reg(operand(3, 1))?, reg(operand(3, 2))? as i32);
                Some(Slot { d, a, b, n: p as u8 + 1, ..Slot::new(memory_op(insn.op)?) })
            }

            // The rest fold nothing: a producer on its own, and the ops
            // that move control or whole frames.
            Op::LocalGet(_) | Op::PushI8(_) | Op::PushI32(_) | Op::PushI64(_) | Op::MemSize => {
                let slot = match self.producer(insn.op)? {
                    Src::Reg(a) => Slot { a, ..Slot::new(SlotOp::Mov) },
                    Src::Imm(v) => constant(v),
                };
                Some(Slot { d: self.stack(h), ..slot })
            }
            Op::LocalTee(n) => {
                Some(Slot { d: n as u16, a: self.stack(h - 1), ..Slot::new(SlotOp::Mov) })
            }
            Op::Dup => {
                Some(Slot { d: self.stack(h), a: self.stack(h - 1), ..Slot::new(SlotOp::Mov) })
            }
            Op::Swap => Some(Slot {
                a: self.stack(h - 2),
                b: self.stack(h - 1) as i32,
                ..Slot::new(SlotOp::Swap)
            }),
            Op::Nop | Op::Drop => Some(Slot::new(SlotOp::Nop)),
            Op::Unreachable => Some(Slot::new(SlotOp::Unreachable)),
            Op::Halt => Some(Slot { a: h as u16, ..Slot::new(SlotOp::Halt) }),
            Op::Jmp(rel) => Some(Slot { t: target(rel), ..Slot::new(SlotOp::Jmp) }),
            Op::Call(idx) => {
                let n_args = self.module.functions[idx as usize].n_args as usize;
                Some(Slot { a: self.stack(h - n_args), t: idx as u32, ..Slot::new(SlotOp::Call) })
            }
            Op::Ret => Some(Slot { a: self.stack(0), b: h as i32, ..Slot::new(SlotOp::Ret) }),
            Op::HostCall(id) => {
                let arity = HostId::from_id(id).expect("verifier admits only known hosts").arity();
                Some(Slot {
                    a: self.stack(h - arity),
                    b: arity as i32,
                    t: id as u32,
                    ..Slot::new(SlotOp::Host)
                })
            }
            _ => unreachable!("binary operators returned above"),
        }
    }

    /// Whether register `r` is a stack register slot `j` pops: at or above
    /// the height where `j` falls through, which its branch target shares.
    fn popped_by(&self, code: &[Slot], j: usize, r: u16) -> bool {
        let after = self.fa.insns.get(j + code[j].n as usize).and_then(|insn| insn.height);
        after.is_some_and(|h| r >= self.stack(h as usize))
    }

    /// Slot `i` fused with the one or two slots it falls through to, when
    /// they have one of the five shapes of the module doc and every write
    /// the fused slot skips is to a stack register its last part pops.
    fn superinstruction(&self, code: &[Slot], i: usize) -> Option<Slot> {
        use SlotOp::*;
        let (first, j) = (code[i], i + code[i].n as usize);
        let second = *code.get(j)?;
        let (n, s, t) = (first.n + second.n, first.d, second.d);
        let fused = |op, tail, from: Slot| Slot { op, n, tail, ..from };
        Some(match (first.op, second.op) {
            (Add | AddI, BrLtU)
                if second.b == s as i32 && second.a != s && self.popped_by(code, j, s) =>
            {
                let op = if first.op == Add { BrLtUAdd } else { BrLtUAddI };
                Slot { d: second.a, t: second.t, ..fused(op, 0, first) }
            }
            (Load8 | Load16, AddI) if (t, second.a) == (first.a, first.a) && s != first.a => {
                let op = if first.op == Load8 { Load8Inc } else { Load16Inc };
                Slot { b: second.b, ..fused(op, first.tail + second.n, first) }
            }
            (Add, Jmp) => Slot { t: second.t, ..fused(AddJmp, 0, first) },
            (Mov, Sub) => {
                let k = j + second.n as usize;
                let third = *code.get(k)?;
                let dead = s != t
                    && ![second.a, second.b as u16].contains(&s)
                    && self.popped_by(code, k, s)
                    && self.popped_by(code, k, t);
                let n = n + third.n;
                match third.op {
                    BrLtU if dead && (third.a, third.b) == (t, s as i32) => {
                        Slot { op: BrLtUSub, n, d: first.a, t: third.t, ..second }
                    }
                    LzCopy
                        if dead
                            && (third.d, third.a, first.a) == (s, t, second.a)
                            && ![s, t].contains(&(third.b as u16)) =>
                    {
                        Slot { op: LzCopySub, n, d: first.a, a: second.b as u16, ..third }
                    }
                    _ => return None,
                }
            }
            _ => return None,
        })
    }
}

/// The branch on comparison `k` of `(r[a], y)`, target left to the caller.
fn branch(k: u8, a: u16, y: Src) -> Option<Slot> {
    use SlotOp::*;
    Some(match y {
        Src::Reg(b) => {
            let (op, a, b) = match k {
                truth::EQ => (BrEq, a, b),
                truth::NE => (BrNe, a, b),
                truth::LTU => (BrLtU, a, b),
                truth::GEU => (BrGeU, a, b),
                truth::GTU => (BrLtU, b, a),
                truth::LEU => (BrGeU, b, a),
                _ => (Br, a, b),
            };
            Slot { k, a, b: b as i32, ..Slot::new(op) }
        }
        Src::Imm(b) => {
            let op = match k {
                truth::EQ => BrEqI,
                truth::NE => BrNeI,
                truth::LTU => BrLtUI,
                truth::GEU => BrGeUI,
                truth::GTU => BrGtUI,
                truth::LEU => BrLeUI,
                _ => BrI,
            };
            Slot { k, a, b: i32::try_from(b).ok()?, ..Slot::new(op) }
        }
    })
}

/// `r[d] = v`, in the narrowest form that holds `v`.
fn constant(v: i64) -> Slot {
    match i32::try_from(v) {
        Ok(b) => Slot { b, ..Slot::new(SlotOp::Const) },
        Err(_) => Slot { b: v as i32, t: (v >> 32) as u32, ..Slot::new(SlotOp::Const64) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::sandbox::SandboxPolicy;

    fn slots_of(src: &str, func: &str) -> Vec<Slot> {
        let module = assemble(src).unwrap();
        let idx = module.find(func).unwrap();
        let analyzed = module.analyzed(&SandboxPolicy::for_pads()).unwrap();
        analyzed.slots(idx).to_vec()
    }

    #[test]
    fn a_slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn truth_tables_say_what_the_comparisons_mean() {
        let values = [0i64, 1, 2, -1, -2, i64::MAX, i64::MIN];
        for a in values {
            for b in values {
                let (ua, ub) = (a as u64, b as u64);
                for (table, want) in [
                    (truth::EQ, a == b),
                    (truth::NE, a != b),
                    (truth::LTU, ua < ub),
                    (truth::GEU, ua >= ub),
                    (truth::GTU, ua > ub),
                    (truth::LEU, ua <= ub),
                    (truth::LTS, a < b),
                    (truth::GTS, a > b),
                    (!truth::LTS, a >= b),
                    (!truth::GTS, a <= b),
                ] {
                    assert_eq!(truth::holds(table, a, b), want, "{} {a} {b}", truth::name(table));
                }
            }
        }
    }

    #[test]
    fn wide_constants_survive_the_split() {
        for v in [i64::MAX, i64::MIN, 1 << 32, -(1 << 32) - 1, 0x1234_5678_9ABC_DEF0] {
            let slot = constant(v);
            assert_eq!((slot.op, slot.wide()), (SlotOp::Const64, v));
        }
        assert_eq!(constant(-1).op, SlotOp::Const);
    }

    #[test]
    fn a_frame_with_more_registers_than_a_slot_can_name_is_refused() {
        let tall = |pushes: usize| {
            let mut src = String::from(".memory 1\n.func f args=1 locals=0\n");
            src.push_str(&"    push 1\n".repeat(pushes));
            src.push_str(&"    drop\n".repeat(pushes - 1));
            src.push_str("    ret\n");
            let policy = SandboxPolicy { max_stack: 100_000, ..SandboxPolicy::default() };
            assemble(&src).unwrap().analyzed(&policy).map(|a| a.fast[0].frame)
        };
        // One argument register plus the stack registers: 65 535 fit.
        assert_eq!(tall(65_534), Ok(65_535));
        assert!(matches!(
            tall(65_535),
            Err(VerifyError::StackLimit { func: 0, height: 65_535, limit: 65_534, .. })
        ));
    }

    #[test]
    fn a_gzip_token_is_ten_dispatches_for_a_literal_and_thirteen_for_a_match() {
        // A translation change that stops folding or fusing should fail
        // here, not in a benchmark.
        let code = slots_of(include_str!("../../../pads/fasm/gzip.fasm"), "decode");
        // The loop header is where the back edges land: `out >= out_end`.
        let header = code
            .iter()
            .enumerate()
            .filter(|(i, s)| s.op == SlotOp::Jmp && (s.t as usize) < *i)
            .map(|(_, s)| s.t as usize)
            .min()
            .expect("decode loops");
        let done = code[header].t;
        assert_eq!(code[header].to_string(), format!("br.geu r9, r10 -> @{done} x4"));
        // One token, header to header: every branch to an exit (a block
        // that returns) falls through, and `c >= 0x80` is taken for a match.
        let token = |is_match: bool| {
            let (mut pc, mut path, mut fuel) = (header, Vec::new(), 0);
            loop {
                let s = code[pc];
                path.push(s.op);
                fuel += s.n as u32;
                pc += s.n as usize;
                if matches!(s.op, SlotOp::Jmp | SlotOp::AddJmp) {
                    assert_eq!(s.t as usize, header);
                    return (path, fuel);
                }
                let exit = code.get(s.t as usize + 1).map(|s| s.op) == Some(SlotOp::Ret);
                if s.to_string().starts_with("br.") && is_match && !exit {
                    pc = s.t as usize;
                }
            }
        };
        let (literal, fuel) = token(false);
        assert_eq!((literal.len(), fuel), (10, 48), "{literal:?}");
        let (matched, fuel) = token(true);
        assert_eq!((matched.len(), fuel), (13, 64), "{matched:?}");
        use SlotOp::*;
        for form in [Load8Inc, BrLtUAdd, AddJmp] {
            assert!(literal.contains(&form), "{form:?} {literal:?}");
        }
        for form in [Load8Inc, BrLtUAddI, Load16Inc, BrLtUSub, BrLtUAdd, LzCopySub, AddJmp] {
            assert!(matched.contains(&form), "{form:?} {matched:?}");
        }
        assert_eq!(code[header + 8].to_string(), "load8 r11, [r7], r7+=1 x7");
        // All three operands of the bulk copy fold into it.
        let copy = code.iter().find(|s| s.op == SlotOp::MemCopy).unwrap();
        assert_eq!(copy.to_string(), "memcopy r9, r7, r12 x4");
    }

    #[test]
    fn three_gets_and_a_bulk_op_are_one_slot() {
        for op in ["memcopy", "lzcopy", "memfill"] {
            let src = format!(
                ".memory 1\n.func f args=3 locals=0\n local.get 2\n local.get 0\n local.get 1\n \
                 {op}\n push 0\n ret\n"
            );
            let code = slots_of(&src, "f");
            assert_eq!(code[0].to_string(), format!("{op} r2, r0, r1 x4"));
            // From the second get on, one operand is already on the stack.
            assert_eq!(code[1].to_string(), format!("{op} r3, r0, r1 x3"));
            assert_eq!(code[3].to_string(), format!("{op} r3, r4, r5"));
        }
    }

    #[test]
    fn what_does_not_fit_a_slot_keeps_its_stack_register() {
        let code = slots_of(
            r#"
            .memory 1
            .func f args=1 locals=1
                push 4
                local.get 0
                sub
                push 0x100000000
                add
                local.get 0
                lts
                jmpifz out
                memsize
                local.set 1
            out:
                local.get 1
                ret
            "#,
            "f",
        );
        let show: Vec<String> = code.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            show,
            [
                // An immediate on the left of `sub` is materialised.
                "mov r2, 4",
                "sub r2, r2, r0 x2",
                "sub r2, r2, r3",
                // So is one too wide for a slot's immediate field.
                "mov r3, 4294967296",
                "add r2, r2, r3",
                // A signed order branches through the truth-table form,
                // and `jmpifz` takes its complement.
                "br.ges r2, r0 -> @10 x3",
                "br.ges r2, r3 -> @10 x2",
                "br.eq r2, 0 -> @10",
                // `memsize` is a constant of the module.
                "mov r1, 65536 x2",
                "mov r1, r2",
                "mov r2, r1",
                "ret r2 x1",
            ]
        );
    }
}
