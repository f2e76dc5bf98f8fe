//! Value-range dataflow: interval + known-bits abstract interpretation
//! over locals and the operand stack.
//!
//! Runs after the stack-height pass (so every reachable instruction has a
//! proven entry height) and computes, per instruction, what the analyzer
//! can say about the values that will be on the stack when it executes:
//!
//! * an **interval** `[lo, hi]` in signed i64 order, and
//! * **known bits** — bits proven zero / proven one for every value the
//!   slot can hold — which carry precision through the masking idioms
//!   (`and 7`, `and 0xFF`) protocol decoders use for alignment and byte
//!   extraction, where plain intervals lose everything after a join.
//!
//! From those facts the pass *discharges* runtime checks: divisions whose
//! divisor cannot be zero, shifts whose amount is already in `[0, 63]`,
//! memory operations whose entire address range is proven inside linear
//! memory, and host calls whose argument contract is satisfied. Each
//! discharged check is recorded as a per-pc proven-safe fact
//! ([`InsnFacts::proven`]) that lints, the annotated disassembly and the
//! claims ledger report, and the claims auditor
//! ([`crate::machine::Machine::new_audited`]) re-checks every fact against
//! observed execution. (The fast path keeps every run-time check: its
//! speed comes from the stack-height proof, see [`super::reg`].)
//!
//! The pass also surfaces *certain-trap* lints — a divisor that is
//! provably always zero, an access provably always out of bounds — and the
//! shift-amount-masked lint for shifts whose amount can never be in
//! `[0, 63]` (the machine masks rather than traps, which is almost never
//! what the author meant).
//!
//! ## Soundness
//!
//! Every transfer function over-approximates the interpreter's concrete
//! semantics (`wrapping_*` arithmetic, zero-extending loads, masked
//! shifts). Loop headers are joined with interval hulls and widened to
//! ±∞ after [`WIDEN_AFTER`] unstable visits, so the fixpoint terminates;
//! known bits form a finite lattice and only ever lose bits at joins.
//! Unreachable blocks (entry height `None`) are never visited and keep
//! empty facts.

use crate::bytecode::Op;
use crate::host::HostId;
use crate::module::{Function, Module};

use super::{FuncCfg, Lint};

/// Joins into a block beyond this count switch from interval hull to
/// widening (unstable bounds jump straight to ±∞).
const WIDEN_AFTER: u32 = 3;

/// Hard cap on block visits per function; on pathological CFGs the pass
/// gives up and returns empty (trivially sound) facts rather than spin.
const MAX_VISITS_PER_BLOCK: usize = 64;

/// Bit flags for checks the range pass discharged statically.
pub mod proven {
    /// The divisor of this `divu`/`divs`/`remu` can never be zero.
    pub const DIV_NONZERO: u8 = 1 << 0;
    /// This `divs` can never overflow (`i64::MIN / -1` is excluded).
    pub const DIV_NO_OVERFLOW: u8 = 1 << 1;
    /// The shift amount is already in `[0, 63]`: masking is a no-op.
    pub const SHIFT_IN_RANGE: u8 = 1 << 2;
    /// Every memory range this op touches lies inside linear memory.
    pub const MEM_IN_BOUNDS: u8 = 1 << 3;
    /// The host call's argument memory contract is statically satisfied.
    pub const HOST_ARGS_OK: u8 = 1 << 4;
}

/// An abstract i64: a signed interval plus known-bit masks.
///
/// Invariants kept by [`AbsVal::normalized`]: `lo <= hi`, `zeros` and
/// `ones` are disjoint, and the interval and bit facts agree (each is
/// refined from the other where the refinement is sound).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbsVal {
    /// Least possible value (signed).
    pub lo: i64,
    /// Greatest possible value (signed).
    pub hi: i64,
    /// Bits proven `0` in every possible value.
    pub zeros: u64,
    /// Bits proven `1` in every possible value.
    pub ones: u64,
}

impl AbsVal {
    /// The unconstrained value.
    pub const TOP: AbsVal = AbsVal { lo: i64::MIN, hi: i64::MAX, zeros: 0, ones: 0 };

    /// The constant `v`.
    pub fn constant(v: i64) -> AbsVal {
        AbsVal { lo: v, hi: v, zeros: !(v as u64), ones: v as u64 }
    }

    /// The interval `[lo, hi]` with bits derived from it.
    pub fn range(lo: i64, hi: i64) -> AbsVal {
        AbsVal { lo, hi, zeros: 0, ones: 0 }.normalized()
    }

    /// A value with the given known bits and no interval constraint.
    fn from_bits(zeros: u64, ones: u64) -> AbsVal {
        AbsVal { lo: i64::MIN, hi: i64::MAX, zeros, ones }.normalized()
    }

    /// Re-establishes the cross-refinement invariants.
    fn normalized(mut self) -> AbsVal {
        if self.lo > self.hi || self.zeros & self.ones != 0 {
            // Contradictory facts can only come from over-refinement bugs;
            // degrade to TOP rather than propagate nonsense.
            debug_assert!(false, "contradictory AbsVal {self:?}");
            return AbsVal::TOP;
        }
        if self.lo == self.hi {
            self.zeros = !(self.lo as u64);
            self.ones = self.lo as u64;
            return self;
        }
        // Interval → bits: a non-negative range bounds the value's width.
        if self.lo >= 0 {
            let lz = (self.hi as u64).leading_zeros();
            if lz > 0 {
                self.zeros |= if lz >= 64 { !0 } else { !0u64 << (64 - lz) };
            }
        } else if self.hi < 0 {
            self.ones |= 1 << 63;
        }
        // Bits → interval: with the sign bit known, signed order agrees
        // with the order of the unknown low bits, so the extremes are
        // "all unknown bits 0" and "all unknown bits 1".
        if (self.zeros | self.ones) & (1 << 63) != 0 {
            let min = self.ones as i64;
            let max = (self.ones | !self.zeros) as i64;
            self.lo = self.lo.max(min);
            self.hi = self.hi.min(max);
            if self.lo > self.hi {
                debug_assert!(false, "contradictory AbsVal after refinement {self:?}");
                return AbsVal::TOP;
            }
        }
        self
    }

    /// Whether nothing is known.
    pub fn is_top(&self) -> bool {
        *self == AbsVal::TOP
    }

    /// The single value this must be, if constant.
    pub fn as_const(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether `v` is a possible value.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v
            && v <= self.hi
            && (v as u64) & self.zeros == 0
            && (v as u64) & self.ones == self.ones
    }

    /// Whether zero is impossible.
    pub fn excludes_zero(&self) -> bool {
        self.lo > 0 || self.hi < 0 || self.ones != 0
    }

    /// Whether the value is provably non-negative.
    pub fn non_negative(&self) -> bool {
        self.lo >= 0
    }

    /// Least upper bound: interval hull, intersected bit knowledge.
    fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            zeros: self.zeros & other.zeros,
            ones: self.ones & other.ones,
        }
        .normalized()
    }

    /// Widening: unstable interval bounds jump to ±∞; bits still
    /// intersect (the bit lattice is finite, no widening needed).
    fn widen(&self, next: &AbsVal) -> AbsVal {
        AbsVal {
            lo: if next.lo < self.lo { i64::MIN } else { self.lo },
            hi: if next.hi > self.hi { i64::MAX } else { self.hi },
            zeros: self.zeros & next.zeros,
            ones: self.ones & next.ones,
        }
        .normalized()
    }
}

impl core::fmt::Display for AbsVal {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_top() {
            return write!(f, "⊤");
        }
        if let Some(c) = self.as_const() {
            return write!(f, "{c}");
        }
        write!(f, "[{}..{}]", self.lo, self.hi)
    }
}

/// Range-pass facts for one instruction.
#[derive(Clone, Default, Debug)]
pub struct InsnFacts {
    /// Discharged checks (see [`proven`]), zero when nothing was proven.
    pub proven: u8,
    /// Abstract values of the operands this instruction pops, top of
    /// stack first. Recorded only at *audit sites* (branches, host calls,
    /// divisions, shifts, memory ops); empty elsewhere.
    pub operands: Vec<AbsVal>,
}

/// Everything the range pass produced for one function.
pub(super) struct RangeOutcome {
    /// Per-instruction facts, aligned with `FunctionAnalysis::insns`.
    pub facts: Vec<InsnFacts>,
    /// Certain-trap and masked-shift lints discovered along the way.
    pub lints: Vec<Lint>,
}

/// Abstract machine state at one program point: the frame-relative
/// operand stack and the function's locals.
#[derive(Clone, PartialEq, Eq)]
struct State {
    stack: Vec<AbsVal>,
    locals: Vec<AbsVal>,
}

impl State {
    fn entry(func: &Function) -> State {
        let mut locals = vec![AbsVal::TOP; func.n_args as usize];
        // Non-argument locals are zero-initialized by `enter`.
        locals.extend(std::iter::repeat_n(AbsVal::constant(0), func.n_locals as usize));
        State { stack: Vec::new(), locals }
    }

    /// Operand `i` positions below the top (0 = top).
    fn peek(&self, i: usize) -> AbsVal {
        self.stack.get(self.stack.len().wrapping_sub(1 + i)).copied().unwrap_or(AbsVal::TOP)
    }

    fn pop(&mut self) -> AbsVal {
        // Heights are proven, so an empty pop can only mean the caller is
        // walking a block the height pass never admitted; stay total.
        self.stack.pop().unwrap_or(AbsVal::TOP)
    }

    fn push(&mut self, v: AbsVal) {
        self.stack.push(v);
    }

    fn join_from(&self, other: &State, widen: bool) -> State {
        let op = |a: &AbsVal, b: &AbsVal| if widen { a.widen(b) } else { a.join(b) };
        State {
            stack: self.stack.iter().zip(&other.stack).map(|(a, b)| op(a, b)).collect(),
            locals: self.locals.iter().zip(&other.locals).map(|(a, b)| op(a, b)).collect(),
        }
    }
}

/// Shared inputs for the transfer function.
struct Ctx<'a> {
    func_idx: usize,
    /// Linear memory size in bytes (fixed for the module's lifetime).
    mem: i128,
    module: &'a Module,
    exit_heights: &'a [Option<u32>],
}

/// Abstract addition; overflow loses the interval (wrapping semantics).
fn abs_add(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let lo = a.lo as i128 + b.lo as i128;
    let hi = a.hi as i128 + b.hi as i128;
    if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
        AbsVal::range(lo as i64, hi as i64)
    } else {
        AbsVal::TOP
    }
}

fn abs_sub(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let lo = a.lo as i128 - b.hi as i128;
    let hi = a.hi as i128 - b.lo as i128;
    if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
        AbsVal::range(lo as i64, hi as i64)
    } else {
        AbsVal::TOP
    }
}

fn abs_mul(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let corners = [
        a.lo as i128 * b.lo as i128,
        a.lo as i128 * b.hi as i128,
        a.hi as i128 * b.lo as i128,
        a.hi as i128 * b.hi as i128,
    ];
    let lo = *corners.iter().min().expect("four corners");
    let hi = *corners.iter().max().expect("four corners");
    if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
        AbsVal::range(lo as i64, hi as i64)
    } else {
        AbsVal::TOP
    }
}

fn abs_divu(a: &AbsVal, b: &AbsVal) -> AbsVal {
    // Precise only where unsigned and signed agree: both operands
    // non-negative and the divisor at least 1.
    if a.lo >= 0 && b.lo >= 1 {
        AbsVal::range(a.lo / b.hi, a.hi / b.lo)
    } else {
        AbsVal::TOP
    }
}

fn abs_divs(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if b.lo >= 1 || b.hi <= -1 {
        let corners = [
            a.lo as i128 / b.lo as i128,
            a.lo as i128 / b.hi as i128,
            a.hi as i128 / b.lo as i128,
            a.hi as i128 / b.hi as i128,
        ];
        let lo = *corners.iter().min().expect("four corners");
        let hi = *corners.iter().max().expect("four corners");
        if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
            return AbsVal::range(lo as i64, hi as i64);
        }
    }
    AbsVal::TOP
}

fn abs_remu(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if b.lo >= 1 {
        // r = a mod b < b ≤ b.hi, for any a (unsigned remainder).
        let mut hi = b.hi - 1;
        if a.lo >= 0 {
            hi = hi.min(a.hi);
        }
        AbsVal::range(0, hi)
    } else {
        AbsVal::TOP
    }
}

fn abs_and(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let mut r = AbsVal::from_bits(a.zeros | b.zeros, a.ones & b.ones);
    // A non-negative operand bounds the result: 0 ≤ a&b ≤ min masking side.
    if a.lo >= 0 {
        r.lo = r.lo.max(0);
        r.hi = r.hi.min(a.hi);
    }
    if b.lo >= 0 {
        r.lo = r.lo.max(0);
        r.hi = r.hi.min(b.hi);
    }
    r.normalized()
}

fn abs_or(a: &AbsVal, b: &AbsVal) -> AbsVal {
    AbsVal::from_bits(a.zeros & b.zeros, a.ones | b.ones)
}

fn abs_xor(a: &AbsVal, b: &AbsVal) -> AbsVal {
    AbsVal::from_bits(
        (a.zeros & b.zeros) | (a.ones & b.ones),
        (a.zeros & b.ones) | (a.ones & b.zeros),
    )
}

/// The machine's effective shift amount: `(b as u32) % 64`.
fn shift_amount(b: &AbsVal) -> Option<u32> {
    b.as_const().map(|v| (v as u32) % 64)
}

fn abs_shl(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let Some(s) = shift_amount(b) else { return AbsVal::TOP };
    if s == 0 {
        return *a;
    }
    let zeros = (a.zeros << s) | ((1u64 << s) - 1);
    let ones = a.ones << s;
    let bits = AbsVal::from_bits(zeros, ones);
    if a.lo >= 0 && (a.hi as i128) << s <= i64::MAX as i128 {
        AbsVal { lo: a.lo << s, hi: a.hi << s, ..bits }.normalized()
    } else {
        bits
    }
}

fn abs_shru(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let Some(s) = shift_amount(b) else { return AbsVal::TOP };
    if s == 0 {
        return *a;
    }
    // Top s bits become zero; known bits shift down.
    let zeros = (a.zeros >> s) | (!0u64 << (64 - s));
    let ones = a.ones >> s;
    let bits = AbsVal::from_bits(zeros, ones);
    if a.lo >= 0 {
        AbsVal { lo: a.lo >> s, hi: a.hi >> s, ..bits }.normalized()
    } else {
        bits
    }
}

fn abs_shrs(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let Some(s) = shift_amount(b) else { return AbsVal::TOP };
    // Arithmetic shift is monotone, so the interval maps directly.
    AbsVal::range(a.lo >> s, a.hi >> s)
}

/// `[0,1]` boolean result, sharpened when the comparison is decided.
fn abs_bool(decided: Option<bool>) -> AbsVal {
    match decided {
        Some(true) => AbsVal::constant(1),
        Some(false) => AbsVal::constant(0),
        None => AbsVal::range(0, 1),
    }
}

/// Signed interval comparison verdicts (`None` when undecided).
fn decide_lt(a: &AbsVal, b: &AbsVal) -> Option<bool> {
    if a.hi < b.lo {
        Some(true)
    } else if a.lo >= b.hi {
        Some(false)
    } else {
        None
    }
}

fn decide_eq(a: &AbsVal, b: &AbsVal) -> Option<bool> {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Some(x == y),
        _ => {
            if a.hi < b.lo || b.hi < a.lo {
                Some(false)
            } else {
                None
            }
        }
    }
}

/// Unsigned comparisons are decided via the signed intervals only when
/// both operands are proven non-negative (where the two orders agree).
fn decide_ltu(a: &AbsVal, b: &AbsVal) -> Option<bool> {
    if a.non_negative() && b.non_negative() {
        decide_lt(a, b)
    } else {
        None
    }
}

/// Whether `[addr, addr+len)` is statically inside linear memory.
fn range_in_bounds(addr: &AbsVal, len: &AbsVal, mem: i128) -> bool {
    addr.lo >= 0 && len.lo >= 0 && addr.hi as i128 + len.hi as i128 <= mem
}

/// Whether `[addr, addr+len)` can never be a valid range: every possible
/// addr/len combination traps.
fn range_never_in_bounds(addr: &AbsVal, len_lo: i64, mem: i128) -> bool {
    addr.hi < 0 || addr.lo as i128 + len_lo.max(0) as i128 > mem
}

/// Applies one instruction to `st`, returning its facts. Soundness:
/// every arm over-approximates the matching interpreter arm in
/// `machine.rs` (wrapping arithmetic, zero-extending loads, masked
/// shifts, zero-or-status host results).
fn transfer(
    st: &mut State,
    op: &Op,
    ctx: &Ctx,
    lints: Option<&mut Vec<Lint>>,
    at: usize,
) -> InsnFacts {
    let mut facts = InsnFacts::default();
    let mem = ctx.mem;
    // Certain-trap lints are only collected on the recording pass.
    let lint = |l: Lint, sink: Option<&mut Vec<Lint>>| {
        if let Some(s) = sink {
            s.push(l);
        }
    };
    match *op {
        Op::Halt | Op::Nop | Op::Unreachable | Op::Ret | Op::Jmp(_) => {}
        Op::JmpIf(_) | Op::JmpIfZ(_) => {
            facts.operands = vec![st.peek(0)];
            st.pop();
        }
        Op::Call(idx) => {
            let callee = &ctx.module.functions[idx as usize];
            for _ in 0..callee.n_args {
                st.pop();
            }
            let produced = ctx.exit_heights[idx as usize].unwrap_or(1);
            for _ in 0..produced {
                st.push(AbsVal::TOP);
            }
        }
        Op::HostCall(id) => {
            let host = HostId::from_id(id).expect("verifier admits only known hosts");
            let arity = host.arity();
            facts.operands = (0..arity).map(|i| st.peek(i)).collect();
            let ok = match host {
                // Stack [src, len, dst]; writes 20 digest bytes at dst.
                HostId::Sha1 => {
                    let (dst, len, src) = (st.peek(0), st.peek(1), st.peek(2));
                    range_in_bounds(&src, &len, mem)
                        && range_in_bounds(&dst, &AbsVal::constant(20), mem)
                }
                // Stack [ptr, len].
                HostId::Log => {
                    let (len, ptr) = (st.peek(0), st.peek(1));
                    range_in_bounds(&ptr, &len, mem)
                }
                // Abort always traps; there is no contract to discharge.
                HostId::Abort => false,
                // Stack [a, b, len].
                HostId::MemEq => {
                    let (len, b, a) = (st.peek(0), st.peek(1), st.peek(2));
                    range_in_bounds(&a, &len, mem) && range_in_bounds(&b, &len, mem)
                }
                // Stack [src, len].
                HostId::WeakSum => {
                    let (len, src) = (st.peek(0), st.peek(1));
                    range_in_bounds(&src, &len, mem)
                }
            };
            if ok {
                facts.proven |= proven::HOST_ARGS_OK;
            }
            for _ in 0..arity {
                st.pop();
            }
            match host {
                HostId::Sha1 | HostId::Log => st.push(AbsVal::constant(0)),
                HostId::MemEq => st.push(AbsVal::range(0, 1)),
                HostId::WeakSum => st.push(AbsVal::range(0, u32::MAX as i64)),
                HostId::Abort => {}
            }
        }
        Op::PushI8(v) => st.push(AbsVal::constant(v as i64)),
        Op::PushI32(v) => st.push(AbsVal::constant(v as i64)),
        Op::PushI64(v) => st.push(AbsVal::constant(v)),
        Op::LocalGet(n) => {
            let v = st.locals.get(n as usize).copied().unwrap_or(AbsVal::TOP);
            st.push(v);
        }
        Op::LocalSet(n) => {
            let v = st.pop();
            if let Some(slot) = st.locals.get_mut(n as usize) {
                *slot = v;
            }
        }
        Op::LocalTee(n) => {
            let v = st.peek(0);
            if let Some(slot) = st.locals.get_mut(n as usize) {
                *slot = v;
            }
        }
        Op::Drop => {
            st.pop();
        }
        Op::Dup => {
            let v = st.peek(0);
            st.push(v);
        }
        Op::Swap => {
            let n = st.stack.len();
            if n >= 2 {
                st.stack.swap(n - 1, n - 2);
            }
        }
        Op::Add | Op::Sub | Op::Mul | Op::And | Op::Or | Op::Xor => {
            let b = st.pop();
            let a = st.pop();
            st.push(match *op {
                Op::Add => abs_add(&a, &b),
                Op::Sub => abs_sub(&a, &b),
                Op::Mul => abs_mul(&a, &b),
                Op::And => abs_and(&a, &b),
                Op::Or => abs_or(&a, &b),
                _ => abs_xor(&a, &b),
            });
        }
        Op::DivU | Op::DivS | Op::RemU => {
            let (b, a) = (st.peek(0), st.peek(1));
            facts.operands = vec![b, a];
            if b.excludes_zero() {
                facts.proven |= proven::DIV_NONZERO;
            }
            if matches!(*op, Op::DivS) && !(a.contains(i64::MIN) && b.contains(-1)) {
                facts.proven |= proven::DIV_NO_OVERFLOW;
            }
            if b.as_const() == Some(0) {
                lint(Lint::CertainDivideByZero { func: ctx.func_idx, at }, lints);
            }
            st.pop();
            st.pop();
            st.push(match *op {
                Op::DivU => abs_divu(&a, &b),
                Op::DivS => abs_divs(&a, &b),
                _ => abs_remu(&a, &b),
            });
        }
        Op::Shl | Op::ShrU | Op::ShrS => {
            let (b, a) = (st.peek(0), st.peek(1));
            facts.operands = vec![b, a];
            if b.lo >= 0 && b.hi <= 63 {
                facts.proven |= proven::SHIFT_IN_RANGE;
            } else if b.hi < 0 || b.lo > 63 {
                // Every possible amount gets masked: almost certainly a bug.
                lint(Lint::ShiftAmountMasked { func: ctx.func_idx, at }, lints);
            }
            st.pop();
            st.pop();
            st.push(match *op {
                Op::Shl => abs_shl(&a, &b),
                Op::ShrU => abs_shru(&a, &b),
                _ => abs_shrs(&a, &b),
            });
        }
        Op::Eq | Op::Ne | Op::LtU | Op::LtS | Op::GtU | Op::GtS | Op::LeU | Op::GeU => {
            let b = st.pop();
            let a = st.pop();
            let decided = match *op {
                Op::Eq => decide_eq(&a, &b),
                Op::Ne => decide_eq(&a, &b).map(|v| !v),
                Op::LtS => decide_lt(&a, &b),
                Op::GtS => decide_lt(&b, &a),
                Op::LtU => decide_ltu(&a, &b),
                Op::GtU => decide_ltu(&b, &a),
                Op::LeU => decide_ltu(&b, &a).map(|v| !v),
                _ => decide_ltu(&a, &b).map(|v| !v),
            };
            st.push(abs_bool(decided));
        }
        Op::Eqz => {
            let v = st.pop();
            st.push(if v.excludes_zero() {
                AbsVal::constant(0)
            } else if v.as_const() == Some(0) {
                AbsVal::constant(1)
            } else {
                AbsVal::range(0, 1)
            });
        }
        Op::Load8 | Op::Load16 | Op::Load32 | Op::Load64 => {
            let width = load_store_width(op);
            let addr = st.peek(0);
            facts.operands = vec![addr];
            if range_in_bounds(&addr, &AbsVal::constant(width as i64), mem) {
                facts.proven |= proven::MEM_IN_BOUNDS;
            } else if range_never_in_bounds(&addr, width as i64, mem) {
                lint(Lint::CertainOutOfBounds { func: ctx.func_idx, at }, lints);
            }
            st.pop();
            // Loads zero-extend below 8 bytes.
            st.push(if width < 8 {
                AbsVal::range(0, (1i64 << (8 * width)) - 1)
            } else {
                AbsVal::TOP
            });
        }
        Op::Store8 | Op::Store16 | Op::Store32 | Op::Store64 => {
            let width = load_store_width(op);
            // Stack [addr, value].
            let (value, addr) = (st.peek(0), st.peek(1));
            facts.operands = vec![value, addr];
            if range_in_bounds(&addr, &AbsVal::constant(width as i64), mem) {
                facts.proven |= proven::MEM_IN_BOUNDS;
            } else if range_never_in_bounds(&addr, width as i64, mem) {
                lint(Lint::CertainOutOfBounds { func: ctx.func_idx, at }, lints);
            }
            st.pop();
            st.pop();
        }
        Op::MemCopy | Op::MemFill | Op::LzCopy => {
            // Stack [dst, mid, len]; `mid` is src (copy) or fill byte.
            let (len, mid, dst) = (st.peek(0), st.peek(1), st.peek(2));
            facts.operands = vec![len, mid, dst];
            let dst_ok = range_in_bounds(&dst, &len, mem);
            let src_ok = match *op {
                Op::MemFill => true,
                _ => range_in_bounds(&mid, &len, mem),
            };
            if dst_ok && src_ok {
                facts.proven |= proven::MEM_IN_BOUNDS;
            } else if range_never_in_bounds(&dst, len.lo, mem) {
                lint(Lint::CertainOutOfBounds { func: ctx.func_idx, at }, lints);
            }
            st.pop();
            st.pop();
            st.pop();
        }
        Op::MemSize => st.push(AbsVal::constant(mem as i64)),
    }
    facts
}

fn load_store_width(op: &Op) -> usize {
    match op {
        Op::Load8 | Op::Store8 => 1,
        Op::Load16 | Op::Store16 => 2,
        Op::Load32 | Op::Store32 => 4,
        Op::Load64 | Op::Store64 => 8,
        _ => unreachable!("width queried for non-memory op"),
    }
}

/// Runs the range dataflow for one function. Requires the height pass to
/// have filled `cfg.insns[..].height` (unreachable blocks are skipped).
pub(super) fn flow_ranges(
    func_idx: usize,
    func: &Function,
    cfg: &FuncCfg,
    module: &Module,
    exit_heights: &[Option<u32>],
) -> RangeOutcome {
    let n_blocks = cfg.blocks.len();
    let mut facts = vec![InsnFacts::default(); cfg.insns.len()];
    let mut lints = Vec::new();
    if n_blocks == 0 {
        return RangeOutcome { facts, lints };
    }
    let ctx = Ctx { func_idx, mem: module.memory_bytes() as i128, module, exit_heights };

    let mut entry: Vec<Option<State>> = vec![None; n_blocks];
    entry[0] = Some(State::entry(func));
    let mut joins = vec![0u32; n_blocks];
    let mut visits = vec![0usize; n_blocks];
    let mut work = std::collections::VecDeque::from([0usize]);
    let mut queued = vec![false; n_blocks];
    queued[0] = true;

    while let Some(b) = work.pop_front() {
        queued[b] = false;
        visits[b] += 1;
        if visits[b] > MAX_VISITS_PER_BLOCK {
            // Give up on this function: empty facts are trivially sound.
            return RangeOutcome {
                facts: vec![InsnFacts::default(); cfg.insns.len()],
                lints: Vec::new(),
            };
        }
        let mut st = entry[b].clone().expect("queued blocks have states");
        for i in cfg.blocks[b].start..cfg.blocks[b].end {
            transfer(&mut st, &cfg.insns[i].op, &ctx, None, cfg.insns[i].at);
        }
        for &s in &cfg.blocks[b].succs {
            let merged = match &entry[s] {
                None => st.clone(),
                Some(old) => {
                    let widen = joins[s] >= WIDEN_AFTER;
                    old.join_from(&st, widen)
                }
            };
            if entry[s].as_ref() != Some(&merged) {
                joins[s] += 1;
                entry[s] = Some(merged);
                if !queued[s] {
                    queued[s] = true;
                    work.push_back(s);
                }
            }
        }
    }

    // Recording pass over the stable entry states.
    for (b, block) in cfg.blocks.iter().enumerate() {
        let Some(state) = &entry[b] else { continue };
        let mut st = state.clone();
        for (i, slot) in facts.iter_mut().enumerate().take(block.end).skip(block.start) {
            *slot = transfer(&mut st, &cfg.insns[i].op, &ctx, Some(&mut lints), cfg.insns[i].at);
        }
    }
    RangeOutcome { facts, lints }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_tracks_exact_bits() {
        let v = AbsVal::constant(0b1010);
        assert_eq!(v.as_const(), Some(10));
        assert!(v.excludes_zero());
        assert!(v.contains(10));
        assert!(!v.contains(11));
    }

    #[test]
    fn range_derives_high_zero_bits() {
        let v = AbsVal::range(0, 255);
        assert_eq!(v.zeros, !0xFFu64);
        assert!(v.non_negative());
        assert!(!v.excludes_zero());
    }

    #[test]
    fn join_hulls_and_intersects() {
        let a = AbsVal::constant(4);
        let b = AbsVal::constant(12);
        let j = a.join(&b);
        assert_eq!((j.lo, j.hi), (4, 12));
        // Both constants have bit 2 set (4 and 12 = 0b1100): 4=0b100 and
        // 12=0b1100 share bit 2.
        assert_eq!(j.ones & 0b100, 0b100);
        assert!(j.contains(4) && j.contains(12));
    }

    #[test]
    fn widen_escapes_unstable_bounds() {
        // Sign-unknown inputs carry no bit facts, so the unstable bound
        // escapes all the way to +∞.
        let a = AbsVal::range(-10, 10);
        let grown = AbsVal::range(-10, 20);
        let w = a.widen(&grown);
        assert_eq!(w.lo, -10);
        assert_eq!(w.hi, i64::MAX);

        // Non-negative inputs keep their intersected known-zero bits: both
        // fit in 5 bits, so the widened interval is clamped straight back
        // to [0, 31]. The bit lattice only loses bits at joins, so the
        // fixpoint still terminates.
        let a = AbsVal::range(0, 10);
        let grown = AbsVal::range(0, 20);
        let w = a.widen(&grown);
        assert_eq!((w.lo, w.hi), (0, 31));
    }

    #[test]
    fn and_mask_bounds_result() {
        let a = AbsVal::TOP;
        let mask = AbsVal::constant(0xFF);
        let r = abs_and(&a, &mask);
        assert_eq!((r.lo, r.hi), (0, 0xFF));
    }

    #[test]
    fn add_overflow_degrades_to_top() {
        let a = AbsVal::range(i64::MAX - 1, i64::MAX);
        let b = AbsVal::range(1, 2);
        assert!(abs_add(&a, &b).is_top());
    }

    #[test]
    fn remu_bounded_by_divisor() {
        let a = AbsVal::TOP;
        let b = AbsVal::constant(64);
        let r = abs_remu(&a, &b);
        assert_eq!((r.lo, r.hi), (0, 63));
    }

    #[test]
    fn shifts_track_constants() {
        let a = AbsVal::range(0, 255);
        let r = abs_shl(&a, &AbsVal::constant(8));
        assert_eq!((r.lo, r.hi), (0, 255 << 8));
        assert_eq!(r.zeros & 0xFF, 0xFF, "low bits known zero after shl");
        let r = abs_shru(&AbsVal::TOP, &AbsVal::constant(32));
        assert_eq!((r.lo, r.hi), (0, u32::MAX as i64));
    }
}
