//! The claims auditor: what the admission analyzer and the range pass
//! proved, checked against what the oracle observes.
//!
//! It reads the [`ModuleAnalysis`] a module was admitted with, as the
//! analyzer left it — the set of intrinsics each function calls
//! (`own_hosts`) and the least fuel a successful call of it can use
//! (`min_fuel`) — and the range pass's facts for that analysis
//! ([`flow_ranges`](crate::range::flow_ranges)): per instruction, operand
//! intervals and the checks the pass discharged (`proven`). Before each op
//! it compares the live operands with the facts for that op and a host call
//! with the function's set; after a call that completes, the fuel it used
//! with the claimed minimum. A mismatch is an [`AuditViolation`]: a bug in
//! the analysis, never in the module. It never changes how the oracle runs.

use fractal_vm::{HostId, ModuleAnalysis, Op};

use crate::in_bounds;
use crate::range::{proven, FunctionFacts};

/// Violations kept per oracle: the first few diagnose an unsound pass, and
/// a looping module must not grow the report without bound.
const MAX_VIOLATIONS: usize = 64;

/// A claim the analyzer made that observed execution contradicted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AuditViolation {
    /// A call that completed used less fuel than the claimed lower bound.
    FuelBelowClaim {
        /// Entry function index.
        func: usize,
        /// The analyzer's claimed minimum.
        claimed: u64,
        /// Fuel the call actually consumed.
        observed: u64,
    },
    /// An entry claimed never to complete (`min_fuel = u64::MAX`) did.
    InfeasibleEntryCompleted {
        /// Entry function index.
        func: usize,
    },
    /// A host intrinsic outside its function's claimed set executed.
    UnclaimedHostCall {
        /// Function index.
        func: usize,
        /// Byte offset of the host call.
        at: usize,
        /// The intrinsic id observed.
        id: u8,
    },
    /// An operand fell outside its claimed interval.
    ValueOutsideInterval {
        /// Function index.
        func: usize,
        /// Byte offset of the instruction.
        at: usize,
        /// Operand position (0 = top of stack).
        operand: usize,
        /// The value observed.
        value: i64,
        /// Claimed interval low bound.
        lo: i64,
        /// Claimed interval high bound.
        hi: i64,
    },
    /// A discharged check failed (a "never zero" divisor was zero, an "in
    /// bounds" access was out of bounds, ...).
    ProvenFactViolated {
        /// Function index.
        func: usize,
        /// Byte offset of the instruction.
        at: usize,
        /// Which fact failed, as a stable short name.
        fact: &'static str,
        /// The offending value (divisor, shift amount, or address).
        value: i64,
    },
}

/// The auditor's state inside an [`Oracle`](crate::Oracle).
pub(crate) struct Auditor<'a> {
    analysis: &'a ModuleAnalysis,
    facts: &'a [FunctionFacts],
    pub(crate) violations: Vec<AuditViolation>,
}

/// The `(addr, len)` ranges `op` touches, given its operands (`peek(0)` is
/// the top of the stack), for the in-bounds facts.
fn accesses(op: &Op, peek: impl Fn(usize) -> Option<i64>) -> [(Option<i64>, Option<i64>); 2] {
    let none = (None, None);
    match *op {
        Op::Load8 => [(peek(0), Some(1)), none],
        Op::Load16 => [(peek(0), Some(2)), none],
        Op::Load32 => [(peek(0), Some(4)), none],
        Op::Load64 => [(peek(0), Some(8)), none],
        Op::Store8 => [(peek(1), Some(1)), none],
        Op::Store16 => [(peek(1), Some(2)), none],
        Op::Store32 => [(peek(1), Some(4)), none],
        Op::Store64 => [(peek(1), Some(8)), none],
        // dst, src, len.
        Op::MemCopy | Op::LzCopy => [(peek(1), peek(0)), (peek(2), peek(0))],
        // dst, byte, len.
        Op::MemFill => [(peek(2), peek(0)), none],
        Op::HostCall(id) => match HostId::from_id(id) {
            // src, len, dst: hashes `len` bytes, writes 20.
            Some(HostId::Sha1) => [(peek(2), peek(1)), (peek(0), Some(20))],
            // ptr, len.
            Some(HostId::Log) => [(peek(1), peek(0)), none],
            // a, b, len.
            Some(HostId::MemEq) => [(peek(2), peek(0)), (peek(1), peek(0))],
            // src, len.
            Some(HostId::WeakSum) => [(peek(1), peek(0)), none],
            _ => [none, none],
        },
        _ => [none, none],
    }
}

impl<'a> Auditor<'a> {
    pub(crate) fn new(analysis: &'a ModuleAnalysis, facts: &'a [FunctionFacts]) -> Auditor<'a> {
        Auditor { analysis, facts, violations: Vec::new() }
    }

    fn record(&mut self, violation: AuditViolation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(violation);
        }
    }

    /// Checks the claims about `op`, at byte offset `at` of function `func`,
    /// against the operands on `stack` (top last) and a memory of `memory`
    /// bytes, before `op` runs.
    pub(crate) fn before(&mut self, func: usize, at: usize, op: &Op, stack: &[i64], memory: usize) {
        let analysis = self.analysis;
        let Some(f) = analysis.functions.get(func) else { return };
        if let Op::HostCall(id) = *op {
            if id >= 8 || f.own_hosts & (1 << id) == 0 {
                self.record(AuditViolation::UnclaimedHostCall { func, at, id });
            }
        }
        let Ok(i) = f.insns.binary_search_by_key(&at, |insn| insn.at) else { return };
        let Some(facts) = self.facts.get(func).and_then(|f| f.insns.get(i)) else { return };
        let peek = |k: usize| stack.len().checked_sub(k + 1).map(|s| stack[s]);
        for (operand, claim) in facts.operands.iter().enumerate() {
            let Some(value) = peek(operand) else { break };
            let (lo, hi) = (claim.lo, claim.hi);
            if value < lo || value > hi {
                let v = AuditViolation::ValueOutsideInterval { func, at, operand, value, lo, hi };
                self.record(v);
            }
        }
        let p = facts.proven;
        let mut failed = |fact, value| {
            self.record(AuditViolation::ProvenFactViolated { func, at, fact, value });
        };
        if p & proven::DIV_NONZERO != 0 && peek(0) == Some(0) {
            failed("div_nonzero", 0);
        }
        if p & proven::DIV_NO_OVERFLOW != 0 && (peek(1), peek(0)) == (Some(i64::MIN), Some(-1)) {
            failed("div_no_overflow", i64::MIN);
        }
        if p & proven::SHIFT_IN_RANGE != 0 {
            if let Some(b) = peek(0).filter(|b| !(0..=63).contains(b)) {
                failed("shift_in_range", b);
            }
        }
        if p & (proven::MEM_IN_BOUNDS | proven::HOST_ARGS_OK) != 0 {
            let fact = if p & proven::HOST_ARGS_OK != 0 { "host_args_ok" } else { "mem_in_bounds" };
            for (addr, len) in accesses(op, peek) {
                if let (Some(addr), Some(len)) = (addr, len) {
                    if in_bounds(addr, len, memory).is_err() {
                        failed(fact, addr);
                    }
                }
            }
        }
    }

    /// Checks the fuel claim of entry `func`, whose call completed after
    /// using `observed` fuel. (A trap may end a run short of any minimum.)
    pub(crate) fn completed(&mut self, func: usize, observed: u64) {
        let Some(f) = self.analysis.functions.get(func) else { return };
        match f.min_fuel {
            u64::MAX => self.record(AuditViolation::InfeasibleEntryCompleted { func }),
            claimed if observed < claimed => {
                self.record(AuditViolation::FuelBelowClaim { func, claimed, observed })
            }
            _ => {}
        }
    }
}
