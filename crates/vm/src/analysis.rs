//! Abstract interpretation of FVM bytecode: static stack, fuel, and
//! capability bounds.
//!
//! The structural verifier ([`crate::verify`]) guarantees that code
//! *decodes* safely; this module proves things about what the code will
//! *do*. It builds a basic-block CFG per function and runs a worklist
//! dataflow over frame-relative stack heights, which yields:
//!
//! * **Stack safety** — every instruction's entry height is a single proven
//!   value. Underflow below the frame (reading the caller's operands),
//!   heights beyond the sandbox's `max_stack`, and merge points reached at
//!   different heights are all rejected at admission time.
//! * **Fuel lower bounds** — the cheapest possible successful run of each
//!   function, and of the module as a whole, so the embedding can refuse a
//!   PAD whose *best case* already exceeds its fuel budget (e.g. a module
//!   whose every entry inevitably spins forever).
//! * **Capabilities** — the set of host intrinsics reachable from each
//!   function, checked against the [`SandboxPolicy`] *before* the module is
//!   instantiated, so a capability-exceeding PAD never executes at all.
//! * **Lints** — unreachable code, dead stores, and functions that can
//!   never return, surfaced by `fvm-lint` and the annotated disassembler.
//!
//! An accepted analysis also licenses the interpreter's *fast path*
//! ([`AnalyzedModule`]): because every instruction's stack height is a
//! proven constant, the operand stack becomes frame registers and the
//! bytecode is translated once into three-address [`Slot`]s ([`reg`]), one
//! per source statement where the code allows, at no change in fuel.
//!
//! ## Soundness notes
//!
//! The operand stack is *shared* across call frames at run time: `call`
//! pops the arguments and `ret` leaves the callee's leftovers for the
//! caller. The analysis therefore tracks **frame-relative** heights and
//! rejects any instruction that would pop below its own frame's entry
//! height — stricter than the runtime (which only traps when the whole
//! shared stack empties), and exactly the discipline that keeps a callee
//! from corrupting its caller's operands. Calls to functions that can
//! never return are modelled as pushing one value; the post-call path can
//! never execute, so any height derived from it is vacuous. Unreachable
//! instructions keep `height = None` and are reported as lints, never
//! errors.

use std::collections::VecDeque;

use crate::bytecode::Op;
use crate::error::VerifyError;
use crate::host::HostId;
use crate::instance::InstancePool;
use crate::module::{Function, Module};
use crate::sandbox::SandboxPolicy;
use crate::verify::verify_module;

pub mod range;
pub mod reg;

pub use range::{proven, AbsVal, InsnFacts};
pub use reg::{RegFunction, Slot, SlotOp};

/// Fuel cost floor for one instruction (every op charges at least this).
const BASE_COST: u64 = 1;
/// Extra fuel floor for bulk ops (`len/8 + 1` is at least 1 even at len 0).
const BULK_EXTRA: u64 = 1;
/// Cap on call-graph fuel fixpoint rounds; the bound is sound at any round
/// count because costs only grow from a trivially-true floor.
const FUEL_ROUNDS: usize = 8;

/// Cost-to-reach values saturate instead of overflowing; `u64::MAX` means
/// "no successful path exists".
const INF: u64 = u64::MAX;

/// One decoded instruction with its dataflow facts.
#[derive(Clone, Debug)]
pub struct InsnInfo {
    /// Byte offset of the instruction.
    pub at: usize,
    /// The decoded instruction.
    pub op: Op,
    /// Byte offset of the following instruction.
    pub next: usize,
    /// Frame-relative stack height on entry, `None` when unreachable.
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

/// A diagnostic that does not make the module unsafe, only suspicious.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Lint {
    /// No path from function entry reaches this instruction.
    UnreachableCode {
        /// Function index.
        func: usize,
        /// Byte offset of the first unreachable instruction of a block.
        at: usize,
    },
    /// A local is written (`local.set`/`local.tee`) but never read anywhere
    /// in the function.
    DeadStore {
        /// Function index.
        func: usize,
        /// Byte offset of the store.
        at: usize,
        /// The local index written.
        local: u8,
    },
    /// No reachable `ret` exists: the function can only halt the machine,
    /// trap, or loop forever.
    NeverReturns {
        /// Function index.
        func: usize,
    },
    /// The divisor at this site is provably always zero: the instruction
    /// traps on every execution that reaches it.
    CertainDivideByZero {
        /// Function index.
        func: usize,
        /// Byte offset of the division.
        at: usize,
    },
    /// Every possible address/length at this memory op lies outside
    /// linear memory: the instruction traps on every execution.
    CertainOutOfBounds {
        /// Function index.
        func: usize,
        /// Byte offset of the access.
        at: usize,
    },
    /// The shift amount can never be in `[0, 63]`, so the machine's
    /// modular masking always rewrites it — almost certainly a bug.
    ShiftAmountMasked {
        /// Function index.
        func: usize,
        /// Byte offset of the shift.
        at: usize,
    },
}

impl core::fmt::Display for Lint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Lint::UnreachableCode { func, at } => {
                write!(f, "fn {func}: unreachable code at {at}")
            }
            Lint::DeadStore { func, at, local } => {
                write!(f, "fn {func}: local {local} stored at {at} but never read")
            }
            Lint::NeverReturns { func } => write!(f, "fn {func}: no reachable ret"),
            Lint::CertainDivideByZero { func, at } => {
                write!(f, "fn {func}: divisor at {at} is always zero")
            }
            Lint::CertainOutOfBounds { func, at } => {
                write!(f, "fn {func}: memory access at {at} is always out of bounds")
            }
            Lint::ShiftAmountMasked { func, at } => {
                write!(f, "fn {func}: shift amount at {at} is never in [0, 63]")
            }
        }
    }
}

/// How seriously a [`Lint`] is taken by enforcement tooling (`fasmlint`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LintLevel {
    /// Not reported.
    Allow,
    /// Reported, does not fail the gate.
    Warn,
    /// Reported and fails the gate (nonzero `fasmlint` exit).
    Deny,
}

impl core::fmt::Display for LintLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LintLevel::Allow => write!(f, "allow"),
            LintLevel::Warn => write!(f, "warn"),
            LintLevel::Deny => write!(f, "deny"),
        }
    }
}

/// Severity assignment for every lint kind.
///
/// The default denies what is certainly wrong (dead stores, guaranteed
/// traps) and warns on what is merely suspicious (unreachable code, a
/// function that never returns — legitimate for abort-only helpers).
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Severity of [`Lint::UnreachableCode`].
    pub unreachable_code: LintLevel,
    /// Severity of [`Lint::DeadStore`].
    pub dead_store: LintLevel,
    /// Severity of [`Lint::NeverReturns`].
    pub never_returns: LintLevel,
    /// Severity of [`Lint::CertainDivideByZero`].
    pub certain_divide_by_zero: LintLevel,
    /// Severity of [`Lint::CertainOutOfBounds`].
    pub certain_out_of_bounds: LintLevel,
    /// Severity of [`Lint::ShiftAmountMasked`].
    pub shift_amount_masked: LintLevel,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            unreachable_code: LintLevel::Warn,
            dead_store: LintLevel::Deny,
            never_returns: LintLevel::Warn,
            certain_divide_by_zero: LintLevel::Deny,
            certain_out_of_bounds: LintLevel::Deny,
            shift_amount_masked: LintLevel::Deny,
        }
    }
}

impl LintConfig {
    /// The severity assigned to `lint`.
    pub fn level_for(&self, lint: &Lint) -> LintLevel {
        match lint {
            Lint::UnreachableCode { .. } => self.unreachable_code,
            Lint::DeadStore { .. } => self.dead_store,
            Lint::NeverReturns { .. } => self.never_returns,
            Lint::CertainDivideByZero { .. } => self.certain_divide_by_zero,
            Lint::CertainOutOfBounds { .. } => self.certain_out_of_bounds,
            Lint::ShiftAmountMasked { .. } => self.shift_amount_masked,
        }
    }

    /// Promotes every `Warn` to `Deny`.
    pub fn strict(mut self) -> LintConfig {
        for level in [
            &mut self.unreachable_code,
            &mut self.dead_store,
            &mut self.never_returns,
            &mut self.certain_divide_by_zero,
            &mut self.certain_out_of_bounds,
            &mut self.shift_amount_masked,
        ] {
            if *level == LintLevel::Warn {
                *level = LintLevel::Deny;
            }
        }
        self
    }
}

/// Everything the analyzer proved about one function.
#[derive(Clone, Debug)]
pub struct FunctionAnalysis {
    /// Decoded instructions in code order with entry heights.
    pub insns: Vec<InsnInfo>,
    /// Basic blocks over `insns`.
    pub blocks: Vec<BlockInfo>,
    /// Maximum frame-relative stack height anywhere in the function.
    pub max_height: u32,
    /// Frame-relative height at `ret` (all `ret` sites agree), or `None`
    /// when no `ret` is reachable. Callers gain exactly this many values.
    pub exit_height: Option<u32>,
    /// Lower bound on fuel for any run of this function that ends the
    /// machine successfully (its own `ret`/`halt` or a callee's `halt`);
    /// `u64::MAX` when no such run exists.
    pub min_fuel: u64,
    /// Bitmask (by [`HostId::id`]) of intrinsics this function itself
    /// invokes on reachable paths.
    pub own_hosts: u8,
    /// `own_hosts` unioned over everything transitively callable.
    pub reachable_hosts: u8,
    /// Suspicious-but-safe findings for this function.
    pub lints: Vec<Lint>,
    /// Range-pass facts, aligned with `insns`.
    pub ranges: Vec<InsnFacts>,
}

/// Whole-module analysis results.
#[derive(Clone, Debug)]
pub struct ModuleAnalysis {
    /// Per-function facts, indexed like `Module::functions`.
    pub functions: Vec<FunctionAnalysis>,
    /// Lower bound on fuel needed to run the most expensive entry point
    /// once. Since every function is an invokable entry, this is the max of
    /// the per-function `min_fuel` values; `u64::MAX` means some entry can
    /// never complete and the module should be refused a fuel budget.
    pub module_min_fuel: u64,
    /// Proven bound on the *shared* operand stack across the whole call
    /// tree, from a longest-path walk of the call DAG (recursive modules
    /// fall back to `max_call_depth × tallest frame`).
    pub stack_bound: usize,
    /// The checkable-claims ledger distilled from the passes above.
    pub claims: AnalysisClaims,
}

/// Everything the analyzer *claims* about a module, in a form the
/// machine's audit mode ([`crate::machine::Machine::new_audited`]) can
/// assert against observed execution. A violated claim is an analyzer
/// soundness bug, not a module bug — the differential harness exists to
/// find exactly those.
#[derive(Clone, Default, Debug)]
pub struct AnalysisClaims {
    /// Claimed lower bound on fuel for the most expensive entry.
    pub module_min_fuel: u64,
    /// Claimed per-function fuel lower bounds (successful runs only);
    /// `u64::MAX` claims the entry can never complete.
    pub entry_min_fuel: Vec<u64>,
    /// Claimed capability set: every host call observed at run time must
    /// fall inside this mask (by [`HostId::id`]).
    pub required_hosts: u8,
    /// Number of instructions with at least one discharged check.
    pub proven_ops: u32,
    /// Per-site claims: operand intervals and proven-safe facts, keyed by
    /// `(func, byte offset)`.
    pub sites: Vec<ClaimSite>,
}

/// One audited program point: what the analyzer claims holds every time
/// the instruction at `(func, at)` executes.
#[derive(Clone, Debug)]
pub struct ClaimSite {
    /// Function index.
    pub func: usize,
    /// Byte offset of the instruction.
    pub at: usize,
    /// Discharged checks (see [`proven`]).
    pub proven: u8,
    /// Claimed signed intervals `[lo, hi]` for the operands the
    /// instruction pops, top of stack first.
    pub operands: Vec<(i64, i64)>,
}

impl ModuleAnalysis {
    /// Intrinsics reachable from the named entry point, as `HostId`s.
    pub fn entry_hosts(&self, module: &Module, entry: &str) -> Vec<HostId> {
        let Some(idx) = module.find(entry) else { return Vec::new() };
        mask_to_hosts(self.functions[idx].reachable_hosts)
    }

    /// Union of `reachable_hosts` over every function, as `HostId`s.
    pub fn all_hosts(&self) -> Vec<HostId> {
        let mask = self.functions.iter().fold(0u8, |m, f| m | f.reachable_hosts);
        mask_to_hosts(mask)
    }
}

/// Expands a host bitmask into ids.
fn mask_to_hosts(mask: u8) -> Vec<HostId> {
    HostId::ALL.into_iter().filter(|h| mask & (1 << h.id()) != 0).collect()
}

/// A module that has passed structural verification *and* abstract
/// interpretation, bundled with its fast-path code in register form and
/// the policy all of it was established under.
///
/// Code, proof and policy are immutable once built, so one bundle behind
/// an `Arc` serves any number of [`Machine`](crate::machine::Machine)
/// instances: each instance owns its memory, stacks, fuel and log, and only
/// borrows the rest. What a dropped machine owned goes back into the
/// bundle's instance pool for the next one (see `instance.rs`), so the pool
/// lives exactly as long as the admission it belongs to.
#[derive(Debug)]
pub struct AnalyzedModule {
    /// The verified module.
    pub module: Module,
    /// The proof object.
    pub analysis: ModuleAnalysis,
    /// Per-function register-form code, indexed like `module.functions`.
    pub(crate) fast: Vec<RegFunction>,
    /// The policy the proof holds under, and so the one instances run under.
    policy: SandboxPolicy,
    /// Instances returned by dropped machines.
    pub(crate) pool: InstancePool,
}

impl AnalyzedModule {
    /// Verifies and analyzes `module` under `policy`, translating the fast
    /// path on success. A module declaring more memory than the policy
    /// grants is refused here, before any of it is allocated, and so is one
    /// whose call chains may stack more operands than `max_stack`: the fast
    /// path counts no stack slots, so it runs only what is proven to fit.
    pub fn analyze(module: Module, policy: &SandboxPolicy) -> Result<AnalyzedModule, VerifyError> {
        let declared = module.memory_bytes();
        if declared > policy.max_memory {
            return Err(VerifyError::MemoryLimit { declared, limit: policy.max_memory });
        }
        verify_module(&module)?;
        let analysis = analyze_module(&module, policy)?;
        if analysis.stack_bound > policy.max_stack {
            let (bound, limit) = (analysis.stack_bound, policy.max_stack);
            return Err(VerifyError::StackBound { bound, limit });
        }
        let fast = reg::translate(&module, &analysis)?;
        let (policy, pool) = (policy.clone(), InstancePool::default());
        Ok(AnalyzedModule { module, analysis, fast, policy, pool })
    }

    /// The policy the module was analyzed under.
    pub fn policy(&self) -> &SandboxPolicy {
        &self.policy
    }

    /// The fast path's slot table for function `func`: one [`Slot`] per
    /// instruction, in instruction order.
    pub fn slots(&self, func: usize) -> &[Slot] {
        &self.fast[func].code
    }
}

/// Per-op stack effect: operands required and values produced, with the
/// `Call` effect resolved through `exit_heights`.
///
/// Returns `(need, push, terminator)`.
fn stack_effect(op: &Op, module: &Module, exit_heights: &[Option<u32>]) -> (u32, u32, bool) {
    match *op {
        Op::Halt | Op::Unreachable => (0, 0, true),
        Op::Nop => (0, 0, false),
        Op::Jmp(_) => (0, 0, true),
        Op::JmpIf(_) | Op::JmpIfZ(_) => (1, 0, false),
        Op::Call(idx) => {
            let callee = &module.functions[idx as usize];
            // A never-returning callee pushes a vacuous value: the post-call
            // path cannot execute, so whatever we derive from it is unused.
            let produced = exit_heights[idx as usize].unwrap_or(1);
            (callee.n_args as u32, produced, false)
        }
        Op::Ret => (0, 0, true),
        Op::HostCall(id) => {
            let host = HostId::from_id(id).expect("verifier admits only known hosts");
            // Abort always traps, so nothing is pushed and control ends.
            match host {
                HostId::Abort => (1, 0, true),
                _ => (host.arity() as u32, 1, false),
            }
        }
        Op::PushI8(_) | Op::PushI32(_) | Op::PushI64(_) => (0, 1, false),
        Op::LocalGet(_) => (0, 1, false),
        Op::LocalSet(_) => (1, 0, false),
        Op::LocalTee(_) => (1, 1, false),
        Op::Drop => (1, 0, false),
        Op::Dup => (1, 2, false),
        Op::Swap => (2, 2, false),
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::DivU
        | Op::DivS
        | Op::RemU
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Shl
        | Op::ShrU
        | Op::ShrS
        | Op::Eq
        | Op::Ne
        | Op::LtU
        | Op::LtS
        | Op::GtU
        | Op::GtS
        | Op::LeU
        | Op::GeU => (2, 1, false),
        Op::Eqz => (1, 1, false),
        Op::Load8 | Op::Load16 | Op::Load32 | Op::Load64 => (1, 1, false),
        Op::Store8 | Op::Store16 | Op::Store32 | Op::Store64 => (2, 0, false),
        Op::MemCopy | Op::MemFill | Op::LzCopy => (3, 0, false),
        Op::MemSize => (0, 1, false),
    }
}

/// Minimum fuel the interpreter charges for one instruction.
fn insn_min_cost(op: &Op) -> u64 {
    match op {
        Op::MemCopy | Op::MemFill | Op::LzCopy => BASE_COST + BULK_EXTRA,
        Op::HostCall(id) => match HostId::from_id(*id) {
            Some(HostId::Sha1) | Some(HostId::MemEq) | Some(HostId::WeakSum) => {
                BASE_COST + BULK_EXTRA
            }
            _ => BASE_COST,
        },
        _ => BASE_COST,
    }
}

/// Internal per-function scaffolding shared by the passes.
struct FuncCfg {
    insns: Vec<InsnInfo>,
    /// Map byte offset → instruction index.
    index_of: Vec<Option<usize>>,
    blocks: Vec<BlockInfo>,
}

/// Decodes `func` and builds its basic-block CFG. The structural verifier
/// has already run, so decoding and branch targets cannot fail.
fn build_cfg(func: &Function) -> FuncCfg {
    let mut insns = Vec::new();
    let mut index_of = vec![None; func.code.len() + 1];
    let mut pc = 0usize;
    while pc < func.code.len() {
        let (op, next) = Op::decode(&func.code, pc).expect("verified code decodes");
        index_of[pc] = Some(insns.len());
        insns.push(InsnInfo { at: pc, op, next, height: None });
        pc = next;
    }

    // Leaders: the entry, every branch target, and every instruction after
    // a branch or terminator.
    let mut leader = vec![false; insns.len()];
    if !insns.is_empty() {
        leader[0] = true;
    }
    for (i, insn) in insns.iter().enumerate() {
        let ends_block = match insn.op {
            Op::Jmp(rel) | Op::JmpIf(rel) | Op::JmpIfZ(rel) => {
                let target = (insn.next as i64 + rel as i64) as usize;
                leader[index_of[target].expect("verified branch target")] = true;
                true
            }
            Op::Ret | Op::Halt | Op::Unreachable => true,
            Op::HostCall(id) => HostId::from_id(id) == Some(HostId::Abort),
            _ => false,
        };
        if ends_block && i + 1 < insns.len() {
            leader[i + 1] = true;
        }
    }

    let mut blocks: Vec<BlockInfo> = Vec::new();
    let mut block_of = vec![0usize; insns.len()];
    for (i, &is_leader) in leader.iter().enumerate() {
        if is_leader {
            if let Some(last) = blocks.last_mut() {
                last.end = i;
            }
            blocks.push(BlockInfo { start: i, end: insns.len(), succs: Vec::new() });
        }
        if let Some(b) = blocks.len().checked_sub(1) {
            block_of[i] = b;
        }
    }

    // Successors from each block's last instruction.
    let block_at = |target: usize, index_of: &[Option<usize>], block_of: &[usize]| {
        block_of[index_of[target].expect("verified branch target")]
    };
    for b in 0..blocks.len() {
        let last = &insns[blocks[b].end - 1];
        let mut succs = Vec::new();
        match last.op {
            Op::Jmp(rel) => {
                succs.push(block_at(
                    (last.next as i64 + rel as i64) as usize,
                    &index_of,
                    &block_of,
                ));
            }
            Op::JmpIf(rel) | Op::JmpIfZ(rel) => {
                succs.push(block_at(
                    (last.next as i64 + rel as i64) as usize,
                    &index_of,
                    &block_of,
                ));
                if blocks[b].end < insns.len() {
                    succs.push(block_of[blocks[b].end]);
                }
            }
            Op::Ret | Op::Halt | Op::Unreachable => {}
            Op::HostCall(id) if HostId::from_id(id) == Some(HostId::Abort) => {}
            _ => {
                // Fall-through (the verifier guarantees a terminator ends
                // the body, so a fall-through block always has a successor).
                if blocks[b].end < insns.len() {
                    succs.push(block_of[blocks[b].end]);
                }
            }
        }
        succs.sort_unstable();
        succs.dedup();
        blocks[b].succs = succs;
    }

    FuncCfg { insns, index_of, blocks }
}

/// Strongly-connected components of the call graph (Tarjan, iterative),
/// returned in reverse topological order: callees before callers.
fn call_sccs(module: &Module) -> Vec<Vec<usize>> {
    let n = module.functions.len();
    let callees: Vec<Vec<usize>> = module
        .functions
        .iter()
        .map(|f| {
            let mut out = Vec::new();
            let mut pc = 0usize;
            while pc < f.code.len() {
                let (op, next) = Op::decode(&f.code, pc).expect("verified code decodes");
                if let Op::Call(idx) = op {
                    out.push(idx as usize);
                }
                pc = next;
            }
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();

    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // Explicit DFS stack of (node, next child position).
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < callees[v].len() {
                let w = callees[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// Runs the stack-height dataflow for one function given the current
/// callee exit-height table. Fills `insns[..].height`, returns
/// `(max_height, exit_height)`.
fn flow_heights(
    func_idx: usize,
    cfg: &mut FuncCfg,
    module: &Module,
    exit_heights: &[Option<u32>],
    policy: &SandboxPolicy,
) -> Result<(u32, Option<u32>), VerifyError> {
    let mut entry: Vec<Option<u32>> = vec![None; cfg.blocks.len()];
    let mut max_height = 0u32;
    let mut exit: Option<u32> = None;
    if cfg.blocks.is_empty() {
        return Ok((0, None));
    }
    entry[0] = Some(0);
    let mut work: VecDeque<usize> = VecDeque::new();
    work.push_back(0);
    let mut queued = vec![false; cfg.blocks.len()];
    queued[0] = true;

    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let mut h = entry[b].expect("queued blocks have heights");
        let (start, end) = (cfg.blocks[b].start, cfg.blocks[b].end);
        for i in start..end {
            let insn = &mut cfg.insns[i];
            match insn.height {
                Some(prev) if prev != h => {
                    return Err(VerifyError::HeightMismatch {
                        func: func_idx,
                        at: insn.at,
                        expected: prev,
                        found: h,
                    });
                }
                _ => insn.height = Some(h),
            }
            let (need, push, _) = stack_effect(&insn.op, module, exit_heights);
            if h < need {
                return Err(VerifyError::StackUnderflow {
                    func: func_idx,
                    at: insn.at,
                    depth: h,
                    need,
                });
            }
            let after = h - need + push;
            if after as usize > policy.max_stack {
                return Err(VerifyError::StackLimit {
                    func: func_idx,
                    at: insn.at,
                    height: after,
                    limit: policy.max_stack,
                });
            }
            max_height = max_height.max(after);
            if let Op::Ret = insn.op {
                match exit {
                    Some(prev) if prev != after => {
                        return Err(VerifyError::HeightMismatch {
                            func: func_idx,
                            at: insn.at,
                            expected: prev,
                            found: after,
                        });
                    }
                    _ => exit = Some(after),
                }
            }
            h = after;
        }
        for &s in &cfg.blocks[b].succs {
            match entry[s] {
                Some(prev) if prev != h => {
                    return Err(VerifyError::HeightMismatch {
                        func: func_idx,
                        at: cfg.insns[cfg.blocks[s].start].at,
                        expected: prev,
                        found: h,
                    });
                }
                Some(_) => {}
                None => {
                    entry[s] = Some(h);
                    if !queued[s] {
                        queued[s] = true;
                        work.push_back(s);
                    }
                }
            }
        }
    }
    Ok((max_height, exit))
}

/// Shortest-path fuel costs for one function given current callee bounds.
/// Returns `(ret_cost, halt_cost)` — both saturating lower bounds.
fn flow_fuel(cfg: &FuncCfg, ret_lb: &[u64], halt_lb: &[u64]) -> (u64, u64) {
    let n = cfg.insns.len();
    if n == 0 {
        return (INF, INF);
    }
    // dist[i]: min fuel spent before executing instruction i.
    let mut dist = vec![INF; n];
    dist[0] = 0;
    let mut work: VecDeque<usize> = VecDeque::new();
    work.push_back(0);
    let mut ret_cost = INF;
    let mut halt_cost = INF;

    let relax = |dist: &mut Vec<u64>, work: &mut VecDeque<usize>, j: usize, d: u64| {
        if d < dist[j] {
            dist[j] = d;
            work.push_back(j);
        }
    };

    while let Some(i) = work.pop_front() {
        let d = dist[i];
        let insn = &cfg.insns[i];
        let step = insn_min_cost(&insn.op);
        match insn.op {
            Op::Ret => ret_cost = ret_cost.min(d.saturating_add(step)),
            Op::Halt => halt_cost = halt_cost.min(d.saturating_add(step)),
            Op::Unreachable => {}
            Op::HostCall(id) if HostId::from_id(id) == Some(HostId::Abort) => {}
            Op::Jmp(rel) => {
                let t = cfg.index_of[(insn.next as i64 + rel as i64) as usize].expect("target");
                relax(&mut dist, &mut work, t, d.saturating_add(step));
            }
            Op::JmpIf(rel) | Op::JmpIfZ(rel) => {
                let t = cfg.index_of[(insn.next as i64 + rel as i64) as usize].expect("target");
                relax(&mut dist, &mut work, t, d.saturating_add(step));
                if i + 1 < n {
                    relax(&mut dist, &mut work, i + 1, d.saturating_add(step));
                }
            }
            Op::Call(idx) => {
                // The callee may halt the machine directly…
                let through_halt = d.saturating_add(step).saturating_add(halt_lb[idx as usize]);
                halt_cost = halt_cost.min(through_halt);
                // …or return, continuing at the next instruction.
                if i + 1 < n {
                    let through = d.saturating_add(step).saturating_add(ret_lb[idx as usize]);
                    relax(&mut dist, &mut work, i + 1, through);
                }
            }
            _ => {
                if i + 1 < n {
                    relax(&mut dist, &mut work, i + 1, d.saturating_add(step));
                }
            }
        }
    }
    (ret_cost, halt_cost)
}

/// Computes a bound on the shared operand stack over the whole call tree:
/// the deepest `entry height at a call site − args + callee bound` chain.
/// Recursive modules fall back to `max_call_depth × tallest frame`.
fn shared_stack_bound(
    module: &Module,
    cfgs: &[FuncCfg],
    max_heights: &[u32],
    sccs: &[Vec<usize>],
    policy: &SandboxPolicy,
) -> usize {
    let recursive = sccs.iter().any(|scc| {
        scc.len() > 1 || {
            // A singleton SCC is recursive iff it calls itself.
            let f = scc[0];
            cfgs[f].insns.iter().any(|i| matches!(i.op, Op::Call(c) if c as usize == f))
        }
    });
    if recursive {
        let tallest = max_heights.iter().copied().max().unwrap_or(0) as usize;
        return policy.max_call_depth.saturating_mul(tallest.max(1));
    }
    // SCCs arrive callees-first, so one pass suffices.
    let mut bound = vec![0usize; module.functions.len()];
    for scc in sccs {
        let f = scc[0];
        let mut b = max_heights[f] as usize;
        for insn in &cfgs[f].insns {
            if let (Op::Call(idx), Some(h)) = (insn.op, insn.height) {
                let callee = idx as usize;
                let n_args = module.functions[callee].n_args as usize;
                let below = (h as usize).saturating_sub(n_args);
                b = b.max(below + bound[callee]);
            }
        }
        bound[f] = b;
    }
    bound.into_iter().max().unwrap_or(0)
}

/// Collects lints for one function after heights are known.
fn collect_lints(func_idx: usize, cfg: &FuncCfg, exit: Option<u32>, lints: &mut Vec<Lint>) {
    // Unreachable blocks: report the first instruction of each.
    for block in &cfg.blocks {
        if cfg.insns[block.start].height.is_none() {
            lints.push(Lint::UnreachableCode { func: func_idx, at: cfg.insns[block.start].at });
        }
    }
    // Dead stores: locals written but never read anywhere in the function.
    let mut read = [false; 256];
    for insn in &cfg.insns {
        if let Op::LocalGet(n) = insn.op {
            read[n as usize] = true;
        }
    }
    for insn in &cfg.insns {
        if insn.height.is_none() {
            continue;
        }
        if let Op::LocalSet(n) | Op::LocalTee(n) = insn.op {
            if !read[n as usize] {
                lints.push(Lint::DeadStore { func: func_idx, at: insn.at, local: n });
            }
        }
    }
    if exit.is_none() {
        lints.push(Lint::NeverReturns { func: func_idx });
    }
}

/// Process-wide analyzer metrics; see `vm_metrics` in `machine.rs` for
/// why these bind lazily to the global telemetry bundle.
struct AnalysisMetrics {
    analysis_ns: fractal_telemetry::Histogram,
    proven_ops: fractal_telemetry::Counter,
    lints: fractal_telemetry::Counter,
}

fn analysis_metrics() -> &'static AnalysisMetrics {
    use std::sync::OnceLock;
    static METRICS: OnceLock<AnalysisMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let bundle = fractal_telemetry::Telemetry::global();
        AnalysisMetrics {
            analysis_ns: bundle.histogram("fractal_vm_analysis_ns"),
            proven_ops: bundle.counter("fractal_vm_analysis_proven_ops_total"),
            lints: bundle.counter("fractal_vm_analysis_lints_total"),
        }
    })
}

/// Runs abstract interpretation over every function of a structurally
/// verified module. Returns the proof object, or the first admission error.
///
/// Call [`crate::verify::verify_module`] first (or use
/// [`AnalyzedModule::analyze`], which does both): this pass assumes code
/// decodes and branch targets are valid.
pub fn analyze_module(
    module: &Module,
    policy: &SandboxPolicy,
) -> Result<ModuleAnalysis, VerifyError> {
    let bundle = fractal_telemetry::Telemetry::global();
    let started_ns = bundle.now_ns();
    let n = module.functions.len();
    let mut cfgs: Vec<FuncCfg> = module.functions.iter().map(build_cfg).collect();
    let sccs = call_sccs(module);

    // --- stack heights, interprocedurally (callees before callers) -------
    let mut exit_heights: Vec<Option<u32>> = vec![None; n];
    let mut analyzed = vec![false; n];
    let mut max_heights = vec![0u32; n];
    for scc in &sccs {
        // Within a cycle, hypothesize that every member returns one value,
        // then check the hypothesis against what the dataflow derived.
        for &f in scc {
            if scc.len() > 1 || calls_self(&cfgs[f], f) {
                exit_heights[f] = Some(1);
            }
        }
        for &f in scc {
            let (max_h, exit) = flow_heights(f, &mut cfgs[f], module, &exit_heights, policy)?;
            max_heights[f] = max_h;
            if (scc.len() > 1 || calls_self(&cfgs[f], f)) && !(exit.is_none() || exit == Some(1)) {
                // The recursion hypothesis failed: some ret leaves a height
                // other than 1, so heights derived at in-cycle call sites
                // were wrong. Reject rather than iterate to an unsound fix.
                let at = cfgs[f]
                    .insns
                    .iter()
                    .find(|i| matches!(i.op, Op::Ret))
                    .map(|i| i.at)
                    .unwrap_or(0);
                return Err(VerifyError::HeightMismatch {
                    func: f,
                    at,
                    expected: 1,
                    found: exit.unwrap_or(0),
                });
            }
            // Cycle members' exits are now exact; downstream SCCs use
            // them. (A never-returning recursive function keeps `None`:
            // in-cycle calls to it were modelled as pushing 1, which is
            // vacuous because those call sites can never complete.)
            exit_heights[f] = exit;
            analyzed[f] = true;
        }
    }
    debug_assert!(analyzed.iter().all(|&a| a));

    // --- capability masks (reachable host-call sites only) ----------------
    let mut own_hosts = vec![0u8; n];
    for (f, cfg) in cfgs.iter().enumerate() {
        for insn in &cfg.insns {
            if insn.height.is_none() {
                continue;
            }
            if let Op::HostCall(id) = insn.op {
                if let Some(host) = HostId::from_id(id) {
                    if !policy.allows(host) {
                        return Err(VerifyError::CapabilityViolation { func: f, at: insn.at, id });
                    }
                    own_hosts[f] |= 1 << host.id();
                }
            }
        }
    }
    // Transitive closure over the call graph (callees-first, plus a
    // fixpoint sweep so recursive cycles converge).
    let mut reachable = own_hosts.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for (f, cfg) in cfgs.iter().enumerate() {
            let mut mask = reachable[f];
            for insn in &cfg.insns {
                if insn.height.is_none() {
                    continue;
                }
                if let Op::Call(idx) = insn.op {
                    mask |= reachable[idx as usize];
                }
            }
            if mask != reachable[f] {
                reachable[f] = mask;
                changed = true;
            }
        }
    }

    // --- fuel lower bounds -----------------------------------------------
    // Floors: any call that returns, or run that halts, executes ≥ 1 insn.
    let mut ret_lb = vec![BASE_COST; n];
    let mut halt_lb = vec![BASE_COST; n];
    for _ in 0..FUEL_ROUNDS {
        let mut changed = false;
        for scc in &sccs {
            for &f in scc {
                let (r, h) = flow_fuel(&cfgs[f], &ret_lb, &halt_lb);
                // Never drop below the floor; costs only grow, staying sound.
                let r = r.max(ret_lb[f]);
                let h = h.max(halt_lb[f]);
                if r != ret_lb[f] || h != halt_lb[f] {
                    ret_lb[f] = r;
                    halt_lb[f] = h;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // --- value ranges (interval + known bits) ------------------------------
    let mut all_ranges: Vec<Vec<InsnFacts>> = Vec::with_capacity(n);
    let mut range_lints: Vec<Vec<Lint>> = Vec::with_capacity(n);
    for (f, cfg) in cfgs.iter().enumerate() {
        let outcome = range::flow_ranges(f, &module.functions[f], cfg, module, &exit_heights);
        all_ranges.push(outcome.facts);
        range_lints.push(outcome.lints);
    }

    // --- lints -------------------------------------------------------------
    let mut all_lints: Vec<Vec<Lint>> = vec![Vec::new(); n];
    for (f, cfg) in cfgs.iter().enumerate() {
        collect_lints(f, cfg, exit_heights[f], &mut all_lints[f]);
        all_lints[f].append(&mut range_lints[f]);
    }

    let stack_bound = shared_stack_bound(module, &cfgs, &max_heights, &sccs, policy);

    // --- claims ledger ------------------------------------------------------
    let mut claims = AnalysisClaims {
        entry_min_fuel: (0..n).map(|f| ret_lb[f].min(halt_lb[f])).collect(),
        required_hosts: own_hosts.iter().fold(0u8, |m, &h| m | h),
        ..AnalysisClaims::default()
    };
    for (f, (cfg, facts)) in cfgs.iter().zip(&all_ranges).enumerate() {
        for (insn, fact) in cfg.insns.iter().zip(facts) {
            if fact.proven != 0 {
                claims.proven_ops += 1;
            }
            if fact.proven != 0 || !fact.operands.is_empty() {
                claims.sites.push(ClaimSite {
                    func: f,
                    at: insn.at,
                    proven: fact.proven,
                    operands: fact.operands.iter().map(|v| (v.lo, v.hi)).collect(),
                });
            }
        }
    }

    let mut functions = Vec::with_capacity(n);
    let mut module_min_fuel = 0u64;
    for (f, ((cfg, lints), ranges)) in cfgs.into_iter().zip(all_lints).zip(all_ranges).enumerate() {
        let min_fuel = ret_lb[f].min(halt_lb[f]);
        module_min_fuel = module_min_fuel.max(min_fuel);
        functions.push(FunctionAnalysis {
            insns: cfg.insns,
            blocks: cfg.blocks,
            max_height: max_heights[f],
            exit_height: exit_heights[f],
            min_fuel,
            own_hosts: own_hosts[f],
            reachable_hosts: reachable[f],
            lints,
            ranges,
        });
    }
    claims.module_min_fuel = module_min_fuel;

    let m = analysis_metrics();
    m.analysis_ns.record(bundle.now_ns().saturating_sub(started_ns));
    m.proven_ops.add(claims.proven_ops as u64);
    m.lints.add(functions.iter().map(|f| f.lints.len() as u64).sum());

    Ok(ModuleAnalysis { functions, module_min_fuel, stack_bound, claims })
}

fn calls_self(cfg: &FuncCfg, f: usize) -> bool {
    cfg.insns.iter().any(|i| matches!(i.op, Op::Call(c) if c as usize == f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::error::Trap;
    use crate::machine::Machine;

    fn analyze_src(src: &str) -> Result<ModuleAnalysis, VerifyError> {
        let m = assemble(src).expect("assembles");
        verify_module(&m).expect("structurally valid");
        analyze_module(&m, &SandboxPolicy::default())
    }

    #[test]
    fn accepts_balanced_function() {
        let a = analyze_src(
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
                push 7
                ret
        "#,
        )
        .unwrap();
        let f = &a.functions[0];
        assert_eq!(f.exit_height, Some(1));
        assert_eq!(f.max_height, 2);
        assert!(f.lints.is_empty(), "{:?}", f.lints);
        // Cheapest run: local.get, jmpifz (taken), push, ret = 4 ops.
        assert_eq!(f.min_fuel, 4);
    }

    #[test]
    fn rejects_underflow() {
        let err = analyze_src(
            r#"
            .func f args=0 locals=0
                add
                ret
        "#,
        )
        .unwrap_err();
        assert!(
            matches!(err, VerifyError::StackUnderflow { func: 0, at: 0, depth: 0, need: 2 }),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_callee_popping_into_caller() {
        // The callee receives one arg (its frame starts empty after arg
        // capture) and drops twice: the second drop would consume the
        // caller's operand at run time.
        let err = analyze_src(
            r#"
            .func main args=0 locals=0
                push 1
                push 2
                call eater
                ret
            .func eater args=1 locals=0
                local.get 0
                drop
                drop
                ret
        "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::StackUnderflow { func: 1, .. }), "{err:?}");
    }

    #[test]
    fn rejects_merge_height_mismatch() {
        let err = analyze_src(
            r#"
            .func f args=1 locals=0
                local.get 0
                jmpifz other
                push 1
                push 2
                jmp join
            other:
                push 1
            join:
                ret
        "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::HeightMismatch { func: 0, .. }), "{err:?}");
    }

    #[test]
    fn rejects_ret_height_disagreement() {
        let err = analyze_src(
            r#"
            .func f args=1 locals=0
                local.get 0
                jmpifz zero
                push 1
                push 2
                ret
            zero:
                push 1
                ret
        "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::HeightMismatch { func: 0, .. }), "{err:?}");
    }

    #[test]
    fn rejects_height_beyond_policy_stack() {
        let mut src = String::from(".func f args=0 locals=0\n");
        for _ in 0..20 {
            src.push_str("    push 1\n");
        }
        src.push_str("    ret\n");
        let m = assemble(&src).unwrap();
        verify_module(&m).unwrap();
        let policy = SandboxPolicy { max_stack: 8, ..SandboxPolicy::default() };
        let err = analyze_module(&m, &policy).unwrap_err();
        assert!(
            matches!(err, VerifyError::StackLimit { func: 0, height: 9, limit: 8, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_denied_capability_before_instantiation() {
        let m = assemble(
            r#"
            .func f args=0 locals=0
                push 0
                push 1
                host log
                drop
                ret
        "#,
        )
        .unwrap();
        verify_module(&m).unwrap();
        let policy = SandboxPolicy::default().with_hosts(&[HostId::Abort]);
        let err = analyze_module(&m, &policy).unwrap_err();
        assert!(matches!(err, VerifyError::CapabilityViolation { func: 0, id: 1, .. }), "{err:?}");
    }

    #[test]
    fn unreachable_host_call_is_not_a_violation() {
        let m = assemble(
            r#"
            .func f args=0 locals=0
                push 0
                ret
                push 0
                push 1
                host log
                drop
                ret
        "#,
        )
        .unwrap();
        verify_module(&m).unwrap();
        let policy = SandboxPolicy::default().with_hosts(&[HostId::Abort]);
        let a = analyze_module(&m, &policy).unwrap();
        assert_eq!(a.functions[0].own_hosts, 0);
        assert!(a.functions[0].lints.iter().any(|l| matches!(l, Lint::UnreachableCode { .. })));
    }

    #[test]
    fn capability_sets_are_transitive() {
        let a = analyze_src(
            r#"
            .func entry args=0 locals=0
                call helper
                ret
            .func helper args=0 locals=0
                push 0
                push 4
                push 64
                host sha1
                ret
        "#,
        )
        .unwrap();
        let m = assemble(
            r#"
            .func entry args=0 locals=0
                call helper
                ret
            .func helper args=0 locals=0
                push 0
                push 4
                push 64
                host sha1
                ret
        "#,
        )
        .unwrap();
        assert_eq!(a.functions[0].own_hosts, 0);
        assert_eq!(a.entry_hosts(&m, "entry"), vec![HostId::Sha1]);
        assert_eq!(a.all_hosts(), vec![HostId::Sha1]);
    }

    #[test]
    fn min_fuel_is_infinite_for_inescapable_loop() {
        let a = analyze_src(
            r#"
            .func spin args=0 locals=0
            top:
                jmp top
        "#,
        )
        .unwrap();
        assert_eq!(a.functions[0].min_fuel, u64::MAX);
        assert_eq!(a.module_min_fuel, u64::MAX);
        assert!(a.functions[0].lints.iter().any(|l| matches!(l, Lint::NeverReturns { func: 0 })));
    }

    #[test]
    fn min_fuel_counts_callee_cost() {
        let a = analyze_src(
            r#"
            .func main args=0 locals=0
                call three
                ret
            .func three args=0 locals=0
                push 1
                push 2
                add
                ret
        "#,
        )
        .unwrap();
        // three: push, push, add, ret = 4.
        assert_eq!(a.functions[1].min_fuel, 4);
        // main: call (1) + callee ret path (4) + ret (1) = 6.
        assert_eq!(a.functions[0].min_fuel, 6);
        assert_eq!(a.module_min_fuel, 6);
    }

    #[test]
    fn bulk_ops_cost_at_least_two() {
        let a = analyze_src(
            r#"
            .func f args=0 locals=0
                push 0
                push 0
                push 0
                memcopy
                ret
        "#,
        )
        .unwrap();
        // 3 pushes + memcopy (2) + ret = 6.
        assert_eq!(a.functions[0].min_fuel, 6);
    }

    #[test]
    fn recursion_with_unit_exit_is_accepted() {
        let a = analyze_src(
            r#"
            .func fib args=1 locals=0
                local.get 0
                push 2
                lts
                jmpif base
                local.get 0
                push 1
                sub
                call fib
                local.get 0
                push 2
                sub
                call fib
                add
                ret
            base:
                local.get 0
                ret
        "#,
        )
        .unwrap();
        assert_eq!(a.functions[0].exit_height, Some(1));
        // Recursive module: stack bound falls back to depth × tallest frame.
        let p = SandboxPolicy::default();
        assert_eq!(a.stack_bound, p.max_call_depth * a.functions[0].max_height as usize);
    }

    #[test]
    fn recursion_with_non_unit_exit_is_rejected() {
        let err = analyze_src(
            r#"
            .func f args=1 locals=0
                local.get 0
                jmpifz base
                local.get 0
                call f
                drop
                push 1
                push 2
                ret
            base:
                push 1
                push 2
                ret
        "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::HeightMismatch { func: 0, .. }), "{err:?}");
    }

    #[test]
    fn dag_stack_bound_is_tight() {
        let a = analyze_src(
            r#"
            .func main args=0 locals=0
                push 10
                push 20
                call leaf
                add
                ret
            .func leaf args=1 locals=0
                local.get 0
                push 1
                add
                ret
        "#,
        )
        .unwrap();
        // main reaches height 2; at the call, 1 arg is consumed leaving 1
        // below the callee, whose own frame reaches 2 → bound 3.
        assert_eq!(a.stack_bound, 3);
    }

    /// The fast path counts no stack slots, so admission is where
    /// `max_stack` binds a call chain: each frame below fits a limit of 2,
    /// the chain needs 3.
    #[test]
    fn a_call_chain_whose_stack_bound_exceeds_the_policy_is_refused() {
        let src = ".func main args=0 locals=0\n push 10\n push 20\n call leaf\n add\n ret\n\
                   .func leaf args=1 locals=0\n local.get 0\n push 1\n add\n ret\n";
        let module = assemble(src).unwrap();
        let tight = SandboxPolicy { max_stack: 2, ..SandboxPolicy::default() };
        let refused = module.clone().analyzed(&tight).unwrap_err();
        assert_eq!(refused, VerifyError::StackBound { bound: 3, limit: 2 });
        // Which is the limit the reference loop enforces slot by slot.
        let mut checked = Machine::new(module.clone(), tight).unwrap();
        assert_eq!(checked.call("main", &[]), Err(Trap::StackOverflow));

        let exact = SandboxPolicy { max_stack: 3, ..SandboxPolicy::default() };
        let mut fast = Machine::new_analyzed(module.analyzed(&exact).unwrap()).unwrap();
        assert!(fast.is_fast_path());
        assert_eq!(fast.call("main", &[]), Ok(31));
    }

    /// A recursive module is bounded by `max_call_depth` × its tallest
    /// frame: under the PAD policy (64 deep, 1024 slots) a 16-slot frame is
    /// the tallest that may recurse.
    #[test]
    fn a_recursive_module_is_held_to_depth_times_its_tallest_frame() {
        let policy = SandboxPolicy::for_pads();
        let admit = |frame: usize| assemble(&recursive_src(frame)).unwrap().analyzed(&policy);
        let refused = admit(17).unwrap_err();
        assert_eq!(refused, VerifyError::StackBound { bound: 64 * 17, limit: 1024 });

        let admitted = admit(16).unwrap();
        assert_eq!(admitted.analysis.stack_bound, 1024);
        let mut fast = Machine::new_analyzed(admitted).unwrap();
        let mut checked = Machine::new(assemble(&recursive_src(16)).unwrap(), policy).unwrap();
        for depth in [0, 3, 63, 64] {
            assert_eq!(fast.call("f", &[depth]), checked.call("f", &[depth]), "depth {depth}");
        }
    }

    /// `f(n)` calls itself `n` deep; every frame first stacks `frame`
    /// operands and drops them again.
    fn recursive_src(frame: usize) -> String {
        let (push, drop) = (" push 1\n".repeat(frame), " drop\n".repeat(frame));
        format!(
            ".func f args=1 locals=0\n local.get 0\n jmpifz base\n{push}{drop} local.get 0\n \
             push 1\n sub\n call f\n ret\nbase:\n push 7\n ret\n"
        )
    }

    #[test]
    fn dead_store_lint_fires() {
        let a = analyze_src(
            r#"
            .func f args=0 locals=1
                push 5
                local.set 0
                push 0
                ret
        "#,
        )
        .unwrap();
        assert!(a.functions[0]
            .lints
            .iter()
            .any(|l| matches!(l, Lint::DeadStore { func: 0, local: 0, .. })));
    }

    #[test]
    fn heights_are_recorded_per_instruction() {
        let a = analyze_src(
            r#"
            .func f args=0 locals=0
                push 1
                push 2
                add
                ret
        "#,
        )
        .unwrap();
        let hs: Vec<Option<u32>> = a.functions[0].insns.iter().map(|i| i.height).collect();
        assert_eq!(hs, vec![Some(0), Some(1), Some(2), Some(1)]);
    }

    #[test]
    fn analyzed_module_runs_fast_path_with_same_results() {
        let src = r#"
            .memory 1
            .func sum args=1 locals=2
            loop:
                local.get 0
                eqz
                jmpif done
                local.get 1
                local.get 0
                add
                local.set 1
                local.get 0
                push 1
                sub
                local.set 0
                jmp loop
            done:
                local.get 1
                ret
        "#;
        let checked_module = assemble(src).unwrap();
        let mut checked = Machine::new(checked_module.clone(), SandboxPolicy::default()).unwrap();
        let analyzed = checked_module.analyzed(&SandboxPolicy::default()).unwrap();
        let mut fast = Machine::new_analyzed(analyzed).unwrap();
        assert!(fast.is_fast_path());
        for n in [0i64, 1, 10, 1000] {
            let a = checked.call("sum", &[n]).unwrap();
            checked.refuel();
            let b = fast.call("sum", &[n]).unwrap();
            fast.refuel();
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn fast_path_fuel_matches_checked_path() {
        let src = r#"
            .memory 1
            .func work args=1 locals=1
            loop:
                local.get 0
                eqz
                jmpif done
                push 0
                push 0
                push 64
                memcopy
                local.get 0
                push 1
                sub
                local.set 0
                jmp loop
            done:
                push 0
                ret
        "#;
        let module = assemble(src).unwrap();
        let mut checked = Machine::new(module.clone(), SandboxPolicy::default()).unwrap();
        checked.call("work", &[25]).unwrap();
        let analyzed = module.analyzed(&SandboxPolicy::default()).unwrap();
        let mut fast = Machine::new_analyzed(analyzed).unwrap();
        assert!(fast.is_fast_path());
        fast.call("work", &[25]).unwrap();
        assert_eq!(checked.fuel_used(), fast.fuel_used());
    }

    #[test]
    fn shipped_pads_pass_analysis() {
        for (name, src) in [
            ("direct", include_str!("../../pads/fasm/direct.fasm")),
            ("gzip", include_str!("../../pads/fasm/gzip.fasm")),
            ("bitmap", include_str!("../../pads/fasm/bitmap.fasm")),
            ("recipe", include_str!("../../pads/fasm/recipe.fasm")),
            ("deflate", include_str!("../../pads/fasm/deflate.fasm")),
            ("signatures", include_str!("../../pads/fasm/signatures.fasm")),
        ] {
            let m = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            verify_module(&m).unwrap_or_else(|e| panic!("{name}: {e}"));
            let policy = SandboxPolicy::for_pads();
            let a = analyze_module(&m, &policy).unwrap_or_else(|e| panic!("{name} rejected: {e}"));
            assert!(
                a.stack_bound <= policy.max_stack,
                "{name}: bound {} exceeds {}",
                a.stack_bound,
                policy.max_stack
            );
            assert!(a.module_min_fuel < policy.max_fuel, "{name}");
        }
    }

    /// The call-graph fuel fixpoint must hit its round cap ([`FUEL_ROUNDS`])
    /// gracefully: terminate, and claim only *sound* (under-approximate)
    /// lower bounds — never panic, spin, or overclaim.
    #[test]
    fn fuel_fixpoint_cap_is_graceful_and_sound() {
        // Case 1: guaranteed cap-hit. Self-recursion with no base case
        // makes the bound grow every round, so only the round cap stops
        // the fixpoint. The capped value is a legitimate lower bound (the
        // entry can never complete, so any claim is sound), and a run
        // traps without audit violations.
        let src = r#"
            .memory 1
            .func spin args=0 locals=0
                call spin
                ret
        "#;
        let m = assemble(src).unwrap();
        verify_module(&m).unwrap();
        let policy = SandboxPolicy::default();
        let a = analyze_module(&m, &policy).unwrap();
        let claimed = a.claims.entry_min_fuel[0];
        assert!(claimed > BASE_COST, "cap should still have grown the bound: {claimed}");
        let analyzed = m.analyzed(&policy).unwrap();
        let mut machine = Machine::new_audited(analyzed).unwrap();
        assert!(machine.call("spin", &[]).is_err(), "unbounded recursion must trap");
        assert!(machine.audit_violations().is_empty(), "{:?}", machine.audit_violations());

        // Case 2: a 20-function mutually recursive ring where only f0 has
        // a base case. Full convergence for f1 needs the base-case cost to
        // propagate through every hop of the cycle — more rounds than the
        // cap in at least one sweep order. Whatever the cap leaves must
        // under-approximate the true minimum (5 fuel per hop × 19 hops +
        // 5 for f0's base path = 100) and hold at run time.
        const N: usize = 20;
        let mut src = String::from(".memory 1\n");
        src.push_str(
            ".func f0 args=1 locals=0\n    local.get 0\n    eqz\n    jmpif base\n    \
             local.get 0\n    push 1\n    sub\n    call f1\n    ret\nbase:\n    push 77\n    \
             ret\n",
        );
        for i in 1..N {
            let next = (i + 1) % N;
            src.push_str(&format!(
                ".func f{i} args=1 locals=0\n    local.get 0\n    push 1\n    sub\n    \
                 call f{next}\n    ret\n"
            ));
        }
        let m = assemble(&src).unwrap();
        verify_module(&m).unwrap();
        let a = analyze_module(&m, &policy).unwrap();
        let claimed = a.claims.entry_min_fuel[1];
        assert!(claimed > BASE_COST, "ring bound should exceed the floor: {claimed}");
        assert!(claimed <= 100, "ring bound overclaims the true minimum: {claimed}");
        // Run f1 all the way around the ring; the auditor cross-checks the
        // observed fuel against the claim.
        let analyzed = m.analyzed(&policy).unwrap();
        let mut machine = Machine::new_audited(analyzed).unwrap();
        assert_eq!(machine.call("f1", &[19]), Ok(77));
        assert!(machine.fuel_used() >= claimed, "{} < {claimed}", machine.fuel_used());
        assert!(machine.audit_violations().is_empty(), "{:?}", machine.audit_violations());
    }

    #[test]
    fn annotated_disassembly_reassembles_and_carries_heights() {
        let src = r#"
            .func f args=0 locals=0
                push 1
                push 2
                add
                ret
        "#;
        let m = assemble(src).unwrap();
        let a = analyze_module(&m, &SandboxPolicy::default()).unwrap();
        let text = crate::disasm::disassemble_annotated(&m, &a).unwrap();
        assert!(text.contains("; h=0"), "{text}");
        assert!(text.contains("; h=2"), "{text}");
        assert!(text.contains("; max_height=2"), "{text}");
        let m2 = assemble(&text).expect("annotations are comments");
        assert_eq!(m.functions[0].code, m2.functions[0].code);
    }
}
