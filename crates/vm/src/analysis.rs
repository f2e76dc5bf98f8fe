//! Abstract interpretation of FVM bytecode: static stack, fuel, and
//! capability bounds.
//!
//! The structural verifier ([`crate::verify`]) decodes the code, proves it
//! *decodes* safely and returns each function's instructions and
//! basic-block CFG; this module proves things about what the code will
//! *do*. It runs a worklist dataflow over frame-relative stack heights on
//! those blocks, which yields:
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
//!
//! Admission computes only what it enforces. What merely *reports* on the
//! proof — the lints, the annotated disassembler and the `fasmlint` CLI —
//! lives in the dev-only `fractal-vm-oracle` crate and reads the public
//! [`FunctionAnalysis`] fields.
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
//! height — stricter than the ISA (whose reference interpreter traps only
//! when the whole shared stack empties), and exactly the discipline that keeps a callee
//! from corrupting its caller's operands. Calls to functions that can
//! never return are modelled as pushing one value; the post-call path can
//! never execute, so any height derived from it is vacuous. Unreachable
//! instructions keep `height = None` and are never errors.

use std::collections::VecDeque;

use crate::bytecode::Op;
use crate::error::{ModuleError, VerifyError};
use crate::host::HostId;
use crate::instance::InstancePool;
use crate::module::Module;
use crate::sandbox::SandboxPolicy;
use crate::verify::{decode_module, FunctionCode};

pub mod reg;

pub use crate::verify::{BlockInfo, Flow, InsnInfo};
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
}

impl ModuleAnalysis {
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
    /// So is a data segment outside the declared memory (`Module::from_bytes`
    /// refuses one, but a hand-built module reaches here unparsed): an
    /// admitted module's instances cannot fail to start.
    pub fn analyze(module: Module, policy: &SandboxPolicy) -> Result<AnalyzedModule, VerifyError> {
        let declared = module.memory_bytes();
        if declared > policy.max_memory {
            return Err(VerifyError::MemoryLimit { declared, limit: policy.max_memory });
        }
        for seg in &module.data {
            if seg.offset as usize + seg.bytes.len() > declared {
                let (offset, len) = (seg.offset, seg.bytes.len() as u32);
                return Err(VerifyError::Code(ModuleError::DataOutOfRange { offset, len }));
            }
        }
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

/// Per-instruction stack effect: operands required and values produced.
/// A branch and a host call move what their resolved flow says, a `call`
/// what its callee's entry in `exit_heights` says.
fn stack_effect(insn: &InsnInfo, module: &Module, exit_heights: &[Option<u32>]) -> (u32, u32) {
    match insn.flow {
        Flow::Branch(_) => return (1, 0),
        // Abort always traps, so nothing is pushed and control ends.
        Flow::Host(HostId::Abort) => return (1, 0),
        Flow::Host(host) => return (host.arity() as u32, 1),
        Flow::Next | Flow::Jump(_) | Flow::Ret | Flow::Halt | Flow::Trap => {}
    }
    match insn.op {
        // What a branch pops and a host call moves is its flow's, above.
        Op::Halt
        | Op::Nop
        | Op::Unreachable
        | Op::Jmp(_)
        | Op::JmpIf(_)
        | Op::JmpIfZ(_)
        | Op::Ret
        | Op::HostCall(_) => (0, 0),
        Op::Call(idx) => {
            let callee = &module.functions[idx as usize];
            // A never-returning callee pushes a vacuous value: the post-call
            // path cannot execute, so whatever we derive from it is unused.
            let produced = exit_heights[idx as usize].unwrap_or(1);
            (callee.n_args as u32, produced)
        }
        Op::PushI8(_) | Op::PushI32(_) | Op::PushI64(_) => (0, 1),
        Op::LocalGet(_) => (0, 1),
        Op::LocalSet(_) => (1, 0),
        Op::LocalTee(_) => (1, 1),
        Op::Drop => (1, 0),
        Op::Dup => (1, 2),
        Op::Swap => (2, 2),
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
        | Op::GeU => (2, 1),
        Op::Eqz => (1, 1),
        Op::Load8 | Op::Load16 | Op::Load32 | Op::Load64 => (1, 1),
        Op::Store8 | Op::Store16 | Op::Store32 | Op::Store64 => (2, 0),
        Op::MemCopy | Op::MemFill | Op::LzCopy => (3, 0),
        Op::MemSize => (0, 1),
    }
}

/// Minimum fuel the interpreter charges for one instruction.
fn insn_min_cost(insn: &InsnInfo) -> u64 {
    match (insn.op, insn.flow) {
        (Op::MemCopy | Op::MemFill | Op::LzCopy, _)
        | (_, Flow::Host(HostId::Sha1 | HostId::MemEq | HostId::WeakSum)) => BASE_COST + BULK_EXTRA,
        _ => BASE_COST,
    }
}

/// Strongly-connected components of the call graph (Tarjan, iterative),
/// returned in reverse topological order: callees before callers.
fn call_sccs(codes: &[FunctionCode]) -> Vec<Vec<usize>> {
    let n = codes.len();
    let callees: Vec<Vec<usize>> = codes
        .iter()
        .map(|code| {
            let mut out: Vec<usize> = code
                .insns
                .iter()
                .filter_map(|insn| match insn.op {
                    Op::Call(idx) => Some(idx as usize),
                    _ => None,
                })
                .collect();
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
    cfg: &mut FunctionCode,
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
            let (need, push) = stack_effect(insn, module, exit_heights);
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
fn flow_fuel(cfg: &FunctionCode, ret_lb: &[u64], halt_lb: &[u64]) -> (u64, u64) {
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
        let step = insn_min_cost(insn);
        match (insn.flow, insn.op) {
            (Flow::Ret, _) => ret_cost = ret_cost.min(d.saturating_add(step)),
            (Flow::Halt, _) => halt_cost = halt_cost.min(d.saturating_add(step)),
            (Flow::Trap | Flow::Host(HostId::Abort), _) => {}
            (Flow::Jump(t), _) => relax(&mut dist, &mut work, t, d.saturating_add(step)),
            (Flow::Branch(t), _) => {
                relax(&mut dist, &mut work, t, d.saturating_add(step));
                if i + 1 < n {
                    relax(&mut dist, &mut work, i + 1, d.saturating_add(step));
                }
            }
            (_, Op::Call(idx)) => {
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
    cfgs: &[FunctionCode],
    max_heights: &[u32],
    sccs: &[Vec<usize>],
    policy: &SandboxPolicy,
) -> usize {
    // A singleton SCC is recursive iff it calls itself.
    let recursive = sccs.iter().any(|scc| scc.len() > 1 || calls_self(&cfgs[scc[0]], scc[0]));
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

/// The analyzer's process-wide timing histogram; see `vm_metrics` in
/// `machine.rs` for why it binds lazily to the global telemetry bundle.
fn analysis_ns() -> &'static fractal_telemetry::Histogram {
    use std::sync::OnceLock;
    static ANALYSIS_NS: OnceLock<fractal_telemetry::Histogram> = OnceLock::new();
    ANALYSIS_NS
        .get_or_init(|| fractal_telemetry::Telemetry::global().histogram("fractal_vm_analysis_ns"))
}

/// Decodes and verifies `module` once, with the decoder
/// [`verify_module`](crate::verify::verify_module) runs, then runs abstract
/// interpretation over every function. Returns the proof object, or the
/// first verification or admission error; it never panics, whatever the
/// module holds.
pub fn analyze_module(
    module: &Module,
    policy: &SandboxPolicy,
) -> Result<ModuleAnalysis, VerifyError> {
    let mut cfgs = decode_module(module)?;
    let bundle = fractal_telemetry::Telemetry::global();
    let started_ns = bundle.now_ns();
    let n = cfgs.len();
    let sccs = call_sccs(&cfgs);

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
            if let Flow::Host(host) = insn.flow {
                if !policy.allows(host) {
                    let id = host.id();
                    return Err(VerifyError::CapabilityViolation { func: f, at: insn.at, id });
                }
                own_hosts[f] |= 1 << host.id();
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

    let stack_bound = shared_stack_bound(module, &cfgs, &max_heights, &sccs, policy);

    let mut functions = Vec::with_capacity(n);
    let mut module_min_fuel = 0u64;
    for (f, cfg) in cfgs.into_iter().enumerate() {
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
        });
    }

    analysis_ns().record(bundle.now_ns().saturating_sub(started_ns));

    Ok(ModuleAnalysis { functions, module_min_fuel, stack_bound })
}

fn calls_self(cfg: &FunctionCode, f: usize) -> bool {
    cfg.insns.iter().any(|i| matches!(i.op, Op::Call(c) if c as usize == f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::error::Trap;
    use crate::machine::Machine;
    use crate::module::Function;
    use crate::verify::verify_module;

    fn analyze_src(src: &str) -> Result<ModuleAnalysis, VerifyError> {
        let m = assemble(src).expect("assembles");
        verify_module(&m).expect("structurally valid");
        analyze_module(&m, &SandboxPolicy::default())
    }

    #[test]
    fn unverified_code_is_refused_not_panicked_on() {
        // `ops` encoded, less their last `cut` bytes, as a one-function module.
        let analyze = |ops: &[Op], cut: usize| {
            let mut code = Vec::new();
            ops.iter().for_each(|op| op.encode(&mut code));
            code.truncate(code.len() - cut);
            let main = Function { name: "main".into(), n_args: 0, n_locals: 0, code };
            let module = Module { functions: vec![main], ..Module::default() };
            analyze_module(&module, &SandboxPolicy::default())
        };
        assert!(matches!(analyze(&[Op::PushI32(7)], 1), Err(VerifyError::Code(_))));
        assert!(matches!(analyze(&[Op::Jmp(1000), Op::Ret], 0), Err(VerifyError::WildJump { .. })));
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
        assert_eq!(a.functions[0].insns[2].height, None, "the host call is unreachable");
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
        assert_eq!(a.functions[0].own_hosts, 0);
        assert_eq!(a.functions[0].reachable_hosts, 1 << HostId::Sha1.id());
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
        assert_eq!(a.functions[0].exit_height, None);
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

        let exact = SandboxPolicy { max_stack: 3, ..SandboxPolicy::default() };
        let mut fast = Machine::new_analyzed(module.analyzed(&exact).unwrap()).unwrap();
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
        for depth in [0, 3, 63] {
            assert_eq!(fast.call("f", &[depth]), Ok(7), "depth {depth}");
        }
        assert_eq!(fast.call("f", &[64]), Err(Trap::CallDepthExceeded));
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
    fn an_analyzed_module_runs() {
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
        let analyzed = assemble(src).unwrap().analyzed(&SandboxPolicy::default()).unwrap();
        let mut fast = Machine::new_analyzed(analyzed).unwrap();
        for (n, sum) in [(0i64, 0), (1, 1), (10, 55), (1000, 500_500)] {
            assert_eq!(fast.call("sum", &[n]), Ok(sum), "n={n}");
        }
    }

    #[test]
    fn fuel_counts_every_op_and_the_bytes_bulk_ops_move() {
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
        let analyzed = assemble(src).unwrap().analyzed(&SandboxPolicy::default()).unwrap();
        let mut fast = Machine::new_analyzed(analyzed).unwrap();
        fast.call("work", &[25]).unwrap();
        // 25 rounds of 12 ops plus 64 / 8 + 1 for the bytes copied, then
        // the exit test, `push` and `ret`.
        assert_eq!(fast.fuel_used(), 25 * (12 + 9) + 5);
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
}
