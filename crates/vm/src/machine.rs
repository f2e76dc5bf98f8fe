//! The FVM interpreter: a sandboxed stack machine over linear memory.
//!
//! A [`Machine`] is one *instance* of a module: its own memory (initialized
//! from the module's data segments), its own fuel budget, and its own log
//! buffer. Code is not per instance: machines built from an admitted
//! `Arc<AnalyzedModule>` all execute the one shared copy of the module, its
//! proof and its register-form code, under the policy those were proven
//! for — and take their memory and stacks from, and on `Drop` return them
//! to, the pool that module keeps (`instance.rs`), wiped to what a new
//! instance holds. The embedding writes inputs into memory with
//! [`Machine::write_memory`], invokes an exported entry point with
//! [`Machine::call`], and reads results back with [`Machine::read_memory`].
//!
//! Every memory access is bounds-checked; every instruction charges fuel;
//! bulk operations charge proportionally to the bytes they move. There is no
//! `unsafe` anywhere in this crate.

use std::sync::Arc;

use fractal_crypto::sha1::Sha1;

use crate::analysis::reg::truth;
use crate::analysis::{proven, AnalysisClaims, AnalyzedModule, RegFunction, Slot, SlotOp};
use crate::bytecode::Op;
use crate::error::{AuditViolation, Trap};
use crate::host::{weak_sum, HostId};
use crate::instance::{Frame, Instance};
use crate::module::Module;
use crate::sandbox::SandboxPolicy;

/// Fuel charged per byte moved by MemCopy/MemFill/LzCopy (in 1/8 units:
/// `len / COPY_BYTES_PER_FUEL + 1`).
const COPY_BYTES_PER_FUEL: u64 = 8;
/// Fuel charged per byte hashed by the SHA-1 intrinsic.
const SHA1_BYTES_PER_FUEL: u64 = 4;

/// Process-wide VM metrics, bound lazily to the global telemetry bundle.
/// Machines are constructed deep inside PAD runtimes with no telemetry
/// handle to thread through, so the VM records globally (once per
/// [`Machine::call`], never per instruction).
struct VmMetrics {
    fuel_consumed: fractal_telemetry::Counter,
    calls_fast: fractal_telemetry::Counter,
    calls_checked: fractal_telemetry::Counter,
    claims_audited: fractal_telemetry::Counter,
    audit_violations: fractal_telemetry::Counter,
}

fn vm_metrics() -> &'static VmMetrics {
    use std::sync::OnceLock;
    static METRICS: OnceLock<VmMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let bundle = fractal_telemetry::Telemetry::global();
        VmMetrics {
            fuel_consumed: bundle.counter("fractal_vm_fuel_consumed_total"),
            calls_fast: bundle.counter("fractal_vm_calls_fast_total"),
            calls_checked: bundle.counter("fractal_vm_calls_checked_total"),
            claims_audited: bundle.counter("fractal_vm_claims_audited_total"),
            audit_violations: bundle.counter("fractal_vm_audit_violations_total"),
        }
    })
}

/// Keep at most this many violations; the first few are what matter for
/// diagnosing an unsound pass, and an adversarial module should not be able
/// to grow the report without bound.
const MAX_AUDIT_VIOLATIONS: usize = 64;

/// The analyzer's claims for one program point, rekeyed for O(1) lookup
/// during the audit hook.
struct AuditSite {
    proven: u8,
    /// Claimed operand intervals, top of stack first.
    operands: Vec<(i64, i64)>,
}

/// Claims-auditor state: the analyzer's per-site promises rekeyed for
/// lookup (the module-level ones are read from the shared proof), plus
/// what checked execution has observed so far.
struct AuditState {
    sites: std::collections::HashMap<(usize, usize), AuditSite>,
    audited: u64,
    violations: Vec<AuditViolation>,
}

impl AuditState {
    fn record(&mut self, v: AuditViolation) {
        if self.violations.len() < MAX_AUDIT_VIOLATIONS {
            self.violations.push(v);
        }
    }
}

/// What an instance executes, and under which limits: a bare module it owns
/// and the policy it was built with (checked path only), or an admitted
/// bundle — module, proof, register-form code, the policy all three were
/// proven under — it shares with every other instance of the same PAD.
enum Program {
    Bare(Module, SandboxPolicy),
    Admitted(Arc<AnalyzedModule>),
}

impl Program {
    fn module(&self) -> &Module {
        match self {
            Program::Bare(module, _) => module,
            Program::Admitted(analyzed) => &analyzed.module,
        }
    }

    fn claims(&self) -> Option<&AnalysisClaims> {
        match self {
            Program::Bare(..) => None,
            Program::Admitted(analyzed) => Some(&analyzed.analysis.claims),
        }
    }
}

/// An instantiated module ready to execute.
pub struct Machine {
    program: Program,
    /// Memory, register file, frames, host-call stack and log. A machine
    /// over an admitted module checks it out of that module's pool and
    /// `Drop` returns it there.
    inst: Instance,
    /// Whether `inst` had a previous tenant.
    recycled: bool,
    fuel: u64,
    fuel_used_total: u64,
    /// Claims-auditor state; present only on machines built with
    /// [`Machine::new_audited`]. Boxed to keep the common case small.
    audit: Option<Box<AuditState>>,
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("memory", &self.inst.memory.len())
            .field("dirty", &self.inst.memory.dirty())
            .field("recycled", &self.recycled)
            .field("fuel", &self.fuel)
            .field("functions", &self.program.module().functions.len())
            .finish()
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        if let Program::Admitted(analyzed) = &self.program {
            analyzed.pool.put(std::mem::take(&mut self.inst), analyzed.policy().max_memory);
        }
    }
}

impl Machine {
    /// Instantiates `module` under `policy`, on the checked reference loop.
    /// Fails if the module declares more memory than the policy allows, or
    /// a data segment outside it.
    pub fn new(module: Module, policy: SandboxPolicy) -> Result<Machine, Trap> {
        let mem_bytes = module.memory_bytes();
        if mem_bytes > policy.max_memory {
            return Err(Trap::OutOfBounds { addr: mem_bytes as u64, len: 0 });
        }
        Machine::instantiate(Program::Bare(module, policy), Instance::new(mem_bytes), false)
    }

    /// A machine over `inst`, which is all zeroes and empty: applies the
    /// data segments and fills the tank.
    fn instantiate(program: Program, mut inst: Instance, recycled: bool) -> Result<Machine, Trap> {
        for seg in &program.module().data {
            // The container parser bounds segments, but `Module`'s fields
            // are public and a hand-built one reaches here unparsed.
            let start = seg.offset as usize;
            let end = start
                .checked_add(seg.bytes.len())
                .filter(|&end| end <= inst.memory.len())
                .ok_or(Trap::OutOfBounds { addr: start as u64, len: seg.bytes.len() as u64 })?;
            inst.memory.slice_mut(start..end).copy_from_slice(&seg.bytes);
        }
        let mut machine =
            Machine { program, inst, recycled, fuel: 0, fuel_used_total: 0, audit: None };
        machine.refuel();
        Ok(machine)
    }

    /// Instantiates an analyzed module; pass an `Arc` to share one admitted
    /// bundle among many instances (nothing in it is copied). Execution
    /// uses the register-form fast path (no per-op decode, no operand
    /// stack) under the policy the module was analyzed with:
    /// [`AnalyzedModule::analyze`] refused it unless its whole-machine stack
    /// bound fits that policy's `max_stack` and its declared memory the
    /// `max_memory`, which is what lets this path count neither. Fuel
    /// accounting is identical to the checked path's.
    ///
    /// The instance comes out of the module's pool when a machine over the
    /// same `Arc` has been dropped before ([`Machine::is_recycled`]); it is
    /// byte for byte what a first instance is, and this call then allocates
    /// nothing.
    pub fn new_analyzed(analyzed: impl Into<Arc<AnalyzedModule>>) -> Result<Machine, Trap> {
        let analyzed = analyzed.into();
        let (inst, recycled) = match analyzed.pool.take() {
            Some(inst) => (inst, true),
            None => (Instance::new(analyzed.module.memory_bytes()), false),
        };
        Machine::instantiate(Program::Admitted(analyzed), inst, recycled)
    }

    /// Instantiates an analyzed module in **claims-auditor** mode: the
    /// checked interpreter runs as usual, and additionally asserts every
    /// claim the analyzer made against observed reality — operand values
    /// inside predicted intervals, proven-safe facts actually holding,
    /// host calls inside the claimed capability set, and (on successful
    /// entry calls) fuel consumption at least the claimed lower bound.
    ///
    /// Discrepancies are **analyzer soundness bugs**; they are collected
    /// (capped) in [`Machine::audit_violations`] rather than trapping, so a
    /// differential harness can compare full executions.
    pub fn new_audited(analyzed: impl Into<Arc<AnalyzedModule>>) -> Result<Machine, Trap> {
        let analyzed = analyzed.into();
        let sites = analyzed
            .analysis
            .claims
            .sites
            .iter()
            .map(|s| ((s.func, s.at), AuditSite { proven: s.proven, operands: s.operands.clone() }))
            .collect();
        let mut machine = Machine::new_analyzed(analyzed)?;
        machine.audit = Some(Box::new(AuditState { sites, audited: 0, violations: Vec::new() }));
        Ok(machine)
    }

    /// The limits this instance runs under.
    fn policy(&self) -> &SandboxPolicy {
        match &self.program {
            Program::Bare(_, policy) => policy,
            Program::Admitted(analyzed) => analyzed.policy(),
        }
    }

    /// Whether this instance's memory and stacks served an earlier machine
    /// over the same admitted module (and were wiped when that one was
    /// dropped) rather than being allocated for this one.
    pub fn is_recycled(&self) -> bool {
        self.recycled
    }

    /// Whether this instance runs the register-form fast path: it was built
    /// by [`Machine::new_analyzed`]. [`Machine::new`] and
    /// [`Machine::new_audited`] run the checked reference loop.
    pub fn is_fast_path(&self) -> bool {
        matches!(self.program, Program::Admitted(_)) && self.audit.is_none()
    }

    /// How many analyzer claims the auditor has checked so far (0 when the
    /// machine was not built with [`Machine::new_audited`]).
    pub fn claims_audited(&self) -> u64 {
        self.audit.as_ref().map_or(0, |a| a.audited)
    }

    /// Claim violations observed by the auditor: every entry is a bug in
    /// the static analysis, not in the module.
    pub fn audit_violations(&self) -> &[AuditViolation] {
        self.audit.as_ref().map_or(&[][..], |a| &a.violations)
    }

    /// Linear memory size in bytes.
    pub fn memory_len(&self) -> usize {
        self.inst.memory.len()
    }

    /// Remaining fuel.
    pub fn fuel_remaining(&self) -> u64 {
        self.fuel
    }

    /// Total fuel consumed across all calls on this instance.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used_total
    }

    /// Refills fuel to the policy maximum (a fresh budget per entry call is
    /// the embedding's choice).
    pub fn refuel(&mut self) {
        self.fuel = self.policy().max_fuel;
    }

    /// Test hook, not embedding API: lowers the remaining fuel to `fuel`
    /// (never raises it), so the differential suites can starve one
    /// admission at every budget instead of analyzing the module once per
    /// budget. An embedding meters through the policy it admits under.
    #[doc(hidden)]
    pub fn limit_fuel(&mut self, fuel: u64) {
        self.fuel = self.fuel.min(fuel);
    }

    /// Bytes captured from the module's `log` intrinsic.
    pub fn log_bytes(&self) -> &[u8] {
        &self.inst.log
    }

    /// Copies `bytes` into memory at `addr`.
    pub fn write_memory(&mut self, addr: usize, bytes: &[u8]) -> Result<(), Trap> {
        let end = addr
            .checked_add(bytes.len())
            .filter(|&e| e <= self.inst.memory.len())
            .ok_or(Trap::OutOfBounds { addr: addr as u64, len: bytes.len() as u64 })?;
        self.inst.memory.slice_mut(addr..end).copy_from_slice(bytes);
        Ok(())
    }

    /// Reads `len` bytes from memory at `addr`.
    pub fn read_memory(&self, addr: usize, len: usize) -> Result<&[u8], Trap> {
        let end = addr
            .checked_add(len)
            .filter(|&e| e <= self.inst.memory.len())
            .ok_or(Trap::OutOfBounds { addr: addr as u64, len: len as u64 })?;
        Ok(&self.inst.memory.bytes()[addr..end])
    }

    /// Invokes the exported function `entry` with `args`, running to
    /// completion. Returns the function's result value.
    pub fn call(&mut self, entry: &str, args: &[i64]) -> Result<i64, Trap> {
        let module = self.program.module();
        let func = module.find(entry).ok_or_else(|| Trap::NoSuchEntry(entry.to_string()))?;
        let decl = &module.functions[func];
        if decl.n_args as usize != args.len() {
            return Err(Trap::ArityMismatch { expected: decl.n_args, got: args.len() });
        }
        // Reset transient state (memory persists across calls by design —
        // the embedding stages inputs there).
        self.inst.stack.clear();
        self.inst.locals.clear();
        self.inst.frames.clear();

        let locals_base = 0;
        self.inst.locals.extend_from_slice(args);
        self.inst.locals.extend(std::iter::repeat_n(0, decl.n_locals as usize));
        self.inst.frames.push(Frame { func, pc: 0, locals_base });
        let fuel_before = self.fuel_used_total;
        let (audited_before, violations_before) = match &self.audit {
            Some(a) => (a.audited, a.violations.len()),
            None => (0, 0),
        };
        let result = if self.is_fast_path() { self.run_fast() } else { self.run() };
        if result.is_err() {
            // Leave state consistent for inspection but do not allow resume.
            self.inst.frames.clear();
        }
        // Fuel lower bounds are claimed for *successful* completions only:
        // a trap can legitimately cut a run short of the static minimum.
        if result.is_ok() {
            if let (Some(audit), Some(claims)) = (self.audit.as_mut(), self.program.claims()) {
                if let Some(&claimed) = claims.entry_min_fuel.get(func) {
                    audit.audited += 1;
                    let observed = self.fuel_used_total - fuel_before;
                    if claimed == u64::MAX {
                        audit.record(AuditViolation::InfeasibleEntryCompleted { func });
                    } else if observed < claimed {
                        audit.record(AuditViolation::FuelBelowClaim { func, claimed, observed });
                    }
                }
            }
        }
        let m = vm_metrics();
        m.fuel_consumed.add(self.fuel_used_total - fuel_before);
        if self.is_fast_path() {
            m.calls_fast.inc();
        } else {
            m.calls_checked.inc();
        }
        if let Some(a) = &self.audit {
            m.claims_audited.add(a.audited - audited_before);
            m.audit_violations.add((a.violations.len() - violations_before) as u64);
        }
        result
    }

    fn charge(&mut self, amount: u64) -> Result<(), Trap> {
        if self.fuel < amount {
            self.fuel = 0;
            return Err(Trap::FuelExhausted);
        }
        self.fuel -= amount;
        self.fuel_used_total += amount;
        Ok(())
    }

    fn push(&mut self, v: i64) -> Result<(), Trap> {
        if self.inst.stack.len() >= self.policy().max_stack {
            return Err(Trap::StackOverflow);
        }
        self.inst.stack.push(v);
        Ok(())
    }

    fn pop(&mut self) -> Result<i64, Trap> {
        self.inst.stack.pop().ok_or(Trap::StackUnderflow)
    }

    fn mem_range(&self, addr: i64, len: i64) -> Result<(usize, usize), Trap> {
        let oob = || Trap::OutOfBounds { addr: addr as u64, len: len as u64 };
        if addr < 0 || len < 0 {
            return Err(oob());
        }
        let (a, l) = (addr as usize, len as usize);
        let end = a.checked_add(l).ok_or_else(oob)?;
        if end > self.inst.memory.len() {
            return Err(oob());
        }
        Ok((a, end))
    }

    fn load(&self, addr: i64, width: usize) -> Result<i64, Trap> {
        let (a, end) = self.mem_range(addr, width as i64)?;
        let bytes = &self.inst.memory.bytes()[a..end];
        let mut buf = [0u8; 8];
        buf[..width].copy_from_slice(bytes);
        Ok(i64::from_le_bytes(buf))
    }

    fn store(&mut self, addr: i64, width: usize, value: i64) -> Result<(), Trap> {
        let (a, end) = self.mem_range(addr, width as i64)?;
        let bytes = value.to_le_bytes();
        self.inst.memory.slice_mut(a..end).copy_from_slice(&bytes[..width]);
        Ok(())
    }

    /// `memcopy`: charges for `len` bytes, then moves them (memmove
    /// semantics). Shared by both dispatch loops, like the two below.
    #[inline(never)]
    fn mem_copy(&mut self, dst: i64, src: i64, len: i64) -> Result<(), Trap> {
        self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
        let (s, send) = self.mem_range(src, len)?;
        let (d, _) = self.mem_range(dst, len)?;
        self.inst.memory.copy_within(s..send, d);
        Ok(())
    }

    /// `memfill`: charges for `len` bytes, then sets them to `byte`.
    #[inline(never)]
    fn mem_fill(&mut self, dst: i64, byte: i64, len: i64) -> Result<(), Trap> {
        self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
        let (d, end) = self.mem_range(dst, len)?;
        self.inst.memory.slice_mut(d..end).fill(byte as u8);
        Ok(())
    }

    /// `lzcopy`: charges for `len` bytes, then copies them front to back,
    /// so a destination that starts inside the source repeats the
    /// `dst - src` bytes between them — the LZ match semantics.
    #[inline(never)]
    fn lz_copy(&mut self, dst: i64, src: i64, len: i64) -> Result<(), Trap> {
        self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
        let (s, send) = self.mem_range(src, len)?;
        let (d, _) = self.mem_range(dst, len)?;
        let n = send - s;
        if s >= d {
            self.inst.memory.copy_within(s..send, d);
            return Ok(());
        }
        // The first `dist` bytes do not overlap their source. From then on
        // `d..d + done` holds whole repeats of them, so each pass doubles it.
        let dist = d - s;
        let mut done = n.min(dist);
        self.inst.memory.copy_within(s..s + done, d);
        while done < n {
            let chunk = done.min(n - done);
            self.inst.memory.copy_within(d..d + chunk, d + done);
            done += chunk;
        }
        Ok(())
    }

    /// The main dispatch loop.
    fn run(&mut self) -> Result<i64, Trap> {
        loop {
            let frame = self.inst.frames.last_mut().ok_or(Trap::Wedged)?;
            let func = frame.func;
            let pc = frame.pc;
            let base = frame.locals_base;
            let code = &self.program.module().functions[func].code;
            if pc >= code.len() {
                // Implicit return at end of body (verifier guarantees a
                // terminator, this is defensive).
                if self.ret()? {
                    return Ok(self.inst.stack.pop().unwrap_or(0));
                }
                continue;
            }
            let (op, next) = Op::decode(code, pc).map_err(|_| Trap::Wedged)?;
            if self.audit.is_some() {
                // Audit *before* dispatch, while the operands the analyzer
                // reasoned about are still on the stack.
                self.audit_check(func, pc, &op);
            }
            self.inst.frames.last_mut().expect("frame").pc = next;
            self.charge(1)?;

            match op {
                Op::Halt => return Ok(self.inst.stack.pop().unwrap_or(0)),
                Op::Nop => {}
                Op::Unreachable => return Err(Trap::Unreachable),
                Op::Jmp(rel) => self.branch(rel)?,
                Op::JmpIf(rel) => {
                    if self.pop()? != 0 {
                        self.branch(rel)?;
                    }
                }
                Op::JmpIfZ(rel) => {
                    if self.pop()? == 0 {
                        self.branch(rel)?;
                    }
                }
                Op::Call(idx) => self.enter(idx as usize)?,
                Op::Ret => {
                    if self.ret()? {
                        return Ok(self.inst.stack.pop().unwrap_or(0));
                    }
                }
                Op::HostCall(id) => {
                    if let Some(abort_code) = self.host_call(id)? {
                        return Err(Trap::HostAbort(abort_code));
                    }
                }
                Op::PushI8(v) => self.push(v as i64)?,
                Op::PushI32(v) => self.push(v as i64)?,
                Op::PushI64(v) => self.push(v)?,
                Op::LocalGet(n) => {
                    let v = self.local(base, n)?;
                    self.push(v)?;
                }
                Op::LocalSet(n) => {
                    let v = self.pop()?;
                    self.set_local(base, n, v)?;
                }
                Op::LocalTee(n) => {
                    let v = *self.inst.stack.last().ok_or(Trap::StackUnderflow)?;
                    self.set_local(base, n, v)?;
                }
                Op::Drop => {
                    self.pop()?;
                }
                Op::Dup => {
                    let v = *self.inst.stack.last().ok_or(Trap::StackUnderflow)?;
                    self.push(v)?;
                }
                Op::Swap => {
                    let n = self.inst.stack.len();
                    if n < 2 {
                        return Err(Trap::StackUnderflow);
                    }
                    self.inst.stack.swap(n - 1, n - 2);
                }
                Op::Add => self.binop(|a, b| Ok(a.wrapping_add(b)))?,
                Op::Sub => self.binop(|a, b| Ok(a.wrapping_sub(b)))?,
                Op::Mul => self.binop(|a, b| Ok(a.wrapping_mul(b)))?,
                Op::DivU => self.binop(|a, b| {
                    if b == 0 {
                        Err(Trap::DivideByZero)
                    } else {
                        Ok(((a as u64) / (b as u64)) as i64)
                    }
                })?,
                Op::DivS => self.binop(|a, b| {
                    if b == 0 || (a == i64::MIN && b == -1) {
                        Err(Trap::DivideByZero)
                    } else {
                        Ok(a / b)
                    }
                })?,
                Op::RemU => self.binop(|a, b| {
                    if b == 0 {
                        Err(Trap::DivideByZero)
                    } else {
                        Ok(((a as u64) % (b as u64)) as i64)
                    }
                })?,
                Op::And => self.binop(|a, b| Ok(a & b))?,
                Op::Or => self.binop(|a, b| Ok(a | b))?,
                Op::Xor => self.binop(|a, b| Ok(a ^ b))?,
                Op::Shl => self.binop(|a, b| Ok(a.wrapping_shl(b as u32)))?,
                Op::ShrU => self.binop(|a, b| Ok(((a as u64).wrapping_shr(b as u32)) as i64))?,
                Op::ShrS => self.binop(|a, b| Ok(a.wrapping_shr(b as u32)))?,
                Op::Eq => self.binop(|a, b| Ok((a == b) as i64))?,
                Op::Ne => self.binop(|a, b| Ok((a != b) as i64))?,
                Op::LtU => self.binop(|a, b| Ok(((a as u64) < (b as u64)) as i64))?,
                Op::LtS => self.binop(|a, b| Ok((a < b) as i64))?,
                Op::GtU => self.binop(|a, b| Ok(((a as u64) > (b as u64)) as i64))?,
                Op::GtS => self.binop(|a, b| Ok((a > b) as i64))?,
                Op::LeU => self.binop(|a, b| Ok(((a as u64) <= (b as u64)) as i64))?,
                Op::GeU => self.binop(|a, b| Ok(((a as u64) >= (b as u64)) as i64))?,
                Op::Eqz => {
                    let v = self.pop()?;
                    self.push((v == 0) as i64)?;
                }
                Op::Load8 => {
                    let a = self.pop()?;
                    let v = self.load(a, 1)?;
                    self.push(v)?;
                }
                Op::Load16 => {
                    let a = self.pop()?;
                    let v = self.load(a, 2)?;
                    self.push(v)?;
                }
                Op::Load32 => {
                    let a = self.pop()?;
                    let v = self.load(a, 4)?;
                    self.push(v)?;
                }
                Op::Load64 => {
                    let a = self.pop()?;
                    let v = self.load(a, 8)?;
                    self.push(v)?;
                }
                Op::Store8 => {
                    let v = self.pop()?;
                    let a = self.pop()?;
                    self.store(a, 1, v)?;
                }
                Op::Store16 => {
                    let v = self.pop()?;
                    let a = self.pop()?;
                    self.store(a, 2, v)?;
                }
                Op::Store32 => {
                    let v = self.pop()?;
                    let a = self.pop()?;
                    self.store(a, 4, v)?;
                }
                Op::Store64 => {
                    let v = self.pop()?;
                    let a = self.pop()?;
                    self.store(a, 8, v)?;
                }
                Op::MemCopy => {
                    let len = self.pop()?;
                    let src = self.pop()?;
                    let dst = self.pop()?;
                    self.mem_copy(dst, src, len)?;
                }
                Op::MemFill => {
                    let len = self.pop()?;
                    let byte = self.pop()?;
                    let dst = self.pop()?;
                    self.mem_fill(dst, byte, len)?;
                }
                Op::LzCopy => {
                    let len = self.pop()?;
                    let src = self.pop()?;
                    let dst = self.pop()?;
                    self.lz_copy(dst, src, len)?;
                }
                Op::MemSize => {
                    let size = self.inst.memory.len() as i64;
                    self.push(size)?;
                }
            }
        }
    }

    /// The claims-auditor hook: runs before dispatch of every checked-loop
    /// instruction and compares the analyzer's per-site claims against the
    /// live operand stack. Never alters execution — violations are
    /// collected for the embedding to inspect.
    fn audit_check(&mut self, func: usize, at: usize, op: &Op) {
        // Take the state out so `self` stays freely borrowable below.
        let Some(mut audit) = self.audit.take() else { return };
        let n = self.inst.stack.len();
        let peek = |i: usize| -> Option<i64> { n.checked_sub(1 + i).map(|s| self.inst.stack[s]) };

        if let Op::HostCall(id) = *op {
            audit.audited += 1;
            let claimed = self.program.claims().map_or(0, |c| c.required_hosts);
            if id >= 8 || claimed & (1u8 << id) == 0 {
                audit.record(AuditViolation::UnclaimedHostCall { id });
            }
        }

        // Violations found at this site; kept local so `site` (borrowed from
        // `audit`) and the recorder don't alias. Empty in the common case,
        // so no allocation.
        let mut found: Vec<AuditViolation> = Vec::new();
        let mut site_hit = false;
        if let Some(site) = audit.sites.get(&(func, at)) {
            site_hit = true;
            for (i, &(lo, hi)) in site.operands.iter().enumerate() {
                let Some(value) = peek(i) else { break };
                if value < lo || value > hi {
                    found.push(AuditViolation::ValueOutsideInterval {
                        func,
                        at,
                        operand: i,
                        value,
                        lo,
                        hi,
                    });
                }
            }
            let p = site.proven;
            let mut fact_failed = |fact: &'static str, value: i64| {
                found.push(AuditViolation::ProvenFactViolated { func, at, fact, value });
            };
            if p & proven::DIV_NONZERO != 0 {
                if let Some(b) = peek(0) {
                    if b == 0 {
                        fact_failed("div_nonzero", b);
                    }
                }
            }
            if p & proven::DIV_NO_OVERFLOW != 0 {
                if let (Some(b), Some(a)) = (peek(0), peek(1)) {
                    if a == i64::MIN && b == -1 {
                        fact_failed("div_no_overflow", a);
                    }
                }
            }
            if p & proven::SHIFT_IN_RANGE != 0 {
                if let Some(b) = peek(0) {
                    if !(0..=63).contains(&b) {
                        fact_failed("shift_in_range", b);
                    }
                }
            }
            if p & (proven::MEM_IN_BOUNDS | proven::HOST_ARGS_OK) != 0 {
                // Which (addr, len) pairs the fact promises are in bounds,
                // derived from the operand layout of each op (top last in
                // the listed pairs' source positions).
                let ranges: &[(Option<i64>, Option<i64>)] = &match *op {
                    Op::Load8 => [(peek(0), Some(1)), (None, None)],
                    Op::Load16 => [(peek(0), Some(2)), (None, None)],
                    Op::Load32 => [(peek(0), Some(4)), (None, None)],
                    Op::Load64 => [(peek(0), Some(8)), (None, None)],
                    Op::Store8 => [(peek(1), Some(1)), (None, None)],
                    Op::Store16 => [(peek(1), Some(2)), (None, None)],
                    Op::Store32 => [(peek(1), Some(4)), (None, None)],
                    Op::Store64 => [(peek(1), Some(8)), (None, None)],
                    // MemCopy/LzCopy pop len, src, dst.
                    Op::MemCopy | Op::LzCopy => [(peek(1), peek(0)), (peek(2), peek(0))],
                    // MemFill pops len, byte, dst.
                    Op::MemFill => [(peek(2), peek(0)), (None, None)],
                    Op::HostCall(id) => match HostId::from_id(id) {
                        // Sha1 pops dst, len, src: hashes (src, len), writes
                        // 20 bytes at dst.
                        Some(HostId::Sha1) => [(peek(2), peek(1)), (peek(0), Some(20))],
                        // Log pops len, ptr.
                        Some(HostId::Log) => [(peek(1), peek(0)), (None, None)],
                        // MemEq pops len, b, a.
                        Some(HostId::MemEq) => [(peek(2), peek(0)), (peek(1), peek(0))],
                        // WeakSum pops len, src.
                        Some(HostId::WeakSum) => [(peek(1), peek(0)), (None, None)],
                        _ => [(None, None), (None, None)],
                    },
                    _ => [(None, None), (None, None)],
                };
                for &(addr, len) in ranges {
                    if let (Some(addr), Some(len)) = (addr, len) {
                        if self.mem_range(addr, len).is_err() {
                            fact_failed(
                                if p & proven::HOST_ARGS_OK != 0 {
                                    "host_args_ok"
                                } else {
                                    "mem_in_bounds"
                                },
                                addr,
                            );
                        }
                    }
                }
            }
        }
        if site_hit {
            audit.audited += 1;
        }
        for v in found {
            audit.record(v);
        }
        self.audit = Some(audit);
    }

    fn binop(&mut self, f: impl FnOnce(i64, i64) -> Result<i64, Trap>) -> Result<(), Trap> {
        let b = self.pop()?;
        let a = self.pop()?;
        let r = f(a, b)?;
        self.push(r)
    }

    /// `divu`, `divs` and `remu` on the fast path, with the checked loop's
    /// trap conditions.
    #[inline]
    fn divide(op: SlotOp, a: i64, b: i64) -> Result<i64, Trap> {
        if b == 0 || (op == SlotOp::DivS && a == i64::MIN && b == -1) {
            return Err(Trap::DivideByZero);
        }
        Ok(match op {
            SlotOp::DivU => ((a as u64) / (b as u64)) as i64,
            SlotOp::DivS => a / b,
            _ => ((a as u64) % (b as u64)) as i64,
        })
    }

    /// Reads local `n` of the frame whose locals start at `base`. The
    /// running frame's args + locals are the tail of the arena (`enter`
    /// appends exactly them, `ret` truncates back), so the arena's length
    /// bounds the index without a trip to the function table — which may
    /// sit behind a shared `Arc`. The verifier rejects an out-of-range
    /// index statically; a miss here is a wedge.
    #[inline]
    fn local(&self, base: usize, n: u8) -> Result<i64, Trap> {
        self.inst.locals.get(base + n as usize).copied().ok_or(Trap::Wedged)
    }

    /// Writes local `n`; see [`Machine::local`].
    #[inline]
    fn set_local(&mut self, base: usize, n: u8, v: i64) -> Result<(), Trap> {
        *self.inst.locals.get_mut(base + n as usize).ok_or(Trap::Wedged)? = v;
        Ok(())
    }

    /// Folds what the fast loop charged to its own copy of the tank since
    /// the last call back into the machine's counters.
    #[inline]
    fn settle(&mut self, fuel: u64) {
        self.fuel_used_total += self.fuel - fuel;
        self.fuel = fuel;
    }

    /// A slot the tank cannot pay for in full. The run ends where the
    /// plain ops would have: every unit left bought one more op, none of
    /// which the embedding can observe, and the next found the tank empty
    /// — unless the last unit bought a main op that traps, in which case
    /// that trap is how the run ended.
    #[cold]
    #[inline(never)]
    fn starved(&mut self, slot: &Slot, win: &[i64]) -> Trap {
        let left = self.fuel;
        self.fuel_used_total += left;
        self.fuel = 0;
        if slot.tail > 0 && left == (slot.n - slot.tail) as u64 {
            let reg = |r: usize| win.get(r).copied().unwrap_or(0);
            let (a, b) = (reg(slot.a as usize), slot.b as usize);
            let main = match slot.op {
                SlotOp::DivU | SlotOp::DivS | SlotOp::RemU => Self::divide(slot.op, a, reg(b)),
                SlotOp::Load8 => self.load(a, 1),
                SlotOp::Load16 => self.load(a, 2),
                SlotOp::Load32 => self.load(a, 4),
                SlotOp::Load64 => self.load(a, 8),
                _ => Ok(0),
            };
            if let Err(trap) = main {
                return trap;
            }
        }
        Trap::FuelExhausted
    }

    /// `call` on the fast path: the callee's window opens at `base`, where
    /// the caller has already left the arguments. Suspends the caller at
    /// `ret_pc`, makes room for the window and zeroes the callee's locals.
    #[inline(never)]
    fn enter_window(
        &mut self,
        callee: &RegFunction,
        func: usize,
        regs: &mut Vec<i64>,
        base: usize,
        ret_pc: usize,
    ) -> Result<(), Trap> {
        if self.inst.frames.len() >= self.policy().max_call_depth {
            return Err(Trap::CallDepthExceeded);
        }
        self.inst.frames.last_mut().ok_or(Trap::Wedged)?.pc = ret_pc;
        if regs.len() < base + callee.frame {
            regs.resize(base + callee.frame, 0);
        }
        regs[base + callee.n_args..base + callee.first_stack].fill(0);
        self.inst.frames.push(Frame { func, pc: 0, locals_base: base });
        Ok(())
    }

    /// `ret` from a called frame on the fast path: the `count` results at
    /// `first` slide down to the start of the window, where the arguments
    /// were and where the caller's stack registers expect them. Returns
    /// the caller's function, resume pc and window base.
    #[inline(never)]
    fn leave_window(
        &mut self,
        win: &mut [i64],
        first: usize,
        count: usize,
    ) -> Result<(usize, usize, usize), Trap> {
        if first + count > win.len() {
            return Err(Trap::Wedged);
        }
        win.copy_within(first..first + count, 0);
        self.inst.frames.pop();
        let caller = self.inst.frames.last().ok_or(Trap::Wedged)?;
        Ok((caller.func, caller.pc, caller.locals_base))
    }

    /// `halt` at frame-relative height `height`: the top of the stack the
    /// frames share, which on the fast path is the highest stack register
    /// in use in the innermost frame that has one; `0` when none does.
    #[cold]
    #[inline(never)]
    fn halted(&self, funcs: &[RegFunction], regs: &[i64], height: usize) -> i64 {
        // A suspended frame's stack ends where its callee's window begins.
        let mut callee_base = None;
        for frame in self.inst.frames.iter().rev() {
            let first_stack = frame.locals_base + funcs[frame.func].first_stack;
            let height = callee_base.map_or(height, |base: usize| base.saturating_sub(first_stack));
            if height > 0 {
                return regs.get(first_stack + height - 1).copied().unwrap_or(0);
            }
            callee_base = Some(frame.locals_base);
        }
        0
    }

    /// A host call on the fast path. The shared body takes its operands
    /// from, and leaves its result on, `self.inst.stack`, which the fast loop
    /// otherwise never touches: `args` go there and `args[0]`, the stack
    /// register the result belongs in, takes what comes back.
    #[inline(never)]
    fn host_call_regs(&mut self, id: u8, args: &mut [i64]) -> Result<Option<i64>, Trap> {
        self.inst.stack.clear();
        self.inst.stack.extend_from_slice(args);
        let aborted = self.host_call(id)?;
        if let (Some(slot), Some(v)) = (args.first_mut(), self.inst.stack.pop()) {
            *slot = v;
        }
        Ok(aborted)
    }

    /// The fast dispatch loop, over the register form of [`analysis::reg`]:
    /// `pc` counts instructions, operands are registers of the running
    /// frame's window or immediates, and nothing is pushed or popped. A
    /// slot stands for one source op or a run of them and is charged op
    /// for op, so every call — completed, trapped or out of fuel — ends at
    /// the same `fuel_used` as on the checked loop.
    ///
    /// [`analysis::reg`]: crate::analysis::reg
    #[inline(never)]
    fn run_fast(&mut self) -> Result<i64, Trap> {
        // One refcount bump per entry call keeps the shared code borrowed
        // across the loop's `&mut self` steps.
        let Program::Admitted(analyzed) = &self.program else { return Err(Trap::Wedged) };
        let analyzed = Arc::clone(analyzed);
        let funcs = analyzed.fast.as_slice();
        let entry = self.inst.frames.last().ok_or(Trap::Wedged)?.func;
        let entry = funcs.get(entry).ok_or(Trap::Wedged)?;
        // The register file is the locals arena, which `call` has filled
        // with the entry frame's arguments and zeroed locals. The loop owns
        // it, and its copy of the tank, until it exits.
        let mut regs = std::mem::take(&mut self.inst.locals);
        regs.resize(entry.frame, 0);
        let mut fuel = self.fuel;
        let mut code = entry.code.as_slice();
        let mut win = &mut regs[..];
        let mut pc = 0usize;

        // A register read or write; the translator only names registers
        // inside the window, so a miss is a wedge.
        macro_rules! get {
            ($r:expr) => {
                match win.get($r as usize) {
                    Some(&v) => v,
                    None => break Err(Trap::Wedged),
                }
            };
        }
        macro_rules! set {
            ($r:expr, $v:expr) => {{
                let v = $v;
                match win.get_mut($r as usize) {
                    Some(reg) => *reg = v,
                    None => break Err(Trap::Wedged),
                }
            }};
        }
        // A conditional jump on `e(r[a], y)`.
        macro_rules! br {
            ($s:ident, |$a:ident, $b:ident| $e:expr, $y:expr) => {{
                let ($a, $b): (i64, i64) = (get!($s.a), $y);
                if $e {
                    pc = $s.t as usize;
                }
            }};
        }
        // Total arithmetic: `r[d] = e(r[a], y)`.
        macro_rules! alu {
            ($s:ident, |$a:ident, $b:ident| $e:expr, $y:expr) => {{
                let ($a, $b): (i64, i64) = (get!($s.a), $y);
                set!($s.d, $e)
            }};
        }
        // A main op that may trap: the slot was charged through its
        // consumer, which a trap never reaches.
        macro_rules! main {
            ($s:expr, $e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(trap) => {
                        fuel += $s.tail as u64;
                        break Err(trap);
                    }
                }
            };
        }
        // A helper that charges fuel itself sees the machine's counters
        // up to date and leaves the loop's copy stale.
        macro_rules! charging {
            ($e:expr) => {{
                self.settle(fuel);
                let outcome = $e;
                fuel = self.fuel;
                match outcome {
                    Ok(v) => v,
                    Err(trap) => break Err(trap),
                }
            }};
        }

        let outcome = loop {
            let Some(s) = code.get(pc) else { break Err(Trap::Wedged) };
            if fuel < s.n as u64 {
                self.settle(fuel);
                let trap = self.starved(s, win);
                fuel = self.fuel;
                break Err(trap);
            }
            fuel -= s.n as u64;
            pc += s.n as usize;

            match s.op {
                SlotOp::Br => br!(s, |a, b| truth::holds(s.k, a, b), get!(s.b)),
                SlotOp::BrI => br!(s, |a, b| truth::holds(s.k, a, b), s.b as i64),
                SlotOp::BrEq => br!(s, |a, b| a == b, get!(s.b)),
                SlotOp::BrNe => br!(s, |a, b| a != b, get!(s.b)),
                SlotOp::BrLtU => br!(s, |a, b| (a as u64) < b as u64, get!(s.b)),
                SlotOp::BrGeU => br!(s, |a, b| a as u64 >= b as u64, get!(s.b)),
                SlotOp::BrEqI => br!(s, |a, b| a == b, s.b as i64),
                SlotOp::BrNeI => br!(s, |a, b| a != b, s.b as i64),
                SlotOp::BrLtUI => br!(s, |a, b| (a as u64) < b as u64, s.b as i64),
                SlotOp::BrGeUI => br!(s, |a, b| a as u64 >= b as u64, s.b as i64),
                SlotOp::BrGtUI => br!(s, |a, b| a as u64 > b as u64, s.b as i64),
                SlotOp::BrLeUI => br!(s, |a, b| a as u64 <= b as u64, s.b as i64),
                SlotOp::Cmp => set!(s.d, truth::holds(s.k, get!(s.a), get!(s.b)) as i64),
                SlotOp::CmpI => set!(s.d, truth::holds(s.k, get!(s.a), s.b as i64) as i64),
                SlotOp::Add => alu!(s, |a, b| a.wrapping_add(b), get!(s.b)),
                SlotOp::AddI => alu!(s, |a, b| a.wrapping_add(b), s.b as i64),
                SlotOp::Sub => alu!(s, |a, b| a.wrapping_sub(b), get!(s.b)),
                SlotOp::SubI => alu!(s, |a, b| a.wrapping_sub(b), s.b as i64),
                SlotOp::Mul => alu!(s, |a, b| a.wrapping_mul(b), get!(s.b)),
                SlotOp::MulI => alu!(s, |a, b| a.wrapping_mul(b), s.b as i64),
                SlotOp::And => alu!(s, |a, b| a & b, get!(s.b)),
                SlotOp::AndI => alu!(s, |a, b| a & b, s.b as i64),
                SlotOp::Or => alu!(s, |a, b| a | b, get!(s.b)),
                SlotOp::OrI => alu!(s, |a, b| a | b, s.b as i64),
                SlotOp::Xor => alu!(s, |a, b| a ^ b, get!(s.b)),
                SlotOp::XorI => alu!(s, |a, b| a ^ b, s.b as i64),
                SlotOp::Shl => alu!(s, |a, b| a.wrapping_shl(b as u32), get!(s.b)),
                SlotOp::ShlI => alu!(s, |a, b| a.wrapping_shl(b as u32), s.b as i64),
                SlotOp::ShrU => alu!(s, |a, b| (a as u64).wrapping_shr(b as u32) as i64, get!(s.b)),
                SlotOp::ShrUI => {
                    alu!(s, |a, b| (a as u64).wrapping_shr(b as u32) as i64, s.b as i64)
                }
                SlotOp::ShrS => alu!(s, |a, b| a.wrapping_shr(b as u32), get!(s.b)),
                SlotOp::ShrSI => alu!(s, |a, b| a.wrapping_shr(b as u32), s.b as i64),
                SlotOp::DivU | SlotOp::DivS | SlotOp::RemU => {
                    set!(s.d, main!(s, Self::divide(s.op, get!(s.a), get!(s.b))))
                }
                SlotOp::Mov => set!(s.d, get!(s.a)),
                SlotOp::Const => set!(s.d, s.b as i64),
                SlotOp::Const64 => set!(s.d, s.wide()),
                SlotOp::Load8 => set!(s.d, main!(s, self.load(get!(s.a), 1))),
                SlotOp::Load16 => set!(s.d, main!(s, self.load(get!(s.a), 2))),
                SlotOp::Load32 => set!(s.d, main!(s, self.load(get!(s.a), 4))),
                SlotOp::Load64 => set!(s.d, main!(s, self.load(get!(s.a), 8))),
                SlotOp::Store8 => main!(s, self.store(get!(s.a), 1, get!(s.b))),
                SlotOp::Store16 => main!(s, self.store(get!(s.a), 2, get!(s.b))),
                SlotOp::Store32 => main!(s, self.store(get!(s.a), 4, get!(s.b))),
                SlotOp::Store64 => main!(s, self.store(get!(s.a), 8, get!(s.b))),
                SlotOp::Jmp => pc = s.t as usize,
                SlotOp::MemCopy => {
                    charging!(self.mem_copy(get!(s.d), get!(s.a), get!(s.b)));
                }
                SlotOp::MemFill => {
                    charging!(self.mem_fill(get!(s.d), get!(s.a), get!(s.b)));
                }
                SlotOp::LzCopy => {
                    charging!(self.lz_copy(get!(s.d), get!(s.a), get!(s.b)));
                }
                SlotOp::Swap => {
                    let (x, y) = (get!(s.a), get!(s.b));
                    set!(s.a, y);
                    set!(s.b, x);
                }
                SlotOp::Nop => {}
                SlotOp::Host => {
                    let first = s.a as usize;
                    let Some(args) = win.get_mut(first..first + s.b as usize) else {
                        break Err(Trap::Wedged);
                    };
                    if let Some(code) = charging!(self.host_call_regs(s.t as u8, args)) {
                        break Err(Trap::HostAbort(code));
                    }
                }
                SlotOp::Call => {
                    let callee = s.t as usize;
                    let Some(next) = funcs.get(callee) else { break Err(Trap::Wedged) };
                    let base = self.inst.frames.last().map_or(0, |f| f.locals_base) + s.a as usize;
                    if let Err(trap) = self.enter_window(next, callee, &mut regs, base, pc) {
                        break Err(trap);
                    }
                    (code, pc) = (next.code.as_slice(), 0);
                    win = &mut regs[base..base + next.frame];
                }
                SlotOp::Ret => {
                    let (first, count) = (s.a as usize, s.b as usize);
                    if self.inst.frames.len() == 1 {
                        break Ok(if count > 0 { get!(first + count - 1) } else { 0 });
                    }
                    let (caller, resume, base) = match self.leave_window(win, first, count) {
                        Ok(frame) => frame,
                        Err(trap) => break Err(trap),
                    };
                    let Some(next) = funcs.get(caller) else { break Err(Trap::Wedged) };
                    (code, pc) = (next.code.as_slice(), resume);
                    win = &mut regs[base..base + next.frame];
                }
                SlotOp::Halt => break Ok(self.halted(funcs, &regs, s.a as usize)),
                SlotOp::Unreachable => break Err(Trap::Unreachable),
                SlotOp::Wedge => break Err(Trap::Wedged),
            }
        };
        self.settle(fuel);
        self.inst.locals = regs;
        outcome
    }

    fn branch(&mut self, rel: i32) -> Result<(), Trap> {
        let frame = self.inst.frames.last_mut().ok_or(Trap::Wedged)?;
        // pc currently points at the *next* instruction; offsets are
        // relative to it. The verifier guarantees targets are valid.
        let target = frame.pc as i64 + rel as i64;
        let code_len = self.program.module().functions[frame.func].code.len() as i64;
        if target < 0 || target > code_len {
            return Err(Trap::Wedged);
        }
        frame.pc = target as usize;
        Ok(())
    }

    fn enter(&mut self, callee: usize) -> Result<(), Trap> {
        if self.inst.frames.len() >= self.policy().max_call_depth {
            return Err(Trap::CallDepthExceeded);
        }
        let decl = self.program.module().functions.get(callee).ok_or(Trap::Wedged)?;
        let n_args = decl.n_args as usize;
        let n_locals = decl.n_locals as usize;
        if self.inst.stack.len() < n_args {
            return Err(Trap::StackUnderflow);
        }
        let locals_base = self.inst.locals.len();
        // Move args from stack into locals, preserving order (first arg is
        // deepest on the stack).
        let split = self.inst.stack.len() - n_args;
        self.inst.locals.extend_from_slice(&self.inst.stack[split..]);
        self.inst.stack.truncate(split);
        self.inst.locals.extend(std::iter::repeat_n(0, n_locals));
        self.inst.frames.push(Frame { func: callee, pc: 0, locals_base });
        Ok(())
    }

    /// Pops a frame. Returns true when the entry frame itself returned.
    fn ret(&mut self) -> Result<bool, Trap> {
        let frame = self.inst.frames.pop().ok_or(Trap::Wedged)?;
        self.inst.locals.truncate(frame.locals_base);
        Ok(self.inst.frames.is_empty())
    }

    /// Dispatches a host call. Returns `Some(code)` when the module aborted.
    fn host_call(&mut self, id: u8) -> Result<Option<i64>, Trap> {
        let host = HostId::from_id(id).ok_or(Trap::UnknownHost(id))?;
        if !self.policy().allows(host) {
            return Err(Trap::HostDenied(id));
        }
        match host {
            HostId::Sha1 => {
                let dst = self.pop()?;
                let len = self.pop()?;
                let src = self.pop()?;
                self.charge(len.max(0) as u64 / SHA1_BYTES_PER_FUEL + 1)?;
                let (s, send) = self.mem_range(src, len)?;
                let (d, _) = self.mem_range(dst, 20)?;
                let mut h = Sha1::new();
                h.update(&self.inst.memory.bytes()[s..send]);
                let digest = h.finalize();
                self.inst.memory.slice_mut(d..d + 20).copy_from_slice(digest.as_bytes());
                self.push(0)?;
            }
            HostId::Log => {
                let len = self.pop()?;
                let ptr = self.pop()?;
                let (p, end) = self.mem_range(ptr, len)?;
                let room = self.policy().max_log_bytes.saturating_sub(self.inst.log.len());
                let take = room.min(end - p);
                self.inst.log.extend_from_slice(&self.inst.memory.bytes()[p..p + take]);
                self.push(0)?;
            }
            HostId::Abort => {
                let code = self.pop()?;
                return Ok(Some(code));
            }
            HostId::MemEq => {
                let len = self.pop()?;
                let b = self.pop()?;
                let a = self.pop()?;
                self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
                let (ai, aend) = self.mem_range(a, len)?;
                let (bi, bend) = self.mem_range(b, len)?;
                let memory = self.inst.memory.bytes();
                let eq = memory[ai..aend] == memory[bi..bend];
                self.push(eq as i64)?;
            }
            HostId::WeakSum => {
                let len = self.pop()?;
                let src = self.pop()?;
                self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
                let (s, end) = self.mem_range(src, len)?;
                let sum = weak_sum(&self.inst.memory.bytes()[s..end]);
                self.push(sum as i64)?;
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str, entry: &str, args: &[i64]) -> Result<i64, Trap> {
        let module = assemble(src).expect("assembles");
        crate::verify::verify_module(&module).expect("verifies");
        let mut m = Machine::new(module, SandboxPolicy::default()).expect("instantiates");
        m.call(entry, args)
    }

    #[test]
    fn arithmetic() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                push 20
                push 22
                add
                ret
        "#;
        assert_eq!(run(src, "main", &[]), Ok(42));
    }

    #[test]
    fn arguments_and_locals() {
        let src = r#"
            .memory 1
            .func addmul args=2 locals=1
                local.get 0
                local.get 1
                add
                local.set 2
                local.get 2
                local.get 2
                mul
                ret
        "#;
        assert_eq!(run(src, "addmul", &[3, 4]), Ok(49));
    }

    #[test]
    fn loops_and_branches() {
        // Sum 1..=n iteratively.
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
        assert_eq!(run(src, "sum", &[10]), Ok(55));
        assert_eq!(run(src, "sum", &[0]), Ok(0));
        assert_eq!(run(src, "sum", &[1000]), Ok(500500));
    }

    #[test]
    fn function_calls() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                push 7
                call double
                push 1
                add
                ret
            .func double args=1 locals=0
                local.get 0
                push 2
                mul
                ret
        "#;
        assert_eq!(run(src, "main", &[]), Ok(15));
    }

    #[test]
    fn recursion_fibonacci() {
        let src = r#"
            .memory 1
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
        "#;
        assert_eq!(run(src, "fib", &[10]), Ok(55));
    }

    #[test]
    fn memory_load_store() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                push 100
                push 0x1234
                store16
                push 100
                load16
                ret
        "#;
        assert_eq!(run(src, "main", &[]), Ok(0x1234));
    }

    #[test]
    fn memory_widths() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                push 64
                push -1
                store64
                push 64
                load32
                ret
        "#;
        // Low 32 bits of -1, zero-extended.
        assert_eq!(run(src, "main", &[]), Ok(0xFFFF_FFFF));
    }

    #[test]
    fn data_segments_initialize_memory() {
        let src = r#"
            .memory 1
            .data 8 hex:DEADBEEF
            .func main args=0 locals=0
                push 8
                load32
                ret
        "#;
        // Stored little-endian in memory as DE AD BE EF → load32 LE.
        assert_eq!(run(src, "main", &[]), Ok(0xEFBEADDE));
    }

    #[test]
    fn memcopy_and_fill() {
        let src = r#"
            .memory 1
            .data 0 str:"hello"
            .func main args=0 locals=0
                push 100
                push 0
                push 5
                memcopy
                push 105
                push 33
                push 1
                memfill
                push 104
                load16
                ret
        "#;
        // mem[104] = 'o' (0x6F), mem[105] = '!' (33 = 0x21).
        assert_eq!(run(src, "main", &[]), Ok(0x216F));
    }

    #[test]
    fn lzcopy_replicates_on_overlap() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                push 0
                push 0xAB
                store8
                ; replicate mem[0] forward 8 times
                push 1
                push 0
                push 8
                lzcopy
                push 7
                load8
                ret
        "#;
        assert_eq!(run(src, "main", &[]), Ok(0xAB));

        // Against the byte-at-a-time definition, for distances around the
        // doubling stride's first steps and for len on either side of dist.
        let src = r#"
            .memory 1
            .func lz args=3 locals=0
                local.get 0
                local.get 1
                local.get 2
                lzcopy
                push 0
                ret
        "#;
        let seed: Vec<u8> = (1..=64).collect();
        for (dist, len) in [(1, 8), (2, 9), (3, 10), (3, 3), (5, 3), (7, 100), (64, 1)] {
            let mut m = Machine::new(assemble(src).unwrap(), SandboxPolicy::default()).unwrap();
            m.write_memory(100, &seed).unwrap();
            let mut expect = m.read_memory(0, 400).unwrap().to_vec();
            for i in 0..len {
                expect[100 + dist + i] = expect[100 + i];
            }
            m.call("lz", &[(100 + dist) as i64, 100, len as i64]).unwrap();
            assert_eq!(m.read_memory(0, 400).unwrap(), expect, "dist={dist} len={len}");
        }
    }

    #[test]
    fn sha1_host_call() {
        let src = r#"
            .memory 1
            .data 0 str:"abc"
            .func main args=0 locals=0
                push 0
                push 3
                push 100
                host sha1
                drop
                push 100
                load8
                ret
        "#;
        // First byte of sha1("abc") is 0xA9.
        assert_eq!(run(src, "main", &[]), Ok(0xA9));
    }

    #[test]
    fn memeq_host_call() {
        let src = r#"
            .memory 1
            .data 0 str:"abcabc"
            .func main args=0 locals=0
                push 0
                push 3
                push 3
                host memeq
                ret
        "#;
        assert_eq!(run(src, "main", &[]), Ok(1));
    }

    #[test]
    fn abort_host_call_traps() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                push 42
                host abort
                ret
        "#;
        assert_eq!(run(src, "main", &[]), Err(Trap::HostAbort(42)));
    }

    #[test]
    fn log_host_call_captures() {
        let src = r#"
            .memory 1
            .data 0 str:"pad online"
            .func main args=0 locals=0
                push 0
                push 10
                host log
                ret
        "#;
        let module = assemble(src).unwrap();
        let mut m = Machine::new(module, SandboxPolicy::default()).unwrap();
        m.call("main", &[]).unwrap();
        assert_eq!(m.log_bytes(), b"pad online");
    }

    #[test]
    fn out_of_bounds_load_traps() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                push 65536
                load8
                ret
        "#;
        assert!(matches!(run(src, "main", &[]), Err(Trap::OutOfBounds { .. })));
    }

    #[test]
    fn negative_address_traps() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                push -1
                load8
                ret
        "#;
        assert!(matches!(run(src, "main", &[]), Err(Trap::OutOfBounds { .. })));
    }

    #[test]
    fn divide_by_zero_traps() {
        let src = r#"
            .memory 1
            .func main args=2 locals=0
                local.get 0
                local.get 1
                divu
                ret
        "#;
        assert_eq!(run(src, "main", &[5, 0]), Err(Trap::DivideByZero));
        assert_eq!(run(src, "main", &[5, 2]), Ok(2));
    }

    #[test]
    fn fuel_exhaustion_stops_infinite_loop() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
            spin:
                jmp spin
        "#;
        let module = assemble(src).unwrap();
        let mut m = Machine::new(module, SandboxPolicy::default().with_fuel(10_000)).unwrap();
        assert_eq!(m.call("main", &[]), Err(Trap::FuelExhausted));
        assert_eq!(m.fuel_remaining(), 0);
    }

    #[test]
    fn call_depth_limit() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                call main
                ret
        "#;
        assert_eq!(run(src, "main", &[]), Err(Trap::CallDepthExceeded));
    }

    #[test]
    fn stack_overflow_limit() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
            grow:
                push 1
                jmp grow
        "#;
        assert_eq!(run(src, "main", &[]), Err(Trap::StackOverflow));
    }

    #[test]
    fn host_denied_by_policy() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                push 0
                push 1
                host log
                ret
        "#;
        let module = assemble(src).unwrap();
        let mut m =
            Machine::new(module, SandboxPolicy::default().with_hosts(&[HostId::Abort])).unwrap();
        assert_eq!(m.call("main", &[]), Err(Trap::HostDenied(HostId::Log.id())));
    }

    #[test]
    fn module_too_big_for_policy() {
        let src = r#"
            .memory 32
            .func main args=0 locals=0
                ret
        "#;
        let module = assemble(src).unwrap();
        let res = Machine::new(module, SandboxPolicy::default().with_memory(65536));
        assert!(res.is_err());
    }

    #[test]
    fn entry_errors() {
        let src = r#"
            .memory 1
            .func main args=1 locals=0
                local.get 0
                ret
        "#;
        let module = assemble(src).unwrap();
        let mut m = Machine::new(module, SandboxPolicy::default()).unwrap();
        assert_eq!(m.call("nope", &[]), Err(Trap::NoSuchEntry("nope".into())));
        assert_eq!(m.call("main", &[]), Err(Trap::ArityMismatch { expected: 1, got: 0 }));
        assert_eq!(m.call("main", &[9]), Ok(9));
    }

    #[test]
    fn unreachable_traps() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                unreachable
        "#;
        assert_eq!(run(src, "main", &[]), Err(Trap::Unreachable));
    }

    #[test]
    fn repeated_calls_reuse_instance() {
        let src = r#"
            .memory 1
            .func bump args=0 locals=0
                push 0
                push 0
                load8
                push 1
                add
                store8
                push 0
                load8
                ret
        "#;
        let module = assemble(src).unwrap();
        let mut m = Machine::new(module, SandboxPolicy::default()).unwrap();
        assert_eq!(m.call("bump", &[]), Ok(1));
        assert_eq!(m.call("bump", &[]), Ok(2));
        assert_eq!(m.call("bump", &[]), Ok(3));
    }

    #[test]
    fn write_and_read_memory_api() {
        let src = r#"
            .memory 1
            .func passthrough args=2 locals=0
                ; passthrough(src, len) copies to 0x8000, returns len
                push 0x8000
                local.get 0
                local.get 1
                memcopy
                local.get 1
                ret
        "#;
        let module = assemble(src).unwrap();
        let mut m = Machine::new(module, SandboxPolicy::default()).unwrap();
        m.write_memory(0x100, b"fractal").unwrap();
        let n = m.call("passthrough", &[0x100, 7]).unwrap();
        assert_eq!(n, 7);
        assert_eq!(m.read_memory(0x8000, 7).unwrap(), b"fractal");
    }

    #[test]
    fn swap_and_dup() {
        let src = r#"
            .memory 1
            .func main args=0 locals=0
                push 3
                push 10
                swap
                sub
                dup
                mul
                ret
        "#;
        // swap → 10,3 on stack → sub = 10-3... careful: push3 push10 swap
        // gives stack [10, 3]; sub pops b=3, a=10 → 7; dup, mul → 49.
        assert_eq!(run(src, "main", &[]), Ok(49));
    }

    #[test]
    fn shift_ops() {
        let src = r#"
            .memory 1
            .func main args=2 locals=0
                local.get 0
                local.get 1
                shru
                ret
        "#;
        assert_eq!(run(src, "main", &[-1, 56]), Ok(0xFF));
    }

    #[test]
    fn out_of_range_data_segment_is_a_trap_not_a_panic() {
        use crate::module::DataSegment;
        // `Module::from_bytes` bounds segments; a hand-built module (public
        // fields) reaches instantiation without that check.
        let one_page = crate::module::PAGE_SIZE as u32;
        for (offset, len) in [(one_page - 2, 4), (one_page, 1), (u32::MAX, 8)] {
            let mut module = assemble(".memory 1\n.func main args=0 locals=0\n ret\n").unwrap();
            module.data.push(DataSegment { offset, bytes: vec![0xAB; len] });
            let err = Machine::new(module, SandboxPolicy::default()).unwrap_err();
            assert_eq!(err, Trap::OutOfBounds { addr: offset as u64, len: len as u64 });
        }
        // The last byte of memory is still a legal destination.
        let mut module = assemble(".memory 1\n.func main args=0 locals=0\n ret\n").unwrap();
        module.data.push(DataSegment { offset: one_page - 1, bytes: vec![0xAB] });
        let m = Machine::new(module, SandboxPolicy::default()).unwrap();
        assert_eq!(m.read_memory(one_page as usize - 1, 1).unwrap(), [0xAB]);
    }

    #[test]
    fn instances_of_one_admitted_module_share_code_not_state() {
        let src = r#"
            .memory 1
            .func bump args=0 locals=0
                push 0
                push 0
                load8
                push 1
                add
                store8
                push 0
                load8
                ret
        "#;
        let policy = SandboxPolicy::default();
        let shared = Arc::new(assemble(src).unwrap().analyzed(&policy).unwrap());
        let mut a = Machine::new_analyzed(Arc::clone(&shared)).unwrap();
        let mut b = Machine::new_analyzed(Arc::clone(&shared)).unwrap();
        assert!(a.is_fast_path() && b.is_fast_path());
        assert_eq!(a.call("bump", &[]), Ok(1));
        assert_eq!(a.call("bump", &[]), Ok(2));
        // `b` never saw `a`'s stores, and spent only its own fuel.
        assert_eq!(b.call("bump", &[]), Ok(1));
        assert_eq!(a.fuel_used(), 2 * b.fuel_used());
        // Two instances plus this handle: nothing was cloned out of the Arc.
        assert_eq!(Arc::strong_count(&shared), 3);
    }

    // --- the register form against the checked loop ----------------------

    /// Runs `entry(args)` on the checked loop and on the fast path at the
    /// full budget and at every smaller one; asserts outcome, fuel used,
    /// fuel left, memory and log identical each time. Returns the full
    /// run's outcome and fuel, and the slot table of function 0.
    fn sweep(src: &str, entry: &str, args: &[i64]) -> (Result<i64, Trap>, u64, Vec<Slot>) {
        let module = assemble(src).unwrap();
        let analyzed = Arc::new(module.clone().analyzed(&SandboxPolicy::default()).unwrap());
        let run = |fuel: u64| {
            let policy = SandboxPolicy::default().with_fuel(fuel);
            let mut checked = Machine::new(module.clone(), policy).unwrap();
            let mut fast = Machine::new_analyzed(Arc::clone(&analyzed)).unwrap();
            fast.limit_fuel(fuel);
            assert!(fast.is_fast_path());
            let outcome = checked.call(entry, args);
            let what = format!("fuel={fuel} args={args:?}");
            assert_eq!(outcome, fast.call(entry, args), "{what}");
            assert_eq!(checked.fuel_used(), fast.fuel_used(), "{what}");
            assert_eq!(checked.fuel_remaining(), fast.fuel_remaining(), "{what}");
            let (m_checked, m_fast) = (checked.inst.memory.bytes(), fast.inst.memory.bytes());
            assert!(m_checked == m_fast, "memory differs, {what}");
            assert_eq!(checked.log_bytes(), fast.log_bytes(), "{what}");
            (outcome, checked.fuel_used())
        };
        let full = run(100_000);
        for fuel in 0..full.1 {
            let (outcome, used) = run(fuel);
            assert!(outcome.is_err() && used <= fuel, "fuel={fuel}: {outcome:?} after {used}");
        }
        // With exactly what it used the run ends the same way: a trap in a
        // run's main op is reached even though its consumer is unpaid.
        assert_eq!(run(full.1), full);
        (full.0, full.1, analyzed.slots(0).to_vec())
    }

    #[test]
    fn a_local_overwritten_after_its_get_is_read_at_its_old_value() {
        // `local.get 0` is on the stack when `local.set 0` overwrites the
        // local; the `add` must see the value that was pushed.
        let src = r#"
            .memory 1
            .func main args=1 locals=0
                local.get 0
                local.get 0
                push 1
                local.set 0
                add
                local.get 0
                add
                ret
        "#;
        let (outcome, fuel, slots) = sweep(src, "main", &[20]);
        assert_eq!((outcome, fuel), (Ok(41), 8));
        // The first get is materialised, and nothing folds across the set.
        assert_eq!(slots[0].op, SlotOp::Mov);
        assert_eq!((slots[2].op, slots[2].n, slots[2].d), (SlotOp::Const, 2, 0));
        assert_eq!((slots[4].op, slots[4].n), (SlotOp::Add, 1));
    }

    #[test]
    fn a_branch_into_a_run_executes_the_ops_from_there() {
        // `head` starts the run get·get·add·set; the two side entries land
        // on its second and third op with the operands the skipped ops
        // would have pushed.
        let src = r#"
            .memory 1
            .func main args=2 locals=1
                local.get 0
                push 1
                eq
                jmpif enter_second
                local.get 0
                push 2
                eq
                jmpif enter_third
            head:
                local.get 1
            second:
                local.get 1
            third:
                add
                local.set 2
                local.get 2
                ret
            enter_second:
                push 100
                jmp second
            enter_third:
                push 100
                push 7
                jmp third
        "#;
        let (outcome, _, slots) = sweep(src, "main", &[0, 21]);
        assert_eq!(outcome, Ok(42));
        assert_eq!(sweep(src, "main", &[1, 21]).0, Ok(121));
        assert_eq!(sweep(src, "main", &[2, 21]).0, Ok(107));
        let head = 8;
        assert_eq!((slots[0].op, slots[0].n), (SlotOp::BrEqI, 4), "{}", slots[0]);
        // One slot for the whole run, and the covered slots keep the
        // (shorter) runs that start at them.
        let show: Vec<String> = slots[head..head + 4].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            show,
            ["add r2, r1, r1 x4", "add r2, r3, r1 x3", "add r2, r3, r4 x2", "mov r2, r3"]
        );
        assert!(slots.iter().any(|s| s.op == SlotOp::Jmp && s.t as usize == head + 1));
        assert!(slots.iter().any(|s| s.op == SlotOp::Jmp && s.t as usize == head + 2));
    }

    #[test]
    fn a_trap_in_the_middle_of_a_run_ends_at_the_checked_loops_fuel() {
        // A load out of bounds between its `local.get` and `local.set`.
        let load = r#"
            .memory 1
            .func main args=1 locals=1
                local.get 0
                load8
                local.set 1
                local.get 1
                ret
        "#;
        let (outcome, fuel, slots) = sweep(load, "main", &[65536]);
        assert!(matches!(outcome, Err(Trap::OutOfBounds { .. })));
        assert_eq!(fuel, 2);
        assert_eq!((slots[0].op, slots[0].n, slots[0].tail), (SlotOp::Load8, 3, 1));
        assert_eq!(sweep(load, "main", &[0]).1, 5);

        // A division by zero, likewise; its operands fold, its trap does not.
        let div = r#"
            .memory 1
            .func main args=2 locals=1
                local.get 0
                local.get 1
                divu
                local.set 2
                local.get 2
                ret
        "#;
        let (outcome, fuel, slots) = sweep(div, "main", &[5, 0]);
        assert_eq!((outcome, fuel), (Err(Trap::DivideByZero), 3));
        assert_eq!((slots[0].op, slots[0].n, slots[0].tail), (SlotOp::DivU, 4, 1));
        assert_eq!(sweep(div, "main", &[6, 2]), (Ok(3), 6, slots));
        assert_eq!(sweep(div, "main", &[i64::MIN, -1]).0, Ok(0));

        // A bulk op that cannot pay for its bytes, and one out of bounds.
        let copy = r#"
            .memory 1
            .func main args=3 locals=0
                local.get 0
                local.get 1
                local.get 2
                memcopy
                push 9
                ret
        "#;
        let (outcome, fuel, slots) = sweep(copy, "main", &[0, 4096, 800]);
        assert_eq!((outcome, fuel), (Ok(9), 4 + 101 + 2));
        assert_eq!((slots[0].op, slots[0].n), (SlotOp::MemCopy, 4));
        let (outcome, fuel, _) = sweep(copy, "main", &[0, 65000, 800]);
        assert!(matches!(outcome, Err(Trap::OutOfBounds { .. })));
        assert_eq!(fuel, 4 + 101);
    }

    #[test]
    fn calls_take_their_arguments_from_stack_registers_and_restore_the_window() {
        let src = r#"
            .memory 1
            .func main args=2 locals=1
                push 1000
                local.get 0
                local.get 1
                push 3
                mul
                call mix
                local.set 2
                ; the operand under the arguments survived the call
                local.get 2
                add
                local.get 0
                add
                ret
            .func mix args=2 locals=2
                ; locals start zeroed on every entry
                local.get 2
                local.get 3
                add
                jmpif bad
                local.get 0
                local.set 2
                local.get 1
                local.set 3
                local.get 2
                push 10
                mul
                local.get 3
                add
                ret
            bad:
                unreachable
        "#;
        // 1000 + (7 * 10 + 5 * 3) + 7
        assert_eq!(sweep(src, "main", &[7, 5]).0, Ok(1092));
    }

    #[test]
    fn recursion_runs_to_the_call_depth_limit_and_unwinds_exactly() {
        let src = r#"
            .memory 1
            .func down args=1 locals=1
                local.get 0
                eqz
                jmpif base
                local.get 0
                local.get 0
                push 1
                sub
                call down
                add
                ret
            base:
                push 0
                ret
        "#;
        let depth = SandboxPolicy::default().max_call_depth as i64;
        // depth - 1 nested calls fit; one more does not.
        let n = depth - 1;
        assert_eq!(sweep(src, "down", &[n]).0, Ok(n * (n + 1) / 2));
        assert_eq!(sweep(src, "down", &[depth]).0, Err(Trap::CallDepthExceeded));
    }

    #[test]
    fn a_trap_in_a_callee_and_a_halt_below_an_empty_frame() {
        let src = r#"
            .memory 1
            .func main args=1 locals=0
                push 77
                local.get 0
                call inner
                add
                ret
            .func inner args=1 locals=0
                local.get 0
                eqz
                jmpif stop
                local.get 0
                load64
                ret
            stop:
                ; frame-relative height 0: the result is main's 77
                halt
        "#;
        assert_eq!(sweep(src, "main", &[0]).0, Ok(77));
        assert_eq!(sweep(src, "main", &[8]).0, Ok(77));
        assert!(matches!(sweep(src, "main", &[-8]).0, Err(Trap::OutOfBounds { .. })));
        // The instance is reusable after the trap: windows start over.
        let analyzed = assemble(src).unwrap().analyzed(&SandboxPolicy::default()).unwrap();
        let mut m = Machine::new_analyzed(analyzed).unwrap();
        assert!(m.call("main", &[-8]).is_err());
        assert_eq!(m.call("main", &[0]), Ok(77));
    }

    #[test]
    fn dup_swap_tee_and_drop_at_every_height() {
        for height in 0..6 {
            let mut src = String::from(".memory 1\n.func main args=2 locals=1\n");
            for i in 0..height {
                src.push_str(&format!("    push {}\n", 1000 + i));
            }
            src.push_str(
                "    local.get 0\n    local.get 1\n    swap\n    dup\n    local.tee 2\n    drop\n    \
                 sub\n    local.get 2\n    add\n",
            );
            for _ in 0..height {
                src.push_str("    add\n");
            }
            src.push_str("    ret\n");
            // (b - a) + a, plus what was underneath.
            let under: i64 = (0..height).map(|i| 1000 + i).sum();
            assert_eq!(sweep(&src, "main", &[3, 10]).0, Ok(10 + under), "height {height}");
        }
    }

    #[test]
    fn every_operator_and_comparison_matches_the_checked_loop() {
        const OPS: [&str; 20] = [
            "add", "sub", "mul", "and", "or", "xor", "shl", "shru", "shrs", "eq", "ne", "ltu",
            "lts", "gtu", "gts", "leu", "geu", "divu", "divs", "remu",
        ];
        let values = [0i64, 1, -1, 7, 64, 65, i64::MAX, i64::MIN];
        for op in OPS {
            // Register and immediate forms, as a value and as a branch
            // (`jmpif` and `jmpifz`).
            let src = format!(
                r#"
                .memory 1
                .func main args=2 locals=1
                    local.get 0
                    local.get 1
                    {op}
                    local.set 2
                    local.get 0
                    push 7
                    {op}
                    local.get 2
                    add
                    local.set 2
                    local.get 0
                    local.get 1
                    {op}
                    jmpif a
                    local.get 2
                    push 16
                    add
                    local.set 2
                a:
                    local.get 0
                    push -1
                    {op}
                    jmpifz b
                    local.get 2
                    push 32
                    add
                    local.set 2
                b:
                    local.get 2
                    ret
            "#
            );
            let module = assemble(&src).unwrap();
            let analyzed = Arc::new(module.clone().analyzed(&SandboxPolicy::default()).unwrap());
            for a in values {
                for b in values {
                    let mut checked = Machine::new(module.clone(), SandboxPolicy::default());
                    let checked = checked.as_mut().unwrap();
                    let mut fast = Machine::new_analyzed(Arc::clone(&analyzed)).unwrap();
                    assert_eq!(checked.call("main", &[a, b]), fast.call("main", &[a, b]), "{op}");
                    assert_eq!(checked.fuel_used(), fast.fuel_used(), "{op} {a} {b}");
                }
            }
        }
    }
}
