//! The FVM interpreter: a sandboxed stack machine over linear memory.
//!
//! A [`Machine`] is one *instance* of a module: its own memory (initialized
//! from the module's data segments), its own fuel budget, and its own log
//! buffer. Code is not per instance: machines built from an admitted
//! `Arc<AnalyzedModule>` all execute the one shared copy of the module, its
//! proof and its predecoded ops. The embedding writes inputs into memory with
//! [`Machine::write_memory`], invokes an exported entry point with
//! [`Machine::call`], and reads results back with [`Machine::read_memory`].
//!
//! Every memory access is bounds-checked; every instruction charges fuel;
//! bulk operations charge proportionally to the bytes they move. There is no
//! `unsafe` anywhere in this crate.

use std::sync::Arc;

use fractal_crypto::sha1::Sha1;

use crate::analysis::{proven, AnalysisClaims, AnalyzedModule, BinKind, FastOp};
use crate::bytecode::Op;
use crate::error::{AuditViolation, Trap};
use crate::host::{weak_sum, HostId};
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

/// One call frame.
struct Frame {
    /// Function index executing.
    func: usize,
    /// Program counter within that function's code: a byte offset on the
    /// checked path, an instruction index on the fast path (where it is
    /// current only while the frame is suspended in a call).
    pc: usize,
    /// Base of this frame's locals in the locals arena.
    locals_base: usize,
}

/// What an instance executes: a bare module it owns (checked path only), or
/// an admitted bundle — module, proof, predecoded ops — it shares with every
/// other instance of the same PAD.
enum Program {
    Bare(Module),
    Admitted(Arc<AnalyzedModule>),
}

impl Program {
    fn module(&self) -> &Module {
        match self {
            Program::Bare(module) => module,
            Program::Admitted(analyzed) => &analyzed.module,
        }
    }

    fn claims(&self) -> Option<&AnalysisClaims> {
        match self {
            Program::Bare(_) => None,
            Program::Admitted(analyzed) => Some(&analyzed.analysis.claims),
        }
    }
}

/// An instantiated module ready to execute.
pub struct Machine {
    program: Program,
    policy: SandboxPolicy,
    memory: Vec<u8>,
    stack: Vec<i64>,
    locals: Vec<i64>,
    frames: Vec<Frame>,
    fuel: u64,
    fuel_used_total: u64,
    log: Vec<u8>,
    /// Claims-auditor state; present only on machines built with
    /// [`Machine::new_audited`]. Boxed to keep the common case small.
    audit: Option<Box<AuditState>>,
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("memory", &self.memory.len())
            .field("fuel", &self.fuel)
            .field("functions", &self.program.module().functions.len())
            .finish()
    }
}

impl Machine {
    /// Instantiates `module` under `policy`. Fails if the module declares
    /// more memory than the policy allows, or a data segment outside it.
    pub fn new(module: Module, policy: SandboxPolicy) -> Result<Machine, Trap> {
        Machine::instantiate(Program::Bare(module), policy)
    }

    /// Everything that is per instance: linear memory initialized from the
    /// data segments, empty stacks, a full fuel budget, an empty log.
    fn instantiate(program: Program, policy: SandboxPolicy) -> Result<Machine, Trap> {
        let module = program.module();
        let mem_bytes = module.memory_bytes();
        if mem_bytes > policy.max_memory {
            return Err(Trap::OutOfBounds { addr: mem_bytes as u64, len: 0 });
        }
        let mut memory = vec![0u8; mem_bytes];
        for seg in &module.data {
            // The container parser bounds segments, but `Module`'s fields
            // are public and a hand-built one reaches here unparsed.
            let start = seg.offset as usize;
            let dst = start
                .checked_add(seg.bytes.len())
                .and_then(|end| memory.get_mut(start..end))
                .ok_or(Trap::OutOfBounds { addr: start as u64, len: seg.bytes.len() as u64 })?;
            dst.copy_from_slice(&seg.bytes);
        }
        let fuel = policy.max_fuel;
        Ok(Machine {
            program,
            policy,
            memory,
            stack: Vec::with_capacity(64),
            locals: Vec::with_capacity(64),
            frames: Vec::with_capacity(8),
            fuel,
            fuel_used_total: 0,
            log: Vec::new(),
            audit: None,
        })
    }

    /// Instantiates an analyzed module; pass an `Arc` to share one admitted
    /// bundle among many instances (nothing in it is copied). Execution
    /// uses the predecoded fast path (no per-op decode, stack checks
    /// demoted to debug assertions), which is sound only while the proven
    /// whole-machine stack bound fits `policy.max_stack`: a proof made
    /// under a roomier policy is refused with [`Trap::StackOverflow`].
    /// Fuel accounting is identical to the checked path's.
    pub fn new_analyzed(
        analyzed: impl Into<Arc<AnalyzedModule>>,
        policy: SandboxPolicy,
    ) -> Result<Machine, Trap> {
        let analyzed = analyzed.into();
        let stack_bound = analyzed.analysis.stack_bound;
        if stack_bound > policy.max_stack {
            return Err(Trap::StackOverflow);
        }
        let mut machine = Machine::instantiate(Program::Admitted(analyzed), policy)?;
        machine.stack.reserve(stack_bound);
        Ok(machine)
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
    pub fn new_audited(
        analyzed: impl Into<Arc<AnalyzedModule>>,
        policy: SandboxPolicy,
    ) -> Result<Machine, Trap> {
        let analyzed = analyzed.into();
        let sites = analyzed
            .analysis
            .claims
            .sites
            .iter()
            .map(|s| ((s.func, s.at), AuditSite { proven: s.proven, operands: s.operands.clone() }))
            .collect();
        let mut machine = Machine::instantiate(Program::Admitted(analyzed), policy)?;
        machine.audit = Some(Box::new(AuditState { sites, audited: 0, violations: Vec::new() }));
        Ok(machine)
    }

    /// Whether this instance runs the predecoded fast path: it was built
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
        self.memory.len()
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
        self.fuel = self.policy.max_fuel;
    }

    /// Bytes captured from the module's `log` intrinsic.
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Copies `bytes` into memory at `addr`.
    pub fn write_memory(&mut self, addr: usize, bytes: &[u8]) -> Result<(), Trap> {
        let end = addr
            .checked_add(bytes.len())
            .filter(|&e| e <= self.memory.len())
            .ok_or(Trap::OutOfBounds { addr: addr as u64, len: bytes.len() as u64 })?;
        self.memory[addr..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads `len` bytes from memory at `addr`.
    pub fn read_memory(&self, addr: usize, len: usize) -> Result<&[u8], Trap> {
        let end = addr
            .checked_add(len)
            .filter(|&e| e <= self.memory.len())
            .ok_or(Trap::OutOfBounds { addr: addr as u64, len: len as u64 })?;
        Ok(&self.memory[addr..end])
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
        self.stack.clear();
        self.locals.clear();
        self.frames.clear();

        let locals_base = 0;
        self.locals.extend_from_slice(args);
        self.locals.extend(std::iter::repeat_n(0, decl.n_locals as usize));
        self.frames.push(Frame { func, pc: 0, locals_base });
        let fuel_before = self.fuel_used_total;
        let (audited_before, violations_before) = match &self.audit {
            Some(a) => (a.audited, a.violations.len()),
            None => (0, 0),
        };
        let result = if self.is_fast_path() { self.run_fast() } else { self.run() };
        if result.is_err() {
            // Leave state consistent for inspection but do not allow resume.
            self.frames.clear();
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
        if self.stack.len() >= self.policy.max_stack {
            return Err(Trap::StackOverflow);
        }
        self.stack.push(v);
        Ok(())
    }

    fn pop(&mut self) -> Result<i64, Trap> {
        self.stack.pop().ok_or(Trap::StackUnderflow)
    }

    fn mem_range(&self, addr: i64, len: i64) -> Result<(usize, usize), Trap> {
        let oob = || Trap::OutOfBounds { addr: addr as u64, len: len as u64 };
        if addr < 0 || len < 0 {
            return Err(oob());
        }
        let (a, l) = (addr as usize, len as usize);
        let end = a.checked_add(l).ok_or_else(oob)?;
        if end > self.memory.len() {
            return Err(oob());
        }
        Ok((a, end))
    }

    fn load(&self, addr: i64, width: usize) -> Result<i64, Trap> {
        let (a, end) = self.mem_range(addr, width as i64)?;
        let bytes = &self.memory[a..end];
        let mut buf = [0u8; 8];
        buf[..width].copy_from_slice(bytes);
        Ok(i64::from_le_bytes(buf))
    }

    fn store(&mut self, addr: i64, width: usize, value: i64) -> Result<(), Trap> {
        let (a, end) = self.mem_range(addr, width as i64)?;
        let bytes = value.to_le_bytes();
        self.memory[a..end].copy_from_slice(&bytes[..width]);
        Ok(())
    }

    /// `memcopy`: charges for `len` bytes, then moves them (memmove
    /// semantics). Shared by both dispatch loops, like the two below.
    fn mem_copy(&mut self, dst: i64, src: i64, len: i64) -> Result<(), Trap> {
        self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
        let (s, send) = self.mem_range(src, len)?;
        let (d, _) = self.mem_range(dst, len)?;
        self.memory.copy_within(s..send, d);
        Ok(())
    }

    /// `memfill`: charges for `len` bytes, then sets them to `byte`.
    fn mem_fill(&mut self, dst: i64, byte: i64, len: i64) -> Result<(), Trap> {
        self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
        let (d, end) = self.mem_range(dst, len)?;
        self.memory[d..end].fill(byte as u8);
        Ok(())
    }

    /// `lzcopy`: charges for `len` bytes, then copies them front to back,
    /// so a destination that starts inside the source repeats the
    /// `dst - src` bytes between them — the LZ match semantics.
    fn lz_copy(&mut self, dst: i64, src: i64, len: i64) -> Result<(), Trap> {
        self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
        let (s, send) = self.mem_range(src, len)?;
        let (d, _) = self.mem_range(dst, len)?;
        let n = send - s;
        if s >= d {
            self.memory.copy_within(s..send, d);
            return Ok(());
        }
        // The first `dist` bytes do not overlap their source. From then on
        // `d..d + done` holds whole repeats of them, so each pass doubles it.
        let dist = d - s;
        let mut done = n.min(dist);
        self.memory.copy_within(s..s + done, d);
        while done < n {
            let chunk = done.min(n - done);
            self.memory.copy_within(d..d + chunk, d + done);
            done += chunk;
        }
        Ok(())
    }

    /// The main dispatch loop.
    fn run(&mut self) -> Result<i64, Trap> {
        loop {
            let frame = self.frames.last_mut().ok_or(Trap::Wedged)?;
            let func = frame.func;
            let pc = frame.pc;
            let base = frame.locals_base;
            let code = &self.program.module().functions[func].code;
            if pc >= code.len() {
                // Implicit return at end of body (verifier guarantees a
                // terminator, this is defensive).
                if self.ret()? {
                    return Ok(self.stack.pop().unwrap_or(0));
                }
                continue;
            }
            let (op, next) = Op::decode(code, pc).map_err(|_| Trap::Wedged)?;
            if self.audit.is_some() {
                // Audit *before* dispatch, while the operands the analyzer
                // reasoned about are still on the stack.
                self.audit_check(func, pc, &op);
            }
            self.frames.last_mut().expect("frame").pc = next;
            self.charge(1)?;

            match op {
                Op::Halt => return Ok(self.stack.pop().unwrap_or(0)),
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
                        return Ok(self.stack.pop().unwrap_or(0));
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
                    let v = *self.stack.last().ok_or(Trap::StackUnderflow)?;
                    self.set_local(base, n, v)?;
                }
                Op::Drop => {
                    self.pop()?;
                }
                Op::Dup => {
                    let v = *self.stack.last().ok_or(Trap::StackUnderflow)?;
                    self.push(v)?;
                }
                Op::Swap => {
                    let n = self.stack.len();
                    if n < 2 {
                        return Err(Trap::StackUnderflow);
                    }
                    self.stack.swap(n - 1, n - 2);
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
                    let size = self.memory.len() as i64;
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
        let n = self.stack.len();
        let peek = |i: usize| -> Option<i64> { n.checked_sub(1 + i).map(|s| self.stack[s]) };

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

    /// Fast-path pop: the analyzer proved the operand exists, so the check
    /// is a debug assertion (the release fallback still cannot read out of
    /// bounds, it just reports a wedged machine).
    #[inline]
    fn pop_fast(&mut self) -> Result<i64, Trap> {
        debug_assert!(!self.stack.is_empty(), "analysis guarantees operands");
        self.stack.pop().ok_or(Trap::Wedged)
    }

    /// Fast-path push: the analyzer proved the whole-machine stack bound
    /// fits the policy, so the limit check is a debug assertion.
    #[inline]
    fn push_fast(&mut self, v: i64) {
        debug_assert!(self.stack.len() < self.policy.max_stack, "analysis bounds the stack");
        self.stack.push(v);
    }

    /// Shared semantics for [`FastOp::Bin`] and the fused runs; mirrors the
    /// per-op closures of the checked loop exactly.
    #[inline]
    fn eval_bin(k: BinKind, a: i64, b: i64) -> Result<i64, Trap> {
        Ok(match k {
            BinKind::Add => a.wrapping_add(b),
            BinKind::Sub => a.wrapping_sub(b),
            BinKind::Mul => a.wrapping_mul(b),
            BinKind::DivU => {
                if b == 0 {
                    return Err(Trap::DivideByZero);
                }
                ((a as u64) / (b as u64)) as i64
            }
            BinKind::DivS => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    return Err(Trap::DivideByZero);
                }
                a / b
            }
            BinKind::RemU => {
                if b == 0 {
                    return Err(Trap::DivideByZero);
                }
                ((a as u64) % (b as u64)) as i64
            }
            BinKind::And => a & b,
            BinKind::Or => a | b,
            BinKind::Xor => a ^ b,
            BinKind::Shl => a.wrapping_shl(b as u32),
            BinKind::ShrU => ((a as u64).wrapping_shr(b as u32)) as i64,
            BinKind::ShrS => a.wrapping_shr(b as u32),
            BinKind::Eq => (a == b) as i64,
            BinKind::Ne => (a != b) as i64,
            BinKind::LtU => ((a as u64) < (b as u64)) as i64,
            BinKind::LtS => (a < b) as i64,
            BinKind::GtU => ((a as u64) > (b as u64)) as i64,
            BinKind::GtS => (a > b) as i64,
            BinKind::LeU => ((a as u64) <= (b as u64)) as i64,
            BinKind::GeU => ((a as u64) >= (b as u64)) as i64,
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
        self.locals.get(base + n as usize).copied().ok_or(Trap::Wedged)
    }

    /// Writes local `n`; see [`Machine::local`].
    #[inline]
    fn set_local(&mut self, base: usize, n: u8, v: i64) -> Result<(), Trap> {
        *self.locals.get_mut(base + n as usize).ok_or(Trap::Wedged)? = v;
        Ok(())
    }

    /// Charges the `n` ops of a fused run that follow its first (the
    /// dispatch loop charged that one). With fewer than `n` left the run
    /// ends where the plain ops would have: each remaining unit bought one
    /// more op, none of which the embedding can observe, and the next
    /// found the tank empty.
    #[inline]
    fn charge_tail(&mut self, n: u64) -> Result<(), Trap> {
        if self.fuel < n {
            self.fuel_used_total += self.fuel;
            self.fuel = 0;
            return Err(Trap::FuelExhausted);
        }
        self.fuel -= n;
        self.fuel_used_total += n;
        Ok(())
    }

    /// The running frame's code, pc and locals base, which the fast loop
    /// keeps in locals between calls and returns.
    fn fast_frame<'a>(
        &self,
        fast: &'a [Vec<FastOp>],
    ) -> Result<(&'a [FastOp], usize, usize), Trap> {
        let frame = self.frames.last().ok_or(Trap::Wedged)?;
        let code = fast.get(frame.func).ok_or(Trap::Wedged)?;
        Ok((code, frame.pc, frame.locals_base))
    }

    /// The fast dispatch loop: predecoded instructions, `pc` counts
    /// instructions rather than bytes, and stack-safety checks are debug
    /// assertions licensed by the abstract interpreter. A slot is a plain
    /// op or a fused run of them (see [`FastOp`]); either way fuel is
    /// charged op for op, so every run — completed, trapped or out of fuel
    /// — ends at the same `fuel_used` as on the checked loop.
    fn run_fast(&mut self) -> Result<i64, Trap> {
        // One refcount bump per entry call keeps the shared code borrowed
        // across the loop's `&mut self` steps, so dispatch indexes it
        // directly instead of reaching through `self` on every op.
        let Program::Admitted(analyzed) = &self.program else { return Err(Trap::Wedged) };
        let analyzed = Arc::clone(analyzed);
        let fast = analyzed.fast.as_slice();
        // The frame record is only read back here and after `call`/`ret`;
        // `pc` is stored into it only when a `call` suspends the frame.
        let (mut code, mut pc, mut base) = self.fast_frame(fast)?;
        loop {
            let Some(&op) = code.get(pc) else {
                // Defensive, as in the checked loop.
                if self.ret()? {
                    return Ok(self.stack.pop().unwrap_or(0));
                }
                (code, pc, base) = self.fast_frame(fast)?;
                continue;
            };
            // The slot's first (or only) op; a fused arm steps over and
            // charges the rest.
            pc += 1;
            self.charge(1)?;

            match op {
                FastOp::Halt => return Ok(self.stack.pop().unwrap_or(0)),
                FastOp::Nop => {}
                FastOp::Unreachable => return Err(Trap::Unreachable),
                FastOp::Jmp(t) => pc = t as usize,
                FastOp::JmpIf(t) => {
                    if self.pop_fast()? != 0 {
                        pc = t as usize;
                    }
                }
                FastOp::JmpIfZ(t) => {
                    if self.pop_fast()? == 0 {
                        pc = t as usize;
                    }
                }
                FastOp::Call(idx) => {
                    self.frames.last_mut().ok_or(Trap::Wedged)?.pc = pc;
                    self.enter(idx as usize)?;
                    (code, pc, base) = self.fast_frame(fast)?;
                }
                FastOp::Ret => {
                    if self.ret()? {
                        return Ok(self.stack.pop().unwrap_or(0));
                    }
                    (code, pc, base) = self.fast_frame(fast)?;
                }
                FastOp::HostCall(id) => {
                    if let Some(abort_code) = self.host_call(id)? {
                        return Err(Trap::HostAbort(abort_code));
                    }
                }
                FastOp::Push(v) => self.push_fast(v),
                FastOp::LocalGet(n) => {
                    let v = self.local(base, n)?;
                    self.push_fast(v);
                }
                FastOp::LocalSet(n) => {
                    let v = self.pop_fast()?;
                    self.set_local(base, n, v)?;
                }
                FastOp::LocalTee(n) => {
                    let v = *self.stack.last().ok_or(Trap::Wedged)?;
                    self.set_local(base, n, v)?;
                }
                FastOp::Drop => {
                    self.pop_fast()?;
                }
                FastOp::Dup => {
                    let v = *self.stack.last().ok_or(Trap::Wedged)?;
                    self.push_fast(v);
                }
                FastOp::Swap => {
                    let n = self.stack.len();
                    debug_assert!(n >= 2, "analysis guarantees operands");
                    if n < 2 {
                        return Err(Trap::Wedged);
                    }
                    self.stack.swap(n - 1, n - 2);
                }
                FastOp::Bin(k) => {
                    let b = self.pop_fast()?;
                    let a = self.pop_fast()?;
                    let r = Self::eval_bin(k, a, b)?;
                    self.push_fast(r);
                }
                FastOp::BinNz(k) => {
                    // The range pass proved the divisor nonzero (and for
                    // DivS, that MIN/-1 cannot occur): `checked_*` folds the
                    // trap conditions into one branch, with `Wedged` as the
                    // defensive fallback should the proof ever be wrong.
                    let b = self.pop_fast()?;
                    let a = self.pop_fast()?;
                    let r = match k {
                        BinKind::DivU => {
                            (a as u64).checked_div(b as u64).ok_or(Trap::Wedged)? as i64
                        }
                        BinKind::DivS => a.checked_div(b).ok_or(Trap::Wedged)?,
                        BinKind::RemU => {
                            (a as u64).checked_rem(b as u64).ok_or(Trap::Wedged)? as i64
                        }
                        _ => return Err(Trap::Wedged),
                    };
                    self.push_fast(r);
                }
                FastOp::Eqz => {
                    let v = self.pop_fast()?;
                    self.push_fast((v == 0) as i64);
                }
                FastOp::Load(width) => {
                    let a = self.pop_fast()?;
                    let v = self.load(a, width as usize)?;
                    self.push_fast(v);
                }
                FastOp::Store(width) => {
                    let v = self.pop_fast()?;
                    let a = self.pop_fast()?;
                    self.store(a, width as usize, v)?;
                }
                FastOp::LoadF(width) => {
                    // Proven in bounds: skip the sign/overflow checks of
                    // `mem_range` and go straight to a slice lookup
                    // (`wrapping_add` keeps the index total; an inverted or
                    // oversized range yields `None` → defensive `Wedged`).
                    let addr = self.pop_fast()? as usize;
                    let w = width as usize;
                    let bytes = self.memory.get(addr..addr.wrapping_add(w)).ok_or(Trap::Wedged)?;
                    let mut buf = [0u8; 8];
                    buf[..w].copy_from_slice(bytes);
                    self.push_fast(i64::from_le_bytes(buf));
                }
                FastOp::StoreF(width) => {
                    let v = self.pop_fast()?;
                    let addr = self.pop_fast()? as usize;
                    let w = width as usize;
                    let dst =
                        self.memory.get_mut(addr..addr.wrapping_add(w)).ok_or(Trap::Wedged)?;
                    dst.copy_from_slice(&v.to_le_bytes()[..w]);
                }
                FastOp::MemCopy => {
                    let len = self.pop_fast()?;
                    let src = self.pop_fast()?;
                    let dst = self.pop_fast()?;
                    self.mem_copy(dst, src, len)?;
                }
                FastOp::MemFill => {
                    let len = self.pop_fast()?;
                    let byte = self.pop_fast()?;
                    let dst = self.pop_fast()?;
                    self.mem_fill(dst, byte, len)?;
                }
                FastOp::LzCopy => {
                    let len = self.pop_fast()?;
                    let src = self.pop_fast()?;
                    let dst = self.pop_fast()?;
                    self.lz_copy(dst, src, len)?;
                }
                FastOp::MemSize => {
                    let size = self.memory.len() as i64;
                    self.push_fast(size);
                }

                // Fused runs. `fuse_at` admits only operators that cannot
                // trap, so `eval_bin`'s `?` never fires after the charge.
                FastOp::GetGetBin(a, b, k) => {
                    pc += 2;
                    self.charge_tail(2)?;
                    let r = Self::eval_bin(k, self.local(base, a)?, self.local(base, b)?)?;
                    self.push_fast(r);
                }
                FastOp::GetGetBinSet(a, b, k, d) => {
                    pc += 3;
                    self.charge_tail(3)?;
                    let r = Self::eval_bin(k, self.local(base, a)?, self.local(base, b)?)?;
                    self.set_local(base, d, r)?;
                }
                FastOp::GetGetBinJmpIf(a, b, k, t) => {
                    pc += 3;
                    self.charge_tail(3)?;
                    if Self::eval_bin(k, self.local(base, a)?, self.local(base, b)?)? != 0 {
                        pc = t as usize;
                    }
                }
                FastOp::GetImmBin(a, v, k) => {
                    pc += 2;
                    self.charge_tail(2)?;
                    let r = Self::eval_bin(k, self.local(base, a)?, v as i64)?;
                    self.push_fast(r);
                }
                FastOp::GetImmBinBin(a, v, k, k2) => {
                    pc += 3;
                    self.charge_tail(3)?;
                    let x = self.pop_fast()?;
                    let y = Self::eval_bin(k, self.local(base, a)?, v as i64)?;
                    let r = Self::eval_bin(k2, x, y)?;
                    self.push_fast(r);
                }
                FastOp::GetImmBinSet(a, v, k, d) => {
                    pc += 3;
                    self.charge_tail(3)?;
                    let r = Self::eval_bin(k, self.local(base, a)?, v as i64)?;
                    self.set_local(base, d, r)?;
                }
                FastOp::GetImmBinJmpIf(a, v, k, t) => {
                    pc += 3;
                    self.charge_tail(3)?;
                    if Self::eval_bin(k, self.local(base, a)?, v as i64)? != 0 {
                        pc = t as usize;
                    }
                }
                FastOp::GetBinJmpIf(a, k, t) => {
                    pc += 2;
                    self.charge_tail(2)?;
                    let x = self.pop_fast()?;
                    if Self::eval_bin(k, x, self.local(base, a)?)? != 0 {
                        pc = t as usize;
                    }
                }
                FastOp::ImmBinSet(v, k, d) => {
                    pc += 2;
                    self.charge_tail(2)?;
                    let x = self.pop_fast()?;
                    let r = Self::eval_bin(k, x, v as i64)?;
                    self.set_local(base, d, r)?;
                }
                FastOp::BinSet(k, d) => {
                    pc += 1;
                    self.charge_tail(1)?;
                    let y = self.pop_fast()?;
                    let x = self.pop_fast()?;
                    let r = Self::eval_bin(k, x, y)?;
                    self.set_local(base, d, r)?;
                }
                FastOp::BinJmpIf(k, t) => {
                    pc += 1;
                    self.charge_tail(1)?;
                    let y = self.pop_fast()?;
                    let x = self.pop_fast()?;
                    if Self::eval_bin(k, x, y)? != 0 {
                        pc = t as usize;
                    }
                }
                FastOp::GetLoadSet(a, width, d) => {
                    // The load can trap mid-run, but it only reads: look
                    // first, and a trap is charged as far as the load.
                    match self.load(self.local(base, a)?, width as usize) {
                        Ok(v) => {
                            pc += 2;
                            self.charge_tail(2)?;
                            self.set_local(base, d, v)?;
                        }
                        Err(trap) => {
                            self.charge_tail(1)?;
                            return Err(trap);
                        }
                    }
                }
                FastOp::GetEqzJmpIf(a, t) => {
                    pc += 2;
                    self.charge_tail(2)?;
                    if self.local(base, a)? == 0 {
                        pc = t as usize;
                    }
                }
            }
        }
    }

    fn branch(&mut self, rel: i32) -> Result<(), Trap> {
        let frame = self.frames.last_mut().ok_or(Trap::Wedged)?;
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
        if self.frames.len() >= self.policy.max_call_depth {
            return Err(Trap::CallDepthExceeded);
        }
        let decl = self.program.module().functions.get(callee).ok_or(Trap::Wedged)?;
        let n_args = decl.n_args as usize;
        let n_locals = decl.n_locals as usize;
        if self.stack.len() < n_args {
            return Err(Trap::StackUnderflow);
        }
        let locals_base = self.locals.len();
        // Move args from stack into locals, preserving order (first arg is
        // deepest on the stack).
        let split = self.stack.len() - n_args;
        self.locals.extend_from_slice(&self.stack[split..]);
        self.stack.truncate(split);
        self.locals.extend(std::iter::repeat_n(0, n_locals));
        self.frames.push(Frame { func: callee, pc: 0, locals_base });
        Ok(())
    }

    /// Pops a frame. Returns true when the entry frame itself returned.
    fn ret(&mut self) -> Result<bool, Trap> {
        let frame = self.frames.pop().ok_or(Trap::Wedged)?;
        self.locals.truncate(frame.locals_base);
        Ok(self.frames.is_empty())
    }

    /// Dispatches a host call. Returns `Some(code)` when the module aborted.
    fn host_call(&mut self, id: u8) -> Result<Option<i64>, Trap> {
        let host = HostId::from_id(id).ok_or(Trap::UnknownHost(id))?;
        if !self.policy.allows(host) {
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
                h.update(&self.memory[s..send]);
                let digest = h.finalize();
                self.memory[d..d + 20].copy_from_slice(digest.as_bytes());
                self.push(0)?;
            }
            HostId::Log => {
                let len = self.pop()?;
                let ptr = self.pop()?;
                let (p, end) = self.mem_range(ptr, len)?;
                let room = self.policy.max_log_bytes.saturating_sub(self.log.len());
                let take = room.min(end - p);
                let bytes = self.memory[p..p + take].to_vec();
                self.log.extend_from_slice(&bytes);
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
                let eq = self.memory[ai..aend] == self.memory[bi..bend];
                self.push(eq as i64)?;
            }
            HostId::WeakSum => {
                let len = self.pop()?;
                let src = self.pop()?;
                self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
                let (s, end) = self.mem_range(src, len)?;
                let sum = weak_sum(&self.memory[s..end]);
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
        let mut a = Machine::new_analyzed(Arc::clone(&shared), policy.clone()).unwrap();
        let mut b = Machine::new_analyzed(Arc::clone(&shared), policy).unwrap();
        assert!(a.is_fast_path() && b.is_fast_path());
        assert_eq!(a.call("bump", &[]), Ok(1));
        assert_eq!(a.call("bump", &[]), Ok(2));
        // `b` never saw `a`'s stores, and spent only its own fuel.
        assert_eq!(b.call("bump", &[]), Ok(1));
        assert_eq!(a.fuel_used(), 2 * b.fuel_used());
        // Two instances plus this handle: nothing was cloned out of the Arc.
        assert_eq!(Arc::strong_count(&shared), 3);
    }

    #[test]
    fn a_proof_whose_stack_bound_exceeds_the_instance_policy_is_refused() {
        let src =
            ".memory 1\n.func three args=0 locals=0\n push 1\n push 2\n push 3\n add\n add\n ret\n";
        let roomy = SandboxPolicy::default();
        let shared = Arc::new(assemble(src).unwrap().analyzed(&roomy).unwrap());
        assert_eq!(shared.analysis.stack_bound, 3);
        let tight = SandboxPolicy { max_stack: 2, ..roomy.clone() };
        let refused = Machine::new_analyzed(Arc::clone(&shared), tight).map(|_| ());
        assert_eq!(refused, Err(Trap::StackOverflow));
        let exact = SandboxPolicy { max_stack: 3, ..roomy };
        assert_eq!(Machine::new_analyzed(shared, exact).unwrap().call("three", &[]), Ok(6));
    }
}
