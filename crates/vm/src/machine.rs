//! The FVM interpreter: a sandboxed register machine over linear memory.
//!
//! A [`Machine`] is one *instance* of an admitted module: its own memory
//! (initialized from the module's data segments), its own fuel budget, and
//! its own log buffer. Code is not per instance: machines built from an
//! `Arc<AnalyzedModule>` all execute the one shared copy of the module's
//! register-form code, under the policy it was proven for — and take their
//! memory and register file from, and on `Drop` return them to, the pool
//! that module keeps (`instance.rs`), wiped to what a new instance holds.
//! The embedding writes inputs into memory with [`Machine::write_memory`],
//! invokes an exported entry point with [`Machine::call`], and reads results
//! back with [`Machine::read_memory`].
//!
//! Every memory access is bounds-checked; every instruction charges fuel;
//! bulk operations charge proportionally to the bytes they move. There is no
//! `unsafe` anywhere in this crate. The reference the differential suites
//! hold this interpreter to is a stack interpreter written from the ISA in
//! its own test-only crate (`crates/vm-oracle`), which shares no execution
//! code with it.

use std::sync::Arc;

use fractal_crypto::sha1::sha1;

use crate::analysis::reg::truth;
use crate::analysis::{AnalyzedModule, RegFunction, Slot, SlotOp};
use crate::error::Trap;
use crate::host::{weak_sum, HostId};
use crate::instance::{Frame, Instance};
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
    calls: fractal_telemetry::Counter,
}

fn vm_metrics() -> &'static VmMetrics {
    use std::sync::OnceLock;
    static METRICS: OnceLock<VmMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let bundle = fractal_telemetry::Telemetry::global();
        VmMetrics {
            fuel_consumed: bundle.counter("fractal_vm_fuel_consumed_total"),
            calls: bundle.counter("fractal_vm_calls_fast_total"),
        }
    })
}

/// An instantiated module ready to execute.
pub struct Machine {
    /// Module, proof, register-form code and the policy all three were
    /// proven under, shared with every other instance of the same PAD.
    analyzed: Arc<AnalyzedModule>,
    /// Memory, register file, frames and log, checked out of `analyzed`'s
    /// pool; `Drop` returns it there.
    inst: Instance,
    /// Whether `inst` had a previous tenant.
    recycled: bool,
    fuel: u64,
    fuel_used_total: u64,
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("memory", &self.inst.memory.len())
            .field("dirty", &self.inst.memory.dirty())
            .field("recycled", &self.recycled)
            .field("fuel", &self.fuel)
            .field("functions", &self.analyzed.module.functions.len())
            .finish()
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        self.analyzed.pool.put(std::mem::take(&mut self.inst), self.policy().max_memory);
    }
}

impl Machine {
    /// Instantiates an analyzed module; pass an `Arc` to share one admitted
    /// bundle among many instances (nothing in it is copied). Execution runs
    /// the register form (no per-op decode, no operand stack) under the
    /// policy the module was analyzed with: [`AnalyzedModule::analyze`]
    /// refused it unless its whole-machine stack bound fits that policy's
    /// `max_stack` and its declared memory the `max_memory`, which is what
    /// lets this machine count neither. Admission also refused a data
    /// segment outside the declared memory, so this fails only on one pushed
    /// onto the admitted module's public fields afterwards.
    ///
    /// The instance comes out of the module's pool when a machine over the
    /// same `Arc` has been dropped before ([`Machine::is_recycled`]); it is
    /// byte for byte what a first instance is, and this call then allocates
    /// nothing.
    pub fn new_analyzed(analyzed: impl Into<Arc<AnalyzedModule>>) -> Result<Machine, Trap> {
        let analyzed = analyzed.into();
        let (mut inst, recycled) = match analyzed.pool.take() {
            Some(inst) => (inst, true),
            None => (Instance::new(analyzed.module.memory_bytes()), false),
        };
        for seg in &analyzed.module.data {
            // Admission bounds segments, but `AnalyzedModule::module` is a
            // public field: one altered after admission reaches here.
            let start = seg.offset as usize;
            let end = start
                .checked_add(seg.bytes.len())
                .filter(|&end| end <= inst.memory.len())
                .ok_or(Trap::OutOfBounds { addr: start as u64, len: seg.bytes.len() as u64 })?;
            inst.memory.slice_mut(start..end).copy_from_slice(&seg.bytes);
        }
        let fuel = analyzed.policy().max_fuel;
        Ok(Machine { analyzed, inst, recycled, fuel, fuel_used_total: 0 })
    }

    /// The limits this instance runs under.
    fn policy(&self) -> &SandboxPolicy {
        self.analyzed.policy()
    }

    /// Whether this instance's memory and stacks served an earlier machine
    /// over the same admitted module (and were wiped when that one was
    /// dropped) rather than being allocated for this one.
    pub fn is_recycled(&self) -> bool {
        self.recycled
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
        let module = &self.analyzed.module;
        let func = module.find(entry).ok_or_else(|| Trap::NoSuchEntry(entry.to_string()))?;
        let decl = &module.functions[func];
        if decl.n_args as usize != args.len() {
            return Err(Trap::ArityMismatch { expected: decl.n_args, got: args.len() });
        }
        // Reset transient state (memory persists across calls by design —
        // the embedding stages inputs there). `run` zeroes the rest of the
        // entry frame's window.
        self.inst.locals.clear();
        self.inst.frames.clear();
        self.inst.locals.extend_from_slice(args);
        self.inst.frames.push(Frame { func, pc: 0, locals_base: 0 });
        let fuel_before = self.fuel_used_total;
        let result = self.run();
        if result.is_err() {
            // Leave state consistent for inspection but do not allow resume.
            self.inst.frames.clear();
        }
        let m = vm_metrics();
        m.fuel_consumed.add(self.fuel_used_total - fuel_before);
        m.calls.inc();
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
    /// semantics). Out of line, like the two below and the host calls, so
    /// the dispatch loop stays small.
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

    /// A host call. Its operands are `args`, the stack registers they were
    /// pushed to (deepest first), and its result goes to `args[0]`, where
    /// the stack expects it. Returns `Some(code)` when the module aborted.
    #[inline(never)]
    fn host_call(&mut self, id: u8, args: &mut [i64]) -> Result<Option<i64>, Trap> {
        let host = HostId::from_id(id).ok_or(Trap::UnknownHost(id))?;
        if !self.policy().allows(host) {
            return Err(Trap::HostDenied(id));
        }
        // The translator gives each host call exactly its arity's registers.
        args[0] = match (host, &*args) {
            (HostId::Sha1, &[src, len, dst]) => {
                self.charge(len.max(0) as u64 / SHA1_BYTES_PER_FUEL + 1)?;
                let (s, send) = self.mem_range(src, len)?;
                let (d, _) = self.mem_range(dst, 20)?;
                let digest = sha1(&self.inst.memory.bytes()[s..send]);
                self.inst.memory.slice_mut(d..d + 20).copy_from_slice(digest.as_bytes());
                0
            }
            (HostId::Log, &[ptr, len]) => {
                let (p, end) = self.mem_range(ptr, len)?;
                let room = self.policy().max_log_bytes.saturating_sub(self.inst.log.len());
                let take = room.min(end - p);
                self.inst.log.extend_from_slice(&self.inst.memory.bytes()[p..p + take]);
                0
            }
            (HostId::Abort, &[code]) => return Ok(Some(code)),
            (HostId::MemEq, &[a, b, len]) => {
                self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
                let (ai, aend) = self.mem_range(a, len)?;
                let (bi, bend) = self.mem_range(b, len)?;
                let memory = self.inst.memory.bytes();
                (memory[ai..aend] == memory[bi..bend]) as i64
            }
            (HostId::WeakSum, &[src, len]) => {
                self.charge(len.max(0) as u64 / COPY_BYTES_PER_FUEL + 1)?;
                let (s, end) = self.mem_range(src, len)?;
                weak_sum(&self.inst.memory.bytes()[s..end]) as i64
            }
            _ => return Err(Trap::Wedged),
        };
        Ok(None)
    }

    /// `divu`, `divs` and `remu`, with the ISA's trap conditions.
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

    /// Folds what the dispatch loop charged to its own copy of the tank
    /// since the last call back into the machine's counters.
    #[inline]
    fn settle(&mut self, fuel: u64) {
        self.fuel_used_total += self.fuel - fuel;
        self.fuel = fuel;
    }

    /// A slot the tank cannot pay for in full. The run ends where the
    /// plain ops would have: every unit left bought one more op, none of
    /// which the embedding can observe, and the next found the tank empty
    /// — unless the units left bought a main op that traps, in which case
    /// that trap is how the run ended and the rest stays in the tank.
    #[cold]
    #[inline(never)]
    fn starved(&mut self, slot: &Slot, win: &[i64]) -> Trap {
        let left = self.fuel;
        let through_main = (slot.n - slot.tail) as u64;
        if slot.tail > 0 && left >= through_main {
            let reg = |r: usize| win.get(r).copied().unwrap_or(0);
            let (a, b) = (reg(slot.a as usize), slot.b as usize);
            let main = match slot.op {
                SlotOp::DivU | SlotOp::DivS | SlotOp::RemU => Self::divide(slot.op, a, reg(b)),
                SlotOp::Load8 | SlotOp::Load8Inc => self.load(a, 1),
                SlotOp::Load16 | SlotOp::Load16Inc => self.load(a, 2),
                SlotOp::Load32 => self.load(a, 4),
                SlotOp::Load64 => self.load(a, 8),
                _ => Ok(0),
            };
            if let Err(trap) = main {
                self.settle(left - through_main);
                return trap;
            }
        }
        self.settle(0);
        Trap::FuelExhausted
    }

    /// `call`: the callee's window opens at `base`, where the caller has
    /// already left the arguments. Suspends the caller at `ret_pc`, makes
    /// room for the window and zeroes the callee's locals.
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

    /// `ret` from a called frame: the `count` results at `first` slide down
    /// to the start of the window, where the arguments were and where the
    /// caller's stack registers expect them. Returns the caller's function,
    /// resume pc and window base.
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
    /// frames share, which is the highest stack register in use in the
    /// innermost frame that has one; `0` when none does.
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

    /// The dispatch loop, over the register form of [`analysis::reg`]:
    /// `pc` counts instructions, operands are registers of the running
    /// frame's window or immediates, and nothing is pushed or popped. A
    /// slot stands for one source op or a run of them and is charged op
    /// for op, so every call — completed, trapped or out of fuel — ends at
    /// the `fuel_used` the ISA charges the same ops one at a time.
    ///
    /// [`analysis::reg`]: crate::analysis::reg
    #[inline(never)]
    fn run(&mut self) -> Result<i64, Trap> {
        // One refcount bump per entry call keeps the shared code borrowed
        // across the loop's `&mut self` steps.
        let analyzed = Arc::clone(&self.analyzed);
        let funcs = analyzed.fast.as_slice();
        let entry = self.inst.frames.last().ok_or(Trap::Wedged)?.func;
        let entry = funcs.get(entry).ok_or(Trap::Wedged)?;
        // The register file is the locals arena, which `call` has filled
        // with the entry frame's arguments; the rest of the window starts
        // zeroed. The loop owns it, and its copy of the tank, until it exits.
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
        // A load that then steps its address register (never `d`) by `b`.
        macro_rules! load_inc {
            ($s:ident, $width:expr) => {{
                let addr = get!($s.a);
                set!($s.d, main!($s, self.load(addr, $width)));
                set!($s.a, addr.wrapping_add($s.b as i64))
            }};
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
                SlotOp::BrLtUAdd => {
                    br!(s, |a, b| (get!(s.d) as u64) < a.wrapping_add(b) as u64, get!(s.b))
                }
                SlotOp::BrLtUAddI => {
                    br!(s, |a, b| (get!(s.d) as u64) < a.wrapping_add(b) as u64, s.b as i64)
                }
                SlotOp::BrLtUSub => {
                    br!(s, |a, b| (a.wrapping_sub(b) as u64) < get!(s.d) as u64, get!(s.b))
                }
                SlotOp::Load8Inc => load_inc!(s, 1),
                SlotOp::Load16Inc => load_inc!(s, 2),
                SlotOp::AddJmp => {
                    set!(s.d, get!(s.a).wrapping_add(get!(s.b)));
                    pc = s.t as usize;
                }
                SlotOp::LzCopySub => {
                    let dst = get!(s.d);
                    charging!(self.lz_copy(dst, dst.wrapping_sub(get!(s.a)), get!(s.b)));
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
                    if let Some(code) = charging!(self.host_call(s.t as u8, args)) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    /// A machine over `src`, admitted under `policy`.
    fn admitted(src: &str, policy: &SandboxPolicy) -> Machine {
        let analyzed = assemble(src).expect("assembles").analyzed(policy).expect("admitted");
        Machine::new_analyzed(analyzed).expect("instantiates")
    }

    fn machine(src: &str) -> Machine {
        admitted(src, &SandboxPolicy::default())
    }

    fn run(src: &str, entry: &str, args: &[i64]) -> Result<i64, Trap> {
        machine(src).call(entry, args)
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
            let mut m = machine(src);
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
        let mut m = machine(src);
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
        let mut m = admitted(src, &SandboxPolicy::default().with_fuel(10_000));
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
    fn entry_errors() {
        let src = r#"
            .memory 1
            .func main args=1 locals=0
                local.get 0
                ret
        "#;
        let mut m = machine(src);
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
        let mut m = machine(src);
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
        let mut m = machine(src);
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
        use crate::error::{ModuleError, VerifyError};
        use crate::module::DataSegment;
        // `Module::from_bytes` bounds segments and admission refuses a
        // hand-built module whose segment falls outside; one pushed onto an
        // admitted module's public fields still reaches instantiation.
        let one_page = crate::module::PAGE_SIZE as u32;
        let module = || assemble(".memory 1\n.func main args=0 locals=0\n ret\n").unwrap();
        for (offset, len) in [(one_page - 2, 4), (one_page, 1), (u32::MAX, 8)] {
            let seg = DataSegment { offset, bytes: vec![0xAB; len] };
            let mut wild = module();
            wild.data.push(seg.clone());
            let refused = wild.analyzed(&SandboxPolicy::default()).unwrap_err();
            let out_of_range = ModuleError::DataOutOfRange { offset, len: len as u32 };
            assert_eq!(refused, VerifyError::Code(out_of_range));
            let mut admitted = module().analyzed(&SandboxPolicy::default()).unwrap();
            admitted.module.data.push(seg);
            let err = Machine::new_analyzed(admitted).unwrap_err();
            assert_eq!(err, Trap::OutOfBounds { addr: offset as u64, len: len as u64 });
        }
        // The last byte of memory is still a legal destination.
        let mut module = module();
        module.data.push(DataSegment { offset: one_page - 1, bytes: vec![0xAB] });
        let m = Machine::new_analyzed(module.analyzed(&SandboxPolicy::default()).unwrap()).unwrap();
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
        assert_eq!(a.call("bump", &[]), Ok(1));
        assert_eq!(a.call("bump", &[]), Ok(2));
        // `b` never saw `a`'s stores, and spent only its own fuel.
        assert_eq!(b.call("bump", &[]), Ok(1));
        assert_eq!(a.fuel_used(), 2 * b.fuel_used());
        // Two instances plus this handle: nothing was cloned out of the Arc.
        assert_eq!(Arc::strong_count(&shared), 3);
    }
}
