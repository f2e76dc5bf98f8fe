//! # fractal-vm-oracle — the FVM's reference interpreter and toolchain
//!
//! A deliberately naive interpreter written from the ISA, not from
//! `fractal-vm`'s machine: one operand stack shared by every frame, a
//! byte-offset pc decoded one op at a time, one `match` over [`Op`], its own
//! linear memory and its own bulk-op and host-call bodies. From `fractal-vm`
//! it takes only what defines the ISA ([`Op::decode`], [`Module`],
//! [`HostId`], [`Trap`], [`SandboxPolicy`]); SHA-1 and the weak checksum are
//! `fractal-crypto`'s, vector-tested there. `tests/differential.rs` holds
//! `fractal_vm::Machine` to it at every fuel budget: sharing no execution
//! code, the two cannot agree on a bug in one. Only tests and this crate's
//! own `fasmlint` may link it: no production build does
//! (`scripts/oracle_dev_only.sh`).
//!
//! The rules: every op costs 1 fuel, charged before it runs; `memcopy`,
//! `memfill`, `lzcopy`, `memeq` and `weaksum` then cost `len / 8 + 1` more
//! and `sha1` `len / 4 + 1` (a negative `len` counts as 0), charged before
//! memory is touched; a charge the tank cannot pay empties it. An access
//! outside memory traps. `lzcopy` copies byte by byte, front to back, so a
//! destination inside the source repeats the bytes between them. At most
//! `max_stack` operands, across all frames, and `max_call_depth` frames.
//!
//! [`Oracle::audited`] also checks the analyzer's fuel and capability
//! claims ([`audit`]).
//!
//! The crate also holds what only *reports* on admitted code, so admission
//! computes only what it enforces: the structural [`lint`]s over the
//! admission CFG, the (annotated) disassembler ([`disasm`]) and the
//! `fasmlint` CLI that gates the shipped PAD sources on them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::ops::Range;

use fractal_crypto::checksum::weak_sum;
use fractal_crypto::sha1::sha1;
use fractal_vm::{HostId, Module, ModuleAnalysis, Op, SandboxPolicy, Trap};

pub mod audit;
pub mod disasm;
pub mod lint;

pub use audit::AuditViolation;
use audit::Auditor;

/// One call frame: which function, where in its code, and its own locals.
struct Frame {
    func: usize,
    /// Byte offset of the next op.
    pc: usize,
    locals: Vec<i64>,
}

/// An instance of `module`: memory, operand stack, frames, fuel and log.
pub struct Oracle<'a> {
    module: &'a Module,
    policy: SandboxPolicy,
    memory: Vec<u8>,
    stack: Vec<i64>,
    frames: Vec<Frame>,
    fuel: u64,
    fuel_used: u64,
    log: Vec<u8>,
    audit: Option<Auditor<'a>>,
}

/// `addr..addr + len` when it lies inside a memory of `size` bytes.
fn in_bounds(addr: i64, len: i64, size: usize) -> Result<Range<usize>, Trap> {
    match addr.checked_add(len) {
        Some(end) if addr >= 0 && len >= 0 && end as u64 <= size as u64 => {
            Ok(addr as usize..end as usize)
        }
        _ => Err(Trap::OutOfBounds { addr: addr as u64, len: len as u64 }),
    }
}

/// The result of a two-operand op, `a` pushed first.
fn binary(op: Op, a: i64, b: i64) -> Result<i64, Trap> {
    let (ua, ub) = (a as u64, b as u64);
    Ok(match op {
        Op::Add => a.wrapping_add(b),
        Op::Sub => a.wrapping_sub(b),
        Op::Mul => a.wrapping_mul(b),
        Op::DivU | Op::RemU if b == 0 => return Err(Trap::DivideByZero),
        Op::DivS if b == 0 || (a == i64::MIN && b == -1) => return Err(Trap::DivideByZero),
        Op::DivU => (ua / ub) as i64,
        Op::DivS => a / b,
        Op::RemU => (ua % ub) as i64,
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        // Shift amounts are taken modulo 64.
        Op::Shl => a.wrapping_shl(b as u32),
        Op::ShrU => ua.wrapping_shr(b as u32) as i64,
        Op::ShrS => a.wrapping_shr(b as u32),
        Op::Eq => (a == b) as i64,
        Op::Ne => (a != b) as i64,
        Op::LtU => (ua < ub) as i64,
        Op::LtS => (a < b) as i64,
        Op::GtU => (ua > ub) as i64,
        Op::GtS => (a > b) as i64,
        Op::LeU => (ua <= ub) as i64,
        Op::GeU => (ua >= ub) as i64,
        _ => return Err(Trap::Wedged),
    })
}

impl<'a> Oracle<'a> {
    /// Instantiates `module` under `policy`: zeroed memory with the data
    /// segments copied in and a full tank. Fails if the module declares
    /// more memory than the policy allows, or a segment outside it.
    pub fn new(module: &'a Module, policy: SandboxPolicy) -> Result<Oracle<'a>, Trap> {
        let size = module.memory_bytes();
        if size > policy.max_memory {
            return Err(Trap::OutOfBounds { addr: size as u64, len: 0 });
        }
        let mut memory = vec![0; size];
        for seg in &module.data {
            let range = in_bounds(seg.offset.into(), seg.bytes.len() as i64, size)?;
            memory[range].copy_from_slice(&seg.bytes);
        }
        Ok(Oracle {
            module,
            fuel: policy.max_fuel,
            policy,
            memory,
            stack: Vec::new(),
            frames: Vec::new(),
            fuel_used: 0,
            log: Vec::new(),
            audit: None,
        })
    }

    /// This oracle, checking as it runs every claim of `analysis`, the
    /// analysis of its module; see [`audit`].
    pub fn audited(mut self, analysis: &'a ModuleAnalysis) -> Oracle<'a> {
        self.audit = Some(Auditor::new(analysis));
        self
    }

    /// The whole linear memory.
    pub fn memory(&self) -> &[u8] {
        &self.memory
    }

    /// Copies `bytes` into memory at `addr`.
    pub fn write_memory(&mut self, addr: usize, bytes: &[u8]) -> Result<(), Trap> {
        let range = in_bounds(addr as i64, bytes.len() as i64, self.memory.len())?;
        self.memory[range].copy_from_slice(bytes);
        Ok(())
    }

    /// Total fuel consumed across all calls.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Remaining fuel.
    pub fn fuel_remaining(&self) -> u64 {
        self.fuel
    }

    /// Bytes captured from the `log` intrinsic.
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Claims the auditor found broken: each is an analyzer soundness bug.
    /// Empty when the oracle is not [audited](Oracle::audited).
    pub fn violations(&self) -> &[AuditViolation] {
        self.audit.as_ref().map_or(&[], |a| &a.violations)
    }

    /// Invokes the exported function `entry` with `args` and runs it to its
    /// result or trap. Memory persists across calls; the stack does not.
    pub fn call(&mut self, entry: &str, args: &[i64]) -> Result<i64, Trap> {
        let func = self.module.find(entry).ok_or_else(|| Trap::NoSuchEntry(entry.to_string()))?;
        let decl = &self.module.functions[func];
        if decl.n_args as usize != args.len() {
            return Err(Trap::ArityMismatch { expected: decl.n_args, got: args.len() });
        }
        let mut locals = args.to_vec();
        locals.resize(args.len() + decl.n_locals as usize, 0);
        self.stack.clear();
        self.frames = vec![Frame { func, pc: 0, locals }];
        let before = self.fuel_used;
        let result = self.run();
        if let (Ok(_), Some(audit)) = (&result, &mut self.audit) {
            audit.completed(func, self.fuel_used - before);
        }
        result
    }

    fn charge(&mut self, amount: u64) -> Result<(), Trap> {
        if self.fuel < amount {
            self.fuel = 0;
            return Err(Trap::FuelExhausted);
        }
        self.fuel -= amount;
        self.fuel_used += amount;
        Ok(())
    }

    /// The extra charge of an op over `len` bytes at `bytes_per_fuel`.
    fn charge_bytes(&mut self, len: i64, bytes_per_fuel: u64) -> Result<(), Trap> {
        self.charge(len.max(0) as u64 / bytes_per_fuel + 1)
    }

    fn range(&self, addr: i64, len: i64) -> Result<Range<usize>, Trap> {
        in_bounds(addr, len, self.memory.len())
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

    /// Three operands, in the order they were pushed.
    fn pop3(&mut self) -> Result<(i64, i64, i64), Trap> {
        let c = self.pop()?;
        let b = self.pop()?;
        Ok((self.pop()?, b, c))
    }

    fn local(&mut self, n: u8) -> Result<&mut i64, Trap> {
        let frame = self.frames.last_mut().ok_or(Trap::Wedged)?;
        frame.locals.get_mut(n as usize).ok_or(Trap::Wedged)
    }

    fn jump(&mut self, rel: i32) -> Result<(), Trap> {
        let frame = self.frames.last_mut().ok_or(Trap::Wedged)?;
        // Offsets count from the next op; `run` wedges on a target that
        // is not the start of one.
        frame.pc = usize::try_from(frame.pc as i64 + i64::from(rel)).map_err(|_| Trap::Wedged)?;
        Ok(())
    }

    fn load(&mut self, width: usize) -> Result<(), Trap> {
        let addr = self.pop()?;
        let range = self.range(addr, width as i64)?;
        let mut bytes = [0u8; 8];
        bytes[..width].copy_from_slice(&self.memory[range]);
        self.push(i64::from_le_bytes(bytes))
    }

    fn store(&mut self, width: usize) -> Result<(), Trap> {
        let value = self.pop()?;
        let addr = self.pop()?;
        let range = self.range(addr, width as i64)?;
        self.memory[range].copy_from_slice(&value.to_le_bytes()[..width]);
        Ok(())
    }

    fn run(&mut self) -> Result<i64, Trap> {
        loop {
            let frame = self.frames.last_mut().ok_or(Trap::Wedged)?;
            let (func, at) = (frame.func, frame.pc);
            let code = &self.module.functions[func].code;
            let (op, next) = Op::decode(code, at).map_err(|_| Trap::Wedged)?;
            frame.pc = next;
            if let Some(audit) = &mut self.audit {
                audit.before(func, at, &op);
            }
            self.charge(1)?;
            match op {
                Op::Halt => return Ok(self.stack.pop().unwrap_or(0)),
                Op::Nop => {}
                Op::Unreachable => return Err(Trap::Unreachable),
                Op::Jmp(rel) => self.jump(rel)?,
                Op::JmpIf(rel) | Op::JmpIfZ(rel) => {
                    if (self.pop()? != 0) == matches!(op, Op::JmpIf(_)) {
                        self.jump(rel)?;
                    }
                }
                Op::Call(callee) => {
                    if self.frames.len() >= self.policy.max_call_depth {
                        return Err(Trap::CallDepthExceeded);
                    }
                    let decl = self.module.functions.get(callee as usize).ok_or(Trap::Wedged)?;
                    let n_args = decl.n_args as usize;
                    let first = self.stack.len().checked_sub(n_args).ok_or(Trap::StackUnderflow)?;
                    let mut locals = self.stack.split_off(first);
                    locals.resize(n_args + decl.n_locals as usize, 0);
                    self.frames.push(Frame { func: callee as usize, pc: 0, locals });
                }
                Op::Ret => {
                    self.frames.pop();
                    if self.frames.is_empty() {
                        return Ok(self.stack.pop().unwrap_or(0));
                    }
                }
                Op::HostCall(id) => self.host(id)?,
                Op::PushI8(v) => self.push(v.into())?,
                Op::PushI32(v) => self.push(v.into())?,
                Op::PushI64(v) => self.push(v)?,
                Op::LocalGet(n) => {
                    let v = *self.local(n)?;
                    self.push(v)?;
                }
                Op::LocalSet(n) => {
                    let v = self.pop()?;
                    *self.local(n)? = v;
                }
                Op::LocalTee(n) => {
                    let v = self.pop()?;
                    self.push(v)?;
                    *self.local(n)? = v;
                }
                Op::Drop => {
                    self.pop()?;
                }
                Op::Dup => {
                    let v = self.pop()?;
                    self.push(v)?;
                    self.push(v)?;
                }
                Op::Swap => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(b)?;
                    self.push(a)?;
                }
                Op::Eqz => {
                    let v = self.pop()?;
                    self.push((v == 0) as i64)?;
                }
                Op::Load8 => self.load(1)?,
                Op::Load16 => self.load(2)?,
                Op::Load32 => self.load(4)?,
                Op::Load64 => self.load(8)?,
                Op::Store8 => self.store(1)?,
                Op::Store16 => self.store(2)?,
                Op::Store32 => self.store(4)?,
                Op::Store64 => self.store(8)?,
                Op::MemCopy => {
                    let (dst, src, len) = self.pop3()?;
                    self.charge_bytes(len, 8)?;
                    let src = self.range(src, len)?;
                    let dst = self.range(dst, len)?;
                    self.memory.copy_within(src, dst.start);
                }
                Op::MemFill => {
                    let (dst, byte, len) = self.pop3()?;
                    self.charge_bytes(len, 8)?;
                    let dst = self.range(dst, len)?;
                    self.memory[dst].fill(byte as u8);
                }
                Op::LzCopy => {
                    let (dst, src, len) = self.pop3()?;
                    self.charge_bytes(len, 8)?;
                    let src = self.range(src, len)?;
                    let dst = self.range(dst, len)?;
                    for (d, s) in dst.zip(src) {
                        self.memory[d] = self.memory[s];
                    }
                }
                Op::MemSize => self.push(self.memory.len() as i64)?,
                _ => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(binary(op, a, b)?)?;
                }
            }
        }
    }

    /// Host intrinsic `id`: operands from the stack, one result back on it.
    fn host(&mut self, id: u8) -> Result<(), Trap> {
        let host = HostId::from_id(id).ok_or(Trap::UnknownHost(id))?;
        if !self.policy.allows(host) {
            return Err(Trap::HostDenied(id));
        }
        let result = match host {
            HostId::Sha1 => {
                let (src, len, dst) = self.pop3()?;
                self.charge_bytes(len, 4)?;
                let src = self.range(src, len)?;
                let dst = self.range(dst, 20)?;
                let digest = sha1(&self.memory[src]);
                self.memory[dst].copy_from_slice(digest.as_bytes());
                0
            }
            HostId::Log => {
                let len = self.pop()?;
                let ptr = self.pop()?;
                let range = self.range(ptr, len)?;
                let room = self.policy.max_log_bytes.saturating_sub(self.log.len());
                let kept = range.start..range.start + range.len().min(room);
                self.log.extend_from_slice(&self.memory[kept]);
                0
            }
            HostId::Abort => return Err(Trap::HostAbort(self.pop()?)),
            HostId::MemEq => {
                let (a, b, len) = self.pop3()?;
                self.charge_bytes(len, 8)?;
                let a = self.range(a, len)?;
                let b = self.range(b, len)?;
                (self.memory[a] == self.memory[b]) as i64
            }
            HostId::WeakSum => {
                let len = self.pop()?;
                let src = self.pop()?;
                self.charge_bytes(len, 8)?;
                let src = self.range(src, len)?;
                weak_sum(&self.memory[src]).into()
            }
        };
        self.push(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_vm::assemble;

    /// What only the oracle reports: it counts operand-stack slots where
    /// the machine relies on the bound admission proved, and checks the
    /// policy where admission would have refused the module.
    #[test]
    fn the_limits_admission_enforces_are_traps_here() {
        let run = |src: &str, policy: SandboxPolicy| {
            Oracle::new(&assemble(src).unwrap(), policy).and_then(|mut o| o.call("main", &[]))
        };
        let default = SandboxPolicy::default;
        let grow = ".memory 1\n.func main args=0 locals=0\ngrow:\n push 1\n jmp grow\n";
        assert_eq!(run(grow, default()), Err(Trap::StackOverflow));
        // Each frame fits two slots; the chain needs three.
        let chain = ".func main args=0 locals=0\n push 10\n push 20\n call leaf\n add\n ret\n\
                     .func leaf args=1 locals=0\n local.get 0\n push 1\n add\n ret\n";
        let stack = |max_stack| SandboxPolicy { max_stack, ..default() };
        assert_eq!(run(chain, stack(2)), Err(Trap::StackOverflow));
        assert_eq!(run(chain, stack(3)), Ok(31));
        assert_eq!(
            run(".func main args=0 locals=0\n drop\n ret\n", default()),
            Err(Trap::StackUnderflow)
        );

        let log = ".memory 1\n.func main args=0 locals=0\n push 0\n push 1\n host log\n ret\n";
        let denied = run(log, default().with_hosts(&[HostId::Abort]));
        assert_eq!(denied, Err(Trap::HostDenied(HostId::Log.id())));
        let big = ".memory 32\n.func main args=0 locals=0\n ret\n";
        let refused = run(big, default().with_memory(65536));
        assert_eq!(refused, Err(Trap::OutOfBounds { addr: 32 * 65536, len: 0 }));
    }
}
