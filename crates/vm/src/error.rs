//! Error types for module decoding, assembly, verification, and execution.

use fractal_crypto::sign::VerifyError as SigError;

/// Errors produced while decoding a module container or its bytecode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModuleError {
    /// The container does not start with the FVM magic bytes.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u16),
    /// The container ends before a declared field.
    Truncated,
    /// Bytecode ends inside an instruction.
    TruncatedCode {
        /// Offset of the instruction whose immediate is missing.
        at: usize,
    },
    /// An opcode byte that is not part of the ISA.
    UnknownOpcode {
        /// The offending byte.
        opcode: u8,
        /// Its offset in the function's code.
        at: usize,
    },
    /// A data segment would fall outside the declared memory.
    DataOutOfRange {
        /// Segment start offset.
        offset: u32,
        /// Segment length.
        len: u32,
    },
    /// Duplicate function name in the module.
    DuplicateFunction(String),
    /// Container declares more than the hard limit of functions/segments.
    LimitExceeded(&'static str),
    /// The module's code signature is missing or invalid.
    Signature(SigError),
    /// The module digest does not match the bytes received.
    DigestMismatch,
}

impl core::fmt::Display for ModuleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ModuleError::BadMagic => write!(f, "not an FVM module (bad magic)"),
            ModuleError::BadVersion(v) => write!(f, "unsupported FVM container version {v}"),
            ModuleError::Truncated => write!(f, "truncated module container"),
            ModuleError::TruncatedCode { at } => {
                write!(f, "bytecode truncated inside instruction at {at}")
            }
            ModuleError::UnknownOpcode { opcode, at } => {
                write!(f, "unknown opcode {opcode:#04x} at {at}")
            }
            ModuleError::DataOutOfRange { offset, len } => {
                write!(f, "data segment [{offset}, +{len}) outside memory")
            }
            ModuleError::DuplicateFunction(name) => write!(f, "duplicate function {name:?}"),
            ModuleError::LimitExceeded(what) => write!(f, "module exceeds limit on {what}"),
            ModuleError::Signature(e) => write!(f, "module signature rejected: {e}"),
            ModuleError::DigestMismatch => write!(f, "module digest mismatch"),
        }
    }
}

impl std::error::Error for ModuleError {}

impl From<SigError> for ModuleError {
    fn from(e: SigError) -> Self {
        ModuleError::Signature(e)
    }
}

impl From<fractal_crypto::wire::Truncated> for ModuleError {
    fn from(_: fractal_crypto::wire::Truncated) -> Self {
        ModuleError::Truncated
    }
}

/// Errors produced by the assembler.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "asm error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// Errors found by the static verifier before execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// A branch does not land on an instruction boundary (or leaves the
    /// function).
    WildJump {
        /// Function index.
        func: usize,
        /// Offset of the branch instruction.
        at: usize,
        /// The computed (invalid) target.
        target: i64,
    },
    /// A `Call` names a function index that does not exist.
    BadCallTarget {
        /// Function index containing the call.
        func: usize,
        /// Offset of the call.
        at: usize,
        /// The missing callee index.
        callee: u16,
    },
    /// A local index is out of range for its function.
    BadLocal {
        /// Function index.
        func: usize,
        /// Offset of the instruction.
        at: usize,
        /// The local index used.
        local: u8,
    },
    /// An unknown host intrinsic id.
    UnknownHost {
        /// Function index.
        func: usize,
        /// Offset of the instruction.
        at: usize,
        /// The id used.
        id: u8,
    },
    /// Code fails to decode (propagated from [`ModuleError`]).
    Code(ModuleError),
    /// A function body may fall off its end (last instruction can reach the
    /// end of code without a terminator).
    MissingTerminator {
        /// Function index.
        func: usize,
    },
    /// Function has more args+locals than the frame limit allows.
    TooManyLocals {
        /// Function index.
        func: usize,
    },
    /// Abstract interpretation proved an instruction pops more operands
    /// than its frame has pushed (would read the caller's stack).
    StackUnderflow {
        /// Function index.
        func: usize,
        /// Offset of the instruction.
        at: usize,
        /// Frame-relative stack height on entry to the instruction.
        depth: u32,
        /// Operands the instruction needs.
        need: u32,
    },
    /// Two control-flow paths reach the same instruction with different
    /// stack heights (or a function's `ret` sites disagree).
    HeightMismatch {
        /// Function index.
        func: usize,
        /// Offset of the merge-point instruction.
        at: usize,
        /// Height established by the first path to reach it.
        expected: u32,
        /// Height found on a later path.
        found: u32,
    },
    /// A reachable host call names an intrinsic the sandbox policy denies;
    /// the module is rejected before instantiation rather than trapping at
    /// run time.
    CapabilityViolation {
        /// Function index.
        func: usize,
        /// Offset of the host call.
        at: usize,
        /// The denied intrinsic id.
        id: u8,
    },
    /// A single frame provably needs more operand-stack slots than the
    /// sandbox policy allows, so any call of this function must trap.
    StackLimit {
        /// Function index.
        func: usize,
        /// Offset of the push that exceeds the limit.
        at: usize,
        /// The height the push would reach.
        height: u32,
        /// The policy's `max_stack`.
        limit: usize,
    },
    /// No single frame is too tall, but the proven bound on the operand
    /// stack all frames of a call chain share exceeds the policy's
    /// `max_stack` — for a recursive module, `max_call_depth` × its tallest
    /// frame. The register form keeps operands in registers and counts no
    /// stack slots, so a module is admitted only with this bound in hand.
    StackBound {
        /// The proven whole-machine bound
        /// ([`ModuleAnalysis::stack_bound`](crate::analysis::ModuleAnalysis)).
        bound: usize,
        /// The policy's `max_stack`.
        limit: usize,
    },
    /// Analysis: the module declares more linear memory than the sandbox
    /// policy grants an instance.
    MemoryLimit {
        /// Bytes the module declares (`mem_pages` × 64 KiB).
        declared: usize,
        /// The policy's `max_memory`.
        limit: usize,
    },
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VerifyError::WildJump { func, at, target } => {
                write!(f, "fn {func}: wild jump at {at} to {target}")
            }
            VerifyError::BadCallTarget { func, at, callee } => {
                write!(f, "fn {func}: call at {at} to missing fn {callee}")
            }
            VerifyError::BadLocal { func, at, local } => {
                write!(f, "fn {func}: bad local index {local} at {at}")
            }
            VerifyError::UnknownHost { func, at, id } => {
                write!(f, "fn {func}: unknown host intrinsic {id} at {at}")
            }
            VerifyError::Code(e) => write!(f, "code error: {e}"),
            VerifyError::MissingTerminator { func } => {
                write!(f, "fn {func}: control may fall off the end of the body")
            }
            VerifyError::TooManyLocals { func } => write!(f, "fn {func}: too many locals"),
            VerifyError::StackUnderflow { func, at, depth, need } => {
                write!(f, "fn {func}: stack underflow at {at} (height {depth}, needs {need})")
            }
            VerifyError::HeightMismatch { func, at, expected, found } => {
                write!(
                    f,
                    "fn {func}: stack height mismatch at {at} (expected {expected}, found {found})"
                )
            }
            VerifyError::CapabilityViolation { func, at, id } => {
                write!(f, "fn {func}: host intrinsic {id} at {at} denied by policy")
            }
            VerifyError::StackLimit { func, at, height, limit } => {
                write!(f, "fn {func}: stack height {height} at {at} exceeds limit {limit}")
            }
            VerifyError::StackBound { bound, limit } => {
                write!(f, "call chains may stack {bound} operands, limit {limit}")
            }
            VerifyError::MemoryLimit { declared, limit } => {
                write!(f, "module declares {declared} bytes of memory, policy grants {limit}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<ModuleError> for VerifyError {
    fn from(e: ModuleError) -> Self {
        VerifyError::Code(e)
    }
}

/// Runtime traps. Any trap aborts execution of the module instance; the
/// embedding (the Fractal client) treats a trapped PAD as a failed
/// deployment and falls back per policy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Trap {
    /// Memory access outside the linear memory.
    OutOfBounds {
        /// First byte of the attempted access.
        addr: u64,
        /// Access length in bytes.
        len: u64,
    },
    /// Operand stack exceeded the sandbox limit. Only the reference
    /// interpreter (`fractal-vm-oracle`), which counts operand-stack slots,
    /// reports it: admission proves the bound of every module a [`Machine`]
    /// runs, so an admitted module never overflows.
    ///
    /// [`Machine`]: crate::machine::Machine
    StackOverflow,
    /// An instruction needed more operands than the stack holds. Like
    /// [`Trap::StackOverflow`], reported only by the reference interpreter:
    /// admission refuses a module that could underflow.
    StackUnderflow,
    /// Call depth exceeded the sandbox limit.
    CallDepthExceeded,
    /// The fuel budget ran out (runaway or hostile code).
    FuelExhausted,
    /// Division (or remainder) by zero, or `i64::MIN / -1`.
    DivideByZero,
    /// `Unreachable` executed.
    Unreachable,
    /// The module aborted itself via the abort host call.
    HostAbort(i64),
    /// A host call was made that the sandbox policy denies.
    HostDenied(u8),
    /// A host call id with no implementation (verifier normally rejects).
    UnknownHost(u8),
    /// The named entry point does not exist in the module.
    NoSuchEntry(String),
    /// The entry was invoked with the wrong number of arguments.
    ArityMismatch {
        /// Arguments the function declares.
        expected: u8,
        /// Arguments supplied.
        got: usize,
    },
    /// An internal invariant broke: a register, frame, local or branch
    /// target that verification and translation guarantee was not there. A
    /// bug in the VM, never in the module; reported instead of panicking.
    Wedged,
}

impl core::fmt::Display for Trap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Trap::OutOfBounds { addr, len } => {
                write!(f, "memory access out of bounds at {addr} len {len}")
            }
            Trap::StackOverflow => write!(f, "operand stack overflow"),
            Trap::StackUnderflow => write!(f, "operand stack underflow"),
            Trap::CallDepthExceeded => write!(f, "call depth exceeded"),
            Trap::FuelExhausted => write!(f, "fuel exhausted"),
            Trap::DivideByZero => write!(f, "division by zero"),
            Trap::Unreachable => write!(f, "unreachable executed"),
            Trap::HostAbort(code) => write!(f, "module aborted with code {code}"),
            Trap::HostDenied(id) => write!(f, "host call {id} denied by sandbox policy"),
            Trap::UnknownHost(id) => write!(f, "unknown host call {id}"),
            Trap::NoSuchEntry(name) => write!(f, "no entry point named {name:?}"),
            Trap::ArityMismatch { expected, got } => {
                write!(f, "entry expects {expected} args, got {got}")
            }
            Trap::Wedged => write!(f, "interpreter invariant broken"),
        }
    }
}

impl std::error::Error for Trap {}
