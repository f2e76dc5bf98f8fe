//! FVM instruction set: opcodes, immediates, and instruction (de)coding.
//!
//! Instructions are variable length: a one-byte opcode followed by a fixed
//! immediate whose width is determined by the opcode. All multi-byte
//! immediates are little-endian. Branch offsets are relative to the byte
//! *after* the branch instruction.

use fractal_crypto::wire::Cursor;

use crate::error::ModuleError;

/// A decoded FVM instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    // --- control -----------------------------------------------------
    /// Stop the machine; `Halt` in the entry function ends execution with
    /// the current stack top (or 0 if empty) as the result.
    Halt,
    /// Does nothing.
    Nop,
    /// Always traps (`Trap::Unreachable`); assembled as a guard for paths
    /// that must never execute.
    Unreachable,
    /// Unconditional relative jump.
    Jmp(i32),
    /// Pops a value; jumps when it is non-zero.
    JmpIf(i32),
    /// Pops a value; jumps when it is zero.
    JmpIfZ(i32),
    /// Calls function by index; arguments are popped from the stack (last
    /// argument on top) into the callee's first locals.
    Call(u16),
    /// Returns from the current function with the stack top as the value
    /// (or 0 if the callee's operand stack is empty).
    Ret,
    /// Invokes a host intrinsic by id (see [`crate::host::HostId`]).
    HostCall(u8),

    // --- constants & locals ------------------------------------------
    /// Pushes a sign-extended 8-bit constant.
    PushI8(i8),
    /// Pushes a sign-extended 32-bit constant.
    PushI32(i32),
    /// Pushes a 64-bit constant.
    PushI64(i64),
    /// Pushes local `n`.
    LocalGet(u8),
    /// Pops into local `n`.
    LocalSet(u8),
    /// Copies stack top into local `n` without popping.
    LocalTee(u8),

    // --- stack shuffling ----------------------------------------------
    /// Pops and discards the top value.
    Drop,
    /// Duplicates the top value.
    Dup,
    /// Swaps the two top values.
    Swap,

    // --- arithmetic / logic (binary ops pop b then a, push a∘b) --------
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; traps on zero divisor.
    DivU,
    /// Signed division; traps on zero divisor or overflow.
    DivS,
    /// Unsigned remainder; traps on zero divisor.
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (modulo 64).
    Shl,
    /// Logical right shift (modulo 64).
    ShrU,
    /// Arithmetic right shift (modulo 64).
    ShrS,

    // --- comparisons (push 1 or 0) -------------------------------------
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Unsigned less-than.
    LtU,
    /// Signed less-than.
    LtS,
    /// Unsigned greater-than.
    GtU,
    /// Signed greater-than.
    GtS,
    /// Unsigned less-or-equal.
    LeU,
    /// Unsigned greater-or-equal.
    GeU,
    /// Pops a value, pushes 1 if it is zero else 0.
    Eqz,

    // --- memory ---------------------------------------------------------
    /// Pops address, pushes zero-extended byte.
    Load8,
    /// Pops address, pushes zero-extended little-endian u16.
    Load16,
    /// Pops address, pushes zero-extended little-endian u32.
    Load32,
    /// Pops address, pushes little-endian i64.
    Load64,
    /// Pops value then address, stores low byte.
    Store8,
    /// Pops value then address, stores low 16 bits little-endian.
    Store16,
    /// Pops value then address, stores low 32 bits little-endian.
    Store32,
    /// Pops value then address, stores 64 bits little-endian.
    Store64,
    /// Pops len, src, dst; copies with memmove semantics.
    MemCopy,
    /// Pops len, byte, dst; fills.
    MemFill,
    /// Pops len, src, dst; byte-forward copy that *replicates* on overlap
    /// (dst > src), the semantics LZ decoders need for matches whose length
    /// exceeds their distance.
    LzCopy,
    /// Pushes the memory size in bytes.
    MemSize,
}

// Opcode byte values. Kept explicit so the wire format is stable.
pub(crate) mod opc {
    pub const HALT: u8 = 0x00;
    pub const NOP: u8 = 0x01;
    pub const UNREACHABLE: u8 = 0x02;
    pub const JMP: u8 = 0x03;
    pub const JMPIF: u8 = 0x04;
    pub const JMPIFZ: u8 = 0x05;
    pub const CALL: u8 = 0x06;
    pub const RET: u8 = 0x07;
    pub const HOSTCALL: u8 = 0x08;
    pub const PUSHI8: u8 = 0x10;
    pub const PUSHI32: u8 = 0x11;
    pub const PUSHI64: u8 = 0x12;
    pub const LOCALGET: u8 = 0x13;
    pub const LOCALSET: u8 = 0x14;
    pub const LOCALTEE: u8 = 0x15;
    pub const DROP: u8 = 0x16;
    pub const DUP: u8 = 0x17;
    pub const SWAP: u8 = 0x18;
    pub const ADD: u8 = 0x20;
    pub const SUB: u8 = 0x21;
    pub const MUL: u8 = 0x22;
    pub const DIVU: u8 = 0x23;
    pub const DIVS: u8 = 0x24;
    pub const REMU: u8 = 0x25;
    pub const AND: u8 = 0x26;
    pub const OR: u8 = 0x27;
    pub const XOR: u8 = 0x28;
    pub const SHL: u8 = 0x29;
    pub const SHRU: u8 = 0x2A;
    pub const SHRS: u8 = 0x2B;
    pub const EQ: u8 = 0x30;
    pub const NE: u8 = 0x31;
    pub const LTU: u8 = 0x32;
    pub const LTS: u8 = 0x33;
    pub const GTU: u8 = 0x34;
    pub const GTS: u8 = 0x35;
    pub const LEU: u8 = 0x36;
    pub const GEU: u8 = 0x37;
    pub const EQZ: u8 = 0x38;
    pub const LOAD8: u8 = 0x40;
    pub const LOAD16: u8 = 0x41;
    pub const LOAD32: u8 = 0x42;
    pub const LOAD64: u8 = 0x43;
    pub const STORE8: u8 = 0x44;
    pub const STORE16: u8 = 0x45;
    pub const STORE32: u8 = 0x46;
    pub const STORE64: u8 = 0x47;
    pub const MEMCOPY: u8 = 0x48;
    pub const MEMFILL: u8 = 0x49;
    pub const LZCOPY: u8 = 0x4A;
    pub const MEMSIZE: u8 = 0x4B;
}

impl Op {
    /// Appends the encoded instruction to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        use opc::*;
        match *self {
            Op::Halt => out.push(HALT),
            Op::Nop => out.push(NOP),
            Op::Unreachable => out.push(UNREACHABLE),
            Op::Jmp(rel) => {
                out.push(JMP);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Op::JmpIf(rel) => {
                out.push(JMPIF);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Op::JmpIfZ(rel) => {
                out.push(JMPIFZ);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Op::Call(idx) => {
                out.push(CALL);
                out.extend_from_slice(&idx.to_le_bytes());
            }
            Op::Ret => out.push(RET),
            Op::HostCall(id) => {
                out.push(HOSTCALL);
                out.push(id);
            }
            Op::PushI8(v) => {
                out.push(PUSHI8);
                out.push(v as u8);
            }
            Op::PushI32(v) => {
                out.push(PUSHI32);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Op::PushI64(v) => {
                out.push(PUSHI64);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Op::LocalGet(n) => {
                out.push(LOCALGET);
                out.push(n);
            }
            Op::LocalSet(n) => {
                out.push(LOCALSET);
                out.push(n);
            }
            Op::LocalTee(n) => {
                out.push(LOCALTEE);
                out.push(n);
            }
            Op::Drop => out.push(DROP),
            Op::Dup => out.push(DUP),
            Op::Swap => out.push(SWAP),
            Op::Add => out.push(ADD),
            Op::Sub => out.push(SUB),
            Op::Mul => out.push(MUL),
            Op::DivU => out.push(DIVU),
            Op::DivS => out.push(DIVS),
            Op::RemU => out.push(REMU),
            Op::And => out.push(AND),
            Op::Or => out.push(OR),
            Op::Xor => out.push(XOR),
            Op::Shl => out.push(SHL),
            Op::ShrU => out.push(SHRU),
            Op::ShrS => out.push(SHRS),
            Op::Eq => out.push(EQ),
            Op::Ne => out.push(NE),
            Op::LtU => out.push(LTU),
            Op::LtS => out.push(LTS),
            Op::GtU => out.push(GTU),
            Op::GtS => out.push(GTS),
            Op::LeU => out.push(LEU),
            Op::GeU => out.push(GEU),
            Op::Eqz => out.push(EQZ),
            Op::Load8 => out.push(LOAD8),
            Op::Load16 => out.push(LOAD16),
            Op::Load32 => out.push(LOAD32),
            Op::Load64 => out.push(LOAD64),
            Op::Store8 => out.push(STORE8),
            Op::Store16 => out.push(STORE16),
            Op::Store32 => out.push(STORE32),
            Op::Store64 => out.push(STORE64),
            Op::MemCopy => out.push(MEMCOPY),
            Op::MemFill => out.push(MEMFILL),
            Op::LzCopy => out.push(LZCOPY),
            Op::MemSize => out.push(MEMSIZE),
        }
    }

    /// Decodes one instruction starting at `pc` in `code`. Returns the
    /// instruction and the offset of the next instruction.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    pub fn decode(code: &[u8], pc: usize) -> Result<(Op, usize), ModuleError> {
        use opc::*;
        let truncated = |_| ModuleError::TruncatedCode { at: pc };
        let mut c = Cursor::new(code);
        let op = c.take(pc).and_then(|_| c.u8()).map_err(truncated)?;
        let decoded = match op {
            HALT => Op::Halt,
            NOP => Op::Nop,
            UNREACHABLE => Op::Unreachable,
            JMP => Op::Jmp(i32::from_le_bytes(c.array().map_err(truncated)?)),
            JMPIF => Op::JmpIf(i32::from_le_bytes(c.array().map_err(truncated)?)),
            JMPIFZ => Op::JmpIfZ(i32::from_le_bytes(c.array().map_err(truncated)?)),
            CALL => Op::Call(u16::from_le_bytes(c.array().map_err(truncated)?)),
            RET => Op::Ret,
            HOSTCALL => Op::HostCall(c.u8().map_err(truncated)?),
            PUSHI8 => Op::PushI8(c.u8().map_err(truncated)? as i8),
            PUSHI32 => Op::PushI32(i32::from_le_bytes(c.array().map_err(truncated)?)),
            PUSHI64 => Op::PushI64(i64::from_le_bytes(c.array().map_err(truncated)?)),
            LOCALGET => Op::LocalGet(c.u8().map_err(truncated)?),
            LOCALSET => Op::LocalSet(c.u8().map_err(truncated)?),
            LOCALTEE => Op::LocalTee(c.u8().map_err(truncated)?),
            DROP => Op::Drop,
            DUP => Op::Dup,
            SWAP => Op::Swap,
            ADD => Op::Add,
            SUB => Op::Sub,
            MUL => Op::Mul,
            DIVU => Op::DivU,
            DIVS => Op::DivS,
            REMU => Op::RemU,
            AND => Op::And,
            OR => Op::Or,
            XOR => Op::Xor,
            SHL => Op::Shl,
            SHRU => Op::ShrU,
            SHRS => Op::ShrS,
            EQ => Op::Eq,
            NE => Op::Ne,
            LTU => Op::LtU,
            LTS => Op::LtS,
            GTU => Op::GtU,
            GTS => Op::GtS,
            LEU => Op::LeU,
            GEU => Op::GeU,
            EQZ => Op::Eqz,
            LOAD8 => Op::Load8,
            LOAD16 => Op::Load16,
            LOAD32 => Op::Load32,
            LOAD64 => Op::Load64,
            STORE8 => Op::Store8,
            STORE16 => Op::Store16,
            STORE32 => Op::Store32,
            STORE64 => Op::Store64,
            MEMCOPY => Op::MemCopy,
            MEMFILL => Op::MemFill,
            LZCOPY => Op::LzCopy,
            MEMSIZE => Op::MemSize,
            other => return Err(ModuleError::UnknownOpcode { opcode: other, at: pc }),
        };
        Ok((decoded, c.pos()))
    }

    /// Encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        let mut buf = Vec::with_capacity(9);
        self.encode(&mut buf);
        buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ops() -> Vec<Op> {
        vec![
            Op::Halt,
            Op::Nop,
            Op::Unreachable,
            Op::Jmp(-5),
            Op::JmpIf(1234),
            Op::JmpIfZ(0),
            Op::Call(7),
            Op::Ret,
            Op::HostCall(3),
            Op::PushI8(-1),
            Op::PushI32(i32::MIN),
            Op::PushI64(i64::MAX),
            Op::LocalGet(0),
            Op::LocalSet(255),
            Op::LocalTee(9),
            Op::Drop,
            Op::Dup,
            Op::Swap,
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::DivU,
            Op::DivS,
            Op::RemU,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Shl,
            Op::ShrU,
            Op::ShrS,
            Op::Eq,
            Op::Ne,
            Op::LtU,
            Op::LtS,
            Op::GtU,
            Op::GtS,
            Op::LeU,
            Op::GeU,
            Op::Eqz,
            Op::Load8,
            Op::Load16,
            Op::Load32,
            Op::Load64,
            Op::Store8,
            Op::Store16,
            Op::Store32,
            Op::Store64,
            Op::MemCopy,
            Op::MemFill,
            Op::LzCopy,
            Op::MemSize,
        ]
    }

    #[test]
    fn encode_decode_round_trip_every_op() {
        for op in all_ops() {
            let mut buf = Vec::new();
            op.encode(&mut buf);
            let (decoded, next) = Op::decode(&buf, 0).unwrap();
            assert_eq!(decoded, op);
            assert_eq!(next, buf.len());
        }
    }

    #[test]
    fn decode_stream_of_instructions() {
        let ops = all_ops();
        let mut buf = Vec::new();
        for op in &ops {
            op.encode(&mut buf);
        }
        let mut pc = 0;
        let mut decoded = Vec::new();
        while pc < buf.len() {
            let (op, next) = Op::decode(&buf, pc).unwrap();
            decoded.push(op);
            pc = next;
        }
        assert_eq!(decoded, ops);
    }

    #[test]
    fn truncated_immediate_is_an_error() {
        let mut buf = Vec::new();
        Op::PushI64(42).encode(&mut buf);
        buf.truncate(5); // opcode + 4 of 8 immediate bytes
        assert!(matches!(Op::decode(&buf, 0), Err(ModuleError::TruncatedCode { .. })));
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        assert!(matches!(
            Op::decode(&[0xFF], 0),
            Err(ModuleError::UnknownOpcode { opcode: 0xFF, at: 0 })
        ));
    }

    #[test]
    fn decode_past_end_is_an_error() {
        assert!(matches!(Op::decode(&[], 0), Err(ModuleError::TruncatedCode { at: 0 })));
    }

    #[test]
    fn encoded_len_matches_encoding() {
        for op in all_ops() {
            let mut buf = Vec::new();
            op.encode(&mut buf);
            assert_eq!(op.encoded_len(), buf.len());
        }
    }
}
