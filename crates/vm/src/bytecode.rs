//! FVM instruction set: opcodes, immediates, and instruction (de)coding.
//!
//! Instructions are variable length: a one-byte opcode followed by a fixed
//! immediate whose width is determined by the opcode. All multi-byte
//! immediates are little-endian. Branch offsets are relative to the byte
//! *after* the branch instruction.

use fractal_crypto::wire::{counted, Cursor, Sink};

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

/// The instructions that carry no immediate, in opcode order: `(opcode
/// byte, assembler mnemonic, op)`. Encoding, decoding, the assembler and
/// the disassembler all read this one table; the wire format is its first
/// column, kept explicit so it stays stable.
pub const PLAIN_OPS: [(u8, &str, Op); 40] = [
    (0x00, "halt", Op::Halt),
    (0x01, "nop", Op::Nop),
    (0x02, "unreachable", Op::Unreachable),
    (0x07, "ret", Op::Ret),
    (0x16, "drop", Op::Drop),
    (0x17, "dup", Op::Dup),
    (0x18, "swap", Op::Swap),
    (0x20, "add", Op::Add),
    (0x21, "sub", Op::Sub),
    (0x22, "mul", Op::Mul),
    (0x23, "divu", Op::DivU),
    (0x24, "divs", Op::DivS),
    (0x25, "remu", Op::RemU),
    (0x26, "and", Op::And),
    (0x27, "or", Op::Or),
    (0x28, "xor", Op::Xor),
    (0x29, "shl", Op::Shl),
    (0x2A, "shru", Op::ShrU),
    (0x2B, "shrs", Op::ShrS),
    (0x30, "eq", Op::Eq),
    (0x31, "ne", Op::Ne),
    (0x32, "ltu", Op::LtU),
    (0x33, "lts", Op::LtS),
    (0x34, "gtu", Op::GtU),
    (0x35, "gts", Op::GtS),
    (0x36, "leu", Op::LeU),
    (0x37, "geu", Op::GeU),
    (0x38, "eqz", Op::Eqz),
    (0x40, "load8", Op::Load8),
    (0x41, "load16", Op::Load16),
    (0x42, "load32", Op::Load32),
    (0x43, "load64", Op::Load64),
    (0x44, "store8", Op::Store8),
    (0x45, "store16", Op::Store16),
    (0x46, "store32", Op::Store32),
    (0x47, "store64", Op::Store64),
    (0x48, "memcopy", Op::MemCopy),
    (0x49, "memfill", Op::MemFill),
    (0x4A, "lzcopy", Op::LzCopy),
    (0x4B, "memsize", Op::MemSize),
];

// Opcode bytes of the instructions that carry an immediate.
const JMP: u8 = 0x03;
const JMPIF: u8 = 0x04;
const JMPIFZ: u8 = 0x05;
const CALL: u8 = 0x06;
const HOSTCALL: u8 = 0x08;
const PUSHI8: u8 = 0x10;
const PUSHI32: u8 = 0x11;
const PUSHI64: u8 = 0x12;
const LOCALGET: u8 = 0x13;
const LOCALSET: u8 = 0x14;
const LOCALTEE: u8 = 0x15;

/// [`PLAIN_OPS`] indexed by opcode byte. Building it fails to compile if a
/// row takes the byte of another row or of an instruction with an immediate.
// This indexing runs in the compiler, where out of bounds is a build error.
#[allow(clippy::indexing_slicing)]
const DECODE_PLAIN: [Option<Op>; 256] = {
    let mut table = [None; 256];
    let mut i = 0;
    while i < PLAIN_OPS.len() {
        let (byte, _, op) = PLAIN_OPS[i];
        let immediate = matches!(
            byte,
            JMP | JMPIF
                | JMPIFZ
                | CALL
                | HOSTCALL
                | PUSHI8
                | PUSHI32
                | PUSHI64
                | LOCALGET
                | LOCALSET
                | LOCALTEE
        );
        assert!(!immediate && table[byte as usize].is_none(), "two instructions share a byte");
        table[byte as usize] = Some(op);
        i += 1;
    }
    table
};

impl Op {
    /// The row of [`PLAIN_OPS`] that holds this op; `None` for an op that
    /// carries an immediate.
    pub fn plain_row(self) -> Option<&'static (u8, &'static str, Op)> {
        PLAIN_OPS.iter().find(|row| row.2 == self)
    }

    /// Appends the encoded instruction to `out`.
    pub fn encode(&self, out: &mut impl Sink) {
        let mut put = |byte: u8, imm: &[u8]| {
            out.u8(byte);
            out.put(imm);
        };
        match *self {
            Op::Jmp(rel) => put(JMP, &rel.to_le_bytes()),
            Op::JmpIf(rel) => put(JMPIF, &rel.to_le_bytes()),
            Op::JmpIfZ(rel) => put(JMPIFZ, &rel.to_le_bytes()),
            Op::Call(idx) => put(CALL, &idx.to_le_bytes()),
            Op::HostCall(id) => put(HOSTCALL, &[id]),
            Op::PushI8(v) => put(PUSHI8, &v.to_le_bytes()),
            Op::PushI32(v) => put(PUSHI32, &v.to_le_bytes()),
            Op::PushI64(v) => put(PUSHI64, &v.to_le_bytes()),
            Op::LocalGet(n) => put(LOCALGET, &[n]),
            Op::LocalSet(n) => put(LOCALSET, &[n]),
            Op::LocalTee(n) => put(LOCALTEE, &[n]),
            plain => out.put(plain.plain_row().map(|row| row.0).as_slice()),
        }
    }

    /// Decodes one instruction starting at `pc` in `code`. Returns the
    /// instruction and the offset of the next instruction.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    pub fn decode(code: &[u8], pc: usize) -> Result<(Op, usize), ModuleError> {
        let truncated = |_| ModuleError::TruncatedCode { at: pc };
        let mut c = Cursor::new(code);
        let op = c.take(pc).and_then(|_| c.u8()).map_err(truncated)?;
        let decoded = match op {
            JMP => Op::Jmp(i32::from_le_bytes(c.array().map_err(truncated)?)),
            JMPIF => Op::JmpIf(i32::from_le_bytes(c.array().map_err(truncated)?)),
            JMPIFZ => Op::JmpIfZ(i32::from_le_bytes(c.array().map_err(truncated)?)),
            CALL => Op::Call(u16::from_le_bytes(c.array().map_err(truncated)?)),
            HOSTCALL => Op::HostCall(c.u8().map_err(truncated)?),
            PUSHI8 => Op::PushI8(c.u8().map_err(truncated)? as i8),
            PUSHI32 => Op::PushI32(i32::from_le_bytes(c.array().map_err(truncated)?)),
            PUSHI64 => Op::PushI64(i64::from_le_bytes(c.array().map_err(truncated)?)),
            LOCALGET => Op::LocalGet(c.u8().map_err(truncated)?),
            LOCALSET => Op::LocalSet(c.u8().map_err(truncated)?),
            LOCALTEE => Op::LocalTee(c.u8().map_err(truncated)?),
            other => DECODE_PLAIN
                .get(usize::from(other))
                .copied()
                .flatten()
                .ok_or(ModuleError::UnknownOpcode { opcode: other, at: pc })?,
        };
        Ok((decoded, c.pos()))
    }

    /// Encoded length in bytes, counted instead of written.
    pub fn encoded_len(&self) -> usize {
        counted(|c| self.encode(c))
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

    /// The wire format, stated independently of [`PLAIN_OPS`]: moving a
    /// row to another byte still round-trips, so only this catches it.
    #[test]
    fn every_op_encodes_to_its_pinned_bytes() {
        let mut buf = Vec::new();
        for op in all_ops() {
            op.encode(&mut buf);
        }
        let pinned = concat!(
            "000102",
            "03fbffffff",
            "04d2040000",
            "0500000000",
            "060700",
            "07",
            "0803",
            "10ff",
            "1100000080",
            "12ffffffffffffff7f",
            "1300",
            "14ff",
            "1509",
            "161718",
            "202122232425262728292a2b",
            "303132333435363738",
            "404142434445464748494a4b",
        );
        assert_eq!(fractal_crypto::hex::encode(&buf), pinned);
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
