//! The shared *recipe* wire format used by the differencing protocols.
//!
//! Both vary-sized blocking and fixed-sized blocking ultimately tell the
//! client the same thing: "rebuild the new version by copying these ranges
//! of your old version and splicing in these fresh bytes". That instruction
//! list is a recipe:
//!
//! ```text
//! u32 new_len
//! ops until new_len bytes produced:
//!   u8 0x00 = COPY:  u32 old_offset, u32 len     ; copy from old version
//!   u8 0x01 = DATA:  u32 len, bytes              ; splice literal bytes
//! ```
//!
//! Keeping one format means one FVM decoder serves both protocols — the
//! PADs differ only in their server-side encoders, which is faithful to how
//! the paper treats them as siblings in the PAT.

use crate::traits::CodecError;
use bytes::Bytes;
use fractal_crypto::wire::{counted, Cursor, Sink};

/// Opcode byte for a copy-from-old instruction.
pub const OP_COPY: u8 = 0x00;
/// Opcode byte for a literal-data instruction.
pub const OP_DATA: u8 = 0x01;

/// One rebuild instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RecipeOp {
    /// Copy `len` bytes from `old_offset` in the old version.
    Copy {
        /// Offset into the old version.
        old_offset: u32,
        /// Bytes to copy.
        len: u32,
    },
    /// Splice literal bytes. Held as [`Bytes`] so parsing a payload can
    /// hand out refcounted sub-views of the wire buffer instead of copies —
    /// see [`parse_shared`].
    Data(Bytes),
}

impl RecipeOp {
    /// Output bytes this op produces.
    pub fn output_len(&self) -> usize {
        match self {
            RecipeOp::Copy { len, .. } => *len as usize,
            RecipeOp::Data(bytes) => bytes.len(),
        }
    }

    /// Wire size of this op, counted instead of written.
    pub fn wire_len(&self) -> usize {
        counted(|c| self.encode(c))
    }

    /// Appends this op's wire form to `out`.
    pub fn encode(&self, out: &mut impl Sink) {
        match self {
            RecipeOp::Copy { old_offset, len } => {
                out.u8(OP_COPY);
                out.u32(*old_offset);
                out.u32(*len);
            }
            RecipeOp::Data(bytes) => {
                out.u8(OP_DATA);
                out.u32(bytes.len() as u32);
                out.put(bytes);
            }
        }
    }
}

/// Serializes ops into a recipe payload.
pub fn encode(new_len: usize, ops: &[RecipeOp]) -> Vec<u8> {
    fn write(out: &mut impl Sink, new_len: usize, ops: &[RecipeOp]) {
        out.u32(new_len as u32);
        ops.iter().for_each(|op| op.encode(out));
    }
    let mut out = Vec::with_capacity(counted(|c| write(c, new_len, ops)));
    write(&mut out, new_len, ops);
    out
}

/// Applies a recipe payload to `old`, producing the new version.
#[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub fn apply(old: &[u8], payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut c = Cursor::new(payload);
    let new_len = c.u32()? as usize;
    // A recipe may copy `old` many times over, so `new_len` is not refused;
    // but only what `old` and the payload could supply once is reserved.
    let mut out = Vec::with_capacity(new_len.min(old.len() + payload.len()));
    while out.len() < new_len {
        match c.u8()? {
            OP_COPY => {
                let off = c.u32()? as usize;
                let len = c.u32()? as usize;
                let src = old
                    .get(off..off.checked_add(len).ok_or(CodecError::OldOutOfRange)?)
                    .ok_or(CodecError::OldOutOfRange)?;
                out.extend_from_slice(src);
            }
            OP_DATA => {
                let len = c.u32()? as usize;
                out.extend_from_slice(c.take(len)?);
            }
            _ => return Err(CodecError::BadFormat("unknown recipe op")),
        }
    }
    if out.len() != new_len {
        return Err(CodecError::LengthMismatch { declared: new_len, produced: out.len() });
    }
    Ok(out)
}

/// Parses a payload back into structured ops (diagnostics and tests).
///
/// Copies the payload into one shared buffer; the returned `Data` ops are
/// sub-views of it. Callers already holding the payload as [`Bytes`] should
/// use [`parse_shared`], which copies nothing.
pub fn parse(payload: &[u8]) -> Result<(usize, Vec<RecipeOp>), CodecError> {
    parse_shared(&Bytes::copy_from_slice(payload))
}

/// Zero-copy [`parse`]: every `Data` op is an O(1) refcounted slice of
/// `payload` — no literal bytes are copied out of the wire buffer.
#[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub fn parse_shared(payload: &Bytes) -> Result<(usize, Vec<RecipeOp>), CodecError> {
    let mut c = Cursor::new(payload);
    let new_len = c.u32()? as usize;
    let mut ops = Vec::new();
    let mut produced = 0usize;
    while produced < new_len {
        match c.u8()? {
            OP_COPY => {
                let old_offset = c.u32()?;
                let len = c.u32()?;
                produced += len as usize;
                ops.push(RecipeOp::Copy { old_offset, len });
            }
            OP_DATA => {
                let len = c.u32()? as usize;
                let start = c.pos();
                c.take(len)?;
                ops.push(RecipeOp::Data(payload.slice(start..c.pos())));
                produced += len;
            }
            _ => return Err(CodecError::BadFormat("unknown recipe op")),
        }
    }
    Ok((new_len, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_and_data_round_trip() {
        let old = b"0123456789abcdef";
        let ops = vec![
            RecipeOp::Copy { old_offset: 10, len: 6 },
            RecipeOp::Data(Bytes::from(&b"NEW"[..])),
            RecipeOp::Copy { old_offset: 0, len: 4 },
        ];
        let new_len = 6 + 3 + 4;
        let payload = encode(new_len, &ops);
        let out = apply(old, &payload).unwrap();
        assert_eq!(out, b"abcdefNEW0123");
        let (len, parsed) = parse(&payload).unwrap();
        assert_eq!(len, new_len);
        assert_eq!(parsed, ops);
    }

    #[test]
    fn empty_recipe() {
        let payload = encode(0, &[]);
        assert_eq!(apply(b"old", &payload).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn copy_out_of_old_range_rejected() {
        let ops = vec![RecipeOp::Copy { old_offset: 2, len: 10 }];
        let payload = encode(10, &ops);
        assert_eq!(apply(b"abc", &payload), Err(CodecError::OldOutOfRange));
    }

    #[test]
    fn copy_offset_overflow_rejected() {
        let ops = vec![RecipeOp::Copy { old_offset: u32::MAX, len: u32::MAX }];
        let payload = encode(u32::MAX as usize, &ops);
        assert_eq!(apply(b"abc", &payload), Err(CodecError::OldOutOfRange));
    }

    #[test]
    fn truncated_payloads_rejected() {
        let ops = vec![RecipeOp::Data(Bytes::from(&b"hello world"[..]))];
        let payload = encode(11, &ops);
        for cut in 0..payload.len() {
            assert!(apply(b"", &payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_op_rejected() {
        let mut payload = 5u32.to_le_bytes().to_vec();
        payload.push(0x77);
        assert!(matches!(apply(b"", &payload), Err(CodecError::BadFormat(_))));
    }

    #[test]
    fn overrun_recipe_rejected() {
        // Recipe produces more than declared: apply stops only at >= so a
        // final op overshooting yields LengthMismatch.
        let ops = vec![RecipeOp::Data(Bytes::from(&b"abcdef"[..]))];
        let payload = encode(3, &ops);
        assert!(matches!(apply(b"", &payload), Err(CodecError::LengthMismatch { .. })));
    }

    #[test]
    fn output_and_wire_lens() {
        let c = RecipeOp::Copy { old_offset: 0, len: 100 };
        let d = RecipeOp::Data(Bytes::from(vec![0; 7]));
        assert_eq!(c.output_len(), 100);
        assert_eq!(c.wire_len(), 9);
        assert_eq!(d.output_len(), 7);
        assert_eq!(d.wire_len(), 12);
    }
}
