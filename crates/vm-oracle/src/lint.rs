//! Lints: what makes an admitted module suspicious without making it unsafe.
//!
//! Each reads the stack-height proof and CFG admission already made
//! (unreachable code, dead stores, functions that never return), so a lint
//! costs admission nothing. Each kind has one fixed [`Severity`], which is
//! what `fasmlint` gates the shipped PAD sources on.

use fractal_vm::analysis::FunctionAnalysis;
use fractal_vm::Op;

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
}

/// How seriously `fasmlint` takes a [`Lint`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// Reported, does not fail the gate.
    Warn,
    /// Reported and fails the gate (nonzero `fasmlint` exit).
    Deny,
}

impl Lint {
    /// What is certainly wrong (a dead store) is denied; what is merely
    /// suspicious (unreachable code, a function that never returns —
    /// legitimate for abort-only helpers) is a warning.
    pub fn severity(&self) -> Severity {
        match self {
            Lint::UnreachableCode { .. } | Lint::NeverReturns { .. } => Severity::Warn,
            Lint::DeadStore { .. } => Severity::Deny,
        }
    }
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
        }
    }
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// The lints of function `func_idx`, from its admission proof.
pub fn collect_lints(func_idx: usize, fa: &FunctionAnalysis) -> Vec<Lint> {
    let mut lints = Vec::new();
    // Unreachable blocks: report the first instruction of each.
    for block in &fa.blocks {
        if fa.insns[block.start].height.is_none() {
            lints.push(Lint::UnreachableCode { func: func_idx, at: fa.insns[block.start].at });
        }
    }
    // Dead stores: locals written but never read anywhere in the function.
    let mut read = [false; 256];
    for insn in &fa.insns {
        if let Op::LocalGet(n) = insn.op {
            read[n as usize] = true;
        }
    }
    for insn in &fa.insns {
        if insn.height.is_none() {
            continue;
        }
        if let Op::LocalSet(n) | Op::LocalTee(n) = insn.op {
            if !read[n as usize] {
                lints.push(Lint::DeadStore { func: func_idx, at: insn.at, local: n });
            }
        }
    }
    if fa.exit_height.is_none() {
        lints.push(Lint::NeverReturns { func: func_idx });
    }
    lints
}
