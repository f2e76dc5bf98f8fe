//! Host intrinsics reachable from FVM code via `HostCall`.
//!
//! PAD decoders are pure data-movement programs, but a few primitives are
//! provided natively — exactly the ones real mobile-code systems expose as
//! platform services: digests, logging, and controlled abort. Each intrinsic
//! is capability-gated by the [`SandboxPolicy`](crate::sandbox::SandboxPolicy)
//! so an embedding can, for example, deny logging to untrusted modules.

/// Identifies a host intrinsic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HostId {
    /// `sha1(src, len, dst)` — writes the 20-byte SHA-1 of `mem[src..src+len]`
    /// to `mem[dst..dst+20]`, pushes 0.
    Sha1,
    /// `log(ptr, len)` — records `mem[ptr..ptr+len]` in the instance's log
    /// buffer (truncated at the sandbox's log cap), pushes 0.
    Log,
    /// `abort(code)` — traps with [`Trap::HostAbort`](crate::error::Trap).
    Abort,
    /// `memeq(a, b, len)` — pushes 1 if the two regions are byte-equal,
    /// else 0.
    MemEq,
    /// `weaksum(src, len)` — pushes the 32-bit rolling-friendly checksum of
    /// the region (used by the rsync-style fixed-block protocol).
    WeakSum,
}

impl HostId {
    /// The intrinsic's row: `(wire id, assembler mnemonic, arity)`.
    const fn row(self) -> (u8, &'static str, usize) {
        match self {
            HostId::Sha1 => (0, "sha1", 3),
            HostId::Log => (1, "log", 2),
            HostId::Abort => (2, "abort", 1),
            HostId::MemEq => (3, "memeq", 3),
            HostId::WeakSum => (4, "weaksum", 2),
        }
    }

    /// Wire id used in bytecode.
    pub const fn id(self) -> u8 {
        self.row().0
    }

    /// Decodes a wire id.
    pub fn from_id(id: u8) -> Option<HostId> {
        HostId::ALL.into_iter().find(|h| h.id() == id)
    }

    /// Number of stack arguments the intrinsic pops.
    pub const fn arity(self) -> usize {
        self.row().2
    }

    /// All intrinsics, for policy allow-lists.
    pub const ALL: [HostId; 5] =
        [HostId::Sha1, HostId::Log, HostId::Abort, HostId::MemEq, HostId::WeakSum];

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        self.row().1
    }

    /// Parses an assembler mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<HostId> {
        HostId::ALL.into_iter().find(|h| h.mnemonic() == s)
    }
}

pub use fractal_crypto::checksum::{weak_sum, weak_sum_roll};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for h in HostId::ALL {
            assert_eq!(HostId::from_id(h.id()), Some(h));
            assert_eq!(HostId::from_mnemonic(h.mnemonic()), Some(h));
        }
        assert_eq!(HostId::from_id(200), None);
        assert_eq!(HostId::from_mnemonic("nope"), None);
    }
}
