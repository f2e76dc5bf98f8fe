//! Sandbox policy: the resource and capability limits the client imposes on
//! downloaded PAD code (paper §3.5, "sandbox / virtual machine monitor").

use crate::host::HostId;

/// Limits applied to one module instance. `Eq + Hash` because the policy
/// is half of an [`AdmissionCache`](crate::admission::AdmissionCache) key:
/// a proof obtained under one policy says nothing under another.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SandboxPolicy {
    /// Maximum linear memory the instance may declare, in bytes. Modules
    /// declaring more fail instantiation.
    pub max_memory: usize,
    /// Fuel budget: every instruction costs at least 1; bulk operations
    /// cost extra proportional to the bytes they touch.
    pub max_fuel: u64,
    /// Maximum operand-stack depth.
    pub max_stack: usize,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Which host intrinsics the module may invoke.
    pub allowed_hosts: Vec<HostId>,
    /// Cap on bytes retained from `log` host calls.
    pub max_log_bytes: usize,
}

impl SandboxPolicy {
    /// The default policy used for protocol adaptors: 16 MiB memory, a
    /// generous-but-finite fuel budget, all intrinsics allowed.
    pub fn for_pads() -> Self {
        SandboxPolicy {
            max_memory: 16 * 1024 * 1024,
            max_fuel: 2_000_000_000,
            max_stack: 1024,
            max_call_depth: 64,
            allowed_hosts: HostId::ALL.to_vec(),
            max_log_bytes: 4096,
        }
    }

    /// A tight policy for untrusted experimentation: 1 MiB, small fuel, no
    /// host calls except `abort`.
    pub fn strict() -> Self {
        SandboxPolicy {
            max_memory: 1024 * 1024,
            max_fuel: 10_000_000,
            max_stack: 256,
            max_call_depth: 16,
            allowed_hosts: vec![HostId::Abort],
            max_log_bytes: 0,
        }
    }

    /// Returns a copy with a different fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.max_fuel = fuel;
        self
    }

    /// Returns a copy with a different memory cap.
    pub fn with_memory(mut self, bytes: usize) -> Self {
        self.max_memory = bytes;
        self
    }

    /// Returns a copy allowing exactly the given intrinsics.
    pub fn with_hosts(mut self, hosts: &[HostId]) -> Self {
        self.allowed_hosts = hosts.to_vec();
        self
    }

    /// Whether the policy permits `host`.
    pub fn allows(&self, host: HostId) -> bool {
        self.allowed_hosts.contains(&host)
    }
}

impl Default for SandboxPolicy {
    fn default() -> Self {
        Self::for_pads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_allows_everything() {
        let p = SandboxPolicy::default();
        for h in HostId::ALL {
            assert!(p.allows(h));
        }
    }

    #[test]
    fn strict_denies_most() {
        let p = SandboxPolicy::strict();
        assert!(p.allows(HostId::Abort));
        assert!(!p.allows(HostId::Sha1));
        assert!(!p.allows(HostId::Log));
    }

    #[test]
    fn builders() {
        let p = SandboxPolicy::default().with_fuel(5).with_memory(100).with_hosts(&[HostId::Log]);
        assert_eq!(p.max_fuel, 5);
        assert_eq!(p.max_memory, 100);
        assert!(p.allows(HostId::Log));
        assert!(!p.allows(HostId::Sha1));
    }
}
