//! What is per instance, and the pool an admitted module keeps of it.
//!
//! Code, proof and policy belong to the [`AnalyzedModule`]; an [`Instance`]
//! is everything a call needs on top: linear memory, the register file,
//! frames and the log. Allocating, faulting in and unmapping that per call
//! would cost more than the call itself on a small page, so an admitted
//! module keeps the instances its machines are done with and hands them out
//! again. A deployed PAD holds none between its calls (`PadRuntime` leases
//! a machine per call), so an instance is out of the pool only while a
//! call runs in it.
//!
//! ## The invariant
//!
//! An instance in the pool is indistinguishable from a new one: memory all
//! zero, everything else empty. [`InstancePool::put`] establishes it —
//! [`LinearMemory::scrub`] zeroes the span the tenant wrote, which is all a
//! tenant can have changed — and in debug builds checks it by scanning the
//! whole buffer, so any test that drops a machine polices every write path.
//! A tenant's bytes are gone when its machine is, not when the next one
//! arrives.
//!
//! ## The bound
//!
//! A pool holds at most as many instances as calls ever ran at once on its
//! module, which is one per thread that runs calls (a reactor thread, a
//! shard): when machines are leased per call, how many clients have
//! deployed the module does not matter. A pooled instance pins the pages its
//! tenants touched, and wiping it costs a `memset` of the span between the
//! lowest and the highest of them. Two rules, neither a setting, keep both
//! small. An instance whose span is more than half its memory is freed as
//! every instance used to be: zeroing it would cost more than mapping the
//! next one, which faults in only the pages it touches, and would pin the
//! lot (`deflate.fasm`, tables at the top of memory and I/O at the bottom,
//! is the shipped case, so every deflate call maps a new instance). And the
//! pool keeps a returned instance only while what everything it holds
//! retains — dirty spans plus what the register files grew to — sums to less
//! than the `max_memory` the module was admitted under. The pool is a field
//! of the admitted module, so it is keyed, shared between threads and freed
//! exactly as that is.
//!
//! [`AnalyzedModule`]: crate::analysis::AnalyzedModule

use std::sync::{Mutex, PoisonError};

use crate::memory::LinearMemory;

/// One call frame.
pub(crate) struct Frame {
    /// Function index executing.
    pub(crate) func: usize,
    /// The instruction index to resume at, current only while the frame is
    /// suspended in a call.
    pub(crate) pc: usize,
    /// Base of this frame's window in the register file.
    pub(crate) locals_base: usize,
}

/// The mutable state of one instantiated module.
#[derive(Default)]
pub(crate) struct Instance {
    pub(crate) memory: LinearMemory,
    /// The register file: each frame's window of arguments, locals and
    /// stack registers, innermost last. A callee's window opens over the
    /// caller's outgoing arguments.
    pub(crate) locals: Vec<i64>,
    pub(crate) frames: Vec<Frame>,
    /// Bytes captured from the `log` intrinsic.
    pub(crate) log: Vec<u8>,
}

impl Instance {
    /// A new instance with `mem_bytes` of zeroed memory. Only the memory is
    /// allocated; the register file and frames grow when code first runs.
    pub(crate) fn new(mem_bytes: usize) -> Instance {
        Instance { memory: LinearMemory::zeroed(mem_bytes), ..Instance::default() }
    }

    /// Bytes this instance would keep resident while idle in a pool: the
    /// span its tenant dirtied plus what the register file, frames and log
    /// grew to.
    fn retained(&self) -> usize {
        self.memory.dirty().len()
            + std::mem::size_of::<i64>() * self.locals.capacity()
            + std::mem::size_of::<Frame>() * self.frames.capacity()
            + self.log.capacity()
    }
}

#[derive(Default)]
struct Idle {
    /// Returned instances, each with what it [retained](Instance::retained)
    /// when it came back.
    instances: Vec<(Instance, usize)>,
    /// Sum of those: the bytes the pool may be keeping resident.
    held: usize,
}

/// Instances an admitted module's machines have returned; see the
/// [module docs](self).
#[derive(Default)]
pub(crate) struct InstancePool {
    idle: Mutex<Idle>,
}

impl core::fmt::Debug for InstancePool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("InstancePool")
            .field("idle", &idle.instances.len())
            .field("held", &idle.held)
            .finish()
    }
}

impl InstancePool {
    /// An instance some machine returned, if one is idle.
    pub(crate) fn take(&self) -> Option<Instance> {
        // Every update under this lock is one push, one pop or one add, so
        // a poisoned lock still guards valid data.
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        let (instance, retained) = idle.instances.pop()?;
        idle.held -= retained;
        Some(instance)
    }

    /// Returns `instance`, wiped, for the next [`InstancePool::take`] — or
    /// frees it when its tenant dirtied a span of more than half its memory,
    /// or when keeping it would bring what the pool retains up to `budget`
    /// bytes.
    pub(crate) fn put(&self, mut instance: Instance, budget: usize) {
        if instance.memory.dirty().len() > instance.memory.len() / 2 {
            return;
        }
        let retained = instance.retained();
        // Room is reserved before the scrub and the instance listed after
        // it: an instance about to be freed needs no zeroing, and nobody
        // waits on this lock for the length of a `memset`.
        {
            let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            if idle.held.saturating_add(retained) >= budget {
                return;
            }
            idle.held += retained;
        }
        instance.memory.scrub();
        instance.locals.clear();
        instance.frames.clear();
        instance.log.clear();
        // A failed assertion while a test is already unwinding would abort
        // the test binary and hide the first failure.
        debug_assert!(
            std::thread::panicking() || instance.memory.is_zero(),
            "a write path changed memory without recording it in the dirty span"
        );
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        idle.instances.push((instance, retained));
    }
}
