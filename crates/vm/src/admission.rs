//! The admission cache: prove a PAD safe once, instantiate it many times.
//!
//! Structural verification, abstract interpretation and translation to
//! register form are
//! pure functions of *(module bytes, sandbox policy)*. PADs are
//! content-addressed by the SHA-1 their `PADMeta` advertises, so an
//! embedding that has just checked that digest (and the code signature —
//! both stay per deployment, and both come *before* the lookup) can key the
//! proof by `(digest, policy)` and share one [`AnalyzedModule`] between all
//! the sessions that deploy the same PAD. What remains per call is
//! [`Machine`](crate::machine::Machine) instantiation: linear memory,
//! stacks, fuel and log around the shared code — and since the bundle keeps
//! the instances its dropped machines return, wiped, a call after the first
//! checks one of those out instead of allocating it. That pool is a field
//! of the bundle: evicting a slot here frees it with the proof, once the
//! machines still running on it are gone.
//!
//! ## Concurrency
//!
//! A hit takes one read lock for the length of a short scan. A miss takes
//! the `fill` mutex — which no hit ever touches — re-checks, and only then
//! runs the analysis, *outside* the lock hits take; racing deployers of one
//! new PAD queue on `fill` and all but the first find the slot filled. So
//! each key is analysed exactly once however the schedule interleaves
//! (what keeps merged telemetry byte-identical across thread counts), and
//! a slow analysis never stalls sessions whose PADs are already admitted.
//!
//! ## Bound
//!
//! At most `capacity` slots, evicted first-in first-out: an evicted PAD is
//! simply re-proven on its next deployment, and instances already running
//! keep their `Arc`. Refusals are never stored — a module the analyzer
//! rejects is re-examined (and re-refused) every time it is offered.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use fractal_crypto::Digest;

use crate::analysis::AnalyzedModule;
use crate::sandbox::SandboxPolicy;

/// Slots in a cache built with [`AdmissionCache::new`]: an order of
/// magnitude above the five shipped PADs times the policies a testbed's
/// clients run them under, small enough that a lookup is a linear scan.
const DEFAULT_CAPACITY: usize = 64;

/// One admitted module under its key's digest; the key's other half is the
/// policy the bundle itself records.
struct Slot {
    digest: Digest,
    analyzed: Arc<AnalyzedModule>,
}

/// A bounded, thread-safe map from `(module digest, sandbox policy)` to the
/// shared admitted bundle. See the [module docs](self).
pub struct AdmissionCache {
    capacity: usize,
    /// Oldest first. A `VecDeque` scan rather than a hash map: lookups
    /// compare by reference (no owned key to build per deployment) and
    /// first-in first-out eviction is the container's own order.
    slots: RwLock<VecDeque<Slot>>,
    /// Serialises misses; see the module docs.
    fill: Mutex<()>,
}

impl core::fmt::Debug for AdmissionCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AdmissionCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Default for AdmissionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AdmissionCache {
    /// An empty cache with the default bound.
    pub fn new() -> AdmissionCache {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` (nonzero) admitted
    /// modules. Private: one bound is in use, the unit tests shrink it to
    /// watch eviction.
    fn with_capacity(capacity: usize) -> AdmissionCache {
        AdmissionCache { capacity, slots: RwLock::new(VecDeque::new()), fill: Mutex::new(()) }
    }

    /// The most admitted modules the cache will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admitted modules currently held.
    pub fn len(&self) -> usize {
        self.slots.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether nothing has been admitted (or everything was refused).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup(&self, digest: &Digest, policy: &SandboxPolicy) -> Option<Arc<AnalyzedModule>> {
        // A slot is pushed or popped whole, so a writer that panicked
        // (allocation failure) cannot have left the deque torn.
        let slots = self.slots.read().unwrap_or_else(PoisonError::into_inner);
        slots
            .iter()
            .find(|s| s.digest == *digest && s.analyzed.policy() == policy)
            .map(|s| Arc::clone(&s.analyzed))
    }

    /// The admitted bundle for the module whose bytes hash to `digest`,
    /// proven under `policy`; `true` beside it when it came from the cache.
    ///
    /// On a miss `admit` runs — once per key, however many threads race —
    /// and its bundle is stored and returned; its error is returned and
    /// nothing is stored. The caller vouches that `digest` is the SHA-1 of
    /// the bytes `admit` analyses — under `policy`, which the bundle records
    /// and later lookups compare — and that it has already accepted their
    /// signature: the cache is a memo, not a gate.
    pub fn get_or_admit<E>(
        &self,
        digest: &Digest,
        policy: &SandboxPolicy,
        admit: impl FnOnce() -> Result<AnalyzedModule, E>,
    ) -> Result<(Arc<AnalyzedModule>, bool), E> {
        if let Some(hit) = self.lookup(digest, policy) {
            return Ok((hit, true));
        }
        // The mutex guards no data, so a poisoned one (an `admit` that
        // panicked) is as good as new.
        let _filling = self.fill.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = self.lookup(digest, policy) {
            return Ok((hit, true));
        }
        let analyzed = Arc::new(admit()?);
        let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
        if slots.len() == self.capacity {
            slots.pop_front();
        }
        slots.push_back(Slot { digest: *digest, analyzed: Arc::clone(&analyzed) });
        Ok((analyzed, false))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    use super::*;
    use crate::asm::assemble;
    use crate::error::VerifyError;
    use crate::host::HostId;
    use crate::module::Module;

    /// A module returning `k`; distinct `k` give distinct digests.
    fn constant(k: u32) -> Module {
        assemble(&format!(".memory 1\n.func decode args=0 locals=0\n push {k}\n ret\n")).unwrap()
    }

    fn admit(
        cache: &AdmissionCache,
        module: &Module,
        policy: &SandboxPolicy,
    ) -> Result<(Arc<AnalyzedModule>, bool), VerifyError> {
        cache.get_or_admit(&module.digest(), policy, || module.clone().analyzed(policy))
    }

    #[test]
    fn second_lookup_shares_the_first_bundle() {
        let cache = AdmissionCache::new();
        let policy = SandboxPolicy::for_pads();
        let (first, hit) = admit(&cache, &constant(1), &policy).unwrap();
        assert!(!hit);
        let (second, hit) = admit(&cache, &constant(1), &policy).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second), "one proof, shared");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn policy_is_part_of_the_key() {
        let cache = AdmissionCache::new();
        let module = constant(2);
        let lax = SandboxPolicy::for_pads();
        let tight = SandboxPolicy::for_pads().with_hosts(&[HostId::Abort]);
        let (a, _) = admit(&cache, &module, &lax).unwrap();
        let (b, hit) = admit(&cache, &module, &tight).unwrap();
        assert!(!hit, "a proof under one policy is no proof under another");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn refusals_are_not_stored() {
        let cache = AdmissionCache::new();
        let policy = SandboxPolicy::for_pads();
        let bad = assemble(".memory 1\n.func decode args=0 locals=0\n drop\n ret\n").unwrap();
        for _ in 0..2 {
            let err = admit(&cache, &bad, &policy).unwrap_err();
            assert!(matches!(err, VerifyError::StackUnderflow { .. }), "{err:?}");
            assert!(cache.is_empty());
        }
    }

    #[test]
    fn capacity_bounds_the_cache_and_evicts_oldest_first() {
        let cache = AdmissionCache::with_capacity(3);
        let policy = SandboxPolicy::for_pads();
        for k in 0..5 {
            admit(&cache, &constant(k), &policy).unwrap();
            assert!(cache.len() <= cache.capacity());
        }
        assert_eq!(cache.len(), 3);
        // 0 and 1 were evicted; 2..5 remain.
        assert!(admit(&cache, &constant(4), &policy).unwrap().1);
        assert!(admit(&cache, &constant(2), &policy).unwrap().1);
        assert!(!admit(&cache, &constant(0), &policy).unwrap().1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn racing_deployers_analyse_each_key_once() {
        const THREADS: usize = 8;
        let cache = AdmissionCache::new();
        let policy = SandboxPolicy::for_pads();
        let modules: Vec<Module> = (0..4).map(constant).collect();
        let analyses = AtomicUsize::new(0);
        // Every thread is released onto the same cold key at once.
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cache, policy, modules, analyses, start) =
                    (&cache, &policy, &modules, &analyses, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..64 {
                        let module = &modules[(i + t) % modules.len()];
                        let (analyzed, _) = cache
                            .get_or_admit(&module.digest(), policy, || {
                                analyses.fetch_add(1, Ordering::Relaxed);
                                module.clone().analyzed(policy)
                            })
                            .unwrap();
                        assert_eq!(&analyzed.module, module);
                    }
                });
            }
        });
        assert_eq!(analyses.load(Ordering::Relaxed), modules.len());
        assert_eq!(cache.len(), modules.len());
    }
}
