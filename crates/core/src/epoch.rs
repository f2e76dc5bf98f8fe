//! Epoch-versioned publication: RCU-style snapshot swap for the write
//! path, so republish runs concurrently with millions of reads.
//!
//! The paper's proactive mode (§3.1) assumes adaptive content is
//! "precalculated in advance" — but a real edge deployment republishes
//! continuously *while serving*. [`Epoch<T>`] is the primitive that makes
//! that safe without a `&mut` anywhere on the read or write path:
//!
//! * **Readers pin a generation.** [`Epoch::pin`] hands back a
//!   [`Pinned<T>`] — a refcounted handle to one immutable snapshot. The
//!   read-side critical section is a single `Arc` clone under a read
//!   lock that a publisher write-holds only for the duration of one
//!   pointer store. Everything the reader does with the snapshot
//!   afterwards is lock-free: the generation it pinned is immutable
//!   forever.
//! * **Writers copy off-path and swap.** [`Epoch::publish_with`] clones
//!   the current value *outside* any reader-visible lock, applies the
//!   mutation to the private successor, then swaps it in. Readers that
//!   raced the swap keep serving their pinned generation to completion —
//!   exactly RCU's grace-period contract, with the grace period delegated
//!   to `Arc`: a retired generation is reclaimed when its last pinned
//!   reader drops it.
//! * **Retired generations fold into telemetry.** The way
//!   [`IntrospectSource`](crate::introspect::IntrospectSource) folds
//!   retired shards into its baseline, a reclaimed generation folds into
//!   the epoch's counters: `fractal_epoch_publishes_total`,
//!   `fractal_epoch_generations_retired_total`, and the
//!   `fractal_epoch_live_generations` gauge (pinned-but-superseded
//!   generations show up as live > 1).
//!
//! ## Why RCU over striping
//!
//! The content store could instead be lock-striped — but striping only
//! shards *contention*; every read still takes a lock that a writer can
//! hold while it encodes, and a multi-entry operation (publish +
//! proactive precompute) would need consistent multi-stripe locking. A
//! snapshot swap gives every reader a *consistent whole-store view* for
//! the price of one refcount, makes torn version chains structurally
//! impossible, and keeps the writer's critical section independent of how
//! much work the publish does.
//!
//! The value is cloned per publish, so `T` should be a structure of
//! refcounted leaves ([`Bytes`](bytes::Bytes) payloads, `Arc`'d PATs):
//! the clone copies the *index*, never the payloads. Publish cost is
//! O(entries), not O(bytes) — the measured trade is the benchmark's
//! `republish_mixed` workload (`core.server.publish_us_p50/p99`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

/// Counters shared by an [`Epoch`] and every generation it ever
/// published, so reclamation (which happens on whatever thread drops the
/// last pin) can fold into the same ledger.
struct Shared {
    published: AtomicU64,
    reclaimed: AtomicU64,
    tele_retired: fractal_telemetry::Counter,
    tele_live: fractal_telemetry::Gauge,
}

impl Shared {
    fn live(&self) -> u64 {
        // `reclaimed` trails `published` by construction (a generation is
        // only reclaimed after it was published), plus the initial
        // generation which is published as generation 0.
        (1 + self.published.load(Ordering::Relaxed))
            .saturating_sub(self.reclaimed.load(Ordering::Relaxed))
    }
}

/// One immutable snapshot: the value plus its generation number. Readers
/// hold these through [`Pinned`]; dropping the last handle *is* the grace
/// period's end, and folds the generation into the retire counters.
struct Generation<T> {
    value: T,
    number: u64,
    shared: Arc<Shared>,
}

impl<T> Drop for Generation<T> {
    fn drop(&mut self) {
        self.shared.reclaimed.fetch_add(1, Ordering::Relaxed);
        self.shared.tele_retired.inc();
        self.shared.tele_live.set(self.shared.live() as i64);
    }
}

/// A pinned snapshot: wait-free, immutable access to one generation of
/// the epoch's value. Holding a pin never blocks a publisher — it only
/// delays reclamation of this one generation.
pub struct Pinned<T> {
    generation: Arc<Generation<T>>,
}

impl<T> Pinned<T> {
    /// The generation number this pin holds (0 = the initial value).
    pub fn generation(&self) -> u64 {
        self.generation.number
    }
}

impl<T> Clone for Pinned<T> {
    fn clone(&self) -> Self {
        Pinned { generation: Arc::clone(&self.generation) }
    }
}

impl<T> std::ops::Deref for Pinned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.generation.value
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for Pinned<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Pinned")
            .field("generation", &self.generation.number)
            .field("value", &self.generation.value)
            .finish()
    }
}

/// Publication accounting, the counter mirror of the telemetry series.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EpochStats {
    /// Successor generations installed (the initial value is not counted).
    pub published: u64,
    /// Generations whose last pin dropped (folded into telemetry).
    pub retired: u64,
    /// Generations currently alive: the current one plus any still pinned.
    pub live: u64,
}

/// An epoch-versioned value: `&self` reads *and* `&self` writes.
///
/// See the [module docs](self) for the full contract. In short:
/// [`pin`](Self::pin) is the read path (a refcount clone), and
/// [`publish_with`](Self::publish_with) is the write path (copy the
/// current value off-path, mutate the private copy, swap it in).
pub struct Epoch<T> {
    current: RwLock<Arc<Generation<T>>>,
    /// Serializes publishers so each successor is built from the latest
    /// generation — readers never touch this lock.
    writer: Mutex<()>,
    shared: Arc<Shared>,
    tele_published: fractal_telemetry::Counter,
}

impl<T> Epoch<T> {
    /// Wraps `value` as generation 0.
    pub fn new(value: T) -> Epoch<T>
    where
        T: Clone,
    {
        let bundle = fractal_telemetry::Telemetry::global();
        let shared = Arc::new(Shared {
            published: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            tele_retired: bundle.counter("fractal_epoch_generations_retired_total"),
            tele_live: bundle.gauge("fractal_epoch_live_generations"),
        });
        let first = Arc::new(Generation { value, number: 0, shared: Arc::clone(&shared) });
        Epoch {
            current: RwLock::new(first),
            writer: Mutex::new(()),
            shared,
            tele_published: bundle.counter("fractal_epoch_publishes_total"),
        }
    }

    /// Pins the current generation: a consistent, immutable snapshot the
    /// caller can hold for as long as it likes without ever blocking a
    /// publisher. The critical section is one `Arc` clone under the read
    /// lock.
    pub fn pin(&self) -> Pinned<T> {
        Pinned { generation: Arc::clone(&self.current.read()) }
    }

    /// Publishes a successor generation: clones the current value *off*
    /// the read path, applies `mutate` to the private copy, then swaps it
    /// in. Readers pinned to older generations keep serving them; new pins
    /// observe the successor. Concurrent publishers are serialized (each
    /// successor builds on the latest generation).
    pub fn publish_with<R>(&self, mutate: impl FnOnce(&mut T) -> R) -> R
    where
        T: Clone,
    {
        let _exclusive = self.writer.lock();
        let current = self.pin().generation;
        let mut next = current.value.clone();
        let result = mutate(&mut next);
        let number = current.number + 1;
        drop(current);
        let successor =
            Arc::new(Generation { value: next, number, shared: Arc::clone(&self.shared) });
        // The write lock is held for the pointer store only: the retired
        // generation (and whatever `T` it frees) drops after the guard.
        let retired = std::mem::replace(&mut *self.current.write(), successor);
        drop(retired);
        self.shared.published.fetch_add(1, Ordering::Relaxed);
        self.tele_published.inc();
        self.shared.tele_live.set(self.shared.live() as i64);
        result
    }

    /// The current generation number (0 until the first publish).
    pub fn generation(&self) -> u64 {
        self.current.read().number
    }

    /// Publication / reclamation accounting.
    pub fn stats(&self) -> EpochStats {
        EpochStats {
            published: self.shared.published.load(Ordering::Relaxed),
            retired: self.shared.reclaimed.load(Ordering::Relaxed),
            live: self.shared.live(),
        }
    }
}

impl<T: Clone + Default> Default for Epoch<T> {
    fn default() -> Self {
        Epoch::new(T::default())
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for Epoch<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let current = self.pin().generation;
        f.debug_struct("Epoch")
            .field("generation", &current.number)
            .field("stats", &self.stats())
            .field("value", &current.value)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_sees_published_value() {
        let e = Epoch::new(vec![1u32]);
        assert_eq!(*e.pin(), vec![1]);
        assert_eq!(e.pin().generation(), 0);
        e.publish_with(|v| v.push(2));
        assert_eq!(*e.pin(), vec![1, 2]);
        assert_eq!(e.pin().generation(), 1);
        assert_eq!(e.generation(), 1);
    }

    #[test]
    fn old_pins_survive_republish_unchanged() {
        let e = Epoch::new(String::from("v0"));
        let old = e.pin();
        e.publish_with(|s| *s = "v1".into());
        e.publish_with(|s| *s = "v2".into());
        // The pinned generation is immutable forever — RCU's contract.
        assert_eq!(*old, "v0");
        assert_eq!(old.generation(), 0);
        assert_eq!(*e.pin(), "v2");
    }

    #[test]
    fn retired_generations_fold_into_stats() {
        let e = Epoch::new(0u64);
        let pinned = e.pin();
        for i in 1..=5 {
            e.publish_with(|v| *v = i);
        }
        let mid = e.stats();
        assert_eq!(mid.published, 5);
        // Generation 0 is still pinned; generations 1..=4 were reclaimed
        // the moment their lane references were replaced (no reader held
        // them), so live = current + the one straggler pin.
        assert_eq!(mid.live, 2);
        assert_eq!(mid.retired, 4);
        drop(pinned);
        let after = e.stats();
        assert_eq!(after.retired, 5);
        assert_eq!(after.live, 1, "only the current generation survives");
    }

    #[test]
    fn publish_returns_the_mutators_result() {
        let e = Epoch::new(Vec::<u8>::new());
        let len = e.publish_with(|v| {
            v.push(7);
            v.len()
        });
        assert_eq!(len, 1);
    }

    #[test]
    fn concurrent_readers_see_monotonic_generations() {
        let e = Arc::new(Epoch::new(0u64));
        let writer_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let e = Arc::clone(&e);
                let done = Arc::clone(&writer_done);
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let pin = e.pin();
                        // Per-thread monotonicity: a reader never travels
                        // back in time, and the value always matches the
                        // generation that carries it.
                        assert!(pin.generation() >= last, "generation went backwards");
                        assert_eq!(*pin, pin.generation(), "torn value/generation pair");
                        last = pin.generation();
                    }
                });
            }
            let e = Arc::clone(&e);
            scope.spawn(move || {
                for _ in 0..2_000 {
                    e.publish_with(|v| *v += 1);
                }
                writer_done.store(true, Ordering::Relaxed);
            });
        });
        assert_eq!(*e.pin(), 2_000);
        assert_eq!(e.stats().published, 2_000);
    }

    #[test]
    fn concurrent_publishers_serialize_without_lost_updates() {
        let e = Arc::new(Epoch::new(0u64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let e = Arc::clone(&e);
                scope.spawn(move || {
                    for _ in 0..500 {
                        e.publish_with(|v| *v += 1);
                    }
                });
            }
        });
        assert_eq!(*e.pin(), 2_000, "every publish built on the latest generation");
        assert_eq!(e.generation(), 2_000);
    }
}
