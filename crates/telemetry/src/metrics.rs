//! The metric primitives: atomic counters, gauges, and log2-bucketed
//! histograms with lock-free recording and deterministic, associative
//! merge.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s over the
//! atomic cells, so recording never takes a lock and handles can be
//! pre-bound at construction time and used from any thread. Snapshots are
//! plain data: merging two snapshots adds them bucket-by-bucket, which is
//! associative and commutative — per-shard (or per-work-unit) snapshots
//! can be folded in any grouping and produce identical results, the
//! property the determinism suite and the property tests pin down.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values with `floor(log2(v)) == i − 1`, i.e. `[2^(i−1), 2^i)`.
/// 64 magnitude buckets cover the full `u64` range.
pub const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not registered anywhere (snapshots won't see it).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed level that can move both ways.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A gauge not registered anywhere.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the level to `v` if it is higher than the current value
    /// (high-water marks like peak in-flight sessions).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in ns, sizes in
/// bytes). Recording is five relaxed atomic ops, no locks.
#[derive(Clone, Default)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl core::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram").field("count", &s.count).field("sum", &s.sum).finish()
    }
}

/// Bucket index for a sample.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// A histogram not registered anywhere.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.core;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current contents (exact once the
    /// recording threads are quiescent).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.core;
        let count = c.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| c.buckets[i].load(Ordering::Relaxed)),
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { c.min.load(Ordering::Relaxed) },
            max: c.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data image of a histogram; the unit of merging and rendering.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0, min: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self`. Bucket-wise addition: associative and
    /// commutative, so any merge tree over the same set of snapshots
    /// yields identical contents.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        // Sums wrap mod 2^64, exactly like the underlying `fetch_add`s —
        // merging snapshots equals recording the concatenated samples.
        self.min = match (self.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.wrapping_add(*o);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Quantile estimate, `q` in `[0, 1]`: walks the cumulative bucket
    /// counts to the target rank and returns the midpoint of the bucket it
    /// lands in, clamped to the observed `[min, max]`. Deterministic
    /// integer arithmetic; within a factor of 2 of the true value by
    /// construction of the buckets.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let lo = bucket_lower(i);
                let hi = bucket_upper(i);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::detached();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::detached();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.set_max(5);
        assert_eq!(g.get(), 7, "set_max never lowers");
        g.set_max(40);
        assert_eq!(g.get(), 40);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "lower bound lands in its bucket");
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound lands in its bucket");
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::detached();
        for v in [0, 1, 1, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1105);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1, "one zero");
        assert_eq!(s.buckets[1], 2, "two ones");
        assert_eq!(s.buckets[2], 1, "one three");
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        assert!(p50 <= p99, "{p50} vs {p99}");
        assert!(p50 >= s.min && p99 <= s.max);
        // log2 buckets: within a factor of 2 of the true medians.
        assert!((250..=1000).contains(&p50), "{p50}");
        assert!((500..=1000).contains(&p99), "{p99}");
    }

    #[test]
    fn empty_snapshot_is_inert() {
        let s = HistogramSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0);
        let mut m = s.clone();
        m.merge(&s);
        assert_eq!(m, s);
    }
}
