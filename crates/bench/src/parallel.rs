//! Parallel driver for the experiment harness.
//!
//! Every figure reduces to "evaluate a pure function at indices `0..n` and
//! aggregate in index order". [`run_indexed`] fans those indices out to a
//! pool of scoped worker threads that claim the next unevaluated index
//! from one shared atomic counter, then merges the per-worker result
//! batches back into index order.
//!
//! ## Determinism
//!
//! The scheduler decides only *which thread* evaluates an index, never
//! *what* is evaluated: the closure receives the index alone, and results
//! are placed by index, so the output vector is byte-identical to the
//! serial loop at any thread count. Drivers that need randomness pre-draw
//! their jitter streams serially and hand the closure a slice (see
//! `fig9a`), keeping the draw order independent of scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Evaluates `f(i)` for `i in 0..n_items` on `n_threads` workers and
/// returns the results in index order.
///
/// `n_threads <= 1` runs the plain serial loop — the oracle the
/// determinism tests compare against.
pub fn run_indexed<T, F>(n_threads: usize, n_items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_threads <= 1 || n_items <= 1 {
        return (0..n_items).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    // Each worker accumulates (index, result) pairs privately and merges
    // them under one short lock at exit.
    let merged: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n_items));
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| {
                let mut batch: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_items {
                        break;
                    }
                    batch.push((i, f(i)));
                }
                merged.lock().unwrap_or_else(|e| e.into_inner()).extend(batch);
            });
        }
    });

    let mut pairs = merged.into_inner().unwrap_or_else(|e| e.into_inner());
    assert_eq!(pairs.len(), n_items, "every index delivered exactly once");
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, t)| t).collect()
}

/// Thread counts the determinism suite sweeps.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_serial_at_every_thread_count() {
        let f = |i: usize| i.wrapping_mul(0x9E37_79B9) ^ (i << 3);
        let serial: Vec<usize> = (0..257).map(f).collect();
        for threads in [0, 1, 2, 3, 4, 8, 16] {
            assert_eq!(run_indexed(threads, 257, f), serial, "threads = {threads}");
        }
    }

    #[test]
    fn evaluates_each_index_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_indexed(4, 1000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(4, 1, |i| i + 7), vec![7]);
        // More threads than items.
        assert_eq!(run_indexed(8, 3, |i| i), vec![0, 1, 2]);
    }
}
