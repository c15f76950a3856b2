//! The bounded worker pool.
//!
//! Replaces the seed implementation's thread-per-job spawning (which
//! created O(points × replications) OS threads) with a fixed set of
//! workers pulling job indices from a shared atomic counter — classic
//! self-scheduling work stealing without per-job allocation.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A bounded pool of scoped worker threads.
///
/// The pool holds no threads between calls: each [`WorkerPool::map_indexed`]
/// spawns at most `workers` scoped threads, which exit when the job
/// counter is exhausted. Output order is always job-index order, so the
/// result is bit-for-bit independent of the worker count and of
/// scheduling interleavings (provided the job function itself is a pure
/// function of its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: NonZeroUsize,
}

impl WorkerPool {
    /// A pool sized to the machine: `available_parallelism`, with a
    /// fallback of 4 when the parallelism cannot be queried.
    #[must_use]
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .unwrap_or_else(|_| NonZeroUsize::new(4).expect("4 is non-zero"));
        WorkerPool { workers }
    }

    /// A pool with an explicit worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        WorkerPool {
            workers: NonZeroUsize::new(workers.max(1)).expect("clamped to >= 1"),
        }
    }

    /// The number of worker threads this pool will use.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.get()
    }

    /// Runs `f(0..n)` across the workers and returns the outputs in index
    /// order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let threads = self.workers.get().min(n);
        if threads == 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let f = &f;
        let next = &next;
        let mut chunks: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= n {
                                return mine;
                            }
                            mine.push((idx, f(idx)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        });
        // Reassemble in index order regardless of which worker ran what.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for chunk in chunks.drain(..) {
            for (idx, value) in chunk {
                debug_assert!(slots[idx].is_none(), "job {idx} ran twice");
                slots[idx] = Some(value);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| slot.unwrap_or_else(|| panic!("job {idx} never ran")))
            .collect()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn output_order_is_index_order_for_any_worker_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * 3).collect();
        for workers in [1, 2, 3, 8, 64, 200] {
            let pool = WorkerPool::with_workers(workers);
            let got = pool.map_indexed(97, |i| i * 3);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let seen = Mutex::new(HashSet::new());
        let pool = WorkerPool::with_workers(7);
        let n = 500;
        pool.map_indexed(n, |i| {
            assert!(seen.lock().unwrap().insert(i), "job {i} ran twice");
        });
        assert_eq!(seen.lock().unwrap().len(), n);
    }

    #[test]
    fn thread_count_is_bounded() {
        // With 3 workers and 100 jobs, at most 3 jobs are in flight.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let pool = WorkerPool::with_workers(3);
        pool.map_indexed(100, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = WorkerPool::with_workers(4);
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn worker_count_clamps_to_one() {
        assert_eq!(WorkerPool::with_workers(0).workers(), 1);
        assert!(WorkerPool::new().workers() >= 1);
    }
}
