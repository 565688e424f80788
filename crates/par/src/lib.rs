//! Deterministic fixed-chunk thread parallelism.
//!
//! Everything the active-learning pipeline parallelizes — committee members,
//! forest trees, pool scores, feature rows — is an *independent* per-item
//! computation, so the only way parallelism could perturb results is through
//! work partitioning or merge order. This crate removes both degrees of
//! freedom:
//!
//! * **Chunk boundaries depend only on `(len, n_threads)`** — never on
//!   timing, work stealing, or scheduler interleaving (see [`chunks`]).
//! * **Results are merged in chunk order**, so [`Parallelism::map`] returns
//!   exactly what the sequential `items.iter().map(f).collect()` would.
//!
//! Combined with per-item RNG seeds pre-derived on the caller's single
//! thread, output is byte-identical for any thread count: `--threads 1`
//! and `--threads 8` produce the same `RunResult::deterministic_fingerprint`.
//!
//! The crate is intentionally zero-dependency and is the only place in the
//! workspace allowed to touch `std::thread` (alem-lint rule
//! `par-only-threads`), so the audit surface for "can threading change a
//! result?" is this one file.

#![forbid(unsafe_code)]

pub mod supervised;

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Mutex;

/// Thread-count policy for deterministic parallel execution.
///
/// `Parallelism` is a resolved, copyable thread count: `fixed(1)` (alias
/// [`Parallelism::sequential`]) runs every map inline on the caller's
/// thread — today's exact code path — while larger counts fan out over
/// scoped threads with deterministic chunking. The default is
/// [`Parallelism::auto`] (available cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

impl Parallelism {
    /// One worker per available core (as reported by the OS at call time).
    /// Falls back to 1 if the count cannot be determined.
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Parallelism { threads }
    }

    /// Exactly `n` workers; `0` is clamped to `1`.
    pub fn fixed(n: usize) -> Self {
        Parallelism { threads: n.max(1) }
    }

    /// Single-threaded: every map runs inline with no thread spawned.
    pub fn sequential() -> Self {
        Parallelism::fixed(1)
    }

    /// The configured worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when maps run inline on the caller's thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Number of chunks a slice of `len` items is split into — the value
    /// reported by the `par.chunks` metric.
    pub fn chunk_count(&self, len: usize) -> usize {
        chunks(len, self.threads).len()
    }

    /// Deterministic parallel map: applies `f` to every item and returns
    /// the results in item order, regardless of thread count.
    ///
    /// Chunk boundaries come from [`chunks`]`(items.len(), self.threads())`
    /// and chunk results are concatenated in chunk order, so the output is
    /// identical to `items.iter().map(f).collect()`. With one thread (or
    /// fewer than two items) no thread is spawned at all.
    ///
    /// A panic in `f` is propagated to the caller after all workers join.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.map_chunks(items, |chunk| chunk.iter().map(&f).collect())
    }

    /// Deterministic parallel map over whole chunks: `f` receives each
    /// chunk of `items` (boundaries from [`chunks`]`(items.len(),
    /// self.threads())`) and returns one output per item of it; outputs
    /// are concatenated in chunk order. This lets `f` set up once per
    /// chunk and work on several items at a time. The result equals
    /// `f(items)` for any thread count as long as `f`'s output for an
    /// item does not depend on which other items share its chunk. With
    /// one thread (or fewer than two items) no thread is spawned.
    ///
    /// A panic in `f` is propagated to the caller after all workers join.
    pub fn map_chunks<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&[T]) -> Vec<U> + Sync,
    {
        let ranges = chunks(items.len(), self.threads);
        if ranges.len() <= 1 {
            return f(items);
        }
        let chunk_results: Vec<Vec<U>> = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|r| {
                    let f = &f;
                    // The ranges tile `0..items.len()`, so `get` always hits.
                    let slice = items.get(r.clone()).unwrap_or_default();
                    s.spawn(move || f(slice))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut out = Vec::with_capacity(items.len());
        for c in chunk_results {
            out.extend(c);
        }
        out
    }

    /// Run a batch of independent jobs on a dynamic work queue, returning
    /// results in job order.
    ///
    /// Unlike [`Parallelism::map`], jobs are claimed greedily by whichever
    /// worker is free, so wall-clock time tracks the *sum* of job costs
    /// divided by workers even when costs are wildly uneven (benchmark
    /// cells, dataset sweeps). Use this only when each job is internally
    /// deterministic: execution *order* is timing-dependent, but each
    /// result lands at its job's index, so the returned vector is not.
    ///
    /// A panic in a job is propagated to the caller after all workers join.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let workers = self.threads.min(jobs.len());
        if workers <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let n = jobs.len();
        let queue: Mutex<Vec<(usize, F)>> =
            Mutex::new(jobs.into_iter().enumerate().rev().collect());
        let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let queue = &queue;
                    let results = &results;
                    s.spawn(move || loop {
                        let job = match queue.lock() {
                            Ok(mut q) => q.pop(),
                            Err(_) => None, // another worker panicked; stop
                        };
                        let Some((idx, job)) = job else { break };
                        let out = job();
                        if let Ok(mut res) = results.lock() {
                            res[idx] = Some(out);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            }
        });
        let slots = results
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Every job ran (workers only stop on an empty queue) and panics were
        // re-raised above, so each slot is filled.
        slots.into_iter().flatten().collect()
    }
}

/// Fixed chunk boundaries for splitting `len` items across `n_threads`
/// workers: a pure function of `(len, n_threads)`.
///
/// At most `min(n_threads, len)` chunks are produced; sizes differ by at
/// most one, with the remainder spread over the *leading* chunks. An empty
/// input yields no chunks.
pub fn chunks(len: usize, n_threads: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let n = n_threads.clamp(1, len);
    let base = len / n;
    let rem = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_empty_input_yields_no_chunks() {
        assert!(chunks(0, 4).is_empty());
        assert_eq!(Parallelism::fixed(4).chunk_count(0), 0);
    }

    #[test]
    fn chunks_pool_smaller_than_threads_caps_at_len() {
        let c = chunks(3, 8);
        assert_eq!(c, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn chunks_len_not_divisible_spreads_remainder_over_leading_chunks() {
        let c = chunks(10, 4);
        assert_eq!(c, vec![0..3, 3..6, 6..8, 8..10]);
        // Contiguous cover of 0..len with sizes differing by at most one.
        for (a, b) in c.iter().zip(c.iter().skip(1)) {
            assert_eq!(a.end, b.start);
            assert!(a.len() >= b.len() && a.len() - b.len() <= 1);
        }
    }

    #[test]
    fn chunks_depend_only_on_len_and_threads() {
        assert_eq!(chunks(100, 7), chunks(100, 7));
        assert_eq!(chunks(1, 1), vec![0..1]);
        assert_eq!(chunks(5, 1), vec![0..5]);
    }

    #[test]
    fn map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for t in [1, 2, 3, 8, 64] {
            let got = Parallelism::fixed(t).map(&items, |x| x * x + 1);
            assert_eq!(got, expected, "threads={t}");
        }
    }

    #[test]
    fn map_chunks_sees_the_fixed_chunks_and_keeps_order() {
        let items: Vec<u64> = (0..10).collect();
        for t in [1, 2, 3, 4, 64] {
            let sizes = Parallelism::fixed(t).map_chunks(&items, |c| vec![c.len(); c.len()]);
            let want: Vec<usize> = chunks(10, t)
                .iter()
                .flat_map(|r| vec![r.len(); r.len()])
                .collect();
            assert_eq!(sizes, want, "threads={t}");
            let got =
                Parallelism::fixed(t).map_chunks(&items, |c| c.iter().map(|x| x * 3).collect());
            assert_eq!(
                got,
                items.iter().map(|x| x * 3).collect::<Vec<_>>(),
                "threads={t}"
            );
        }
    }

    #[test]
    fn map_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(Parallelism::fixed(8).map(&empty, |x| x + 1).is_empty());
        assert_eq!(Parallelism::fixed(8).map(&[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn run_preserves_job_order() {
        let jobs: Vec<_> = (0..20u64).map(|i| move || i * 10).collect();
        let got = Parallelism::fixed(4).run(jobs);
        assert_eq!(got, (0..20u64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn fixed_zero_clamps_to_one() {
        let p = Parallelism::fixed(0);
        assert_eq!(p.threads(), 1);
        assert!(p.is_sequential());
    }

    #[test]
    fn auto_is_at_least_one() {
        assert!(Parallelism::auto().threads() >= 1);
    }
}
