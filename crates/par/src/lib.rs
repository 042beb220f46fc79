//! Minimal parallel-for for the HHE circuit and the service, backed by
//! a persistent worker pool.
//!
//! The build environment is offline, so instead of `rayon` this crate
//! vendors the few hundred lines the workspace actually needs: chunked
//! parallel-for helpers that split a slice across pooled worker
//! threads and fall back to a plain serial loop when parallelism is
//! unavailable or not worth it.
//!
//! Thread count resolution (checked on **every** call, so tests can
//! toggle it):
//!
//! 1. `PASTA_THREADS` environment variable, if it parses as a positive
//!    integer (clamped to [`pool::MAX_WORKERS`]);
//! 2. otherwise [`std::thread::available_parallelism`];
//! 3. ≤ 1 (or fewer than 2 items) means serial execution — the pool is
//!    never touched, so the serial path stays zero-overhead.
//!
//! Worker threads are spawned **once** and parked between calls: the
//! first parallel dispatch populates a process-global pool
//! ([`pool`] module) and every later dispatch reuses it, handing each
//! worker its chunk through a per-worker task slot (no channels, no
//! work-stealing queues). `PASTA_THREADS` growing mid-run spawns the
//! missing workers; shrinking simply masks the surplus — parked workers
//! cost nothing. [`pool::stats`] exposes dispatch/spawn/reuse counters.
//! Per-item work in the ≳1µs range is the sweet spot, so callers fan
//! out over whole ciphertexts or blocks; the `pasta-fhe` kernels under
//! them run serially on whichever thread calls them.
//!
//! Determinism: chunk boundaries are a pure function of `len` and the
//! resolved thread count (`chunk_range` is closed-form — no per-call
//! allocation), every item is processed exactly once, and results are
//! written back into the item's own slot — so outputs are bit-identical
//! for any thread count and any schedule, including the pool's serial
//! fallbacks for nested or contended dispatch (`PASTA_THREADS=1` vs
//! `=4` is part of the test contract).

#![warn(missing_docs)]

use std::mem::MaybeUninit;

pub mod pool;

/// The environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "PASTA_THREADS";

/// Resolves the worker-thread count for this call: `PASTA_THREADS` if
/// set and valid, else the machine's available parallelism, else 1 —
/// clamped to [`pool::MAX_WORKERS`].
#[must_use]
pub fn threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(pool::MAX_WORKERS);
            }
        }
    }
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(pool::MAX_WORKERS)
}

/// The half-open index range of chunk `w` when `len` items are split
/// into `workers` contiguous near-equal chunks (first `len % workers`
/// chunks one longer). Closed-form — no allocation — and a pure
/// function of its arguments, which is what makes parallel output
/// bit-identical to serial: chunk boundaries cannot depend on
/// scheduling. `workers` must already be clamped to `1..=len`.
#[inline]
#[must_use]
fn chunk_range(len: usize, workers: usize, w: usize) -> (usize, usize) {
    debug_assert!(workers >= 1 && workers <= len.max(1) && w < workers);
    let base = len / workers;
    let extra = len % workers;
    let start = w * base + w.min(extra);
    let size = base + usize::from(w < extra);
    (start, start + size)
}

/// Resolved chunk/worker count for one call: 1 (serial) unless
/// parallelism is available and there are ≥ 2 items.
fn resolved_workers(len: usize) -> usize {
    if len < 2 {
        return 1;
    }
    threads().min(len)
}

/// Raw-pointer wrapper that lets pool workers write disjoint chunks of
/// one buffer. Safety is the caller's obligation: every chunk must
/// touch only its own `chunk_range`.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// whole `Send + Sync` wrapper, not the bare raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}
// SAFETY: `SendPtr` is only used to hand disjoint index ranges of one
// allocation to pool workers that all finish before the buffer's owner
// resumes; the wrapped pointer is never aliased across chunks.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: see the `Send` argument — shared access is range-disjoint.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Applies `f(index, &mut item)` to every item, splitting the slice
/// across pooled worker threads when more than one thread is
/// available. Serial fallback otherwise — same iteration order, same
/// results.
pub fn parallel_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = resolved_workers(items.len());
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let len = items.len();
    let base = SendPtr(items.as_mut_ptr());
    pool::dispatch(workers, &|w| {
        let (start, end) = chunk_range(len, workers, w);
        for i in start..end {
            // SAFETY: `chunk_range` partitions `0..len` into disjoint
            // ranges (tested below), chunk `w` runs exactly once, and
            // the pool's dispatch blocks until every chunk completes —
            // so each element is mutated by exactly one worker while
            // the caller's `&mut [T]` borrow is suspended.
            let item = unsafe { &mut *base.get().add(i) };
            f(i, item);
        }
    });
}

/// Maps `f(index, &item)` over the slice, preserving order in the
/// returned vector. Parallel across pooled worker threads when more
/// than one thread is available.
///
/// Workers write directly into the result vector's spare capacity, so
/// there is no per-item `Option` wrapper and no unwrap on collection.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolved_workers(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let len = items.len();
    let mut results: Vec<R> = Vec::with_capacity(len);
    let spare = SendPtr(results.spare_capacity_mut().as_mut_ptr());
    pool::dispatch(workers, &|w| {
        let (start, end) = chunk_range(len, workers, w);
        for (i, item) in items.iter().enumerate().take(end).skip(start) {
            // SAFETY: slot `i` belongs to exactly this chunk (disjoint
            // `chunk_range` partition) and lives in the vector's spare
            // capacity, which the caller cannot observe until dispatch
            // returns.
            let slot: &mut MaybeUninit<R> = unsafe { &mut *spare.get().add(i) };
            slot.write(f(i, item));
        }
    });
    // SAFETY: `chunk_range` partitions `0..len` into disjoint
    // contiguous ranges covering every index exactly once (tested), and
    // `pool::dispatch` returns only after every chunk ran — so all
    // `len` spare slots hold an initialized `R`. If a chunk panics,
    // dispatch re-raises it before this line runs and the vector keeps
    // its length of 0 — already-written slots leak but nothing is
    // dropped uninitialized.
    unsafe { results.set_len(len) };
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_exactly_once() {
        for len in [1usize, 2, 3, 7, 8, 100] {
            for workers in [1usize, 2, 3, 4, 16] {
                let workers = workers.min(len);
                let mut covered = vec![0u32; len];
                for w in 0..workers {
                    let (s, e) = chunk_range(len, workers, w);
                    for c in covered.iter_mut().take(e).skip(s) {
                        *c += 1;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "len={len} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn chunks_are_contiguous_and_ordered() {
        for len in [5usize, 64, 97] {
            for workers in [1usize, 2, 5, 13] {
                let workers = workers.min(len);
                let mut next = 0;
                for w in 0..workers {
                    let (s, e) = chunk_range(len, workers, w);
                    assert_eq!(s, next, "len={len} workers={workers} w={w}");
                    assert!(e >= s);
                    next = e;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn for_each_mut_matches_serial() {
        let serial: Vec<u64> = (0..37).map(|i| i * 3 + i).collect();
        let mut par: Vec<u64> = (0..37).collect();
        parallel_for_each_mut(&mut par, |i, x| *x = *x * 3 + i as u64);
        assert_eq!(serial, par);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..53).collect();
        let out = parallel_map(&items, |i, &x| x * 2 + i as u64);
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 2 + i as u64)
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn single_item_runs_serial() {
        let mut one = [41u64];
        parallel_for_each_mut(&mut one, |_, x| *x += 1);
        assert_eq!(one, [42]);
        assert_eq!(parallel_map(&[7u64], |_, &x| x + 1), vec![8]);
        let empty: Vec<u64> = Vec::new();
        assert_eq!(parallel_map(&empty, |_, &x: &u64| x), Vec::<u64>::new());
    }

    #[test]
    fn nested_parallel_map_matches_serial() {
        // Outer map items themselves call parallel_map — from a pool
        // worker the inner dispatch runs inline; outputs must match the
        // fully-serial evaluation regardless.
        let rows: Vec<u64> = (0..8).collect();
        let nested = parallel_map(&rows, |_, &r| {
            let cols: Vec<u64> = (0..16).collect();
            parallel_map(&cols, |_, &c| r * 100 + c)
        });
        let serial: Vec<Vec<u64>> = rows
            .iter()
            .map(|&r| (0..16).map(|c| r * 100 + c).collect())
            .collect();
        assert_eq!(nested, serial);
    }

    #[test]
    fn map_panic_propagates() {
        let items: Vec<u64> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            let _ = parallel_map(&items, |_, &x| {
                assert!(x != 17, "item 17 panics on purpose");
                x
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn env_override_is_read_per_call() {
        // `threads()` must re-read the variable on every call so the
        // determinism tests can toggle 1 vs 4 within one process. Other
        // tests in this binary do not read the variable concurrently.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(threads(), 3);
        std::env::set_var(THREADS_ENV, "1");
        assert_eq!(threads(), 1);
        std::env::set_var(THREADS_ENV, "not a number");
        let fallback = threads();
        assert!(fallback >= 1);
        std::env::set_var(THREADS_ENV, "99999");
        assert_eq!(threads(), pool::MAX_WORKERS);
        std::env::remove_var(THREADS_ENV);
    }
}
