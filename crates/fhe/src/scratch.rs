//! Pooled scratch memory for RNS polynomial rows.
//!
//! Every hot-path [`crate::RnsPoly`](crate::ring::RnsPoly) and every
//! BEHZ temporary is a *bundle* of `u64` rows — `rows` vectors of
//! `row_len` coefficients each. This module recycles those bundles so
//! a warm transcipher or ciphertext-multiply pass performs **zero**
//! heap allocations in the kernels: `RnsPoly::drop` returns its rows
//! here, and the pooled constructors (`zero`, `Clone`, the BEHZ row
//! temporaries) take them back.
//!
//! # Structure
//!
//! Two levels, keyed by `(rows, row_len)` — i.e. `(prime_count,
//! degree)` for polynomial bundles:
//!
//! - a **thread-local** pool (lock-free fast path) serving takes and
//!   puts on the owning thread;
//! - a **global overflow bin** (one `Mutex`) that receives local
//!   excess and serves local misses, so bundles allocated on a worker
//!   of the circuit's or the service's fan-out but dropped on the
//!   dispatching thread (or vice versa) still recirculate instead of
//!   being reallocated each pass.
//!
//! Both levels are bounded ([`LOCAL_CAP_U64S`] per thread,
//! [`GLOBAL_CAP_U64S`] shared); over-cap local buckets spill to the
//! global bin in least-recently-used order (a monotonic per-thread
//! tick — never wall-clock, which the determinism audit bans), and the
//! global bin frees over-cap bundles outright. Each local bucket also
//! holds at most [`LOCAL_BUCKET_CAP`] bundles of one key: any excess
//! goes straight to the global bin, so a producer/consumer thread pair
//! (pool workers allocating output rows that the dispatching thread
//! drops) recirculates within a few passes instead of the consumer
//! hoarding bundles up to its byte cap while the producers reallocate.
//!
//! # Determinism and accounting
//!
//! Pooling is invisible to the math: a recycled buffer is either
//! zeroed (`take_rows_zeroed`) or fully overwritten by its taker
//! before any read, so values never depend on pool state. What *is*
//! observable is the allocation count: mirroring
//! [`ubig_alloc_count`](crate::bigint::ubig_alloc_count), debug builds
//! count every freshly allocated coefficient row in a thread-local
//! [`poly_alloc_count`], and the warm-path tests in `fhe`/`hhe` assert
//! it stays flat across a warm pass. Release builds keep only the
//! cheap global [`stats`] counters (hits/misses/evictions), which the
//! wall-clock benchmark (`perfbench`) reports as its scratch miss ratio.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-thread pooled-capacity bound, in `u64` coefficients (16 MiB).
pub const LOCAL_CAP_U64S: usize = 2 << 20;

/// Global overflow-bin bound, in `u64` coefficients (128 MiB).
pub const GLOBAL_CAP_U64S: usize = 16 << 20;

/// Per-key depth bound of a thread-local bucket, in bundles. Sized to
/// the single-threaded working set (take/put pairs rarely leave more
/// than a couple of same-key bundles parked); beyond it, puts spill to
/// the global bin so other threads can take them.
pub const LOCAL_BUCKET_CAP: usize = 4;

/// A recyclable row bundle: `rows` vectors of identical length.
type Bundle = Vec<Vec<u64>>;

struct Bucket {
    rows: usize,
    row_len: usize,
    bundles: Vec<Bundle>,
    /// Monotonic per-thread tick of the last take/put; LRU spill key.
    last_used: u64,
}

struct LocalPool {
    buckets: Vec<Bucket>,
    held_u64s: usize,
    tick: u64,
}

struct GlobalPool {
    buckets: Vec<((usize, usize), Vec<Bundle>)>,
    held_u64s: usize,
}

thread_local! {
    static LOCAL: RefCell<LocalPool> = const {
        RefCell::new(LocalPool { buckets: Vec::new(), held_u64s: 0, tick: 0 })
    };
}

static GLOBAL: Mutex<GlobalPool> = Mutex::new(GlobalPool {
    buckets: Vec::new(),
    held_u64s: 0,
});

static TAKES: AtomicU64 = AtomicU64::new(0);
static LOCAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTED_BUNDLES: AtomicU64 = AtomicU64::new(0);

#[cfg(debug_assertions)]
thread_local! {
    static POLY_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of coefficient rows (`Vec<u64>` limb vectors) freshly
/// allocated on this thread — i.e. pool misses, in rows. Debug-only
/// mirror of [`crate::bigint::ubig_alloc_count`]: always 0 in release
/// builds. A warm hot-path pass must leave this unchanged.
#[must_use]
pub fn poly_alloc_count() -> u64 {
    #[cfg(debug_assertions)]
    {
        POLY_ALLOCS.with(std::cell::Cell::get)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

#[cfg(debug_assertions)]
fn count_fresh_rows(rows: usize) {
    POLY_ALLOCS.with(|c| c.set(c.get() + rows as u64));
}

#[cfg(not(debug_assertions))]
fn count_fresh_rows(_rows: usize) {}

/// Point-in-time counters for the scratch pool (process-global).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ScratchStats {
    /// Bundle requests served (any path).
    pub takes: u64,
    /// Requests served from the caller's thread-local pool.
    pub local_hits: u64,
    /// Requests served from the global overflow bin.
    pub global_hits: u64,
    /// Requests that allocated fresh rows; 0 in steady state, once
    /// every working buffer recirculates.
    pub misses: u64,
    /// Bundles freed because a pool exceeded its capacity bound.
    pub evicted_bundles: u64,
}

/// Snapshots the scratch-pool counters.
#[must_use]
pub fn stats() -> ScratchStats {
    ScratchStats {
        takes: TAKES.load(Ordering::Relaxed),
        local_hits: LOCAL_HITS.load(Ordering::Relaxed),
        global_hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evicted_bundles: EVICTED_BUNDLES.load(Ordering::Relaxed),
    }
}

fn lock_global() -> std::sync::MutexGuard<'static, GlobalPool> {
    match GLOBAL.lock() {
        Ok(guard) => guard,
        // The critical sections below are pure Vec plumbing over plain
        // data; a poisoning panic cannot corrupt them.
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn take_global(rows: usize, row_len: usize) -> Option<Bundle> {
    let mut global = lock_global();
    let bucket = global
        .buckets
        .iter_mut()
        .find(|(key, _)| *key == (rows, row_len))?;
    let bundle = bucket.1.pop()?;
    global.held_u64s = global.held_u64s.saturating_sub(rows * row_len);
    Some(bundle)
}

/// Moves a batch of same-key bundles into the global bin, freeing any
/// overflow beyond [`GLOBAL_CAP_U64S`].
fn put_global(rows: usize, row_len: usize, mut bundles: Vec<Bundle>) {
    let each = rows * row_len;
    let mut global = lock_global();
    while !bundles.is_empty() && global.held_u64s + each > GLOBAL_CAP_U64S {
        bundles.pop();
        EVICTED_BUNDLES.fetch_add(1, Ordering::Relaxed);
    }
    if bundles.is_empty() {
        return;
    }
    global.held_u64s += each * bundles.len();
    if let Some(bucket) = global
        .buckets
        .iter_mut()
        .find(|(key, _)| *key == (rows, row_len))
    {
        bucket.1.append(&mut bundles);
    } else {
        global.buckets.push(((rows, row_len), bundles));
    }
}

fn fresh_bundle(rows: usize, row_len: usize) -> Bundle {
    MISSES.fetch_add(1, Ordering::Relaxed);
    count_fresh_rows(rows);
    (0..rows).map(|_| vec![0u64; row_len]).collect()
}

/// Takes a `rows × row_len` bundle from the pool. Row *contents are
/// unspecified* (recycled values or zeros); the caller must fully
/// overwrite every row before reading, or use [`take_rows_zeroed`].
pub(crate) fn take_rows(rows: usize, row_len: usize) -> Bundle {
    TAKES.fetch_add(1, Ordering::Relaxed);
    if rows == 0 || row_len == 0 {
        return (0..rows).map(|_| Vec::new()).collect();
    }
    let local = LOCAL.try_with(|local| {
        let mut pool = local.borrow_mut();
        pool.tick += 1;
        let tick = pool.tick;
        let bucket = pool
            .buckets
            .iter_mut()
            .find(|b| b.rows == rows && b.row_len == row_len)?;
        bucket.last_used = tick;
        let bundle = bucket.bundles.pop()?;
        pool.held_u64s = pool.held_u64s.saturating_sub(rows * row_len);
        Some(bundle)
    });
    match local {
        Ok(Some(bundle)) => {
            LOCAL_HITS.fetch_add(1, Ordering::Relaxed);
            bundle
        }
        // Local miss (or thread-local storage already torn down): try
        // the global bin, then allocate.
        Ok(None) | Err(_) => match take_global(rows, row_len) {
            Some(bundle) => {
                GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
                bundle
            }
            None => fresh_bundle(rows, row_len),
        },
    }
}

/// [`take_rows`] with every row zeroed.
pub(crate) fn take_rows_zeroed(rows: usize, row_len: usize) -> Bundle {
    let mut bundle = take_rows(rows, row_len);
    for row in &mut bundle {
        row.fill(0);
    }
    bundle
}

/// Returns a bundle to the pool. Accepts any uniform bundle (all rows
/// the same length); ragged or empty bundles are simply freed.
pub(crate) fn put_rows(bundle: Bundle) {
    let rows = bundle.len();
    let Some(row_len) = bundle.first().map(Vec::len) else {
        return;
    };
    if row_len == 0 || bundle.iter().any(|row| row.len() != row_len) {
        return;
    }
    let outcome = LOCAL.try_with(|local| {
        let mut pool = local.borrow_mut();
        pool.tick += 1;
        let tick = pool.tick;
        let mut spill = Vec::new();
        if let Some(bucket) = pool
            .buckets
            .iter_mut()
            .find(|b| b.rows == rows && b.row_len == row_len)
        {
            bucket.last_used = tick;
            bucket.bundles.push(bundle);
            // Per-key depth bound: excess goes to the global bin so a
            // thread that only ever *drops* this shape (while another
            // thread takes it) cannot hoard up to its byte cap.
            if bucket.bundles.len() > LOCAL_BUCKET_CAP {
                spill = bucket.bundles.split_off(LOCAL_BUCKET_CAP);
            }
        } else {
            pool.buckets.push(Bucket {
                rows,
                row_len,
                bundles: vec![bundle],
                last_used: tick,
            });
        }
        pool.held_u64s += rows * row_len;
        pool.held_u64s = pool.held_u64s.saturating_sub(rows * row_len * spill.len());
        if pool.held_u64s > LOCAL_CAP_U64S {
            spill_lru(&mut pool);
        }
        spill
    });
    match outcome {
        // The global put happens outside the thread-local borrow, so
        // the common (under-cap) put never touches the mutex.
        Ok(spill) if !spill.is_empty() => put_global(rows, row_len, spill),
        // Thread-local storage torn down (thread exit): let the bundle
        // drop; nothing on this thread will take it again anyway.
        _ => {}
    }
}

/// Spills least-recently-used local buckets to the global bin until
/// this thread is back under [`LOCAL_CAP_U64S`].
fn spill_lru(pool: &mut LocalPool) {
    while pool.held_u64s > LOCAL_CAP_U64S {
        let Some(lru) = pool
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.bundles.is_empty())
            .min_by_key(|(_, b)| b.last_used)
            .map(|(i, _)| i)
        else {
            return;
        };
        let bucket = &mut pool.buckets[lru];
        let freed = bucket.rows * bucket.row_len * bucket.bundles.len();
        let spilled = std::mem::take(&mut bucket.bundles);
        let (rows, row_len) = (bucket.rows, bucket.row_len);
        pool.held_u64s = pool.held_u64s.saturating_sub(freed);
        put_global(rows, row_len, spilled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_bundles_by_key() {
        if !cfg!(debug_assertions) {
            // The observable is the debug-only thread-local counter;
            // release builds have nothing to assert.
            return;
        }
        // (3, 97) is unique to this test, so neither this thread's pool
        // nor the global bin can hold bundles for it beforehand, and
        // the thread-local counter is immune to concurrent tests.
        let (rows, row_len) = (3, 97);
        let base = poly_alloc_count();
        let a = take_rows(rows, row_len);
        let b = take_rows(rows, row_len);
        assert_eq!(poly_alloc_count(), base + 6, "cold takes allocate");
        assert_eq!(a.len(), rows);
        assert!(a.iter().all(|row| row.len() == row_len));
        put_rows(a);
        put_rows(b);
        let a = take_rows(rows, row_len);
        let b = take_rows(rows, row_len);
        assert_eq!(poly_alloc_count(), base + 6, "warm takes must not allocate");
        put_rows(a);
        put_rows(b);
    }

    #[test]
    fn over_cap_bundles_spill_to_global_and_still_recycle() {
        if !cfg!(debug_assertions) {
            return;
        }
        // (7, 53) is unique to this test. Park more bundles than one
        // local bucket may hold; the excess lands in the global bin and
        // must still serve warm takes without a fresh allocation.
        let (rows, row_len) = (7, 53);
        let n = LOCAL_BUCKET_CAP + 3;
        let bundles: Vec<Bundle> = (0..n).map(|_| take_rows(rows, row_len)).collect();
        let base = poly_alloc_count();
        for b in bundles {
            put_rows(b);
        }
        let bundles: Vec<Bundle> = (0..n).map(|_| take_rows(rows, row_len)).collect();
        assert_eq!(
            poly_alloc_count(),
            base,
            "takes beyond the local depth cap must hit the global bin"
        );
        for b in bundles {
            put_rows(b);
        }
    }

    #[test]
    fn zeroed_take_really_zeroes() {
        let mut bundle = take_rows(2, 64);
        for row in &mut bundle {
            row.fill(0xdead_beef);
        }
        put_rows(bundle);
        let bundle = take_rows_zeroed(2, 64);
        assert!(bundle.iter().all(|row| row.iter().all(|&x| x == 0)));
        put_rows(bundle);
    }

    #[test]
    fn ragged_bundles_are_freed_not_pooled() {
        put_rows(vec![vec![1, 2, 3], vec![4]]);
        put_rows(Vec::new());
        put_rows(vec![Vec::new()]);
        // Nothing to assert beyond "no panic": ragged input must not
        // poison a bucket whose key it doesn't match.
    }

    #[test]
    fn debug_counter_tracks_fresh_rows_only() {
        if !cfg!(debug_assertions) {
            return;
        }
        // A distinctive key no other test uses: first take allocates...
        let before = poly_alloc_count();
        let bundle = take_rows(5, 41);
        assert_eq!(poly_alloc_count(), before + 5);
        // ...and the warm take does not.
        put_rows(bundle);
        let bundle = take_rows(5, 41);
        assert_eq!(poly_alloc_count(), before + 5);
        put_rows(bundle);
    }
}
