//! Lazily-initialized persistent worker pool behind the `parallel_*`
//! helpers.
//!
//! The pool is process-global and grows on demand: the first dispatch
//! that resolves `T` threads spawns `T` parked workers; later dispatches
//! reuse them (growing only when `PASTA_THREADS` resolves higher, up to
//! [`MAX_WORKERS`]). Each worker owns a one-task slot (`Mutex` +
//! `Condvar`) — there are no channels or work-stealing queues on the
//! dispatch path, so handing out `T` chunks costs `T` uncontended lock
//! acquisitions and wake-ups.
//!
//! # Determinism
//!
//! The pool never changes *what* is computed, only *where*: chunk
//! boundaries are fixed by the caller as a pure function of
//! `(len, resolved_threads)` before dispatch, and chunk `w` always
//! covers the same index range whether it runs on worker `w`, inline on
//! the dispatching thread (spawn failure), or serially (nested or
//! contended dispatch, below). Since every job closure is a pure
//! per-index function, outputs are bit-identical across all schedules.
//!
//! # Fallbacks (all run the identical chunks, serially, in order)
//!
//! - **Nested dispatch**: a dispatch issued *from a pool worker* runs
//!   inline — workers never wait on other workers, so the pool cannot
//!   deadlock no matter how deeply `parallel_map` calls nest.
//! - **Contended dispatch**: if another thread is mid-dispatch, the
//!   pool is busy with borrowed-lifetime work that must finish before
//!   its slots free up; rather than block, the caller runs inline.
//! - **Spawn failure / cap**: chunks without a resident worker run
//!   inline on the dispatching thread after the others are handed out.
//!
//! # Safety model
//!
//! Job closures borrow the caller's stack (slices, captured state), so
//! their references are *not* `'static`. The pool erases the lifetime
//! when placing a task in a worker slot, which is sound because
//! `dispatch` blocks on a completion latch until every chunk has
//! finished (or panicked) before returning — the borrowed frame
//! provably outlives every use. Worker panics are caught, the first
//! payload is stored, and `dispatch` re-raises it on the calling
//! thread after the latch clears, matching `std::thread::scope`
//! semantics.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Hard cap on resident pool workers; `PASTA_THREADS` values above it
/// are clamped by [`crate::threads`]. Oversubscription beyond physical
/// cores is allowed (and CI-tested) — this bound only prevents an
/// absurd env value from spawning unbounded OS threads.
pub const MAX_WORKERS: usize = 256;

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Locks a mutex, recovering the guard from a poisoned lock: every
/// critical section below is a few plain stores, so a poisoning panic
/// cannot leave the protected state inconsistent.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Per-dispatch completion latch, living on the dispatcher's stack.
struct Latch {
    /// Chunks still running; dispatch returns only once this hits 0.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by any chunk, re-raised by the
    /// dispatcher after completion.
    panic: Mutex<Option<PanicPayload>>,
}

impl Latch {
    fn new(chunks: usize) -> Self {
        Latch {
            remaining: Mutex::new(chunks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Records one finished chunk (and its panic payload, if any).
    fn complete(&self, panicked: Option<PanicPayload>) {
        if let Some(payload) = panicked {
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut remaining = lock(&self.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every chunk has completed.
    fn wait(&self) {
        let mut remaining = lock(&self.remaining);
        while *remaining > 0 {
            remaining = match self.done.wait(remaining) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    fn take_panic(&self) -> Option<PanicPayload> {
        lock(&self.panic).take()
    }
}

/// A unit of work parked in a worker's slot: "run chunk `chunk` of the
/// job behind `job`, then tick `latch`".
///
/// The `'static` lifetimes are a fiction — both references point into
/// the dispatching call's stack frame. See the module-level safety
/// model: [`dispatch`] waits on the latch before that frame unwinds.
struct Task {
    job: &'static (dyn Fn(usize) + Sync),
    latch: &'static Latch,
    chunk: usize,
}

/// One resident worker's mailbox: a single-task slot plus its wake-up.
struct WorkerSlot {
    task: Mutex<Option<Task>>,
    wake: Condvar,
}

struct Pool {
    /// Resident workers, guarded by the dispatch lock: holding it means
    /// exclusive use of every slot, so a dispatch never overwrites a
    /// task that another dispatch parked.
    workers: Mutex<Vec<Arc<WorkerSlot>>>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

// -- statistics --------------------------------------------------------

static DISPATCHES: AtomicU64 = AtomicU64::new(0);
static SPAWN_EVENTS: AtomicU64 = AtomicU64::new(0);
static GROWN_DISPATCHES: AtomicU64 = AtomicU64::new(0);
static NESTED_INLINE: AtomicU64 = AtomicU64::new(0);
static CONTENDED_INLINE: AtomicU64 = AtomicU64::new(0);
static RESIDENT: AtomicU64 = AtomicU64::new(0);

/// Point-in-time counters for the process-global worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct PoolStats {
    /// Parallel dispatches served by pool workers.
    pub dispatches: u64,
    /// Worker threads spawned over the pool's lifetime. In steady
    /// state this equals the resolved thread count: each worker is
    /// spawned once and then reused.
    pub spawn_events: u64,
    /// Dispatches that had to spawn at least one new worker (cold
    /// start or `PASTA_THREADS` growth); all others reused parked
    /// workers exclusively.
    pub grown_dispatches: u64,
    /// Dispatches issued from a pool worker, run serially inline.
    pub nested_inline: u64,
    /// Dispatches that found the pool busy and ran serially inline.
    pub contended_inline: u64,
    /// Worker threads currently resident (parked or running).
    pub resident_workers: u64,
}

impl PoolStats {
    /// Fraction of pool dispatches that reused parked workers without
    /// spawning anything — the steady-state figure of merit (1.0 after
    /// warm-up unless `PASTA_THREADS` grows mid-run).
    #[must_use]
    pub fn reuse_ratio(&self) -> f64 {
        if self.dispatches == 0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)] // counters ≪ 2^52
        {
            (self.dispatches - self.grown_dispatches) as f64 / self.dispatches as f64
        }
    }
}

/// Snapshots the pool counters.
#[must_use]
pub fn stats() -> PoolStats {
    PoolStats {
        dispatches: DISPATCHES.load(Ordering::Relaxed),
        spawn_events: SPAWN_EVENTS.load(Ordering::Relaxed),
        grown_dispatches: GROWN_DISPATCHES.load(Ordering::Relaxed),
        nested_inline: NESTED_INLINE.load(Ordering::Relaxed),
        contended_inline: CONTENDED_INLINE.load(Ordering::Relaxed),
        resident_workers: RESIDENT.load(Ordering::Relaxed),
    }
}

// -- workers -----------------------------------------------------------

thread_local! {
    /// Set once in every pool worker; used to detect nested dispatch.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn worker_main(slot: &WorkerSlot) {
    IS_POOL_WORKER.with(|flag| flag.set(true));
    loop {
        let task = {
            let mut parked = lock(&slot.task);
            loop {
                if let Some(task) = parked.take() {
                    break task;
                }
                parked = match slot.wake.wait(parked) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| (task.job)(task.chunk)));
        task.latch.complete(result.err());
    }
}

/// Tries to spawn one more parked worker; `Err` leaves the pool as-is
/// (the dispatcher then runs the orphan chunk inline).
fn spawn_worker() -> Result<Arc<WorkerSlot>, std::io::Error> {
    let slot = Arc::new(WorkerSlot {
        task: Mutex::new(None),
        wake: Condvar::new(),
    });
    let for_thread = Arc::clone(&slot);
    let builder = std::thread::Builder::new().name("pasta-par-worker".to_string());
    builder.spawn(move || worker_main(&for_thread))?;
    SPAWN_EVENTS.fetch_add(1, Ordering::Relaxed);
    RESIDENT.fetch_add(1, Ordering::Relaxed);
    Ok(slot)
}

/// Runs chunk `w` of `job` on the calling thread, feeding the latch
/// exactly like a pool worker would.
fn run_chunk_inline(job: &(dyn Fn(usize) + Sync), chunk: usize, latch: &Latch) {
    let result = catch_unwind(AssertUnwindSafe(|| job(chunk)));
    latch.complete(result.err());
}

/// Executes `job(0) … job(chunks - 1)`, fanning the chunks out across
/// pool workers. `chunks` must be ≥ 1; callers pass the resolved worker
/// count their chunking was computed against.
///
/// Falls back to running the chunks serially in order — same outputs,
/// see the module doc — when called from a pool worker, when another
/// dispatch holds the pool, or for any chunk without a resident worker.
///
/// Panics raised by `job` are re-raised here after all chunks settle.
pub(crate) fn dispatch(chunks: usize, job: &(dyn Fn(usize) + Sync)) {
    if chunks <= 1 {
        job(0);
        return;
    }
    if IS_POOL_WORKER.with(std::cell::Cell::get) {
        NESTED_INLINE.fetch_add(1, Ordering::Relaxed);
        for w in 0..chunks {
            job(w);
        }
        return;
    }
    let pool = POOL.get_or_init(|| Pool {
        workers: Mutex::new(Vec::new()),
    });
    let Ok(mut workers) = pool.workers.try_lock() else {
        CONTENDED_INLINE.fetch_add(1, Ordering::Relaxed);
        for w in 0..chunks {
            job(w);
        }
        return;
    };
    let want = chunks.min(MAX_WORKERS);
    let mut grew = false;
    while workers.len() < want {
        match spawn_worker() {
            Ok(slot) => {
                workers.push(slot);
                grew = true;
            }
            Err(_) => break,
        }
    }
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    if grew {
        GROWN_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    }

    let latch = Latch::new(chunks);
    // SAFETY: `Task` stores these references as `'static`, but they
    // only need to outlive the workers' use of them: `latch.wait()`
    // below does not return until every chunk has completed, and the
    // panic payload (if any) is consumed before this frame unwinds, so
    // no worker can observe `job` or `latch` after they are dead.
    let job_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
    // SAFETY: same argument as for `job_static` — the latch is read by
    // workers strictly before `latch.wait()` returns.
    let latch_static: &'static Latch = unsafe { std::mem::transmute(&latch) };

    let handed_out = chunks.min(workers.len());
    for (w, worker) in workers.iter().enumerate().take(handed_out) {
        let mut slot = lock(&worker.task);
        *slot = Some(Task {
            job: job_static,
            latch: latch_static,
            chunk: w,
        });
        drop(slot);
        worker.wake.notify_one();
    }
    // Chunks beyond the resident workers (spawn failure or MAX_WORKERS
    // cap) run here while the workers chew on theirs.
    for w in handed_out..chunks {
        run_chunk_inline(job, w, &latch);
    }
    latch.wait();
    drop(workers);
    if let Some(payload) = latch.take_panic() {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn dispatch_runs_every_chunk_exactly_once() {
        for chunks in [1usize, 2, 3, 8, 17] {
            let hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            dispatch(chunks, &|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            for (w, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "chunks={chunks} w={w}");
            }
        }
    }

    #[test]
    fn nested_dispatch_completes_inline() {
        let inner_hits = AtomicUsize::new(0);
        dispatch(4, &|_outer| {
            // From a pool worker this must run inline rather than
            // deadlock waiting for the (busy) pool.
            dispatch(4, &|_inner| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            dispatch(4, &|w| {
                assert!(w != 2, "chunk 2 panics on purpose");
            });
        }));
        assert!(result.is_err(), "chunk panic must reach the dispatcher");
        // The pool must still serve work after a contained panic.
        let hits = AtomicUsize::new(0);
        dispatch(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn workers_are_spawned_once_and_reused() {
        // Warm the pool past the widest dispatch any test in this
        // binary can issue, then check that further dispatches spawn
        // nothing (stats are process-global, so width-capping is what
        // makes this robust against concurrently-running tests).
        // 64 exceeds the widest dispatch any other test here can reach
        // (longest test slice is 53 items), even if the env-override
        // test momentarily sets a huge PASTA_THREADS.
        let width = crate::threads().clamp(64, MAX_WORKERS);
        dispatch(width, &|_| {});
        let before = stats();
        for _ in 0..10 {
            dispatch(width, &|_| {});
            dispatch(3, &|_| {});
        }
        let after = stats();
        assert_eq!(after.spawn_events, before.spawn_events);
        assert!(after.dispatches >= before.dispatches);
    }
}
