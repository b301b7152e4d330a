//! Partition-parallel execution on a persistent worker pool.
//!
//! The paper parallelizes the generalized SpMV by giving each thread matrix
//! partitions to process, using OpenMP dynamic scheduling so that threads that
//! finish light partitions steal the remaining heavy ones (§4.5, optimizations
//! 3 and 4). [`Executor::for_each_dynamic`] reproduces that: a shared atomic
//! counter hands out task (partition) indices to a fixed set of worker lanes
//! until the queue is exhausted. It is the executor's only dispatch entry;
//! ranges are split by [`chunks`] / [`phase_chunks`] and handed out as tasks.
//!
//! Unlike an OpenMP parallel region — and unlike the first version of this
//! module, which spawned and joined fresh OS threads on every call — the
//! [`Executor`] owns a **persistent pool** of parked worker threads:
//!
//! * the pool is created once (in [`Executor::new`]) and reused by every
//!   [`Executor::for_each_dynamic`] call, so a superstep costs a condvar wake
//!   instead of a `thread::spawn` + `join` round trip.
//!   This matters most exactly where the paper says it does (§5.2.1):
//!   algorithms like road-network SSSP run thousands of supersteps that each
//!   do microseconds of work;
//! * workers park on a condvar between calls and are shut down when the
//!   executor is dropped;
//! * the calling thread participates as lane 0, so `Executor::new(n)` still
//!   means *n* lanes of compute but only `n - 1` OS threads are spawned
//!   ([`Executor::threads_spawned`] exposes the count for tests);
//! * [`Executor::sequential`] (and any 1-thread executor) spawns no pool at
//!   all and runs everything inline on the caller — important both for
//!   determinism in tests and so the single-threaded baseline of the
//!   scalability experiment (Figure 5) pays no threading overhead.
//!
//! A dispatch (`broadcast`) hands the workers a lifetime-erased pointer to
//! the caller's closure; the caller always blocks until every lane has
//! finished before returning, which is what makes the erasure sound. Panics
//! in any lane are caught, the remaining lanes drain normally, and the first
//! payload is re-raised on the caller — the pool itself survives and stays
//! usable.
//!
//! Calls on one `Executor` are serialized: the pool runs one parallel region
//! at a time. Do **not** call back into the same executor from inside a task
//! closure — that would deadlock. Nested parallelism is not something
//! GraphMat's flat partition-parallel loops need.
//!
//! [`chunks`] is the shared range-splitting helper; it yields only non-empty
//! ranges. [`phase_chunks`] sits on top of it for the vertex phases of
//! `graphmat-core` (SEND, APPLY): it owns the inline-vs-parallel decision, so
//! a phase is one loop body run over however many chunks it is handed — a
//! single chunk runs inline on the caller. [`DisjointSlice`] is the write
//! handle those chunked loops share: each task carves out the sub-range its
//! chunk owns.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Lock a pool mutex, shrugging off poisoning. Task panics are captured by
/// `catch_unwind` inside the lanes and re-raised on the caller, so a
/// poisoned pool mutex only means a lane died between those nets; the
/// counters it guards are still consistent (every update is a single
/// assignment) and the dispatch protocol must keep draining or the caller
/// deadlocks.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// [`Condvar::wait`] with the same poisoning stance as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Process-wide count of worker threads ever spawned by [`Executor`] pools.
///
/// Tests use this to prove the engine never spawns threads inside the
/// superstep loop: the counter may only move when an executor is *created*.
pub fn threads_spawned_total() -> usize {
    SPAWN_COUNT.load(Ordering::Relaxed)
}

static SPAWN_COUNT: AtomicUsize = AtomicUsize::new(0);

/// A split of `0..len` into at most `max_chunks` contiguous, **non-empty**
/// ranges of (nearly) equal size.
///
/// `bounds(i)` for `i < count()` is guaranteed non-empty, so every scheduled
/// task has real work — callers never see the degenerate trailing chunks the
/// old `chunk_count`/`chunk_bounds` pair in the runner could produce.
#[derive(Clone, Copy, Debug)]
pub struct Chunks {
    len: usize,
    chunk: usize,
    count: usize,
}

/// Split `0..len` into at most `max_chunks` non-empty contiguous ranges.
pub fn chunks(len: usize, max_chunks: usize) -> Chunks {
    if len == 0 {
        return Chunks {
            len: 0,
            chunk: 1,
            count: 0,
        };
    }
    let max = max_chunks.max(1).min(len);
    let chunk = len.div_ceil(max);
    Chunks {
        len,
        chunk,
        count: len.div_ceil(chunk),
    }
}

impl Chunks {
    /// Number of non-empty chunks.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Half-open bounds `(start, end)` of chunk `i`; non-empty for `i < count()`.
    pub fn bounds(&self, i: usize) -> (usize, usize) {
        debug_assert!(
            i < self.count,
            "chunk index {i} out of range {}",
            self.count
        );
        let start = i * self.chunk;
        (start, (start + self.chunk).min(self.len))
    }
}

/// Phases with less work than this run as one chunk, inline on the caller:
/// waking the pool costs more than scanning a short list on one lane —
/// exactly the "small per-iteration overhead" property the paper credits for
/// GraphMat's SSSP advantage (§5.2.1).
pub const PARALLEL_PHASE_MIN_WORK: usize = 2048;

/// The chunking of a vertex phase that scans `len` units (bit-vector words)
/// holding `work` items (set bits): one chunk — which
/// [`Executor::for_each_dynamic`] runs inline — below
/// [`PARALLEL_PHASE_MIN_WORK`], otherwise several chunks per lane so a
/// frontier clustered in one id range does not serialize on a single lane.
/// This is the one place the inline-vs-parallel decision of SEND and APPLY
/// is made; the phases themselves have a single loop body.
pub fn phase_chunks(len: usize, work: usize, executor: &Executor) -> Chunks {
    let max_chunks = if work < PARALLEL_PHASE_MIN_WORK {
        1
    } else {
        executor.nthreads() * 4
    };
    chunks(len, max_chunks)
}

/// A mutable slice that the tasks of one parallel region carve into disjoint
/// sub-ranges — the write side of every chunked loop (the SEND writer's
/// value and validity-word ranges, APPLY's property and active-word ranges,
/// the baselines' per-vertex outputs). All writes through the carved ranges
/// are plain stores on ordinary `&mut [T]`s.
///
/// Under `--features shard-check` every element of a carved range is claimed
/// write-once, so overlapping ranges panic before they alias.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    #[cfg(feature = "shard-check")]
    claims: crate::shard_check::ClaimMap,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the handle only hands out sub-slices under `range`'s contract that
// no two live ranges overlap, so every element is reachable from at most one
// thread at a time; elements move between threads (`T: Send`); the exclusive
// borrow held in `_marker` keeps the slice alive and otherwise untouched for
// the handle's lifetime.
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wrap `slice` for one parallel region; `label` names it in
    /// shard-check diagnostics.
    pub fn new(slice: &'a mut [T], label: &'static str) -> Self {
        #[cfg(not(feature = "shard-check"))]
        let _ = label;
        DisjointSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(feature = "shard-check")]
            claims: crate::shard_check::ClaimMap::new(slice.len(), label),
            _marker: PhantomData,
        }
    }

    /// The sub-slice `start..end`.
    ///
    /// # Safety
    /// No other range carved from this handle may overlap `start..end` while
    /// either is alive — e.g. each task of a [`Chunks`] split carves only its
    /// own chunk's bounds.
    ///
    /// # Panics
    /// Panics if `start..end` is not within the slice.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range(&self, start: usize, end: usize) -> &mut [T] {
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} outside a slice of {}",
            self.len
        );
        // Claim before handing out the aliasable &mut, so overlapping chunk
        // bounds panic here instead of racing on the slice.
        #[cfg(feature = "shard-check")]
        for i in start..end {
            self.claims.claim_exclusive(i);
        }
        // In bounds by the assert above; exclusive by the caller's no-overlap
        // guarantee and the `&'a mut` borrow the handle holds.
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

/// A lifetime-erased pointer to the closure of the parallel region currently
/// being executed. Only ever dereferenced while the dispatching caller is
/// blocked in [`Executor::broadcast`], which keeps the borrow alive.
struct JobSlot(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared invocation is fine) and the pointer
// only crosses threads under the dispatch protocol described above.
unsafe impl Send for JobSlot {}

struct Control {
    /// Bumped once per dispatch; workers run each epoch's job exactly once.
    epoch: u64,
    job: Option<JobSlot>,
    /// Workers that have not yet finished the current epoch's job.
    remaining: usize,
    /// First panic payload captured from a worker lane this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    control: Mutex<Control>,
    /// Signalled when a new epoch (or shutdown) is published.
    work: Condvar,
    /// Signalled when the last worker finishes an epoch.
    done: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Serializes dispatches: one parallel region at a time per executor.
    caller: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(nworkers: usize) -> Self {
        let shared = Arc::new(Shared {
            control: Mutex::new(Control {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..nworkers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                SPAWN_COUNT.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("graphmat-worker-{}", i + 1))
                    .spawn(move || worker_loop(&shared, i + 1))
                    // audit:allow(no-unwrap): pool construction is setup-time;
                    // a machine that cannot spawn a thread has nothing to
                    // degrade to, and the panic carries the OS error.
                    .expect("failed to spawn executor worker thread")
            })
            .collect();
        Pool {
            shared,
            caller: Mutex::new(()),
            handles,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut c = lock(&self.shared.control);
            c.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut c = lock(&shared.control);
            loop {
                if c.shutdown {
                    return;
                }
                if c.epoch != seen_epoch {
                    seen_epoch = c.epoch;
                    // audit:allow(no-unwrap): dispatch protocol invariant — a
                    // bumped epoch always publishes a job first; a None here
                    // is a pool bug and continuing would deadlock the caller.
                    break c.job.as_ref().expect("job published with epoch").0;
                }
                c = wait(&shared.work, c);
            }
        };
        // SAFETY: the dispatching caller blocks until `remaining` reaches
        // zero, so the closure behind `job` outlives this call.
        let f = unsafe { &*job };
        // RECOVERY: the task closure may panic with its output buffers
        // half-written, but those buffers belong to the dispatching caller,
        // which sees the re-raised payload and unwinds too — nothing
        // half-written is ever observed. Catching here keeps the lane (and
        // the `remaining` handshake the caller is blocked on) alive: the
        // first payload is stashed, the count still reaches zero, and the
        // pool stays usable for the next dispatch.
        let result = catch_unwind(AssertUnwindSafe(|| f(lane)));
        let mut c = lock(&shared.control);
        if let Err(payload) = result {
            if c.panic.is_none() {
                c.panic = Some(payload);
            }
        }
        c.remaining -= 1;
        if c.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// A fixed-width parallel executor backed by a persistent worker pool.
///
/// `Executor::new(n)` provides `n` lanes of compute: `n - 1` parked pool
/// threads plus the calling thread. All scheduling entry points reuse the
/// same pool; nothing is spawned per call. The pool shuts down when the
/// executor is dropped.
pub struct Executor {
    nthreads: usize,
    pool: Option<Pool>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(available_threads())
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("nthreads", &self.nthreads)
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl Executor {
    /// Create an executor with `nthreads` lanes. For `nthreads > 1` this
    /// spawns the worker pool — create the executor once and reuse it; see
    /// `graphmat_core::session::Session`.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads == 0`. A zero thread count is a configuration
    /// bug; callers that support "0 = auto" must resolve it first (with
    /// [`available_threads`]) — clamping here as well would let the two
    /// places disagree about what zero meant.
    pub fn new(nthreads: usize) -> Self {
        assert!(
            nthreads >= 1,
            "Executor::new requires at least one lane (got 0); resolve \
             '0 = all threads' before constructing the executor"
        );
        let pool = (nthreads > 1).then(|| Pool::new(nthreads - 1));
        Executor { nthreads, pool }
    }

    /// Create a sequential executor (no pool; everything runs inline).
    pub fn sequential() -> Self {
        Executor {
            nthreads: 1,
            pool: None,
        }
    }

    /// Number of compute lanes.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Number of OS threads this executor spawned (always `nthreads - 1` for
    /// a pooled executor, 0 for a sequential one, and constant for the
    /// executor's whole lifetime — the superstep loop never spawns).
    pub fn threads_spawned(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.handles.len())
    }

    /// Run `f(lane)` once on every lane (workers 1..n plus the caller as
    /// lane 0) and return once all lanes have finished. Panics from any lane
    /// are re-raised here after every lane has stopped touching `f`.
    fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        let pool = self
            .pool
            .as_ref()
            // audit:allow(no-unwrap): internal invariant — every caller
            // checks `self.pool.is_none()` and runs inline before reaching
            // the broadcast path.
            .expect("broadcast requires a pooled executor");
        let _serial = lock(&pool.caller);
        // SAFETY of the lifetime erasure: this function does not return until
        // every worker has finished running `job` (remaining == 0), so the
        // borrow of `f` is live for as long as any worker can observe it.
        let job = JobSlot(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        {
            let mut c = lock(&pool.shared.control);
            c.epoch += 1;
            c.job = Some(job);
            c.remaining = pool.handles.len();
            pool.shared.work.notify_all();
        }
        // RECOVERY: lane 0 runs on the calling thread, and a panic here must
        // not skip the wait below — returning early while workers still hold
        // the lifetime-erased `job` pointer would be a use-after-free. The
        // catch holds the caller in place until `remaining` hits zero and the
        // job slot is cleared; only then is the payload re-raised.
        let caller_result = catch_unwind(AssertUnwindSafe(|| f(0)));
        let worker_panic = {
            let mut c = lock(&pool.shared.control);
            while c.remaining > 0 {
                c = wait(&pool.shared.done, c);
            }
            c.job = None;
            c.panic.take()
        };
        drop(_serial);
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Run `f(task)` for every task index in `0..ntasks`, dynamically
    /// scheduled across the executor's lanes: a shared counter hands out
    /// indices until the queue is exhausted. With one lane (or one task)
    /// everything runs inline on the caller's thread. Allocates nothing — it
    /// is the scheduling primitive of the allocation-free superstep hot path.
    pub fn for_each_dynamic<F>(&self, ntasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if ntasks == 0 {
            return;
        }
        if self.pool.is_none() || ntasks == 1 {
            for task in 0..ntasks {
                f(task);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        self.broadcast(&|_lane| loop {
            let task = next.fetch_add(1, Ordering::Relaxed);
            if task >= ntasks {
                break;
            }
            f(task);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Per-index hit counts of one `for_each_dynamic(ntasks)` dispatch.
    fn hits(ex: &Executor, ntasks: usize) -> Vec<u64> {
        let hits: Vec<AtomicU64> = (0..ntasks).map(|_| AtomicU64::new(0)).collect();
        ex.for_each_dynamic(ntasks, |task| {
            hits[task].fetch_add(1, Ordering::Relaxed);
        });
        hits.into_iter().map(AtomicU64::into_inner).collect()
    }

    #[test]
    fn sequential_runs_in_order() {
        let ex = Executor::sequential();
        let order = Mutex::new(Vec::new());
        ex.for_each_dynamic(5, |i| lock(&order).push(i));
        assert_eq!(*lock(&order), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_task_index_runs_exactly_once() {
        // More tasks than lanes, more lanes than tasks, one task (inline).
        for (lanes, ntasks) in [(4, 1000), (16, 3), (4, 1)] {
            assert_eq!(hits(&Executor::new(lanes), ntasks), vec![1; ntasks]);
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        Executor::new(4).for_each_dynamic(0, |_| unreachable!());
    }

    #[test]
    fn disjoint_slice_chunks_cover_the_range_exactly_once() {
        let ex = Executor::new(3);
        let mut out = vec![0usize; 1000];
        let ch = chunks(out.len(), ex.nthreads());
        let slots = DisjointSlice::new(&mut out, "test slot");
        ex.for_each_dynamic(ch.count(), |c| {
            let (start, end) = ch.bounds(c);
            // SAFETY: each task carves only its own chunk's bounds.
            for (i, slot) in unsafe { slots.range(start, end) }.iter_mut().enumerate() {
                *slot += start + i + 1;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    #[should_panic(expected = "outside a slice of 4")]
    fn disjoint_slice_rejects_out_of_bounds_ranges() {
        let mut out = [0u8; 4];
        let slots = DisjointSlice::new(&mut out, "test slot");
        // SAFETY: a single range; the bounds assert fires before any access.
        let _ = unsafe { slots.range(2, 5) };
    }

    /// The detector's acceptance test for the chunk handle: two tasks carve
    /// ranges that share element 9, and shard-check must turn the second
    /// claim into a panic before the aliasing `&mut` exists.
    #[test]
    #[cfg(feature = "shard-check")]
    fn shard_check_catches_overlapping_chunk_ranges() {
        let mut out = [0u8; 16];
        let slots = DisjointSlice::new(&mut out, "test slot");
        // SAFETY: the first range is dropped before the second is carved, so
        // nothing aliases; the overlap is only in what was claimed.
        let _ = unsafe { slots.range(0, 10) };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: deliberately overlaps 9..10; the claim map panics
            // before the slice is formed.
            let _ = unsafe { slots.range(9, 16) };
        }));
        let msg = caught
            .err()
            .and_then(|p| p.downcast::<String>().ok())
            .unwrap_or_else(|| panic!("overlapping ranges must panic with a String"));
        assert!(msg.contains("shard-check"), "{msg}");
        assert!(msg.contains("test slot[9]"), "{msg}");
    }

    #[test]
    fn phase_chunks_run_small_phases_as_one_inline_chunk() {
        let ex = Executor::new(4);
        assert_eq!(
            phase_chunks(160, PARALLEL_PHASE_MIN_WORK - 1, &ex).count(),
            1
        );
        assert_eq!(phase_chunks(160, PARALLEL_PHASE_MIN_WORK, &ex).count(), 16);
        assert_eq!(phase_chunks(0, 0, &ex).count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_is_a_configuration_bug() {
        let _ = Executor::new(0);
    }

    #[test]
    fn default_uses_available_parallelism() {
        let ex = Executor::default();
        assert!(ex.nthreads() >= 1);
        assert_eq!(ex.nthreads(), available_threads());
    }

    #[test]
    fn pool_spawns_once_and_is_reused() {
        // Only the per-executor counter is asserted here: the process-global
        // `threads_spawned_total` moves whenever a concurrently running test
        // creates a pooled executor, so exact global assertions live in the
        // isolated integration binary `tests/pool_reuse.rs`.
        let ex = Executor::new(4);
        assert_eq!(ex.threads_spawned(), 3);
        // Many dispatches: no further spawns.
        for _ in 0..200 {
            ex.for_each_dynamic(8, |_| {});
        }
        assert_eq!(ex.threads_spawned(), 3);
    }

    #[test]
    fn pool_survives_task_panic() {
        let ex = Executor::new(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ex.for_each_dynamic(16, |t| {
                if t == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool is still alive and schedules correctly afterwards.
        assert_eq!(hits(&ex, 10), vec![1; 10]);
    }

    #[test]
    fn drop_shuts_the_pool_down() {
        let ex = Executor::new(3);
        ex.for_each_dynamic(4, |_| {});
        drop(ex); // joins the workers; nothing to assert beyond "no hang"
    }

    #[test]
    fn chunks_yield_only_nonempty_ranges() {
        // The regression the old runner chunk math had: len=9 split into up
        // to 8 chunks used to emit (8,9) followed by three empty chunks.
        let ch = chunks(9, 8);
        assert_eq!(ch.count(), 5);
        let collected: Vec<(usize, usize)> = (0..ch.count()).map(|i| ch.bounds(i)).collect();
        assert_eq!(collected, vec![(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]);
        assert!(collected.iter().all(|&(s, e)| e > s));
    }

    #[test]
    fn chunks_cover_range_contiguously() {
        for (len, max) in [(0, 4), (1, 4), (5, 1), (10, 3), (64, 64), (1000, 7)] {
            let ch = chunks(len, max);
            assert!(ch.count() <= max.max(1));
            let mut next = 0;
            for (s, e) in (0..ch.count()).map(|i| ch.bounds(i)) {
                assert_eq!(s, next, "len={len} max={max}");
                assert!(e > s, "empty chunk for len={len} max={max}");
                next = e;
            }
            assert_eq!(next, len);
        }
    }
}
