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
//! Unlike the first version of this module, which spawned and joined fresh OS
//! threads on every call, the [`Executor`] owns a **persistent pool** of
//! worker threads that — like an OpenMP runtime's — **spin before they
//! sleep**:
//!
//! * the pool is created once (in [`Executor::new`]) and reused by every
//!   [`Executor::for_each_dynamic`] call. After a region a worker polls for
//!   the next one for a bounded number of `spin_loop` iterations and only
//!   then parks, so inside a superstep loop a dispatch is one store the
//!   workers are already watching, not a futex wake. This matters most
//!   exactly where the paper says it does (§5.2.1): algorithms like
//!   road-network SSSP run thousands of supersteps that each do microseconds
//!   of work. One bound after its last region the pool is asleep: an idle
//!   server burns nothing;
//! * workers are shut down and joined when the executor is dropped;
//! * the calling thread participates as a lane, so `Executor::new(n)` still
//!   means *n* lanes of compute but only `n - 1` OS threads are spawned
//!   ([`Executor::threads_spawned`] exposes the count for tests);
//! * [`Executor::sequential`] (and any 1-thread executor) spawns no pool at
//!   all and runs everything inline on the caller — important both for
//!   determinism in tests and so the single-threaded baseline of the
//!   scalability experiment (Figure 5) pays no threading overhead.
//!
//! # The handshake: join, close, drain
//!
//! One word, `state = epoch << 1 | open`, is written only by the **owner** of
//! the current region (the caller holding the pool's `caller` lock). The
//! owner stores a lifetime-erased pointer to its closure in the job slot,
//! publishes `state = s` (open, new epoch), wakes workers only if some are
//! parked, and runs the closure itself. Every pool worker that saw `s` goes
//! through one `join`: `active += 1`; run the job **only if `state` still
//! equals `s`**; `active -= 1`. When the owner's own lane is done it
//! **closes** the state and then **drains**: it waits (spin, then park) for
//! `active == 0`, clears the slot, and re-raises the first panic any lane
//! caught. A worker that re-checks `state` after registering in `active`
//! either sees the region closed and never touches the closure, or is
//! counted and therefore waited for — so a worker that never showed up
//! (still asleep, or descheduled) costs the region nothing, and the closure
//! outlives every worker that can reach it, which is what makes the erasure
//! sound. Panics in any lane are caught, the remaining lanes drain normally,
//! and the first payload is re-raised on the owner — the pool itself
//! survives and stays usable.
//!
//! Both parks are a `SeqCst` store-then-load pair re-checked under the park
//! mutex (worker: `sleepers += 1` then read `state`, against the owner's
//! write `state` then read `sleepers`; owner: `owner_parked = true` then read
//! `active`, against a worker's `active -= 1` then read `owner_parked`), so
//! one side always sees the other: no lost wakeup.
//!
//! One region owns the pool at a time; **a contender runs its region
//! inline**. A caller that finds the `caller` lock taken (two requests of one
//! server sharing a `Session`) neither sleeps on it nor joins the open
//! region: it runs its own region on its own thread, as a 1-lane executor
//! would. A lone caller is never contended and keeps every lane. A task that
//! calls back into its own executor is a contender too: its inner region
//! runs inline on that task's lane.
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
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;

/// Lock a pool mutex, shrugging off poisoning. Task panics are captured by
/// `catch_unwind` inside the lanes and re-raised on the owner, so a poisoned
/// pool mutex only means a lane died between those nets; what the mutexes
/// guard (a parking spot, the stashed payload) is valid at every step, and
/// the handshake must keep draining or the owner deadlocks.
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

/// Phases with less work than this run as one chunk, inline on the caller —
/// the "small per-iteration overhead" the paper credits for GraphMat's SSSP
/// advantage (§5.2.1). A dispatch is about 0.6 µs of handshake
/// (`sparse.executor.dispatch_us`) while the pool's workers are spinning, but
/// a futex wake — some 40 µs before help arrives — once they have parked,
/// and a woken worker then spins out its bound on a core of its own. 2048
/// items at 5–20 ns each is about one such wake, so a phase below it never
/// wakes anyone. Measured alternative: 512, sized against the spinning
/// handshake alone, read 64.0 ms against 68.0 on `sssp_road` (10 of 10
/// alternating pairs) — but then the all-active phases of a 1024-vertex
/// graph dispatch, a server answering 0.2 ms requests wakes its pool once
/// per request, and the worker's spin after the request's last region keeps
/// the second core busy just when the kernel places the reply's wake-ups:
/// `serve_light` flipped between 4 700 and 6 250 requests/s within one run.
/// At 2048 that server never dispatches and answers at one rate.
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

/// `spin_loop` iterations a worker polls for the next region before it
/// parks, and the owner of a region polls for its stragglers before it
/// parks. It has to outlast the gap between two dispatches of one superstep
/// loop (tens of µs: an inline phase, the convergence check, the next SEND),
/// because what is being avoided is the futex wake itself — an IPI and, on a
/// virtualized host, a VM exit: this handshake with no spin measured the old
/// condvar's `sssp_road` time (97 ms). Swept on the 2-core host, `sssp_road`
/// `query_ms`: 2⁶ → 93 ms, 2¹¹ → 67 ms, 2¹⁴ → 66 ms. Counted, not timed, so
/// the kernel crate stays free of clocks; one bound after its last region a
/// worker is parked.
const SPIN_LIMIT: u32 = 1 << 11;

/// `Shared::state` once the pool is being dropped: workers return.
const SHUTDOWN: u64 = u64::MAX;

/// The closure of a parallel region, as its lanes call it.
type Job<'a> = &'a (dyn Fn() + Sync);

/// The handshake between the owner of a region and the pool's workers
/// (module docs: join, close, drain).
struct Shared {
    /// `epoch << 1 | open`, or [`SHUTDOWN`]. Written only by the thread
    /// holding `Pool::caller`, and by `Pool::drop`.
    state: AtomicU64,
    /// The open region's closure, lifetime-erased: a pointer to the owner's
    /// own reference to it (on the owner's stack), null between regions.
    job: AtomicPtr<Job<'static>>,
    /// Workers between the `+= 1` and the `-= 1` of [`join`].
    active: AtomicUsize,
    /// Workers parked on `work`, or committed to (see [`worker_loop`]).
    sleepers: AtomicUsize,
    /// Set while the owner is parked on `done` waiting for `active == 0`.
    owner_parked: AtomicBool,
    /// First panic payload caught by a worker in the current region.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Where workers sleep once their spin runs out.
    park: Mutex<()>,
    work: Condvar,
    /// Where the owner sleeps once its spin for stragglers runs out.
    drain: Mutex<()>,
    done: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Held by the owner of the current region. Contenders `try_lock` it and
    /// run their region inline instead of sleeping here.
    caller: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(nworkers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: AtomicU64::new(0),
            job: AtomicPtr::new(std::ptr::null_mut()),
            active: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            owner_parked: AtomicBool::new(false),
            panic: Mutex::new(None),
            park: Mutex::new(()),
            work: Condvar::new(),
            drain: Mutex::new(()),
            done: Condvar::new(),
        });
        let handles = (0..nworkers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                SPAWN_COUNT.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("graphmat-worker-{}", i + 1))
                    .spawn(move || worker_loop(&shared))
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
        // `&mut self`: no region is open and none can start, so this is the
        // only writer. Spinning workers see the store; parked ones are woken.
        self.shared.state.store(SHUTDOWN, Ordering::SeqCst);
        wake_workers(&self.shared);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Wake parked workers after a store to `state` — a no-op (one load) while
/// they are all still spinning, which is the case inside a superstep loop.
fn wake_workers(shared: &Shared) {
    // Pairs with the parking worker's `sleepers += 1` then `state` load:
    // both sides are store-then-load in `SeqCst`, so either this load sees
    // the sleeper (and the notify, taken under `park`, cannot fall between
    // its re-check and its wait) or the sleeper's re-check sees the store.
    if shared.sleepers.load(Ordering::SeqCst) > 0 {
        let _parked = lock(&shared.park);
        shared.work.notify_all();
    }
}

/// Run the job of region `s` as one more lane, unless the region has been
/// closed by the time this lane is registered in `active`. Only pool workers
/// come through here.
fn join(shared: &Shared, s: u64) {
    shared.active.fetch_add(1, Ordering::SeqCst);
    if shared.state.load(Ordering::SeqCst) == s {
        // SAFETY: `state == s` was read after this worker registered in
        // `active`. The read synchronizes with the owner's store of `s`,
        // which follows its store of the slot, so the slot points at region
        // `s`'s closure, through a reference on the owner's stack; and the
        // owner's close of `s` comes after that read in the `SeqCst` order,
        // so its drain sees this worker's registration and does not return —
        // ending that stack frame and the closure's borrow — until the
        // `active -= 1` below.
        let job: Job<'_> = unsafe { *shared.job.load(Ordering::Relaxed) };
        // RECOVERY: the task closure may panic with its output buffers
        // half-written, but those buffers belong to the region's owner,
        // which sees the re-raised payload and unwinds too — nothing
        // half-written is ever observed. Catching here keeps the pool
        // worker alive and the `active` count the owner drains on exact:
        // the first payload is stashed for the owner, the pool stays usable.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            lock(&shared.panic).get_or_insert(payload);
        }
    }
    // Pairs with the parking owner's `owner_parked = true` then `active`
    // load (both `SeqCst` store-then-load): either this lane sees the flag
    // and notifies under `drain`, or the owner's re-check sees the count.
    if shared.active.fetch_sub(1, Ordering::SeqCst) == 1
        && shared.owner_parked.load(Ordering::SeqCst)
    {
        let _parked = lock(&shared.drain);
        shared.done.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    // The last region this worker joined; epochs only grow, so an open
    // state different from it is a region not joined yet.
    let mut joined = 0u64;
    let mut spins = 0u32;
    loop {
        let s = shared.state.load(Ordering::SeqCst);
        if s == SHUTDOWN {
            return;
        }
        if s & 1 == 1 && s != joined {
            joined = s;
            join(shared, s);
            spins = 0;
        } else if spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        } else {
            let mut parked = lock(&shared.park);
            shared.sleepers.fetch_add(1, Ordering::SeqCst);
            // Re-checked after `sleepers += 1`, under the mutex the waker
            // notifies under (see `wake_workers`).
            while shared.state.load(Ordering::SeqCst) == s {
                parked = wait(&shared.work, parked);
            }
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            spins = 0;
        }
    }
}

/// A fixed-width parallel executor backed by a persistent worker pool.
///
/// `Executor::new(n)` provides `n` lanes of compute: `n - 1` pool threads
/// (spinning between the regions of a loop, parked otherwise) plus the
/// calling thread. All scheduling entry points reuse the same pool; nothing
/// is spawned per call. The pool shuts down when the executor is dropped.
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

    /// How many of the pool's workers are parked right now.
    #[cfg(test)]
    fn sleepers(&self) -> usize {
        self.pool
            .as_ref()
            .map_or(0, |p| p.shared.sleepers.load(Ordering::SeqCst))
    }

    /// Run `job` on this thread and on every pool worker that joins while it
    /// does, and return once all of them have left it. Panics from any lane
    /// are re-raised here after every lane has stopped touching `job`. While
    /// another caller owns the pool, `job` runs inline on this thread alone.
    fn broadcast(&self, job: Job<'_>) {
        let pool = self
            .pool
            .as_ref()
            // audit:allow(no-unwrap): internal invariant — every caller
            // checks `self.pool.is_none()` and runs inline before reaching
            // the broadcast path.
            .expect("broadcast requires a pooled executor");
        let shared = &*pool.shared;
        let owner = match pool.caller.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            // The pool is busy: run as a 1-lane executor would. The job's
            // shared task counter hands every task to this thread.
            Err(TryLockError::WouldBlock) => return job(),
        };
        // Only the owner writes `state`, so this read is of its own (or the
        // previous owner's, ordered by the lock) last store: closed.
        let open = ((shared.state.load(Ordering::Relaxed) >> 1) + 1) << 1 | 1;
        // The lifetime erasure, owner's side of the argument at `join`'s
        // `SAFETY`: every worker that can dereference the slot is counted in
        // `active` before the close below, and this function does not return
        // before the drain has read that count as zero — so `job` (this
        // frame's reference, and the closure it borrows) outlives them all.
        // A worker that registered is always waited for; one that never
        // showed up, never.
        shared.job.store(
            (&job as *const Job<'_>).cast_mut().cast::<Job<'static>>(),
            Ordering::Relaxed,
        );
        shared.state.store(open, Ordering::SeqCst);
        wake_workers(shared);
        // RECOVERY: a panic on the owner's own lane must not skip the close
        // and drain below — unwinding while other lanes still hold the
        // lifetime-erased pointer would be a use-after-free. The catch holds
        // the owner in place until the slot is cleared; only then is the
        // payload re-raised.
        let own_result = catch_unwind(AssertUnwindSafe(job));
        shared.state.store(open & !1, Ordering::SeqCst);
        let mut spins = 0;
        while shared.active.load(Ordering::SeqCst) != 0 {
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let mut parked = lock(&shared.drain);
            shared.owner_parked.store(true, Ordering::SeqCst);
            // Re-checked after the flag, under the mutex `join` notifies
            // under.
            while shared.active.load(Ordering::SeqCst) != 0 {
                parked = wait(&shared.done, parked);
            }
            shared.owner_parked.store(false, Ordering::SeqCst);
        }
        shared.job.store(std::ptr::null_mut(), Ordering::Relaxed);
        let lane_panic = lock(&shared.panic).take();
        drop(owner);
        if let Err(payload) = own_result {
            resume_unwind(payload);
        }
        if let Some(payload) = lane_panic {
            resume_unwind(payload);
        }
    }

    /// Run `f(task)` for every task index in `0..ntasks`, dynamically
    /// scheduled across the executor's lanes: a shared counter hands out
    /// indices until the queue is exhausted. With one lane, one task, or
    /// while another caller owns the pool, everything runs inline on the
    /// caller's thread. Allocates nothing — it
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
        self.broadcast(&|| loop {
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

    /// A task that dispatches on its own executor finds the pool owned (by
    /// its own region's owner) and runs the inner region inline on its lane.
    #[test]
    fn a_task_that_dispatches_on_its_own_executor_runs_the_inner_region_inline() {
        for lanes in [2, 3, 8] {
            let ex = Executor::new(lanes);
            let outer = 4 * lanes;
            let inner: Vec<AtomicU64> = (0..outer * 5).map(|_| AtomicU64::new(0)).collect();
            ex.for_each_dynamic(outer, |o| {
                let lane = std::thread::current().id();
                ex.for_each_dynamic(5, |i| {
                    assert_eq!(std::thread::current().id(), lane, "{lanes} lanes");
                    inner[o * 5 + i].fetch_add(1, Ordering::Relaxed);
                });
            });
            let inner: Vec<u64> = inner.into_iter().map(AtomicU64::into_inner).collect();
            assert_eq!(inner, vec![1; outer * 5], "{lanes} lanes");
            // The pool is untouched by the nesting.
            assert_eq!(hits(&ex, 64), vec![1; 64], "{lanes} lanes");
        }
    }

    /// Yield until every worker of `ex` has run out its spin and parked.
    fn wait_until_parked(ex: &Executor) {
        while ex.sleepers() != ex.threads_spawned() {
            std::thread::yield_now();
        }
    }

    /// The lost-wakeup case: a dispatch that finds every worker asleep must
    /// wake them (or finish without them) — and they go back to sleep after.
    #[test]
    fn a_dispatch_after_the_workers_parked_completes_and_they_park_again() {
        for lanes in [2, 3, 8] {
            let ex = Executor::new(lanes);
            for round in 0..20 {
                wait_until_parked(&ex);
                for ntasks in [2, 64] {
                    assert_eq!(
                        hits(&ex, ntasks),
                        vec![1; ntasks],
                        "{lanes} lanes, round {round}, {ntasks} tasks"
                    );
                }
            }
            wait_until_parked(&ex);
            assert_eq!(ex.sleepers(), lanes - 1, "{lanes} lanes");
        }
    }

    #[test]
    fn drop_joins_workers_that_are_spinning_parked_or_just_spawned() {
        for lanes in [2, 3, 8] {
            for round in 0..20 {
                let ex = Executor::new(lanes);
                match round % 3 {
                    // Dropped within the spin bound of the workers' start...
                    0 => {}
                    // ...of their last region...
                    1 => ex.for_each_dynamic(4, |_| {}),
                    // ...and after they parked.
                    _ => wait_until_parked(&ex),
                }
                drop(ex); // joins the workers: the assertion is "no hang"
            }
        }
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
