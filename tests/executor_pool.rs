//! Pool-executor correctness. Final vertex properties must be invariant to
//! the thread count — and to another caller sharing the pool — for every
//! scatter direction and SpMV backend, on a skewed RMAT graph large enough to
//! trigger the parallel SEND and APPLY paths (well past
//! `PARALLEL_PHASE_MIN_WORK` active vertices); a run whose every region finds
//! the pool busy runs inline and answers like a 1-lane session. Below that,
//! the executor's handshake itself: callers contending for one pool each get
//! every task of every region run exactly once, and a caller that finds the
//! pool busy runs its region on its own thread and keeps its own panic.

use graphmat_algorithms::pagerank::{pagerank_on, PageRankConfig, PageRankProgram, PageRankVertex};
use graphmat_core::program::{EdgeDirection, GraphProgram, VertexId};
use graphmat_core::{ActivityPolicy, Backend, Session, Topology};
use graphmat_io::rmat::{self, RmatConfig};
use graphmat_io::rng::StdRng;
use graphmat_sparse::parallel::{DisjointSlice, Executor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::ThreadId;

/// A direction-configurable program over integer state. `reduce` is
/// commutative and associative in `u64` (wrapping add), so any schedule must
/// produce bit-identical results.
struct Mixer {
    direction: EdgeDirection,
}

impl GraphProgram for Mixer {
    type VertexProp = u64;
    type Message = u64;
    type Reduced = u64;
    type Edge = f32;

    fn direction(&self) -> EdgeDirection {
        self.direction
    }

    fn send_message(&self, v: VertexId, prop: &u64) -> Option<u64> {
        // A few silent vertices keep the message vector properly sparse.
        if v % 17 == 3 {
            None
        } else {
            Some(prop.wrapping_mul(0x9e3779b97f4a7c15) ^ v as u64)
        }
    }

    fn process_message(&self, msg: &u64, _edge: &f32, dst_prop: &u64) -> u64 {
        msg.wrapping_add(*dst_prop).rotate_left(7)
    }

    fn reduce(&self, acc: &mut u64, value: u64) {
        *acc = acc.wrapping_add(value);
    }

    fn apply(&self, reduced: &u64, prop: &mut u64) {
        *prop = prop.wrapping_add(*reduced) | 1;
    }
}

fn run<P>(session: &Session, topo: &Topology<f32>, program: P, backend: Option<Backend>) -> Vec<u64>
where
    P: GraphProgram<VertexProp = u64, Edge = f32>,
{
    let outcome = session
        .run(topo, program)
        .init_with(&|v| v as u64 + 1)
        .activate_all()
        .backend(backend)
        .activity(ActivityPolicy::AlwaysAll)
        .max_iterations(4)
        .execute()
        .unwrap();
    assert_eq!(outcome.stats.iterations, 4);
    assert_eq!(outcome.stats.nthreads, session.nthreads());
    outcome.values
}

#[test]
fn thread_count_invariance_across_directions_and_backends() {
    // Scale 12 → 4096 vertices, comfortably above the work threshold that
    // gates the parallel SEND and APPLY paths.
    let el = rmat::generate(&RmatConfig::graph500(12).with_seed(42));
    let built = |threads: usize| {
        let session = Session::with_threads(threads).unwrap();
        // The same partitioning at every thread count, so only the schedule
        // varies.
        let topo = session.build_graph(&el).partitions(16).finish().unwrap();
        (session, topo)
    };
    let pools: Vec<_> = [1, 2, 4, 7].into_iter().map(built).collect();
    let (one_lane, one_lane_topo) = &pools[0];
    for direction in [EdgeDirection::Out, EdgeDirection::In, EdgeDirection::Both] {
        let sequential = run(
            one_lane,
            one_lane_topo,
            Mixer { direction },
            Some(Backend::Push),
        );
        for backend in [Some(Backend::Push), Some(Backend::Pull), None] {
            for (session, topo) in &pools {
                let threads = session.nthreads();
                assert_eq!(
                    sequential,
                    run(session, topo, Mixer { direction }, backend),
                    "results diverged for {direction:?}/{backend:?} at {threads} threads"
                );
                // The same run from two callers sharing the session: a
                // region that finds the pool busy with the other caller's
                // runs inline on its own caller.
                std::thread::scope(|scope| {
                    for caller in 0..2 {
                        let sequential = &sequential;
                        scope.spawn(move || {
                            assert_eq!(
                                *sequential,
                                run(session, topo, Mixer { direction }, backend),
                                "results diverged for {direction:?}/{backend:?} at \
                                 {threads} threads, caller {caller} of 2 sharing the session"
                            );
                        });
                    }
                });
            }
        }
    }
}

/// `regions` regions of 1–64 tasks drawn from `seed`, each task adding a
/// value drawn from the seed and its index into its own slot, each slot
/// checked after its region: a task that ran twice, not at all, or in a
/// region it does not belong to changes a slot. Returns a digest of every
/// slot of every region.
fn seeded_regions(ex: &Executor, seed: u64, regions: usize, who: &str) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slots = [0u64; 64];
    let mut digest = 0u64;
    for region in 0..regions {
        let ntasks = rng.gen_range(1..65usize);
        let salt = rng.next_u64() | 1;
        let value = |task: usize| salt.wrapping_mul(task as u64 + 1);
        slots.fill(0);
        let out = DisjointSlice::new(&mut slots[..ntasks], "region slots");
        ex.for_each_dynamic(ntasks, |task| {
            // SAFETY: each task carves only the slot of its own index.
            let slot = unsafe { out.range(task, task + 1) };
            slot[0] = slot[0].wrapping_add(value(task));
        });
        for (task, &got) in slots[..ntasks].iter().enumerate() {
            assert_eq!(
                got,
                value(task),
                "{who}, seed {seed}: task {task} of {ntasks} in region {region} did not run exactly once"
            );
            digest = digest.rotate_left(5) ^ got;
        }
        assert!(
            slots[ntasks..].iter().all(|&v| v == 0),
            "{who}, seed {seed}: region {region} of {ntasks} tasks ran a task index past its end"
        );
    }
    digest
}

#[test]
fn contending_callers_each_get_every_task_of_every_region_exactly_once() {
    const CALLERS: u64 = 4;
    const REGIONS: usize = 2000;
    let expected: Vec<u64> = (0..CALLERS)
        .map(|seed| seeded_regions(&Executor::sequential(), seed, REGIONS, "sequential"))
        .collect();
    for lanes in [2, 3, 8] {
        let ex = Executor::new(lanes);
        std::thread::scope(|scope| {
            for seed in 0..CALLERS {
                let (ex, expected) = (&ex, &expected);
                scope.spawn(move || {
                    let who = format!("caller {seed} of {CALLERS} on a {lanes}-lane executor");
                    assert_eq!(
                        seeded_regions(ex, seed, REGIONS, &who),
                        expected[seed as usize],
                        "{who}, seed {seed}: digest differs from a sequential executor's"
                    );
                });
            }
        });
        assert_eq!(ex.threads_spawned(), lanes - 1, "{lanes} lanes");
    }
}

/// Sets its flag when dropped, so a thread that fails an assertion still
/// releases the region the other thread is holding open for it.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn a_contending_caller_runs_its_region_inline_and_keeps_its_own_panic() {
    for lanes in [2, 3, 8] {
        let ex = Executor::new(lanes);
        let (region_open, contender_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let owner_tasks = 4 * lanes;
        let mut owner_slots = vec![0u32; owner_tasks];
        std::thread::scope(|scope| {
            let (ex, region_open, contender_done) = (&ex, &region_open, &contender_done);
            let contender = scope.spawn(move || {
                let _done = SetOnDrop(contender_done);
                // Arrive while the owner's region is open and cannot finish.
                while !region_open.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let me = std::thread::current().id();
                // 1 per task run on this thread, 100 per task run elsewhere.
                let mut slots = [0u32; 8];
                let own = {
                    let out = DisjointSlice::new(&mut slots, "contender slots");
                    catch_unwind(AssertUnwindSafe(|| {
                        ex.for_each_dynamic(8, |task| {
                            // SAFETY: each task carves only its own slot.
                            let slot = unsafe { out.range(task, task + 1) };
                            slot[0] += if std::thread::current().id() == me {
                                1
                            } else {
                                100
                            };
                            // One lane takes the tasks in order, so the
                            // panic comes after every task has run.
                            if task == 7 {
                                panic!("boom on the contender's lane");
                            }
                        });
                    }))
                };
                (own, slots)
            });
            let contender_id = contender.thread().id();
            let owned = {
                let out = DisjointSlice::new(&mut owner_slots, "owner slots");
                catch_unwind(AssertUnwindSafe(|| {
                    // More tasks than lanes: every lane holds one, and the
                    // region open, until the contender's region is over.
                    ex.for_each_dynamic(owner_tasks, |task| {
                        // SAFETY: each task carves only its own slot.
                        let slot = unsafe { out.range(task, task + 1) };
                        slot[0] += if std::thread::current().id() == contender_id {
                            100
                        } else {
                            1
                        };
                        region_open.store(true, Ordering::SeqCst);
                        while !contender_done.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    });
                }))
            };
            let (own, contender_slots) = contender.join().unwrap();
            let payload = own.expect_err(&format!(
                "{lanes} lanes: the contender's panic must reach the contender"
            ));
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("boom on the contender's lane"),
                "{lanes} lanes"
            );
            assert_eq!(
                contender_slots, [1; 8],
                "{lanes} lanes: every task of the contender's region, once, on its own thread"
            );
            assert!(
                owned.is_ok(),
                "{lanes} lanes: the contender's panic must not surface on the owner"
            );
        });
        assert_eq!(
            owner_slots,
            vec![1; owner_tasks],
            "{lanes} lanes: every task of the owner's region, once, off the contender's thread"
        );
        // The pool survives.
        assert_eq!(
            seeded_regions(&ex, 9, 50, "after the panic"),
            seeded_regions(&Executor::sequential(), 9, 50, "sequential"),
            "{lanes} lanes"
        );
    }
}

/// `P`, counting each SEND, PROCESS, REDUCE and APPLY callback that runs off
/// `thread`: a run whose every region found the pool busy runs all of them
/// on its own thread.
struct OnThread<'a, P> {
    inner: P,
    thread: ThreadId,
    strays: &'a AtomicUsize,
}

impl<P> OnThread<'_, P> {
    fn check(&self) {
        if std::thread::current().id() != self.thread {
            self.strays.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<P: GraphProgram> GraphProgram for OnThread<'_, P> {
    type VertexProp = P::VertexProp;
    type Message = P::Message;
    type Reduced = P::Reduced;
    type Edge = P::Edge;

    fn direction(&self) -> EdgeDirection {
        self.inner.direction()
    }

    fn send_message(&self, v: VertexId, prop: &P::VertexProp) -> Option<P::Message> {
        self.check();
        self.inner.send_message(v, prop)
    }

    fn process_message(
        &self,
        msg: &P::Message,
        edge: &P::Edge,
        dst_prop: &P::VertexProp,
    ) -> P::Reduced {
        self.check();
        self.inner.process_message(msg, edge, dst_prop)
    }

    fn reduce(&self, acc: &mut P::Reduced, value: P::Reduced) {
        self.check();
        self.inner.reduce(acc, value);
    }

    fn apply(&self, reduced: &P::Reduced, prop: &mut P::VertexProp) {
        self.check();
        self.inner.apply(reduced, prop);
    }
}

/// The deterministic form of the two-callers loop above: one caller holds a
/// region open on a 2-lane session for as long as the other runs, so every
/// region of the other's runs finds the pool busy. Those runs must run
/// inline and answer like a 1-lane session, bit for bit.
#[test]
fn runs_that_find_the_pool_busy_run_inline_and_answer_like_one_lane() {
    let el = rmat::generate(&RmatConfig::graph500(12).with_seed(42));
    let built = |threads: usize| {
        let session = Session::with_threads(threads).unwrap();
        let topo = session.build_graph(&el).partitions(16).finish().unwrap();
        (session, topo)
    };
    let ((one_lane, one_lane_topo), (session, topo)) = (built(1), built(2));
    let cases: Vec<(EdgeDirection, Option<Backend>)> =
        [EdgeDirection::Out, EdgeDirection::In, EdgeDirection::Both]
            .into_iter()
            .flat_map(|d| [Some(Backend::Push), Some(Backend::Pull), None].map(|b| (d, b)))
            .collect();
    let expected: Vec<Vec<u64>> = cases
        .iter()
        .map(|&(direction, backend)| run(&one_lane, &one_lane_topo, Mixer { direction }, backend))
        .collect();
    let pr = PageRankConfig {
        iterations: 10,
        ..Default::default()
    };
    let expected_ranks: Vec<u64> = pagerank_on(&one_lane, &one_lane_topo, &pr)
        .unwrap()
        .values
        .iter()
        .map(|rank| rank.to_bits())
        .collect();

    let (region_open, runs_done) = (AtomicBool::new(false), AtomicBool::new(false));
    let strays = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let _done = SetOnDrop(&runs_done);
            while !region_open.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let thread = std::thread::current().id();
            let on_thread = |inner| OnThread {
                inner,
                thread,
                strays: &strays,
            };
            let mixed: Vec<Vec<u64>> = cases
                .iter()
                .map(|&(direction, backend)| {
                    run(&session, &topo, on_thread(Mixer { direction }), backend)
                })
                .collect();
            let degrees = topo.out_degrees();
            let ranks: Vec<u64> = session
                .run(
                    &topo,
                    OnThread {
                        inner: PageRankProgram::<f32>::new(pr.random_surf),
                        thread,
                        strays: &strays,
                    },
                )
                .init_with(&|v| PageRankVertex {
                    rank: 1.0,
                    degree: degrees[v as usize],
                })
                .activate_all()
                .activity(ActivityPolicy::AlwaysAll)
                .max_iterations(pr.iterations)
                .execute()
                .unwrap()
                .values
                .iter()
                .map(|p| p.rank.to_bits())
                .collect();
            (mixed, ranks)
        });
        // Every lane holds one task, and the region open, until the runs
        // are over.
        session
            .executor()
            .for_each_dynamic(2 * session.nthreads(), |_| {
                region_open.store(true, Ordering::SeqCst);
                while !runs_done.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
        let (mixed, ranks) = runner.join().unwrap();
        for ((direction, backend), (got, want)) in cases.iter().zip(mixed.iter().zip(&expected)) {
            assert_eq!(
                got, want,
                "{direction:?}/{backend:?}: a run inline beside a busy pool diverged from 1 lane"
            );
        }
        assert_eq!(ranks, expected_ranks, "PageRank beside a busy pool");
    });
    assert_eq!(
        strays.into_inner(),
        0,
        "callbacks of a run that found the pool busy ran off its thread"
    );
}
