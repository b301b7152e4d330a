//! Pool-executor correctness. Final vertex properties must be invariant to
//! the thread count — and to another caller sharing the pool — for every
//! scatter direction and SpMV backend, on a skewed RMAT graph large enough to
//! trigger the parallel SEND and APPLY paths (well past
//! `PARALLEL_PHASE_MIN_WORK` active vertices). Below
//! that, the executor's handshake itself: callers contending for one pool
//! each get every task of every region run exactly once, and a panic in a
//! task that a *helping* caller ran belongs to the region's owner.

use graphmat_core::program::{EdgeDirection, GraphProgram, VertexId};
use graphmat_core::{ActivityPolicy, Backend, Session, Topology};
use graphmat_io::rmat::{self, RmatConfig};
use graphmat_io::rng::StdRng;
use graphmat_sparse::parallel::{DisjointSlice, Executor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

fn run(
    session: &Session,
    topo: &Arc<Topology<f32>>,
    direction: EdgeDirection,
    backend: Option<Backend>,
) -> Vec<u64> {
    let outcome = session
        .run(topo, Mixer { direction })
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
        let sequential = run(one_lane, one_lane_topo, direction, Some(Backend::Push));
        for backend in [Some(Backend::Push), Some(Backend::Pull), None] {
            for (session, topo) in &pools {
                let threads = session.nthreads();
                assert_eq!(
                    sequential,
                    run(session, topo, direction, backend),
                    "results diverged for {direction:?}/{backend:?} at {threads} threads"
                );
                // The same run from two callers sharing the session: each
                // finds the pool busy with the other's regions and helps.
                std::thread::scope(|scope| {
                    for caller in 0..2 {
                        let sequential = &sequential;
                        scope.spawn(move || {
                            assert_eq!(
                                *sequential,
                                run(session, topo, direction, backend),
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

#[test]
fn a_panic_in_a_task_a_helper_ran_is_raised_on_the_owner_of_the_region() {
    for lanes in [2, 3, 8] {
        let ex = Executor::new(lanes);
        let (region_open, helper_hit) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|scope| {
            let (ex, region_open, helper_hit) = (&ex, &region_open, &helper_hit);
            let helper = scope.spawn(move || {
                // Arrive while the owner's region is open and cannot finish:
                // the pool is busy, so this call first helps that region.
                while !region_open.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let mut slots = [0u32; 8];
                let own = {
                    let out = DisjointSlice::new(&mut slots, "helper slots");
                    catch_unwind(AssertUnwindSafe(|| {
                        ex.for_each_dynamic(8, |task| {
                            // SAFETY: each task carves only its own slot.
                            let slot = unsafe { out.range(task, task + 1) };
                            slot[0] += 1;
                        });
                    }))
                };
                (own.is_ok(), slots)
            });
            let helper_id = helper.thread().id();
            // More tasks than lanes: whoever joins finds one to take.
            let owned = catch_unwind(AssertUnwindSafe(|| {
                ex.for_each_dynamic(4 * lanes, |_| {
                    if std::thread::current().id() == helper_id {
                        helper_hit.store(true, Ordering::SeqCst);
                        panic!("boom on the helper's lane");
                    }
                    // Every pool lane holds its task (and the region open)
                    // until the helper has taken one.
                    region_open.store(true, Ordering::SeqCst);
                    while !helper_hit.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            }));
            let payload = owned.expect_err(&format!(
                "{lanes} lanes: the helper's panic must be re-raised on the owner"
            ));
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("boom on the helper's lane"),
                "{lanes} lanes"
            );
            let (helper_ok, helper_slots) = helper.join().unwrap();
            assert!(
                helper_ok,
                "{lanes} lanes: the payload must not surface on the helper"
            );
            assert_eq!(
                helper_slots, [1; 8],
                "{lanes} lanes: the helper's own region"
            );
        });
        // The pool survives.
        assert_eq!(
            seeded_regions(&ex, 9, 50, "after the panic"),
            seeded_regions(&Executor::sequential(), 9, 50, "sequential"),
            "{lanes} lanes"
        );
    }
}
