//! Direct proof of the allocation-budget claim: a warmed superstep loop and
//! a warmed server round perform **zero** heap allocation.
//!
//! The engine's design doc argues this indirectly through pool counters;
//! here the claim is enforced at the allocator
//! boundary. `graphmat_audit::alloc_track::CountingAllocator` is installed
//! as this binary's global allocator, and the steady-state regions are
//! measured with `AllocGuard` — any alloc / dealloc / realloc anywhere in
//! the process during the measured window fails the test.
//!
//! The counters are process-global, so this binary contains exactly one
//! `#[test]` (see the module docs of `alloc_track`). For the same reason a
//! window measured right after threads were spawned (a session's pool, a
//! store's compactor) waits first until they have started: a thread
//! allocates a copy of its name when it starts, whenever the host gets to
//! scheduling it ([`settle`]).
//!
//! Skipped under `--features shard-check`: the race detector deliberately
//! allocates shadow claim maps inside the instrumented regions, which is
//! exactly the overhead the default build must not pay — this test is the
//! proof that it doesn't.

#![cfg(not(feature = "shard-check"))]

use graphmat_algorithms::bfs::bfs_into;
use graphmat_algorithms::collaborative_filtering::{collaborative_filtering_on, CfConfig};
use graphmat_algorithms::degree::out_degrees_into;
use graphmat_algorithms::pagerank::{pagerank_into, PageRankConfig};
use graphmat_algorithms::sssp::sssp_into;
use graphmat_algorithms::triangle_count::{total_triangles, triangle_count_on};
use graphmat_audit::alloc_track::{AllocGuard, CountingAllocator};
use graphmat_core::program::{GraphProgram, VertexId};
use graphmat_core::Topology;
use graphmat_core::{
    ActivityPolicy, Backend, GraphStore, RunOptions, Session, SessionOptions, StoreOptions,
    VertexState,
};
use graphmat_delta::DeltaBatch;
use graphmat_io::bipartite::{self, BipartiteConfig};
use graphmat_io::edgelist::EdgeList;
use graphmat_io::grid::{self, GridConfig};
use graphmat_io::rmat::{self, RmatConfig};
use graphmat_io::rng::StdRng;
use graphmat_server::protocol::{Algorithm, RunRequest, Status};
use graphmat_server::service::{self, GraphService, WorkerStates};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Minimal PageRank-shaped program: every vertex broadcasts its rank each
/// superstep (`AlwaysAll`), so 100 iterations exercise SEND, SpMV and APPLY
/// on every superstep.
struct Rank;

impl GraphProgram for Rank {
    type VertexProp = f64;
    type Message = f64;
    type Reduced = f64;
    type Edge = f32;

    fn send_message(&self, _v: VertexId, rank: &f64) -> Option<f64> {
        Some(*rank)
    }

    fn process_message(&self, msg: &f64, _edge: &f32, _dst: &f64) -> f64 {
        *msg
    }

    fn reduce(&self, acc: &mut f64, value: f64) {
        *acc += value;
    }

    fn apply(&self, reduced: &f64, rank: &mut f64) {
        *rank = 0.15 + 0.85 * *reduced;
    }
}

/// Wait until nothing in the process has allocated for 20 ms (at most ~2 s):
/// threads spawned before a measured window have made their start-up
/// allocations by then.
fn settle() {
    for _ in 0..100 {
        let pause = || std::thread::sleep(std::time::Duration::from_millis(20));
        if !AllocGuard::measure(pause).1.any() {
            return;
        }
    }
}

#[test]
fn warmed_supersteps_and_server_rounds_allocate_nothing() {
    let el = rmat::generate(&RmatConfig::graph500(10).with_seed(7));
    let session = match Session::new(
        SessionOptions::default()
            .with_threads(4)
            // Superstep detail is the one per-iteration heap consumer the
            // options expose; the zero-alloc serving configuration turns
            // it off — `graphmat-serve` builds its session the same way.
            .with_run_defaults(RunOptions {
                record_supersteps: false,
                ..RunOptions::default()
            }),
    ) {
        Ok(s) => s,
        Err(e) => panic!("session: {e}"),
    };
    let topo = match session.build_graph(&el).finish() {
        Ok(t) => t,
        Err(e) => panic!("build: {e}"),
    };
    let out_only_bytes = topo.matrix_bytes();

    // ---- Part 1: 100 pooled supersteps through the engine front-end. ----
    let mut state: VertexState<f64> = VertexState::for_topology(&topo);
    let run = |state: &mut VertexState<f64>, backend: Option<Backend>| {
        session
            .run(&topo, Rank)
            .init_all(1.0)
            .activate_all()
            .activity(ActivityPolicy::AlwaysAll)
            .backend(backend)
            .max_iterations(100)
            .execute_with(state)
    };
    // Warm-up run allocates the cached workspace inside the state.
    match run(&mut state, None) {
        Ok(r) => assert_eq!(r.stats.iterations, 100),
        Err(e) => panic!("warm-up run: {e}"),
    }
    // The one cached workspace serves every backend: switching between
    // forced push, forced pull and the per-superstep selector reallocates
    // nothing.
    settle();
    const PUSH: Option<Backend> = Some(Backend::Push);
    for backend in [None, PUSH, Some(Backend::Pull), None, PUSH] {
        let (outcome, stats) = AllocGuard::measure(|| run(&mut state, backend));
        match outcome {
            Ok(r) => {
                assert_eq!(r.stats.iterations, 100);
                let pulls = if backend == PUSH { 0 } else { 100 };
                assert_eq!(r.stats.pull_supersteps, pulls, "{backend:?}");
            }
            Err(e) => panic!("measured run ({backend:?}): {e}"),
        }
        assert!(
            !stats.any(),
            "100 warmed supersteps ({backend:?}) must not touch the heap, got {stats:?}"
        );
    }

    // ---- Part 1b: the derived in-edge orientation. ----
    // Everything so far scattered along out-edges: G was never materialized.
    assert_eq!(topo.matrix_bytes(), out_only_bytes);
    let mut degrees: VertexState<u64> = VertexState::for_topology(&topo);
    // The first `In` run derives G (and allocates the cached workspace)...
    if let Err(e) = out_degrees_into(&session, &topo, None, &mut degrees) {
        panic!("first out_degrees_into: {e}");
    }
    assert!(topo.matrix_bytes() > out_only_bytes);
    // ...the second finds it there.
    let (outcome, stats) =
        AllocGuard::measure(|| out_degrees_into(&session, &topo, None, &mut degrees));
    if let Err(e) = outcome {
        panic!("second out_degrees_into: {e}");
    }
    assert!(
        !stats.any(),
        "a warmed In-direction run must not touch the heap, got {stats:?}"
    );
    let expected = el.out_degrees();
    assert!(degrees
        .properties()
        .iter()
        .zip(&expected)
        .all(|(got, want)| *got == *want as u64));

    // ---- Part 1c: sparse frontiers, through the single-source drivers. ----
    // Road-grid SSSP from one seeded source (the builder holds its first seed
    // inline): a hundred-odd supersteps of a few dozen messages each — the
    // push kernel takes its frontier-driven walk and runs its partitions
    // inline on the caller instead of dispatching to the pool.
    let road = grid::generate(&GridConfig::square(48).with_seed(11));
    let road_topo = match session.build_graph(&road).finish() {
        Ok(t) => t,
        Err(e) => panic!("road build: {e}"),
    };
    let mut dist: VertexState<f32> = VertexState::for_topology(&road_topo);
    if let Err(e) = sssp_into(&session, &road_topo, 0, None, &mut dist) {
        panic!("warm-up sssp: {e}");
    }
    let (outcome, stats) =
        AllocGuard::measure(|| sssp_into(&session, &road_topo, 0, None, &mut dist));
    match outcome {
        Ok(r) => {
            assert!(r.converged && r.stats.iterations > 48, "{:?}", r.stats);
            assert_eq!(r.stats.pull_supersteps, 0, "a road frontier never pulls");
            let mean_frontier = r.stats.messages_sent / r.stats.iterations as u64;
            assert!(
                mean_frontier < 256,
                "mean frontier {mean_frontier} is not sparse"
            );
        }
        Err(e) => panic!("measured sssp_into: {e}"),
    }
    assert!(
        !stats.any(),
        "a warmed sssp_into must not touch the heap, got {stats:?}"
    );
    // BFS over the same grid: hop counts, the weights ignored.
    let mut hops: VertexState<u32> = VertexState::for_topology(&road_topo);
    if let Err(e) = bfs_into(&session, &road_topo, 0, None, &mut hops) {
        panic!("warm-up bfs: {e}");
    }
    let (outcome, stats) =
        AllocGuard::measure(|| bfs_into(&session, &road_topo, 0, None, &mut hops));
    match outcome {
        Ok(r) => assert!(r.converged && r.stats.iterations > 48, "{:?}", r.stats),
        Err(e) => panic!("measured bfs_into: {e}"),
    }
    assert!(
        !stats.any(),
        "a warmed bfs_into must not touch the heap, got {stats:?}"
    );

    // ---- Part 1d: pending edits are read from a fold of each side. ----
    // A snapshot's first `Out` push folds its pending edits into a copy of
    // the base's push matrix, its first `Out` pull into a copy of the base's
    // out mirror, once each, and every push or pull reads its fold. So each
    // first read allocates its fold, and nothing after it does. PageRank
    // over base ⊕ overlay: every superstep is all-active, so every superstep
    // pulls, and an `Out` program never makes the snapshot's topology derive
    // its in side.
    let store = GraphStore::new(
        topo.clone(),
        StoreOptions {
            compaction_threshold: usize::MAX,
            background: false,
            ..StoreOptions::default()
        },
    );
    let n = topo.num_vertices();
    let mut batch = DeltaBatch::new(n);
    for (i, &(src, dst, _)) in el.edges().iter().step_by(97).enumerate() {
        let edit = match i % 3 {
            0 => batch.delete(src, dst),
            1 => batch.insert(src, dst, 0.5),
            _ => batch.insert(dst, (src + 1) % n, 2.0),
        };
        if let Err(e) = edit {
            panic!("edit {i}: {e}");
        }
    }
    let pending = match store.apply(batch) {
        Ok(snapshot) => snapshot,
        Err(e) => panic!("apply: {e}"),
    };
    let Some(overlay) = pending.overlay() else {
        panic!("the batch left no pending edits");
    };
    let edited = pending.view();

    // Pushed only: with the state's workspace warmed over the base, the first
    // push folds the matrix — the one allocation, about the base matrix's
    // size — and leaves the mirror unfolded; a warmed push then reads the
    // fold without touching the heap.
    let mut pushed: VertexState<f64> = VertexState::for_topology(&topo);
    let push = |state: &mut VertexState<f64>, view: &Topology<f32>| match session
        .run(view, Rank)
        .init_all(1.0)
        .activate_all()
        .activity(ActivityPolicy::AlwaysAll)
        .backend(Some(Backend::Push))
        .max_iterations(10)
        .execute_with(state)
    {
        Ok(r) => assert_eq!((r.stats.iterations, r.stats.pull_supersteps), (10, 0)),
        Err(e) => panic!("push over edits: {e}"),
    };
    push(&mut pushed, &topo);
    let ((), stats) = AllocGuard::measure(|| push(&mut pushed, pending.view()));
    let Some(push_fold_bytes) = pending.folded_bytes() else {
        panic!("ten pushes did not fold");
    };
    let matrix = topo.out_matrix();
    // Four arrays per push partition, the list of them and the `Arc`.
    assert!(
        stats.deallocs == 0
            && stats.reallocs == 0
            && stats.allocs <= 4 * matrix.n_partitions() as u64 + 2
            && (push_fold_bytes as u64) <= stats.bytes
            && stats.bytes * 10 <= matrix.bytes() as u64 * 11,
        "the fold of a {}-byte matrix into {push_fold_bytes} bytes: {stats:?}",
        matrix.bytes()
    );
    let ((), stats) = AllocGuard::measure(|| push(&mut pushed, pending.view()));
    assert!(
        !stats.any(),
        "a warmed push over pending edits must not touch the heap, got {stats:?}"
    );
    assert!(
        edited.out_side().made_mirror().is_none(),
        "a push folded the mirror"
    );

    // Pulled: the first run folds the mirror — the one allocation, about
    // the base mirror's size, beside the fold's row buckets (per overlay
    // partition: 8 B per row, and 12 B per pending op — a column id and an
    // op's index — made and freed by the fold) — and the next run reads the
    // fold without touching the heap.
    let cfg = PageRankConfig {
        iterations: 10,
        ..Default::default()
    };
    let mut ranks = VertexState::for_topology(&topo);
    let pagerank = |ranks: &mut _| match pagerank_into(&session, pending.view(), &cfg, None, ranks)
    {
        Ok(r) => assert_eq!((r.stats.iterations, r.stats.pull_supersteps), (10, 10)),
        Err(e) => panic!("pagerank over edits: {e}"),
    };
    // The state's workspace is warmed over the base, which has no fold.
    if let Err(e) = pagerank_into(&session, &topo, &cfg, None, &mut ranks) {
        panic!("warm-up pagerank: {e}");
    }
    let ((), stats) = AllocGuard::measure(|| pagerank(&mut ranks));
    let Some(folded_bytes) = pending.folded_bytes().map(|b| b - push_fold_bytes) else {
        panic!("ten pulls did not fold");
    };
    let mirror = match topo.out_pull_mirror() {
        Some(m) => m,
        None => panic!("the base has no pull mirror"),
    };
    let buckets = 8 * u64::from(n) + 12 * overlay.out().nnz() as u64;
    // Three arrays per overlay partition, and the list of them.
    let bucket_allocs = 3 * overlay.out().n_partitions() as u64 + 1;
    assert!(
        stats.deallocs <= bucket_allocs
            && stats.reallocs == 0
            && stats.allocs <= 3 * mirror.n_partitions() as u64 + 2 + bucket_allocs
            && (folded_bytes as u64) <= stats.bytes
            && stats.bytes * 10 <= mirror.bytes() as u64 * 11 + buckets * 10,
        "the fold of a {}-byte mirror into {folded_bytes} bytes, {buckets} bytes of \
         row buckets: {stats:?}",
        mirror.bytes()
    );
    let ((), stats) = AllocGuard::measure(|| pagerank(&mut ranks));
    assert!(
        !stats.any(),
        "a pagerank_into over a folded snapshot must not touch the heap, got {stats:?}"
    );
    assert!(
        edited.in_side().is_none(),
        "an Out run derived the snapshot's in side"
    );

    // The `In` leg over the same snapshot: a warmed out-degree run (`G` and
    // the state's workspace were made in Part 1b) derives the overlay's in
    // side and folds it into a copy of `G`'s mirror — its only allocations:
    // the fold within 1.1 × that mirror's bytes, the in side within 2 × its
    // bytes (the builder's entries and bucket order), and row buckets twice
    // (the out side's, which the transposition reads, and the in side's,
    // which the fold reads) — and the next run reads the fold without
    // touching the heap.
    let out_degrees =
        |degrees: &mut _| match out_degrees_into(&session, pending.view(), None, degrees) {
            Ok(r) => assert_eq!(r.stats.pull_supersteps, 1),
            Err(e) => panic!("out_degrees_into over edits: {e}"),
        };
    let ((), stats) = AllocGuard::measure(|| out_degrees(&mut degrees));
    let in_mirror = match topo.in_pull_mirror() {
        Some(m) => m,
        None => panic!("the base has no in-side pull mirror"),
    };
    let in_side_bytes = match edited.in_side().and_then(|side| side.edits()) {
        Some(in_edits) => in_edits.bytes() as u64,
        None => panic!("an In run derived no in side"),
    };
    let in_fold_bytes = match pending.folded_bytes() {
        Some(all) => (all - push_fold_bytes - folded_bytes) as u64,
        None => panic!("the out fold is gone"),
    };
    assert!(
        in_side_bytes > 0
            && in_fold_bytes > 0
            && in_side_bytes + in_fold_bytes <= stats.bytes
            && stats.bytes * 10
                <= in_mirror.bytes() as u64 * 11 + (2 * in_side_bytes + 2 * buckets) * 10,
        "the in side ({in_side_bytes} bytes) and its fold of a {}-byte mirror \
         ({in_fold_bytes} bytes): {stats:?}",
        in_mirror.bytes()
    );
    let ((), stats) = AllocGuard::measure(|| out_degrees(&mut degrees));
    assert!(
        !stats.any(),
        "an out_degrees_into over a folded in side must not touch the heap, got {stats:?}"
    );

    // ---- Part 1e: a write costs what was written, not the graph. ----
    // The first `apply` on a fresh store compiles one edit against the
    // published base: two degree arrays (8 B/vertex) and an overlay's
    // partition table, nothing else per vertex. Measured on RMAT-12 (4 096
    // vertices): 32 768 + 1 416 B. (A writer-side edge list plus pair index,
    // 20 bytes per edge, used to be materialized right here.)
    let big = rmat::generate(&RmatConfig::graph500(12).with_seed(7));
    let big_topo = match session.build_graph(&big).finish() {
        Ok(t) => t,
        Err(e) => panic!("rmat-12 build: {e}"),
    };
    let fresh = GraphStore::new(
        big_topo,
        StoreOptions {
            background: false,
            ..StoreOptions::default()
        },
    );
    let mut one_edit = DeltaBatch::new(big.num_vertices());
    if let Err(e) = one_edit.insert(1, 2, 0.5) {
        panic!("edit: {e}");
    }
    let (outcome, stats) = AllocGuard::measure(|| fresh.apply(one_edit));
    match outcome {
        Ok(snapshot) => assert_eq!(snapshot.delta_len(), 1),
        Err(e) => panic!("first apply: {e}"),
    }
    let bound = 8 * u64::from(big.num_vertices()) + 4096;
    assert!(
        stats.bytes <= bound,
        "the first write to a store of {} vertices allocated {} bytes, bound {bound}",
        big.num_vertices(),
        stats.bytes
    );

    // ---- Part 1f: a push merged to one partition per lane. ----
    // An automatic build on 2 lanes pushes RMAT through 2 partitions and
    // pulls it through the 16-partition mirror; with edits pending, one
    // overlay bucketed by the 2 push partitions is pulled by the 16 mirror
    // partitions, each from its own rows.
    let lanes2 = match Session::new(SessionOptions::default().with_threads(2).with_run_defaults(
        RunOptions {
            record_supersteps: false,
            ..RunOptions::default()
        },
    )) {
        Ok(s) => s,
        Err(e) => panic!("2-lane session: {e}"),
    };
    let symmetric = el.symmetrized();
    let merged = match lanes2.build_graph(&symmetric).finish() {
        Ok(t) => t,
        Err(e) => panic!("merged build: {e}"),
    };
    assert_eq!(merged.num_partitions(), 2);
    let mirror_partitions = merged.out_pull_mirror().map(|m| m.n_partitions());
    assert!(mirror_partitions > Some(8), "{mirror_partitions:?}");
    let merged_store = GraphStore::new(
        merged.clone(),
        StoreOptions {
            compaction_threshold: usize::MAX,
            background: false,
            ..StoreOptions::default()
        },
    );
    let mut batch = DeltaBatch::new(n);
    for (i, &(src, dst, _)) in symmetric.edges().iter().step_by(89).enumerate() {
        let edit = match i % 2 {
            0 => batch.delete(src, dst),
            _ => batch.insert(dst, (src + 7) % n, 1.5),
        };
        if let Err(e) = edit {
            panic!("edit {i}: {e}");
        }
    }
    let pending = match merged_store.apply(batch) {
        Ok(snapshot) => snapshot,
        Err(e) => panic!("apply to the merged store: {e}"),
    };
    let cfg = PageRankConfig {
        iterations: 10,
        ..Default::default()
    };
    let mut ranks = VertexState::for_topology(&merged);
    let mut hops: VertexState<u32> = VertexState::for_topology(&merged);
    settle();
    for measured in [false, true] {
        let (outcome, stats) =
            AllocGuard::measure(|| pagerank_into(&lanes2, pending.view(), &cfg, None, &mut ranks));
        match outcome {
            Ok(r) => assert_eq!(r.stats.pull_supersteps, 10),
            Err(e) => panic!("pagerank over a merged push: {e}"),
        }
        assert!(
            !measured || !stats.any(),
            "a warmed pagerank_into over a merged push must not touch the heap, got {stats:?}"
        );
        let (outcome, stats) =
            AllocGuard::measure(|| bfs_into(&lanes2, pending.view(), 1, None, &mut hops));
        match outcome {
            Ok(r) => assert!(r.stats.pull_supersteps > 0, "{:?}", r.stats),
            Err(e) => panic!("bfs over a merged push: {e}"),
        }
        assert!(
            !measured || !stats.any(),
            "a warmed bfs_into over a merged push must not touch the heap, got {stats:?}"
        );
    }

    // ---- Part 1g: triangle counting and CF allocate per run, not per edge. ----
    // TC's state borrows each vertex's in-neighbour row from the pull mirror
    // and its messages are those rows; CF's latent vectors, messages and
    // gradients are `[f64; K]` held in place. Either run allocates its
    // state, its workspace and its output: the same count on a graph 4× the
    // size.
    let tc_allocs = |edges: &EdgeList<f32>| {
        let dag = match session.build_graph(&edges.to_dag()).finish() {
            Ok(t) => t,
            Err(e) => panic!("dag build: {e}"),
        };
        let (outcome, stats) = AllocGuard::measure(|| triangle_count_on(&session, &dag));
        match outcome {
            Ok(out) => assert!(total_triangles(&out) > 0),
            Err(e) => panic!("triangle count: {e}"),
        }
        (stats, dag.num_edges())
    };
    settle();
    let (small, _) = tc_allocs(&el);
    let (large, dag_edges) = tc_allocs(&big);
    assert_eq!(small.allocs, large.allocs, "{small:?} vs {large:?}");
    assert!(
        large.allocs < 64,
        "a TC run over {dag_edges} edges made {} allocations",
        large.allocs
    );
    let cf_allocs = |num_users: u32| {
        let ratings = bipartite::generate(&BipartiteConfig {
            num_users,
            num_items: num_users / 10,
            num_ratings: 10 * num_users as usize,
            ..Default::default()
        });
        let topo = match session.build_graph(&ratings.edges).finish() {
            Ok(t) => t,
            Err(e) => panic!("ratings build: {e}"),
        };
        topo.in_matrix(); // CF scatters both ways: derive G outside the window
        let cfg = CfConfig {
            iterations: 3,
            ..Default::default()
        };
        let (outcome, stats) =
            AllocGuard::measure(|| collaborative_filtering_on::<8, _>(&session, &topo, &cfg));
        match outcome {
            Ok(out) => assert_eq!(out.stats.iterations, 3),
            Err(e) => panic!("collaborative filtering: {e}"),
        }
        stats
    };
    let (small, large) = (cf_allocs(1_000), cf_allocs(4_000));
    assert_eq!(small.allocs, large.allocs, "{small:?} vs {large:?}");
    assert!(
        large.allocs < 64,
        "a 3-iteration CF run over 40 000 ratings made {} allocations",
        large.allocs
    );

    // ---- Part 1h: compaction merges the edits in, it does not rebuild. ----
    // With ~3 % of the edges edited, folding the overlay into the base
    // allocates the new base's matrices (at the merge's upper-bound
    // capacities) and its two degree arrays. A rebuild materialized an edge
    // list, a transposed COO and sorted buckets besides: ≥ 36 bytes per edge.
    let nb = big.num_vertices();
    let mut edits = DeltaBatch::new(nb);
    for (i, &(src, dst, _)) in big.edges().iter().step_by(33).enumerate() {
        let edit = match i % 3 {
            0 => edits.delete(src, dst),
            1 => edits.insert(src, dst, 0.25),
            _ => edits.insert(dst, (src + 1) % nb, 4.0),
        };
        if let Err(e) = edit {
            panic!("edit {i}: {e}");
        }
    }
    match fresh.apply(edits) {
        Ok(snapshot) => assert!(snapshot.delta_len() > big.num_edges() / 40),
        Err(e) => panic!("apply ~3 % edits: {e}"),
    }
    let (compacted, stats) = AllocGuard::measure(|| fresh.compact_now());
    assert!(compacted, "nothing was compacted");
    let folded = fresh.snapshot().base().clone();
    let bound = 1.1 * (folded.matrix_bytes() + folded.pull_bytes()) as f64 + 8.0 * nb as f64;
    assert!(
        (stats.bytes as f64) <= bound,
        "compacting {} edges allocated {} bytes, bound {bound:.0}",
        folded.num_edges(),
        stats.bytes
    );

    // ---- Part 1i: a write allocates independently of what is pending. ----
    // A batch is resolved alone and merged into the published overlay: the
    // allocations are the batch's, the new overlay's arrays (at the merge's
    // upper-bound capacities) and its two degree arrays — as many at ~16 k
    // pending edits as at ~512, and bounded in bytes by what they build.
    // Measured: 30 allocations, 78 KB at ~512 pending and 360 KB at ~16 k.
    // (Recompiling the whole pending set grew its buffers by `push`.)
    let writes = GraphStore::new(
        folded.clone(),
        StoreOptions {
            compaction_threshold: usize::MAX,
            background: false,
            ..StoreOptions::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(17);
    let mut next_batch = || {
        let mut batch = DeltaBatch::new(nb);
        for i in 0..512 {
            let edit = if i % 2 == 0 {
                let (s, d, _) = big.edges()[rng.gen_range(0..big.edges().len())];
                batch.delete(s, d)
            } else {
                batch.insert(rng.gen_range(0..nb), rng.gen_range(0..nb), 0.5)
            };
            if let Err(e) = edit {
                panic!("edit {i}: {e}");
            }
        }
        batch
    };
    let mut measured = Vec::new();
    for pending in [512, 16_384] {
        while writes.snapshot().delta_len() < pending - 256 {
            if let Err(e) = writes.apply(next_batch()) {
                panic!("apply up to {pending} pending: {e}");
            }
        }
        let batch = next_batch();
        let (outcome, stats) = AllocGuard::measure(|| writes.apply(batch));
        let overlay_bytes = match outcome {
            Ok(snapshot) => snapshot.overlay().map_or(0, |o| o.bytes()),
            Err(e) => panic!("measured apply at ~{pending} pending: {e}"),
        };
        let bound = 2 * overlay_bytes as u64 + 8 * u64::from(nb);
        assert!(
            stats.bytes <= bound,
            "a 512-edit write at ~{pending} pending allocated {} bytes, bound {bound}",
            stats.bytes
        );
        measured.push(stats);
    }
    assert_eq!(
        (measured[0].allocs, measured[0].reallocs),
        (measured[1].allocs, measured[1].reallocs),
        "a write allocated more often over ~16 k pending edits than over ~512: {measured:?}"
    );

    // ---- Part 2: steady-state server rounds, in-process. ----
    let service = GraphService::new(session, topo);
    let mut states = WorkerStates::for_topology(service.topology());
    let request = RunRequest::new(Algorithm::PageRank)
        .iterations(5)
        .include_values(true);
    let mut buf: Vec<u8> = Vec::new();
    // Two warm-up rounds: the first creates the pooled PageRank state and
    // sizes the response buffer, the second proves acquire/release recycles.
    for round in 0..2 {
        buf.clear();
        let status = service::execute_run(&service, &mut states, &request, None, &mut buf).status;
        assert_eq!(status, Status::Ok, "warm-up round {round}");
    }
    let created_after_warmup = states.created();
    settle();
    let (_, stats) = AllocGuard::measure(|| {
        for _ in 0..10 {
            buf.clear();
            let status =
                service::execute_run(&service, &mut states, &request, None, &mut buf).status;
            assert_eq!(status, Status::Ok);
        }
    });
    assert!(
        !stats.any(),
        "10 steady-state server rounds must not touch the heap, got {stats:?}"
    );
    assert_eq!(
        states.created(),
        created_after_warmup,
        "steady-state rounds must recycle pooled states, not create new ones"
    );
    assert!(!buf.is_empty(), "rounds actually produced responses");
}
