//! Concurrency acceptance test for the `Session`/`Topology`/`VertexState`
//! redesign: N threads run N *different* vertex programs against one
//! `Arc<Topology>` through one shared `Session`, without cloning the matrix,
//! and every result matches the corresponding single-threaded-in-main run
//! **bit for bit**.
//!
//! The split is what makes this possible: a run mutates only its own
//! `VertexState`, so concurrent runs — read-only queries included — need no
//! second copy of the adjacency matrices.

use graphmat::prelude::*;
use std::sync::Arc;

fn test_edges() -> (EdgeList<()>, EdgeList<()>) {
    let raw =
        graphmat::io::rmat::generate(&graphmat::io::rmat::RmatConfig::graph500(10).with_seed(42))
            .topology();
    (raw.symmetrized(), raw.to_dag())
}

#[test]
fn six_programs_run_concurrently_over_one_shared_topology() {
    let (sym_edges, dag_edges) = test_edges();
    let session = Session::with_threads(4).expect("session");
    // Two shared topologies: the symmetrized graph for the traversal /
    // ranking programs, the upper-triangle DAG for triangle counting.
    let topo: Arc<Topology<()>> = session.build_graph(&sym_edges).finish().expect("topology");
    let dag: Arc<Topology<()>> = session
        .build_graph(&dag_edges)
        .finish()
        .expect("dag topology");

    let pr_cfg = PageRankConfig {
        iterations: 10,
        ..Default::default()
    };
    let dpr_cfg = DeltaPageRankConfig::default();

    // Baseline: every program once, sequentially from the main thread,
    // through the SAME session and topologies the concurrent phase uses.
    let seq_bfs = bfs_on(&session, &topo, 1).unwrap().values;
    let seq_pr = pagerank_on(&session, &topo, &pr_cfg).unwrap().values;
    let seq_cc = connected_components_on(&session, &topo).unwrap().values;
    let seq_sssp = sssp_on(&session, &topo, 3).unwrap().values;
    let seq_dpr = delta_pagerank_on(&session, &topo, &dpr_cfg).unwrap().values;
    let seq_tri = triangle_count_on(&session, &dag).unwrap().values;

    // Concurrent phase: six threads, six different programs, one session,
    // shared topologies. The pool was built at Session::new — concurrency
    // must not spawn a single new OS thread anywhere in the process (a
    // regression to per-run executors would), and Arc sharing means the
    // matrices are never cloned. The process-global spawn counter is safe
    // to assert on here because the only other test in this binary uses
    // Session::sequential(), which spawns nothing.
    assert_eq!(
        session.executor().threads_spawned(),
        3,
        "4 lanes = caller + 3 pool threads"
    );
    let spawned_before = graphmat::sparse::parallel::threads_spawned_total();
    let runs = 3; // several rounds per thread to maximise interleaving
    let (bfs_r, pr_r, cc_r, sssp_r, dpr_r, tri_r) = std::thread::scope(|s| {
        let session = &session;
        let bfs_h = s.spawn(|| {
            (0..runs)
                .map(|_| bfs_on(session, &topo, 1).unwrap().values)
                .collect::<Vec<_>>()
        });
        let pr_h = s.spawn(|| {
            (0..runs)
                .map(|_| pagerank_on(session, &topo, &pr_cfg).unwrap().values)
                .collect::<Vec<_>>()
        });
        let cc_h = s.spawn(|| {
            (0..runs)
                .map(|_| connected_components_on(session, &topo).unwrap().values)
                .collect::<Vec<_>>()
        });
        let sssp_h = s.spawn(|| {
            (0..runs)
                .map(|_| sssp_on(session, &topo, 3).unwrap().values)
                .collect::<Vec<_>>()
        });
        let dpr_h = s.spawn(|| {
            (0..runs)
                .map(|_| delta_pagerank_on(session, &topo, &dpr_cfg).unwrap().values)
                .collect::<Vec<_>>()
        });
        let tri_h = s.spawn(|| {
            (0..runs)
                .map(|_| triangle_count_on(session, &dag).unwrap().values)
                .collect::<Vec<_>>()
        });
        (
            bfs_h.join().unwrap(),
            pr_h.join().unwrap(),
            cc_h.join().unwrap(),
            sssp_h.join().unwrap(),
            dpr_h.join().unwrap(),
            tri_h.join().unwrap(),
        )
    });
    assert_eq!(
        graphmat::sparse::parallel::threads_spawned_total(),
        spawned_before,
        "concurrent runs must reuse the session's pool — no executor \
         anywhere may spawn a thread during the concurrent phase"
    );

    // Bit-for-bit agreement with the sequential baselines, every round.
    for round in 0..runs {
        assert_eq!(bfs_r[round], seq_bfs, "BFS round {round}");
        assert_eq!(pr_r[round], seq_pr, "PageRank round {round}");
        assert_eq!(cc_r[round], seq_cc, "CC round {round}");
        assert_eq!(sssp_r[round], seq_sssp, "SSSP round {round}");
        assert_eq!(dpr_r[round], seq_dpr, "delta-PageRank round {round}");
        assert_eq!(tri_r[round], seq_tri, "triangles round {round}");
    }

    // Cross-check two of the baselines against independent references.
    assert_eq!(
        seq_bfs,
        graphmat::algorithms::bfs::bfs_reference(&sym_edges, 1, false)
    );
    assert_eq!(
        seq_cc,
        graphmat::algorithms::connected_components::connected_components_reference(&sym_edges)
    );
}

#[test]
fn concurrent_hand_written_programs_share_a_topology() {
    // Same property at the `session.run(...)` builder level, with a
    // hand-written program: 8 threads, 8 different seeds, one topology.
    struct Hops;
    impl GraphProgram for Hops {
        type VertexProp = u32;
        type Message = u32;
        type Reduced = u32;
        type Edge = ();
        fn send_message(&self, _v: VertexId, d: &u32) -> Option<u32> {
            Some(*d)
        }
        fn process_message(&self, m: &u32, _e: &(), _d: &u32) -> u32 {
            m.saturating_add(1)
        }
        fn reduce(&self, acc: &mut u32, v: u32) {
            *acc = (*acc).min(v);
        }
        fn apply(&self, r: &u32, d: &mut u32) {
            *d = (*d).min(*r);
        }
    }

    // Sequential session: spawns no pool threads, which keeps the other
    // test's process-global spawn-counter assertion race-free — and the
    // user threads below are still genuinely concurrent over one topology.
    let (sym_edges, _) = test_edges();
    let session = Session::sequential();
    let topo = session.build_graph(&sym_edges).finish().unwrap();

    let run_from = |root: VertexId| {
        session
            .run(&*topo, Hops)
            .init_all(u32::MAX)
            .seed_with(root, 0)
            .execute()
            .unwrap()
            .values
    };
    let expected: Vec<Vec<u32>> = (0..8).map(run_from).collect();
    let concurrent: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8u32)
            .map(|root| s.spawn(move || run_from(root)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(expected, concurrent);
}

/// Counts the messages a vertex receives along both directions: its
/// in-degree plus its out-degree.
struct Touches;

impl GraphProgram for Touches {
    type VertexProp = u64;
    type Message = u64;
    type Reduced = u64;
    type Edge = ();
    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Both
    }
    fn send_message(&self, _v: VertexId, _count: &u64) -> Option<u64> {
        Some(1)
    }
    fn process_message(&self, m: &u64, _e: &(), _d: &u64) -> u64 {
        *m
    }
    fn reduce(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }
    fn apply(&self, r: &u64, count: &mut u64) {
        *count = *r;
    }
}

/// The in-edge orientation is derived on first use, so the first use can be
/// a race: eight threads released together on one fresh topology, half
/// through the `In` driver and half through a `Both` program. Every one of
/// them must read the same, complete `G`.
#[test]
fn first_in_edge_runs_race_to_one_derived_orientation() {
    const SEED: u64 = 0xD1CE;
    let edges =
        graphmat::io::rmat::generate(&graphmat::io::rmat::RmatConfig::graph500(9).with_seed(SEED))
            .topology();
    // Sequential session, for the spawn-counter reason given above.
    let session = Session::sequential();
    let topo = session.build_graph(&edges).partitions(5).finish().unwrap();
    let out: Vec<u64> = edges.out_degrees().iter().map(|&d| d as u64).collect();
    let both: Vec<u64> = edges
        .in_degrees()
        .iter()
        .zip(&out)
        .map(|(&i, &o)| i as u64 + o)
        .collect();
    let out_only_bytes = topo.matrix_bytes();

    let start = std::sync::Barrier::new(8);
    let seen: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (session, topo, start, out, both) = (&session, &topo, &start, &out, &both);
                s.spawn(move || {
                    start.wait();
                    if i % 2 == 0 {
                        let got = out_degrees_on(session, topo).unwrap().values;
                        assert_eq!(&got, out, "seed {SEED:#x}, thread {i}, In");
                    } else {
                        let got = session
                            .run(topo, Touches)
                            .init_all(0)
                            .activate_all()
                            .max_iterations(1)
                            .execute()
                            .unwrap()
                            .values;
                        assert_eq!(&got, both, "seed {SEED:#x}, thread {i}, Both");
                    }
                    topo.in_matrix().partitions().as_ptr() as usize
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Built once: every thread, and every later call, sees the same matrix.
    let now = topo.in_matrix().partitions().as_ptr() as usize;
    assert!(seen.iter().all(|&p| p == now), "seed {SEED:#x}: {seen:?}");
    assert!(topo.matrix_bytes() > out_only_bytes);
}

/// The same race one level up: a snapshot's pending edits compile their
/// out side at `apply`, and its topology transposes them into its in side on
/// first use. Eight threads released together on one edited snapshot, half
/// through the `In` driver and half through a `Both` program: every answer
/// equals the rebuild's, and all of them read one in-side overlay.
#[test]
fn first_in_edge_runs_over_pending_edits_race_to_one_derived_overlay() {
    const SEED: u64 = 0xED17;
    let edges =
        graphmat::io::rmat::generate(&graphmat::io::rmat::RmatConfig::graph500(9).with_seed(SEED))
            .topology();
    // Sequential session, for the spawn-counter reason given above.
    let session = Session::sequential();
    let topo = session.build_graph(&edges).partitions(5).finish().unwrap();
    let manual_store = || {
        GraphStore::new(
            Arc::clone(&topo),
            StoreOptions {
                compaction_threshold: usize::MAX,
                background: false,
                ..StoreOptions::default()
            },
        )
    };
    let n = edges.num_vertices();
    let mut batch = DeltaBatch::new(n);
    for (i, &(src, dst, ())) in edges.edges().iter().step_by(41).enumerate() {
        match i % 3 {
            0 => batch.delete(src, dst).unwrap(),
            1 => batch.insert(dst, src, ()).unwrap(),
            _ => batch.insert(src, (dst + 7) % n, ()).unwrap(),
        }
    }
    let touches = |graph: &Topology<()>| {
        session
            .run(graph, Touches)
            .init_all(0)
            .activate_all()
            .max_iterations(1)
            .execute()
            .unwrap()
            .values
    };

    // The reference: the same edits, compacted into a new base.
    let compacted = manual_store();
    compacted.apply(batch.clone()).unwrap();
    assert!(compacted.compact_now());
    let rebuilt = compacted.snapshot();
    assert!(rebuilt.overlay().is_none());
    let out = out_degrees_on(&session, rebuilt.base()).unwrap().values;
    let both = touches(rebuilt.base());

    let pending = manual_store().apply(batch).unwrap();
    assert!(pending.overlay().is_some(), "pending edits");
    let edited = pending.view();
    assert!(edited.in_side().is_none(), "an in side before any In run");

    let start = std::sync::Barrier::new(8);
    let seen: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (session, pending, start) = (&session, &pending, &start);
                let (out, both, touches) = (&out, &both, &touches);
                s.spawn(move || {
                    start.wait();
                    if i % 2 == 0 {
                        let got = out_degrees_on(session, pending.view()).unwrap().values;
                        assert_eq!(&got, out, "seed {SEED:#x}, thread {i}, In");
                    } else {
                        let got = touches(pending.view());
                        assert_eq!(&got, both, "seed {SEED:#x}, thread {i}, Both");
                    }
                    let side = edited.in_side().expect("an In run made the in side");
                    side.edits().expect("an edited in side") as *const _ as usize
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let in_edits = edited.in_side().unwrap().edits().unwrap();
    let now = in_edits as *const _ as usize;
    assert!(seen.iter().all(|&p| p == now), "seed {SEED:#x}: {seen:?}");
    assert!(in_edits.bytes() > 0);
}
