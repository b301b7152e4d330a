//! Property-based tests over the whole stack: random graphs in, invariants
//! out. These complement the per-module unit tests by exercising the public
//! API end to end.
//!
//! The build environment is offline, so instead of `proptest` the cases are
//! generated by a deterministic SplitMix64 stream: every test runs a fixed
//! number of random graphs derived from per-test seeds, which keeps failures
//! exactly reproducible (the failing seed is in the assertion message).

use graphmat::baselines::native;
use graphmat::prelude::*;
use graphmat::sparse::partition::RowRange;
use graphmat_io::rng::StdRng;

const CASES: u64 = 24;

/// Random directed graph with `2..max_vertices` vertices and up to
/// `max_edges` integer-weighted edges (self-loops removed).
fn arb_graph(seed: u64, max_vertices: u32, max_edges: usize) -> EdgeList {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2u32..max_vertices);
    let m = rng.gen_range(1usize..max_edges);
    let mut tuples: Vec<(u32, u32, f32)> = Vec::with_capacity(m);
    for _ in 0..m {
        let s = rng.gen_range(0u32..n);
        let d = rng.gen_range(0u32..n);
        if s != d {
            tuples.push((s, d, rng.gen_range(1u32..10) as f32));
        }
    }
    if tuples.is_empty() {
        tuples.push((0, 1, 1.0));
    }
    EdgeList::from_tuples(n, tuples)
}

/// `edges` built for out-edge traversal through `session`.
fn built<E: Clone>(session: &Session, edges: &EdgeList<E>) -> std::sync::Arc<Topology<E>> {
    session.build_graph(edges).finish().unwrap()
}

/// SSSP from vertex 0 through `session`.
fn sssp_from_zero(session: &Session, edges: &EdgeList) -> Vec<f32> {
    sssp_on(session, &built(session, edges), 0).unwrap().values
}

/// BFS from vertex 0 over the symmetrized `edges`.
fn bfs_from_zero<E: Clone + Send + Sync + 'static>(edges: &EdgeList<E>) -> Vec<u32> {
    let session = Session::sequential();
    bfs_on(&session, &built(&session, &edges.symmetrized()), 0)
        .unwrap()
        .values
}

/// Connected components of the symmetrized `edges`.
fn components<E: Clone + Send + Sync + 'static>(edges: &EdgeList<E>) -> Vec<u32> {
    let session = Session::sequential();
    connected_components_on(&session, &built(&session, &edges.symmetrized()))
        .unwrap()
        .values
}

/// A sequential session whose runs start from `run_defaults`.
fn session_with(run_defaults: RunOptions) -> Session {
    Session::new(
        SessionOptions::default()
            .with_threads(1)
            .with_run_defaults(run_defaults),
    )
    .unwrap()
}

#[test]
fn sssp_matches_dijkstra_on_random_graphs() {
    for case in 0..CASES {
        let edges = arb_graph(1000 + case, 60, 300);
        let gm = sssp_from_zero(&Session::sequential(), &edges);
        let reference = graphmat_algorithms::sssp::sssp_reference(&edges, 0);
        for (v, (a, b)) in gm.iter().zip(reference.iter()).enumerate() {
            if *b == f32::MAX {
                assert_eq!(*a, f32::MAX, "case {case} vertex {v}");
            } else {
                assert!((a - b).abs() < 1e-3, "case {case} vertex {v}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn bfs_distances_are_consistent_with_edges() {
    for case in 0..CASES {
        let edges = arb_graph(2000 + case, 60, 300);
        let out = bfs_from_zero(&edges);
        let sym = edges.symmetrized();
        // triangle inequality over every (undirected) edge: |d(u) - d(v)| <= 1
        for &(u, v, _) in sym.edges() {
            let (du, dv) = (out[u as usize], out[v as usize]);
            if du != u32::MAX && dv != u32::MAX {
                assert!(
                    du.abs_diff(dv) <= 1,
                    "case {case} edge ({u},{v}): {du} vs {dv}"
                );
            } else {
                // reachability is symmetric on a symmetrized graph
                assert_eq!(du, dv, "case {case} edge ({u},{v})");
            }
        }
        assert_eq!(out[0], 0, "case {case}");
    }
}

#[test]
fn triangle_count_matches_bruteforce() {
    for case in 0..CASES {
        let edges = arb_graph(3000 + case, 40, 200);
        let session = Session::sequential();
        let out = triangle_count_on(&session, &built(&session, &edges.to_dag())).unwrap();
        let expected = graphmat_algorithms::triangle_count::triangle_count_reference(&edges);
        assert_eq!(total_triangles(&out), expected, "case {case}");
    }
}

#[test]
fn connected_components_match_union_find() {
    for case in 0..CASES {
        let edges = arb_graph(4000 + case, 60, 200);
        let expected =
            graphmat_algorithms::connected_components::connected_components_reference(&edges);
        assert_eq!(components(&edges), expected, "case {case}");
    }
}

#[test]
fn pagerank_matches_native_and_preserves_positivity() {
    for case in 0..CASES {
        let edges = arb_graph(5000 + case, 50, 250);
        let iterations = 6;
        let session = Session::sequential();
        let gm = pagerank_on(
            &session,
            &built(&session, &edges),
            &PageRankConfig {
                iterations,
                ..Default::default()
            },
        )
        .unwrap();
        let nat = native::pagerank(&edges, 0.15, iterations, 1);
        for v in 0..edges.num_vertices() as usize {
            assert!(gm.values[v] > 0.0, "case {case} vertex {v}");
            assert!(gm.values[v].is_finite(), "case {case} vertex {v}");
            if edges.in_degrees()[v] > 0 {
                assert!(
                    (gm.values[v] - nat.values[v]).abs() < 1e-9,
                    "case {case} vertex {v}"
                );
            }
        }
    }
}

#[test]
fn degree_programs_match_edge_list() {
    for case in 0..CASES {
        let edges = arb_graph(6000 + case, 50, 250);
        let session = Session::sequential();
        let topology = session.build_graph(&edges).finish().unwrap();
        let ins = in_degrees_on(&session, &topology).unwrap();
        let outs = out_degrees_on(&session, &topology).unwrap();
        let expect_in: Vec<u64> = edges.in_degrees().iter().map(|&d| d as u64).collect();
        let expect_out: Vec<u64> = edges.out_degrees().iter().map(|&d| d as u64).collect();
        assert_eq!(ins.values, expect_in, "case {case}");
        assert_eq!(outs.values, expect_out, "case {case}");
    }
}

#[test]
fn parallel_run_equals_sequential_run() {
    for case in 0..CASES {
        let edges = arb_graph(7000 + case, 50, 250);
        let seq = sssp_from_zero(&Session::sequential(), &edges);
        let par = sssp_from_zero(&Session::with_threads(4).unwrap(), &edges);
        assert_eq!(seq, par, "case {case}");
    }
}

#[test]
fn backend_choice_does_not_change_results() {
    for case in 0..CASES {
        let edges = arb_graph(8000 + case, 40, 200);
        let run = |backend: Option<Backend>| {
            let session = session_with(RunOptions::default().with_backend(backend));
            let distances = sssp_from_zero(&session, &edges);
            distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        };
        let push = run(Some(Backend::Push));
        for backend in [Some(Backend::Pull), None] {
            assert_eq!(push, run(backend), "case {case} ({backend:?})");
        }
    }
}

#[test]
fn streaming_overlay_matches_rebuild_from_final_edge_list() {
    // Random interleavings of insert/delete batches and compactions: the
    // published `(base ⊕ delta)` snapshot must produce PageRank, BFS and
    // connected-components results bit-identical to a topology rebuilt from
    // scratch out of the final edge list. Latest-wins per pair: a delete
    // masks every base copy, an insert upserts to exactly one copy.
    use std::collections::HashMap;
    use std::sync::Arc;

    // Every case twice: on the default build, and on three even row ranges,
    // where the store's lookups of a pair's stored copies cross partition
    // boundaries (`arb_graph` repeats pairs, so bases hold parallel edges).
    for (case, even_thirds) in (0..CASES).flat_map(|case| [(case, false), (case, true)]) {
        let seed = 10_000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = arb_graph(seed, 50, 250);
        let n = edges.num_vertices();
        let session = Session::sequential();
        let base = if even_thirds {
            session.build_graph(&edges).partitions(3).balanced(false)
        } else {
            session.build_graph(&edges)
        };
        let base = base.finish().unwrap();
        let store = GraphStore::new(
            Arc::clone(&base),
            StoreOptions {
                compaction_threshold: usize::MAX,
                ..StoreOptions::default()
            },
        );

        // Latest-wins mirror of every edit admitted across all batches:
        // `None` = deleted pair, `Some(w)` = upserted weight.
        let mut net: HashMap<(u32, u32), Option<f32>> = HashMap::new();
        for _ in 0..rng.gen_range(1u32..6) {
            let mut batch = DeltaBatch::new(n);
            for _ in 0..rng.gen_range(1u32..20) {
                let s = rng.gen_range(0u32..n);
                let d = rng.gen_range(0u32..n);
                if s == d {
                    continue;
                }
                if rng.gen_range(0u32..4) == 0 {
                    batch.delete(s, d).unwrap();
                    net.insert((s, d), None);
                } else {
                    let w = rng.gen_range(1u32..10) as f32;
                    batch.insert(s, d, w).unwrap();
                    net.insert((s, d), Some(w));
                }
            }
            if batch.is_empty() {
                continue;
            }
            store.apply(batch).unwrap();
            // Interleaved compaction: must change the representation, never
            // the graph.
            if rng.gen_range(0u32..3) == 0 {
                store.compact_now();
            }
        }

        // The final edge list from scratch: untouched base tuples survive,
        // deleted pairs vanish entirely, upserted pairs contribute one copy.
        let mut tuples: Vec<(u32, u32, f32)> = edges
            .edges()
            .iter()
            .filter(|(s, d, _)| !net.contains_key(&(*s, *d)))
            .copied()
            .collect();
        for (&(s, d), op) in &net {
            if let Some(w) = op {
                tuples.push((s, d, *w));
            }
        }
        if tuples.is_empty() {
            tuples.push((0, 1, 1.0));
            let mut fix = DeltaBatch::new(n);
            fix.insert(0, 1, 1.0).unwrap();
            store.apply(fix).unwrap();
        }
        let rebuilt = session
            .build_graph(&EdgeList::from_tuples(n, tuples))
            .finish()
            .unwrap();

        let snapshot = store.snapshot();
        let view = snapshot.view();
        assert_eq!(
            view.num_edges(),
            rebuilt.num_edges(),
            "case {case}: edge counts diverge"
        );

        let pr_cfg = PageRankConfig {
            iterations: 6,
            ..Default::default()
        };
        let pr_overlay = pagerank_on(&session, view, &pr_cfg).unwrap();
        let pr_scratch = pagerank_on(&session, &rebuilt, &pr_cfg).unwrap();
        for (v, (a, b)) in pr_overlay.values.iter().zip(&pr_scratch.values).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "case {case} pagerank vertex {v}: {a} vs {b}"
            );
        }
        assert_eq!(
            bfs_on(&session, view, 0).unwrap().values,
            bfs_on(&session, &rebuilt, 0).unwrap().values,
            "case {case} bfs"
        );
        assert_eq!(
            connected_components_on(&session, view).unwrap().values,
            connected_components_on(&session, &rebuilt).unwrap().values,
            "case {case} components"
        );
    }
}

/// An RMAT-9 or 24² grid graph salted with what the generators leave out:
/// an isolated vertex, a max-id vertex reachable only through the salt,
/// self-loops, and a second copy (another weight) of every seventh edge.
fn salted_graph(shape: &str, seed: u64) -> EdgeList {
    let mut rng = StdRng::seed_from_u64(seed);
    let el = match shape {
        "rmat" => graphmat_io::rmat::generate(&RmatConfig::graph500(9).with_seed(seed)),
        _ => graphmat_io::grid::generate(&GridConfig::square(24).with_seed(seed)),
    };
    let n = el.num_vertices();
    let max_id = n + 1; // n itself stays isolated
    let mut tuples = el.into_tuples();
    let copies: Vec<_> = tuples.iter().step_by(7).copied().collect();
    tuples.extend(copies.into_iter().map(|(s, d, w)| (s, d, w + 100.0)));
    tuples.extend([(max_id, max_id, 1.0), (rng.gen_range(0..n), max_id, 2.0)]);
    tuples.push((max_id, rng.gen_range(0..n), 3.0));
    for _ in 0..4 {
        let v = rng.gen_range(0..n);
        tuples.push((v, v, 4.0));
    }
    EdgeList::from_tuples(n + 2, tuples)
}

/// How a base is built and run: an automatic count on 2 lanes (RMAT pushes
/// through 2 partitions and pulls through 16), an explicit count, and the
/// automatic count under runs forced to push, which never derive a mirror.
const LAYOUTS: [&str; 3] = ["automatic", "explicit", "push-only"];

fn build_with<E: Clone>(
    session: &Session,
    edges: &EdgeList<E>,
    layout: &str,
) -> std::sync::Arc<Topology<E>> {
    let builder = session.build_graph(edges);
    let builder = match layout {
        "explicit" => builder.partitions(5),
        _ => builder,
    };
    builder.finish().unwrap()
}

/// A topology's push count and the ranges its kernels run over: push, pull
/// mirror (derived here if no pull has) and `G`'s.
fn layout_of<E: Clone + Send + Sync>(t: &Topology<E>) -> (usize, [Vec<RowRange>; 3]) {
    let mirror = t.out_pull_mirror().expect("a mirror is derived on call");
    let mirror = mirror.partitions().iter().map(|p| p.rows).collect();
    let in_ranges = t.in_partition_ranges().unwrap();
    (
        t.num_partitions(),
        [t.out_partition_ranges(), mirror, in_ranges],
    )
}

#[test]
fn every_compaction_keeps_the_layout_and_answers_like_a_rebuild() {
    // A seeded schedule of batches and compactions over every layout: after
    // each compaction the base keeps the layout it started with, its
    // degrees and edge count are the overlaid view's, and its stored copies
    // and PageRank / BFS / SSSP answers are a rebuild's from the reference.
    use std::collections::BTreeMap;
    let session = Session::with_threads(2).unwrap();
    let push_only = Session::new(
        SessionOptions::default()
            .with_threads(2)
            .with_run_defaults(RunOptions::default().with_backend(Backend::Push)),
    )
    .unwrap();
    let pr_cfg = PageRankConfig {
        iterations: 6,
        ..Default::default()
    };
    for (seed, shape) in [1u64, 2]
        .into_iter()
        .flat_map(|s| [(s, "rmat"), (s, "grid")])
    {
        let edges = salted_graph(shape, 12_000 + seed);
        let n = edges.num_vertices();
        for layout in LAYOUTS {
            let ctx = format!("seed {seed}, {shape}, {layout}");
            let mut rng = StdRng::seed_from_u64(13_000 + seed);
            let base = build_with(&session, &edges, layout);
            if (shape, layout) == ("rmat", "automatic") {
                let mirror = base.out_pull_mirror().map(|m| m.n_partitions());
                assert!(
                    base.num_partitions() == 2 && mirror > Some(8),
                    "{ctx}: {mirror:?}"
                );
            }
            let layout_before = layout_of(&base);
            let store = GraphStore::new(
                base,
                StoreOptions {
                    compaction_threshold: usize::MAX,
                    ..StoreOptions::default()
                },
            );
            // Latest-wins per pair over every admitted op: `None` deletes.
            let mut net: BTreeMap<(u32, u32), Option<f32>> = BTreeMap::new();
            for round in 0..4 {
                let ctx = format!("{ctx}, compaction {round}");
                for _ in 0..rng.gen_range(1u32..3) {
                    let stored = edges.edges();
                    let mut batch = DeltaBatch::new(n);
                    for i in 0..rng.gen_range(20u32..60) {
                        let (s, d, _) = stored[rng.gen_range(0..stored.len())];
                        // A stored pair (twice as often), a mostly absent
                        // one, one into the max-id or the isolated vertex.
                        let (s, d) = match i % 4 {
                            0 | 1 => (s, d),
                            2 => (s, rng.gen_range(0..n)),
                            _ => (rng.gen_range(0..n), n - 1 - rng.gen_range(0u32..2)),
                        };
                        if i % 3 == 0 {
                            batch.delete(s, d).unwrap();
                            net.insert((s, d), None);
                        } else {
                            let w = rng.gen_range(1u32..10) as f32;
                            batch.insert(s, d, w).unwrap();
                            net.insert((s, d), Some(w));
                        }
                    }
                    store.apply(batch).unwrap();
                }
                let overlaid = store.snapshot();
                assert!(store.compact_now(), "{ctx}");
                let snapshot = store.snapshot();
                let compacted = snapshot.base();
                assert!(snapshot.overlay().is_none(), "{ctx}");
                assert_eq!(layout_of(compacted), layout_before, "{ctx}: layout");
                let view = overlaid.view();
                assert_eq!(compacted.out_degrees(), view.out_degrees(), "{ctx}");
                assert_eq!(compacted.in_degrees(), view.in_degrees(), "{ctx}");
                assert_eq!(compacted.num_edges(), view.num_edges(), "{ctx}");

                let mut tuples: Vec<(u32, u32, f32)> = edges
                    .edges()
                    .iter()
                    .filter(|(s, d, _)| !net.contains_key(&(*s, *d)))
                    .copied()
                    .collect();
                tuples.extend(net.iter().filter_map(|(&(s, d), w)| w.map(|w| (s, d, w))));
                let rebuilt = build_with(&session, &EdgeList::from_tuples(n, tuples), layout);
                let probes = edges.edges().iter().map(|&(s, d, _)| (s, d));
                for (s, d) in probes.chain(net.keys().copied()) {
                    let (got, want) = (
                        compacted.edge_multiplicity(s, d),
                        rebuilt.edge_multiplicity(s, d),
                    );
                    assert_eq!(got, want, "{ctx}: copies of ({s}, {d})");
                }

                let root = rng.gen_range(0..n);
                let session = if layout == "push-only" {
                    &push_only
                } else {
                    &session
                };
                let pr = |t| pagerank_on(session, t, &pr_cfg).unwrap().values;
                let pr_bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    pr_bits(pr(compacted)),
                    pr_bits(pr(&rebuilt)),
                    "{ctx}: pagerank"
                );
                let bfs = |t| bfs_on(session, t, root).unwrap().values;
                assert_eq!(bfs(compacted), bfs(&rebuilt), "{ctx}: bfs from {root}");
                let sssp = |t| sssp_on(session, t, root).unwrap().values;
                let sssp_bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    sssp_bits(sssp(compacted)),
                    sssp_bits(sssp(&rebuilt)),
                    "{ctx}: sssp from {root}"
                );
                if layout == "push-only" {
                    let made = rebuilt.out_side().made_mirror();
                    assert!(made.is_none(), "{ctx}: a forced push derived a mirror");
                }
            }
        }
    }
}

/// The invariant a covered pull leans on — `edges_processed == edge_total`
/// holds iff every vertex holding a stored edge sent: on each side, every
/// vertex's merged degree is the number of entries its column of the side's
/// pull mirror stores (the fold of the pending edits, or the base's mirror
/// when none are pending), and the degrees sum to the edge count. The folds
/// are made on a clone of the snapshot's topology, so the store's own
/// snapshot stays unfolded.
fn assert_degrees_count_the_folds(snap: &GraphSnapshot<f32>, ctx: &str) {
    use graphmat::sparse::pull::CsrMirror;
    let column_counts = |mirror: &CsrMirror<f32>| {
        let mut counts = vec![0u32; mirror.ncols() as usize];
        for (_, cols, _) in mirror.partitions().iter().flat_map(|p| p.iter_rows()) {
            cols.iter().for_each(|&j| counts[j as usize] += 1);
        }
        counts
    };
    let topology = snap.view().clone();
    let (out_fold, in_fold) = (
        topology.out_pull_mirror().unwrap(),
        topology.in_pull_mirror(),
    );
    let edges = snap.num_edges() as u64;
    for (side, degrees, fold) in [
        ("out", topology.out_degrees(), out_fold),
        ("in", topology.in_degrees(), in_fold),
    ] {
        assert_eq!(degrees, column_counts(fold), "{ctx}: {side}-degrees");
        let total: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
        assert_eq!(total, edges, "{ctx}: {side}-degrees sum to the edge count");
    }
}

/// A kernel's output as `(row, value bits)`.
type Bits = Vec<(u32, u64)>;

/// `base ⊕ overlay · x`, pushed over the base's matrix and pulled over its
/// mirror, each with the overlay folded in (for the mirror, its edits
/// bucketed by row).
fn push_and_pull(
    base: &Topology<f32>,
    overlay: &graphmat::sparse::overlay::Overlay<f32>,
    executor: &graphmat::sparse::parallel::Executor,
) -> (Bits, Bits) {
    use graphmat::sparse::overlay::{fold_into_mirror, gspmv_overlay_into};
    use graphmat::sparse::spmv::gspmv_csr_pull_into;
    let n = base.num_vertices();
    let mut x: SparseVector<f64> = SparseVector::new(n as usize);
    for v in 0..n {
        x.set(v, 1.0 + f64::from(v).sqrt());
    }
    let multiply = |m: &f64, w: &f32, _| m * f64::from(*w);
    let add = |acc: &mut f64, v: f64| *acc += v;
    let bits = |y: SparseVector<f64>| {
        let entries = y.to_entries().into_iter();
        entries.map(|(k, v)| (k, v.to_bits())).collect()
    };
    let mut pushed = SparseVector::new(n as usize);
    gspmv_overlay_into(
        base.out_matrix(),
        overlay,
        &x,
        &multiply,
        &add,
        executor,
        &mut pushed,
    );
    let mut pulled = SparseVector::new(n as usize);
    let mirror = base.out_pull_mirror().unwrap();
    let folded = fold_into_mirror(mirror, overlay, executor);
    gspmv_csr_pull_into(&folded, &x, &multiply, &add, executor, &mut pulled);
    (bits(pushed), bits(pulled))
}

#[test]
fn every_write_compiles_like_the_whole_history_from_scratch() {
    // A store merges each batch into the overlay it last published. After
    // every batch of a seeded history, that chained overlay must be the one
    // compiled from scratch — on top of the base alone — out of the whole
    // history since the last compaction: the same kernel overlay, degrees,
    // edge count and op counts. Both come out of one builder, so the row
    // view a fold buckets out of it is checked apart: a pull over the fold
    // must answer what a push over the overlay answers, bit for bit.
    use graphmat::delta::DeltaLog;
    let session = Session::with_threads(2).unwrap();
    let executor = graphmat::sparse::parallel::Executor::sequential();
    for (seed, shape) in [1u64, 2]
        .into_iter()
        .flat_map(|s| [(s, "rmat"), (s, "grid")])
    {
        eprintln!("history: seed {seed}, {shape}");
        let edges = salted_graph(shape, 14_000 + seed);
        let n = edges.num_vertices();
        let base = build_with(&session, &edges, "automatic");
        let stored: Vec<(u32, u32)> = edges.edges().iter().map(|&(s, d, _)| (s, d)).collect();
        let twice: Vec<(u32, u32)> = stored
            .iter()
            .copied()
            .filter(|&(s, d)| base.edge_multiplicity(s, d) == 2)
            .collect();
        assert!(
            twice.len() > 4,
            "seed {seed}, {shape}: too few parallel edges"
        );
        let mut rng = StdRng::seed_from_u64(15_000 + seed);
        let mut absent = || loop {
            let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if base.edge_multiplicity(s, d) == 0 {
                break (s, d);
            }
        };
        let absent_pairs: Vec<(u32, u32)> = (0..400).map(|_| absent()).collect();
        let store = GraphStore::new(
            base,
            StoreOptions {
                compaction_threshold: usize::MAX,
                ..StoreOptions::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(16_000 + seed);
        let mut log = DeltaLog::new();
        let mut inserted: Vec<(u32, u32)> = Vec::new();
        for step in 0..12 {
            let ctx = format!("seed {seed}, {shape}, batch {step}");
            let mut batch = DeltaBatch::new(n);
            let pick =
                |rng: &mut StdRng, pairs: &[(u32, u32)]| pairs[rng.gen_range(0..pairs.len())];
            match step % 6 {
                // Inserts of pairs the base does not store, then their
                // deletes: the store has nothing left to publish.
                0 => {
                    let base = store.snapshot().base().clone();
                    let still_absent = absent_pairs
                        .iter()
                        .filter(|&&(s, d)| base.edge_multiplicity(s, d) == 0);
                    inserted = still_absent.step_by(7).take(8).copied().collect();
                    for &(s, d) in &inserted {
                        batch.insert(s, d, rng.gen_range(1u32..10) as f32).unwrap();
                    }
                }
                1 => {
                    for &(s, d) in &inserted {
                        batch.delete(s, d).unwrap();
                    }
                }
                _ => {
                    if step % 6 == 2 {
                        // A delete of a pair nothing touched, an upsert and a
                        // delete of pairs stored twice, a pair written three
                        // times in one batch (the last write wins).
                        let (s, d) = pick(&mut rng, &absent_pairs);
                        batch.delete(s, d).unwrap();
                        let (s, d) = pick(&mut rng, &twice);
                        batch.insert(s, d, 7.5).unwrap();
                        let (s, d) = pick(&mut rng, &twice);
                        batch.delete(s, d).unwrap();
                        let (s, d) = pick(&mut rng, &stored);
                        batch.insert(s, d, 1.5).unwrap();
                        batch.delete(s, d).unwrap();
                        batch.insert(s, d, 2.5).unwrap();
                    }
                    for i in 0..rng.gen_range(20u32..80) {
                        let (s, d) = match i % 4 {
                            0 | 1 => pick(&mut rng, &stored),
                            2 => pick(&mut rng, &absent_pairs),
                            _ => pick(&mut rng, &twice),
                        };
                        if rng.gen_range(0u32..3) == 0 {
                            batch.delete(s, d).unwrap();
                        } else {
                            batch.insert(s, d, rng.gen_range(1u32..10) as f32).unwrap();
                        }
                    }
                }
            }
            log.append(batch.clone());
            let snap = store.apply(batch).unwrap();
            let whole = snap.base().compile_overlay(None, &log.resolve());
            let view = snap.view();
            assert_eq!(view.out_degrees(), whole.out_degrees(), "{ctx}");
            assert_eq!(view.in_degrees(), whole.in_degrees(), "{ctx}");
            assert_eq!(snap.num_edges(), whole.num_edges(), "{ctx}");
            assert_eq!(snap.delta_len(), whole.len(), "{ctx}");
            match snap.overlay() {
                None => assert!(whole.is_empty(), "{ctx}"),
                Some(chained) => {
                    assert!(
                        step % 6 != 1,
                        "{ctx}: a cancelled pending set was published"
                    );
                    assert_eq!(chained.out(), whole.out(), "{ctx}");
                    assert_eq!(chained.out().n_upserts(), whole.out().n_upserts(), "{ctx}");
                    let (pushed, pulled) = push_and_pull(snap.base(), chained.out(), &executor);
                    assert_eq!(pulled, pushed, "{ctx}: pull vs push");
                }
            }
            assert_degrees_count_the_folds(&snap, &ctx);
            if step % 6 == 5 {
                assert!(store.compact_now(), "{ctx}");
                log = DeltaLog::new();
            }
        }
    }
}

#[test]
fn unweighted_runs_agree_with_weighted_topology() {
    // The generic-edge invariant: structure-only algorithms produce identical
    // results on EdgeList<f32> and its zero-byte EdgeList<()> topology.
    for case in 0..CASES {
        let edges = arb_graph(9000 + case, 50, 250);
        let topo = edges.topology();
        assert_eq!(
            bfs_from_zero(&edges),
            bfs_from_zero(&topo),
            "case {case} bfs"
        );
        assert_eq!(components(&edges), components(&topo), "case {case} cc");
    }
}

#[test]
fn apply_writes_exactly_the_changed_vertices_into_the_active_set() {
    // APPLY stores the next active set straight into the state, a word-aligned
    // chunk at a time. Stepping SSSP one superstep per `run_program` call
    // exposes the state after every APPLY: the active set must be exactly the
    // vertices whose distance changed (everyone, under `AlwaysAll`), with no
    // bit past the last vertex — across word-boundary vertex counts, lane
    // counts, both activity policies and every backend choice.
    use graphmat::core::engine::Workspace;
    use graphmat::sparse::parallel::Executor;
    use graphmat_algorithms::sssp::{sssp_reference, SsspProgram, UNREACHABLE};

    let executors = [1, 2, 4, 7].map(Executor::new);
    // 4500 is past the cutoff below which SEND and APPLY run as one chunk.
    for (case, n) in [1u32, 63, 64, 65, 1000, 4500].into_iter().enumerate() {
        let seed = 11_000 + case as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tuples = Vec::new();
        for _ in 0..4 * (n as usize - 1) {
            let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if s != d {
                tuples.push((s, d, rng.gen_range(1u32..10) as f32));
            }
        }
        let edges = EdgeList::from_tuples(n, tuples);
        let topology =
            Topology::from_edge_list(&edges, GraphBuildOptions::default().with_partitions(5));
        let reference: Vec<u32> = sssp_reference(&edges, 0)
            .iter()
            .map(|d| d.to_bits())
            .collect();
        let program = SsspProgram::<f32>::default();

        for executor in &executors {
            for activity in [ActivityPolicy::Changed, ActivityPolicy::AlwaysAll] {
                for backend in [None, Some(Backend::Push), Some(Backend::Pull)] {
                    let ctx = format!(
                        "seed {seed}, n {n}, {} lanes, {activity:?}, {backend:?}",
                        executor.nthreads()
                    );
                    let one_superstep = RunOptions::default()
                        .with_max_iterations(1)
                        .with_activity(activity)
                        .with_backend(backend);
                    let mut state: VertexState<f32> = VertexState::for_topology(&topology);
                    state.set_all_properties(UNREACHABLE);
                    state.set_property(0, 0.0);
                    state.set_active(0);
                    let mut ws = Workspace::new(n as usize);

                    let bits = |state: &VertexState<f32>| -> Vec<u32> {
                        state.properties().iter().map(|d| d.to_bits()).collect()
                    };
                    for superstep in 0.. {
                        assert!(superstep <= n, "{ctx}: SSSP must converge");
                        let before = bits(&state);
                        let result = run_program(
                            &program,
                            &topology,
                            &mut state,
                            &one_superstep,
                            executor,
                            &mut ws,
                        )
                        .unwrap();
                        if result.converged {
                            break;
                        }
                        let after = bits(&state);
                        let changed: Vec<usize> =
                            (0..n as usize).filter(|&v| before[v] != after[v]).collect();
                        let expected =
                            if activity == ActivityPolicy::AlwaysAll && !changed.is_empty() {
                                (0..n as usize).collect()
                            } else {
                                changed.clone()
                            };
                        let active = state.active_bits();
                        let ctx = format!("{ctx}, superstep {superstep}");
                        assert_eq!(active.iter_ones().collect::<Vec<_>>(), expected, "{ctx}");
                        assert_eq!(state.active_count(), expected.len(), "{ctx}");
                        assert_eq!(
                            result.stats.supersteps[0].vertices_changed,
                            changed.len(),
                            "{ctx}"
                        );
                        let tail = n as usize % 64;
                        if tail != 0 {
                            let last = active.words()[active.words().len() - 1];
                            assert_eq!(last >> tail, 0, "{ctx}: bits past the last vertex");
                        }
                    }
                    assert_eq!(bits(&state), reference, "{ctx}");
                }
            }
        }
    }
}
