//! End-to-end tests of the direction-optimized engine: the push and pull
//! backends must be **bit-for-bit interchangeable** (both reduce each
//! destination's messages in the same ascending-source order), and the
//! per-superstep selector must actually flip between them where the
//! workload's frontier density says it should.
//!
//! Property-style coverage follows the repo's offline convention: instead of
//! `proptest`, deterministic RMAT and grid graphs are swept across every
//! edge direction, backend and thread count, so failures reproduce
//! exactly from the case labels in the assertion messages.

use graphmat::prelude::*;
use graphmat_io::{grid, rmat};
use std::sync::Arc;

/// A weighted program parametrized over its scatter direction, chosen so
/// every callback output depends on the message, the edge value *and* the
/// destination property — any backend disagreement shows up immediately.
struct DirectedRelax {
    direction: EdgeDirection,
}

impl GraphProgram for DirectedRelax {
    type VertexProp = f32;
    type Message = f32;
    type Reduced = f32;
    type Edge = f32;

    fn direction(&self) -> EdgeDirection {
        self.direction
    }

    fn send_message(&self, _v: VertexId, dist: &f32) -> Option<f32> {
        if *dist < f32::MAX {
            Some(*dist)
        } else {
            None
        }
    }

    fn process_message(&self, msg: &f32, edge: &f32, dst: &f32) -> f32 {
        // Non-trivial use of all three inputs (and non-commutative in the
        // destination read): relax, slightly biased by the current value.
        let candidate = msg + edge;
        if *dst < f32::MAX {
            candidate.min(*dst + 0.25)
        } else {
            candidate
        }
    }

    fn reduce(&self, acc: &mut f32, value: f32) {
        if value < *acc {
            *acc = value;
        }
    }

    fn apply(&self, reduced: &f32, dist: &mut f32) {
        if *reduced < *dist {
            *dist = *reduced;
        }
    }
}

fn test_graphs() -> Vec<(&'static str, EdgeList)> {
    vec![
        (
            "rmat",
            rmat::generate(&RmatConfig::graph500(9).with_seed(42)),
        ),
        ("grid", grid::generate(&GridConfig::square(24).with_seed(7))),
    ]
}

/// The satellite property test: the selector is bit-identical to both
/// forced backends across RMAT + grid graphs, all three `EdgeDirection`s, 1
/// and 4 threads. f32 comparisons are exact (`to_bits`): the backends must
/// agree to the last ulp, not approximately.
#[test]
fn auto_is_bit_identical_to_every_forced_backend() {
    for (graph_name, edges) in test_graphs() {
        for threads in [1usize, 4] {
            let session = Session::with_threads(threads).unwrap();
            let topo = session.build_graph(&edges).partitions(8).finish().unwrap();
            for direction in [EdgeDirection::Out, EdgeDirection::In, EdgeDirection::Both] {
                let run = |backend: Option<Backend>| {
                    session
                        .run(&*topo, DirectedRelax { direction })
                        .init_all(f32::MAX)
                        .seed_with(0, 0.0)
                        .seed_with(1, 0.5)
                        .backend(backend)
                        .max_iterations(64)
                        .execute()
                        .unwrap()
                };
                let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let auto = run(None);
                let (push, pull) = (run(Some(Backend::Push)), run(Some(Backend::Pull)));
                for (forced, out) in [("push", &push), ("pull", &pull)] {
                    assert_eq!(
                        bits(&auto.values),
                        bits(&out.values),
                        "{graph_name}, {threads} threads, {direction:?}, auto vs {forced}"
                    );
                }
                // The forced-pull run must actually have pulled every
                // superstep, and forced-push runs never pull.
                assert_eq!(
                    pull.stats.pull_supersteps, pull.stats.iterations,
                    "{graph_name} {direction:?}"
                );
                assert_eq!(push.stats.pull_supersteps, 0);
            }
        }
    }
}

/// The satellite unit test: on an RMAT graph the BFS frontier starts tiny
/// (push), explodes through the middle supersteps (pull) and dies out again
/// (push) — the selector must visibly flip, and the distances must still be
/// exactly the reference BFS.
#[test]
fn selector_flips_direction_across_bfs_supersteps() {
    let edges = rmat::generate(&RmatConfig::graph500(10).with_seed(21));
    let session = Session::with_threads(2).unwrap();
    let topo = session.build_graph(&edges.symmetrized()).finish().unwrap();
    let out = bfs_on(&session, &topo, 1).unwrap();
    assert_eq!(
        out.values,
        graphmat_algorithms::bfs::bfs_reference(&edges, 1, true)
    );

    let backends: Vec<Backend> = out.stats.supersteps.iter().map(|s| s.backend).collect();
    assert!(
        backends.first() == Some(&Backend::Push),
        "superstep 0 (single-vertex frontier) must push: {backends:?}"
    );
    assert!(
        backends.contains(&Backend::Pull),
        "the dense middle of the BFS must select pull: {backends:?}"
    );
    assert!(
        backends.last() == Some(&Backend::Push),
        "the dying frontier of the final superstep must push again: {backends:?}"
    );
    assert_eq!(
        out.stats.pull_supersteps,
        backends.iter().filter(|b| **b == Backend::Pull).count()
    );
    // The recorded frontier densities justify the choices: every pull
    // superstep saw a denser frontier than the sparsest push superstep.
    for s in &out.stats.supersteps {
        assert!((0.0..=1.0).contains(&s.frontier_density), "{s:?}");
    }
}

/// Road-network SSSP re-traverses edges for hundreds of supersteps with a
/// frontier that never holds more than a sliver of them. The pull kernel
/// would stream the whole matrix each time, so the selector must never pick
/// it — a rule that discounts explored edges (Beamer's) runs out of
/// unexplored ones part-way and pulls from there on.
#[test]
fn road_sssp_never_pulls() {
    let edges = grid::generate(&GridConfig::square(96).with_seed(3));
    let session = Session::with_threads(2).unwrap();
    let topo = session.build_graph(&edges).finish().unwrap();
    let out = sssp_on(&session, &topo, 0).unwrap();
    let pulls: Vec<usize> = out
        .stats
        .supersteps
        .iter()
        .filter(|s| s.backend == Backend::Pull)
        .map(|s| s.iteration)
        .collect();
    assert_eq!(
        out.stats.pull_supersteps, 0,
        "pulled at supersteps {pulls:?}"
    );
    assert!(out.stats.iterations > 96, "{}", out.stats.iterations);
    let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let reference = graphmat_algorithms::sssp::sssp_reference(&edges, 0);
    assert_eq!(bits(&out.values), bits(&reference));
}

/// What a BFS leaves behind: the distances, and the work totals a snapshot
/// with pending edits must share with its rebuild.
#[derive(Debug, PartialEq)]
struct Search {
    distances: Vec<u32>,
    supersteps: usize,
    pull_supersteps: usize,
    vertices_updated: u64,
}

fn search(session: &Session, view: &Topology<()>, root: VertexId) -> Search {
    let mut state: VertexState<u32> = VertexState::new(view.num_vertices() as usize);
    let stats = graphmat_algorithms::bfs::bfs_into(session, view, root, None, &mut state)
        .unwrap()
        .stats;
    Search {
        distances: state.into_properties(),
        supersteps: stats.iterations,
        pull_supersteps: stats.pull_supersteps,
        vertices_updated: stats.vertices_updated,
    }
}

/// Where BFS really pulls — a graph with two bottom-up supersteps, the
/// second priced by what the first gathered — the masked pull changes no
/// distance: `Auto` ≡ forced push ≡ forced pull ≡ the queue reference, on
/// every lane and partition count, over a bare topology, over pending edits
/// and over the topology a compaction folds them into; and the edited
/// snapshot takes its rebuild's trajectory, pull for pull.
#[test]
fn masked_pull_bfs_matches_the_reference_under_every_backend() {
    let directed = rmat::generate(&RmatConfig::graph500(12).with_seed(21));
    let edges = directed.symmetrized().topology();
    let n = edges.num_vertices();
    let root = 1;
    let reference = graphmat_algorithms::bfs::bfs_reference(&edges, root, false);

    // Pending edits: every 97th stored edge deleted, as many pairs inserted —
    // among them a way into vertices the base leaves unreached.
    let deleted: Vec<(u32, u32)> = (edges.edges().iter().step_by(97))
        .map(|&(s, d, ())| (s, d))
        .collect();
    let unreached = (0..n).filter(|&v| reference[v as usize] == u32::MAX);
    let inserted: Vec<(u32, u32)> = (unreached.take(deleted.len()))
        .enumerate()
        .map(|(i, v)| ((i as u32 * 7919) % n, v))
        .collect();
    assert!(inserted.len() > 8, "RMAT leaves isolated vertices");
    let edited: Vec<(u32, u32)> = (edges.edges().iter().map(|&(s, d, ())| (s, d)))
        .filter(|pair| !deleted.contains(pair))
        .chain(inserted.iter().copied())
        .collect();
    let edited_reference =
        graphmat_algorithms::bfs::bfs_reference(&EdgeList::from_pairs(n, edited), root, false);
    assert_ne!(edited_reference, reference, "the edits move distances");

    // `0`: automatic — RMAT's push merged to one partition per lane.
    for partitions in [0usize, 1, 16] {
        for lanes in [1usize, 2] {
            let case = format!("{partitions} partitions, {lanes} lanes");
            let session = |backend: Option<Backend>| {
                let run_defaults = RunOptions {
                    backend,
                    ..RunOptions::default()
                };
                let options = SessionOptions::default()
                    .with_threads(lanes)
                    .with_run_defaults(run_defaults);
                Session::new(options).unwrap()
            };
            let sessions = [
                ("auto", None),
                ("push", Some(Backend::Push)),
                ("pull", Some(Backend::Pull)),
            ]
            .map(|(name, backend)| (name, session(backend)));
            let topo = (sessions[0].1.build_graph(&edges))
                .partitions(partitions)
                .finish()
                .unwrap();
            if partitions == 0 {
                assert_eq!(topo.num_partitions(), lanes, "{case}");
            }
            let store = GraphStore::new(
                Arc::clone(&topo),
                StoreOptions {
                    compaction_threshold: usize::MAX,
                    background: false,
                    ..StoreOptions::default()
                },
            );
            let mut batch = DeltaBatch::new(n);
            for &(s, d) in &deleted {
                batch.delete(s, d).unwrap();
            }
            for &(s, d) in &inserted {
                batch.insert(s, d, ()).unwrap();
            }
            let pending = store.apply(batch).unwrap();
            assert!(pending.overlay().is_some());
            let over_edits = sessions
                .each_ref()
                .map(|(_, s)| search(s, pending.view(), root));
            assert!(store.compact_now());
            let rebuilt = store.snapshot();
            assert!(rebuilt.overlay().is_none());

            for ((backend, session), over_edits) in sessions.iter().zip(over_edits) {
                let case = format!("{case}, {backend}");
                let bare = search(session, &topo, root);
                assert_eq!(bare.distances, reference, "{case}");
                assert_eq!(over_edits.distances, edited_reference, "{case} over edits");
                let over_rebuild = search(session, rebuilt.base(), root);
                assert_eq!(over_edits, over_rebuild, "{case}: edits vs their rebuild");
                for run in [&bare, &over_edits] {
                    let pulls = run.pull_supersteps;
                    match *backend {
                        "auto" => assert!((2..run.supersteps).contains(&pulls), "{case}: {run:?}"),
                        "push" => assert_eq!(pulls, 0, "{case}"),
                        _ => assert_eq!(pulls, run.supersteps, "{case}"),
                    }
                }
            }
        }
    }
}

/// BFS, SSSP, PageRank and connected components answer like their
/// `*_reference` on both push layouts of one RMAT graph — merged to one
/// partition per lane (automatic) and the fine 8 × lanes partitions
/// (explicit), both with the same fine mirror — at 1 and 2 lanes, and the
/// two layouts answer bit for bit alike. (PageRank's reference sums in
/// another order, so it is met to 1e-9; the layouts still agree exactly.)
#[test]
fn merged_and_fine_push_layouts_answer_like_the_references() {
    use graphmat_algorithms::{bfs, connected_components, pagerank, sssp};
    let edges = rmat::generate(&RmatConfig::graph500(10).with_seed(13));
    let symmetric = edges.symmetrized();
    let cfg = PageRankConfig::default();
    let bfs_want = bfs::bfs_reference(&edges, 1, true);
    let cc_want = connected_components::connected_components_reference(&symmetric);
    let sssp_want: Vec<u32> = (sssp::sssp_reference(&edges, 0).iter())
        .map(|d| d.to_bits())
        .collect();
    let pr_want = pagerank::pagerank_reference(&edges, cfg.random_surf, cfg.iterations);
    for lanes in [1usize, 2] {
        let session = Session::with_threads(lanes).unwrap();
        let mut ranks: Vec<Vec<u64>> = Vec::new();
        for partitions in [0, 8 * lanes] {
            let case = format!("{lanes} lanes, {partitions} partitions");
            let build = |el: &EdgeList| {
                (session.build_graph(el).partitions(partitions))
                    .finish()
                    .unwrap()
            };
            let (topo, sym_topo) = (build(&edges), build(&symmetric));
            let mirror = topo.out_pull_mirror().unwrap().n_partitions();
            let merged = partitions == 0;
            let push = if merged { lanes } else { mirror };
            assert_eq!(topo.num_partitions(), push, "{case}");
            assert_eq!(sym_topo.num_partitions() == lanes, merged, "{case}");

            let bfs_got = bfs_on(&session, &sym_topo, 1).unwrap();
            assert!(bfs_got.stats.pull_supersteps > 0, "{case}");
            assert_eq!(bfs_got.values, bfs_want, "bfs, {case}");
            let cc_got = connected_components_on(&session, &sym_topo).unwrap();
            assert_eq!(cc_got.values, cc_want, "components, {case}");
            let sssp_got = sssp_on(&session, &topo, 0).unwrap().values;
            let sssp_bits: Vec<u32> = sssp_got.iter().map(|d| d.to_bits()).collect();
            assert_eq!(sssp_bits, sssp_want, "sssp, {case}");
            let pr_got = pagerank_on(&session, &topo, &cfg).unwrap().values;
            for (v, (got, want)) in pr_got.iter().zip(&pr_want).enumerate() {
                assert!((got - want).abs() < 1e-9, "pagerank, {case}, vertex {v}");
            }
            ranks.push(pr_got.iter().map(|r| r.to_bits()).collect());
        }
        assert_eq!(
            ranks[0], ranks[1],
            "pagerank, {lanes} lanes: merged vs fine"
        );
    }
}

/// A program that keeps the default `receives` is priced at every stored
/// edge on every superstep, pulled before or not: PageRank, SSSP, connected
/// components and a `Both` traversal take the trajectory
/// `choose_backend(frontier edges, stored total)` dictates, as they did
/// before a pull reported what it gathered.
#[test]
fn a_default_hook_program_is_priced_at_the_stored_total_every_superstep() {
    let edges = rmat::generate(&RmatConfig::graph500(10).with_seed(5));
    let session = Session::with_threads(2).unwrap();
    let topo = session.build_graph(&edges).finish().unwrap();
    let symmetric = (session
        .build_graph(&edges.symmetrized().topology())
        .finish())
    .unwrap();
    let both = session
        .run(
            &*topo,
            DirectedRelax {
                direction: EdgeDirection::Both,
            },
        )
        .init_all(f32::MAX)
        .seed_with(0, 0.0)
        .max_iterations(64)
        .execute()
        .unwrap();
    let stored = topo.num_edges() as u64;
    for (name, stats, total) in [
        (
            "pagerank",
            pagerank_on(&session, &topo, &PageRankConfig::default())
                .unwrap()
                .stats,
            stored,
        ),
        ("sssp", sssp_on(&session, &topo, 0).unwrap().stats, stored),
        (
            "components",
            connected_components_on(&session, &symmetric).unwrap().stats,
            symmetric.num_edges() as u64,
        ),
        ("both legs", both.stats, 2 * stored),
    ] {
        assert!(stats.pull_supersteps > 0, "{name} pulls");
        for s in &stats.supersteps {
            assert_eq!(
                s.backend,
                graphmat::core::choose_backend(s.edges_processed, total),
                "{name}, superstep {}",
                s.iteration
            );
        }
    }
}

/// A 2-lane session whose runs default to the paper's always-push
/// configuration (`Backend::Push`).
fn push_session() -> Session {
    Session::new(
        SessionOptions::default()
            .with_threads(2)
            .with_run_defaults(RunOptions::default().with_backend(Backend::Push)),
    )
    .unwrap()
}

/// PageRank activates every vertex every superstep — the canonical
/// dense-frontier workload. Unforced it must settle on the pull backend
/// while producing exactly the push ranks.
#[test]
fn pagerank_selects_pull_on_every_superstep() {
    let edges = rmat::generate(&RmatConfig::graph500(9).with_seed(5));
    let session = Session::with_threads(2).unwrap();
    let topo = session.build_graph(&edges).finish().unwrap();
    let cfg = PageRankConfig::default();
    let auto = pagerank_on(&session, &topo, &cfg).unwrap();
    assert_eq!(
        auto.stats.pull_supersteps, auto.stats.iterations,
        "every all-vertices-active superstep should pull"
    );
    for s in &auto.stats.supersteps {
        assert_eq!(s.backend, Backend::Pull);
        assert_eq!(s.frontier_density, 1.0);
    }

    // Bit-for-bit against the paper's always-push configuration on the
    // same topology.
    let push = pagerank_on(&push_session(), &topo, &cfg).unwrap();
    assert_eq!(auto.values, push.values);
    assert_eq!(push.stats.pull_supersteps, 0);
}

/// All eight packaged algorithms, run through a default (unforced) session and
/// through a forced-push session over the same topologies, compared
/// bit-for-bit — the acceptance bar of the direction-optimization PR.
#[test]
fn all_algorithms_agree_between_auto_and_forced_push() {
    let edges = rmat::generate(&RmatConfig::graph500(8).with_seed(33));
    let auto = Session::with_threads(2).unwrap();
    let push = push_session();

    // BFS / CC run on the symmetrized graph.
    let sym_topo = auto
        .build_graph(&edges.symmetrized().topology())
        .finish()
        .unwrap();
    let bfs = bfs_on(&auto, &sym_topo, 0).unwrap();
    assert!(
        bfs.stats.pull_supersteps > 0,
        "the selector must actually pull"
    );
    assert_eq!(
        bfs.values,
        bfs_on(&push, &sym_topo, 0).unwrap().values,
        "bfs"
    );
    assert_eq!(
        connected_components_on(&auto, &sym_topo).unwrap().values,
        connected_components_on(&push, &sym_topo).unwrap().values,
        "connected components"
    );

    let topo = auto.build_graph(&edges).finish().unwrap();
    assert_eq!(
        sssp_on(&auto, &topo, 0).unwrap().values,
        sssp_on(&push, &topo, 0).unwrap().values,
        "sssp"
    );
    let pr_cfg = PageRankConfig::default();
    assert_eq!(
        pagerank_on(&auto, &topo, &pr_cfg).unwrap().values,
        pagerank_on(&push, &topo, &pr_cfg).unwrap().values,
        "pagerank"
    );
    let dpr_cfg = DeltaPageRankConfig::default();
    assert_eq!(
        delta_pagerank_on(&auto, &topo, &dpr_cfg).unwrap().values,
        delta_pagerank_on(&push, &topo, &dpr_cfg).unwrap().values,
        "delta pagerank"
    );
    assert_eq!(
        in_degrees_on(&auto, &topo).unwrap().values,
        in_degrees_on(&push, &topo).unwrap().values,
        "in-degrees"
    );
    assert_eq!(
        out_degrees_on(&auto, &topo).unwrap().values,
        out_degrees_on(&push, &topo).unwrap().values,
        "out-degrees"
    );

    let tc_edges = rmat::generate(&RmatConfig::triangle_counting(7).with_seed(3));
    let tc_topo = auto.build_graph(&tc_edges.to_dag()).finish().unwrap();
    assert_eq!(
        triangle_count_on(&auto, &tc_topo).unwrap().values,
        triangle_count_on(&push, &tc_topo).unwrap().values,
        "triangle count"
    );

    let ratings =
        graphmat_io::bipartite::generate(&BipartiteConfig::netflix_like(64, 48, 600).with_seed(9));
    let cf_cfg = CfConfig {
        iterations: 3,
        ..Default::default()
    };
    let cf_topo = auto.build_graph(&ratings.edges).finish().unwrap();
    assert_eq!(
        collaborative_filtering_on::<8, _>(&auto, &cf_topo, &cf_cfg)
            .unwrap()
            .values,
        collaborative_filtering_on::<8, _>(&push, &cf_topo, &cf_cfg)
            .unwrap()
            .values,
        "collaborative filtering"
    );
}

/// Pooled states + workspace recycling across backend switches: rerunning
/// through one state with different forced backends must keep results
/// identical and never corrupt the one cached workspace they all share.
#[test]
fn pooled_state_survives_backend_switches() {
    let edges = rmat::generate(&RmatConfig::graph500(8).with_seed(11));
    let session = Session::with_threads(2).unwrap();
    let topo: Arc<Topology<f32>> = session.build_graph(&edges).finish().unwrap();
    let mut state: VertexState<f32> = VertexState::for_topology(&topo);

    let mut results: Vec<Vec<f32>> = Vec::new();
    for backend in [None, Some(Backend::Pull), Some(Backend::Push), None] {
        session
            .run(
                &*topo,
                DirectedRelax {
                    direction: EdgeDirection::Out,
                },
            )
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .backend(backend)
            .max_iterations(64)
            .execute_with(&mut state)
            .unwrap();
        results.push(state.properties().to_vec());
    }
    for w in results.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}
