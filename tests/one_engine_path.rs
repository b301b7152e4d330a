//! One engine path: every driver takes a `&Topology` — a `&Arc<Topology>`
//! coerces to it, and a `GraphStore` snapshot's view is one, pending edits
//! and all — so one `x_into` function serves what five used to, and the run
//! prologue's checks fire once, in one order, wherever the run enters.

use graphmat::algorithms::bfs::bfs_into;
use graphmat::algorithms::connected_components::connected_components_into;
use graphmat::algorithms::degree::{in_degrees_into, out_degrees_into};
use graphmat::algorithms::delta_pagerank::DeltaPrVertex;
use graphmat::algorithms::pagerank::{pagerank_into, PageRankVertex};
use graphmat::algorithms::sssp::sssp_into;
use graphmat::prelude::*;
use std::sync::Arc;

/// The forms a caller can hold a graph in.
#[derive(Clone, Copy)]
enum Graph<'a> {
    Topology(&'a Topology<f32>),
    Shared(&'a Arc<Topology<f32>>),
}

/// Evaluate `$call` with `$g` bound to the graph in the form it is held in:
/// each arm hands the drivers a different argument type, which coerces to
/// `&Topology`.
macro_rules! with_graph {
    ($graph:expr, |$g:ident| $call:expr) => {
        match $graph {
            Graph::Topology($g) => $call,
            Graph::Shared($g) => $call,
        }
    };
}

/// What a run leaves behind that must not depend on how the graph was
/// passed: the result's bits and the engine's work totals.
#[derive(Debug, PartialEq)]
struct Run {
    bits: Vec<u64>,
    iterations: usize,
    pull_supersteps: usize,
    edges_processed: u64,
    messages_sent: u64,
    vertices_updated: u64,
}

fn finish(result: RunResult, bits: impl Iterator<Item = u64>) -> Run {
    Run {
        bits: bits.collect(),
        iterations: result.stats.iterations,
        pull_supersteps: result.stats.pull_supersteps,
        edges_processed: result.stats.edges_processed,
        messages_sent: result.stats.messages_sent,
        vertices_updated: result.stats.vertices_updated,
    }
}

fn fresh<V: Clone + Default>(graph: Graph<'_>) -> VertexState<V> {
    let n = match graph {
        Graph::Topology(t) => t.num_vertices(),
        Graph::Shared(t) => t.num_vertices(),
    };
    VertexState::new(n as usize)
}

fn pagerank(session: &Session, graph: Graph<'_>) -> Run {
    let cfg = PageRankConfig {
        iterations: 6,
        ..Default::default()
    };
    let mut state = fresh(graph);
    let result = with_graph!(graph, |g| pagerank_into(session, g, &cfg, None, &mut state));
    finish(
        result.unwrap(),
        state.properties().iter().map(|p| p.rank.to_bits()),
    )
}

fn bfs(session: &Session, graph: Graph<'_>) -> Run {
    let mut state = fresh(graph);
    let result = with_graph!(graph, |g| bfs_into(session, g, 1, None, &mut state));
    finish(
        result.unwrap(),
        state.properties().iter().map(|&d| u64::from(d)),
    )
}

fn sssp(session: &Session, graph: Graph<'_>) -> Run {
    let mut state = fresh(graph);
    let result = with_graph!(graph, |g| sssp_into(session, g, 1, None, &mut state));
    finish(
        result.unwrap(),
        state.properties().iter().map(|d| u64::from(d.to_bits())),
    )
}

fn components(session: &Session, graph: Graph<'_>) -> Run {
    let mut state = fresh(graph);
    let result = with_graph!(graph, |g| connected_components_into(
        session, g, None, &mut state
    ));
    finish(
        result.unwrap(),
        state.properties().iter().map(|&l| u64::from(l)),
    )
}

fn in_degrees(session: &Session, graph: Graph<'_>) -> Run {
    let mut state = fresh(graph);
    let result = with_graph!(graph, |g| in_degrees_into(session, g, None, &mut state));
    finish(result.unwrap(), state.properties().iter().copied())
}

fn out_degrees(session: &Session, graph: Graph<'_>) -> Run {
    let mut state = fresh(graph);
    let result = with_graph!(graph, |g| out_degrees_into(session, g, None, &mut state));
    finish(result.unwrap(), state.properties().iter().copied())
}

fn collaborative_filtering(session: &Session, graph: Graph<'_>) -> Run {
    let cfg = CfConfig {
        iterations: 3,
        ..Default::default()
    };
    let out = with_graph!(graph, |g| collaborative_filtering_on::<4, _>(
        session, g, &cfg
    ))
    .unwrap();
    let result = RunResult {
        stats: out.stats,
        converged: out.converged,
    };
    finish(result, out.values.iter().flatten().map(|f| f.to_bits()))
}

type Served = fn(&Session, Graph<'_>) -> Run;

/// The five served algorithms.
const SERVED: [(&str, Served); 5] = [
    ("pagerank", pagerank),
    ("bfs", bfs),
    ("sssp", sssp),
    ("components", components),
    ("in_degrees", in_degrees),
];

/// The two drivers that scatter along in-edges (`In`, `Both`): the first of
/// them to run on a topology is what derives its `G`.
const INWARD: [(&str, Served); 2] = [
    ("out_degrees", out_degrees),
    ("collaborative_filtering", collaborative_filtering),
];

fn manual_store(base: &Arc<Topology<f32>>) -> Arc<GraphStore<f32>> {
    GraphStore::new(
        Arc::clone(base),
        StoreOptions {
            compaction_threshold: usize::MAX,
            ..StoreOptions::default()
        },
    )
}

#[test]
fn one_driver_serves_every_way_of_holding_a_graph() {
    let edges = graphmat::io::rmat::generate(&RmatConfig::graph500(8).with_seed(17));
    let session = Session::with_threads(2).unwrap();
    let topology = session.build_graph(&edges).finish().unwrap();
    // RMAT stores its columns in many of 8 × lanes partitions: the push is
    // merged to one partition per lane, the pull mirror keeps the fine ones.
    assert_eq!(topology.num_partitions(), 2);
    let mirror = topology.out_pull_mirror().unwrap();
    assert!(mirror.n_partitions() > 8, "{}", mirror.n_partitions());
    let store = manual_store(&topology);
    let n = topology.num_vertices();

    let mut batch = DeltaBatch::new(n);
    batch.insert(1, n - 1, 2.0).unwrap();
    batch.insert(n - 1, 3, 1.0).unwrap();
    batch
        .delete(edges.edges()[0].0, edges.edges()[0].1)
        .unwrap();

    let drivers = || SERVED.iter().chain(&INWARD);
    for (name, run) in drivers() {
        // Version 0: the bare topology, however it is handed over.
        let unedited = store.snapshot();
        assert!(unedited.overlay().is_none());
        let reference = run(&session, Graph::Topology(&topology));
        for (form, graph) in [
            ("&Arc<Topology>", Graph::Shared(&topology)),
            ("snapshot.view()", Graph::Topology(unedited.view())),
        ] {
            assert_eq!(run(&session, graph), reference, "{name} via {form}");
        }
    }

    // Pending edits: the same drivers over base ⊕ overlay answer exactly as
    // over a topology rebuilt from the edited edge list — value bits, work
    // totals and the push/pull trajectory alike.
    let pending = store.apply(batch).unwrap();
    assert!(pending.overlay().is_some());
    let overlaid: Vec<Run> = drivers()
        .map(|(_, run)| run(&session, Graph::Topology(pending.view())))
        .collect();
    assert!(store.compact_now());
    let rebuilt = store.snapshot();
    assert!(rebuilt.overlay().is_none());
    // Compaction folded into Gᵀ alone; the In/Both drivers derive the new G.
    let out_only = rebuilt.base().matrix_bytes();
    for ((name, run), overlaid) in drivers().zip(overlaid) {
        let rebuilt = run(&session, Graph::Shared(rebuilt.base()));
        assert_eq!(overlaid, rebuilt, "{name} over a pending overlay");
        if ["pagerank", "components"].contains(name) {
            assert!(overlaid.pull_supersteps > 0, "{name} pulls over edits");
        }
    }
    assert!(rebuilt.base().matrix_bytes() > out_only);
}

/// Counts messages per vertex along a configurable direction — the degree
/// program, hand-written so the run-builder route can be exercised with
/// both an `Out` and an `In` traversal over a `u64` state.
struct Count {
    direction: EdgeDirection,
}

impl GraphProgram for Count {
    type VertexProp = u64;
    type Message = u64;
    type Reduced = u64;
    type Edge = f32;

    fn direction(&self) -> EdgeDirection {
        self.direction
    }

    fn send_message(&self, _v: VertexId, _count: &u64) -> Option<u64> {
        Some(1)
    }

    fn process_message(&self, msg: &u64, _edge: &f32, _dst: &u64) -> u64 {
        *msg
    }

    fn reduce(&self, acc: &mut u64, value: u64) {
        *acc += value;
    }

    fn apply(&self, reduced: &u64, count: &mut u64) {
        *count = *reduced;
    }
}

/// `run` must fail the way `expected` says and leave a state of `state_len`
/// sentinel-filled vertices exactly as it found it.
fn assert_rejected_untouched<V: Clone + PartialEq + Default + Send + Sync + 'static>(
    label: &str,
    state_len: usize,
    sentinel: V,
    run: &dyn Fn(&mut VertexState<V>) -> Result<RunResult, GraphMatError>,
    expected: &dyn Fn(&GraphMatError) -> bool,
) {
    let mut state: VertexState<V> = VertexState::new(state_len);
    state.set_all_properties(sentinel.clone());
    state.set_active(2);
    let err = run(&mut state).unwrap_err();
    assert!(expected(&err), "{label}: got {err}");
    assert!(
        state.properties().iter().all(|p| *p == sentinel),
        "{label}: properties touched"
    );
    assert_eq!(state.active_count(), 1, "{label}");
    assert!(state.is_active(2), "{label}");
    assert!(!state.has_cached_workspace(), "{label}");
}

/// A session of one lane whose runs all use `backend`.
fn forced(backend: Backend) -> Session {
    Session::new(
        SessionOptions::default()
            .with_threads(1)
            .with_run_defaults(RunOptions::default().with_backend(backend)),
    )
    .unwrap()
}

/// A run entered by some route, through the session it is handed.
type ThroughSession<'a, V> =
    &'a dyn Fn(&Session, &mut VertexState<V>) -> Result<RunResult, GraphMatError>;

/// `run` through a session forcing pulls and one forcing pushes, each into a
/// fresh state of 4 vertices: both succeed, the first pulls on every
/// superstep and the second on none, and their properties agree bit for bit.
fn assert_pulls_like_pushes<V: Clone + Default>(
    label: &str,
    run: ThroughSession<'_, V>,
    bits: fn(&V) -> u64,
) {
    let [pulled, pushed] = [Backend::Pull, Backend::Push].map(|backend| {
        let mut state: VertexState<V> = VertexState::new(4);
        let result = run(&forced(backend), &mut state);
        let stats = result
            .unwrap_or_else(|e| panic!("{label}, {backend:?}: {e}"))
            .stats;
        let pulls = if backend == Backend::Pull {
            stats.iterations
        } else {
            0
        };
        assert!(stats.iterations > 0, "{label}, {backend:?}");
        assert_eq!(stats.pull_supersteps, pulls, "{label}, {backend:?}");
        state.properties().iter().map(bits).collect::<Vec<_>>()
    });
    assert_eq!(pulled, pushed, "{label}");
}

#[test]
fn the_prologue_rejects_in_one_order_before_anything_is_touched() {
    const SENTINEL: u64 = 7;
    let edges = EdgeList::from_tuples(4, vec![(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
    // Every run below forces the pull backend: on a fresh topology, which no
    // run has pulled, and on a snapshot of it with edits pending.
    let session = forced(Backend::Pull);
    let fresh = session.build_graph(&edges).finish().unwrap();
    let store = manual_store(&fresh);
    let mut batch = DeltaBatch::new(4);
    batch.insert(3, 0, 1.0).unwrap();
    let pending = store.apply(batch).unwrap();
    assert!(pending.overlay().is_some());
    assert!(fresh.out_side().made_mirror().is_none());

    // The fault a run over either can carry: a state of the wrong length,
    // which the prologue reports before anything is touched — an `In` run
    // before it derives the in side of the edits. Neither a missing mirror
    // nor pending edits is a fault: a forced pull derives or folds them.
    type Expect<'a> = &'a dyn Fn(&GraphMatError) -> bool;
    let cases: [(&str, &Topology<f32>, usize, EdgeDirection, Expect<'_>); 1] =
        [
            ("state length", pending.view(), 3, EdgeDirection::In, &|e| {
                *e == GraphMatError::StateLengthMismatch {
                    state_vertices: 3,
                    topology_vertices: 4,
                }
            }),
        ];

    for (name, view, state_len, direction, expected) in cases {
        let through_the_builder = |state: &mut VertexState<u64>| {
            session
                .run(view, Count { direction })
                .init_all(0)
                .activate_all()
                .max_iterations(1)
                .execute_with(state)
        };
        let through_a_driver = |state: &mut VertexState<u64>| match direction {
            EdgeDirection::In => out_degrees_into(&session, view, None, state),
            _ => in_degrees_into(&session, view, None, state),
        };
        type Route<'a> = &'a dyn Fn(&mut VertexState<u64>) -> Result<RunResult, GraphMatError>;
        let routes: [(&str, Route<'_>); 2] = [
            ("Session::run", &through_the_builder),
            ("x_into", &through_a_driver),
        ];
        for (route, run) in routes {
            let label = format!("{name} via {route}");
            assert_rejected_untouched(&label, state_len, SENTINEL, run, expected);
        }
    }
    assert!(pending.view().in_side().is_none(), "a rejected run derived");

    // Forced pulls over the fresh topology and over its pending edits run —
    // the first derives the base's mirror, the second folds it — through
    // every route, and answer like forced pushes.
    for (name, view) in [("fresh", &*fresh), ("pending", pending.view())] {
        for direction in [EdgeDirection::Out, EdgeDirection::In] {
            let label = format!("{name}, {direction:?}");
            let through_the_builder = |session: &Session, state: &mut VertexState<u64>| {
                session
                    .run(view, Count { direction })
                    .init_all(0)
                    .activate_all()
                    .max_iterations(1)
                    .execute_with(state)
            };
            let through_a_driver = |session: &Session, state: &mut VertexState<u64>| match direction
            {
                EdgeDirection::In => out_degrees_into(session, view, None, state),
                _ => in_degrees_into(session, view, None, state),
            };
            let count = |c: &u64| *c;
            assert_pulls_like_pushes(
                &format!("{label} via Session::run"),
                &through_the_builder,
                count,
            );
            assert_pulls_like_pushes(&format!("{label} via x_into"), &through_a_driver, count);
        }
        assert_pulls_like_pushes(
            &format!("{name} via pagerank_into"),
            &|session, state| pagerank_into(session, view, &PageRankConfig::default(), None, state),
            |v: &PageRankVertex| v.rank.to_bits(),
        );
        assert_pulls_like_pushes(
            &format!("{name} via delta_pagerank_into"),
            &|session, state| {
                delta_pagerank_into(session, view, &DeltaPageRankConfig::default(), None, state)
            },
            |v: &DeltaPrVertex| v.rank.to_bits(),
        );
    }
    assert!(fresh.out_side().made_mirror().is_some());

    // The rejected runs left nothing behind: a state they bounced off serves
    // the next valid query.
    let mut state: VertexState<u64> = VertexState::new(4);
    state.set_all_properties(SENTINEL);
    in_degrees_into(&session, &fresh, None, &mut state).unwrap();
    assert_eq!(state.properties(), &[0, 1, 2, 1]);
    let push = Session::sequential();
    in_degrees_into(&push, pending.view(), None, &mut state).unwrap();
    assert_eq!(state.properties(), &[1, 1, 2, 1]);
}
