//! Graph algorithms written as GraphMat vertex programs.
//!
//! The paper evaluates five algorithms chosen for their diversity (§3):
//!
//! * [`pagerank`] — PageRank (iterative ranking, all vertices active every
//!   superstep);
//! * [`bfs`] — Breadth-First Search (traversal, frontier-driven);
//! * [`collaborative_filtering`] — matrix factorization by gradient descent
//!   on a bipartite ratings graph (heavy per-vertex state, a `[f64; K]`
//!   with `K` a const generic, scattered along both directions);
//! * [`triangle_count`] — triangle counting (large messages: each vertex
//!   sends its in-neighbour list, a row borrowed from the pull mirror);
//! * [`sssp`] — single-source shortest paths (Bellman-Ford with an active
//!   frontier).
//!
//! Beyond the paper's set, the crate also ships [`connected_components`],
//! [`degree`] and [`delta_pagerank`] as extensions demonstrating that the
//! same `GraphProgram` abstraction covers more algorithms without backend
//! changes.
//!
//! Every algorithm follows the same pattern as the paper's appendix listing:
//! **one** program implementing [`graphmat_core::GraphProgram`], none of
//! which allocates per edge or per message (plus a `*Config` struct where
//! there are parameters to set), and at most **two** drivers,
//! both taking `&`[`graphmat_core::Session`] and a
//! `&`[`graphmat_core::Topology`] — a `&Arc<Topology>` coerces to one, and
//! `snapshot.view()` of a [`graphmat_core::GraphStore`] snapshot is one, so
//! the same function serves a resident topology and a streaming snapshot
//! with pending edits:
//!
//! * the **pooled** driver `x_into(session, view, …, deadline, &mut state)`
//!   (`pagerank_into`, `bfs_into`, `sssp_into`, `connected_components_into`,
//!   `in_degrees_into` / `out_degrees_into`, `delta_pagerank_into`): the run
//!   writes into a caller-owned [`graphmat_core::VertexState`] (typically
//!   recycled through a [`graphmat_core::StatePool`]) and takes an optional
//!   deadline. A long-running server that keeps one pool per worker per
//!   algorithm allocates nothing per query in the steady state — the state
//!   vector and the engine workspace cached inside it are both reused;
//! * the **allocating** driver `x_on(session, view, cfg)`: a fresh state,
//!   the pooled driver, the per-vertex values projected out into an
//!   [`AlgorithmOutput`].
//!
//! The topology is built once (see [`graphmat_core::Session::build_graph`]),
//! shared via `Arc`, and any number of drivers can run against it
//! **concurrently** from different threads through one session. Drivers
//! return `Result<_, GraphMatError>` instead of panicking, and they do *not*
//! preprocess the graph — symmetrize / DAG-reduce the edge list before
//! building the topology (each driver documents what it expects). Backend
//! and iteration-recording choices come from the session's run
//! defaults; each driver pins only what its semantics require (activity
//! policy, termination).
//!
//! All drivers are **generic over the edge value type**. Structure-only
//! algorithms (BFS, connected components, degree, triangle counting,
//! PageRank) accept any `EdgeList<E>` and simply ignore the values — run
//! them on an `EdgeList<()>` for the zero-cost unweighted fast path, where
//! the adjacency matrices store no edge value bytes at all. Weight-consuming
//! algorithms (SSSP, collaborative filtering) bound their edge type with
//! [`graphmat_io::edgelist::EdgeWeight`], so `f32`, integer weights and
//! even `()` (unit weights) all work without touching the backend.

pub mod bfs;
pub mod collaborative_filtering;
pub mod connected_components;
pub mod degree;
pub mod delta_pagerank;
pub mod pagerank;
pub mod sssp;
pub mod triangle_count;

use graphmat_core::error::Result;

/// Result of an algorithm run: the per-vertex output plus the engine
/// statistics (used by the benchmark harness).
#[derive(Clone, Debug)]
pub struct AlgorithmOutput<T> {
    /// Per-vertex result values, indexed by vertex id.
    pub values: Vec<T>,
    /// Engine statistics for the run.
    pub stats: graphmat_core::RunStats,
    /// Whether the run converged before hitting the iteration limit.
    pub converged: bool,
}

/// What every allocating `x_on` driver is: a fresh state for the view, the
/// pooled run into it, and the per-vertex values projected out.
pub(crate) fn run_fresh<E, V: Clone + Default, T>(
    view: &graphmat_core::Topology<E>,
    run_into: impl FnOnce(&mut graphmat_core::VertexState<V>) -> Result<graphmat_core::RunResult>,
    project: impl FnMut(V) -> T,
) -> Result<AlgorithmOutput<T>> {
    let mut state = graphmat_core::VertexState::for_topology(view);
    let result = run_into(&mut state)?;
    Ok(AlgorithmOutput {
        values: state.into_properties().into_iter().map(project).collect(),
        stats: result.stats,
        converged: result.converged,
    })
}

/// The result of a pooled driver's zero-iteration short-circuit: no
/// supersteps ran, but the environment facts (matrix footprint, lane count)
/// are still reported.
pub(crate) fn zero_superstep_result<E>(
    view: &graphmat_core::Topology<E>,
    session: &graphmat_core::Session,
) -> graphmat_core::RunResult {
    graphmat_core::RunResult {
        stats: graphmat_core::RunStats {
            matrix_bytes: view.matrix_bytes(),
            nthreads: session.nthreads(),
            ..Default::default()
        },
        converged: false,
    }
}
