//! Single-Source Shortest Paths as a GraphMat vertex program.
//!
//! This is the paper's running example (Figure 3 and the appendix source
//! listing): a Bellman-Ford variant where only vertices whose distance
//! changed in the previous iteration relax their out-edges. The message is
//! the sender's current distance, `PROCESS_MESSAGE` adds the edge weight,
//! `REDUCE` takes the minimum, and `APPLY` keeps the smaller of the old and
//! new distance.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{
    ActivityPolicy, EdgeDirection, GraphProgram, GraphView, RunResult, Session, VertexId,
    VertexState,
};
use graphmat_io::edgelist::{EdgeList, EdgeWeight};

/// Distance value meaning "unreachable".
pub const UNREACHABLE: f32 = f32::MAX;

/// The SSSP vertex program (the paper's appendix `class SSSP`). Generic
/// over any scalar-readable edge type: `f32` weights, integer weights
/// (`u32`, `u8`, …) or `()` (every hop costs 1).
pub struct SsspProgram<E = f32> {
    _edge: std::marker::PhantomData<E>,
}

impl<E> Default for SsspProgram<E> {
    fn default() -> Self {
        SsspProgram {
            _edge: std::marker::PhantomData,
        }
    }
}

impl<E: EdgeWeight> GraphProgram for SsspProgram<E> {
    type VertexProp = f32;
    type Message = f32;
    type Reduced = f32;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, dist: &f32) -> Option<f32> {
        Some(*dist)
    }

    fn process_message(&self, msg: &f32, edge: &E, _dst: &f32) -> f32 {
        msg + edge.weight()
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

/// Run SSSP over a pre-built graph through a [`Session`] and return the
/// per-vertex distance from `source` ([`UNREACHABLE`] where no path
/// exists): [`sssp_into`] on a fresh state.
///
/// Accepts any [`EdgeWeight`] edge type: `f32`, integer weights such as
/// `u32`, or `()` for hop counts. One `Arc<Topology>` can serve this and
/// other drivers concurrently from many threads.
///
/// # Errors
///
/// [`graphmat_core::GraphMatError::VertexOutOfRange`] if `source` is not a
/// vertex of the graph.
pub fn sssp_on<'a, E: EdgeWeight + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
    source: VertexId,
) -> Result<AlgorithmOutput<f32>> {
    let view = view.into();
    crate::run_fresh(
        view,
        |state| sssp_into(session, view, source, None, state),
        |distance| distance,
    )
}

/// Run SSSP into a caller-owned (pooled) state — the serving hot path.
///
/// Zero per-query allocation in the steady state: the distances are left in
/// `state` instead of a fresh `Vec`, and the engine workspace cached inside
/// the state is recycled. Use one [`graphmat_core::StatePool`] per program
/// type (see its docs); pass a `deadline` to bound wall-clock time
/// ([`graphmat_core::GraphMatError::DeadlineExceeded`] past it).
pub fn sssp_into<'a, E: EdgeWeight + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
    source: VertexId,
    deadline: Option<std::time::Instant>,
    state: &mut VertexState<f32>,
) -> Result<RunResult> {
    session
        .run(view, SsspProgram::<E>::default())
        .init_all(UNREACHABLE)
        .seed_with(source, 0.0)
        // Bellman-Ford must relax until quiescent with a changed-only
        // frontier; don't let session run defaults truncate it.
        .activity(ActivityPolicy::Changed)
        .until_convergence()
        .deadline(deadline)
        .execute_with(state)
}

/// Dijkstra reference implementation used by tests (requires non-negative
/// weights, which all the generators guarantee).
pub fn sssp_reference<E: EdgeWeight>(edges: &EdgeList<E>, source: VertexId) -> Vec<f32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = edges.num_vertices() as usize;
    let mut adj: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
    for (s, d, w) in edges.edges() {
        adj[*s as usize].push((*d as usize, w.weight()));
    }
    let mut dist = vec![UNREACHABLE; n];
    dist[source as usize] = 0.0;
    // order by total distance encoded as ordered bits (weights are finite and
    // non-negative, so the IEEE bit pattern orders correctly)
    let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
    heap.push(Reverse((0u32, source as usize)));
    while let Some(Reverse((dbits, u))) = heap.pop() {
        let d = f32::from_bits(dbits);
        if d > dist[u] {
            continue;
        }
        for &(v, w) in &adj[u] {
            let candidate = d + w;
            if candidate < dist[v] {
                dist[v] = candidate;
                heap.push(Reverse((candidate.to_bits(), v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The weighted graph of the paper's Figure 3.
    fn figure3() -> EdgeList {
        EdgeList::from_tuples(
            5,
            vec![
                (0, 1, 1.0),
                (0, 2, 3.0),
                (0, 3, 2.0),
                (1, 2, 1.0),
                (2, 3, 2.0),
                (3, 4, 2.0),
                (4, 0, 4.0),
            ],
        )
    }

    /// SSSP over a freshly built out-edge topology with `threads` lanes.
    fn distances(el: &EdgeList, source: VertexId, threads: usize) -> AlgorithmOutput<f32> {
        let session = Session::with_threads(threads).unwrap();
        let topo = session.build_graph(el).finish().unwrap();
        sssp_on(&session, &topo, source).unwrap()
    }

    #[test]
    fn figure3_distances() {
        let out = distances(&figure3(), 0, 1);
        assert_eq!(out.values, vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        assert!(out.converged);
    }

    #[test]
    fn matches_dijkstra_reference() {
        let el = graphmat_io::uniform::generate(
            &graphmat_io::uniform::UniformConfig::new(200, 1500)
                .with_weights(1, 20)
                .with_seed(4),
        );
        let out = distances(&el, 7, 4);
        let reference = sssp_reference(&el, 7);
        for (i, (a, b)) in out.values.iter().zip(reference.iter()).enumerate() {
            assert!((a - b).abs() < 1e-4, "vertex {i}: {a} vs {b}");
        }
    }

    #[test]
    fn unreachable_vertices_stay_at_infinity() {
        let el = EdgeList::from_tuples(4, vec![(0, 1, 1.0), (2, 3, 1.0)]);
        let out = distances(&el, 0, 1);
        assert_eq!(out.values[0], 0.0);
        assert_eq!(out.values[1], 1.0);
        assert_eq!(out.values[2], UNREACHABLE);
        assert_eq!(out.values[3], UNREACHABLE);
    }

    #[test]
    fn takes_shorter_indirect_path() {
        // direct edge 0->2 weight 10, indirect 0->1->2 weight 3
        let el = EdgeList::from_tuples(3, vec![(0, 2, 10.0), (0, 1, 1.0), (1, 2, 2.0)]);
        assert_eq!(distances(&el, 0, 1).values[2], 3.0);
    }

    #[test]
    fn frontier_driven_work_decreases() {
        // grid road network: most supersteps touch only the frontier
        let el = graphmat_io::grid::generate(&graphmat_io::grid::GridConfig::square(20));
        let out = distances(&el, 0, 1);
        let reference = sssp_reference(&el, 0);
        for (a, b) in out.values.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-3);
        }
        // many iterations (high diameter), none touching every vertex
        assert!(out.stats.iterations > 20);
        assert!(out
            .stats
            .supersteps
            .iter()
            .all(|s| s.active_vertices <= el.num_vertices() as usize));
    }

    #[test]
    fn out_of_range_source_is_an_error_not_a_panic() {
        let el = figure3();
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();
        let err = sssp_on(&session, &topo, 9).unwrap_err();
        assert_eq!(
            err,
            graphmat_core::GraphMatError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 5
            }
        );
    }

    #[test]
    fn pooled_driver_matches_and_reruns_identically() {
        let el = figure3();
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();

        let mut pool = graphmat_core::StatePool::for_topology(&topo);
        let mut state = pool.acquire();
        sssp_into(&session, &topo, 0, None, &mut state).unwrap();
        assert_eq!(state.properties(), vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        pool.release(state);

        let mut state = pool.acquire();
        sssp_into(&session, &topo, 3, None, &mut state).unwrap();
        let fresh = sssp_on(&session, &topo, 3).unwrap();
        assert_eq!(state.properties(), fresh.values.as_slice());
        assert!(state.has_cached_workspace());
        assert_eq!((pool.created(), pool.reused()), (1, 1));
    }
}
