//! Triangle counting as two GraphMat vertex programs.
//!
//! The paper's formulation (§3-IV, §4.2): the input graph is first made
//! symmetric and then reduced to its strict upper triangle, giving a DAG in
//! which each triangle `a < b < c` is counted exactly once. Two vertex
//! programs then run:
//!
//! 1. **Adjacency-list construction** — every vertex sends its id along its
//!    out-edges; each vertex stores the sorted list of ids it received (its
//!    in-neighbours in the DAG).
//! 2. **Counting** — every vertex sends that list along its out-edges; the
//!    receiving vertex intersects the incoming list with its own list. The
//!    intersection size is the number of triangles closed by that edge.
//!
//! Step 2 is exactly where GraphMat's ability to read the *destination
//! vertex's state inside `PROCESS_MESSAGE`* pays off: a pure matrix framework
//! (CombBLAS) cannot express this and falls back to an SpGEMM whose
//! intermediate result "overflows memory or comes close to memory limits"
//! (§5.2.1) — the behaviour the CombBLAS-style baseline reproduces.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{
    EdgeDirection, GraphProgram, GraphView, RunResult, Session, VertexId, VertexState,
};
use graphmat_io::edgelist::EdgeList;

/// Per-vertex triangle-counting state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TriangleVertex {
    /// Sorted in-neighbour ids collected in phase 1.
    pub neighbors: Vec<VertexId>,
    /// Triangles closed at this vertex, accumulated in phase 2.
    pub triangles: u64,
}

/// Phase 1: collect in-neighbour lists. Generic over the (ignored) edge
/// type; `E = ()` is the unweighted fast path.
struct CollectNeighbors<E> {
    _edge: std::marker::PhantomData<E>,
}

impl<E> Default for CollectNeighbors<E> {
    fn default() -> Self {
        CollectNeighbors {
            _edge: std::marker::PhantomData,
        }
    }
}

impl<E: Clone + Send + Sync> GraphProgram for CollectNeighbors<E> {
    type VertexProp = TriangleVertex;
    type Message = VertexId;
    type Reduced = Vec<VertexId>;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, v: VertexId, _prop: &TriangleVertex) -> Option<VertexId> {
        Some(v)
    }

    fn process_message(&self, msg: &VertexId, _edge: &E, _dst: &TriangleVertex) -> Vec<VertexId> {
        vec![*msg]
    }

    fn reduce(&self, acc: &mut Vec<VertexId>, mut value: Vec<VertexId>) {
        acc.append(&mut value);
    }

    fn apply(&self, reduced: &Vec<VertexId>, prop: &mut TriangleVertex) {
        let mut list = reduced.clone();
        list.sort_unstable();
        list.dedup();
        prop.neighbors = list;
    }
}

/// Phase 2: intersect neighbour lists.
struct CountTriangles<E> {
    _edge: std::marker::PhantomData<E>,
}

impl<E> Default for CountTriangles<E> {
    fn default() -> Self {
        CountTriangles {
            _edge: std::marker::PhantomData,
        }
    }
}

impl<E: Clone + Send + Sync> GraphProgram for CountTriangles<E> {
    type VertexProp = TriangleVertex;
    type Message = Vec<VertexId>;
    type Reduced = u64;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, prop: &TriangleVertex) -> Option<Vec<VertexId>> {
        if prop.neighbors.is_empty() {
            None
        } else {
            Some(prop.neighbors.clone())
        }
    }

    fn process_message(&self, msg: &Vec<VertexId>, _edge: &E, dst: &TriangleVertex) -> u64 {
        sorted_intersection_size(msg, &dst.neighbors)
    }

    fn reduce(&self, acc: &mut u64, value: u64) {
        *acc += value;
    }

    fn apply(&self, reduced: &u64, prop: &mut TriangleVertex) {
        prop.triangles += *reduced;
    }
}

/// Size of the intersection of two sorted, deduplicated id lists.
fn sorted_intersection_size(a: &[VertexId], b: &[VertexId]) -> u64 {
    let mut count = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Count triangles over a pre-built graph through a [`Session`]; returns the
/// per-vertex counts ([`total_triangles`] sums them).
///
/// Accepts any edge value type — triangles depend only on the structure.
/// The topology must already be the strict upper-triangle DAG the algorithm
/// expects — build it from `edges.to_dag()`
/// (`session.build_graph(&edges.to_dag()).finish()?`); no
/// preprocessing happens here.
///
/// Both vertex programs run through one [`VertexState`]: phase 2 intersects
/// the neighbour lists phase 1 stored in the same state — the two-phase
/// shape is exactly what per-run state (as opposed to graph-owned state)
/// makes natural.
pub fn triangle_count_on<'a, E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
) -> Result<AlgorithmOutput<u64>> {
    let view = view.into();
    crate::run_fresh(
        view,
        |state: &mut VertexState<TriangleVertex>| {
            // Phase 1: one superstep building the in-neighbour lists.
            let phase1 = session
                .run(view, CollectNeighbors::<E>::default())
                .activate_all()
                .max_iterations(1)
                .execute_with(state)?;
            // Phase 2: one superstep intersecting the lists.
            let phase2 = session
                .run(view, CountTriangles::<E>::default())
                .activate_all()
                .max_iterations(1)
                .execute_with(state)?;
            Ok(RunResult {
                stats: merge_phase_stats(phase1.stats, &phase2.stats),
                converged: true,
            })
        },
        |p| p.triangles,
    )
}

/// Fold phase 2's run statistics into phase 1's. Works from the aggregate
/// totals, not the per-superstep detail, so nothing is lost when
/// `record_supersteps` is off (the detail, when present, is appended too).
fn merge_phase_stats(
    mut stats: graphmat_core::RunStats,
    phase2: &graphmat_core::RunStats,
) -> graphmat_core::RunStats {
    stats.iterations += phase2.iterations;
    stats.pull_supersteps += phase2.pull_supersteps;
    stats.total_time += phase2.total_time;
    stats.send_time += phase2.send_time;
    stats.spmv_time += phase2.spmv_time;
    stats.apply_time += phase2.apply_time;
    stats.edges_processed += phase2.edges_processed;
    stats.messages_sent += phase2.messages_sent;
    stats.vertices_updated += phase2.vertices_updated;
    stats.supersteps.extend(phase2.supersteps.iter().copied());
    stats
}

/// Total number of triangles (sum of the per-vertex counts).
pub fn total_triangles(output: &AlgorithmOutput<u64>) -> u64 {
    output.values.iter().sum()
}

/// Brute-force reference count used by tests (O(V·d²)).
pub fn triangle_count_reference<E: Clone>(edges: &EdgeList<E>) -> u64 {
    let dag = edges.to_dag();
    let n = dag.num_vertices() as usize;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(s, d, _) in dag.edges() {
        adj[s as usize].push(d);
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    let mut total = 0u64;
    for u in 0..n {
        for &v in &adj[u] {
            total += sorted_intersection_size(&adj[u], &adj[v as usize]);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmat_core::{RunOptions, SessionOptions};

    /// Triangle counts of `el`, DAG-reduced first, through a session with
    /// the given run defaults.
    fn triangles<E: Clone + Send + Sync + 'static>(
        el: &EdgeList<E>,
        threads: usize,
        run_defaults: RunOptions,
    ) -> AlgorithmOutput<u64> {
        let session = Session::new(
            SessionOptions::default()
                .with_threads(threads)
                .with_run_defaults(run_defaults),
        )
        .unwrap();
        let topo = session.build_graph(&el.to_dag()).finish().unwrap();
        triangle_count_on(&session, &topo).unwrap()
    }

    fn total(pairs: Vec<(u32, u32)>, n: u32) -> u64 {
        let el = EdgeList::from_pairs(n, pairs);
        total_triangles(&triangles(&el, 1, RunOptions::default()))
    }

    #[test]
    fn single_triangle() {
        assert_eq!(total(vec![(0, 1), (1, 2), (2, 0), (2, 3)], 4), 1);
    }

    #[test]
    fn two_triangles_sharing_an_edge() {
        let pairs = vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)];
        let el = EdgeList::from_pairs(4, pairs.clone());
        assert_eq!(total(pairs, 4), 2);
        assert_eq!(triangle_count_reference(&el), 2);
    }

    #[test]
    fn complete_graph_k5_has_ten_triangles() {
        let mut pairs = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                pairs.push((i, j));
            }
        }
        assert_eq!(total(pairs, 5), 10); // C(5,3)
    }

    #[test]
    fn triangle_free_graph() {
        // a star has no triangles
        assert_eq!(total(vec![(0, 1), (0, 2), (0, 3), (0, 4)], 5), 0);
    }

    #[test]
    fn direction_of_input_edges_does_not_matter() {
        assert_eq!(
            total(vec![(0, 1), (1, 2), (2, 0)], 3),
            total(vec![(1, 0), (2, 1), (0, 2)], 3),
        );
    }

    #[test]
    fn matches_reference_on_rmat() {
        let el = graphmat_io::rmat::generate(
            &graphmat_io::rmat::RmatConfig::triangle_counting(8).with_seed(31),
        );
        let out = triangles(&el, 4, RunOptions::default());
        assert_eq!(total_triangles(&out), triangle_count_reference(&el));
        assert!(
            total_triangles(&out) > 0,
            "RMAT graph should contain triangles"
        );
    }

    #[test]
    fn phase_stats_survive_suppressed_superstep_detail() {
        // With record_supersteps off the per-superstep log is empty; the
        // merged stats must still account for both phases' totals.
        let el = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 0)]);
        let out = triangles(
            &el,
            1,
            RunOptions {
                record_supersteps: false,
                ..RunOptions::default()
            },
        );
        assert_eq!(total_triangles(&out), 1);
        assert_eq!(out.stats.iterations, 2);
        assert!(out.stats.edges_processed > 0);
        assert!(out.stats.supersteps.is_empty());
    }

    #[test]
    fn exactly_two_supersteps_of_work() {
        let el = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 0)]);
        let out = triangles(&el, 1, RunOptions::default());
        assert_eq!(out.stats.iterations, 2);
        assert_eq!(out.stats.supersteps.len(), 2);
    }
}
