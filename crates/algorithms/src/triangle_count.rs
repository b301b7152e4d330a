//! Triangle counting as one GraphMat vertex program.
//!
//! The paper's formulation (§3-IV, §4.2): the input graph is first made
//! symmetric and then reduced to its strict upper triangle, giving a DAG in
//! which each triangle `a < b < c` is counted exactly once. Every vertex
//! sends its in-neighbour list along its out-edges; the receiving vertex
//! intersects the incoming list with its own. The intersection size is the
//! number of triangles closed by that edge, counted at the triangle's
//! largest vertex.
//!
//! The program builds no lists: vertex `k`'s ascending in-neighbours *are*
//! row `k` of `Gᵀ`'s pull mirror. Each vertex's state borrows its row, each
//! message is the sender's row, and the count is one superstep that copies
//! nothing and allocates nothing per edge — in GraphBLAS terms, TC is the
//! masked product `L·L`, and the mirror row is `L`'s row.
//!
//! Reading the *destination vertex's state inside `PROCESS_MESSAGE`* is what
//! a pure matrix framework (CombBLAS) cannot express: it falls back to an
//! SpGEMM whose intermediate result "overflows memory or comes close to
//! memory limits" (§5.2.1) — the behaviour the CombBLAS-style baseline
//! reproduces.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{GraphProgram, Session, Topology, VertexId};
use graphmat_io::edgelist::EdgeList;
use std::marker::PhantomData;

/// Per-vertex triangle-counting state.
#[derive(Clone, Copy, Debug, Default)]
pub struct TriangleVertex<'a> {
    /// Triangles closed at this vertex.
    pub triangles: u64,
    /// The vertex's ascending in-neighbours in the DAG: its row of the pull
    /// mirror, borrowed.
    pub in_neighbours: &'a [VertexId],
}

/// APPLY's change test: the rows never change, so only the count is
/// compared (never a row, element by element).
impl PartialEq for TriangleVertex<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.triangles == other.triangles
    }
}

/// The counting program: each vertex sends its row, each edge intersects
/// the sender's row with the receiver's. Generic over the (ignored) edge
/// type; `E = ()` is the unweighted fast path.
struct CountTriangles<'a, E>(PhantomData<(&'a (), E)>);

impl<'a, E: Clone + Send + Sync> GraphProgram for CountTriangles<'a, E> {
    type VertexProp = TriangleVertex<'a>;
    type Message = &'a [VertexId];
    type Reduced = u64;
    type Edge = E;

    fn send_message(&self, _v: VertexId, prop: &TriangleVertex<'a>) -> Option<&'a [VertexId]> {
        (!prop.in_neighbours.is_empty()).then_some(prop.in_neighbours)
    }

    fn process_message(&self, msg: &&'a [VertexId], _edge: &E, dst: &TriangleVertex<'a>) -> u64 {
        sorted_intersection_size(msg, dst.in_neighbours)
    }

    fn reduce(&self, acc: &mut u64, value: u64) {
        *acc += value;
    }

    fn apply(&self, reduced: &u64, prop: &mut TriangleVertex<'a>) {
        prop.triangles += *reduced;
    }
}

/// Size of the intersection of two ascending, duplicate-free id lists.
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
/// per-vertex counts ([`total_triangles`] sums them), each triangle counted
/// at its largest vertex.
///
/// Accepts any edge value type — triangles depend only on the structure.
/// The topology must already be the strict upper-triangle DAG the algorithm
/// expects — build it from `edges.to_dag()`
/// (`session.build_graph(&edges.to_dag()).finish()?`); no preprocessing
/// happens here. Parallel edges are outside the contract:
/// `to_dag()` removes them, and debug builds assert that every row ascends
/// strictly.
///
/// The rows are read from `Gᵀ`'s pull mirror, which this call derives on the
/// session's lanes if no pull has (call [`Topology::out_pull_mirror`] ahead
/// of time to keep that out of a timed region). A snapshot's topology with
/// pending edits counts over its fold of the mirror, made the same way.
pub fn triangle_count_on<E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: &Topology<E>,
) -> Result<AlgorithmOutput<u64>> {
    let mirror = view.out_side().pull(session.executor());
    let init = |v: VertexId| {
        let (in_neighbours, _) = mirror.row(v);
        debug_assert!(
            in_neighbours.windows(2).all(|w| w[0] < w[1]),
            "vertex {v}: parallel edges in the DAG"
        );
        TriangleVertex {
            triangles: 0,
            in_neighbours,
        }
    };
    let outcome = session
        .run(view, CountTriangles::<E>(PhantomData))
        .init_with(&init)
        .activate_all()
        .max_iterations(1)
        .execute()?;
    Ok(AlgorithmOutput {
        values: outcome.values.iter().map(|p| p.triangles).collect(),
        stats: outcome.stats,
        converged: true,
    })
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
    use graphmat_core::store::{GraphStore, StoreOptions};
    use graphmat_delta::DeltaBatch;

    /// Triangle counts of `el`, DAG-reduced first, through a session of
    /// `threads` lanes.
    fn triangles<E: Clone + Send + Sync + 'static>(
        el: &EdgeList<E>,
        threads: usize,
    ) -> AlgorithmOutput<u64> {
        let session = Session::with_threads(threads).unwrap();
        let topo = session.build_graph(&el.to_dag()).finish().unwrap();
        triangle_count_on(&session, &topo).unwrap()
    }

    fn total(pairs: Vec<(u32, u32)>, n: u32) -> u64 {
        let el = EdgeList::from_pairs(n, pairs);
        total_triangles(&triangles(&el, 1))
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
        let out = triangles(&el, 4);
        assert_eq!(total_triangles(&out), triangle_count_reference(&el));
        assert!(
            total_triangles(&out) > 0,
            "RMAT graph should contain triangles"
        );
    }

    #[test]
    fn exactly_one_superstep_of_work() {
        let el = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 0)]);
        let out = triangles(&el, 1);
        assert_eq!(out.values, [0, 0, 1, 0]);
        assert_eq!(out.stats.iterations, 1);
        assert_eq!(out.stats.supersteps.len(), 1);
    }

    /// A fresh topology has no mirror: the count derives it, on the
    /// session's lanes, and keeps it for the next count.
    #[test]
    fn a_count_derives_the_mirror_it_reads() {
        let session = Session::with_threads(2).unwrap();
        let dag = EdgeList::from_pairs(3, vec![(0, 1), (1, 2), (0, 2)]).to_dag();
        let topo = session.build_graph(&dag).finish().unwrap();
        assert!(topo.out_side().made_mirror().is_none());
        let first = triangle_count_on(&session, &topo).unwrap();
        assert_eq!(first.values, [0, 0, 1]);
        let mirror = topo.out_side().made_mirror().unwrap().clone();
        assert_eq!(topo.pull_bytes(), mirror.bytes());
        let again = triangle_count_on(&session, &topo).unwrap();
        assert_eq!(again.values, first.values);
        assert!(std::sync::Arc::ptr_eq(
            topo.out_side().made_mirror().unwrap(),
            &mirror
        ));
    }

    #[test]
    fn pending_edits_count_like_the_rebuild() {
        let el = graphmat_io::rmat::generate(
            &graphmat_io::rmat::RmatConfig::triangle_counting(7).with_seed(5),
        )
        .to_dag();
        let n = el.num_vertices();
        let session = Session::with_threads(2).unwrap();
        let topo = session.build_graph(&el).finish().unwrap();
        let store = GraphStore::new(
            topo,
            StoreOptions {
                compaction_threshold: usize::MAX,
                ..StoreOptions::default()
            },
        );
        // A DAG edge (source below destination) the graph lacks.
        let present: std::collections::HashSet<(u32, u32)> =
            el.edges().iter().map(|&(s, d, _)| (s, d)).collect();
        let dst = (1..n).find(|&d| !present.contains(&(0, d))).unwrap();
        let mut batch = DeltaBatch::new(n);
        batch.insert(0, dst, 1.0).unwrap();
        let pending = store.apply(batch).unwrap();

        let mut edited = el.edges().to_vec();
        edited.push((0, dst, 1.0));
        let rebuilt = session
            .build_graph(&EdgeList::from_tuples(n, edited))
            .finish()
            .unwrap();
        assert_eq!(
            triangle_count_on(&session, pending.view()).unwrap().values,
            triangle_count_on(&session, &rebuilt).unwrap().values
        );
        assert!(store.compact_now());
        assert_eq!(
            triangle_count_on(&session, store.snapshot().view())
                .unwrap()
                .values,
            triangle_count_on(&session, &rebuilt).unwrap().values
        );
    }
}
