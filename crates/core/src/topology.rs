//! [`Topology`]: the immutable, `Sync`-shareable build product of graph
//! construction.
//!
//! GraphMat's serving story (and the RedisGraph deployment of the same idea)
//! rests on one separation: the adjacency matrix is built **once** and then
//! answers many independent queries, while everything a query mutates lives
//! somewhere else. `Topology<E>` is the immutable half:
//!
//! * `Gᵀ` split into 1-D row partitions of DCSC (paper §4.4.1) — what
//!   out-edge message scattering multiplies against, because `y = Gᵀ·x`
//!   delivers each source's message to the rows (destinations) of its
//!   out-edges;
//! * optionally the non-transposed `G` for in-edge scattering;
//! * optionally row-major CSR **pull mirrors** of those matrices
//!   (`build_pull_mirrors`, on by default), which the direction-optimized
//!   engine traverses when a superstep's frontier is dense enough to pull —
//!   they cost roughly the matrices' memory again
//!   ([`Topology::pull_bytes`]);
//! * the out-/in-degree arrays.
//!
//! A `Topology` has no interior mutability and is `Sync`, so wrap it in an
//! [`std::sync::Arc`] and run any number of concurrent vertex programs
//! against the same matrices — no cloning, no locks. The mutable per-run
//! half (vertex properties + active set) is [`crate::state::VertexState`].
//!
//! The number of partitions defaults to `8 × available threads`, matching
//! the `nthreads * 8` choice in the paper's appendix listing, and partitions
//! are balanced by edge count to keep skewed RMAT/social graphs from
//! serialising on one heavy partition.

use crate::error::{GraphMatError, Result};
use crate::program::VertexId;
use graphmat_io::edgelist::EdgeList;
use graphmat_sparse::parallel::available_threads;
use graphmat_sparse::partition::{PartitionedDcsc, RowPartitioner, RowRange};
use graphmat_sparse::pull::CsrMirror;

/// Matrix partitions per thread when the partition count is automatic —
/// the `nthreads * 8` of the paper's appendix listing: enough over-splitting
/// for dynamic scheduling to even out skewed partitions.
pub const PARTITIONS_PER_THREAD: usize = 8;

/// Options controlling topology construction.
#[derive(Clone, Copy, Debug)]
pub struct GraphBuildOptions {
    /// Number of matrix partitions; `0` picks
    /// [`PARTITIONS_PER_THREAD`]` × threads`.
    pub num_partitions: usize,
    /// Balance partitions by edge count (`true`, the paper's load-balancing
    /// optimization) or split rows evenly (`false`, the naive layout used as
    /// the Figure 7 baseline).
    pub balance_partitions: bool,
    /// Also build the non-transposed matrix so programs can scatter along
    /// in-edges ([`crate::program::EdgeDirection::In`] / `Both`).
    pub build_in_edges: bool,
    /// Also materialize row-major CSR mirrors of the DCSC matrices so the
    /// engine can run the **dense pull** backend (direction optimization).
    /// Costs roughly the same memory again per mirrored matrix
    /// ([`Topology::pull_bytes`] reports exactly how much). **On** by
    /// default, to match the direction-optimized run default; without
    /// mirrors, the selector degrades gracefully to always-push.
    pub build_pull_mirrors: bool,
}

impl Default for GraphBuildOptions {
    fn default() -> Self {
        GraphBuildOptions {
            num_partitions: 0,
            balance_partitions: true,
            build_in_edges: true,
            build_pull_mirrors: true,
        }
    }
}

impl GraphBuildOptions {
    /// Explicitly set the number of partitions.
    pub fn with_partitions(mut self, n: usize) -> Self {
        self.num_partitions = n;
        self
    }

    /// Enable or disable nnz-balanced partitioning.
    pub fn with_balancing(mut self, balance: bool) -> Self {
        self.balance_partitions = balance;
        self
    }

    /// Enable or disable construction of the in-edge matrix.
    pub fn with_in_edges(mut self, build: bool) -> Self {
        self.build_in_edges = build;
        self
    }

    /// Enable or disable construction of the row-major CSR mirrors the pull
    /// backend traverses (see [`GraphBuildOptions::build_pull_mirrors`]).
    pub fn with_pull_mirrors(mut self, build: bool) -> Self {
        self.build_pull_mirrors = build;
        self
    }

    pub(crate) fn effective_partitions(&self) -> usize {
        self.effective_partitions_for(available_threads())
    }

    /// Resolve the partition count against an explicit thread count (the
    /// session passes its pool size here, so a small session on a big
    /// machine does not build an over-partitioned matrix).
    pub(crate) fn effective_partitions_for(&self, threads: usize) -> usize {
        if self.num_partitions == 0 {
            PARTITIONS_PER_THREAD * threads.max(1)
        } else {
            self.num_partitions
        }
    }
}

/// The immutable structural half of a graph: partitioned DCSC adjacency
/// matrices plus degree arrays, generic over the edge value type `E` (`()`
/// matrices store no edge value bytes at all).
///
/// Build one with [`Topology::from_edge_list`] or through
/// [`crate::session::Session::build_graph`], wrap it in an `Arc`, and share
/// it between any number of concurrent runs — every method takes `&self` and
/// nothing here is ever mutated after construction.
#[derive(Clone, Debug)]
pub struct Topology<E> {
    nvertices: VertexId,
    nedges: usize,
    /// `Gᵀ`: row = destination, column = source. Used for out-edge scatter.
    out_matrix: PartitionedDcsc<E>,
    /// `G`: row = source, column = destination. Used for in-edge scatter.
    in_matrix: Option<PartitionedDcsc<E>>,
    /// Row-major mirror of `out_matrix`, traversed by the dense-pull
    /// backend for `Out`-direction programs.
    out_pull: Option<CsrMirror<E>>,
    /// Row-major mirror of `in_matrix`, for `In`/`Both`-direction pulls.
    in_pull: Option<CsrMirror<E>>,
    out_degrees: Vec<u32>,
    in_degrees: Vec<u32>,
}

impl<E: Clone> Topology<E> {
    /// Build a topology from an edge list. The edge value type of the edge
    /// list carries over into the DCSC matrices unchanged.
    pub fn from_edge_list(edges: &EdgeList<E>, options: GraphBuildOptions) -> Self {
        let n = edges.num_vertices();
        let nparts = options.effective_partitions().max(1);

        let transpose_coo = edges.to_transpose_coo();
        let out_matrix = if options.balance_partitions {
            let ranges = RowPartitioner::balanced_nnz(&transpose_coo.row_counts(), nparts);
            PartitionedDcsc::from_coo(&transpose_coo, &ranges)
        } else {
            PartitionedDcsc::from_coo_even(&transpose_coo, nparts)
        };

        let in_matrix = if options.build_in_edges {
            let adj_coo = edges.to_adjacency_coo();
            Some(if options.balance_partitions {
                let ranges = RowPartitioner::balanced_nnz(&adj_coo.row_counts(), nparts);
                PartitionedDcsc::from_coo(&adj_coo, &ranges)
            } else {
                PartitionedDcsc::from_coo_even(&adj_coo, nparts)
            })
        } else {
            None
        };

        let out_degrees: Vec<u32> = edges.out_degrees().into_iter().map(|d| d as u32).collect();
        let in_degrees: Vec<u32> = edges.in_degrees().into_iter().map(|d| d as u32).collect();

        let (out_pull, in_pull) = if options.build_pull_mirrors {
            (
                Some(CsrMirror::from_partitioned(&out_matrix)),
                in_matrix.as_ref().map(CsrMirror::from_partitioned),
            )
        } else {
            (None, None)
        };

        Topology {
            nvertices: n,
            nedges: edges.num_edges(),
            out_matrix,
            in_matrix,
            out_pull,
            in_pull,
            out_degrees,
            in_degrees,
        }
    }

    /// Reconstruct the edge list the topology stores, in a **deterministic**
    /// order: out-matrix partitions ascending, source (column) ascending
    /// within each partition, destination ascending within each column.
    /// Equal topologies therefore produce byte-identical lists — the
    /// property [`crate::store::GraphStore`]'s compaction relies on to make
    /// repeated rebuilds reproducible.
    pub fn to_edge_list(&self) -> EdgeList<E> {
        let mut el = EdgeList::new(self.nvertices);
        // Out matrix is Gᵀ: row = destination, column = source.
        for part in self.out_matrix.partitions() {
            for (src, dsts, weights) in part.matrix.iter_cols() {
                for (dst, w) in dsts.iter().zip(weights) {
                    el.push(src, *dst, w.clone());
                }
            }
        }
        el
    }
}

impl<E> Topology<E> {
    /// The row ranges of the out matrix's partitions (`Gᵀ`: row =
    /// destination) — what a delta overlay must be bucketed by to align with
    /// the push kernel's partition sweep.
    pub fn out_partition_ranges(&self) -> Vec<RowRange> {
        self.out_matrix
            .partitions()
            .iter()
            .map(|p| p.rows)
            .collect()
    }

    /// The row ranges of the in matrix's partitions (`G`: row = source), if
    /// the in-edge matrix was built.
    pub fn in_partition_ranges(&self) -> Option<Vec<RowRange>> {
        self.in_matrix
            .as_ref()
            .map(|m| m.partitions().iter().map(|p| p.rows).collect())
    }
    /// Number of vertices.
    pub fn num_vertices(&self) -> VertexId {
        self.nvertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.nedges
    }

    /// Out-degree of vertex `v`, or an error for an out-of-range id.
    pub fn try_out_degree(&self, v: VertexId) -> Result<u32> {
        self.out_degrees
            .get(v as usize)
            .copied()
            .ok_or(self.out_of_range(v))
    }

    /// In-degree of vertex `v`, or an error for an out-of-range id.
    pub fn try_in_degree(&self, v: VertexId) -> Result<u32> {
        self.in_degrees
            .get(v as usize)
            .copied()
            .ok_or(self.out_of_range(v))
    }

    /// Out-degree of vertex `v`. Panics with the vertex id and vertex count
    /// if `v` is out of range.
    pub fn out_degree(&self, v: VertexId) -> u32 {
        match self.out_degrees.get(v as usize) {
            Some(&d) => d,
            // audit:allow(no-unwrap): documented panicking variant;
            // `try_out_degree` is the fallible twin.
            None => panic!("{}", self.out_of_range(v)),
        }
    }

    /// In-degree of vertex `v`. Panics with the vertex id and vertex count
    /// if `v` is out of range.
    pub fn in_degree(&self, v: VertexId) -> u32 {
        match self.in_degrees.get(v as usize) {
            Some(&d) => d,
            // audit:allow(no-unwrap): documented panicking variant;
            // `try_in_degree` is the fallible twin.
            None => panic!("{}", self.out_of_range(v)),
        }
    }

    /// All out-degrees (indexed by vertex id).
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }

    /// All in-degrees (indexed by vertex id).
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degrees
    }

    /// The partitioned `Gᵀ` used for out-edge traversal.
    pub fn out_matrix(&self) -> &PartitionedDcsc<E> {
        &self.out_matrix
    }

    /// The partitioned `G` used for in-edge traversal, if it was built.
    pub fn in_matrix(&self) -> Option<&PartitionedDcsc<E>> {
        self.in_matrix.as_ref()
    }

    /// Whether the in-edge matrix was built (`In`/`Both`-direction programs
    /// need it).
    pub fn has_in_edges(&self) -> bool {
        self.in_matrix.is_some()
    }

    /// The row-major pull mirror of `Gᵀ` (out-edge traversal), if it was
    /// built.
    pub fn out_pull_mirror(&self) -> Option<&CsrMirror<E>> {
        self.out_pull.as_ref()
    }

    /// The row-major pull mirror of `G` (in-edge traversal), if it was
    /// built. Present exactly when pull mirrors are enabled *and* the
    /// in-edge matrix was built.
    pub fn in_pull_mirror(&self) -> Option<&CsrMirror<E>> {
        self.in_pull.as_ref()
    }

    /// Whether the pull mirrors were built. They mirror exactly the DCSC
    /// matrices present (out always; in iff `build_in_edges`), so one flag
    /// answers for every direction: a `Dense`-forced or `Auto`-selected pull
    /// can run iff this is `true` (and, for `In`/`Both`, iff
    /// [`Topology::has_in_edges`] — which those directions require anyway).
    pub fn has_pull_mirrors(&self) -> bool {
        self.out_pull.is_some()
    }

    /// Number of matrix partitions.
    pub fn num_partitions(&self) -> usize {
        self.out_matrix.n_partitions()
    }

    /// Total in-memory footprint of the adjacency matrices in bytes,
    /// including stored edge values **and the pull mirrors** (see
    /// [`Topology::pull_bytes`] for the mirrors' share alone). For `E = ()`
    /// this is pure index cost — the visible payoff of the unweighted fast
    /// path.
    pub fn matrix_bytes(&self) -> usize {
        self.out_matrix.bytes()
            + self.in_matrix.as_ref().map_or(0, |m| m.bytes())
            + self.pull_bytes()
    }

    /// The extra memory the row-major pull mirrors cost, in bytes — zero
    /// when the topology was built with `build_pull_mirrors = false`,
    /// otherwise roughly one more copy of each DCSC matrix (row pointers +
    /// column ids + edge values; zero value bytes for `E = ()`).
    pub fn pull_bytes(&self) -> usize {
        self.out_pull.as_ref().map_or(0, |m| m.bytes())
            + self.in_pull.as_ref().map_or(0, |m| m.bytes())
    }

    /// The error for using vertex id `v` against this topology.
    pub(crate) fn out_of_range(&self, v: VertexId) -> GraphMatError {
        GraphMatError::VertexOutOfRange {
            vertex: v,
            num_vertices: self.nvertices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn small_topology() -> Topology<f32> {
        let el = EdgeList::from_tuples(
            4,
            vec![
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 2, 3.0),
                (2, 3, 4.0),
                (3, 0, 5.0),
            ],
        );
        Topology::from_edge_list(&el, GraphBuildOptions::default().with_partitions(2))
    }

    #[test]
    fn construction_counts() {
        let t = small_topology();
        assert_eq!(t.num_vertices(), 4);
        assert_eq!(t.num_edges(), 5);
        assert_eq!(t.num_partitions(), 2);
        assert_eq!(t.out_matrix().nnz(), 5);
        assert_eq!(t.in_matrix().unwrap().nnz(), 5);
        assert!(t.has_in_edges());
    }

    #[test]
    fn transpose_orientation_is_correct() {
        let t = small_topology();
        // edge 0 -> 1 must appear in Gᵀ as (row=1, col=0)
        assert!(t.out_matrix().iter().any(|(r, c, _)| r == 1 && c == 0));
        // and in G as (row=0, col=1)
        assert!(t
            .in_matrix()
            .unwrap()
            .iter()
            .any(|(r, c, _)| r == 0 && c == 1));
    }

    #[test]
    fn default_partition_count_scales_with_threads() {
        // a graph with plenty of rows so the balanced partitioner can hit the
        // requested 8 × threads partition count
        let n = 4096u32;
        let el = EdgeList::from_pairs(n, (0..n - 1).map(|v| (v, v + 1)));
        let t = Topology::from_edge_list(&el, GraphBuildOptions::default());
        assert_eq!(t.num_partitions(), 8 * available_threads());
    }

    #[test]
    fn unbalanced_partitioning_is_supported() {
        let el = EdgeList::from_tuples(4, vec![(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]);
        let t = Topology::from_edge_list(
            &el,
            GraphBuildOptions::default()
                .with_partitions(4)
                .with_balancing(false),
        );
        assert_eq!(t.num_partitions(), 4);
        assert_eq!(t.out_matrix().nnz(), 3);
    }

    #[test]
    fn topology_is_send_sync_and_arc_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Topology<f32>>();
        assert_send_sync::<Arc<Topology<()>>>();
        let t = Arc::new(small_topology());
        let t2 = Arc::clone(&t);
        std::thread::scope(|s| {
            s.spawn(move || assert_eq!(t2.num_edges(), 5));
        });
        assert_eq!(t.num_vertices(), 4);
    }

    #[test]
    fn degree_accessors_agree_with_arrays() {
        let t = small_topology();
        assert_eq!(t.out_degree(0), 2);
        assert_eq!(t.in_degree(2), 2);
        assert_eq!(t.try_out_degree(3), Ok(1));
        assert_eq!(
            t.try_in_degree(9),
            Err(GraphMatError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 4
            })
        );
    }

    #[test]
    fn out_of_range_degree_panics_with_id_and_count() {
        let t = small_topology();
        let err = std::panic::catch_unwind(|| t.out_degree(42)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("42") && msg.contains('4'), "{msg}");
    }

    #[test]
    fn in_edges_can_be_skipped() {
        let el = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let t = Topology::from_edge_list(&el, GraphBuildOptions::default().with_in_edges(false));
        assert!(t.in_matrix().is_none());
        assert!(!t.has_in_edges());
    }

    #[test]
    fn pull_mirrors_mirror_only_the_matrices_built() {
        let el = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let t = Topology::from_edge_list(&el, GraphBuildOptions::default().with_in_edges(false));
        assert!(t.has_pull_mirrors());
        assert!(t.out_pull_mirror().is_some());
        assert!(t.in_pull_mirror().is_none());
    }

    #[test]
    fn pull_mirrors_match_their_matrices_and_report_bytes() {
        let el = EdgeList::from_tuples(
            4,
            vec![
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 2, 3.0),
                (2, 3, 4.0),
                (3, 0, 5.0),
            ],
        );
        let t = Topology::from_edge_list(&el, GraphBuildOptions::default().with_partitions(2));
        let out_mirror = t.out_pull_mirror().unwrap();
        let in_mirror = t.in_pull_mirror().unwrap();
        assert_eq!(out_mirror.nnz(), t.out_matrix().nnz());
        assert_eq!(in_mirror.nnz(), t.in_matrix().unwrap().nnz());
        assert_eq!(out_mirror.n_partitions(), t.num_partitions());
        assert_eq!(t.pull_bytes(), out_mirror.bytes() + in_mirror.bytes());
        assert!(t.matrix_bytes() > t.pull_bytes());
    }

    #[test]
    fn edge_list_round_trip_is_deterministic_and_complete() {
        let t = small_topology();
        let el = t.to_edge_list();
        assert_eq!(el.num_vertices(), 4);
        assert_eq!(el.num_edges(), 5);
        // Same content as the construction input, up to order.
        let mut got = el.edges().to_vec();
        got.sort_by_key(|e| (e.0, e.1));
        assert_eq!(
            got,
            vec![
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 2, 3.0),
                (2, 3, 4.0),
                (3, 0, 5.0),
            ]
        );
        // A rebuild from the extracted list extracts byte-identically.
        let t2 = Topology::from_edge_list(&el, GraphBuildOptions::default().with_partitions(2));
        assert_eq!(t2.to_edge_list().edges(), el.edges());
        // Partition-range accessors mirror the matrices built.
        assert_eq!(t.out_partition_ranges().len(), 2);
        assert_eq!(t.in_partition_ranges().unwrap().len(), 2);
        let el2 = EdgeList::from_tuples(3, vec![(0, 1, 1.0)]);
        let no_in =
            Topology::from_edge_list(&el2, GraphBuildOptions::default().with_in_edges(false));
        assert!(no_in.in_partition_ranges().is_none());
    }

    #[test]
    fn pull_mirrors_can_be_skipped() {
        let el = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        assert!(Topology::from_edge_list(&el, GraphBuildOptions::default()).has_pull_mirrors());
        let t =
            Topology::from_edge_list(&el, GraphBuildOptions::default().with_pull_mirrors(false));
        assert!(!t.has_pull_mirrors());
        assert!(t.out_pull_mirror().is_none());
        assert!(t.in_pull_mirror().is_none());
        assert_eq!(t.pull_bytes(), 0);
        // Without mirrors, matrix_bytes is the pure DCSC footprint.
        assert_eq!(
            t.matrix_bytes(),
            t.out_matrix().bytes() + t.in_matrix().unwrap().bytes()
        );
    }
}
