//! [`Topology`]: the immutable, `Sync`-shareable build product of graph
//! construction.
//!
//! GraphMat's serving story (and the RedisGraph deployment of the same idea)
//! rests on one separation: the adjacency matrix is built **once** and then
//! answers many independent queries, while everything a query mutates lives
//! somewhere else. `Topology<E>` is the immutable half, and it stores **one
//! orientation** of the graph:
//!
//! * `Gᵀ` split into 1-D row partitions of DCSC (paper §4.4.1) — what
//!   out-edge message scattering multiplies against, because `y = Gᵀ·x`
//!   delivers each source's message to the rows (destinations) of its
//!   out-edges;
//! * optionally a row-major CSR **pull mirror** of it
//!   (`build_pull_mirrors`, on by default), which the direction-optimized
//!   engine traverses when a superstep's frontier is dense enough to pull —
//!   it costs roughly the matrix's memory again ([`Topology::pull_bytes`]);
//! * the out-/in-degree arrays.
//!
//! The non-transposed `G` — what scattering along in-edges multiplies
//! against (§4.2's exception) — is not a build option: it is **derived from
//! the stored `Gᵀ`** the first time an
//! [`EdgeDirection::In`](crate::program::EdgeDirection::In) / `Both` program
//! runs (or [`Topology::in_matrix`] is called), with the same partition
//! count, balancing and mirror choice, and kept from then on. A graph that
//! only ever serves `Out` programs never pays for it.
//!
//! That derived orientation is the topology's only interior mutability: one
//! write-once cell, derived from data already held, so its content does not
//! depend on which run got there first. The type stays `Sync`: wrap it in an
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
use graphmat_delta::{apply_resolved_to_edges, BaseFacts, DeltaOverlay, UpdateOp};
use graphmat_io::edgelist::EdgeList;
use graphmat_sparse::coo::Coo;
use graphmat_sparse::parallel::available_threads;
use graphmat_sparse::partition::{PartitionedDcsc, RowPartitioner, RowRange};
use graphmat_sparse::pull::CsrMirror;
use std::sync::OnceLock;

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
    /// Also materialize a row-major CSR mirror of each DCSC matrix so the
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

    /// Enable or disable construction of the row-major CSR mirrors the pull
    /// backend traverses (see [`GraphBuildOptions::build_pull_mirrors`]).
    pub fn with_pull_mirrors(mut self, build: bool) -> Self {
        self.build_pull_mirrors = build;
        self
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

    /// The row ranges these options split a matrix into, given its per-row
    /// entry counts (`num_partitions` already resolved).
    fn row_ranges(&self, row_nnz: &[usize]) -> Vec<RowRange> {
        if self.balance_partitions {
            RowPartitioner::balanced_nnz(row_nnz, self.num_partitions)
        } else {
            RowPartitioner::even_rows(row_nnz.len() as VertexId, self.num_partitions)
        }
    }
}

/// One orientation of the adjacency matrix as the engine traverses it: the
/// partitioned DCSC the push kernel sweeps and, when pull mirrors are
/// enabled, its row-major mirror for the pull kernel.
#[derive(Clone, Debug)]
pub(crate) struct Orientation<E> {
    pub(crate) matrix: PartitionedDcsc<E>,
    pub(crate) mirror: Option<CsrMirror<E>>,
}

impl<E: Clone> Orientation<E> {
    fn build(coo: &Coo<E>, ranges: &[RowRange], mirror: bool) -> Self {
        let matrix = PartitionedDcsc::from_coo(coo, ranges);
        let mirror = mirror.then(|| CsrMirror::from_partitioned(&matrix));
        Orientation { matrix, mirror }
    }
}

/// The immutable structural half of a graph: the partitioned DCSC adjacency
/// matrix plus degree arrays, generic over the edge value type `E` (`()`
/// matrices store no edge value bytes at all).
///
/// Build one with [`Topology::from_edge_list`] or through
/// [`crate::session::Session::build_graph`], wrap it in an `Arc`, and share
/// it between any number of concurrent runs — every method takes `&self`,
/// and the only thing ever written after construction is the derived
/// in-edge orientation, once (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct Topology<E> {
    nvertices: VertexId,
    nedges: usize,
    /// The options this topology was built with, the partition count
    /// resolved to the number that was asked of the partitioner — what
    /// [`Topology::with_edits`] builds the edited graph with.
    options: GraphBuildOptions,
    /// `Gᵀ`: row = destination, column = source. Used for out-edge scatter.
    out: Orientation<E>,
    /// `G`: row = source, column = destination. Used for in-edge scatter;
    /// derived from `out` on first use.
    inward: OnceLock<Orientation<E>>,
    /// The row ranges `inward` is (or will be) partitioned by.
    in_ranges: Vec<RowRange>,
    out_degrees: Vec<u32>,
    in_degrees: Vec<u32>,
}

impl<E: Clone> Topology<E> {
    /// Build a topology from an edge list. The edge value type of the edge
    /// list carries over into the DCSC matrices unchanged.
    pub fn from_edge_list(edges: &EdgeList<E>, options: GraphBuildOptions) -> Self {
        let nparts = options.effective_partitions_for(available_threads());
        let options = options.with_partitions(nparts.max(1));
        let out_degrees = edges.out_degrees();
        let in_degrees = edges.in_degrees();
        // Rows of Gᵀ are destinations, rows of G are sources.
        let out = Orientation::build(
            &edges.to_transpose_coo(),
            &options.row_ranges(&in_degrees),
            options.build_pull_mirrors,
        );
        let as_u32 = |degrees: Vec<usize>| degrees.into_iter().map(|d| d as u32).collect();
        Topology {
            nvertices: edges.num_vertices(),
            nedges: edges.num_edges(),
            options,
            out,
            inward: OnceLock::new(),
            in_ranges: options.row_ranges(&out_degrees),
            out_degrees: as_u32(out_degrees),
            in_degrees: as_u32(in_degrees),
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
        for part in self.out.matrix.partitions() {
            for (src, dsts, weights) in part.matrix.iter_cols() {
                for (dst, w) in dsts.iter().zip(weights) {
                    el.push(src, *dst, w.clone());
                }
            }
        }
        el
    }

    /// Compile resolved (latest-wins, pair-sorted) edits against this
    /// topology: everything [`DeltaOverlay::compile`] asks about the base —
    /// ranges, degrees, stored copies of an edited pair — is read from `self`.
    pub fn compile_overlay(
        &self,
        resolved: &[(VertexId, VertexId, UpdateOp<E>)],
    ) -> DeltaOverlay<E> {
        let out_ranges = self.out_partition_ranges();
        let facts = BaseFacts {
            num_vertices: self.nvertices,
            num_edges: self.nedges,
            out_ranges: &out_ranges,
            in_ranges: Some(&self.in_ranges),
            out_degrees: &self.out_degrees,
            in_degrees: &self.in_degrees,
        };
        DeltaOverlay::compile(&facts, |s, d| self.edge_multiplicity(s, d), resolved)
    }

    /// This graph with `resolved` edits folded in, built with the options
    /// this topology was built with — what compaction publishes.
    /// [`Topology::to_edge_list`]'s order is deterministic, so the same
    /// history compacts to byte-identical topologies.
    pub fn with_edits(&self, resolved: &[(VertexId, VertexId, UpdateOp<E>)]) -> Self {
        let mut edges = self.to_edge_list().into_tuples();
        apply_resolved_to_edges(&mut edges, resolved);
        let edited = EdgeList::from_tuples(self.nvertices, edges);
        Topology::from_edge_list(&edited, self.options)
    }

    /// The in-edge orientation, derived from the stored `Gᵀ` on first use
    /// (concurrent first users block on one derivation) and kept. It is the
    /// matrix a build from the original edge list's adjacency COO would be:
    /// same ranges, same `(row, col, value)` sequence. Only parallel edges of
    /// one `(src, dst)` pair that carry *different* values may sit in another
    /// order among themselves — the partition sort is unstable, so that
    /// order was never a property of the edge list.
    pub(crate) fn inward(&self) -> &Orientation<E> {
        self.inward.get_or_init(|| {
            // `(src, dst, value)` is already `G`'s `(row, col, value)`.
            let (n, edges) = (self.nvertices, self.to_edge_list().into_tuples());
            let adjacency = Coo::from_entries(n, n, edges);
            Orientation::build(&adjacency, &self.in_ranges, self.options.build_pull_mirrors)
        })
    }

    /// The partitioned `G` used for in-edge traversal. The first call — from
    /// here or from the first `In`/`Both` run — derives it from the stored
    /// `Gᵀ`; call it ahead of time to keep that cost out of a timed region.
    pub fn in_matrix(&self) -> &PartitionedDcsc<E> {
        &self.inward().matrix
    }

    /// The row-major pull mirror of `G` (in-edge traversal), if pull mirrors
    /// are enabled. Derives `G` like [`Topology::in_matrix`].
    pub fn in_pull_mirror(&self) -> Option<&CsrMirror<E>> {
        self.inward().mirror.as_ref()
    }
}

impl<E> Topology<E> {
    /// The row ranges of the out matrix's partitions (`Gᵀ`: row =
    /// destination) — what a delta overlay must be bucketed by to align with
    /// the push kernel's partition sweep.
    pub fn out_partition_ranges(&self) -> Vec<RowRange> {
        self.out
            .matrix
            .partitions()
            .iter()
            .map(|p| p.rows)
            .collect()
    }

    /// The row ranges of the in matrix's partitions (`G`: row = source).
    /// Fixed at build, so always `Some`, whether or not the matrix has been
    /// derived yet.
    pub fn in_partition_ranges(&self) -> Option<Vec<RowRange>> {
        Some(self.in_ranges.clone())
    }

    /// How many copies of edge `src → dst` are stored (`0` for an absent
    /// pair or an out-of-range id): the `Gᵀ` partition whose rows hold
    /// `dst`, its column `src`, the run of `dst` in that column's rows.
    pub fn edge_multiplicity(&self, src: VertexId, dst: VertexId) -> usize {
        let partitions = self.out.matrix.partitions();
        let p = partitions.partition_point(|p| p.rows.end <= dst);
        let Some((rows, _)) = partitions.get(p).and_then(|p| p.matrix.col(src)) else {
            return 0;
        };
        rows.partition_point(|&r| r <= dst) - rows.partition_point(|&r| r < dst)
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

    /// The out-edge orientation (`Gᵀ` and its mirror).
    pub(crate) fn out(&self) -> &Orientation<E> {
        &self.out
    }

    /// The partitioned `Gᵀ` used for out-edge traversal.
    pub fn out_matrix(&self) -> &PartitionedDcsc<E> {
        &self.out.matrix
    }

    /// The row-major pull mirror of `Gᵀ` (out-edge traversal), if it was
    /// built.
    pub fn out_pull_mirror(&self) -> Option<&CsrMirror<E>> {
        self.out.mirror.as_ref()
    }

    /// Whether this topology builds pull mirrors — one flag for every
    /// orientation, so a `Backend::Pull`-forced or selector-chosen pull can
    /// run iff this is `true`.
    pub fn has_pull_mirrors(&self) -> bool {
        self.options.build_pull_mirrors
    }

    /// Number of matrix partitions.
    pub fn num_partitions(&self) -> usize {
        self.out.matrix.n_partitions()
    }

    /// The orientations resident right now: `Gᵀ` always, `G` once derived.
    fn resident(&self) -> impl Iterator<Item = &Orientation<E>> {
        std::iter::once(&self.out).chain(self.inward.get())
    }

    /// Total in-memory footprint of the adjacency matrices **resident right
    /// now**, in bytes, including stored edge values and the pull mirrors
    /// (see [`Topology::pull_bytes`] for the mirrors' share alone): `Gᵀ` and
    /// its mirror, plus `G` and its mirror once an `In`/`Both` program has
    /// derived them. For `E = ()` this is pure index cost — the visible
    /// payoff of the unweighted fast path.
    pub fn matrix_bytes(&self) -> usize {
        let dcsc: usize = self.resident().map(|o| o.matrix.bytes()).sum();
        dcsc + self.pull_bytes()
    }

    /// The memory the resident row-major pull mirrors cost, in bytes — zero
    /// when the topology was built with `build_pull_mirrors = false`,
    /// otherwise roughly one more copy of each resident DCSC matrix (row
    /// pointers + column ids + edge values; zero value bytes for `E = ()`).
    pub fn pull_bytes(&self) -> usize {
        self.resident()
            .filter_map(|o| o.mirror.as_ref())
            .map(|m| m.bytes())
            .sum()
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
        assert_eq!(t.in_matrix().nnz(), 5);
    }

    #[test]
    fn transpose_orientation_is_correct() {
        let t = small_topology();
        // edge 0 -> 1 must appear in Gᵀ as (row=1, col=0)
        assert!(t.out_matrix().iter().any(|(r, c, _)| r == 1 && c == 0));
        // and in G as (row=0, col=1)
        assert!(t.in_matrix().iter().any(|(r, c, _)| r == 0 && c == 1));
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
        assert_eq!(in_mirror.nnz(), t.in_matrix().nnz());
        assert_eq!(out_mirror.n_partitions(), t.num_partitions());
        assert_eq!(t.pull_bytes(), out_mirror.bytes() + in_mirror.bytes());
        assert!(t.matrix_bytes() > t.pull_bytes());
    }

    /// RMAT and grid inputs salted with what the generators leave out: an
    /// isolated vertex (an empty row *and* column), a max-id vertex that is
    /// only reachable through the salt, and self-loops. RMAT keeps parallel
    /// edges; a weight is a function of its `(src, dst)` pair, because the
    /// partition sort is unstable and so leaves the order *among* parallel
    /// edges of different values to the order its input arrived in.
    fn salted_inputs(seed: u64) -> Vec<(&'static str, EdgeList<f32>)> {
        use graphmat_io::grid::{self, GridConfig};
        use graphmat_io::rmat::{self, RmatConfig};
        use graphmat_io::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let rmat = rmat::generate(&RmatConfig::graph500(7).with_seed(seed));
        let grid = grid::generate(&GridConfig::square(9).with_seed(seed));
        [("rmat", rmat), ("grid", grid)]
            .into_iter()
            .map(|(name, el)| {
                let n = el.num_vertices();
                let (isolated, max_id) = (n, n + 1);
                let mut tuples = el.into_tuples();
                tuples.push((max_id, max_id, 0.0));
                tuples.push((rng.gen_range(0..n), max_id, 0.0));
                tuples.push((max_id, rng.gen_range(0..n), 0.0));
                for _ in 0..4 {
                    let v = rng.gen_range(0..n);
                    tuples.push((v, v, 0.0));
                }
                assert!(tuples
                    .iter()
                    .all(|&(s, d, _)| s != isolated && d != isolated));
                let mut salted = EdgeList::from_tuples(n + 2, tuples);
                salted.map_weights(|s, d, _| ((s * 31 + d * 7) % 10) as f32 + 0.5);
                (name, salted)
            })
            .collect()
    }

    /// The derived `G` of `el` under every build shape against an
    /// [`Orientation`] built the way the eager build used to: straight from
    /// the adjacency COO, with ranges from that COO's own row counts.
    fn assert_derived_matches_direct<E>(el: &EdgeList<E>, label: &str)
    where
        E: Clone + PartialEq + std::fmt::Debug,
    {
        let adjacency = el.to_adjacency_coo();
        for partitions in [1, 5, 16] {
            for balanced in [true, false] {
                let label = format!("{label}, {partitions} partitions, balanced {balanced}");
                let ranges = if balanced {
                    RowPartitioner::balanced_nnz(&adjacency.row_counts(), partitions)
                } else {
                    RowPartitioner::even_rows(el.num_vertices(), partitions)
                };
                let direct = Orientation::build(&adjacency, &ranges, true);
                let options = GraphBuildOptions::default()
                    .with_partitions(partitions)
                    .with_balancing(balanced);
                let topology = Topology::from_edge_list(el, options);
                assert_eq!(topology.in_partition_ranges().unwrap(), ranges, "{label}");

                let derived = topology.in_matrix();
                let rows: Vec<RowRange> = derived.partitions().iter().map(|p| p.rows).collect();
                assert_eq!(rows, ranges, "{label}");
                assert!(derived.iter().eq(direct.matrix.iter()), "{label}: DCSC");

                let mirror = topology.in_pull_mirror().unwrap();
                let direct_mirror = direct.mirror.as_ref().unwrap();
                assert_eq!(
                    mirror.n_partitions(),
                    direct_mirror.n_partitions(),
                    "{label}"
                );
                for (got, want) in mirror.partitions().iter().zip(direct_mirror.partitions()) {
                    assert_eq!(got.rows, want.rows, "{label}");
                    assert!(got.iter_rows().eq(want.iter_rows()), "{label}: mirror rows");
                }
            }
        }
    }

    #[test]
    fn derived_in_orientation_equals_one_built_from_the_adjacency_list() {
        const SEED: u64 = 0x5EED;
        for (name, el) in salted_inputs(SEED) {
            assert_derived_matches_direct(&el, &format!("seed {SEED:#x}, {name}, f32"));
            assert_derived_matches_direct(&el.topology(), &format!("seed {SEED:#x}, {name}, ()"));
        }
    }

    /// What the store asks of its base, against the edge list: the stored
    /// multiplicity of a pair, and an overlay compiled from the topology
    /// alone against one compiled from a [`PairIndex`] of the same edges.
    #[test]
    fn multiplicity_and_overlay_compilation_agree_with_the_edge_list() {
        use graphmat_delta::PairIndex;
        use graphmat_io::rng::StdRng;
        use std::collections::BTreeMap;
        const SEED: u64 = 0x5EED;
        let mut rng = StdRng::seed_from_u64(SEED);
        for (name, mut el) in salted_inputs(SEED) {
            let n = el.num_vertices();
            // Parallel edges with distinct values (the salt's weights are a
            // function of the pair): a second copy of every seventh edge.
            let copies: Vec<_> = el.edges().iter().step_by(7).copied().collect();
            for (s, d, w) in copies {
                el.push(s, d, w + 100.0);
            }
            for (partitions, balanced) in
                [1, 3, 8].into_iter().flat_map(|p| [(p, true), (p, false)])
            {
                let label = format!("{name}, {partitions} partitions, balanced {balanced}");
                let options = GraphBuildOptions::default()
                    .with_partitions(partitions)
                    .with_balancing(balanced);
                let t = Topology::from_edge_list(&el, options);
                let stored = t.to_edge_list();
                let mut counts: BTreeMap<(VertexId, VertexId), usize> = BTreeMap::new();
                for &(s, d, _) in stored.edges() {
                    *counts.entry((s, d)).or_default() += 1;
                }
                assert!(counts.values().any(|&m| m > 1), "{label}: no parallel edge");
                for (&(s, d), &m) in &counts {
                    assert_eq!(t.edge_multiplicity(s, d), m, "{label}: ({s}, {d})");
                }
                let mut probes = vec![(n - 1, n - 1), (n - 2, n - 2), (0, n - 2), (n, 0), (0, n)];
                probes.extend((0..200).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))));
                for (s, d) in probes {
                    let want = counts.get(&(s, d)).copied().unwrap_or(0);
                    assert_eq!(t.edge_multiplicity(s, d), want, "{label}: probe ({s}, {d})");
                }

                // Edits over stored pairs (single and parallel) and absent ones.
                let mut resolved: BTreeMap<(VertexId, VertexId), UpdateOp<f32>> = BTreeMap::new();
                let stored_pairs = stored.edges().iter().step_by(5).map(|&(s, d, _)| (s, d));
                let random_pairs = (0..60).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)));
                for (i, pair) in stored_pairs.chain(random_pairs).enumerate() {
                    let op = if i % 3 == 0 {
                        UpdateOp::Delete
                    } else {
                        UpdateOp::Insert(i as f32)
                    };
                    resolved.insert(pair, op);
                }
                let resolved: Vec<_> = resolved
                    .into_iter()
                    .map(|((s, d), op)| (s, d, op))
                    .collect();
                let out_ranges = t.out_partition_ranges();
                let in_ranges = t.in_partition_ranges();
                let facts = BaseFacts {
                    num_vertices: n,
                    num_edges: t.num_edges(),
                    out_ranges: &out_ranges,
                    in_ranges: in_ranges.as_deref(),
                    out_degrees: t.out_degrees(),
                    in_degrees: t.in_degrees(),
                };
                let index = PairIndex::from_edges(stored.edges());
                let want = DeltaOverlay::build(&facts, &index, &resolved);
                let got = t.compile_overlay(&resolved);
                assert_eq!(got.out(), want.out(), "{label}");
                assert_eq!(got.out_degrees(), want.out_degrees(), "{label}");
                assert_eq!(got.in_degrees(), want.in_degrees(), "{label}");
                assert_eq!(got.num_edges(), want.num_edges(), "{label}");
                assert_eq!(got.len(), want.len(), "{label}");
                assert!(got.len() < resolved.len(), "{label}: no absent-pair delete");
                assert_eq!(got.in_overlay(), want.in_overlay(), "{label}");
            }
        }
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
    }

    #[test]
    fn pull_mirrors_can_be_skipped() {
        let el = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        assert!(Topology::from_edge_list(&el, GraphBuildOptions::default()).has_pull_mirrors());
        let t =
            Topology::from_edge_list(&el, GraphBuildOptions::default().with_pull_mirrors(false));
        assert!(!t.has_pull_mirrors());
        assert!(t.out_pull_mirror().is_none());
        // Without mirrors, matrix_bytes is the pure DCSC footprint of what
        // is resident: Gᵀ alone until something asks for G.
        assert_eq!(t.matrix_bytes(), t.out_matrix().bytes());
        assert!(t.in_pull_mirror().is_none());
        assert_eq!(t.pull_bytes(), 0);
        assert_eq!(
            t.matrix_bytes(),
            t.out_matrix().bytes() + t.in_matrix().bytes()
        );
    }
}
