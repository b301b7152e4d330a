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
//!   its row partitions are the DCSC's or refine them (see below);
//! * the out-/in-degree arrays.
//!
//! The non-transposed `G` — what scattering along in-edges multiplies
//! against (§4.2's exception) — is not a build option: it is **derived from
//! the stored `Gᵀ`** the first time an
//! [`EdgeDirection::In`](crate::program::EdgeDirection::In) / `Both` program
//! runs (or [`Topology::in_matrix`] is called), with the same partition
//! count, balancing, push layout and mirror choice, and kept from then on. A
//! graph that only ever serves `Out` programs never pays for it.
//!
//! # Layouts are write-once slots, and pending edits are folded into them
//!
//! Each orientation holds its push matrix and its pull mirror as write-once
//! slots. A base fills them where it is made: `Gᵀ`'s at build, `G`'s when it
//! derives `G`. A topology may instead carry **pending edits** — the `Arc`
//! of the base they were compiled against and their [`DeltaOverlay`] — as a
//! [`crate::store::GraphStore`] snapshot's does. Such an *edited* topology
//! reads its degrees and edge count from the overlay, and fills each slot on
//! first use, on the caller's executor, by folding the base's matching slot
//! with the edits ([`fold_into_matrix`], [`fold_into_mirror`]); its in
//! side's edits are the out side's, transposed against the base's own `G`
//! ranges by the first `In`/`Both` run. A folded column or row is the one a
//! rebuild of the edited graph stores, in the same order, so a run over an
//! edited topology answers like a run over that rebuild, bit for bit, and no
//! kernel ever reads an overlay. Concurrent first users of a slot share one
//! fold, and a fold that panics leaves its slot empty for the next user.
//!
//! The slots are the topology's only interior mutability, and what fills
//! one does not depend on which run got there first. The type stays `Sync`:
//! wrap it in an [`std::sync::Arc`] and run any number of concurrent vertex
//! programs against the same matrices — no cloning, no locks. The mutable
//! per-run half (vertex properties + active set) is
//! [`crate::state::VertexState`].
//!
//! # Partitions: push for the lanes, pull for balance
//!
//! An automatic partition count builds `8 × lanes` row ranges, balanced by
//! edge count (the `nthreads * 8` of the paper's appendix listing), so that
//! skewed RMAT/social graphs do not serialise on one heavy partition. That
//! grain balances a kernel that touches every partition's share of a dense
//! frontier — the pull, since the engine picks a direction per superstep —
//! and the pull mirror keeps it. The push runs on sparse frontiers, where
//! every message is looked up in every partition's `jc`: a push of `m`
//! messages costs about `m ×` the partitions its source's column is stored
//! in. So the build decides once, from the matrix, how the push is split:
//! when the fine partitions of `Gᵀ` store an average non-empty column at
//! least [`PUSH_MERGE_REPLICATION`] times, the push matrix is those
//! partitions merged into one run of consecutive ones per lane, built from
//! the same sorted buckets as the mirror ([`RowBuckets::matrix`]); otherwise
//! it is the fine partitions themselves. `G` follows `Gᵀ`'s decision. An
//! explicit partition count, or a topology without mirrors (whose push also
//! serves dense frontiers), keeps one partitioning for both kernels.

use crate::error::{GraphMatError, Result};
use crate::program::VertexId;
use graphmat_delta::{BaseFacts, DeltaOverlay, UpdateOp};
use graphmat_io::edgelist::EdgeList;
use graphmat_sparse::coo::Coo;
use graphmat_sparse::overlay::{fold_into_matrix, fold_into_mirror, Overlay};
use graphmat_sparse::parallel::{available_threads, Executor};
use graphmat_sparse::partition::{PartitionedDcsc, RowBuckets, RowPartitioner, RowRange};
use graphmat_sparse::pull::CsrMirror;
use std::sync::{Arc, OnceLock};

/// Matrix partitions per lane when the partition count is automatic —
/// the `nthreads * 8` of the paper's appendix listing: enough over-splitting
/// for dynamic scheduling to even out skewed partitions. It is the grain of
/// the pull mirror always, and of the push matrix unless that is merged to
/// one partition per lane (see [`PUSH_MERGE_REPLICATION`]).
pub const PARTITIONS_PER_THREAD: usize = 8;

/// How many times the fine partitions of an automatically partitioned `Gᵀ`
/// must store an average non-empty column for its push matrix to be merged
/// to one partition per lane: `Σ_p |jc_p| ≥ 2 × #{v : out_degree(v) > 0}`.
///
/// Measured at 16 partitions, seed 1 (stored non-empty columns over
/// non-empty columns; what merging to 2 partitions saves per column): RMAT
/// 2¹⁷ 5.83× (4.18 probes), the same symmetrized 6.87× (5.15), RMAT 2¹⁶ /
/// 2¹⁵ / 2¹⁰ 5.89× / 5.97× / 6.33×, a 400² road grid 1.07× (0.06). On the
/// banded grid the frontier walk's span bound already makes a push cost
/// about one probe per message, and the fine grain is what balances its
/// spatially clustered wavefront: merged to 2 partitions, the repo
/// benchmark's `sssp_road` read 7 % slower in 7 of 7 pairs on a 2-core host.
/// So the line sits far from both kinds.
pub const PUSH_MERGE_REPLICATION: usize = 2;

/// Options controlling topology construction.
#[derive(Clone, Copy, Debug)]
pub struct GraphBuildOptions {
    /// Number of matrix partitions, for the push matrix and the pull mirror
    /// alike; `0` picks [`PARTITIONS_PER_THREAD`]` × lanes` for the mirror
    /// and, for the push matrix, the same or one per lane (see the
    /// [module docs](self)).
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

    /// The fine row ranges these options split a matrix into on `lanes`
    /// lanes, given its per-row entry counts.
    fn row_ranges(&self, row_nnz: &[usize], lanes: usize) -> Vec<RowRange> {
        let nparts = match self.num_partitions {
            0 => PARTITIONS_PER_THREAD * lanes,
            n => n,
        };
        if self.balance_partitions {
            RowPartitioner::balanced_nnz(row_nnz, nparts)
        } else {
            RowPartitioner::even_rows(row_nnz.len() as VertexId, nparts)
        }
    }
}

/// One orientation of the adjacency matrix as the engine traverses it: the
/// partitioned DCSC the push kernel sweeps and, when pull mirrors are
/// enabled, the row-major mirror the pull kernel gathers over — built from
/// the fine partitions, which are the push matrix's or refine them. Each is
/// a write-once slot (see the [module docs](self)): a base's are filled
/// where the base is made, an edited topology's by their first use. The
/// slots hold `Arc`s so a compaction can publish the folds a snapshot
/// already made ([`Topology::detached`]).
#[derive(Clone, Debug)]
pub struct Orientation<E> {
    matrix: OnceLock<Arc<PartitionedDcsc<E>>>,
    mirror: OnceLock<Arc<CsrMirror<E>>>,
    /// How an edited topology fills both slots; `None` on a base.
    fold: Option<Fold<E>>,
}

/// An edited topology's recipe for one orientation: the base's orientation
/// of the same side with the pending edits of that side folded in.
#[derive(Clone, Debug)]
struct Fold<E> {
    /// The base the edits were compiled against: a store's published base,
    /// never another edited topology.
    base: Arc<Topology<E>>,
    /// The pending edits, compiled against `base`.
    overlay: Arc<DeltaOverlay<E>>,
    /// The in side's edits — `overlay`'s out side transposed against
    /// `base`'s push ranges of `G` — or `None` on the out side.
    transposed: Option<Overlay<E>>,
}

impl<E: Clone + Send + Sync> Fold<E> {
    /// The base's orientation of this side.
    fn side(&self) -> &Orientation<E> {
        match self.transposed {
            None => &self.base.out,
            Some(_) => self.base.inward(),
        }
    }
}

impl<E> Fold<E> {
    /// The edits aligned to [`Fold::side`].
    fn edits(&self) -> &Overlay<E> {
        self.transposed.as_ref().unwrap_or(self.overlay.out())
    }
}

impl<E: Clone> Orientation<E> {
    /// The mirror of `buckets`, one partition per bucket, and the push
    /// matrix: one partition per bucket too, or for `Some(lanes)` runs of
    /// consecutive buckets merged to one partition per lane.
    fn build(buckets: &RowBuckets<E>, mirror: bool, push_lanes: Option<usize>) -> Self {
        let groups = push_lanes.unwrap_or(buckets.ranges().len());
        let mirror = mirror.then(|| Arc::new(CsrMirror::from_buckets(buckets)));
        Orientation::made(Arc::new(buckets.matrix(groups)), mirror)
    }

    /// A base's two slots, filled.
    fn made(matrix: Arc<PartitionedDcsc<E>>, mirror: Option<Arc<CsrMirror<E>>>) -> Self {
        Orientation {
            matrix: OnceLock::from(matrix),
            mirror: mirror.map_or_else(OnceLock::new, OnceLock::from),
            fold: None,
        }
    }

    /// Two empty slots that `fold` fills.
    fn folding(fold: Fold<E>) -> Self {
        Orientation {
            matrix: OnceLock::new(),
            mirror: OnceLock::new(),
            fold: Some(fold),
        }
    }
}

impl<E: Clone + Send + Sync> Orientation<E> {
    /// The push matrix: a base's own, or an edited topology's fold of its
    /// base's, made by the first call on `executor`'s lanes.
    pub(crate) fn push(&self, executor: &Executor) -> &Arc<PartitionedDcsc<E>> {
        match &self.fold {
            Some(fold) => fold_once(&self.matrix, || {
                fold_into_matrix(fold.side().push(executor), fold.edits(), executor)
            }),
            None => self.built(),
        }
    }

    /// The pull mirror, if the topology has mirrors: a base's own, or an
    /// edited topology's fold of its base's, made by the first call on
    /// `executor`'s lanes.
    pub(crate) fn pull(&self, executor: &Executor) -> Option<&Arc<CsrMirror<E>>> {
        if let Some(mirror) = self.mirror.get() {
            return Some(mirror);
        }
        let fold = self.fold.as_ref()?;
        let base = fold.side().pull(executor)?;
        Some(fold_once(&self.mirror, || {
            fold_into_mirror(base, fold.edits(), executor)
        }))
    }
}

impl<E> Orientation<E> {
    /// A base's push matrix.
    fn built(&self) -> &Arc<PartitionedDcsc<E>> {
        // audit:allow(no-unwrap): a base fills its push matrix where it is
        // made, and only an edited orientation has a recipe to call this
        // without.
        self.matrix.get().expect("a base's push matrix is built")
    }

    /// The push matrix, if it has been made: always on a base, once pushed
    /// (or asked for) on an edited topology.
    pub fn made_matrix(&self) -> Option<&Arc<PartitionedDcsc<E>>> {
        self.matrix.get()
    }

    /// The pull mirror, if it has been made: on a base with mirrors always,
    /// once pulled (or asked for) on an edited topology.
    pub fn made_mirror(&self) -> Option<&Arc<CsrMirror<E>>> {
        self.mirror.get()
    }

    /// The pending edits this orientation's slots fold, aligned to its
    /// base's orientation of the same side; `None` on a base.
    pub fn edits(&self) -> Option<&Overlay<E>> {
        self.fold.as_ref().map(Fold::edits)
    }
}

/// `slot`, filled by `fold` if it is empty. Concurrent first callers share
/// one fold; a fold that panics leaves the slot empty for the next caller.
fn fold_once<T>(slot: &OnceLock<Arc<T>>, fold: impl FnOnce() -> T) -> &Arc<T> {
    slot.get_or_init(|| {
        let _ = graphmat_chaos::fire("topology.fold");
        Arc::new(fold())
    })
}

/// The immutable structural half of a graph: the partitioned DCSC adjacency
/// matrix plus degree arrays, generic over the edge value type `E` (`()`
/// matrices store no edge value bytes at all) — or a base with pending
/// edits, whose layouts are folded on first use (see the
/// [module docs](self)).
///
/// Build one with [`Topology::from_edge_list`] or through
/// [`crate::session::Session::build_graph`], wrap it in an `Arc`, and share
/// it between any number of concurrent runs — every method takes `&self`,
/// and the only things ever written after construction are the layouts'
/// write-once slots.
#[derive(Clone, Debug)]
pub struct Topology<E> {
    nvertices: VertexId,
    nedges: usize,
    /// The options this topology was built with, as given (a partition count
    /// of `0` still means automatic). A compaction
    /// ([`Topology::detached`]) keeps them with the ranges they made.
    options: GraphBuildOptions,
    /// `Gᵀ`: row = destination, column = source. Used for out-edge scatter.
    /// An edited topology's recipe holds its base and its pending edits.
    out: Orientation<E>,
    /// `G`: row = source, column = destination. Used for in-edge scatter;
    /// derived from `out` on first use.
    inward: OnceLock<Orientation<E>>,
    /// The fine row ranges `inward`'s mirror is (or will be) partitioned by.
    in_ranges: Vec<RowRange>,
    /// `Some(lanes)` when both orientations push through their fine
    /// partitions merged to one per lane: decided on `Gᵀ` at build.
    push_lanes: Option<usize>,
    /// A base's degrees; empty on an edited topology, which reads its
    /// overlay's.
    out_degrees: Vec<u32>,
    in_degrees: Vec<u32>,
}

impl<E: Clone> Topology<E> {
    /// Build a topology from an edge list, an automatic partition count
    /// resolved against every available hardware thread. The edge value
    /// type of the edge list carries over into the DCSC matrices unchanged.
    pub fn from_edge_list(edges: &EdgeList<E>, options: GraphBuildOptions) -> Self {
        Topology::build(edges, options, available_threads())
    }

    /// Build a topology whose automatic partition count is resolved against
    /// `lanes` (a session passes its pool size, so a small session on a big
    /// machine does not build an over-partitioned matrix).
    pub(crate) fn build(edges: &EdgeList<E>, options: GraphBuildOptions, lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let out_degrees = edges.out_degrees();
        let in_degrees = edges.in_degrees();
        // Rows of Gᵀ are destinations, rows of G are sources.
        let gt = RowBuckets::new(
            &edges.to_transpose_coo(),
            &options.row_ranges(&in_degrees, lanes),
        );
        // The one layout decision: do `Gᵀ`'s columns repeat across its fine
        // partitions (`Σ_p |jc_p|` against its non-empty columns)?
        let columns = out_degrees.iter().filter(|&&d| d > 0).count();
        let repeat = gt.stored_columns() >= PUSH_MERGE_REPLICATION * columns;
        let automatic = options.num_partitions == 0 && options.build_pull_mirrors;
        let push_lanes = (automatic && repeat).then_some(lanes);
        let out = Orientation::build(&gt, options.build_pull_mirrors, push_lanes);
        let as_u32 = |degrees: Vec<usize>| degrees.into_iter().map(|d| d as u32).collect();
        Topology {
            nvertices: edges.num_vertices(),
            nedges: edges.num_edges(),
            options,
            out,
            inward: OnceLock::new(),
            in_ranges: options.row_ranges(&out_degrees, lanes),
            push_lanes,
            out_degrees: as_u32(out_degrees),
            in_degrees: as_u32(in_degrees),
        }
    }

    /// `base` with `overlay` — edits [`Topology::compile_overlay`] compiled
    /// against it — pending: the topology a store publishes for a write.
    /// It copies nothing of the graph; its layouts are folded from `base`'s
    /// on first use.
    pub(crate) fn edited(base: Arc<Topology<E>>, overlay: DeltaOverlay<E>) -> Self {
        Topology {
            nvertices: base.nvertices,
            nedges: overlay.num_edges(),
            options: base.options,
            inward: OnceLock::new(),
            in_ranges: base.in_ranges.clone(),
            push_lanes: base.push_lanes,
            out_degrees: Vec::new(),
            in_degrees: Vec::new(),
            out: Orientation::folding(Fold {
                base,
                overlay: Arc::new(overlay),
                transposed: None,
            }),
        }
    }
}

impl<E: Clone + Send + Sync> Topology<E> {
    /// The in-edge orientation, made on first use (concurrent first users
    /// block on one) and kept. A base derives it from the stored `Gᵀ`: the
    /// matrix a build from the original edge list's adjacency COO would be —
    /// same ranges, same `(row, col, value)` sequence, merged for the push
    /// when `Gᵀ` was. Only parallel edges of one `(src, dst)` pair that carry
    /// *different* values may sit in another order among themselves — the
    /// partition sort is unstable, so that order was never a property of the
    /// edge list. An edited topology transposes its out side's edits against
    /// its base's `G` ranges, to fold into the base's `G` on first use.
    pub(crate) fn inward(&self) -> &Orientation<E> {
        self.inward.get_or_init(|| match self.fold() {
            Some(fold) => {
                let ranges = self.in_push_ranges();
                Orientation::folding(Fold {
                    transposed: Some(fold.overlay.out().transposed(&ranges)),
                    ..fold.clone()
                })
            }
            None => {
                // `(src, dst, value)` is already `G`'s `(row, col, value)`.
                let (n, edges) = (self.nvertices, self.to_edge_list().into_tuples());
                let adjacency = Coo::from_entries(n, n, edges);
                let g = RowBuckets::new(&adjacency, &self.in_ranges);
                Orientation::build(&g, self.options.build_pull_mirrors, self.push_lanes)
            }
        })
    }

    /// Reconstruct the edge list the topology stores, in a **deterministic**
    /// order: out-matrix partitions ascending, source (column) ascending
    /// within each partition, destination ascending within each column.
    /// Equal topologies therefore produce byte-identical lists — what the
    /// derivation of `G` reads, so equal topologies derive equal `G`s.
    pub fn to_edge_list(&self) -> EdgeList<E> {
        let mut el = EdgeList::new(self.nvertices);
        // Out matrix is Gᵀ: row = destination, column = source.
        for part in self.out_matrix().partitions() {
            for (src, dsts, weights) in part.matrix.iter_cols() {
                for (dst, w) in dsts.iter().zip(weights) {
                    el.push(src, *dst, w.clone());
                }
            }
        }
        el
    }

    /// Compile resolved (latest-wins, pair-sorted) edits against this
    /// topology, merged into `prev` — the overlay last compiled against it —
    /// or, for `None`, on top of the base alone. Everything
    /// [`DeltaOverlay::compile`] asks about the base — ranges, degrees,
    /// stored copies of an edited pair ([`Topology::edge_multiplicity`], at
    /// most once per edit) — is read from `self`.
    pub fn compile_overlay(
        &self,
        prev: Option<&DeltaOverlay<E>>,
        edits: &[(VertexId, VertexId, UpdateOp<E>)],
    ) -> DeltaOverlay<E> {
        let out_ranges = self.out_partition_ranges();
        let in_ranges = self.in_partition_ranges();
        let facts = BaseFacts {
            num_vertices: self.nvertices,
            num_edges: self.num_edges(),
            out_ranges: &out_ranges,
            in_ranges: in_ranges.as_deref(),
            out_degrees: self.out_degrees(),
            in_degrees: self.in_degrees(),
        };
        DeltaOverlay::compile(&facts, prev, |s, d| self.edge_multiplicity(s, d), edits)
    }

    /// This topology as a base of its own: what compaction publishes. An
    /// edited topology's out-side folds — the ones its pushes and pulls
    /// already made, shared, not copied, or made now on one lane and kept
    /// with this topology for its own reads — become the new base's `Gᵀ`,
    /// and its degrees are copied out of the overlay. Each fold keeps every
    /// range of the base it was folded from, so the result keeps that
    /// base's options and layout — push, mirror and `G`'s ranges — rather
    /// than re-balancing them to the edited degrees (answers do not depend
    /// on the partitioning), and derives `G` on first use, as any base does.
    /// The same history therefore compacts to byte-identical topologies,
    /// however often it was compacted along the way. On a base, a copy that
    /// shares its `Gᵀ`.
    pub fn detached(&self) -> Self {
        let executor = &Executor::sequential();
        let matrix = Arc::clone(self.out.push(executor));
        Topology {
            nvertices: self.nvertices,
            nedges: self.nedges,
            options: self.options,
            out: Orientation::made(matrix, self.out.pull(executor).cloned()),
            inward: OnceLock::new(),
            in_ranges: self.in_ranges.clone(),
            push_lanes: self.push_lanes,
            out_degrees: self.out_degrees().to_vec(),
            in_degrees: self.in_degrees().to_vec(),
        }
    }

    /// The partitioned `G` used for in-edge traversal. The first call — from
    /// here or from the first `In`/`Both` run — derives it from the stored
    /// `Gᵀ` (on an edited topology, folds it); call it ahead of time to keep
    /// that cost out of a timed region.
    pub fn in_matrix(&self) -> &PartitionedDcsc<E> {
        self.inward().push(&Executor::sequential())
    }

    /// The row-major pull mirror of `G` (in-edge traversal), if pull mirrors
    /// are enabled. Derives `G` like [`Topology::in_matrix`].
    pub fn in_pull_mirror(&self) -> Option<&CsrMirror<E>> {
        let mirror = self.inward().pull(&Executor::sequential());
        mirror.map(|m| &**m)
    }

    /// The partitioned `Gᵀ` used for out-edge traversal; an edited
    /// topology's is folded on the first call.
    pub fn out_matrix(&self) -> &PartitionedDcsc<E> {
        self.out.push(&Executor::sequential())
    }

    /// The row-major pull mirror of `Gᵀ` (out-edge traversal), if it was
    /// built; an edited topology's is folded on the first call.
    pub fn out_pull_mirror(&self) -> Option<&CsrMirror<E>> {
        self.out.pull(&Executor::sequential()).map(|m| &**m)
    }

    /// How many copies of edge `src → dst` are stored (`0` for an absent
    /// pair or an out-of-range id): the `Gᵀ` partition whose rows hold
    /// `dst`, its column `src`, the run of `dst` in that column's rows.
    pub fn edge_multiplicity(&self, src: VertexId, dst: VertexId) -> usize {
        let partitions = self.out_matrix().partitions();
        let p = partitions.partition_point(|p| p.rows.end <= dst);
        let Some((rows, _)) = partitions.get(p).and_then(|p| p.matrix.col(src)) else {
            return 0;
        };
        rows.partition_point(|&r| r <= dst) - rows.partition_point(|&r| r < dst)
    }
}

impl<E> Topology<E> {
    /// The row ranges of the in matrix's push partitions (`G`: row =
    /// source), fixed at build.
    fn in_push_ranges(&self) -> Vec<RowRange> {
        match self.push_lanes {
            Some(lanes) => RowPartitioner::coarsen(&self.in_ranges, lanes),
            None => self.in_ranges.clone(),
        }
    }

    /// The row ranges of the in matrix's partitions (`G`: row = source) —
    /// the push partitions an in-side overlay aligns to. Fixed at build, so
    /// always `Some`, whether or not the matrix has been derived yet.
    pub fn in_partition_ranges(&self) -> Option<Vec<RowRange>> {
        Some(self.in_push_ranges())
    }

    /// The row ranges of the out matrix's partitions (`Gᵀ`: row =
    /// destination) — what a delta overlay must be bucketed by to align with
    /// the push kernel's partition sweep (the pull mirror's ranges refine
    /// them).
    pub fn out_partition_ranges(&self) -> Vec<RowRange> {
        let matrix = self.layout().out.built();
        matrix.partitions().iter().map(|p| p.rows).collect()
    }

    /// Number of push partitions (the out matrix's). The pull mirror's count
    /// is the same or, where the push matrix was merged to one partition per
    /// lane, up to [`PARTITIONS_PER_THREAD`] times it (see the
    /// [module docs](self)).
    pub fn num_partitions(&self) -> usize {
        self.layout().out.built().n_partitions()
    }

    /// The recipe of an edited topology's out side, which holds its base and
    /// its pending edits; `None` on a base.
    fn fold(&self) -> Option<&Fold<E>> {
        self.out.fold.as_ref()
    }

    /// The base whose layout this topology's is: itself, or an edited
    /// topology's base (a fold keeps every range of what it folds).
    fn layout(&self) -> &Topology<E> {
        self.fold().map_or(self, |fold| &fold.base)
    }

    /// The base this topology's pending edits were compiled against; `None`
    /// on a base.
    pub(crate) fn base(&self) -> Option<&Arc<Topology<E>>> {
        self.fold().map(|fold| &fold.base)
    }

    /// This topology's pending edits; `None` on a base.
    pub(crate) fn overlay(&self) -> Option<&Arc<DeltaOverlay<E>>> {
        self.fold().map(|fold| &fold.overlay)
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
        self.out_degrees()
            .get(v as usize)
            .copied()
            .ok_or(self.out_of_range(v))
    }

    /// In-degree of vertex `v`, or an error for an out-of-range id.
    pub fn try_in_degree(&self, v: VertexId) -> Result<u32> {
        self.in_degrees()
            .get(v as usize)
            .copied()
            .ok_or(self.out_of_range(v))
    }

    /// Out-degree of vertex `v`. Panics with the vertex id and vertex count
    /// if `v` is out of range.
    pub fn out_degree(&self, v: VertexId) -> u32 {
        match self.out_degrees().get(v as usize) {
            Some(&d) => d,
            // audit:allow(no-unwrap): documented panicking variant;
            // `try_out_degree` is the fallible twin.
            None => panic!("{}", self.out_of_range(v)),
        }
    }

    /// In-degree of vertex `v`. Panics with the vertex id and vertex count
    /// if `v` is out of range.
    pub fn in_degree(&self, v: VertexId) -> u32 {
        match self.in_degrees().get(v as usize) {
            Some(&d) => d,
            // audit:allow(no-unwrap): documented panicking variant;
            // `try_in_degree` is the fallible twin.
            None => panic!("{}", self.out_of_range(v)),
        }
    }

    /// All out-degrees (indexed by vertex id).
    pub fn out_degrees(&self) -> &[u32] {
        self.fold()
            .map_or(&self.out_degrees, |fold| fold.overlay.out_degrees())
    }

    /// All in-degrees (indexed by vertex id).
    pub fn in_degrees(&self) -> &[u32] {
        self.fold()
            .map_or(&self.in_degrees, |fold| fold.overlay.in_degrees())
    }

    /// The out-edge orientation (`Gᵀ` and its mirror), its slots as made so
    /// far.
    pub fn out_side(&self) -> &Orientation<E> {
        &self.out
    }

    /// The in-edge orientation (`G` and its mirror), once the first
    /// `In`/`Both` run (or [`Topology::in_matrix`]) has made it.
    pub fn in_side(&self) -> Option<&Orientation<E>> {
        self.inward.get()
    }

    /// Whether this topology builds pull mirrors — one flag for every
    /// orientation, so a `Backend::Pull`-forced or selector-chosen pull can
    /// run iff this is `true`.
    pub fn has_pull_mirrors(&self) -> bool {
        self.options.build_pull_mirrors
    }

    /// This topology's own orientations: `Gᵀ` always, `G` once made.
    fn orientations(&self) -> impl Iterator<Item = &Orientation<E>> {
        std::iter::once(&self.out).chain(self.inward.get())
    }

    /// The orientations whose layouts are resident right now: this
    /// topology's and, on an edited topology, its base's, which it keeps
    /// alive.
    fn resident(&self) -> impl Iterator<Item = &Orientation<E>> {
        let base = self.fold().into_iter();
        self.orientations()
            .chain(base.flat_map(|fold| fold.base.orientations()))
    }

    /// Total in-memory footprint of the adjacency matrices **resident right
    /// now**, in bytes, including stored edge values and the pull mirrors
    /// (see [`Topology::pull_bytes`] for the mirrors' share alone): `Gᵀ` and
    /// its mirror, plus `G` and its mirror once an `In`/`Both` program has
    /// derived them — on an edited topology, its base's and the folds it has
    /// made. For `E = ()` this is pure index cost — the visible payoff of
    /// the unweighted fast path.
    pub fn matrix_bytes(&self) -> usize {
        let dcsc: usize = self
            .resident()
            .filter_map(|o| o.matrix.get())
            .map(|m| m.bytes())
            .sum();
        dcsc + self.pull_bytes()
    }

    /// The memory the resident row-major pull mirrors cost, in bytes — zero
    /// when the topology was built with `build_pull_mirrors = false`,
    /// otherwise roughly one more copy of each resident DCSC matrix (row
    /// pointers + column ids + edge values; zero value bytes for `E = ()`).
    pub fn pull_bytes(&self) -> usize {
        self.resident()
            .filter_map(|o| o.mirror.get())
            .map(|m| m.bytes())
            .sum()
    }

    /// The bytes of the folds an edited topology has made so far — per side,
    /// a copy of its base's DCSC and mirror with the pending edits folded in
    /// — or `None` until one has been, and always on a base.
    pub(crate) fn folded_bytes(&self) -> Option<usize> {
        self.fold()?;
        let matrices = self.orientations().filter_map(|o| o.matrix.get());
        let mirrors = self.orientations().filter_map(|o| o.mirror.get());
        let bytes = matrices
            .map(|m| m.bytes())
            .chain(mirrors.map(|m| m.bytes()));
        bytes.reduce(|a, b| a + b)
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
        for options in [
            GraphBuildOptions::default().with_partitions(2),
            GraphBuildOptions::default(),
        ] {
            let t = Topology::build(&el, options, 1);
            let out_mirror = t.out_pull_mirror().unwrap();
            let in_mirror = t.in_pull_mirror().unwrap();
            assert_eq!(out_mirror.nnz(), t.out_matrix().nnz());
            assert_eq!(in_mirror.nnz(), t.in_matrix().nnz());
            assert_refines(&t.out_partition_ranges(), &ranges_of(out_mirror));
            assert_refines(&t.in_partition_ranges().unwrap(), &ranges_of(in_mirror));
            assert_eq!(t.pull_bytes(), out_mirror.bytes() + in_mirror.bytes());
            assert!(t.matrix_bytes() > t.pull_bytes());
        }
    }

    fn ranges_of<E>(mirror: &CsrMirror<E>) -> Vec<RowRange> {
        mirror.partitions().iter().map(|p| p.rows).collect()
    }

    fn push_ranges<E>(matrix: &PartitionedDcsc<E>) -> Vec<RowRange> {
        matrix.partitions().iter().map(|p| p.rows).collect()
    }

    /// Every one of `fine` lies inside one of `coarse`: each coarse range is
    /// a union of consecutive fine ones (both cover the rows contiguously).
    fn assert_refines(coarse: &[RowRange], fine: &[RowRange]) {
        for f in fine.iter().filter(|f| !f.is_empty()) {
            let inside = |c: &&RowRange| c.start <= f.start && f.end <= c.end;
            assert!(coarse.iter().any(|c| inside(&c)), "{f:?} in {coarse:?}");
        }
    }

    /// An automatic build of an RMAT matrix (its columns stored ~6 times
    /// over 8 × lanes partitions) pushes through one partition per lane,
    /// each the union of consecutive mirror ranges, while the mirror keeps
    /// the 8 × lanes balanced ranges; `G` follows `Gᵀ`'s decision.
    #[test]
    fn an_rmat_matrix_pushes_through_one_partition_per_lane() {
        use graphmat_io::rmat::{self, RmatConfig};
        let el = rmat::generate(&RmatConfig::graph500(10).with_seed(1));
        let (out_degrees, in_degrees) = (el.out_degrees(), el.in_degrees());
        for lanes in [1usize, 2, 4] {
            let t = Topology::build(&el, GraphBuildOptions::default(), lanes);
            let fine = RowPartitioner::balanced_nnz(&in_degrees, 8 * lanes);
            assert!(
                fine.len() > 2 * lanes,
                "{lanes} lanes: {} ranges",
                fine.len()
            );
            assert_eq!(
                ranges_of(t.out_pull_mirror().unwrap()),
                fine,
                "{lanes} lanes"
            );
            assert_eq!(t.num_partitions(), lanes);
            assert_eq!(
                t.out_partition_ranges(),
                RowPartitioner::coarsen(&fine, lanes)
            );
            assert_refines(&t.out_partition_ranges(), &fine);

            let in_fine = RowPartitioner::balanced_nnz(&out_degrees, 8 * lanes);
            let in_push = t.in_partition_ranges().unwrap();
            assert_eq!(in_push, RowPartitioner::coarsen(&in_fine, lanes));
            assert_eq!(push_ranges(t.in_matrix()), in_push, "{lanes} lanes");
            assert_eq!(ranges_of(t.in_pull_mirror().unwrap()), in_fine);
            assert_refines(&in_push, &in_fine);
        }
    }

    /// A banded matrix stores a column in about one partition, so its push
    /// keeps the fine ranges — `sssp_road`'s topology does not change.
    #[test]
    fn a_banded_matrix_pushes_through_its_fine_partitions() {
        let (_, grid) = salted_inputs(0x5EED).swap_remove(1);
        for lanes in [1usize, 2, 4] {
            let t = Topology::build(&grid, GraphBuildOptions::default(), lanes);
            let fine = ranges_of(t.out_pull_mirror().unwrap());
            assert_eq!(t.num_partitions(), 8 * lanes, "{lanes} lanes");
            assert_eq!(t.out_partition_ranges(), fine);
            let in_fine = ranges_of(t.in_pull_mirror().unwrap());
            assert_eq!(t.in_partition_ranges().unwrap(), in_fine);
        }
    }

    /// Compaction keeps the layout of the base it folds into — push count
    /// and ranges, mirror ranges, `G`'s ranges — for an automatic build (on
    /// the lane count its session resolved, not this machine's) and an
    /// explicit one, although the edits skew the in-degrees enough that a
    /// build of the edited graph would balance its mirror differently.
    #[test]
    fn compaction_keeps_the_parent_bases_layout() {
        use graphmat_io::rmat::{self, RmatConfig};
        let el = rmat::generate(&RmatConfig::graph500(10).with_seed(1));
        let n = el.num_vertices();
        let (s, d, _) = el.edges()[0];
        let mut resolved: Vec<_> = (0..n - 1)
            .map(|v| (v, n - 1, UpdateOp::Insert(2.5)))
            .chain([(s, d, UpdateOp::Delete)])
            .collect();
        resolved.sort_by_key(|&(s, d, _)| (s, d));
        for (options, push) in [
            (GraphBuildOptions::default(), 3),
            (GraphBuildOptions::default().with_partitions(5), 5),
        ] {
            let t = Topology::build(&el, options, 3);
            let fine = ranges_of(t.out_pull_mirror().unwrap());
            let in_degrees: Vec<usize> = t.in_degrees().iter().map(|&d| d as usize).collect();
            assert_eq!(fine, options.row_ranges(&in_degrees, 3));
            let (out_ranges, in_ranges) = (t.out_partition_ranges(), t.in_partition_ranges());
            let overlay = t.compile_overlay(None, &resolved);
            let compacted = Topology::edited(Arc::new(t), overlay).detached();
            assert_eq!(compacted.num_partitions(), push);
            assert_eq!(compacted.out_partition_ranges(), out_ranges);
            assert_eq!(ranges_of(compacted.out_pull_mirror().unwrap()), fine);
            assert_eq!(compacted.in_partition_ranges(), in_ranges);
            let in_push = push_ranges(compacted.in_matrix());
            assert_eq!(Some(in_push), in_ranges);
            let edited: Vec<usize> = compacted.in_degrees().iter().map(|&d| d as usize).collect();
            assert_ne!(options.row_ranges(&edited, 3), fine, "the edits must skew");
        }
    }

    /// Merging changes how the push matrix is split, not what it stores:
    /// the same edge multiset, the same multiplicities, the same mirror.
    #[test]
    fn a_merged_push_matrix_stores_what_the_fine_one_stores() {
        for (name, mut el) in salted_inputs(0x5EED) {
            let copies: Vec<_> = el.edges().iter().step_by(7).copied().collect();
            for (s, d, w) in copies {
                el.push(s, d, w + 100.0);
            }
            let merged = Topology::build(&el, GraphBuildOptions::default(), 2);
            let fine = Topology::build(&el, GraphBuildOptions::default().with_partitions(16), 2);
            if name == "rmat" {
                assert_eq!(merged.num_partitions(), 2);
            }
            let fine_ranges = ranges_of(fine.out_pull_mirror().unwrap());
            assert_eq!(fine.out_partition_ranges(), fine_ranges, "{name}");
            let sorted = |t: &Topology<f32>| {
                let mut edges: Vec<_> = t
                    .to_edge_list()
                    .edges()
                    .iter()
                    .map(|&(s, d, w)| (s, d, w.to_bits()))
                    .collect();
                edges.sort_unstable();
                edges
            };
            let edges = sorted(&fine);
            assert_eq!(sorted(&merged), edges, "{name}");
            // Every stored pair, the pair one column over, and ids past the end.
            let n = el.num_vertices();
            let stored = edges.iter().map(|&(s, d, _)| (s, d));
            let beside = edges.iter().map(|&(s, d, _)| (s, (d + 1) % n));
            for (s, d) in stored.chain(beside).chain([(n, 0), (0, n)]) {
                let (got, want) = (merged.edge_multiplicity(s, d), fine.edge_multiplicity(s, d));
                assert_eq!(got, want, "{name}: ({s}, {d})");
            }
            let (m, f) = (
                merged.out_pull_mirror().unwrap(),
                fine.out_pull_mirror().unwrap(),
            );
            assert_eq!(ranges_of(m), ranges_of(f), "{name}");
            for (got, want) in m.partitions().iter().zip(f.partitions()) {
                assert!(got.iter_rows().eq(want.iter_rows()), "{name}: mirror rows");
            }
            assert_eq!(merged.pull_bytes(), fine.pull_bytes(), "{name}");
            if name == "rmat" {
                assert!(merged.matrix_bytes() < fine.matrix_bytes());
            }
        }
    }

    /// RMAT and grid inputs salted with what the generators leave out: an
    /// isolated vertex (an empty row *and* column), a max-id vertex that is
    /// only reachable through the salt, and self-loops. RMAT keeps parallel
    /// edges; a weight is a function of its `(src, dst)` pair, because the
    /// partition sort is unstable and so leaves the order *among* parallel
    /// edges of different values to the order its input arrived in. The grid
    /// is large enough for its columns to sit in about one of up to 32
    /// balanced partitions each, as a road network's do.
    fn salted_inputs(seed: u64) -> Vec<(&'static str, EdgeList<f32>)> {
        use graphmat_io::grid::{self, GridConfig};
        use graphmat_io::rmat::{self, RmatConfig};
        use graphmat_io::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let rmat = rmat::generate(&RmatConfig::graph500(7).with_seed(seed));
        let grid = grid::generate(&GridConfig::square(96).with_seed(seed));
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
        E: Clone + Send + Sync + PartialEq + std::fmt::Debug,
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
                let direct = Orientation::build(&RowBuckets::new(&adjacency, &ranges), true, None);
                let options = GraphBuildOptions::default()
                    .with_partitions(partitions)
                    .with_balancing(balanced);
                let topology = Topology::from_edge_list(el, options);
                assert_eq!(topology.in_partition_ranges().unwrap(), ranges, "{label}");

                let derived = topology.in_matrix();
                let rows: Vec<RowRange> = derived.partitions().iter().map(|p| p.rows).collect();
                assert_eq!(rows, ranges, "{label}");
                assert!(derived.iter().eq(direct.built().iter()), "{label}: DCSC");

                let mirror = topology.in_pull_mirror().unwrap();
                let direct_mirror = direct.made_mirror().unwrap();
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
                let got = t.compile_overlay(None, &resolved);
                assert_eq!(got.out(), want.out(), "{label}");
                assert_eq!(got.out_degrees(), want.out_degrees(), "{label}");
                assert_eq!(got.in_degrees(), want.in_degrees(), "{label}");
                assert_eq!(got.num_edges(), want.num_edges(), "{label}");
                assert_eq!(got.len(), want.len(), "{label}");
                assert!(got.len() < resolved.len(), "{label}: no absent-pair delete");
            }
        }
    }

    /// An edited topology transposes its out side's edits against its base's
    /// `G` ranges once, on first use, and folds them into the base's `G`:
    /// the `G` a build of the edited edge list derives.
    #[test]
    fn an_edited_topology_derives_its_in_side_once_from_its_out_side() {
        use graphmat_delta::UpdateOp::{Delete, Insert};
        use graphmat_sparse::overlay::{Overlay, OverlayOp};
        let options = GraphBuildOptions::default()
            .with_partitions(2)
            .with_balancing(false);
        let t = small_topology();
        let base = Arc::new(Topology::from_edge_list(&t.to_edge_list(), options));
        let edits = [(0, 1, Delete), (1, 2, Insert(9.0)), (3, 2, Insert(1.0))];
        let edited = Topology::edited(Arc::clone(&base), base.compile_overlay(None, &edits));
        assert!(edited.in_side().is_none());
        // `G` is row = source.
        let ops = vec![
            (0, 1, OverlayOp::Delete),
            (1, 2, OverlayOp::Upsert(9.0)),
            (3, 2, OverlayOp::Upsert(1.0)),
        ];
        let want = Overlay::from_entries(4, 4, &base.in_partition_ranges().unwrap(), ops);
        let folded = edited.in_matrix();
        let side = edited.in_side().unwrap();
        assert_eq!(side.edits(), Some(&want));
        assert!(
            side.made_mirror().is_none(),
            "a push read folded the mirror"
        );
        let again = edited.in_side().unwrap().edits().unwrap();
        assert!(std::ptr::eq(side.edits().unwrap(), again));
        let el = EdgeList::from_tuples(
            4,
            vec![
                (0, 2, 2.0),
                (1, 2, 9.0),
                (2, 3, 4.0),
                (3, 0, 5.0),
                (3, 2, 1.0),
            ],
        );
        let rebuilt = Topology::from_edge_list(&el, options);
        assert!(folded.iter().eq(rebuilt.in_matrix().iter()));
        assert_eq!(edited.in_degrees(), rebuilt.in_degrees());
        assert_eq!(edited.num_edges(), rebuilt.num_edges());
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
