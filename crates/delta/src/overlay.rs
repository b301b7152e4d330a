//! [`DeltaOverlay`]: resolved edits compiled against a base topology's
//! layout, ready to be folded into it.
//!
//! A published `(base ⊕ delta)` snapshot needs more than the kernel
//! [`Overlay`]s: the engine also reads per-vertex degrees (PageRank's
//! rank/degree normalization, the backend selector's edge counts)
//! and the total edge count. [`DeltaOverlay::compile`] computes all of it
//! from four inputs — the base's structural facts ([`BaseFacts`]), a way to
//! ask the base how many copies of a `(src, dst)` pair it stores, the
//! overlay previously compiled against the same base (if any), and a
//! latest-wins resolved batch of edits — without touching the base matrices
//! (`graphmat-core`'s `Topology::compile_overlay` supplies the first two).
//! The batch is merged into the previous overlay ([`Overlay::merged`]):
//! degrees, edge count and ops change by the batch's pairs only, so a write
//! costs what was written plus one linear copy of what is pending — its ops,
//! held column-major only, never an index of the graph's rows.
//!
//! Only the out-edge kernel overlay (aligned to `Gᵀ`) is compiled per batch.
//! Everything else is derived from it on demand, written once and shared by
//! every reader of the snapshot:
//!
//! * the in-edge overlay, like the base's `G`: the first `In`/`Both` run
//!   over the snapshot transposes the out side into it (its entries
//!   bucketed by row, no sort), and `Out` programs — every served algorithm
//!   — never pay for it;
//! * per side, the base's push matrix of that side with its edits folded in
//!   ([`PendingSide::fold_matrix`]) — the matrix a rebuild stores — by the
//!   snapshot's first push along that side, which every later push reads;
//! * per side, the base's pull mirror of that side with its edits folded in
//!   ([`PendingSide::fold_mirror`]) — the mirror a rebuild stores — by the
//!   snapshot's first pull along that side, which every later pull reads.
//!   The fold buckets the side's edits by row itself, and frees them.
//!
//! This is how pending edits are pushed and pulled: there is no merged
//! kernel.

use crate::batch::UpdateOp;
use graphmat_sparse::overlay::{fold_into_matrix, fold_into_mirror, Overlay, OverlayOp};
use graphmat_sparse::parallel::Executor;
use graphmat_sparse::partition::{PartitionedDcsc, RowRange};
use graphmat_sparse::pull::CsrMirror;
use graphmat_sparse::Index;
use std::sync::{Arc, OnceLock};

/// Sorted multiset of a base graph's `(src, dst)` pairs. **Benchmark-
/// frozen**: the store asks the published topology instead
/// (`Topology::edge_multiplicity`), and this stays, with
/// [`DeltaOverlay::build`], only because `benchmark/src/adapter.rs` names both.
#[derive(Clone, Debug, Default)]
pub struct PairIndex {
    pairs: Vec<(Index, Index)>,
}

impl PairIndex {
    /// Build from a base edge list's `(src, dst, _)` triples (any order,
    /// duplicates allowed).
    pub fn from_edges<E>(edges: &[(Index, Index, E)]) -> Self {
        let mut pairs: Vec<(Index, Index)> = edges.iter().map(|&(s, d, _)| (s, d)).collect();
        pairs.sort_unstable();
        PairIndex { pairs }
    }

    /// Number of stored copies of edge `src → dst` in the base.
    pub fn count(&self, src: Index, dst: Index) -> usize {
        let lo = self.pairs.partition_point(|&p| p < (src, dst));
        let hi = self.pairs.partition_point(|&p| p <= (src, dst));
        hi - lo
    }
}

/// The structural facts of a base topology that overlay compilation needs —
/// extracted by the topology so this crate stays independent of
/// `graphmat-core`.
#[derive(Clone, Copy, Debug)]
pub struct BaseFacts<'a> {
    /// Vertex count of the base graph.
    pub num_vertices: Index,
    /// Directed edge count of the base graph.
    pub num_edges: usize,
    /// Row ranges of the base's out matrix (`Gᵀ`: row = destination).
    pub out_ranges: &'a [RowRange],
    /// Row ranges of the base's in matrix (`G`: row = source). A topology
    /// fixes them at build whether or not it has derived `G` yet, so
    /// `Topology::compile_overlay` always passes `Some`; `None` compiles an
    /// overlay that can never derive an in side, which `In`/`Both` runs then
    /// reject (`MissingInMatrix`).
    pub in_ranges: Option<&'a [RowRange]>,
    /// Base out-degrees, indexed by vertex.
    pub out_degrees: &'a [u32],
    /// Base in-degrees, indexed by vertex.
    pub in_degrees: &'a [u32],
}

/// The pending edits of a snapshot, compiled against its base's layout:
/// the kernel overlay of the out-edge traversal plus the merged degree
/// arrays and edge count of the *edited* graph. Like the base topology's
/// `G`, the in-edge side is not compiled until an `In`/`Both` run asks for
/// it ([`DeltaOverlay::in_side`]): every `apply` would otherwise pay for a
/// side that `Out` programs never read. The same goes for each side's folds:
/// its push matrix ([`PendingSide::fold_matrix`]) and its pull mirror
/// ([`PendingSide::fold_mirror`]), which the snapshot's first push and first
/// pull along that side fold.
///
/// Immutable once built (but for those derivations) — a snapshot shares it
/// behind an `Arc` exactly like the base topology.
#[derive(Clone, Debug)]
pub struct DeltaOverlay<E> {
    out: PendingSide<E>,
    /// [`BaseFacts::in_ranges`], kept for the derivation of `in_`.
    in_ranges: Option<Vec<RowRange>>,
    in_: OnceLock<PendingSide<E>>,
    out_degrees: Vec<u32>,
    in_degrees: Vec<u32>,
    num_edges: usize,
}

/// One side of a [`DeltaOverlay`]: the kernel overlay aligned to one of the
/// base's matrices and, once a push or a pull along this side has asked for
/// it, the base's push matrix or pull mirror of that side with the overlay
/// folded in, which every push or pull along it reads.
#[derive(Clone, Debug)]
pub struct PendingSide<E> {
    overlay: Overlay<E>,
    /// `Arc`s so a compaction can publish the out side's folds as they are.
    matrix: OnceLock<Arc<PartitionedDcsc<E>>>,
    mirror: OnceLock<Arc<CsrMirror<E>>>,
}

impl<E> PendingSide<E> {
    fn new(overlay: Overlay<E>) -> Self {
        PendingSide {
            overlay,
            matrix: OnceLock::new(),
            mirror: OnceLock::new(),
        }
    }

    /// The kernel overlay of this side.
    pub fn overlay(&self) -> &Overlay<E> {
        &self.overlay
    }

    /// `base` — this side's push matrix of the topology the overlay was
    /// compiled against — with the overlay folded in on `executor`'s lanes
    /// ([`graphmat_sparse::overlay::fold_into_matrix`]): byte for byte the
    /// matrix a rebuild of the edited graph stores over `base`'s ranges.
    /// Folded the first time it is asked for and kept; concurrent first
    /// calls share one fold.
    ///
    /// # Panics
    /// Panics if the overlay is not aligned with `base`.
    pub fn fold_matrix(
        &self,
        base: &PartitionedDcsc<E>,
        executor: &Executor,
    ) -> &Arc<PartitionedDcsc<E>>
    where
        E: Clone + Send + Sync,
    {
        self.matrix
            .get_or_init(|| Arc::new(fold_into_matrix(base, &self.overlay, executor)))
    }

    /// The folded push matrix, if a push has folded it.
    pub fn folded_matrix(&self) -> Option<&Arc<PartitionedDcsc<E>>> {
        self.matrix.get()
    }

    /// `base` — this side's pull mirror of the topology the overlay was
    /// compiled against — with the overlay folded in on `executor`'s lanes
    /// ([`graphmat_sparse::overlay::fold_into_mirror`]): byte for byte the
    /// mirror a rebuild of the edited graph stores over `base`'s ranges.
    /// Folded the first time it is asked for and kept; concurrent first
    /// calls share one fold.
    ///
    /// # Panics
    /// Panics if `base` does not refine the overlay's ranges.
    pub fn fold_mirror(&self, base: &CsrMirror<E>, executor: &Executor) -> &Arc<CsrMirror<E>>
    where
        E: Clone + Send + Sync,
    {
        self.mirror
            .get_or_init(|| Arc::new(fold_into_mirror(base, &self.overlay, executor)))
    }

    /// The folded pull mirror, if a pull has folded it.
    pub fn folded_mirror(&self) -> Option<&Arc<CsrMirror<E>>> {
        self.mirror.get()
    }
}

impl<E: Clone> DeltaOverlay<E> {
    /// Compile resolved edits — latest-wins, one op per pair, sorted by pair
    /// — against a base, on top of `prev`, the overlay last compiled against
    /// the same base (`None`: on top of the base alone). The result is what
    /// compiling the resolution of `prev`'s edits followed by `edits` would
    /// give, at the cost of the batch plus one linear merge.
    ///
    /// `copies(src, dst)` is how many copies of that edge the base stores. It
    /// is asked at most once per edit, and never about a pair only `prev`
    /// edits: a pair's copies before the edit are `prev`'s op there
    /// (an upsert leaves one, a delete none) if it has one, else the base's.
    ///
    /// A delete of a pair the base does not store leaves no op (it changes
    /// nothing, or undoes a pending insert); an op on a pair the base stores
    /// `m > 1` times masks all `m` copies, and the degree/edge accounting
    /// reflects that.
    pub fn compile(
        facts: &BaseFacts<'_>,
        prev: Option<&DeltaOverlay<E>>,
        copies: impl Fn(Index, Index) -> usize,
        edits: &[(Index, Index, UpdateOp<E>)],
    ) -> Self {
        debug_assert!(
            edits
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "edits must be resolved: one op per pair, sorted by pair"
        );
        let n = facts.num_vertices;
        let empty;
        let (pending, out_degrees, in_degrees, num_edges) = match prev {
            Some(p) => (p.out(), &p.out_degrees[..], &p.in_degrees[..], p.num_edges),
            None => {
                empty = Overlay::empty(n, n, facts.out_ranges);
                (&empty, facts.out_degrees, facts.in_degrees, facts.num_edges)
            }
        };
        debug_assert_eq!(pending.ranges(), facts.out_ranges, "prev is another base's");
        let (mut out_degrees, mut in_degrees) = (out_degrees.to_vec(), in_degrees.to_vec());
        let mut num_edges = num_edges as isize;

        // Out matrix is Gᵀ (row = dst, col = src): pair order is its
        // (col, row) order, the order the merge takes.
        let entries: Vec<(Index, Index, OverlayOp<E>)> = edits
            .iter()
            .map(|(s, d, op)| {
                let op = match op {
                    UpdateOp::Insert(w) => OverlayOp::Upsert(w.clone()),
                    UpdateOp::Delete => OverlayOp::Delete,
                };
                (*d, *s, op)
            })
            .collect();
        let out = pending.merged(&entries, |&(d, s, ref op), held| {
            let before = match held {
                Some(OverlayOp::Upsert(_)) => 1,
                Some(OverlayOp::Delete) => 0,
                None => copies(s, d),
            };
            // A delete takes the coordinate iff the base stores the pair: a
            // held delete says it does, a held upsert is a reweight or an
            // insert, which only the base tells apart.
            let (after, take) = match (op, held) {
                (OverlayOp::Upsert(_), _) => (1, true),
                (OverlayOp::Delete, Some(OverlayOp::Delete)) => (0, true),
                (OverlayOp::Delete, Some(OverlayOp::Upsert(_))) => (0, copies(s, d) > 0),
                (OverlayOp::Delete, None) => (0, before > 0),
            };
            let delta = after as isize - before as isize;
            out_degrees[s as usize] = (out_degrees[s as usize] as isize + delta) as u32;
            in_degrees[d as usize] = (in_degrees[d as usize] as isize + delta) as u32;
            num_edges += delta;
            take
        });

        DeltaOverlay {
            out: PendingSide::new(out),
            in_ranges: facts.in_ranges.map(<[RowRange]>::to_vec),
            in_: OnceLock::new(),
            out_degrees,
            in_degrees,
            num_edges: num_edges as usize,
        }
    }

    /// [`DeltaOverlay::compile`] on top of the base alone, with the
    /// multiplicities read from a [`PairIndex`]. **Benchmark-frozen**, like
    /// the index itself.
    pub fn build(
        facts: &BaseFacts<'_>,
        pair_index: &PairIndex,
        resolved: &[(Index, Index, UpdateOp<E>)],
    ) -> Self {
        Self::compile(facts, None, |s, d| pair_index.count(s, d), resolved)
    }

    /// The in-edge side (aligned to `G`), if the overlay was compiled with
    /// [`BaseFacts::in_ranges`]. Derived from the out side's own entries —
    /// `(row, col, op)` as `(col, row, op)` — the first time it is asked
    /// for; concurrent first calls share one result.
    pub fn in_side(&self) -> Option<&PendingSide<E>> {
        let ranges = self.in_ranges.as_deref()?;
        Some(
            self.in_
                .get_or_init(|| PendingSide::new(self.out().transposed(ranges))),
        )
    }

    /// The kernel overlay for in-edge traversal: [`DeltaOverlay::in_side`]'s.
    pub fn in_overlay(&self) -> Option<&Overlay<E>> {
        self.in_side().map(PendingSide::overlay)
    }
}

impl<E> DeltaOverlay<E> {
    /// The out-edge side (aligned to `Gᵀ`).
    pub fn out_side(&self) -> &PendingSide<E> {
        &self.out
    }

    /// The kernel overlay for out-edge traversal: [`DeltaOverlay::out_side`]'s.
    pub fn out(&self) -> &Overlay<E> {
        &self.out.overlay
    }

    /// Out-degrees of the edited graph, indexed by vertex.
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }

    /// In-degrees of the edited graph, indexed by vertex.
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degrees
    }

    /// Directed edge count of the edited graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of effective pending ops (after dropping absent-pair deletes).
    pub fn len(&self) -> usize {
        self.out().nnz()
    }

    /// `true` if the overlay changes nothing.
    pub fn is_empty(&self) -> bool {
        self.out().is_empty()
    }

    /// The bytes of every fold this overlay holds: per side, the push matrix
    /// once a push along it has folded it and the pull mirror once a pull
    /// has. `None` until something has folded one.
    pub fn folded_bytes(&self) -> Option<usize> {
        let sides = std::iter::once(&self.out).chain(self.in_.get());
        let matrices = sides.clone().filter_map(PendingSide::folded_matrix);
        let mirrors = sides.filter_map(PendingSide::folded_mirror);
        let bytes = matrices
            .map(|m| m.bytes())
            .chain(mirrors.map(|m| m.bytes()));
        bytes.reduce(|a, b| a + b)
    }

    /// Approximate heap footprint in bytes; counts the in side's overlay once
    /// it has been derived, and never a fold, which is a copy of the base's
    /// ([`DeltaOverlay::folded_bytes`] reports them apart).
    pub fn bytes(&self) -> usize {
        self.out().bytes()
            + self.in_.get().map_or(0, |side| side.overlay.bytes())
            + (self.out_degrees.len() + self.in_degrees.len()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_edges() -> Vec<(Index, Index, f32)> {
        vec![
            (0, 1, 1.0),
            (0, 2, 3.0),
            (1, 2, 1.0),
            (2, 3, 2.0),
            (3, 4, 2.0),
            (4, 0, 4.0),
        ]
    }

    fn ranges() -> Vec<RowRange> {
        vec![RowRange { start: 0, end: 3 }, RowRange { start: 3, end: 5 }]
    }

    fn facts<'a>(
        out_ranges: &'a [RowRange],
        in_ranges: Option<&'a [RowRange]>,
        out_deg: &'a [u32],
        in_deg: &'a [u32],
    ) -> BaseFacts<'a> {
        BaseFacts {
            num_vertices: 5,
            num_edges: 6,
            out_ranges,
            in_ranges,
            out_degrees: out_deg,
            in_degrees: in_deg,
        }
    }

    #[test]
    fn pair_index_counts_duplicates() {
        let mut edges = base_edges();
        edges.push((0, 1, 9.0));
        let idx = PairIndex::from_edges(&edges);
        assert_eq!(idx.count(0, 1), 2);
        assert_eq!(idx.count(1, 2), 1);
        assert_eq!(idx.count(3, 3), 0);
    }

    #[test]
    fn degrees_and_edge_count_track_ops() {
        let edges = base_edges();
        let idx = PairIndex::from_edges(&edges);
        let out_deg = [2u32, 1, 1, 1, 1];
        let in_deg = [1u32, 1, 2, 1, 1];
        let r = ranges();
        let f = facts(&r, Some(&r), &out_deg, &in_deg);
        let resolved = vec![
            (0, 1, UpdateOp::Delete),      // existing: degrees drop
            (1, 2, UpdateOp::Insert(9.0)), // reweight: degrees unchanged
            (2, 0, UpdateOp::Insert(1.0)), // fresh insert: degrees grow
            (3, 3, UpdateOp::Delete),      // absent: dropped entirely
        ];
        let ov = DeltaOverlay::build(&f, &idx, &resolved);
        assert_eq!(ov.len(), 3);
        assert_eq!(ov.num_edges(), 6); // -1 +0 +1
        assert_eq!(ov.out_degrees(), &[1, 1, 2, 1, 1]);
        assert_eq!(ov.in_degrees(), &[2, 0, 2, 1, 1]);
        assert_eq!(ov.out().nnz(), 3);
        assert_eq!(ov.in_overlay().unwrap().nnz(), 3);
        assert!(!ov.is_empty());
        assert!(ov.bytes() > 0);
    }

    #[test]
    fn in_side_is_derived_on_first_use_from_the_out_side() {
        let idx = PairIndex::from_edges(&base_edges());
        let out_deg = [2u32, 1, 1, 1, 1];
        let in_deg = [1u32, 1, 2, 1, 1];
        let out_ranges = ranges();
        let in_ranges = vec![RowRange { start: 0, end: 1 }, RowRange { start: 1, end: 5 }];
        let f = facts(&out_ranges, Some(&in_ranges), &out_deg, &in_deg);
        let resolved = vec![
            (0, 1, UpdateOp::Delete),
            (1, 2, UpdateOp::Insert(9.0)),
            (2, 0, UpdateOp::Insert(1.0)),
        ];
        let ov = DeltaOverlay::build(&f, &idx, &resolved);
        let out_only = ov.bytes();
        // What compiling the in side at `build` produced: `G` is row = source.
        let eager = Overlay::from_entries(
            5,
            5,
            &in_ranges,
            vec![
                (0, 1, OverlayOp::Delete),
                (1, 2, OverlayOp::Upsert(9.0)),
                (2, 0, OverlayOp::Upsert(1.0)),
            ],
        );
        let derived = ov.in_overlay().unwrap();
        assert_eq!(*derived, eager);
        assert_eq!(ov.bytes(), out_only + eager.bytes());
        assert!(std::ptr::eq(derived, ov.in_overlay().unwrap()));
    }

    #[test]
    fn duplicate_base_copies_are_fully_masked() {
        let mut edges = base_edges();
        edges.push((0, 1, 9.0)); // (0,1) now stored twice
        let idx = PairIndex::from_edges(&edges);
        let out_deg = [3u32, 1, 1, 1, 1];
        let in_deg = [1u32, 2, 2, 1, 1];
        let r = ranges();
        let f = BaseFacts {
            num_edges: 7,
            ..facts(&r, None, &out_deg, &in_deg)
        };
        // Upsert collapses both copies to one; delete removes both.
        let ov = DeltaOverlay::build(&f, &idx, &[(0, 1, UpdateOp::Insert(5.0))]);
        assert_eq!(ov.num_edges(), 6);
        assert_eq!(ov.out_degrees()[0], 2);
        assert_eq!(ov.in_degrees()[1], 1);
        let ov = DeltaOverlay::build(&f, &idx, &[(0, 1, UpdateOp::<f32>::Delete)]);
        assert_eq!(ov.num_edges(), 5);
        assert_eq!(ov.out_degrees()[0], 1);
        assert_eq!(ov.in_degrees()[1], 0);
        assert!(ov.in_overlay().is_none());
    }

    /// Each batch compiled on top of the last overlay equals the whole
    /// history compiled on top of the base, and asks the base about its own
    /// pairs only, each once.
    #[test]
    fn a_batch_on_top_of_prev_compiles_like_the_whole_history() {
        use std::cell::RefCell;
        let mut edges = base_edges();
        edges.push((0, 1, 9.0)); // (0,1) stored twice
        let idx = PairIndex::from_edges(&edges);
        let out_deg = [3u32, 1, 1, 1, 1];
        let in_deg = [1u32, 2, 2, 1, 1];
        let r = ranges();
        let f = BaseFacts {
            num_edges: 7,
            ..facts(&r, Some(&r), &out_deg, &in_deg)
        };
        let history: [Vec<(Index, Index, UpdateOp<f32>)>; 4] = [
            vec![(0, 1, UpdateOp::Insert(5.0)), (3, 3, UpdateOp::Insert(1.0))],
            vec![(0, 1, UpdateOp::Delete), (1, 2, UpdateOp::Insert(4.0))],
            // Deletes of an absent pair the last batch inserted, and of one
            // nothing ever touched: neither leaves an op.
            vec![(3, 3, UpdateOp::Delete), (4, 4, UpdateOp::Delete)],
            vec![(0, 1, UpdateOp::Insert(6.0)), (1, 2, UpdateOp::Delete)],
        ];
        let mut log = crate::DeltaLog::new();
        let mut prev: Option<DeltaOverlay<f32>> = None;
        for (i, batch) in history.iter().enumerate() {
            log.append(crate::DeltaBatch::from_ops(5, batch.clone()).unwrap());
            let asked = RefCell::new(Vec::new());
            let copies = |s, d| {
                asked.borrow_mut().push((s, d));
                idx.count(s, d)
            };
            let chained = DeltaOverlay::compile(&f, prev.as_ref(), copies, batch);
            let whole = DeltaOverlay::build(&f, &idx, &log.resolve());
            assert_eq!(chained.out(), whole.out(), "batch {i}");
            assert_eq!(chained.out_degrees(), whole.out_degrees(), "batch {i}");
            assert_eq!(chained.in_degrees(), whole.in_degrees(), "batch {i}");
            assert_eq!(chained.num_edges(), whole.num_edges(), "batch {i}");
            assert_eq!(chained.len(), whole.len(), "batch {i}");
            let mut asked = asked.into_inner();
            asked.sort_unstable();
            let times = asked.len();
            asked.dedup();
            assert_eq!(asked.len(), times, "batch {i}: a pair asked twice");
            let pairs = batch.iter().map(|&(s, d, _)| (s, d));
            assert!(
                asked.iter().all(|p| pairs.clone().any(|q| q == *p)),
                "batch {i}"
            );
            prev = Some(chained);
        }
        // (0,1) is one upsert; (1,2) a delete; (3,3) and (4,4) are gone.
        let last = prev.unwrap();
        assert_eq!((last.len(), last.out().n_upserts()), (2, 1));
        assert_eq!(last.num_edges(), 5); // 7 − 2 + 1 − 1
    }

    #[test]
    fn empty_resolution_builds_empty_overlay() {
        let edges = base_edges();
        let idx = PairIndex::from_edges(&edges);
        let out_deg = [2u32, 1, 1, 1, 1];
        let in_deg = [1u32, 1, 2, 1, 1];
        let r = ranges();
        let f = facts(&r, Some(&r), &out_deg, &in_deg);
        let ov: DeltaOverlay<f32> = DeltaOverlay::build(&f, &idx, &[]);
        assert!(ov.is_empty());
        assert_eq!(ov.num_edges(), 6);
        assert_eq!(ov.out_degrees(), &out_deg);
    }
}
