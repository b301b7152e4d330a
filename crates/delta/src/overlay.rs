//! [`DeltaOverlay`]: the resolved delta log compiled against a base
//! topology's layout, ready for the overlay-aware SpMV.
//!
//! A published `(base ⊕ delta)` snapshot needs more than the kernel
//! [`Overlay`]s: the engine also reads per-vertex degrees (PageRank's
//! rank/degree normalization, the backend selector's edge counts)
//! and the total edge count. [`DeltaOverlay::compile`] computes all of it
//! from three inputs — the base's structural facts ([`BaseFacts`]), a way to
//! ask the base how many copies of a `(src, dst)` pair it stores, and the
//! latest-wins resolution of the log — without touching the base matrices
//! (`graphmat-core`'s `Topology::compile_overlay` supplies the first two).
//!
//! Only the out-edge kernel overlay (aligned to `Gᵀ`) is compiled per batch.
//! The in-edge one is derived on demand, like the base's `G`: the first
//! `In`/`Both` run over the snapshot transposes the out side's entries into
//! it, and `Out` programs — every served algorithm — never pay for it.

use crate::batch::UpdateOp;
use graphmat_sparse::overlay::{Overlay, OverlayOp};
use graphmat_sparse::partition::RowRange;
use graphmat_sparse::Index;
use std::sync::OnceLock;

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
/// `G`, the in-edge overlay is not compiled until an `In`/`Both` run asks
/// for it ([`DeltaOverlay::in_overlay`]): every `apply` would otherwise pay
/// for a side that `Out` programs never read.
///
/// Immutable once built (but for that one derivation) — a snapshot shares
/// it behind an `Arc` exactly like the base topology.
#[derive(Clone, Debug)]
pub struct DeltaOverlay<E> {
    out: Overlay<E>,
    /// [`BaseFacts::in_ranges`], kept for the derivation of `in_`.
    in_ranges: Option<Vec<RowRange>>,
    in_: OnceLock<Overlay<E>>,
    out_degrees: Vec<u32>,
    in_degrees: Vec<u32>,
    num_edges: usize,
    n_ops: usize,
}

impl<E: Clone> DeltaOverlay<E> {
    /// Compile resolved (latest-wins, pair-sorted) ops against a base.
    /// `copies(src, dst)` is how many copies of that edge the base stores:
    /// it tells a new edge from a reweight, and a delete of `m ≥ 1` stored
    /// copies from one that changes nothing.
    ///
    /// Deletes of pairs absent from the base are dropped (they change
    /// nothing); an op on a pair the base stores `m > 1` times masks all
    /// `m` copies, and the degree/edge accounting reflects that.
    pub fn compile(
        facts: &BaseFacts<'_>,
        copies: impl Fn(Index, Index) -> usize,
        resolved: &[(Index, Index, UpdateOp<E>)],
    ) -> Self {
        let n = facts.num_vertices;
        let mut out_degrees: Vec<u32> = facts.out_degrees.to_vec();
        let mut in_degrees: Vec<u32> = facts.in_degrees.to_vec();
        let mut num_edges = facts.num_edges as isize;

        let mut out_entries: Vec<(Index, Index, OverlayOp<E>)> = Vec::new();
        let mut n_ops = 0usize;
        for (s, d, op) in resolved {
            let m = copies(*s, *d) as isize;
            let (kernel_op, copies_after) = match op {
                UpdateOp::Insert(w) => (OverlayOp::Upsert(w.clone()), 1isize),
                UpdateOp::Delete => {
                    if m == 0 {
                        continue; // deleting an absent edge changes nothing
                    }
                    (OverlayOp::Delete, 0)
                }
            };
            let delta = copies_after - m;
            out_degrees[*s as usize] = (out_degrees[*s as usize] as isize + delta) as u32;
            in_degrees[*d as usize] = (in_degrees[*d as usize] as isize + delta) as u32;
            num_edges += delta;
            n_ops += 1;
            // Out matrix is Gᵀ (row = dst, col = src).
            out_entries.push((*d, *s, kernel_op));
        }

        DeltaOverlay {
            out: Overlay::from_entries(n, n, facts.out_ranges, out_entries),
            in_ranges: facts.in_ranges.map(<[RowRange]>::to_vec),
            in_: OnceLock::new(),
            out_degrees,
            in_degrees,
            num_edges: num_edges as usize,
            n_ops,
        }
    }

    /// [`DeltaOverlay::compile`] with the multiplicities read from a
    /// [`PairIndex`]. **Benchmark-frozen**, like the index itself.
    pub fn build(
        facts: &BaseFacts<'_>,
        pair_index: &PairIndex,
        resolved: &[(Index, Index, UpdateOp<E>)],
    ) -> Self {
        Self::compile(facts, |s, d| pair_index.count(s, d), resolved)
    }

    /// The kernel overlay for in-edge traversal (aligned to `G`), if the
    /// overlay was compiled with [`BaseFacts::in_ranges`]. Derived from the
    /// out side's own entries — `(row, col, op)` as `(col, row, op)` — the
    /// first time it is asked for; concurrent first calls share one result.
    pub fn in_overlay(&self) -> Option<&Overlay<E>> {
        let ranges = self.in_ranges.as_deref()?;
        Some(self.in_.get_or_init(|| self.out.transposed(ranges)))
    }
}

impl<E> DeltaOverlay<E> {
    /// The kernel overlay for out-edge traversal (aligned to `Gᵀ`).
    pub fn out(&self) -> &Overlay<E> {
        &self.out
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
        self.n_ops
    }

    /// `true` if the overlay changes nothing.
    pub fn is_empty(&self) -> bool {
        self.n_ops == 0
    }

    /// Approximate heap footprint in bytes; counts the in side once it has
    /// been derived.
    pub fn bytes(&self) -> usize {
        self.out.bytes()
            + self.in_.get().map_or(0, |o| o.bytes())
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
