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
//! Only the out-edge kernel overlay (aligned to `Gᵀ`) is compiled, once
//! per batch. Nothing here reads it: the snapshot that publishes the overlay
//! is a topology of its own (`graphmat-core`'s `Topology`), whose layouts
//! fold it into its base's on first use — the in side transposed from it
//! first — so the compiled edits are never merged by a kernel.

use crate::batch::UpdateOp;
use graphmat_sparse::overlay::{Overlay, OverlayOp};
use graphmat_sparse::partition::RowRange;
use graphmat_sparse::Index;

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
    /// Row ranges of the base's in matrix (`G`: row = source). Unread: an
    /// edited topology transposes its in side against its base's own
    /// ranges. It stays because `benchmark/src/adapter.rs` names it.
    pub in_ranges: Option<&'a [RowRange]>,
    /// Base out-degrees, indexed by vertex.
    pub out_degrees: &'a [u32],
    /// Base in-degrees, indexed by vertex.
    pub in_degrees: &'a [u32],
}

/// The pending edits of a snapshot, compiled against its base's layout:
/// the kernel overlay of the out-edge traversal plus the merged degree
/// arrays and edge count of the *edited* graph. Immutable once built — the
/// snapshot's topology shares it behind an `Arc`, and the next write merges
/// its batch into a copy.
#[derive(Clone, Debug)]
pub struct DeltaOverlay<E> {
    out: Overlay<E>,
    out_degrees: Vec<u32>,
    in_degrees: Vec<u32>,
    num_edges: usize,
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
            out,
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
        self.out().nnz()
    }

    /// `true` if the overlay changes nothing.
    pub fn is_empty(&self) -> bool {
        self.out().is_empty()
    }

    /// Approximate heap footprint in bytes: the out side's overlay and the
    /// two degree arrays.
    pub fn bytes(&self) -> usize {
        self.out().bytes()
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
        assert_eq!(ov.out().transposed(&r).nnz(), 3);
        assert!(!ov.is_empty());
        assert!(ov.bytes() > 0);
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
