//! [`GraphView`]: a borrowed `(base ⊕ delta)` pairing the engine traverses.
//!
//! The streaming-update layer publishes snapshots as an immutable base
//! [`Topology`] plus an optional [`DeltaOverlay`] of pending edits (see
//! [`crate::store::GraphStore`]). The engine never sees the snapshot type —
//! it takes a `GraphView`, a `Copy` pair of references resolving every
//! structural question a superstep asks (degrees, edge counts, which
//! pending edits to fold) against the *edited* graph:
//!
//! * a view with no overlay behaves exactly like the bare topology — the
//!   construction normalizes an **empty** overlay to `None`, so the
//!   steady-state read path after compaction is byte-for-byte the
//!   pre-streaming code path;
//! * a view with a pending overlay reports the merged degree arrays and
//!   edge count, and hands the engine the pending side of the program's
//!   traversal direction (the in side is derived the first time an
//!   `In`/`Both` run asks for it).
//!
//! Neither kernel reads an overlay, and a topology's matrices describe the
//! unedited base: they are never written per batch. The first push along a
//! side over a snapshot's pending edits folds them into a copy of the base's
//! DCSC of that side, and the first pull into a copy of its mirror, both
//! kept with the snapshot's overlay
//! ([`graphmat_delta::PendingSide::fold_matrix`], `fold_mirror`); every push
//! and pull along that side of the snapshot reads its fold through the one
//! push and the one pull kernel. A compaction of the snapshot publishes its
//! out-side folds instead of folding again. So the selector sees the merged
//! degrees and edge count and gives an edited snapshot the push/pull
//! trajectory of its rebuild, and forcing
//! [`Backend::Pull`](crate::stats::Backend::Pull) over pending edits is as
//! valid as over a bare topology. Results stay bit-for-bit identical to a
//! run over a topology rebuilt from the edited edge list: a folded column or
//! row is the one a rebuild stores, in the same order.

use crate::program::VertexId;
use crate::topology::Topology;
use graphmat_delta::{DeltaOverlay, PendingSide};
use std::sync::Arc;

/// A borrowed view of a graph as the engine traverses it: an immutable base
/// [`Topology`] plus an optional [`DeltaOverlay`] of pending (uncompacted)
/// edge edits. `Copy`, two pointers wide — build one per run for free.
///
/// This is the one graph argument the engine and every algorithm driver
/// take. `&Topology<E>` and `&Arc<Topology<E>>` convert into it (the bare
/// topology, no pending edits), so a resident topology and a
/// [`crate::store::GraphSnapshot::view`] go through the same function.
#[derive(Debug)]
pub struct GraphView<'a, E> {
    topology: &'a Topology<E>,
    overlay: Option<&'a DeltaOverlay<E>>,
}

impl<'a, E> Clone for GraphView<'a, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, E> Copy for GraphView<'a, E> {}

impl<'a, E> From<&'a Topology<E>> for GraphView<'a, E> {
    fn from(topology: &'a Topology<E>) -> Self {
        GraphView::base(topology)
    }
}

impl<'a, E> From<&'a Arc<Topology<E>>> for GraphView<'a, E> {
    fn from(topology: &'a Arc<Topology<E>>) -> Self {
        GraphView::base(topology)
    }
}

impl<'a, E> GraphView<'a, E> {
    /// A view of the bare topology (no pending edits).
    pub fn base(topology: &'a Topology<E>) -> Self {
        GraphView {
            topology,
            overlay: None,
        }
    }

    /// A view of `topology` with `overlay`'s pending edits applied. An
    /// empty overlay is normalized to `None` so the read path cannot pay
    /// a fold for a no-op.
    pub fn new(topology: &'a Topology<E>, overlay: Option<&'a DeltaOverlay<E>>) -> Self {
        GraphView {
            topology,
            overlay: overlay.filter(|o| !o.is_empty()),
        }
    }

    /// The base topology.
    pub fn topology(&self) -> &'a Topology<E> {
        self.topology
    }

    /// The pending overlay, if any (never `Some` of an empty overlay).
    pub fn overlay(&self) -> Option<&'a DeltaOverlay<E>> {
        self.overlay
    }

    /// `true` if the view carries pending edits.
    pub fn has_overlay(&self) -> bool {
        self.overlay.is_some()
    }

    /// Vertex count (overlays never change it).
    pub fn num_vertices(&self) -> VertexId {
        self.topology.num_vertices()
    }

    /// Directed edge count of the **edited** graph.
    pub fn num_edges(&self) -> usize {
        self.overlay
            .map_or(self.topology.num_edges(), |o| o.num_edges())
    }

    /// Out-degrees of the edited graph, indexed by vertex.
    pub fn out_degrees(&self) -> &'a [u32] {
        self.overlay
            .map_or(self.topology.out_degrees(), |o| o.out_degrees())
    }

    /// In-degrees of the edited graph, indexed by vertex.
    pub fn in_degrees(&self) -> &'a [u32] {
        self.overlay
            .map_or(self.topology.in_degrees(), |o| o.in_degrees())
    }

    /// The pending edits aligned to the out matrix (`Gᵀ`), if any.
    pub(crate) fn out_side(&self) -> Option<&'a PendingSide<E>> {
        self.overlay.map(|o| o.out_side())
    }
}

impl<'a, E: Clone> GraphView<'a, E> {
    /// The pending edits aligned to the in matrix (`G`), if edits are
    /// pending **and** the overlay was compiled with the base's in ranges
    /// (the store's always are; they are fixed at build, whether or not `G`
    /// itself has been derived yet). The first call on an overlay is what
    /// derives its in side, so only `In`/`Both` runs ask.
    pub(crate) fn in_side(&self) -> Option<&'a PendingSide<E>> {
        self.overlay.and_then(|o| o.in_side())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::GraphBuildOptions;
    use graphmat_delta::UpdateOp;
    use graphmat_io::edgelist::EdgeList;

    fn topo() -> Topology<f32> {
        let el = EdgeList::from_tuples(4, vec![(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 3, 4.0)]);
        Topology::from_edge_list(&el, GraphBuildOptions::default().with_partitions(2))
    }

    #[test]
    fn topology_references_convert_to_the_base_view() {
        let t = Arc::new(topo());
        let from_arc: GraphView<'_, f32> = (&t).into();
        let from_ref: GraphView<'_, f32> = (&*t).into();
        for v in [from_arc, from_ref] {
            assert!(!v.has_overlay());
            assert!(std::ptr::eq(v.topology(), &*t));
        }
    }

    #[test]
    fn base_view_mirrors_the_topology() {
        let t = topo();
        let v = GraphView::base(&t);
        assert!(!v.has_overlay());
        assert_eq!(v.num_vertices(), 4);
        assert_eq!(v.num_edges(), 4);
        assert_eq!(v.out_degrees(), t.out_degrees());
        assert_eq!(v.in_degrees(), t.in_degrees());
        assert!(v.out_side().is_none());
        let copy = v; // Copy without E: Clone
        assert_eq!(copy.num_edges(), v.num_edges());
    }

    #[test]
    fn empty_overlay_is_normalized_away() {
        let t = topo();
        let ov = t.compile_overlay(None, &[]);
        assert!(ov.is_empty());
        let v = GraphView::new(&t, Some(&ov));
        assert!(!v.has_overlay());
        assert!(v.out_side().is_none());
    }

    #[test]
    fn pending_overlay_reports_merged_structure() {
        let t = topo();
        let edits = [(0, 1, UpdateOp::Delete), (3, 0, UpdateOp::Insert(5.0))];
        let ov = t.compile_overlay(None, &edits);
        let v = GraphView::new(&t, Some(&ov));
        assert!(v.has_overlay());
        assert_eq!(v.num_edges(), 4); // -1 +1
        assert_eq!(v.out_degrees(), &[1, 1, 1, 1]);
        assert_eq!(v.in_degrees(), &[1, 0, 2, 1]);
        assert!(v.out_side().is_some());
        assert!(v.in_side().is_some());
    }
}
