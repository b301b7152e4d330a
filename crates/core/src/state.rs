//! [`VertexState`]: the mutable per-run half of a graph.
//!
//! Everything a vertex program mutates lives here — one user-defined
//! property value per vertex plus the active-vertex bit vector (paper §4.3:
//! "the set of active vertices is maintained using a boolean array for
//! performance reasons"). The immutable structural half is
//! [`crate::topology::Topology`]; a superstep reads the topology and writes
//! the state, so many states can run against one `Arc<Topology>`
//! concurrently.
//!
//! The active set is one [`BitVec`] that each superstep reads once and
//! writes once: SEND scans it word chunk by word chunk to build the message
//! vector, and APPLY stores the next superstep's active words straight into
//! it, each chunk owning words `[ws, we)` and therefore properties
//! `[64·ws, 64·we)` — there is no second "next active" buffer and no copy
//! between supersteps.
//!
//! A `VertexState` can be created fresh per query or **pooled**: keep one
//! per worker and reuse it across runs through
//! [`crate::session::RunBuilder::execute_with`], which also recycles the
//! engine [`Workspace`](crate::engine::Workspace) cached inside the state —
//! the second run of the same program type allocates nothing.
//!
//! All single-vertex accessors are bounds-checked with a descriptive
//! diagnostic (the vertex id and the vertex count); `try_*` variants return
//! [`GraphMatError::VertexOutOfRange`] instead of panicking.

use crate::error::{GraphMatError, Result};
use crate::program::VertexId;
use crate::topology::Topology;
use graphmat_sparse::bitvec::BitVec;
use std::any::Any;

/// Per-run mutable vertex state: properties + the active set, plus an
/// opaque cache slot for the engine workspace (so pooled states make reruns
/// allocation-free).
#[derive(Debug)]
pub struct VertexState<V> {
    properties: Vec<V>,
    active: BitVec,
    /// Cached engine workspace from the previous run through this state
    /// (type-erased because the workspace is generic over the program).
    workspace: Option<Box<dyn Any + Send>>,
}

impl<V: Clone> Clone for VertexState<V> {
    fn clone(&self) -> Self {
        // The workspace cache is scratch space: a clone starts cold.
        VertexState {
            properties: self.properties.clone(),
            active: self.active.clone(),
            workspace: None,
        }
    }
}

impl<V: Clone + Default> VertexState<V> {
    /// State for `n` vertices: every property `V::default()`, every vertex
    /// inactive.
    pub fn new(n: usize) -> Self {
        VertexState {
            properties: vec![V::default(); n],
            active: BitVec::new(n),
            workspace: None,
        }
    }

    /// State sized for a topology (every property `V::default()`, every
    /// vertex inactive).
    pub fn for_topology<E>(topology: &Topology<E>) -> Self {
        VertexState::new(topology.num_vertices() as usize)
    }
}

impl<V> VertexState<V> {
    /// Number of vertices this state covers.
    pub fn num_vertices(&self) -> usize {
        self.properties.len()
    }

    /// Check that this state matches a topology's vertex count.
    pub fn check_matches<E>(&self, topology: &Topology<E>) -> Result<()> {
        if self.properties.len() == topology.num_vertices() as usize {
            Ok(())
        } else {
            Err(GraphMatError::StateLengthMismatch {
                state_vertices: self.properties.len(),
                topology_vertices: topology.num_vertices() as usize,
            })
        }
    }

    fn out_of_range(&self, v: VertexId) -> GraphMatError {
        GraphMatError::VertexOutOfRange {
            vertex: v,
            num_vertices: self.properties.len() as VertexId,
        }
    }

    // ---- vertex properties -------------------------------------------------

    /// Read the property of vertex `v`, or an error for an out-of-range id.
    pub fn try_property(&self, v: VertexId) -> Result<&V> {
        self.properties.get(v as usize).ok_or(self.out_of_range(v))
    }

    /// Read the property of vertex `v`. Panics with the vertex id and the
    /// vertex count if `v` is out of range.
    pub fn property(&self, v: VertexId) -> &V {
        match self.properties.get(v as usize) {
            Some(p) => p,
            // audit:allow(no-unwrap): documented panicking variant;
            // `try_property` is the fallible twin.
            None => panic!("{}", self.out_of_range(v)),
        }
    }

    /// Write the property of vertex `v`, or an error for an out-of-range id.
    pub fn try_set_property(&mut self, v: VertexId, value: V) -> Result<()> {
        let err = self.out_of_range(v);
        match self.properties.get_mut(v as usize) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(err),
        }
    }

    /// Write the property of vertex `v`. Panics with the vertex id and the
    /// vertex count if `v` is out of range.
    pub fn set_property(&mut self, v: VertexId, value: V) {
        if let Err(e) = self.try_set_property(v, value) {
            // audit:allow(no-unwrap): documented panicking variant;
            // `try_set_property` is the fallible twin.
            panic!("{e}");
        }
    }

    /// Set every vertex's property to `value`.
    pub fn set_all_properties(&mut self, value: V)
    where
        V: Clone,
    {
        self.properties.iter_mut().for_each(|p| *p = value.clone());
    }

    /// Initialise every vertex's property from a function of its id.
    pub fn init_properties(&mut self, mut f: impl FnMut(VertexId) -> V) {
        for (v, slot) in self.properties.iter_mut().enumerate() {
            *slot = f(v as VertexId);
        }
    }

    /// Read-only view of all vertex properties (indexed by vertex id).
    pub fn properties(&self) -> &[V] {
        &self.properties
    }

    /// Mutable view of all vertex properties.
    pub fn properties_mut(&mut self) -> &mut [V] {
        &mut self.properties
    }

    /// Consume the state and return the property vector (the cheap way to
    /// extract final results — no clone).
    pub fn into_properties(self) -> Vec<V> {
        self.properties
    }

    // ---- active set ---------------------------------------------------------

    /// Mark vertex `v` active for the next superstep, or return an error for
    /// an out-of-range id.
    pub fn try_set_active(&mut self, v: VertexId) -> Result<()> {
        if (v as usize) < self.active.len() {
            self.active.set(v as usize);
            Ok(())
        } else {
            Err(self.out_of_range(v))
        }
    }

    /// Mark vertex `v` active for the next superstep. Panics with the vertex
    /// id and the vertex count if `v` is out of range.
    pub fn set_active(&mut self, v: VertexId) {
        if let Err(e) = self.try_set_active(v) {
            // audit:allow(no-unwrap): documented panicking variant;
            // `try_set_active` is the fallible twin.
            panic!("{e}");
        }
    }

    /// Mark vertex `v` inactive, or return an error for an out-of-range id.
    pub fn try_set_inactive(&mut self, v: VertexId) -> Result<()> {
        if (v as usize) < self.active.len() {
            self.active.clear(v as usize);
            Ok(())
        } else {
            Err(self.out_of_range(v))
        }
    }

    /// Mark vertex `v` inactive. Panics with the vertex id and the vertex
    /// count if `v` is out of range.
    pub fn set_inactive(&mut self, v: VertexId) {
        if let Err(e) = self.try_set_inactive(v) {
            // audit:allow(no-unwrap): documented panicking variant;
            // `try_set_inactive` is the fallible twin.
            panic!("{e}");
        }
    }

    /// Mark every vertex active (e.g. PageRank's first iteration).
    pub fn set_all_active(&mut self) {
        self.active.set_all();
    }

    /// Mark every vertex inactive.
    pub fn clear_active(&mut self) {
        self.active.clear_all();
    }

    /// Is vertex `v` currently active, or an error for an out-of-range id?
    pub fn try_is_active(&self, v: VertexId) -> Result<bool> {
        if (v as usize) < self.active.len() {
            Ok(self.active.get(v as usize))
        } else {
            Err(self.out_of_range(v))
        }
    }

    /// Is vertex `v` currently active? Panics with the vertex id and the
    /// vertex count if `v` is out of range (`BitVec` alone would silently
    /// read a padding bit of its last word in release builds).
    pub fn is_active(&self, v: VertexId) -> bool {
        match self.try_is_active(v) {
            Ok(b) => b,
            // audit:allow(no-unwrap): documented panicking variant;
            // `try_is_active` is the fallible twin.
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of currently active vertices.
    pub fn active_count(&self) -> usize {
        self.active.count_ones()
    }

    /// The active-set bit vector.
    pub fn active_bits(&self) -> &BitVec {
        &self.active
    }

    /// What APPLY writes, borrowed together: every property and the words of
    /// the active set (word `w` covers vertices `64·w .. 64·w + 64`). Whoever
    /// stores a word must leave the bits past the last vertex clear.
    pub(crate) fn apply_parts(&mut self) -> (&mut [V], &mut [u64]) {
        (&mut self.properties, self.active.words_mut())
    }

    // ---- workspace cache ----------------------------------------------------

    /// Take the cached workspace if one of type `W` is stored, leaving the
    /// slot empty. Returns `None` when the cache is cold or holds a
    /// workspace of a different program type.
    ///
    /// The workspace stays in its box so a rerun hands the same allocation
    /// back to [`VertexState::cache_workspace`] — unboxing here would cost
    /// one heap round-trip per run, which `tests/zero_alloc.rs` forbids.
    pub(crate) fn take_cached_workspace<W: Any>(&mut self) -> Option<Box<W>> {
        let boxed = self.workspace.take()?;
        match boxed.downcast::<W>() {
            Ok(ws) => Some(ws),
            Err(other) => {
                // A different program type ran last; drop its buffers.
                drop(other);
                None
            }
        }
    }

    /// Store a workspace for the next run through this state.
    pub(crate) fn cache_workspace<W: Any + Send>(&mut self, ws: Box<W>) {
        self.workspace = Some(ws);
    }

    /// Whether a workspace is currently cached (test hook for the
    /// allocation-free reuse guarantee).
    pub fn has_cached_workspace(&self) -> bool {
        self.workspace.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn properties_lifecycle() {
        let mut s: VertexState<f32> = VertexState::new(4);
        assert_eq!(*s.property(0), 0.0);
        s.set_all_properties(7.0);
        assert!(s.properties().iter().all(|&p| p == 7.0));
        s.set_property(2, 1.5);
        assert_eq!(*s.property(2), 1.5);
        s.init_properties(|v| v as f32);
        assert_eq!(*s.property(3), 3.0);
        s.properties_mut()[1] = 9.0;
        assert_eq!(*s.property(1), 9.0);
        assert_eq!(s.into_properties(), vec![0.0, 9.0, 2.0, 3.0]);
    }

    #[test]
    fn active_set_lifecycle() {
        let mut s: VertexState<u32> = VertexState::new(4);
        assert_eq!(s.active_count(), 0);
        s.set_active(1);
        s.set_active(3);
        assert!(s.is_active(1));
        assert!(!s.is_active(0));
        assert_eq!(s.active_count(), 2);
        s.set_inactive(1);
        assert_eq!(s.active_count(), 1);
        s.set_all_active();
        assert_eq!(s.active_count(), 4);
        s.clear_active();
        assert_eq!(s.active_count(), 0);
    }

    #[test]
    fn try_accessors_report_vertex_and_count() {
        let mut s: VertexState<u32> = VertexState::new(3);
        let expect = GraphMatError::VertexOutOfRange {
            vertex: 7,
            num_vertices: 3,
        };
        assert_eq!(s.try_property(7).unwrap_err(), expect);
        assert_eq!(s.try_set_property(7, 1).unwrap_err(), expect);
        assert_eq!(s.try_set_active(7).unwrap_err(), expect);
        assert_eq!(s.try_set_inactive(7).unwrap_err(), expect);
        assert_eq!(s.try_is_active(7).unwrap_err(), expect);
        assert!(s.try_set_active(2).is_ok());
        assert!(s.is_active(2));
        assert_eq!(s.try_is_active(2), Ok(true));
        assert!(s.try_set_inactive(2).is_ok());
        assert_eq!(s.try_is_active(2), Ok(false));
    }

    #[test]
    fn is_active_rejects_padding_bits_of_the_last_word() {
        // 4 vertices occupy one 64-bit word; id 60 lands inside that word
        // but past len, so a raw BitVec read would silently return a
        // padding bit in release builds. The state accessor must panic with
        // diagnostics instead.
        let s: VertexState<u32> = VertexState::new(4);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.is_active(60))).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("60") && msg.contains('4'), "{msg}");
    }

    #[test]
    fn panicking_accessors_include_diagnostics() {
        let s: VertexState<u32> = VertexState::new(5);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| *s.property(11))).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("11"), "{msg}");
        assert!(msg.contains('5'), "{msg}");
    }

    #[test]
    fn workspace_cache_round_trips_and_rejects_other_types() {
        let mut s: VertexState<u32> = VertexState::new(2);
        assert!(!s.has_cached_workspace());
        s.cache_workspace(Box::new(vec![1u64, 2, 3]));
        assert!(s.has_cached_workspace());
        // wrong type: cache is cleared, not returned
        assert!(s.take_cached_workspace::<String>().is_none());
        assert!(!s.has_cached_workspace());
        s.cache_workspace(Box::new(vec![4u64]));
        assert_eq!(
            s.take_cached_workspace::<Vec<u64>>().map(|b| *b),
            Some(vec![4u64])
        );
    }

    #[test]
    fn clone_starts_with_cold_workspace_cache() {
        let mut s: VertexState<u32> = VertexState::new(2);
        s.cache_workspace(Box::new(7u64));
        let c = s.clone();
        assert!(!c.has_cached_workspace());
        assert!(s.has_cached_workspace());
    }
}
