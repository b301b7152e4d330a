//! The `GraphProgram` trait: GraphMat's vertex-programming frontend.
//!
//! A graph program is "templatized with 3 types" *plus the edge value type*
//! in the original C++ (see the paper's appendix). The Rust equivalent is a
//! trait with four associated types — the message type, the
//! processed/reduced value type, the vertex property type and the **edge
//! type** — and the four user callbacks of Figure 2:
//!
//! * [`GraphProgram::send_message`] — read the vertex property of an active
//!   vertex and produce the message it broadcasts this superstep;
//! * [`GraphProgram::process_message`] — combine an incoming message with the
//!   edge value it arrived on **and the receiving vertex's property** (the
//!   extension over CombBLAS that makes triangle counting and collaborative
//!   filtering easy, §4.2);
//! * [`GraphProgram::reduce`] — fold processed messages for one vertex into a
//!   single value (must be commutative and associative for deterministic
//!   parallel execution);
//! * [`GraphProgram::apply`] — consume the reduced value and update the
//!   vertex property.
//!
//! Together, `process_message` + `reduce` form the generalized SpMV
//! multiply/add pair; `send_message` builds the sparse input vector; `apply`
//! writes the output vector back into vertex state.
//!
//! # The `Edge` associated type
//!
//! [`GraphProgram::Edge`] selects the edge value type the program traverses:
//! the graph the program runs over must be a `Topology<Edge>` (or a view of
//! one), and its DCSC matrices store exactly that type.
//! Two cases matter in practice:
//!
//! * **weighted programs** (`Edge = f32`, `u32`, …) read the value in
//!   `process_message`, e.g. SSSP's `msg + edge`;
//! * **unweighted programs** (`Edge = ()`) ignore it — and because `Vec<()>`
//!   stores nothing, the adjacency matrices shed 4 bytes per edge of memory
//!   traffic, a real speedup for a bandwidth-bound SpMV. BFS, connected
//!   components, degree and triangle counting all use this fast path.
//!
//! # Migration from the pre-`Edge` API
//!
//! Earlier versions hardcoded `f32` edges. Porting a program is mechanical:
//!
//! ```text
//! // before
//! fn process_message(&self, msg: &f32, edge: f32, dst: &f32) -> f32 {
//!     msg + edge
//! }
//!
//! // after: declare the edge type, take it by reference
//! type Edge = f32;
//! fn process_message(&self, msg: &f32, edge: &f32, dst: &f32) -> f32 {
//!     msg + edge
//! }
//! ```
//!
//! Programs that never looked at `edge` should declare `type Edge = ()` and
//! build their graph from an `EdgeList<()>` (e.g. `EdgeList::from_pairs` or
//! `EdgeList::topology()`) to get the unweighted fast path for free.

/// Identifier of a vertex (a row/column of the adjacency matrix).
pub type VertexId = graphmat_sparse::Index;

/// Which edges an active vertex scatters its message along (paper §4.1:
/// "SEND_MESSAGE can be called to scatter along in- and/or out-edges").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EdgeDirection {
    /// Messages travel from a vertex to the targets of its out-edges
    /// (the common case: PageRank, BFS, SSSP, Triangle Counting).
    #[default]
    Out,
    /// Messages travel from a vertex to the sources of its in-edges.
    In,
    /// Messages travel in both directions (e.g. collaborative filtering on a
    /// bipartite graph, where users update items and items update users).
    Both,
}

/// A vertex program in the GraphMat model.
///
/// Implementations must be `Sync` because the engine calls
/// `process_message`/`reduce` concurrently from all worker threads.
///
/// # Laws
///
/// The engine runs a superstep on whichever SpMV backend is cheaper and
/// promises the same bits either way. Two laws make that promise keepable;
/// neither can be checked by the compiler:
///
/// * [`reduce`](GraphProgram::reduce) is **commutative and associative** —
///   a destination's products arrive in ascending source order, but how they
///   are grouped across partitions is the kernel's business;
/// * [`receives`](GraphProgram::receives) never turns away a vertex that
///   would have changed: `!receives(p)` ⇒ `apply(r, p)` leaves `p` unchanged
///   for every reduced value `r` a run can deliver to that vertex. The pull
///   kernel skips such a vertex's whole row; the push kernel still delivers
///   to it, and debug builds assert there that `apply` was indeed a no-op.
///   BFS is the example: a vertex whose distance is set ignores every later
///   message, so `BfsProgram` overrides the hook with `*dist == UNREACHED`
///   and the bottom-up supersteps stop gathering the visited part of the
///   graph. The default admits every vertex and compiles away.
///
/// # Example
///
/// The paper's appendix SSSP program translates almost line-for-line:
///
/// ```
/// use graphmat_core::program::{EdgeDirection, GraphProgram, VertexId};
///
/// struct Sssp;
///
/// impl GraphProgram for Sssp {
///     type VertexProp = f32;   // current best distance
///     type Message = f32;      // distance of the sender
///     type Reduced = f32;      // candidate distance
///     type Edge = f32;         // edge length
///
///     fn direction(&self) -> EdgeDirection { EdgeDirection::Out }
///
///     fn send_message(&self, _v: VertexId, dist: &f32) -> Option<f32> {
///         Some(*dist)
///     }
///
///     fn process_message(&self, msg: &f32, edge: &f32, _dst: &f32) -> f32 {
///         msg + edge
///     }
///
///     fn reduce(&self, acc: &mut f32, value: f32) {
///         *acc = acc.min(value);
///     }
///
///     fn apply(&self, reduced: &f32, dist: &mut f32) {
///         *dist = dist.min(*reduced);
///     }
/// }
/// ```
///
/// An unweighted program declares `type Edge = ()` and simply ignores the
/// edge argument:
///
/// ```
/// use graphmat_core::program::{GraphProgram, VertexId};
///
/// struct HopCount;
///
/// impl GraphProgram for HopCount {
///     type VertexProp = u32;
///     type Message = u32;
///     type Reduced = u32;
///     type Edge = ();          // zero bytes per edge in the matrix
///
///     fn send_message(&self, _v: VertexId, d: &u32) -> Option<u32> { Some(*d) }
///     fn process_message(&self, msg: &u32, _edge: &(), _dst: &u32) -> u32 {
///         msg.saturating_add(1)
///     }
///     fn reduce(&self, acc: &mut u32, v: u32) { *acc = (*acc).min(v); }
///     fn apply(&self, r: &u32, d: &mut u32) { *d = (*d).min(*r); }
/// }
/// ```
pub trait GraphProgram: Sync {
    /// Per-vertex state. Equality is used to detect whether APPLY changed the
    /// vertex (changed vertices become active for the next superstep).
    type VertexProp: Clone + PartialEq + Send + Sync;
    /// The message an active vertex broadcasts. `Default` supplies the
    /// placeholder stored at unset slots of the bitvector-backed message
    /// vector (paper §4.4.2).
    type Message: Clone + Default + Send + Sync;
    /// The processed-message / reduced-value type.
    type Reduced: Clone + Default + Send + Sync;
    /// The edge value type of the graphs this program runs on. Use `()` for
    /// unweighted traversal — the adjacency matrices then store no edge
    /// values at all.
    type Edge: Clone + Send + Sync;

    /// Which edges messages are scattered along. Defaults to out-edges.
    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    /// SEND_MESSAGE: read the property of active vertex `v` and produce the
    /// message to scatter, or `None` to stay silent this superstep.
    fn send_message(&self, v: VertexId, prop: &Self::VertexProp) -> Option<Self::Message>;

    /// PROCESS_MESSAGE: combine a `message` arriving along an edge with value
    /// `edge` at a vertex whose current property is `dst_prop`.
    fn process_message(
        &self,
        message: &Self::Message,
        edge: &Self::Edge,
        dst_prop: &Self::VertexProp,
    ) -> Self::Reduced;

    /// REDUCE: fold `value` into the accumulator `acc`. Must be commutative
    /// and associative.
    fn reduce(&self, acc: &mut Self::Reduced, value: Self::Reduced);

    /// APPLY: consume the reduced value and update the vertex property.
    fn apply(&self, reduced: &Self::Reduced, prop: &mut Self::VertexProp);

    /// The output mask: can a vertex whose property is `prop` still be
    /// changed by a message? Returning `false` lets a pull superstep skip
    /// the vertex's row without gathering it — see the trait's laws for
    /// what the answer promises. Defaults to `true`: every vertex receives.
    #[inline(always)]
    fn receives(&self, _prop: &Self::VertexProp) -> bool {
        true
    }

    /// Hook called at the end of every superstep with the iteration number
    /// and the number of vertices that changed state. Programs that need
    /// per-iteration bookkeeping (e.g. damping-factor schedules) can override
    /// it; the default does nothing.
    fn on_superstep_end(&self, _iteration: usize, _changed: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Minimal;

    impl GraphProgram for Minimal {
        type VertexProp = u32;
        type Message = u32;
        type Reduced = u32;
        type Edge = ();

        fn send_message(&self, _v: VertexId, p: &u32) -> Option<u32> {
            Some(*p)
        }

        fn process_message(&self, m: &u32, _e: &(), _d: &u32) -> u32 {
            *m + 1
        }

        fn reduce(&self, acc: &mut u32, v: u32) {
            *acc = (*acc).max(v);
        }

        fn apply(&self, r: &u32, p: &mut u32) {
            *p = *r;
        }
    }

    struct Weighted;

    impl GraphProgram for Weighted {
        type VertexProp = u32;
        type Message = u32;
        type Reduced = u32;
        type Edge = u32;

        fn send_message(&self, _v: VertexId, p: &u32) -> Option<u32> {
            Some(*p)
        }

        fn process_message(&self, m: &u32, e: &u32, _d: &u32) -> u32 {
            m + e
        }

        fn reduce(&self, acc: &mut u32, v: u32) {
            *acc = (*acc).max(v);
        }

        fn apply(&self, r: &u32, p: &mut u32) {
            *p = *r;
        }
    }

    #[test]
    fn default_direction_is_out() {
        assert_eq!(Minimal.direction(), EdgeDirection::Out);
    }

    #[test]
    fn callbacks_compose() {
        let p = Minimal;
        let msg = p.send_message(0, &41).unwrap();
        let processed = p.process_message(&msg, &(), &0);
        let mut acc = 0;
        p.reduce(&mut acc, processed);
        let mut prop = 0;
        p.apply(&acc, &mut prop);
        assert_eq!(prop, 42);
    }

    #[test]
    fn integer_edge_values_flow_through_process_message() {
        let p = Weighted;
        let processed = p.process_message(&40, &2, &0);
        assert_eq!(processed, 42);
    }

    #[test]
    fn on_superstep_end_default_is_noop() {
        Minimal.on_superstep_end(3, 17);
    }
}
