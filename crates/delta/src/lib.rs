//! Streaming graph updates for GraphMat: the delta layer between an
//! immutable base [`Topology`] and a mutating edge stream.
//!
//! The serving story (RedisGraph-style ingest-while-serving) splits a
//! mutable graph into an immutable base plus a small, sorted edit set:
//!
//! * [`batch::DeltaBatch`] — one validated batch of edge insertions /
//!   deletions, the unit a writer submits (and the unit the server's
//!   `UPDATE` opcode carries over the wire), resolved **latest-wins per
//!   `(src, dst)` pair** on its own ([`batch::DeltaBatch::into_resolved`]);
//! * [`log::DeltaLog`] — a history of batches, resolved in one piece: what
//!   the store's batch-by-batch compilation must equal;
//! * [`overlay::DeltaOverlay`] — resolved edits compiled against a base's
//!   partitioning into a kernel-ready [`graphmat_sparse::overlay::Overlay`]
//!   (the out-edge one, each batch merged into the previous one) plus
//!   merged degree arrays and edge counts, so a snapshot sees `(base ⊕ delta)` without rebuilding the
//!   matrices. The snapshot is a `Topology` of its own, which folds the
//!   edits into copies of its base's layouts when it first reads each one;
//!   this crate holds the edits only, never a fold.
//!
//! The crate deliberately knows nothing about vertex programs, snapshots or
//! wire formats — `graphmat-core`'s `GraphStore` owns publication and
//! compaction, `graphmat-server` owns the protocol. Like the rest of the
//! workspace it is `std`-only.
//!
//! [`Topology`]: ../graphmat_core/topology/struct.Topology.html

pub mod batch;
pub mod log;
pub mod overlay;

pub use batch::{DeltaBatch, UpdateOp};
pub use log::DeltaLog;
pub use overlay::{BaseFacts, DeltaOverlay, PairIndex};

/// The kernel-level edit-set structure, re-exported under the paper-plan
/// name: a `DeltaMatrix` is a partition-aligned set of pending ops, held by
/// column, that one fold merges into a copy of the base DCSC (push) and
/// another, bucketed by row, into a copy of its CSR mirror (pull).
pub type DeltaMatrix<E> = graphmat_sparse::overlay::Overlay<E>;

/// Typed failures of the delta layer.
///
/// `graphmat-core` converts these into `GraphMatError`, the server into
/// protocol status codes — updates never panic the serving process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge endpoint is not a vertex of the graph.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: graphmat_sparse::Index,
        /// The graph's vertex count.
        num_vertices: graphmat_sparse::Index,
    },
    /// The batch contains no operations.
    EmptyBatch,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for a graph of {num_vertices} vertices"
            ),
            DeltaError::EmptyBatch => write!(f, "update batch contains no operations"),
        }
    }
}

impl std::error::Error for DeltaError {}
