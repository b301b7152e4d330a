//! Error type for the fallible `Session`/`Topology`/`VertexState` frontend.
//!
//! The original seed API panicked on misuse — an out-of-range vertex id died
//! deep inside `Vec` indexing. The redesigned frontend returns
//! [`GraphMatError`] from every fallible path instead, so a serving layer
//! embedding the engine can turn bad queries into error responses rather
//! than crashed workers. The
//! documented panicking accessors that remain (`Topology::out_degree`,
//! `VertexState::property`, …) carry the same diagnostic payload (vertex id
//! and vertex count) as the typed errors, and each has a `try_*` twin.

use crate::program::VertexId;

/// Convenience alias used across the `Session` frontend.
pub type Result<T> = std::result::Result<T, GraphMatError>;

/// Everything that can go wrong when building a [`crate::topology::Topology`]
/// or running a vertex program through a [`crate::session::Session`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphMatError {
    /// A vertex id was outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices in the graph the id was used against.
        num_vertices: VertexId,
    },
    /// A thread count of zero was requested (e.g.
    /// `SessionOptions::threads == 0` passed explicitly).
    ZeroThreads,
    /// An iteration limit of zero supersteps was requested on a run builder.
    ZeroIterations,
    /// A topology build was attempted from an edge list with no edges.
    EmptyEdgeList,
    /// A [`crate::state::VertexState`] was used with a
    /// [`crate::topology::Topology`] of a different vertex count.
    StateLengthMismatch {
        /// Vertices the state was allocated for.
        state_vertices: usize,
        /// Vertices in the topology it was paired with.
        topology_vertices: usize,
    },
    /// An algorithm configuration value cannot drive a run (e.g. a
    /// non-positive delta-PageRank tolerance, or pending edits under
    /// triangle counting). The payload names the parameter and the
    /// constraint it violated.
    InvalidParameter(&'static str),
    /// The store's pending-delta high-watermark
    /// ([`crate::store::StoreOptions::overload_watermark`]) was reached:
    /// compaction is not keeping up with ingest, so the write was rejected
    /// to shed load instead of growing the overlay without bound. Reads are
    /// unaffected — the last published snapshot keeps serving — and writes
    /// succeed again once compaction drains the backlog.
    Overloaded {
        /// Effective pending ops in the published overlay when the write
        /// arrived.
        pending: usize,
        /// The configured high-watermark that was hit.
        watermark: usize,
    },
    /// An internal invariant failed mid-operation (today: only
    /// chaos-injected faults from `graphmat-chaos` failpoints). The
    /// operation had no effect; the payload names the failure site.
    Internal(&'static str),
    /// The run's deadline ([`crate::options::RunOptions::deadline`]) passed
    /// before the program converged or hit its iteration limit. The deadline
    /// is checked between supersteps, so the overrun is at most one
    /// superstep long; the vertex state holds the partial results of the
    /// supersteps that did complete. A serving layer maps this to a
    /// per-request timeout response.
    DeadlineExceeded,
}

impl std::fmt::Display for GraphMatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphMatError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range: the graph has {num_vertices} vertices \
                 (valid ids are 0..{num_vertices})"
            ),
            GraphMatError::ZeroThreads => {
                write!(f, "a session needs at least one thread (got 0)")
            }
            GraphMatError::ZeroIterations => write!(
                f,
                "max_iterations must be at least 1 (use an unseeded run or skip the run \
                 entirely for zero supersteps)"
            ),
            GraphMatError::EmptyEdgeList => {
                write!(f, "cannot build a topology from an edge list with no edges")
            }
            GraphMatError::StateLengthMismatch {
                state_vertices,
                topology_vertices,
            } => write!(
                f,
                "vertex state sized for {state_vertices} vertices used with a topology \
                 of {topology_vertices} vertices"
            ),
            GraphMatError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            GraphMatError::Overloaded { pending, watermark } => write!(
                f,
                "store overloaded: {pending} pending delta ops at or past the write \
                 high-watermark of {watermark}; the write was rejected (reads keep \
                 serving; retry after compaction drains the backlog)"
            ),
            GraphMatError::Internal(site) => write!(f, "internal error: {site}"),
            GraphMatError::DeadlineExceeded => write!(
                f,
                "run deadline exceeded before the program finished (the deadline is \
                 checked between supersteps; partial results remain in the vertex state)"
            ),
        }
    }
}

impl std::error::Error for GraphMatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_vertex_id_and_count() {
        let msg = GraphMatError::VertexOutOfRange {
            vertex: 99,
            num_vertices: 6,
        }
        .to_string();
        assert!(msg.contains("99"), "{msg}");
        assert!(msg.contains('6'), "{msg}");
    }

    #[test]
    fn display_includes_state_and_topology_lengths() {
        let msg = GraphMatError::StateLengthMismatch {
            state_vertices: 4,
            topology_vertices: 8,
        }
        .to_string();
        assert!(msg.contains('4') && msg.contains('8'), "{msg}");
    }

    #[test]
    fn errors_are_comparable_and_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(GraphMatError::ZeroThreads);
        assert!(!e.to_string().is_empty());
        assert_eq!(GraphMatError::EmptyEdgeList, GraphMatError::EmptyEdgeList);
        assert_ne!(GraphMatError::ZeroThreads, GraphMatError::ZeroIterations);
    }
}
