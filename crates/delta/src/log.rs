//! [`DeltaLog`]: a history of admitted batches, resolved in one piece.

use crate::batch::{latest_wins, DeltaBatch, UpdateOp};
use graphmat_sparse::Index;

/// The ordered log of a history of admitted batches.
///
/// Batches append in admission order; [`DeltaLog::resolve`] collapses the
/// log to its **latest-wins** view — at most one effective op per
/// `(src, dst)` pair, sorted by pair. A store does not keep one: it merges
/// each batch's own resolution ([`DeltaBatch::into_resolved`]) into the
/// overlay it last published, and that chain compiles to what the whole
/// history's resolution compiles to in one piece.
#[derive(Clone, Debug, Default)]
pub struct DeltaLog<E> {
    ops: Vec<(Index, Index, UpdateOp<E>)>,
}

impl<E> DeltaLog<E> {
    /// Create an empty log.
    pub fn new() -> Self {
        DeltaLog { ops: Vec::new() }
    }

    /// Append a validated batch.
    pub fn append(&mut self, batch: DeltaBatch<E>) {
        self.ops.extend(batch.into_ops());
    }

    /// Total number of logged operations (before latest-wins resolution).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no operations are logged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl<E: Clone> DeltaLog<E> {
    /// The latest-wins view of the log: one op per `(src, dst)` pair — the
    /// last one submitted — sorted by pair.
    pub fn resolve(&self) -> Vec<(Index, Index, UpdateOp<E>)> {
        latest_wins(self.ops.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(num_vertices: Index, ops: Vec<(Index, Index, UpdateOp<f32>)>) -> DeltaBatch<f32> {
        DeltaBatch::from_ops(num_vertices, ops).unwrap()
    }

    #[test]
    fn append_counts() {
        let mut log = DeltaLog::new();
        assert!(log.is_empty());
        log.append(batch(4, vec![(0, 1, UpdateOp::Insert(1.0))]));
        log.append(batch(
            4,
            vec![(1, 2, UpdateOp::Delete), (2, 3, UpdateOp::Insert(2.0))],
        ));
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    fn resolve_is_latest_wins_per_pair() {
        let mut log = DeltaLog::new();
        log.append(batch(
            4,
            vec![(0, 1, UpdateOp::Insert(1.0)), (2, 3, UpdateOp::Insert(5.0))],
        ));
        log.append(batch(4, vec![(0, 1, UpdateOp::Delete)]));
        log.append(batch(4, vec![(0, 1, UpdateOp::Insert(9.0))]));
        let resolved = log.resolve();
        assert_eq!(
            resolved,
            vec![(0, 1, UpdateOp::Insert(9.0)), (2, 3, UpdateOp::Insert(5.0)),]
        );
    }

    #[test]
    fn resolve_keeps_terminal_deletes() {
        let mut log = DeltaLog::new();
        log.append(batch(4, vec![(0, 1, UpdateOp::Insert(1.0))]));
        log.append(batch(4, vec![(0, 1, UpdateOp::Delete)]));
        assert_eq!(log.resolve(), vec![(0, 1, UpdateOp::Delete)]);
    }
}
