//! [`DeltaLog`]: the operations admitted since the last compaction.

use crate::batch::{DeltaBatch, UpdateOp};
use graphmat_sparse::Index;

/// The ordered log of the operations admitted since the last compaction.
///
/// Batches append in admission order; [`DeltaLog::resolve`] collapses the
/// log to its **latest-wins** view — at most one effective op per
/// `(src, dst)` pair, sorted by pair — which is what overlays are compiled
/// from (and compaction folds the compiled overlay into the base). A writer that
/// keeps each resolution in place of the raw ops ([`DeltaLog::replace`])
/// bounds the log by the pairs edited, not by the ops submitted.
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

    /// Admit a batch by keeping `resolved` — what [`DeltaLog::resolve_with`]
    /// returned for it — in place of the ops: resolution is idempotent, so
    /// every later `resolve` reads as if the batch had been appended.
    pub fn replace(&mut self, resolved: Vec<(Index, Index, UpdateOp<E>)>) {
        self.ops = resolved;
    }

    /// Total number of logged operations (before latest-wins resolution).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no operations are pending.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop every logged operation (compaction has folded them into the
    /// base).
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

impl<E: Clone> DeltaLog<E> {
    /// The latest-wins view of the log: one op per `(src, dst)` pair — the
    /// last one submitted — sorted by pair.
    pub fn resolve(&self) -> Vec<(Index, Index, UpdateOp<E>)> {
        self.resolve_ops(&[])
    }

    /// The latest-wins view of the log **as if** `batch` had already been
    /// appended, without mutating the log. The store's exactly-once `apply`
    /// uses this to compile the candidate overlay *before* committing the
    /// batch: if overlay compilation fails (or a fault is injected there),
    /// the log is untouched and no trace of the batch survives.
    pub fn resolve_with(&self, batch: &DeltaBatch<E>) -> Vec<(Index, Index, UpdateOp<E>)> {
        self.resolve_ops(batch.ops())
    }

    fn resolve_ops(
        &self,
        extra: &[(Index, Index, UpdateOp<E>)],
    ) -> Vec<(Index, Index, UpdateOp<E>)> {
        // Logged ops order before `extra` ops: latest-wins ties break toward
        // the batch being admitted, matching what append-then-resolve yields.
        let mut seq: Vec<(Index, Index, usize)> = self
            .ops
            .iter()
            .chain(extra)
            .enumerate()
            .map(|(i, &(s, d, _))| (s, d, i))
            .collect();
        seq.sort_unstable();
        let op_at = |i: usize| -> UpdateOp<E> {
            if i < self.ops.len() {
                self.ops[i].2.clone()
            } else {
                extra[i - self.ops.len()].2.clone()
            }
        };
        let mut resolved: Vec<(Index, Index, UpdateOp<E>)> = Vec::new();
        for (s, d, i) in seq {
            let op = op_at(i);
            match resolved.last_mut() {
                Some(last) if last.0 == s && last.1 == d => last.2 = op,
                _ => resolved.push((s, d, op)),
            }
        }
        resolved
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
        log.clear();
        assert!(log.is_empty());
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
    fn resolve_with_previews_a_batch_without_mutating_the_log() {
        let mut log = DeltaLog::new();
        log.append(batch(
            4,
            vec![(0, 1, UpdateOp::Insert(1.0)), (2, 3, UpdateOp::Insert(5.0))],
        ));
        let pending = batch(
            4,
            vec![(0, 1, UpdateOp::Insert(9.0)), (3, 0, UpdateOp::Delete)],
        );
        let preview = log.resolve_with(&pending);
        // The batch's op wins its pair; the log itself is unchanged.
        assert_eq!(
            preview,
            vec![
                (0, 1, UpdateOp::Insert(9.0)),
                (2, 3, UpdateOp::Insert(5.0)),
                (3, 0, UpdateOp::Delete),
            ]
        );
        assert_eq!(log.len(), 2);
        // Appending then resolving yields the identical view.
        let mut replaced = log.clone();
        log.append(pending);
        assert_eq!(log.resolve(), preview);
        // So does keeping the preview itself, one op per pair.
        replaced.replace(preview.clone());
        assert_eq!(replaced.resolve(), preview);
        assert_eq!((replaced.len(), log.len()), (3, 4));
    }

    #[test]
    fn resolve_keeps_terminal_deletes() {
        let mut log = DeltaLog::new();
        log.append(batch(4, vec![(0, 1, UpdateOp::Insert(1.0))]));
        log.append(batch(4, vec![(0, 1, UpdateOp::Delete)]));
        assert_eq!(log.resolve(), vec![(0, 1, UpdateOp::Delete)]);
    }
}
