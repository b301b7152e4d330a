//! [`DeltaBatch`]: one validated batch of edge mutations.

use crate::DeltaError;
use graphmat_sparse::Index;

/// One edge mutation, keyed by its `(src, dst)` pair.
///
/// `Insert` is an **upsert**: if the pair already exists in the graph it is
/// reweighted (every stored copy of a duplicated pair is replaced by the one
/// new value), otherwise it is added. `Delete` removes every stored copy of
/// the pair and is a no-op if the pair is absent.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp<E> {
    /// Insert the edge, or replace its value if it already exists.
    Insert(E),
    /// Remove the edge (no-op if absent).
    Delete,
}

impl<E> UpdateOp<E> {
    /// `true` for [`UpdateOp::Insert`].
    pub fn is_insert(&self) -> bool {
        matches!(self, UpdateOp::Insert(_))
    }
}

/// A validated batch of edge mutations against a graph of a fixed vertex
/// count — the unit writers submit to a `GraphStore` and the payload of the
/// server's `UPDATE` opcode.
///
/// Ops within a batch apply in order; together with the log's batch order
/// this gives a total order over all mutations, resolved latest-wins per
/// `(src, dst)` pair at publication time.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaBatch<E> {
    num_vertices: Index,
    ops: Vec<(Index, Index, UpdateOp<E>)>,
}

impl<E> DeltaBatch<E> {
    /// Create an empty batch for a graph of `num_vertices` vertices.
    pub fn new(num_vertices: Index) -> Self {
        DeltaBatch {
            num_vertices,
            ops: Vec::new(),
        }
    }

    /// Build a batch from `(src, dst, op)` triples, validating every
    /// endpoint against the vertex count.
    ///
    /// # Errors
    /// [`DeltaError::VertexOutOfRange`] on the first out-of-range endpoint;
    /// [`DeltaError::EmptyBatch`] if `ops` is empty.
    pub fn from_ops(
        num_vertices: Index,
        ops: Vec<(Index, Index, UpdateOp<E>)>,
    ) -> Result<Self, DeltaError> {
        if ops.is_empty() {
            return Err(DeltaError::EmptyBatch);
        }
        for &(s, d, _) in &ops {
            for v in [s, d] {
                if v >= num_vertices {
                    return Err(DeltaError::VertexOutOfRange {
                        vertex: v,
                        num_vertices,
                    });
                }
            }
        }
        Ok(DeltaBatch { num_vertices, ops })
    }

    /// Append an insert/upsert of edge `src → dst` with value `weight`.
    ///
    /// # Errors
    /// [`DeltaError::VertexOutOfRange`] if an endpoint is out of range.
    pub fn insert(&mut self, src: Index, dst: Index, weight: E) -> Result<(), DeltaError> {
        self.check(src)?;
        self.check(dst)?;
        self.ops.push((src, dst, UpdateOp::Insert(weight)));
        Ok(())
    }

    /// Append a deletion of edge `src → dst`.
    ///
    /// # Errors
    /// [`DeltaError::VertexOutOfRange`] if an endpoint is out of range.
    pub fn delete(&mut self, src: Index, dst: Index) -> Result<(), DeltaError> {
        self.check(src)?;
        self.check(dst)?;
        self.ops.push((src, dst, UpdateOp::Delete));
        Ok(())
    }

    fn check(&self, v: Index) -> Result<(), DeltaError> {
        if v >= self.num_vertices {
            return Err(DeltaError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.num_vertices,
            });
        }
        Ok(())
    }

    /// The vertex count the batch was validated against.
    pub fn num_vertices(&self) -> Index {
        self.num_vertices
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations, in submission order.
    pub fn ops(&self) -> &[(Index, Index, UpdateOp<E>)] {
        &self.ops
    }

    /// Consume the batch and return its operations.
    pub fn into_ops(self) -> Vec<(Index, Index, UpdateOp<E>)> {
        self.ops
    }

    /// Consume the batch and return its latest-wins view: one op per
    /// `(src, dst)` pair — the last one submitted — sorted by pair. What a
    /// store compiles into its published overlay; O(B log B) in the batch.
    pub fn into_resolved(self) -> Vec<(Index, Index, UpdateOp<E>)> {
        latest_wins(self.ops)
    }
}

/// One op per `(src, dst)` pair of `ops` — the last one — sorted by pair.
pub(crate) fn latest_wins<E>(
    mut ops: Vec<(Index, Index, UpdateOp<E>)>,
) -> Vec<(Index, Index, UpdateOp<E>)> {
    // Stable: a pair's ops stay in submission order, so its last is latest.
    ops.sort_by_key(|&(s, d, _)| (s, d));
    ops.dedup_by(|later, kept| {
        let same = (later.0, later.1) == (kept.0, kept.1);
        if same {
            std::mem::swap(&mut later.2, &mut kept.2);
        }
        same
    });
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_validates() {
        let mut b: DeltaBatch<f32> = DeltaBatch::new(4);
        assert!(b.is_empty());
        b.insert(0, 1, 2.5).unwrap();
        b.delete(3, 2).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.num_vertices(), 4);
        assert!(b.ops()[0].2.is_insert());
        assert!(!b.ops()[1].2.is_insert());
    }

    #[test]
    fn out_of_range_endpoints_are_rejected() {
        let mut b: DeltaBatch<f32> = DeltaBatch::new(4);
        assert_eq!(
            b.insert(0, 9, 1.0),
            Err(DeltaError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 4
            })
        );
        assert_eq!(
            b.delete(7, 0),
            Err(DeltaError::VertexOutOfRange {
                vertex: 7,
                num_vertices: 4
            })
        );
        assert!(b.is_empty(), "rejected ops must not be recorded");
    }

    #[test]
    fn a_resolved_batch_keeps_the_last_op_of_each_pair_sorted_by_pair() {
        let b = DeltaBatch::from_ops(
            4,
            vec![
                (2, 3, UpdateOp::Insert(1.0f32)),
                (0, 1, UpdateOp::Insert(2.0)),
                (2, 3, UpdateOp::Delete),
                (0, 1, UpdateOp::Delete),
                (2, 3, UpdateOp::Insert(3.0)),
                (1, 0, UpdateOp::Delete),
            ],
        )
        .unwrap();
        assert_eq!(
            b.into_resolved(),
            vec![
                (0, 1, UpdateOp::Delete),
                (1, 0, UpdateOp::Delete),
                (2, 3, UpdateOp::Insert(3.0)),
            ]
        );
    }

    #[test]
    fn from_ops_validates_everything() {
        let ok = DeltaBatch::from_ops(3, vec![(0, 1, UpdateOp::Insert(1.0f32))]).unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(
            DeltaBatch::from_ops(3, vec![(0, 5, UpdateOp::Insert(1.0f32))]),
            Err(DeltaError::VertexOutOfRange {
                vertex: 5,
                num_vertices: 3
            })
        );
        assert_eq!(
            DeltaBatch::<f32>::from_ops(3, vec![]),
            Err(DeltaError::EmptyBatch)
        );
    }
}
