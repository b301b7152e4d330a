//! Sparse matrix substrate for GraphMat.
//!
//! This crate implements everything the GraphMat paper's backend needs, from
//! scratch:
//!
//! * [`coo`] — coordinate-format triple builder used while assembling graphs.
//! * [`csr`] — immutable Compressed Sparse Row / Column matrices (used by the
//!   hand-optimized native baselines and by the CombBLAS-style baseline's
//!   SpGEMM).
//! * [`dcsc`] — the Doubly Compressed Sparse Column format of Buluç & Gilbert
//!   that GraphMat stores its (transposed) adjacency matrix in (paper §4.4.1).
//! * [`bitvec`] — packed bit vectors, including an atomically updatable variant,
//!   used for the active-vertex set and the sparse-vector index (paper §4.4.2).
//! * [`spvec`] — the sparse message vector: the bitvector-backed
//!   representation the paper selects, read by the push and the pull kernel
//!   alike.
//! * [`partition`] — 1-D row partitioning of the matrix into many more
//!   partitions than threads, enabling dynamic load balancing (paper §4.5).
//! * [`parallel`] — a small scoped-thread executor with an atomic work queue,
//!   the analogue of OpenMP `schedule(dynamic)` used by the paper.
//! * [`pull`] — row-major CSR mirrors of the partitioned DCSC, the structure
//!   the dense-pull backend traverses (direction optimization à la Beamer /
//!   GraphBLAST).
//! * [`spmv`] — partition-parallel *generalized* sparse matrix–sparse vector
//!   multiplication (paper Algorithm 1), plus the row-parallel dense-pull
//!   kernel.
//! * [`overlay`] — sorted delta overlays (pending edge edits) and the merged
//!   `base ⊕ overlay` SpMV, pushed or pulled, used by the streaming-update
//!   layer; reduction order matches a from-scratch rebuild bit for bit.
//!
//! The crate is deliberately free of graph-level concepts: it only knows about
//! matrices, vectors and partitions. `graphmat-core` builds the vertex-program
//! abstraction on top of it.
//!
//! Building with `--features shard-check` compiles in the `shard_check` module, a
//! dynamic detector that shadows every disjoint-write protocol (sharded
//! merges, word-range fills, result slots) with atomic claim maps and turns
//! an ownership violation into a deterministic panic with lane-id
//! diagnostics. The feature is for tests and CI; release benchmarks build
//! without it.

pub mod bitvec;
pub mod coo;
pub mod csr;
pub mod dcsc;
pub mod overlay;
pub mod parallel;
pub mod partition;
pub mod pull;
#[cfg(feature = "shard-check")]
pub mod shard_check;
pub mod spmv;
pub mod spvec;

/// Index type used for row/column (vertex) identifiers.
///
/// The paper's graphs fit comfortably in 32 bits (largest is 63M vertices);
/// using `u32` halves index memory traffic, which matters for a
/// bandwidth-bound kernel like SpMV.
pub type Index = u32;

/// Convert an [`Index`] to a `usize` for slice indexing.
#[inline(always)]
pub fn ix(i: Index) -> usize {
    i as usize
}
