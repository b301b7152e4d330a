//! Generalized sparse matrix – sparse vector multiplication.
//!
//! This is Algorithm 1 of the paper: for every non-empty column `j` of (a
//! partition of) `Gᵀ` that is present in the sparse input vector `x`, combine
//! `x[j]` with every stored entry `(k, j)` using the generalized multiply,
//! and fold the results into `y[k]` with the generalized add.
//!
//! # Two walks, one order
//!
//! "Every column that is both non-empty and present" is an intersection, and
//! a partition is walked from whichever side is smaller (`walk_matrix`):
//!
//! * the **column walk** (`walk_columns`, the paper's loop) visits every
//!   non-empty column and probes `x` for it — O(non-empty columns), the right
//!   cost when most of them are present;
//! * the **frontier walk** (`walk_frontier`) scans the set entries of `x`
//!   inside the partition's column span `jc[0]..=jc[last]` (validity words,
//!   `trailing_zeros`) and finds each in `jc` by one probe or a forward
//!   gallop from the previous hit — O(frontier entries in the span), so a
//!   superstep with a handful of messages stops paying for the columns it
//!   does not visit, and on a banded (road) matrix the span bound keeps the
//!   total over all partitions at O(frontier) instead of
//!   O(frontier × partitions).
//!
//! The crossover is `x.nnz() < n_nonempty_cols()`, per partition: no tuned
//! factor. (Taking the frontier walk always was measured and costs a dense
//! push 1.75 → 3.18 ns per edge on RMAT, which is why the column walk stays.)
//! Both walks emit columns in **ascending order**, so each destination row
//! folds its products in ascending source order either way — the walk can
//! change a superstep's time, never a bit of its result — and the order also
//! matches the pull kernel's.
//!
//! # Entry points
//!
//! All take the input as `&SparseVector<X>` — the one message vector, by
//! name, in both directions — and are generic only over the element types
//! and the multiply/add closures (the multiply also receives the destination
//! row index `k`, which is how `graphmat-core` gives `PROCESS_MESSAGE`
//! access to the destination vertex's property — GraphMat's key frontend
//! extension over CombBLAS, §4.2):
//!
//! * [`gspmv_into`] / [`gspmv`] — partition-parallel kernel over a
//!   [`PartitionedDcsc`], using an [`Executor`] for dynamic scheduling. Each
//!   partition owns a disjoint row range, so all partitions write directly
//!   into **one** shared output vector through a disjoint-row-range writer —
//!   no per-partition partial vectors, no stitch pass, zero allocation in
//!   `gspmv_into` (see its "Allocation contract" section). There is one
//!   push kernel: pending edits are folded into a copy of the matrix
//!   ([`crate::overlay::fold_into_matrix`]) and that copy is pushed.
//! * [`gspmv_csr_pull_into`] — the row-parallel **dense pull** kernel over a
//!   [`CsrMirror`], used by the direction-optimized engine when the frontier
//!   is dense (reads the same [`SparseVector`] by index; writes each output
//!   row exactly once, with no sharded scatter). Like the push shell it is
//!   one inline task when the whole gather is worth less than a wake of the
//!   pool, one task per partition otherwise. There is one pull kernel too:
//!   pending edits are folded into a copy of the mirror
//!   ([`crate::overlay::fold_into_mirror`]) and that copy is pulled.
//! * [`pull_into`] — the shell under it, which is what the engine calls: it
//!   also takes the **output mask** `admit(k)` (a destination row whose
//!   result the caller would discard is skipped before its columns are
//!   touched — GraphBLAST's masked SpMV) and returns how many stored edges
//!   it gathered. The frozen wrapper above admits every row.
//!
//!   It also takes `covered`, the caller's word that every column stored in
//!   the mirror is set in `x` — the engine knows it from SEND's own count
//!   (every stored source sent: all-active PageRank, every superstep). A
//!   covered pull reads `x`'s values by index instead of testing a validity
//!   bit per gathered edge; the gather loop is the same one, handed a
//!   different probe, so the products and their order — and therefore the
//!   bits — are the probed pull's. The frozen wrapper passes
//!   `x.nnz() == x.len()`.

use crate::dcsc::Dcsc;
use crate::parallel::{chunks, phase_chunks, Executor};
use crate::partition::PartitionedDcsc;
use crate::pull::CsrMirror;
use crate::spvec::SparseVector;
use crate::Index;
use std::sync::atomic::{AtomicU64, Ordering};

/// One partition's Algorithm-1 walk: hand the `(row, product)` pair of
/// every stored entry whose column is present in `x` to `sink` — a shard of
/// the output vector — in ascending column order. Driven by the frontier
/// when it has fewer entries than the partition has non-empty columns, by
/// the columns otherwise (see the module docs).
#[inline(always)]
fn walk_matrix<X, E, Y, M>(
    matrix: &Dcsc<E>,
    x: &SparseVector<X>,
    multiply: &M,
    sink: impl FnMut(Index, Y),
) where
    M: Fn(&X, &E, Index) -> Y,
{
    if x.nnz() < matrix.n_nonempty_cols() {
        walk_frontier(matrix, x, multiply, sink);
    } else {
        walk_columns(matrix, x, multiply, sink);
    }
}

/// The column walk: probe `x` for each non-empty column.
#[inline(always)]
fn walk_columns<X, E, Y, M>(
    matrix: &Dcsc<E>,
    x: &SparseVector<X>,
    multiply: &M,
    mut sink: impl FnMut(Index, Y),
) where
    M: Fn(&X, &E, Index) -> Y,
{
    for (j, rows, edges) in matrix.iter_cols() {
        if let Some(xj) = x.get(j) {
            for (k, e) in rows.iter().zip(edges) {
                sink(*k, multiply(xj, e, *k));
            }
        }
    }
}

/// The frontier walk: look each entry of `x` inside the partition's column
/// span up in `jc`. Entries ascend, so each lookup starts from the previous
/// one and needs no stored index: `jc` ascends strictly, so column `j` sits
/// at most `j - jc[pos]` places past `pos` — exactly there when no column in
/// between is empty, which one probe settles (the usual case on a road
/// grid); otherwise a forward gallop — double a bracket until it holds the
/// column, then bisect it — finds it in O(log gap).
#[inline(always)]
fn walk_frontier<X, E, Y, M>(
    matrix: &Dcsc<E>,
    x: &SparseVector<X>,
    multiply: &M,
    mut sink: impl FnMut(Index, Y),
) where
    M: Fn(&X, &E, Index) -> Y,
{
    let jc = matrix.col_indices();
    let (Some(&first), Some(&last)) = (jc.first(), jc.last()) else {
        return;
    };
    // `jc[..pos]` are all below the entry being looked up, and every entry is
    // at most `last`: `pos` stays inside `jc`, and so does the bracket.
    let mut pos = 0usize;
    for (j, xj) in x.iter_range(first, last + 1) {
        let dense = pos + j.saturating_sub(jc[pos]) as usize;
        if jc.get(dense) == Some(&j) {
            pos = dense;
        } else {
            let mut step = 1usize;
            let mut end = pos + 1;
            while jc[end - 1] < j {
                pos = end;
                step *= 2;
                end = (end + step).min(jc.len());
            }
            pos += jc[pos..end].partition_point(|&c| c < j);
        }
        if jc[pos] == j {
            let (_, rows, edges) = matrix.nonempty_col(pos);
            for (k, e) in rows.iter().zip(edges) {
                sink(*k, multiply(xj, e, *k));
            }
            pos += 1;
        }
    }
}

/// Partition-parallel generalized SpMV (Algorithm 1 + optimizations 3 and 4
/// of §4.5), writing into a caller-provided output vector.
///
/// `y` is cleared and then filled in place. All partitions write directly
/// into `y` through a disjoint-row-range writer ([`SparseVector::sharded`]):
/// each partition owns a contiguous, non-overlapping row range (a
/// [`PartitionedDcsc`] construction invariant), so no two tasks ever touch
/// the same output entry and no stitching pass is needed.
///
/// # Allocation contract
///
/// Steady-state cost is **O(active entries) work and zero allocation** —
/// this function never allocates, regardless of thread or partition count.
/// The first version of this kernel allocated one O(n) `SparseVector` per
/// partition (O(n · partitions) zero-initialised memory per superstep with
/// the paper's `8 × threads` partitioning) and then stitched the partials
/// sequentially; that cost is gone. Callers running many supersteps should
/// reuse one `y` across calls (the engine's workspace does exactly that).
pub fn gspmv_into<X, E, Y, M, A>(
    matrix: &PartitionedDcsc<E>,
    x: &SparseVector<X>,
    multiply: &M,
    add: &A,
    executor: &Executor,
    y: &mut SparseVector<Y>,
) where
    X: Sync,
    E: Sync,
    Y: Clone + Default + Send,
    M: Fn(&X, &E, Index) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    push_into(matrix, x, multiply, add, executor, y);
}

/// The shell every push runs through, the mirror image of [`pull_into`]:
/// check and clear `y`, then walk every partition, sharded over the
/// executor's lanes. Pending edits never reach it: a push over them reads a
/// matrix they were folded into ([`crate::overlay::fold_into_matrix`]),
/// which stores the columns a rebuild would, so this is the one push kernel.
///
/// How the partitions become tasks follows the work, like SEND and APPLY
/// ([`phase_chunks`]): a frontier of fewer than
/// [`PARALLEL_PHASE_MIN_WORK`](crate::parallel::PARALLEL_PHASE_MIN_WORK)
/// messages is one task that walks the partitions in order, which the
/// executor runs inline on the caller — waking the pool costs more than the
/// walk; a larger one is one dynamically scheduled task per partition. The
/// partitioning is the grain either way: the paper's 8 × lanes (§4.5), or,
/// where a topology found its columns repeated across those, one partition
/// per lane — every message is looked up in every partition's `jc`, so a
/// sparse push pays for each partition it is split into. Rows belong to
/// partitions, not to tasks, so the grouping cannot change a result.
#[inline(always)]
fn push_into<X, E, Y, M, A>(
    matrix: &PartitionedDcsc<E>,
    x: &SparseVector<X>,
    multiply: &M,
    add: &A,
    executor: &Executor,
    y: &mut SparseVector<Y>,
) where
    X: Sync,
    E: Sync,
    Y: Clone + Default + Send,
    M: Fn(&X, &E, Index) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    assert_eq!(
        y.len(),
        matrix.nrows() as usize,
        "output vector length must match the matrix row count"
    );
    y.clear();
    if x.nnz() == 0 {
        return;
    }
    let nparts = matrix.n_partitions();
    let inline = phase_chunks(nparts, x.nnz(), executor).count() == 1;
    let tasks = chunks(nparts, if inline { 1 } else { nparts });
    let shards = y.sharded();
    executor.for_each_dynamic(tasks.count(), |task| {
        let (first, end) = tasks.bounds(task);
        let mut newly_set = 0usize;
        for p in first..end {
            walk_matrix(&matrix.partition(p).matrix, x, multiply, |k, product| {
                // SAFETY: partitions own disjoint row ranges and tasks own
                // disjoint partitions, so row `k` is merged by this task
                // only.
                unsafe { shards.merge(k, product, &mut newly_set, |acc, v| add(acc, v)) };
            });
        }
        shards.commit(newly_set);
    });
    drop(shards); // folds the per-task counts into y's nnz
}

/// Stored edges the pull kernel gathers in the time a vertex phase handles
/// one item: 1.25–1.35 ns per edge covered and 1.7–2.2 probed
/// (`sparse.pull.dense.ns_per_edge` of a traced `pr_dense` run, scale-17
/// RMAT, 2-core host; a 1-in-64 frontier reads 2.2–2.7 per stored edge)
/// against the 5–20 ns per item that
/// [`PARALLEL_PHASE_MIN_WORK`](crate::parallel::PARALLEL_PHASE_MIN_WORK) is
/// sized in. Dividing by it puts a pull under the same threshold as every
/// other phase: a mirror of fewer than 2048 × 16 = 32 k edges (some 40–70 µs
/// of gathering, one wake of a parked pool) is pulled inline on the caller.
const PULL_EDGES_PER_WORK_ITEM: usize = 16;

/// Row-parallel generalized SpMV over a row-major [`CsrMirror`] — the
/// **dense pull** backend of the direction-optimized engine.
///
/// Where [`gspmv_into`] *pushes* (walk the non-empty columns present in the
/// sparse input, scatter into output rows), this kernel *pulls*: each task
/// owns whole partitions of destination rows and, for every row `k`, gathers
/// the row's source entries, probes the input vector's validity bitmap
/// per source, multiplies the hits and folds them into a register-resident
/// accumulator — then writes `y[k]` exactly once. No sharded scatter, no
/// atomics anywhere on the write path, perfect write locality; the cost is
/// touching every stored edge of every gathered row whatever the frontier
/// holds, which is why the engine only selects this kernel when the
/// frontier's edges are a large enough share of the edges a pull would
/// gather (`graphmat_core::engine::choose_backend`). This entry gathers
/// **every** row; [`pull_into`], the shell under it, takes an output mask.
/// An input with every index set is a covered pull: its values are read
/// without the bitmap probe.
///
/// Per-destination reduction order is **ascending source id** — the same
/// order the push kernel produces (both of its walks emit DCSC columns in
/// ascending order) — so push and pull are bit-for-bit identical even for
/// non-associative floating-point `add`s.
///
/// `y` is cleared and then filled in place; like [`gspmv_into`] this
/// function never allocates.
pub fn gspmv_csr_pull_into<X, E, Y, M, A>(
    mirror: &CsrMirror<E>,
    x: &SparseVector<X>,
    multiply: &M,
    add: &A,
    executor: &Executor,
    y: &mut SparseVector<Y>,
) where
    X: Sync,
    E: Sync,
    Y: Clone + Default + Send,
    M: Fn(&X, &E, Index) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    let covered = x.nnz() == x.len();
    pull_into(mirror, x, covered, multiply, add, &|_| true, executor, y);
}

/// The shell every pull runs through, the mirror image of `push_into`:
/// check and clear `y`, then gather the rows of every partition and write
/// each output row once. Inlined into its callers. Pending edits never reach
/// it: a pull over them reads a mirror they were folded into
/// ([`crate::overlay::fold_into_mirror`]), which holds the rows a rebuild
/// would, so this is the one pull kernel.
///
/// `covered` is a **precondition the caller vouches for**: every column
/// stored in `mirror` is set in `x` (every source that holds an edge sent a
/// message — all-active PageRank on every superstep). The gather then reads
/// `x`'s values by index instead of probing its validity bits per edge; the
/// products, and the order they are folded in, are the ones the probed
/// gather computes, so the flag can change a pull's time, never a bit of its
/// result. Debug builds assert the bit of every value read that way. Pass
/// `false` when unsure: that is always correct.
///
/// `admit` is the **output mask**: a destination row `k` with `!admit(k)` is
/// passed over before its columns are touched and is never set in `y`. The
/// rows that are admitted come out exactly as an unmasked pull computes
/// them — the mask removes work, it cannot change a bit. With `|_| true`
/// the test compiles away.
///
/// Returns the number of stored edges handed to the gather: the lengths of
/// the admitted rows. This is what the pull cost, in the unit
/// `graphmat_core::engine::choose_backend` compares in.
///
/// # Panics
/// Panics if `x` / `y` has the wrong length; in debug builds also if
/// `covered` is claimed and a value is read at an index `x` does not set.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn pull_into<X, E, Y, M, A, R>(
    mirror: &CsrMirror<E>,
    x: &SparseVector<X>,
    covered: bool,
    multiply: &M,
    add: &A,
    admit: &R,
    executor: &Executor,
    y: &mut SparseVector<Y>,
) -> u64
where
    X: Sync,
    E: Sync,
    Y: Clone + Default + Send,
    M: Fn(&X, &E, Index) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
    R: Fn(Index) -> bool + Sync,
{
    assert_eq!(
        y.len(),
        mirror.nrows() as usize,
        "output vector length must match the matrix row count"
    );
    assert_eq!(
        x.len(),
        mirror.ncols() as usize,
        "input vector length must match the matrix column count"
    );
    y.clear();
    if x.nnz() == 0 {
        return 0;
    }
    // Like the push shell: one inline task below the phase threshold, one
    // task per partition above it. A pull gathers every stored edge of the
    // rows it admits whatever the frontier holds, so its work is bounded by
    // the edge count (how many rows the mask lets through is not known
    // before the pass).
    let nparts = mirror.n_partitions();
    let work = mirror.nnz() / PULL_EDGES_PER_WORK_ITEM;
    let inline = phase_chunks(nparts, work, executor).count() == 1;
    let tasks = chunks(nparts, if inline { 1 } else { nparts });
    // Partitions own disjoint row ranges and every row is written at most
    // once, so the sharded handle's insert path is all that runs — the
    // atomics it uses are only for validity words straddling a range
    // boundary.
    let shards = y.sharded();
    let gathered = AtomicU64::new(0);
    let values = x.raw_values();
    executor.for_each_dynamic(tasks.count(), |task| {
        let (first, end) = tasks.bounds(task);
        let mut newly_set = 0usize;
        let sink = |k, acc| {
            // SAFETY: mirror partitions own disjoint row ranges, the gather
            // writes only rows of the partition it walks, and tasks own
            // disjoint partitions, so row `k` is written by this task only.
            unsafe { shards.merge(k, acc, &mut newly_set, |slot, v| *slot = v) };
        };
        let parts = first..end;
        let edges = if covered {
            let read = |j: Index| {
                debug_assert!(x.get(j).is_some(), "covered pull: column {j} not set");
                Some(&values[j as usize])
            };
            pull_partitions(mirror, parts, read, multiply, add, admit, sink)
        } else {
            let probe = |j: Index| x.get(j);
            pull_partitions(mirror, parts, probe, multiply, add, admit, sink)
        };
        shards.commit(newly_set);
        // A statistic: it publishes nothing, the dispatch's join orders it.
        gathered.fetch_add(edges, Ordering::Relaxed);
    });
    drop(shards);
    gathered.into_inner()
}

/// A task's pull over partitions `parts`: gather each admitted non-empty
/// row — look each source up in the input through `x`, ascending, multiply
/// the hits and fold them into a register-resident accumulator — and hand
/// the rows that received a product to `sink`; returns the edges gathered.
/// `x` is the probe the shell picked: the validity-bit test, or for a
/// covered pull a plain read of the value, which always hits. The `Option`
/// accumulator stays for both: under a covered input a row's first source
/// sent too, so starting from its product would save nothing (a peeled
/// covered loop was measured no faster). Out of line: `pr_dense` measured
/// 13 % faster than with the loop inside the shell's task closure.
#[inline(never)]
fn pull_partitions<'x, X: 'x, E, Y, M, A, R>(
    mirror: &CsrMirror<E>,
    parts: std::ops::Range<usize>,
    x: impl Fn(Index) -> Option<&'x X>,
    multiply: &M,
    add: &A,
    admit: &R,
    mut sink: impl FnMut(Index, Y),
) -> u64
where
    M: Fn(&X, &E, Index) -> Y,
    A: Fn(&mut Y, Y),
    R: Fn(Index) -> bool,
{
    let mut gathered = 0u64;
    for p in parts {
        for (k, cols, edges) in mirror.partition(p).iter_rows() {
            if !admit(k) {
                continue;
            }
            let mut acc = None;
            for (j, e) in cols.iter().zip(edges) {
                if let Some(xj) = x(*j) {
                    let product = multiply(xj, e, k);
                    match &mut acc {
                        Some(a) => add(a, product),
                        None => acc = Some(product),
                    }
                }
            }
            gathered += cols.len() as u64;
            if let Some(acc) = acc {
                sink(k, acc);
            }
        }
    }
    gathered
}

/// Partition-parallel generalized SpMV returning a freshly allocated output
/// vector. Convenience wrapper over [`gspmv_into`] — hot loops should call
/// [`gspmv_into`] with a reused vector instead.
pub fn gspmv<X, E, Y, M, A>(
    matrix: &PartitionedDcsc<E>,
    x: &SparseVector<X>,
    multiply: &M,
    add: &A,
    executor: &Executor,
) -> SparseVector<Y>
where
    X: Sync,
    E: Sync,
    Y: Clone + Default + Send,
    M: Fn(&X, &E, Index) -> Y + Sync,
    A: Fn(&mut Y, Y) + Sync,
{
    let mut y: SparseVector<Y> = SparseVector::new(matrix.nrows() as usize);
    gspmv_into(matrix, x, multiply, add, executor, &mut y);
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::overlay::Overlay;
    use crate::partition::RowBuckets;

    /// Ordinary `(+, ×)` arithmetic over `f64`.
    fn plus_times(
        matrix: &PartitionedDcsc<f64>,
        x: &SparseVector<f64>,
        executor: &Executor,
    ) -> SparseVector<f64> {
        gspmv(
            matrix,
            x,
            &|x: &f64, e: &f64, _| x * e,
            &|acc: &mut f64, v| *acc += v,
            executor,
        )
    }

    /// The 5-vertex weighted graph of the paper's Figure 3 (SSSP example).
    /// Vertices A..E = 0..4; edges (src, dst, weight).
    fn figure3_graph_transpose() -> Coo<f32> {
        // Gᵀ as drawn in Figure 3(b): row = destination, column = source.
        let edges: [(u32, u32, f32); 7] = [
            (0, 1, 1.0), // A->B w1   => Gᵀ[1][0]
            (0, 2, 3.0), // A->C w3
            (0, 3, 2.0), // A->D w2
            (1, 2, 1.0), // B->C w1
            (2, 3, 2.0), // C->D w2
            (3, 4, 2.0), // D->E w2
            (4, 0, 4.0), // E->A w4
        ];
        let mut gt = Coo::new(5, 5);
        for (src, dst, w) in edges {
            gt.push(dst, src, w); // transpose: row = dst, col = src
        }
        gt
    }

    #[test]
    fn figure3_iteration0_matches_paper() {
        // x = {A: 0}; process = msg + edge; reduce = min
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let mut x: SparseVector<f32> = SparseVector::new(5);
        x.set(0, 0.0);
        let y = gspmv(
            &gt,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &Executor::sequential(),
        );
        // Paper iteration 0 result: B=1, C=3, D=2 (A and E unset)
        assert_eq!(y.to_entries(), vec![(1, 1.0), (2, 3.0), (3, 2.0)]);
    }

    #[test]
    fn figure3_iteration1_matches_paper() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        // frontier after iteration 0: B=1, C=3, D=2
        let mut x: SparseVector<f32> = SparseVector::new(5);
        x.set(1, 1.0);
        x.set(2, 3.0);
        x.set(3, 2.0);
        let y = gspmv(
            &gt,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &Executor::new(2),
        );
        // Paper iteration 1 reduced values: C=2, D=5, E=4
        assert_eq!(y.to_entries(), vec![(2, 2.0), (3, 5.0), (4, 4.0)]);
    }

    #[test]
    fn in_degree_example_from_figure1() {
        // Figure 1: multiply Gᵀ by all-ones to get in-degrees.
        // Graph: A->B, A->C, B->C, C->D, D->? use 4 vertices A..D
        let mut gt: Coo<f64> = Coo::new(4, 4);
        for (src, dst) in [(0u32, 1u32), (0, 2), (1, 2), (2, 3)] {
            gt.push(dst, src, 1.0);
        }
        let pd = PartitionedDcsc::from_coo_even(&gt, 3);
        let ones = SparseVector::full(4, 1.0f64);
        let y = plus_times(&pd, &ones, &Executor::sequential());
        // in-degrees: A=0 (unset), B=1, C=2, D=1
        assert_eq!(y.get(0), None);
        assert_eq!(y.get(1), Some(&1.0));
        assert_eq!(y.get(2), Some(&2.0));
        assert_eq!(y.get(3), Some(&1.0));
    }

    #[test]
    fn parallel_matches_sequential() {
        // random-ish structured matrix, compare 1-thread vs many-thread output
        let mut coo: Coo<f64> = Coo::new(64, 64);
        let mut state = 12345u64;
        for _ in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = ((state >> 33) % 64) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = ((state >> 33) % 64) as u32;
            coo.push(r, c, ((state >> 40) % 10) as f64 + 1.0);
        }
        coo.dedup_by(|a, _| *a);
        let pd_seq = PartitionedDcsc::from_coo_even(&coo, 1);
        let pd_par = PartitionedDcsc::from_coo_balanced(&coo, 16);
        let mut x: SparseVector<f64> = SparseVector::new(64);
        for i in (0..64).step_by(3) {
            x.set(i, (i + 1) as f64);
        }
        let seq = plus_times(&pd_seq, &x, &Executor::sequential());
        let par = plus_times(&pd_par, &x, &Executor::new(4));
        assert_eq!(seq.to_entries(), par.to_entries());
    }

    #[test]
    fn shared_output_matches_stitch_on_unbalanced_partitions() {
        // Regression test for the shared-output rewrite of `gspmv`: heavily
        // unbalanced partitions (one huge, several tiny, boundaries inside a
        // single 64-bit bitmap word) must produce exactly what sequential
        // per-partition accumulation — the old stitch path — produced.
        use crate::partition::RowRange;
        let n = 150u32;
        let mut coo: Coo<i64> = Coo::new(n, n);
        let mut state = 99u64;
        for _ in 0..1200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = ((state >> 33) % 150) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = ((state >> 33) % 150) as u32;
            coo.push(r, c, ((state >> 40) % 100) as i64 - 50);
        }
        // Word-unaligned, very skewed ranges: 0..130 | 130..131 | 131..133 | 133..150
        let ranges = [
            RowRange { start: 0, end: 130 },
            RowRange {
                start: 130,
                end: 131,
            },
            RowRange {
                start: 131,
                end: 133,
            },
            RowRange {
                start: 133,
                end: 150,
            },
        ];
        let pd = PartitionedDcsc::from_coo(&coo, &ranges);
        let mut x: SparseVector<i64> = SparseVector::new(n as usize);
        for i in (0..n).step_by(2) {
            x.set(i, i as i64 + 1);
        }

        // What the stitch path produced: every row reduced by one
        // sequential column walk — a 1-partition matrix on one lane.
        let stitched = gspmv(
            &PartitionedDcsc::from_coo_even(&coo, 1),
            &x,
            &|m: &i64, e: &i64, _| m * e,
            &|a: &mut i64, v| *a += v,
            &Executor::sequential(),
        );

        let shared = gspmv(
            &pd,
            &x,
            &|m: &i64, e: &i64, _| m * e,
            &|a: &mut i64, v| *a += v,
            &Executor::new(4),
        );
        assert_eq!(shared.nnz(), stitched.nnz());
        assert_eq!(shared.to_entries(), stitched.to_entries());
    }

    #[test]
    fn gspmv_into_reuses_output_and_clears_stale_entries() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let mut y: SparseVector<f32> = SparseVector::new(5);
        let ex = Executor::new(2);
        // First superstep: frontier {A}.
        let mut x: SparseVector<f32> = SparseVector::new(5);
        x.set(0, 0.0);
        gspmv_into(
            &gt,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &ex,
            &mut y,
        );
        assert_eq!(y.to_entries(), vec![(1, 1.0), (2, 3.0), (3, 2.0)]);
        // Reuse y for a different frontier: stale entries must vanish.
        x.clear();
        x.set(3, 2.0);
        gspmv_into(
            &gt,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &ex,
            &mut y,
        );
        assert_eq!(y.to_entries(), vec![(4, 4.0)]);
    }

    #[test]
    fn matches_dense_reference() {
        let mut coo: Coo<f64> = Coo::new(10, 10);
        for i in 0..10u32 {
            for j in 0..10u32 {
                if (i * 7 + j * 3) % 4 == 0 {
                    coo.push(i, j, (i + 2 * j) as f64);
                }
            }
        }
        let dense = crate::csr::Csr::from_coo(&coo).to_dense();
        let pd = PartitionedDcsc::from_coo_balanced(&coo, 4);
        let x_dense: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        let mut x: SparseVector<f64> = SparseVector::new(10);
        for (i, v) in x_dense.iter().enumerate() {
            x.set(i as u32, *v);
        }
        let y = plus_times(&pd, &x, &Executor::new(2));
        for (r, row) in dense.iter().enumerate() {
            let expect: f64 = (0..10).map(|c| row[c] * x_dense[c]).sum();
            let got = y.get(r as u32).copied().unwrap_or(0.0);
            assert!((expect - got).abs() < 1e-9, "row {r}: {expect} vs {got}");
        }
    }

    #[test]
    fn min_plus_runs() {
        let mut gt: Coo<f32> = Coo::new(3, 3);
        gt.push(1, 0, 5.0);
        gt.push(2, 1, 2.0);
        let pd = PartitionedDcsc::from_coo_even(&gt, 1);
        let mut x: SparseVector<f32> = SparseVector::new(3);
        x.set(0, 0.0);
        x.set(1, 100.0);
        let y = gspmv(
            &pd,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &Executor::sequential(),
        );
        assert_eq!(y.get(1), Some(&5.0));
        assert_eq!(y.get(2), Some(&102.0));
    }

    #[test]
    fn empty_frontier_produces_empty_output() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let x: SparseVector<f32> = SparseVector::new(5);
        let y = gspmv(
            &gt,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &Executor::new(2),
        );
        assert_eq!(y.nnz(), 0);
    }

    #[test]
    fn pull_matches_push_on_figure3() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let mirror = CsrMirror::from_partitioned(&gt);
        let ex = Executor::new(2);
        // frontier after iteration 0: B=1, C=3, D=2
        let mut x: SparseVector<f32> = SparseVector::new(5);
        for (i, v) in [(1u32, 1.0f32), (2, 3.0), (3, 2.0)] {
            x.set(i, v);
        }
        let multiply = |m: &f32, e: &f32, _: Index| m + e;
        let add = |acc: &mut f32, v: f32| *acc = acc.min(v);
        let push: SparseVector<f32> = gspmv(&gt, &x, &multiply, &add, &ex);
        let mut pull: SparseVector<f32> = SparseVector::new(5);
        gspmv_csr_pull_into(&mirror, &x, &multiply, &add, &ex, &mut pull);
        assert_eq!(pull.to_entries(), push.to_entries());
        assert_eq!(pull.to_entries(), vec![(2, 2.0), (3, 5.0), (4, 4.0)]);
    }

    #[test]
    fn pull_matches_push_on_random_matrix_all_densities() {
        let mut coo: Coo<i64> = Coo::new(150, 150);
        let mut state = 7u64;
        for _ in 0..1500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = ((state >> 33) % 150) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = ((state >> 33) % 150) as u32;
            coo.push(r, c, ((state >> 40) % 100) as i64 - 50);
        }
        let pd = PartitionedDcsc::from_coo_balanced(&coo, 7);
        let mirror = CsrMirror::from_partitioned(&pd);
        let multiply = |m: &i64, e: &i64, k: Index| m * e + k as i64;
        let add = |acc: &mut i64, v: i64| *acc += v;
        for stride in [1usize, 2, 17, 149] {
            let mut x: SparseVector<i64> = SparseVector::new(150);
            for i in (0..150).step_by(stride) {
                x.set(i as Index, i as i64 + 1);
            }
            for threads in [1usize, 4] {
                let ex = Executor::new(threads);
                let push: SparseVector<i64> = gspmv(&pd, &x, &multiply, &add, &ex);
                let mut pull: SparseVector<i64> = SparseVector::new(150);
                gspmv_csr_pull_into(&mirror, &x, &multiply, &add, &ex, &mut pull);
                assert_eq!(
                    pull.to_entries(),
                    push.to_entries(),
                    "stride {stride}, {threads} threads"
                );
            }
        }
    }

    /// SplitMix64, as in `graphmat_io::rng` (this crate sits below it).
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next() % n as u64) as u32
        }

        /// Magnitudes spread over six decades, so an `f32` sum depends on
        /// the order of its terms.
        fn value(&mut self) -> f32 {
            (1 + self.below(999)) as f32 * [1e-3, 1.0, 1e3][self.below(3) as usize]
        }
    }

    /// A skewed (RMAT-style quadrant recursion) or banded (grid) `n × n`
    /// matrix, salted: rows `n/2 .. n/2 + n/8` hold nothing (an empty
    /// partition at 16 even partitions), every 7th column and the first and
    /// last three hold nothing (bits 0 and n−1 of `x` lie outside every
    /// partition's column span).
    fn salted_matrix(shape: &str, n: u32, rng: &mut SplitMix) -> Coo<f32> {
        let mut coo: Coo<f32> = Coo::new(n, n);
        match shape {
            "rmat" => {
                for _ in 0..8 * n {
                    let (mut r, mut c) = (0u32, 0u32);
                    for _ in 0..n.next_power_of_two().trailing_zeros() {
                        let quadrant = match rng.below(100) {
                            0..=56 => (0, 0),
                            57..=75 => (0, 1),
                            76..=94 => (1, 0),
                            _ => (1, 1),
                        };
                        (r, c) = (2 * r + quadrant.0, 2 * c + quadrant.1);
                    }
                    if r < n && c < n {
                        coo.push(r, c, 0.0);
                    }
                }
            }
            _ => {
                let side = (n as f64).sqrt() as u32;
                for v in 0..side * side {
                    for u in [v.wrapping_sub(side), v.wrapping_sub(1), v + 1, v + side] {
                        let same_row_or_col = u / side == v / side || u % side == v % side;
                        if u < side * side && same_row_or_col && rng.below(10) > 0 {
                            coo.push(u, v, 0.0);
                        }
                    }
                }
            }
        }
        coo.dedup_by(|a, _| *a);
        let empty_rows = n / 2..n / 2 + n / 8;
        let entries = coo
            .into_entries()
            .into_iter()
            .filter(|(r, c, _)| !empty_rows.contains(r) && c % 7 != 3 && (3..n - 3).contains(c))
            .map(|(r, c, _)| (r, c, rng.value()))
            .collect();
        Coo::from_entries(n, n, entries)
    }

    /// `nnz` entries of a length-`n` vector: the word-boundary bits first
    /// (63, 64, then 0 and n−1, which no partition's span contains), the
    /// rest drawn from the seed.
    fn salted_frontier(n: u32, nnz: usize, rng: &mut SplitMix) -> SparseVector<f32> {
        let mut x: SparseVector<f32> = SparseVector::new(n as usize);
        for i in [63, 64, 0, n - 1].into_iter().take(nnz) {
            x.set(i, rng.value());
        }
        while x.nnz() < nnz {
            x.set(rng.below(n), rng.value());
        }
        x
    }

    fn bits(y: &SparseVector<f32>) -> Vec<(Index, u32)> {
        y.iter().map(|(k, v)| (k, v.to_bits())).collect()
    }

    /// A seeded output mask over `n` rows: two rows in three admitted.
    fn salted_mask(n: u32, rng: &mut SplitMix) -> Vec<bool> {
        (0..n).map(|_| rng.below(3) > 0).collect()
    }

    /// `mirror` pulled under `mask`, checked against `plain` — the bits an
    /// unmasked pull of the same matrix (or of the one a fold of edits into
    /// `mirror` rebuilds) produced: the admitted rows of `plain` and nothing
    /// else, and as many edges gathered as the admitted rows of `stored`
    /// hold. Returns how many rows of `plain` the mask took away.
    #[allow(clippy::too_many_arguments)]
    fn assert_masked_pull_is_the_plain_pull_restricted(
        mirror: &CsrMirror<f32>,
        stored: &CsrMirror<f32>,
        x: &SparseVector<f32>,
        mask: &[bool],
        plain: &[(Index, u32)],
        ex: &Executor,
        case: &str,
    ) -> usize {
        let multiply = |m: &f32, e: &f32, _: Index| m * e;
        let add = |acc: &mut f32, v: f32| *acc += v;
        let admit = |k: Index| mask[k as usize];
        let mut y: SparseVector<f32> = SparseVector::new(mask.len());
        let gathered = pull_into(mirror, x, false, &multiply, &add, &admit, ex, &mut y);
        let admitted: Vec<_> = plain.iter().filter(|(k, _)| admit(*k)).copied().collect();
        assert_eq!(bits(&y), admitted, "masked pull, {case}");
        assert_eq!(y.nnz(), admitted.len(), "masked pull nnz, {case}");
        let rows = stored.partitions().iter().flat_map(|p| p.iter_rows());
        let lengths = rows
            .filter(|row| admit(row.0))
            .map(|row| row.1.len() as u64);
        assert_eq!(gathered, lengths.sum::<u64>(), "edges gathered, {case}");
        plain.len() - admitted.len()
    }

    /// One forced walk over every partition, `+`-reduced sequentially.
    fn reduce_with(
        pd: &PartitionedDcsc<f32>,
        walk: impl Fn(&Dcsc<f32>, &mut dyn FnMut(Index, f32)),
    ) -> Vec<(Index, u32)> {
        let mut y: SparseVector<f32> = SparseVector::new(pd.nrows() as usize);
        for part in pd.partitions() {
            walk(&part.matrix, &mut |k, product| {
                y.merge(k, product, |acc, v| *acc += v)
            });
        }
        bits(&y)
    }

    #[test]
    fn frontier_walk_column_walk_and_pull_agree_bit_for_bit() {
        let multiply = |m: &f32, e: &f32, _: Index| m * e;
        let add = |acc: &mut f32, v: f32| *acc += v;
        let mut saw_empty_partition = false;
        for seed in [1u64, 2] {
            // n % 64 != 0, and n above the inline threshold so a full
            // frontier takes the parallel dispatch.
            for (shape, n) in [("rmat", 2500u32), ("grid", 2504)] {
                let rng = &mut SplitMix(seed);
                let coo = salted_matrix(shape, n, rng);
                assert!(n % 64 != 0 && n as usize > crate::parallel::PARALLEL_PHASE_MIN_WORK);
                for (parts, balanced) in
                    [(1, false), (5, false), (5, true), (16, false), (16, true)]
                {
                    let pd = if balanced {
                        PartitionedDcsc::from_coo_balanced(&coo, parts)
                    } else {
                        PartitionedDcsc::from_coo_even(&coo, parts)
                    };
                    let mirror = CsrMirror::from_partitioned(&pd);
                    let nzcs = pd.partitions().iter().map(|p| p.matrix.n_nonempty_cols());
                    saw_empty_partition |= nzcs.clone().any(|nzc| nzc == 0);
                    // Both sides of the walk crossover of the widest partition.
                    let nzc = nzcs.max().unwrap_or(0);
                    for nnz in [1, 2, nzc - 1, nzc, nzc + 1, n as usize] {
                        let x = salted_frontier(n, nnz, rng);
                        let case = format!(
                            "seed {seed}, {shape}, {parts} partitions (balanced: {balanced}), \
                             nnz(x) {nnz} around {nzc} columns"
                        );
                        let by_columns =
                            reduce_with(&pd, |m, sink| walk_columns(m, &x, &multiply, sink));
                        let by_frontier =
                            reduce_with(&pd, |m, sink| walk_frontier(m, &x, &multiply, sink));
                        assert!(!by_columns.is_empty(), "{case}");
                        assert_eq!(by_frontier, by_columns, "frontier walk, {case}");
                        let mask = salted_mask(n, rng);
                        for lanes in [1usize, 4] {
                            let ex = Executor::new(lanes);
                            let mut y: SparseVector<f32> = SparseVector::new(n as usize);
                            gspmv_into(&pd, &x, &multiply, &add, &ex, &mut y);
                            assert_eq!(bits(&y), by_columns, "push, {lanes} lanes, {case}");
                            let admit_all = &|_| true;
                            let all = pull_into(
                                &mirror, &x, false, &multiply, &add, admit_all, &ex, &mut y,
                            );
                            assert_eq!(bits(&y), by_columns, "pull, {lanes} lanes, {case}");
                            assert_eq!(all, mirror.nnz() as u64, "every edge gathered, {case}");
                            let masked_out = assert_masked_pull_is_the_plain_pull_restricted(
                                &mirror,
                                &mirror,
                                &x,
                                &mask,
                                &by_columns,
                                &ex,
                                &case,
                            );
                            // A full frontier reaches every non-empty row.
                            assert!(nnz < n as usize || masked_out > 0, "the mask bites, {case}");
                        }
                    }
                }
            }
        }
        assert!(
            saw_empty_partition,
            "the salt must leave some partition empty"
        );
    }

    /// The matrices above are pulled inline (fewer edges than the phase
    /// threshold is worth); this one is pulled one task per partition.
    #[test]
    fn pull_above_the_edge_threshold_matches_one_lane() {
        let multiply = |m: &f32, e: &f32, _: Index| m * e;
        let add = |acc: &mut f32, v: f32| *acc += v;
        let n = 16001u32;
        let rng = &mut SplitMix(3);
        let pd = PartitionedDcsc::from_coo_balanced(&salted_matrix("rmat", n, rng), 16);
        let mirror = CsrMirror::from_partitioned(&pd);
        let work = mirror.nnz() / PULL_EDGES_PER_WORK_ITEM;
        let ex = Executor::new(4);
        assert!(phase_chunks(16, work, &ex).count() > 1, "{work} work items");
        for nnz in [1, n as usize / 2, n as usize] {
            let x = salted_frontier(n, nnz, rng);
            let mut one_lane: SparseVector<f32> = SparseVector::new(n as usize);
            let sequential = Executor::sequential();
            gspmv_csr_pull_into(&mirror, &x, &multiply, &add, &sequential, &mut one_lane);
            let mut split: SparseVector<f32> = SparseVector::new(n as usize);
            gspmv_csr_pull_into(&mirror, &x, &multiply, &add, &ex, &mut split);
            assert_eq!(bits(&split), bits(&one_lane), "nnz(x) {nnz}");
            assert_eq!(split.nnz(), one_lane.nnz(), "nnz(x) {nnz}");
        }
    }

    /// `coo` with duplicate coordinates (every 11th entry stored again, its
    /// value drawn anew) and self-loops (every 5th vertex whose row and
    /// column both hold entries already, so the salted empty rows and
    /// columns stay empty).
    fn with_duplicates_and_loops(coo: Coo<f32>, rng: &mut SplitMix) -> Coo<f32> {
        let n = coo.nrows();
        let (mut rows, mut cols) = (vec![false; n as usize], vec![false; n as usize]);
        for &(r, c, _) in coo.entries() {
            (rows[r as usize], cols[c as usize]) = (true, true);
        }
        let mut entries = coo.into_entries();
        let twice: Vec<_> = entries.iter().step_by(11).map(|e| (e.0, e.1)).collect();
        entries.extend(twice.into_iter().map(|(r, c)| (r, c, rng.value())));
        let loops = (0..n)
            .step_by(5)
            .filter(|&v| rows[v as usize] && cols[v as usize]);
        entries.extend(loops.map(|v| (v, v, rng.value())));
        Coo::from_entries(n, n, entries)
    }

    /// An input that sets exactly the columns `coo` stores — what a covered
    /// pull may assume — with a NaN planted at every other slot, so a value
    /// read where the validity bit is clear shows in the output's bits.
    fn covering(coo: &Coo<f32>, rng: &mut SplitMix) -> SparseVector<f32> {
        let n = coo.ncols();
        let mut x: SparseVector<f32> = SparseVector::new(n as usize);
        (0..n).for_each(|j| x.set(j, f32::NAN));
        x.clear();
        for &(_, c, _) in coo.entries() {
            x.set(c, rng.value());
        }
        x
    }

    /// The covered pull against the probed one: same bits, same edges
    /// gathered, with and without an output mask, inline and one task per
    /// partition, on 1, 2 and 3 lanes — over duplicate coordinates,
    /// self-loops, empty rows and empty columns, whose unset slots of `x`
    /// hold NaN.
    #[test]
    fn covered_pull_and_probed_pull_agree_bit_for_bit() {
        let multiply = |m: &f32, e: &f32, _: Index| m * e;
        let add = |acc: &mut f32, v: f32| *acc += v;
        for seed in [1u64, 2] {
            for (shape, n) in [("rmat", 2500u32), ("grid", 2504), ("rmat", 16001)] {
                let rng = &mut SplitMix(seed);
                let coo = with_duplicates_and_loops(salted_matrix(shape, n, rng), rng);
                let x = covering(&coo, rng);
                assert!(x.nnz() < n as usize, "some vertex holds no column");
                let mask = salted_mask(n, rng);
                for (parts, balanced) in [(1, false), (5, false), (16, true)] {
                    let pd = if balanced {
                        PartitionedDcsc::from_coo_balanced(&coo, parts)
                    } else {
                        PartitionedDcsc::from_coo_even(&coo, parts)
                    };
                    let mirror = CsrMirror::from_partitioned(&pd);
                    let rows = mirror.partitions().iter().flat_map(|p| p.iter_rows());
                    assert!(rows.count() < n as usize, "some row is empty");
                    for lanes in [1usize, 2, 3] {
                        let ex = Executor::new(lanes);
                        let admit_all = &|_: Index| true;
                        let admit_some = &|k: Index| mask[k as usize];
                        let masks: [(&(dyn Fn(Index) -> bool + Sync), &str); 2] =
                            [(admit_all, "unmasked"), (admit_some, "masked")];
                        for (admit, masked) in masks {
                            let case = format!(
                                "seed {seed}, {shape} {n}, {parts} partitions \
                                 (balanced: {balanced}), {lanes} lanes, {masked}"
                            );
                            let pull = |covered| {
                                let mut y: SparseVector<f32> = SparseVector::new(n as usize);
                                let gathered = pull_into(
                                    &mirror, &x, covered, &multiply, &add, &admit, &ex, &mut y,
                                );
                                (bits(&y), y.nnz(), gathered)
                            };
                            let probed = pull(false);
                            assert!(!probed.0.is_empty(), "{case}");
                            assert_eq!(pull(true), probed, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// A covered pull whose input leaves a stored column unset breaks the
    /// precondition; debug builds catch it at the read.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "covered pull")]
    fn a_covered_pull_with_a_stored_column_unset_panics_in_debug_builds() {
        let rng = &mut SplitMix(1);
        let coo = salted_matrix("grid", 2504, rng);
        let mut x = covering(&coo, rng);
        let mut unset = x.to_entries();
        unset.remove(unset.len() / 2);
        x.clear();
        unset.into_iter().for_each(|(j, v)| x.set(j, v));
        let mirror = CsrMirror::from_partitioned(&PartitionedDcsc::from_coo_balanced(&coo, 4));
        let mut y: SparseVector<f32> = SparseVector::new(2504);
        let (multiply, add) = (|m: &f32, e: &f32, _: Index| m * e, |a: &mut f32, v| *a += v);
        let ex = Executor::sequential();
        pull_into(&mirror, &x, true, &multiply, &add, &|_| true, &ex, &mut y);
    }

    /// A base matrix with pending edits against it: seeded ones plus every
    /// corner the line merge has, and the matrix a compaction would
    /// rebuild from them — the first two also in the push layout of a
    /// topology whose columns repeat, merged to runs of consecutive
    /// partitions (the base's own when the runs are of one).
    struct Edited {
        base: PartitionedDcsc<f32>,
        overlay: Overlay<f32>,
        merged: PartitionedDcsc<f32>,
        merged_overlay: Overlay<f32>,
        /// The edited entries bucketed by the base's ranges, and how many
        /// runs of them the merged layout has.
        rebuilt_buckets: RowBuckets<f32>,
        groups: usize,
        rebuilt: PartitionedDcsc<f32>,
    }

    /// Edit `coo` (salted, `n × n`) under the given partitioning, merged in
    /// runs of at most `run` partitions. With five or more partitions, one
    /// inner partition — `free` — stays without edits between edited
    /// neighbours; every other one has edits in its first and last row. Two
    /// coordinates are stored twice in the base and one in the middle of the
    /// hub row three times, and all are edited — so the rebuild, which drops
    /// every copy of an edited coordinate, holds no duplicates whose order a
    /// sort could change.
    fn salted_edits(
        coo: &Coo<f32>,
        parts: usize,
        balanced: bool,
        run: usize,
        rng: &mut SplitMix,
    ) -> Edited {
        use crate::overlay::OverlayOp::{Delete, Upsert};
        use crate::partition::RowPartitioner;
        let n = coo.nrows();
        let counts = coo.row_counts();
        let ranges = if balanced {
            RowPartitioner::balanced_nnz(&counts, parts)
        } else {
            RowPartitioner::even_rows(n, parts)
        };
        let hub = (0..n).max_by_key(|&r| counts[r as usize]).unwrap_or(0);
        let empty_row = n / 2 + 1;
        assert_eq!(
            counts[empty_row as usize], 0,
            "the salt leaves this row empty"
        );
        let free = (ranges.len() >= 5).then(|| {
            let inner = &ranges[1..ranges.len() - 1];
            let free = inner
                .iter()
                .find(|r| !r.is_empty() && !r.contains(hub) && !r.contains(empty_row));
            *free.expect("three inner partitions, two pinned rows")
        });
        let editable = |row: Index| !free.is_some_and(|free| free.contains(row));

        let mut entries = coo.entries().to_vec();
        let stored = entries.len();
        let from = |at: usize| entries[at..].iter().find(|e| editable(e.0)).copied();
        let (twice_a, twice_b) = match (from(stored / 3), from(2 * stored / 3)) {
            (Some(a), Some(b)) if (a.0, a.1) != (b.0, b.1) => (a, b),
            found => panic!("two editable stored coordinates, got {found:?}"),
        };
        entries.push((twice_a.0, twice_a.1, rng.value()));
        entries.push((twice_b.0, twice_b.1, rng.value()));
        // The middle coordinate of the hub row, stored three times: on a long
        // row its copies sit past the first brackets of a gallop.
        let mut hub_cols: Vec<Index> = entries.iter().filter(|e| e.0 == hub).map(|e| e.1).collect();
        hub_cols.sort_unstable();
        let (hub_min, hub_max) = (hub_cols[0], hub_cols[hub_cols.len() - 1]);
        let thrice = (hub, hub_cols[hub_cols.len() / 2]);
        entries.extend([(thrice.0, thrice.1, 0.375), (thrice.0, thrice.1, 1536.0)]);
        let buckets = RowBuckets::new(&Coo::from_entries(n, n, entries.clone()), &ranges);
        let base = buckets.matrix(ranges.len());

        // One op per coordinate: later inserts replace earlier ones.
        let mut ops = std::collections::BTreeMap::new();
        for _ in 0..n / 16 {
            let (r, c) = match rng.below(2) {
                0 => {
                    let e = entries[rng.below(stored as u32) as usize];
                    (e.0, e.1)
                }
                _ => (rng.below(n), rng.below(n)),
            };
            let op = match rng.below(3) {
                0 => Delete,
                _ => Upsert(rng.value()),
            };
            ops.insert((r, c), op);
        }
        // A row the base leaves empty; row 0 and row n-1; columns no base row
        // holds (0, n-1 and 3, which the frontier's first bits cover); a
        // delete of an absent coordinate.
        ops.insert((empty_row, 64), Upsert(rng.value()));
        ops.insert((0, 63), Upsert(rng.value()));
        ops.insert((n - 1, 64), Upsert(rng.value()));
        ops.insert((n - 2, 0), Upsert(rng.value()));
        ops.insert((n - 2, n - 1), Upsert(rng.value()));
        ops.insert((n - 3, 3), Upsert(rng.value()));
        ops.insert((n - 3, 10), Delete);
        // Several edits in one hub row: its first stored column deleted, its
        // last reweighted, upserts before, between and past them.
        ops.insert((hub, hub_min), Delete);
        ops.insert((hub, hub_max), Upsert(rng.value()));
        for c in [0, 63, 64, n - 1] {
            ops.insert((hub, c), Upsert(rng.value()));
        }
        // The first and last row of every partition.
        for range in ranges.iter().filter(|r| !r.is_empty()) {
            ops.insert((range.start, 63), Upsert(rng.value()));
            ops.insert((range.end - 1, 64), Upsert(rng.value()));
        }
        // The coordinates stored twice: one replaced, one deleted; the one
        // stored three times replaced.
        ops.insert((twice_a.0, twice_a.1), Upsert(rng.value()));
        ops.insert((twice_b.0, twice_b.1), Delete);
        ops.insert(thrice, Upsert(0.0625));
        if let Some(free) = free {
            ops.retain(|&(r, _), _| editable(r));
            assert!(ops.keys().any(|&(r, _)| r < free.start));
            assert!(ops.keys().any(|&(r, _)| r >= free.end));
        }

        let rebuilt: Vec<_> = entries
            .iter()
            .filter(|e| !ops.contains_key(&(e.0, e.1)))
            .copied()
            .chain(ops.iter().filter_map(|(&(r, c), op)| match op {
                Upsert(w) => Some((r, c, *w)),
                Delete => None,
            }))
            .collect();
        let rebuilt_buckets = RowBuckets::new(&Coo::from_entries(n, n, rebuilt), &ranges);
        let ops: Vec<_> = ops.into_iter().map(|((r, c), op)| (r, c, op)).collect();
        let groups = ranges.len().div_ceil(run);
        let coarse = RowPartitioner::coarsen(&ranges, groups);
        Edited {
            merged: buckets.matrix(groups),
            merged_overlay: Overlay::from_entries(n, n, &coarse, ops.clone()),
            base,
            overlay: Overlay::from_entries(n, n, &ranges, ops),
            rebuilt: rebuilt_buckets.matrix(ranges.len()),
            rebuilt_buckets,
            groups,
        }
    }

    /// Folded pull == overlay-push == plain pull over the rebuilt matrix,
    /// bits and `nnz`, for frontiers of 1, n/2 and n entries — the push over
    /// the base's partitions and over the merged ones, the pull over the
    /// base's mirror with the overlay of either folded in; under a seeded
    /// output mask, folded pull == rebuilt pull == the plain pull's admitted
    /// rows, gathering the same number of edges. Without the edits, the
    /// base's push, the merged push and the mirror's pull agree too.
    fn assert_edited_kernels_agree(
        edited: &Edited,
        executors: &[Executor],
        rng: &mut SplitMix,
        case: &str,
    ) {
        use crate::overlay::{fold_into_mirror, gspmv_overlay_into};
        let multiply = |m: &f32, e: &f32, _: Index| m * e;
        let add = |acc: &mut f32, v: f32| *acc += v;
        let Edited {
            base,
            overlay,
            merged,
            merged_overlay,
            rebuilt,
            ..
        } = edited;
        let n = base.nrows();
        let mirror = CsrMirror::from_partitioned(base);
        let rebuilt_mirror = CsrMirror::from_partitioned(rebuilt);
        let layouts = [("fine", base, overlay), ("merged", merged, merged_overlay)];
        for nnz in [1, n as usize / 2, n as usize] {
            let x = salted_frontier(n, nnz, rng);
            let mask = salted_mask(n, rng);
            for ex in executors {
                let case = format!("{case}, nnz(x) {nnz}, {} lanes", ex.nthreads());
                let mut want: SparseVector<f32> = SparseVector::new(n as usize);
                gspmv_csr_pull_into(&rebuilt_mirror, &x, &multiply, &add, ex, &mut want);
                assert!(want.nnz() > 0, "{case}");
                // Masked, the folds and the rebuilt mirror agree on the rows,
                // their bits and the (edited) edges gathered.
                let pulls = [
                    &fold_into_mirror(&mirror, overlay, ex),
                    &fold_into_mirror(&mirror, merged_overlay, ex),
                    &rebuilt_mirror,
                ];
                for mirror in pulls {
                    let masked_out = assert_masked_pull_is_the_plain_pull_restricted(
                        mirror,
                        &rebuilt_mirror,
                        &x,
                        &mask,
                        &bits(&want),
                        ex,
                        &case,
                    );
                    assert!(nnz < n as usize || masked_out > 0, "the mask bites, {case}");
                }
                let mut y: SparseVector<f32> = SparseVector::new(n as usize);
                let mut unedited: SparseVector<f32> = SparseVector::new(n as usize);
                gspmv_csr_pull_into(&mirror, &x, &multiply, &add, ex, &mut unedited);
                for (layout, matrix, edits) in layouts {
                    let case = format!("{case}, {layout} push partitions");
                    let folded = fold_into_mirror(&mirror, edits, ex);
                    gspmv_csr_pull_into(&folded, &x, &multiply, &add, ex, &mut y);
                    assert_eq!(bits(&y), bits(&want), "overlay pull vs rebuild, {case}");
                    assert_eq!(y.nnz(), want.nnz(), "overlay pull nnz, {case}");
                    gspmv_overlay_into(matrix, edits, &x, &multiply, &add, ex, &mut y);
                    assert_eq!(bits(&y), bits(&want), "overlay push vs rebuild, {case}");
                    assert_eq!(y.nnz(), want.nnz(), "overlay push nnz, {case}");
                    gspmv_into(matrix, &x, &multiply, &add, ex, &mut y);
                    assert_eq!(bits(&y), bits(&unedited), "push vs pull, {case}");
                }
            }
        }
    }

    /// Seeds 1 and 2 over an RMAT and a grid matrix, under every partitioning
    /// `partitions` lists, merged in runs of at most `run` partitions — then
    /// an RMAT matrix with enough stored edges that the pull is one task per
    /// partition.
    fn assert_edited_kernels_agree_over(partitions: &[(usize, bool)], run: usize) {
        let executors = [Executor::new(1), Executor::new(4)];
        for seed in [1u64, 2] {
            for (shape, n) in [("rmat", 2500u32), ("grid", 2504)] {
                let rng = &mut SplitMix(seed);
                let coo = salted_matrix(shape, n, rng);
                for &(parts, balanced) in partitions {
                    let edited = salted_edits(&coo, parts, balanced, run, rng);
                    let case = format!(
                        "seed {seed}, {shape}, {parts} partitions (balanced: {balanced}), \
                         runs of {run}"
                    );
                    assert_edited_kernels_agree(&edited, &executors, rng, &case);
                }
            }
        }
        let seed = 3u64;
        let rng = &mut SplitMix(seed);
        let edited = salted_edits(&salted_matrix("rmat", 16001, rng), 16, true, run, rng);
        let work = edited.base.nnz() / PULL_EDGES_PER_WORK_ITEM;
        let executors = [Executor::new(4)];
        assert!(phase_chunks(16, work, &executors[0]).count() > 1, "{work}");
        let case = format!("seed {seed}, rmat 16001, 16 partitions, runs of {run}, dispatched");
        assert_edited_kernels_agree(&edited, &executors, rng, &case);
    }

    #[test]
    fn folded_pull_overlay_push_and_rebuilt_pull_agree_bit_for_bit() {
        let partitions = [(1, false), (5, false), (5, true), (16, false), (16, true)];
        assert_edited_kernels_agree_over(&partitions, 1);
    }

    /// The push layout of a topology whose columns repeat: the base and its
    /// overlay merged in runs of 3 (16 partitions: five runs and a ragged
    /// one; 5: a run of 3 and one of 2) and of 8, the mirror on the fine
    /// ranges — so fold tasks share a coarse overlay partition, each reading
    /// its own rows of it. Reading a task's rows from the first line of the
    /// overlay partition's row buckets instead of its own range's fails this.
    #[test]
    fn merged_push_fine_pull_and_rebuild_agree_bit_for_bit() {
        let partitions = [(5, false), (5, true), (16, false), (16, true)];
        for run in [3, 8] {
            assert_edited_kernels_agree_over(&partitions, run);
        }
    }

    /// Compaction's fold: the overlay of [`salted_edits`] folded into its
    /// base — the fine push partitions, the push merged in runs of 3 and 8,
    /// and the fine mirror under either overlay — is byte for byte what a
    /// build of the edited entries over the same ranges stores. (No salted
    /// value is zero or NaN, so `==` on the values is equality of bits.)
    /// Keeping one copy of the coordinate stored twice and upserted fails it.
    /// The matrix and the mirror fold alike on one lane and across two and
    /// three.
    #[test]
    fn a_folded_overlay_is_the_build_of_the_edited_entries() {
        use crate::overlay::{fold_into_matrix, fold_into_mirror};
        let partitions = [(1, false), (5, false), (5, true), (16, false), (16, true)];
        let lanes = [Executor::sequential(), Executor::new(2), Executor::new(3)];
        for seed in [1u64, 2] {
            for (shape, n) in [("rmat", 2500u32), ("grid", 2504)] {
                let rng = &mut SplitMix(seed);
                let coo = salted_matrix(shape, n, rng);
                for (&(parts, balanced), run) in partitions.iter().flat_map(|p| [(p, 3), (p, 8)]) {
                    let edited = salted_edits(&coo, parts, balanced, run, rng);
                    let case = format!(
                        "seed {seed}, {shape}, {parts} partitions (balanced: {balanced}), \
                         runs of {run}"
                    );
                    let want = &edited.rebuilt_buckets;
                    for ex in &lanes {
                        let case = format!("{} lanes, {case}", ex.nthreads());
                        let fine = fold_into_matrix(&edited.base, &edited.overlay, ex);
                        assert!(fine == edited.rebuilt, "fine push, {case}");
                        let merged = fold_into_matrix(&edited.merged, &edited.merged_overlay, ex);
                        assert!(merged == want.matrix(edited.groups), "merged push, {case}");
                    }
                    let mirror = CsrMirror::from_partitioned(&edited.base);
                    let want_mirror =
                        CsrMirror::from_partitioned(&want.matrix(want.ranges().len()));
                    for (layout, overlay) in [
                        ("fine", &edited.overlay),
                        ("merged", &edited.merged_overlay),
                    ] {
                        for ex in &lanes {
                            let folded = fold_into_mirror(&mirror, overlay, ex);
                            let case = format!("{layout} overlay, {} lanes, {case}", ex.nthreads());
                            assert!(folded == want_mirror, "mirror, {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pull_reuses_output_and_clears_stale_entries() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let mirror = CsrMirror::from_partitioned(&gt);
        let ex = Executor::sequential();
        let multiply = |m: &f32, e: &f32, _: Index| m + e;
        let add = |acc: &mut f32, v: f32| *acc = acc.min(v);
        let mut y: SparseVector<f32> = SparseVector::new(5);
        let mut x: SparseVector<f32> = SparseVector::new(5);
        x.set(0, 0.0);
        gspmv_csr_pull_into(&mirror, &x, &multiply, &add, &ex, &mut y);
        assert_eq!(y.to_entries(), vec![(1, 1.0), (2, 3.0), (3, 2.0)]);
        x.clear();
        x.set(3, 2.0);
        gspmv_csr_pull_into(&mirror, &x, &multiply, &add, &ex, &mut y);
        assert_eq!(y.to_entries(), vec![(4, 4.0)]);
    }

    #[test]
    fn pull_empty_frontier_produces_empty_output() {
        let gt = PartitionedDcsc::from_coo_even(&figure3_graph_transpose(), 2);
        let mirror = CsrMirror::from_partitioned(&gt);
        let x: SparseVector<f32> = SparseVector::new(5);
        let mut y: SparseVector<f32> = SparseVector::new(5);
        gspmv_csr_pull_into(
            &mirror,
            &x,
            &|m: &f32, e: &f32, _| m + e,
            &|acc: &mut f32, v| *acc = acc.min(v),
            &Executor::new(2),
            &mut y,
        );
        assert_eq!(y.nnz(), 0);
    }

    #[test]
    fn multiply_sees_destination_row() {
        // The destination row index must be passed through so the engine can
        // read destination vertex state (GraphMat's extension, §4.2).
        let mut gt: Coo<i32> = Coo::new(4, 4);
        gt.push(3, 0, 1);
        gt.push(2, 0, 1);
        let pd = PartitionedDcsc::from_coo_even(&gt, 1);
        let mut x: SparseVector<i32> = SparseVector::new(4);
        x.set(0, 10);
        let y = gspmv(
            &pd,
            &x,
            &|m: &i32, _e: &i32, k: Index| m + k as i32,
            &|acc: &mut i32, v| *acc += v,
            &Executor::sequential(),
        );
        assert_eq!(y.get(2), Some(&12));
        assert_eq!(y.get(3), Some(&13));
    }
}
