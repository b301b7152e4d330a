//! Row-major CSR mirrors for the **pull** execution path.
//!
//! GraphMat's column-wise DCSC SpMV is a *push* traversal: it walks the
//! non-empty columns (sources) present in the sparse message vector and
//! scatters into the output rows. That is ideal for sparse frontiers but
//! wasteful when most vertices are active — the regime direction-optimized
//! engines (Beamer et al.'s bottom-up BFS, GraphBLAST's SpMV/SpMSpV switch)
//! handle with a row-wise *pull* traversal: iterate destination rows, gather
//! from a dense message vector by index, and write each output entry exactly
//! once.
//!
//! [`CsrMirror`] is the structure that traversal runs over: row partitions
//! that are a **refinement of** a [`PartitionedDcsc`]'s (each mirror range
//! inside one of the matrix's, so the two backends share one
//! disjoint-row-ownership argument), each stored row-major — a compact CSR
//! whose row pointers cover only the partition's own row range and whose
//! column ids stay global. It is partitioned by the fine, load-balancing
//! ranges (§4.5's 8 × lanes); the push matrix is the same partitions or,
//! merged, one per lane. It is a *mirror*: fully redundant with the DCSC it
//! shadows, costing roughly the same memory again ([`CsrMirror::bytes`]). So
//! a graph does not build one: its first pull derives it from the push
//! matrix ([`CsrMirror::derive`], one counting transpose per fine
//! partition), as GraphBLAS converts a matrix's format when it is next read,
//! and a graph that is only ever pushed never holds one. The conversion runs
//! the other way too: a graph that holds only a mirror derives its push
//! matrix on its first push ([`PartitionedDcsc::derive`], one counting
//! transpose per push partition).
//! Pending edits are never merged into a pull: they are folded into a new
//! mirror, row by row from the overlay's edits bucketed by row, partition by
//! partition ([`crate::overlay::fold_into_mirror`]) — by the first pull of
//! a snapshot with edits pending, and by a compaction — and the fold is
//! pulled by the same kernel as any mirror.

use crate::dcsc::Dcsc;
use crate::overlay::fold_partitions;
use crate::parallel::Executor;
use crate::partition::{Partition, PartitionedDcsc, RowRange};
use crate::{ix, Index};

/// One row partition of a [`CsrMirror`]: the partition's row range plus a
/// compact CSR over exactly those rows. `row_ptr` is indexed by
/// `row - rows.start` (local), `col_idx` holds global column ids.
#[derive(Clone, Debug, PartialEq)]
pub struct PullPartition<T> {
    /// The rows this partition owns (same range as the mirrored DCSC
    /// partition).
    pub rows: RowRange,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<T>,
}

impl<T> PullPartition<T> {
    /// The partition of `rows` from its CSR arrays (`row_ptr` local, one
    /// entry per row plus one; column ids global).
    pub(crate) fn from_parts(
        rows: RowRange,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<T>,
    ) -> Self {
        debug_assert!(row_ptr.len() == rows.len() + 1 && row_ptr.last() == Some(&col_idx.len()));
        debug_assert_eq!(col_idx.len(), values.len());
        PullPartition {
            rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored entries in this partition.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The (global) column indices and values of global row `r`.
    ///
    /// # Panics
    /// Panics if `r` is outside this partition's row range.
    #[inline(always)]
    pub fn row(&self, r: Index) -> (&[Index], &[T]) {
        let local = ix(r - self.rows.start);
        let start = self.row_ptr[local];
        let end = self.row_ptr[local + 1];
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// Iterate the partition's rows as `(global_row, col_idx, values)`,
    /// skipping empty rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = (Index, &[Index], &[T])> + '_ {
        (self.rows.start..self.rows.end).filter_map(move |r| {
            let (cols, vals) = self.row(r);
            if cols.is_empty() {
                None
            } else {
                Some((r, cols, vals))
            }
        })
    }
}

/// A sparse matrix stored row-major, split into the same 1-D row partitions
/// as the [`PartitionedDcsc`] it was built from (which a push matrix built
/// alongside may merge). This is what the pull kernel
/// ([`crate::spmv::gspmv_csr_pull_into`]) traverses.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMirror<T> {
    nrows: Index,
    ncols: Index,
    partitions: Vec<PullPartition<T>>,
}

impl<T: Clone> CsrMirror<T> {
    /// Build the row-major mirror of a partitioned DCSC. Within each row,
    /// column ids come out ascending (the DCSC iterates columns in ascending
    /// order), which is what keeps push and pull reductions **bit-for-bit
    /// identical**: both fold a destination's incoming products in ascending
    /// source order.
    pub fn from_partitioned(matrix: &PartitionedDcsc<T>) -> Self {
        let partitions = matrix
            .partitions()
            .iter()
            .map(|p| Self::mirror_partition(|| p.matrix.iter(), p.rows))
            .collect();
        CsrMirror {
            nrows: matrix.nrows(),
            ncols: matrix.ncols(),
            partitions,
        }
    }

    /// The mirror partition of `rows` from its entries, which `entries`
    /// iterates in column-major order (twice: to count, then to place).
    fn mirror_partition<'a, I>(entries: impl Fn() -> I, rows: RowRange) -> PullPartition<T>
    where
        I: Iterator<Item = (Index, Index, &'a T)>,
        T: 'a,
    {
        let local_rows = rows.len();
        // Counting sort by local row: one pass to count, one to place.
        let mut row_ptr = vec![0usize; local_rows + 1];
        for (r, _, _) in entries() {
            row_ptr[ix(r - rows.start) + 1] += 1;
        }
        for i in 1..row_ptr.len() {
            row_ptr[i] += row_ptr[i - 1];
        }
        let nnz = row_ptr[local_rows];
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0 as Index; nnz];
        let mut values: Vec<Option<T>> = vec![None; nnz];
        // Column-major iteration → per-row appends arrive in ascending
        // column order, so rows come out sorted without an extra pass.
        for (r, c, v) in entries() {
            let slot = next[ix(r - rows.start)];
            col_idx[slot] = c;
            values[slot] = Some(v.clone());
            next[ix(r - rows.start)] += 1;
        }
        PullPartition {
            rows,
            row_ptr,
            col_idx,
            values: values
                .into_iter()
                // audit:allow(no-unwrap): counting-sort invariant — every
                // slot between the row pointers was filled by the scatter
                // loop above.
                .map(|v| v.expect("slot filled"))
                .collect(),
        }
    }
}

impl<T: Clone + Send + Sync> CsrMirror<T> {
    /// The mirror of `matrix` on `ranges`, which cover its rows contiguously,
    /// each inside one of its partitions: what a base's first pull derives
    /// from its push matrix. Each push partition's entries are bucketed by
    /// the ranges inside it and each bucket transposed by the counting sort
    /// [`CsrMirror::from_partitioned`] runs; the push partitions are handed
    /// out across `executor`'s lanes. The result is
    /// [`CsrMirror::from_partitioned`] of the same entries partitioned by
    /// `ranges`, whatever the lane count: each row's columns ascending,
    /// parallel entries in the order the matrix stores them.
    ///
    /// # Panics
    /// Panics if a range does not lie inside one of `matrix`'s partitions.
    pub fn derive(matrix: &PartitionedDcsc<T>, ranges: &[RowRange], executor: &Executor) -> Self {
        let parts = matrix.partitions();
        // The ranges inside each push partition: a run of consecutive ones.
        let (mut runs, mut first) = (Vec::with_capacity(parts.len()), 0);
        for part in parts {
            let inside = |r: &&RowRange| part.rows.start <= r.start && r.end <= part.rows.end;
            let end = first + ranges[first..].iter().take_while(inside).count();
            runs.push(first..end);
            first = end;
        }
        assert!(
            first == ranges.len(),
            "every mirror range lies inside one push partition"
        );
        let cut = fold_partitions(parts.len(), executor, |q| {
            let (part, run) = (&parts[q], &ranges[runs[q].clone()]);
            if run == [part.rows] {
                return vec![Self::mirror_partition(|| part.matrix.iter(), part.rows)];
            }
            // Bucketed by range first (column-major order kept), so that each
            // range's counting sort scatters into arrays of its own size.
            let mut buckets: Vec<Vec<_>> = run.iter().map(|_| Vec::new()).collect();
            for (r, c, v) in part.matrix.iter() {
                buckets[run.partition_point(|rows| rows.end <= r)].push((r, c, v));
            }
            let sort = |(rows, bucket): (&RowRange, &Vec<_>)| {
                Self::mirror_partition(|| bucket.iter().copied(), *rows)
            };
            run.iter().zip(&buckets).map(sort).collect()
        });
        CsrMirror {
            nrows: matrix.nrows(),
            ncols: matrix.ncols(),
            partitions: cut.into_iter().flatten().collect(),
        }
    }
}

impl<T: Clone + Send + Sync> PartitionedDcsc<T> {
    /// The push matrix of `mirror` on `ranges`, which cover its rows
    /// contiguously, each the union of a run of consecutive mirror
    /// partitions: what a base that holds only a mirror derives on its first
    /// push — the sibling of [`CsrMirror::derive`]. Each range's run is
    /// transposed column-wise by one counting sort, and the ranges are
    /// handed out across `executor`'s lanes. The result is
    /// [`crate::partition::RowBuckets::matrix`] of the same entries on
    /// `ranges`, whatever the lane count: each column's rows ascending,
    /// parallel entries in the order the mirror stores them.
    ///
    /// # Panics
    /// Panics if a mirror partition does not lie inside one of `ranges`.
    pub fn derive(mirror: &CsrMirror<T>, ranges: &[RowRange], executor: &Executor) -> Self {
        let parts = mirror.partitions();
        // The mirror partitions inside each range: a run of consecutive ones.
        let (mut runs, mut first) = (Vec::with_capacity(ranges.len()), 0);
        for range in ranges {
            let inside =
                |p: &&PullPartition<T>| range.start <= p.rows.start && p.rows.end <= range.end;
            let end = first + parts[first..].iter().take_while(inside).count();
            runs.push(first..end);
            first = end;
        }
        assert!(
            first == parts.len(),
            "every mirror partition lies inside one push range"
        );
        let (nrows, ncols) = (mirror.nrows(), mirror.ncols());
        let partitions = fold_partitions(ranges.len(), executor, |q| Partition {
            rows: ranges[q],
            matrix: transposed(&parts[runs[q].clone()], nrows, ncols),
        });
        PartitionedDcsc::from_partitions(nrows, ncols, partitions)
    }
}

/// The DCSC of a run of mirror partitions over consecutive rows: one pass
/// counts each column's entries, one places them in row-major order — so a
/// column's rows come out ascending and parallel entries in the order the
/// run stores them.
fn transposed<T: Clone>(run: &[PullPartition<T>], nrows: Index, ncols: Index) -> Dcsc<T> {
    let entries = || {
        let rows = run.iter().flat_map(|p| p.iter_rows());
        rows.flat_map(|(r, cols, vals)| cols.iter().zip(vals).map(move |(&c, v)| (r, c, v)))
    };
    // A column's count, then the next slot of its entries.
    let mut next = vec![0usize; ix(ncols)];
    for (_, c, _) in entries() {
        next[ix(c)] += 1;
    }
    let (mut jc, mut cp, mut nnz) = (Vec::new(), Vec::new(), 0);
    for (c, slot) in next.iter_mut().enumerate().filter(|(_, count)| **count > 0) {
        jc.push(c as Index);
        cp.push(nnz);
        nnz += std::mem::replace(slot, nnz);
    }
    cp.push(nnz);
    let mut ir = vec![0 as Index; nnz];
    // Every slot is overwritten below; a stored value is what fills them
    // first, so no slot is ever read unset.
    let mut values = match entries().next() {
        Some((_, _, v)) => vec![v.clone(); nnz],
        None => Vec::new(),
    };
    for (r, c, v) in entries() {
        let slot = &mut next[ix(c)];
        ir[*slot] = r;
        values[*slot] = v.clone();
        *slot += 1;
    }
    Dcsc::from_parts(nrows, ncols, jc, cp, ir, values)
}

impl<T> CsrMirror<T> {
    /// A mirror of `nrows × ncols` from its partitions, whose ranges cover
    /// the rows contiguously.
    pub(crate) fn from_partitions(
        nrows: Index,
        ncols: Index,
        partitions: Vec<PullPartition<T>>,
    ) -> Self {
        CsrMirror {
            nrows,
            ncols,
            partitions,
        }
    }

    /// Number of rows of the whole matrix.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns of the whole matrix.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Total number of stored entries across partitions.
    pub fn nnz(&self) -> usize {
        self.partitions.iter().map(|p| p.nnz()).sum()
    }

    /// Number of partitions (those of the DCSC it was built from).
    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Access the partitions.
    pub fn partitions(&self) -> &[PullPartition<T>] {
        &self.partitions
    }

    /// Access one partition.
    pub fn partition(&self, i: usize) -> &PullPartition<T> {
        &self.partitions[i]
    }

    /// The (global) column indices and values of global row `r`, found by a
    /// binary search over the partition ranges.
    ///
    /// # Panics
    /// Panics if `r` is not a row of the matrix.
    pub fn row(&self, r: Index) -> (&[Index], &[T]) {
        let p = self.partitions.partition_point(|p| p.rows.end <= r);
        self.partitions[p].row(r)
    }

    /// Total in-memory footprint in bytes (row pointers, column ids and
    /// stored values; zero value bytes when `T = ()`). This is the *extra*
    /// memory a topology pays on top of its DCSC matrices once it has pulled.
    pub fn bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| {
                p.row_ptr.len() * std::mem::size_of::<usize>()
                    + p.col_idx.len() * std::mem::size_of::<Index>()
                    + p.values.len() * std::mem::size_of::<T>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Coo<i32> {
        let mut m = Coo::new(8, 8);
        for c in 1..8 {
            m.push(0, c, c as i32);
        }
        m.push(3, 1, 100);
        m.push(5, 2, 200);
        m.push(5, 7, 201);
        m.push(7, 0, 300);
        m
    }

    #[test]
    fn mirror_preserves_entries_and_partitioning() {
        let coo = sample();
        let pd = PartitionedDcsc::from_coo_balanced(&coo, 3);
        let mirror = CsrMirror::from_partitioned(&pd);
        assert_eq!(mirror.nnz(), pd.nnz());
        assert_eq!(mirror.n_partitions(), pd.n_partitions());
        assert_eq!(mirror.nrows(), pd.nrows());
        let mut got: Vec<(u32, u32, i32)> = mirror
            .partitions()
            .iter()
            .flat_map(|p| p.iter_rows())
            .flat_map(|(r, cols, vals)| cols.iter().zip(vals).map(move |(c, v)| (r, *c, *v)))
            .collect();
        let mut expect: Vec<(u32, u32, i32)> =
            coo.entries().iter().map(|&(r, c, v)| (r, c, v)).collect();
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
        // Same ranges as the mirrored DCSC.
        for (mp, dp) in mirror.partitions().iter().zip(pd.partitions()) {
            assert_eq!(mp.rows, dp.rows);
        }
    }

    /// The mirror derived from a push matrix — merged in runs of the fine
    /// ranges, or on the fine ranges themselves — is the mirror of the fine
    /// matrix, on one lane and across two and three, empty ranges included.
    #[test]
    fn a_derived_mirror_is_the_mirror_of_the_fine_matrix() {
        use crate::partition::{RowBuckets, RowPartitioner};
        // A parallel pair and a self-loop beside the sample's entries.
        let mut coo = sample();
        coo.push(5, 2, 202);
        coo.push(4, 4, 400);
        for fine in [
            RowPartitioner::even_rows(8, 4),
            RowPartitioner::even_rows(8, 11),
            RowPartitioner::balanced_nnz(&coo.row_counts(), 3),
        ] {
            let buckets = RowBuckets::new(&coo, &fine);
            let want = CsrMirror::from_partitioned(&buckets.matrix(fine.len()));
            for groups in [1, 2, fine.len()] {
                for ex in [Executor::sequential(), Executor::new(2), Executor::new(3)] {
                    let case = format!("{fine:?} in {groups} groups, {} lanes", ex.nthreads());
                    let got = CsrMirror::derive(&buckets.matrix(groups), &fine, &ex);
                    assert_eq!(got.n_partitions(), fine.len(), "{case}");
                    for (got, want) in got.partitions().iter().zip(want.partitions()) {
                        assert_eq!(got.rows, want.rows, "{case}");
                        assert!(got.iter_rows().eq(want.iter_rows()), "{case}");
                    }
                    assert!(got == want, "{case}");
                }
            }
        }
    }

    /// The push matrix derived from a mirror — on the fine ranges or on runs
    /// of them merged — is the matrix built from the same buckets, and the
    /// mirror's derivation from that matrix derives it back: on one lane and
    /// across two and three, empty ranges included, weighted and `()`. The
    /// input has isolated vertices, a self-loop and a parallel pair of
    /// different values, whose stored order the derivation keeps.
    #[test]
    fn a_derived_push_matrix_is_the_matrix_of_the_buckets() {
        use crate::partition::{RowBuckets, RowPartitioner};
        fn check<T>(coo: &Coo<T>)
        where
            T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
        {
            for fine in [
                RowPartitioner::even_rows(coo.nrows(), 4),
                RowPartitioner::even_rows(coo.nrows(), 13),
                RowPartitioner::balanced_nnz(&coo.row_counts(), 3),
            ] {
                let buckets = RowBuckets::new(coo, &fine);
                let sequential = Executor::sequential();
                let mirror = CsrMirror::derive(&buckets.matrix(fine.len()), &fine, &sequential);
                for groups in [1, 2, fine.len()] {
                    let want = buckets.matrix(groups);
                    let ranges = RowPartitioner::coarsen(&fine, groups);
                    for ex in [Executor::sequential(), Executor::new(2), Executor::new(3)] {
                        let case = format!("{fine:?} in {groups} groups, {} lanes", ex.nthreads());
                        let got = PartitionedDcsc::derive(&mirror, &ranges, &ex);
                        assert!(got == want, "{case}");
                        let back = CsrMirror::derive(&got, &fine, &ex);
                        assert!(
                            PartitionedDcsc::derive(&back, &ranges, &ex) == got,
                            "{case}"
                        );
                        assert!(back == mirror, "{case}");
                    }
                }
            }
        }
        // Rows and columns 8 and 9 are empty.
        let mut coo = Coo::new(10, 10);
        for (r, c, v) in sample().entries() {
            coo.push(*r, *c, *v);
        }
        coo.push(5, 2, 202);
        coo.push(4, 4, 400);
        check(&coo);
        check(&coo.map(|_| ()));
    }

    #[test]
    fn rows_are_sorted_by_column() {
        let pd = PartitionedDcsc::from_coo_even(&sample(), 2);
        let mirror = CsrMirror::from_partitioned(&pd);
        let (cols, vals) = mirror.partition(0).row(0);
        assert_eq!(cols, &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(vals, &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(mirror.row(5), (&[2, 7][..], &[200, 201][..]));
        assert_eq!(mirror.row(6), (&[][..], &[][..]));
        for p in mirror.partitions() {
            for (_, cols, _) in p.iter_rows() {
                assert!(cols.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn empty_rows_are_skipped_by_iter_rows() {
        let pd = PartitionedDcsc::from_coo_even(&sample(), 2);
        let mirror = CsrMirror::from_partitioned(&pd);
        let nonempty: Vec<u32> = mirror
            .partitions()
            .iter()
            .flat_map(|p| p.iter_rows().map(|(r, _, _)| r))
            .collect();
        assert_eq!(nonempty, vec![0, 3, 5, 7]);
    }

    #[test]
    fn unweighted_mirror_stores_no_value_bytes() {
        let coo = sample();
        let weighted = CsrMirror::from_partitioned(&PartitionedDcsc::from_coo_even(&coo, 2));
        let unweighted =
            CsrMirror::from_partitioned(&PartitionedDcsc::from_coo_even(&coo.map(|_| ()), 2));
        assert_eq!(
            weighted.bytes() - unweighted.bytes(),
            weighted.nnz() * std::mem::size_of::<i32>()
        );
    }
}
