//! 1-D row partitioning of DCSC matrices.
//!
//! GraphMat partitions the (transposed) adjacency matrix along rows into
//! *many more partitions than threads* and schedules them dynamically; this
//! is the "load balancing" optimization of §4.5 (and the `nthreads*8`
//! argument in the paper's appendix listing). Each partition is stored as an
//! independent DCSC structure (paper §4.4.1), which is exactly what
//! [`PartitionedDcsc`] holds.
//!
//! That fine grain balances a kernel that touches every partition's share of
//! a dense frontier — which, since the engine picks a direction per
//! superstep, is the **pull** over a [`crate::pull::CsrMirror`]. A sparse
//! push looks every message up in every partition's `jc`, so on a matrix
//! whose columns repeat across partitions the fine grain is pure cost there:
//! [`RowBuckets::matrix`] builds runs of consecutive partitions as one per
//! lane, and the mirror ([`crate::pull::CsrMirror::derive`]) keeps the fine
//! ranges, which refine the merged ones.
//!
//! Two partitioning policies are provided:
//!
//! * [`RowPartitioner::even_rows`] — equal-sized row ranges (what a naive
//!   implementation would do);
//! * [`RowPartitioner::balanced_nnz`] — row ranges balanced by non-zero
//!   count, which matters on the skewed degree distributions of RMAT /
//!   social graphs.

use crate::coo::Coo;
use crate::dcsc::Dcsc;
use crate::parallel::chunks;
use crate::{ix, Index};

/// A contiguous range of rows assigned to one partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowRange {
    /// First row (inclusive).
    pub start: Index,
    /// One past the last row (exclusive).
    pub end: Index,
}

impl RowRange {
    /// Number of rows in the range.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// `true` if the range contains no rows.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// `true` if `row` falls inside the range.
    #[inline(always)]
    pub fn contains(&self, row: Index) -> bool {
        row >= self.start && row < self.end
    }
}

/// Policies for splitting `nrows` rows into partitions.
pub struct RowPartitioner;

impl RowPartitioner {
    /// Split into `nparts` ranges of (nearly) equal row count.
    pub fn even_rows(nrows: Index, nparts: usize) -> Vec<RowRange> {
        let nparts = nparts.max(1);
        let nrows_us = ix(nrows);
        let base = nrows_us / nparts;
        let extra = nrows_us % nparts;
        let mut ranges = Vec::with_capacity(nparts);
        let mut start = 0usize;
        for p in 0..nparts {
            let len = base + usize::from(p < extra);
            ranges.push(RowRange {
                start: start as Index,
                end: (start + len) as Index,
            });
            start += len;
        }
        debug_assert_eq!(start, nrows_us);
        ranges
    }

    /// Split into at most `nparts` ranges whose total non-zero counts are
    /// approximately balanced, given per-row non-zero counts.
    ///
    /// Rows are never split, so a single very heavy row forms its own
    /// partition. Returned ranges always cover `0..row_nnz.len()` and are
    /// contiguous and non-overlapping.
    pub fn balanced_nnz(row_nnz: &[usize], nparts: usize) -> Vec<RowRange> {
        let nparts = nparts.max(1);
        let nrows = row_nnz.len();
        let total: usize = row_nnz.iter().sum();
        if nrows == 0 {
            return vec![RowRange { start: 0, end: 0 }];
        }
        let target = (total / nparts).max(1);
        let mut ranges = Vec::with_capacity(nparts);
        let mut start = 0usize;
        let mut acc = 0usize;
        for (r, &cnt) in row_nnz.iter().enumerate() {
            acc += cnt;
            let remaining_parts = nparts - ranges.len();
            let remaining_rows = nrows - r - 1;
            // close the partition when we reach the target, but keep enough
            // rows for the remaining partitions to be non-degenerate
            if acc >= target && remaining_parts > 1 && remaining_rows + 1 >= remaining_parts {
                ranges.push(RowRange {
                    start: start as Index,
                    end: (r + 1) as Index,
                });
                start = r + 1;
                acc = 0;
            }
        }
        ranges.push(RowRange {
            start: start as Index,
            end: nrows as Index,
        });
        ranges
    }

    /// Merge contiguous `ranges` into at most `groups` runs of consecutive
    /// ones, split as [`chunks`]`(ranges.len(), groups)` splits them: every
    /// run but the last holds `⌈len / groups⌉` ranges. Each input range lies
    /// inside exactly one output range — the output is coarsened, the input
    /// refines it.
    pub fn coarsen(ranges: &[RowRange], groups: usize) -> Vec<RowRange> {
        let runs = chunks(ranges.len(), groups);
        (0..runs.count())
            .map(|run| {
                let (first, end) = runs.bounds(run);
                RowRange {
                    start: ranges[first].start,
                    end: ranges[end - 1].end,
                }
            })
            .collect()
    }
}

/// One row partition of a matrix: a row range plus the DCSC holding exactly
/// the entries whose row falls in that range. Row indices inside the DCSC are
/// *global* (not rebased), so SpMV output indices need no translation.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition<T> {
    /// The rows this partition owns.
    pub rows: RowRange,
    /// The entries of those rows, as a DCSC over the full matrix shape.
    pub matrix: Dcsc<T>,
}

impl<T> Partition<T> {
    /// Number of non-zeros in this partition.
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }
}

/// A sparse matrix split into 1-D row partitions, each an independent DCSC.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionedDcsc<T> {
    nrows: Index,
    ncols: Index,
    partitions: Vec<Partition<T>>,
}

/// A matrix's entries bucketed by row range, each bucket sorted by `(col,
/// row)` — the order a DCSC stores them in, and the order a CSR mirror's rows
/// take them in. [`RowBuckets::matrix`] builds the DCSC partitions from it,
/// one per bucket or one per run of consecutive buckets; the row-major
/// mirror on the buckets' ranges is derived from those
/// ([`crate::pull::CsrMirror::derive`]).
#[derive(Clone, Debug)]
pub struct RowBuckets<T> {
    nrows: Index,
    ncols: Index,
    ranges: Vec<RowRange>,
    buckets: Vec<Vec<(Index, Index, T)>>,
    stored_columns: usize,
}

impl<T: Clone> RowBuckets<T> {
    /// Bucket a COO matrix's entries by the given row ranges and sort each
    /// bucket.
    ///
    /// # Panics
    /// Panics if the ranges do not cover `0..nrows` contiguously.
    pub fn new(coo: &Coo<T>, ranges: &[RowRange]) -> Self {
        assert!(!ranges.is_empty(), "at least one partition required");
        assert_eq!(ranges[0].start, 0, "partitions must start at row 0");
        assert_eq!(
            // audit:allow(no-unwrap): non-empty — asserted two lines up.
            ranges.last().unwrap().end,
            coo.nrows(),
            "partitions must cover all rows"
        );
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "partitions must be contiguous");
        }

        // Bucket entries by partition. A linear scan with binary search over
        // range starts keeps this O(nnz log nparts).
        let starts: Vec<Index> = ranges.iter().map(|r| r.start).collect();
        let mut buckets: Vec<Vec<(Index, Index, T)>> = vec![Vec::new(); ranges.len()];
        for (r, c, v) in coo.entries() {
            let p = match starts.binary_search(r) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            buckets[p].push((*r, *c, v.clone()));
        }
        // Each bucket's distinct columns are counted while it is in cache.
        let mut stored_columns = 0;
        for entries in &mut buckets {
            entries.sort_unstable_by_key(|&(r, c, _)| (c, r));
            let changes = entries.windows(2).filter(|w| w[0].1 != w[1].1).count();
            stored_columns += changes + usize::from(!entries.is_empty());
        }
        RowBuckets {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            ranges: ranges.to_vec(),
            buckets,
            stored_columns,
        }
    }

    /// The DCSC partitions of the buckets, in runs of consecutive ones split
    /// as [`RowPartitioner::coarsen`]`(ranges, groups)` splits the ranges:
    /// one partition per bucket for `groups ≥` the bucket count, fewer and
    /// wider ones below it. A run's DCSC is one k-way merge of its buckets by
    /// column ([`Dcsc`]'s `from_col_sorted_runs`): a merged column is its
    /// rows in bucket order, which is ascending — so runs cost no more
    /// sorting than single buckets do.
    pub fn matrix(&self, groups: usize) -> PartitionedDcsc<T> {
        let runs = chunks(self.buckets.len(), groups);
        let rows = RowPartitioner::coarsen(&self.ranges, groups);
        let partitions = rows
            .into_iter()
            .enumerate()
            .map(|(run, rows)| {
                let (first, end) = runs.bounds(run);
                let buckets: Vec<&[(Index, Index, T)]> =
                    self.buckets[first..end].iter().map(Vec::as_slice).collect();
                Partition {
                    rows,
                    matrix: Dcsc::from_col_sorted_runs(self.nrows, self.ncols, &buckets),
                }
            })
            .collect();
        PartitionedDcsc {
            nrows: self.nrows,
            ncols: self.ncols,
            partitions,
        }
    }
}

impl<T> RowBuckets<T> {
    /// The row ranges the entries were bucketed by.
    pub fn ranges(&self) -> &[RowRange] {
        &self.ranges
    }

    /// Σ over buckets of the distinct columns each holds: the non-empty
    /// columns one DCSC per bucket stores — over the matrix's own non-empty
    /// columns, how often a column repeats across the buckets.
    pub fn stored_columns(&self) -> usize {
        self.stored_columns
    }
}

impl<T: Clone> PartitionedDcsc<T> {
    /// Partition a COO matrix into the given row ranges.
    ///
    /// # Panics
    /// Panics if the ranges do not cover `0..nrows` contiguously.
    pub fn from_coo(coo: &Coo<T>, ranges: &[RowRange]) -> Self {
        RowBuckets::new(coo, ranges).matrix(ranges.len())
    }

    /// Partition with `nparts` nnz-balanced row ranges.
    pub fn from_coo_balanced(coo: &Coo<T>, nparts: usize) -> Self {
        let ranges = RowPartitioner::balanced_nnz(&coo.row_counts(), nparts);
        Self::from_coo(coo, &ranges)
    }

    /// Partition with `nparts` equal-row-count ranges.
    pub fn from_coo_even(coo: &Coo<T>, nparts: usize) -> Self {
        let ranges = RowPartitioner::even_rows(coo.nrows(), nparts);
        Self::from_coo(coo, &ranges)
    }
}

impl<T> PartitionedDcsc<T> {
    /// A matrix of `nrows × ncols` from its partitions, whose ranges cover
    /// the rows contiguously.
    pub(crate) fn from_partitions(
        nrows: Index,
        ncols: Index,
        partitions: Vec<Partition<T>>,
    ) -> Self {
        PartitionedDcsc {
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

    /// Total number of non-zeros across partitions.
    pub fn nnz(&self) -> usize {
        self.partitions.iter().map(|p| p.nnz()).sum()
    }

    /// Number of partitions.
    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Access the partitions.
    pub fn partitions(&self) -> &[Partition<T>] {
        &self.partitions
    }

    /// Access one partition.
    pub fn partition(&self, i: usize) -> &Partition<T> {
        &self.partitions[i]
    }

    /// Iterate over all entries as `(row, col, &value)` (partition order).
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, &T)> + '_ {
        self.partitions.iter().flat_map(|p| p.matrix.iter())
    }

    /// Memory footprint of the index structures across all partitions.
    pub fn index_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.matrix.index_bytes()).sum()
    }

    /// Total memory footprint (indices + edge values) across all partitions.
    /// Zero value bytes when `T = ()`.
    pub fn bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.matrix.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo<i32> {
        let mut m = Coo::new(8, 8);
        // a heavy row 0, lighter others
        for c in 1..8 {
            m.push(0, c, c as i32);
        }
        m.push(3, 1, 100);
        m.push(5, 2, 200);
        m.push(7, 0, 300);
        m
    }

    #[test]
    fn even_rows_covers_everything() {
        let ranges = RowPartitioner::even_rows(10, 3);
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[0], RowRange { start: 0, end: 4 });
        assert_eq!(ranges[1], RowRange { start: 4, end: 7 });
        assert_eq!(ranges[2], RowRange { start: 7, end: 10 });
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 10);
    }

    #[test]
    fn even_rows_more_parts_than_rows() {
        let ranges = RowPartitioner::even_rows(2, 5);
        assert_eq!(ranges.len(), 5);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 2);
        assert_eq!(ranges.last().unwrap().end, 2);
    }

    #[test]
    fn balanced_nnz_splits_by_weight() {
        // 100 nnz in row 0, 1 nnz in each of rows 1..=4
        let row_nnz = vec![100, 1, 1, 1, 1];
        let ranges = RowPartitioner::balanced_nnz(&row_nnz, 2);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0], RowRange { start: 0, end: 1 });
        assert_eq!(ranges[1], RowRange { start: 1, end: 5 });
    }

    #[test]
    fn balanced_nnz_handles_uniform() {
        let row_nnz = vec![2; 12];
        let ranges = RowPartitioner::balanced_nnz(&row_nnz, 4);
        assert_eq!(ranges.last().unwrap().end, 12);
        assert!(ranges.len() <= 4);
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 12);
    }

    #[test]
    fn balanced_nnz_empty_matrix() {
        let ranges = RowPartitioner::balanced_nnz(&[], 4);
        assert_eq!(ranges.len(), 1);
        assert!(ranges[0].is_empty());
    }

    #[test]
    fn partitioned_dcsc_preserves_entries() {
        let coo = sample();
        let pd = PartitionedDcsc::from_coo_even(&coo, 3);
        assert_eq!(pd.nnz(), coo.nnz());
        assert_eq!(pd.n_partitions(), 3);
        let mut got: Vec<(u32, u32, i32)> = pd.iter().map(|(r, c, v)| (r, c, *v)).collect();
        let mut expect: Vec<(u32, u32, i32)> =
            coo.entries().iter().map(|&(r, c, v)| (r, c, v)).collect();
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn partition_rows_are_disjoint_and_owned() {
        let coo = sample();
        let pd = PartitionedDcsc::from_coo_balanced(&coo, 4);
        for p in pd.partitions() {
            for (r, _, _) in p.matrix.iter() {
                assert!(p.rows.contains(r), "row {r} outside {:?}", p.rows);
            }
        }
        // ranges contiguous
        for w in pd.partitions().windows(2) {
            assert_eq!(w[0].rows.end, w[1].rows.start);
        }
    }

    #[test]
    fn balanced_beats_even_on_skew() {
        let coo = sample();
        let even = PartitionedDcsc::from_coo_even(&coo, 4);
        let balanced = PartitionedDcsc::from_coo_balanced(&coo, 4);
        let max_even = even.partitions().iter().map(|p| p.nnz()).max().unwrap();
        let max_bal = balanced.partitions().iter().map(|p| p.nnz()).max().unwrap();
        assert!(max_bal <= max_even);
    }

    #[test]
    fn coarsen_merges_runs_of_consecutive_ranges() {
        let fine = RowPartitioner::even_rows(20, 7);
        for groups in [1usize, 2, 3, 7, 9] {
            let coarse = RowPartitioner::coarsen(&fine, groups);
            assert_eq!(coarse.len(), chunks(7, groups).count(), "{groups} groups");
            assert_eq!(coarse[0].start, 0);
            assert_eq!(coarse[coarse.len() - 1].end, 20);
            for w in coarse.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // Every boundary of the coarse ranges is one of the fine ones.
            assert!(coarse
                .iter()
                .all(|c| fine.iter().any(|f| f.start == c.start)));
        }
        assert_eq!(RowPartitioner::coarsen(&fine, 7), fine);
    }

    /// Runs of 1, 3 and 8 buckets (16 → 16, 6 with a ragged last run of 1,
    /// and 2 partitions) are what a build over the merged ranges stores; the
    /// buckets count the columns one partition per bucket stores.
    #[test]
    fn merged_runs_of_buckets_are_a_build_over_the_merged_ranges() {
        let mut coo: Coo<i32> = Coo::new(64, 48);
        let mut state = 5u64;
        for _ in 0..600 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = ((state >> 33) % 64) as u32;
            let c = ((state >> 45) % 48) as u32;
            coo.push(r, c, (state >> 20) as i32 % 1000);
        }
        coo.dedup_by(|a, _| *a);
        let buckets = RowBuckets::new(&coo, &RowPartitioner::even_rows(64, 16));
        let fine = buckets.matrix(16);
        let stored = fine.partitions().iter().map(|p| p.matrix.n_nonempty_cols());
        assert_eq!(buckets.stored_columns(), stored.sum::<usize>());
        for (run, groups) in [(1usize, 16usize), (3, 6), (8, 2)] {
            assert_eq!(16usize.div_ceil(groups), run);
            let merged = buckets.matrix(groups);
            let ranges = RowPartitioner::coarsen(buckets.ranges(), groups);
            let rebuilt = PartitionedDcsc::from_coo(&coo, &ranges);
            assert_eq!(merged.n_partitions(), ranges.len(), "runs of {run}");
            assert_eq!(merged.nnz(), coo.nnz());
            for (got, want) in merged.partitions().iter().zip(rebuilt.partitions()) {
                assert_eq!(got.rows, want.rows, "runs of {run}");
                assert_eq!(got.matrix, want.matrix, "runs of {run}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn non_covering_ranges_panic() {
        let coo = sample();
        let ranges = vec![RowRange { start: 0, end: 4 }];
        let _ = PartitionedDcsc::from_coo(&coo, &ranges);
    }
}
