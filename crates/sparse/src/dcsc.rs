//! Doubly Compressed Sparse Column (DCSC) matrices.
//!
//! DCSC (Buluç & Gilbert, IPDPS 2008) is the format GraphMat stores its
//! transposed adjacency matrix in (paper §4.4.1). Compared to CSC it also
//! compresses the *column pointer* array: only columns that contain at least
//! one non-zero are represented, which matters once the matrix is split into
//! many row partitions — each partition is hypersparse (most columns empty),
//! and a plain CSC would spend `O(ncols)` memory per partition.
//!
//! The representation uses the paper's four arrays:
//!
//! * `jc`  — indices of the non-empty columns, ascending;
//! * `cp`  — for non-empty column `jc[i]`, its entries live at
//!   `ir[cp[i]..cp[i+1]]` (so `cp.len() == jc.len() + 1`);
//! * `ir`  — row indices of the non-zeros;
//! * `values` — the non-zero values, parallel to `ir`.
//!
//! The optional auxiliary index described in the paper (used to accelerate
//! random column lookup) is not stored. The SpMV either walks the non-empty
//! columns in order, or — for a frontier smaller than `jc` — looks the
//! frontier's columns up in ascending order, where each lookup is a forward
//! gallop over `jc` from the previous hit (`crate::spmv`): O(log gap), no
//! index needed. A change that stored one raised graph set-up time by
//! 18–28 % and was rejected for it, so nothing is built or kept for lookups.

use crate::coo::Coo;
use crate::Index;

/// A sparse matrix in Doubly Compressed Sparse Column format.
#[derive(Clone, Debug, PartialEq)]
pub struct Dcsc<T> {
    nrows: Index,
    ncols: Index,
    jc: Vec<Index>,
    cp: Vec<usize>,
    ir: Vec<Index>,
    values: Vec<T>,
}

impl<T: Clone> Dcsc<T> {
    /// Build from a COO matrix (duplicates kept; dedup beforehand if needed).
    pub fn from_coo(coo: &Coo<T>) -> Self {
        let mut entries: Vec<(Index, Index, T)> = coo.entries().to_vec();
        // column-major order: group by column, rows ascending inside a column
        entries.sort_unstable_by_key(|&(r, c, _)| (c, r));
        Self::from_col_sorted(coo.nrows(), coo.ncols(), &entries)
    }

    /// Build from entries already sorted by `(col, row)`.
    pub fn from_col_sorted(nrows: Index, ncols: Index, entries: &[(Index, Index, T)]) -> Self {
        Self::from_col_sorted_runs(nrows, ncols, &[entries])
    }

    /// Build from runs of entries, each sorted by `(col, row)`, whose rows
    /// lie in ascending, disjoint ranges in run order — the workhorse of the
    /// partitioner, which buckets a graph's edges into row ranges and builds
    /// one DCSC per range or per run of consecutive ranges. A column of the
    /// result is that column's rows in every run that has it, concatenated in
    /// run order — ascending, because the ranges are — so this is one k-way
    /// merge of the runs' columns and one copy of their entries, no sort.
    pub(crate) fn from_col_sorted_runs(
        nrows: Index,
        ncols: Index,
        runs: &[&[(Index, Index, T)]],
    ) -> Self {
        debug_assert!(runs
            .iter()
            .all(|run| run.windows(2).all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0))));
        let nnz = runs.iter().map(|run| run.len()).sum();
        let mut jc: Vec<Index> = Vec::new();
        let mut cp: Vec<usize> = Vec::new();
        let mut ir: Vec<Index> = Vec::with_capacity(nnz);
        let mut values: Vec<T> = Vec::with_capacity(nnz);
        // What is left of each run; the next column is the least one heading
        // a run, taken from every run it heads.
        let mut rest: Vec<&[(Index, Index, T)]> = runs.to_vec();
        while let Some(col) = rest.iter().filter_map(|run| run.first()).map(|e| e.1).min() {
            jc.push(col);
            cp.push(ir.len());
            for run in &mut rest {
                let len = run.iter().take_while(|e| e.1 == col).count();
                for (r, c, v) in &run[..len] {
                    debug_assert!(*r < nrows && *c < ncols);
                    debug_assert!(ir.len() == cp[cp.len() - 1] || ir[ir.len() - 1] <= *r);
                    ir.push(*r);
                    values.push(v.clone());
                }
                *run = &run[len..];
            }
        }
        // `cp.len() == jc.len() + 1`, an empty matrix included.
        cp.push(ir.len());
        Dcsc {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            values,
        }
    }
}

impl<T> Dcsc<T> {
    /// A DCSC from its four arrays, laid out as the [module docs](self)
    /// describe — how a fold of pending edits into a partition
    /// ([`crate::overlay::fold_into_matrix`]) hands over what it merged.
    pub(crate) fn from_parts(
        nrows: Index,
        ncols: Index,
        jc: Vec<Index>,
        cp: Vec<usize>,
        ir: Vec<Index>,
        values: Vec<T>,
    ) -> Self {
        debug_assert!(cp.len() == jc.len() + 1 && cp.last() == Some(&ir.len()));
        debug_assert!(ir.len() == values.len() && jc.windows(2).all(|w| w[0] < w[1]));
        Dcsc {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            values,
        }
    }

    /// The four arrays, as [`Dcsc::from_parts`] takes them — what a sweep of
    /// pending edits over the partition reads its column runs from.
    pub(crate) fn parts(&self) -> (&[Index], &[usize], &[Index], &[T]) {
        (&self.jc, &self.cp, &self.ir, &self.values)
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.ir.len()
    }

    /// Number of non-empty columns.
    pub fn n_nonempty_cols(&self) -> usize {
        self.jc.len()
    }

    /// The non-empty column indices, ascending.
    pub fn col_indices(&self) -> &[Index] {
        &self.jc
    }

    /// Iterate over non-empty columns as `(col, row_indices, values)`.
    #[inline]
    pub fn iter_cols(&self) -> impl Iterator<Item = (Index, &[Index], &[T])> + '_ {
        self.jc.iter().enumerate().map(move |(i, &col)| {
            let start = self.cp[i];
            let end = self.cp[i + 1];
            (col, &self.ir[start..end], &self.values[start..end])
        })
    }

    /// The rows and values of the `i`-th non-empty column (by position in
    /// `jc`, not by column id).
    #[inline(always)]
    pub fn nonempty_col(&self, i: usize) -> (Index, &[Index], &[T]) {
        let start = self.cp[i];
        let end = self.cp[i + 1];
        (self.jc[i], &self.ir[start..end], &self.values[start..end])
    }

    /// Look up a column by id (binary search over `jc`), returning its rows
    /// and values if it is non-empty.
    pub fn col(&self, c: Index) -> Option<(&[Index], &[T])> {
        self.jc.binary_search(&c).ok().map(|i| {
            let start = self.cp[i];
            let end = self.cp[i + 1];
            (&self.ir[start..end], &self.values[start..end])
        })
    }

    /// Iterate over all entries as `(row, col, &value)` in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, &T)> + '_ {
        self.iter_cols()
            .flat_map(|(c, rows, vals)| rows.iter().zip(vals).map(move |(r, v)| (*r, c, v)))
    }

    /// Memory footprint of the index structures in bytes (excludes values).
    /// Used by tests to check the hypersparse advantage over CSC.
    pub fn index_bytes(&self) -> usize {
        self.jc.len() * std::mem::size_of::<Index>()
            + self.cp.len() * std::mem::size_of::<usize>()
            + self.ir.len() * std::mem::size_of::<Index>()
    }

    /// Total memory footprint in bytes: indices plus the stored edge values.
    ///
    /// For an unweighted matrix (`T = ()`) the value term is zero, so
    /// `bytes() == index_bytes()` — the zero-cost fast path this crate's
    /// generic edge typing exists for.
    pub fn bytes(&self) -> usize {
        self.index_bytes() + self.values.len() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> Coo<i32> {
        // 5x5, entries (row, col): (0,1) (2,1) (4,1) (1,3) (3,3) (0,4)
        let mut m = Coo::new(5, 5);
        m.push(0, 1, 10);
        m.push(2, 1, 20);
        m.push(4, 1, 30);
        m.push(1, 3, 40);
        m.push(3, 3, 50);
        m.push(0, 4, 60);
        m
    }

    #[test]
    fn from_coo_compresses_columns() {
        let d = Dcsc::from_coo(&sample_coo());
        assert_eq!(d.nnz(), 6);
        assert_eq!(d.n_nonempty_cols(), 3);
        assert_eq!(d.col_indices(), &[1, 3, 4]);
    }

    #[test]
    fn iter_cols_yields_sorted_rows() {
        let d = Dcsc::from_coo(&sample_coo());
        let cols: Vec<(u32, Vec<u32>, Vec<i32>)> = d
            .iter_cols()
            .map(|(c, rows, vals)| (c, rows.to_vec(), vals.to_vec()))
            .collect();
        assert_eq!(cols[0], (1, vec![0, 2, 4], vec![10, 20, 30]));
        assert_eq!(cols[1], (3, vec![1, 3], vec![40, 50]));
        assert_eq!(cols[2], (4, vec![0], vec![60]));
    }

    #[test]
    fn col_lookup() {
        let d = Dcsc::from_coo(&sample_coo());
        assert!(d.col(0).is_none());
        assert!(d.col(2).is_none());
        let (rows, vals) = d.col(3).unwrap();
        assert_eq!(rows, &[1, 3]);
        assert_eq!(vals, &[40, 50]);
    }

    #[test]
    fn iter_matches_coo_entries() {
        let coo = sample_coo();
        let d = Dcsc::from_coo(&coo);
        let mut from_dcsc: Vec<(u32, u32, i32)> = d.iter().map(|(r, c, v)| (r, c, *v)).collect();
        let mut from_coo: Vec<(u32, u32, i32)> =
            coo.entries().iter().map(|&(r, c, v)| (r, c, v)).collect();
        from_dcsc.sort();
        from_coo.sort();
        assert_eq!(from_dcsc, from_coo);
    }

    #[test]
    fn empty_matrix_has_empty_structure() {
        let coo: Coo<i32> = Coo::new(10, 10);
        let d = Dcsc::from_coo(&coo);
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.n_nonempty_cols(), 0);
        assert_eq!(d.iter_cols().count(), 0);
        assert!(d.col(5).is_none());
    }

    #[test]
    fn unweighted_values_cost_zero_bytes() {
        let coo = sample_coo();
        let weighted = Dcsc::from_coo(&coo);
        let unweighted = Dcsc::from_coo(&coo.clone().map(|_| ()));
        assert_eq!(unweighted.nnz(), weighted.nnz());
        assert_eq!(unweighted.bytes(), unweighted.index_bytes());
        assert_eq!(
            weighted.bytes(),
            weighted.index_bytes() + weighted.nnz() * std::mem::size_of::<i32>()
        );
    }

    #[test]
    fn hypersparse_index_is_compact() {
        // one entry in a huge matrix: DCSC index cost must not scale with ncols
        let mut coo: Coo<i32> = Coo::new(1_000_000, 1_000_000);
        coo.push(12, 999_999, 7);
        let d = Dcsc::from_coo(&coo);
        assert_eq!(d.n_nonempty_cols(), 1);
        assert!(d.index_bytes() < 64);
    }
}
