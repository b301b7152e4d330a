//! Compressed Sparse Row (and Column) matrices.
//!
//! CSR is the format the paper's *native, hand-optimized* baselines use
//! (§5.2.2): a row-pointer array, a column-index array and a value array.
//! It is also the substrate for the SpGEMM kernel of the CombBLAS-style
//! baseline (`graphmat-baselines`).
//!
//! A CSC matrix is simply the CSR of the transpose, so a single type serves
//! both.

use crate::coo::Coo;
use crate::{ix, Index};

/// An immutable sparse matrix in Compressed Sparse Row format.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T> {
    nrows: Index,
    ncols: Index,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<T>,
}

impl<T: Clone> Csr<T> {
    /// Build from a COO matrix. Duplicate coordinates are kept as separate
    /// entries; call [`Coo::dedup_by`] first if that is not wanted.
    pub fn from_coo(coo: &Coo<T>) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let nnz = coo.nnz();
        let mut row_counts = vec![0usize; ix(nrows) + 1];
        for &(r, _, _) in coo.entries() {
            row_counts[ix(r) + 1] += 1;
        }
        for i in 1..row_counts.len() {
            row_counts[i] += row_counts[i - 1];
        }
        let row_ptr = row_counts.clone();
        let mut next = row_counts;
        let mut col_idx = vec![0 as Index; nnz];
        let mut values: Vec<Option<T>> = vec![None; nnz];
        for (r, c, v) in coo.entries() {
            let slot = next[ix(*r)];
            col_idx[slot] = *c;
            values[slot] = Some(v.clone());
            next[ix(*r)] += 1;
        }
        let mut csr = Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values: values
                .into_iter()
                // audit:allow(no-unwrap): counting-sort invariant — every
                // slot between the row pointers was filled by the scatter
                // loop above.
                .map(|v| v.expect("slot filled"))
                .collect(),
        };
        csr.sort_rows();
        csr
    }

    /// Sort the column indices (and values) within each row.
    fn sort_rows(&mut self) {
        for r in 0..ix(self.nrows) {
            let start = self.row_ptr[r];
            let end = self.row_ptr[r + 1];
            // extract, sort, write back — rows are short so this is cheap
            let mut entries: Vec<(Index, T)> = self.col_idx[start..end]
                .iter()
                .copied()
                .zip(self.values[start..end].iter().cloned())
                .collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            for (i, (c, v)) in entries.into_iter().enumerate() {
                self.col_idx[start + i] = c;
                self.values[start + i] = v;
            }
        }
    }
}

impl<T> Csr<T> {
    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The column indices and values of row `r`.
    #[inline(always)]
    pub fn row(&self, r: Index) -> (&[Index], &[T]) {
        let start = self.row_ptr[ix(r)];
        let end = self.row_ptr[ix(r) + 1];
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// Number of entries in row `r` (the out-degree when rows are sources).
    #[inline(always)]
    pub fn row_nnz(&self, r: Index) -> usize {
        self.row_ptr[ix(r) + 1] - self.row_ptr[ix(r)]
    }

    /// Out-degree of every row as a vector.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.nrows).map(|r| self.row_nnz(r)).collect()
    }

    /// Raw row-pointer array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column-index array.
    pub fn col_idx(&self) -> &[Index] {
        &self.col_idx
    }

    /// Raw value array.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterate over all entries as `(row, col, &value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, &T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(c, v)| (r, *c, v))
        })
    }

    /// `true` if entry `(r, c)` is present (binary search within the row).
    pub fn contains(&self, r: Index, c: Index) -> bool {
        let (cols, _) = self.row(r);
        cols.binary_search(&c).is_ok()
    }

    /// Get a reference to the value at `(r, c)` if present.
    pub fn get(&self, r: Index, c: Index) -> Option<&T> {
        let start = self.row_ptr[ix(r)];
        let (cols, _) = self.row(r);
        cols.binary_search(&c)
            .ok()
            .map(|offset| &self.values[start + offset])
    }
}

impl<T: Clone + Default + PartialEq> Csr<T> {
    /// Expand to a dense row-major matrix. Only intended for tests and tiny
    /// reference computations.
    pub fn to_dense(&self) -> Vec<Vec<T>> {
        let mut dense = vec![vec![T::default(); ix(self.ncols)]; ix(self.nrows)];
        for (r, c, v) in self.iter() {
            dense[ix(r)][ix(c)] = v.clone();
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> Coo<f64> {
        //     0    1    2    3
        // 0 [ .   1.0  .   2.0 ]
        // 1 [ 3.0  .   .    .  ]
        // 2 [ .   4.0 5.0   .  ]
        // 3 [ .    .   .    .  ]
        let mut m = Coo::new(4, 4);
        m.push(0, 3, 2.0);
        m.push(0, 1, 1.0);
        m.push(1, 0, 3.0);
        m.push(2, 2, 5.0);
        m.push(2, 1, 4.0);
        m
    }

    #[test]
    fn from_coo_builds_sorted_rows() {
        let csr = Csr::from_coo(&sample_coo());
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.row(0), (&[1u32, 3][..], &[1.0, 2.0][..]));
        assert_eq!(csr.row(1), (&[0u32][..], &[3.0][..]));
        assert_eq!(csr.row(2), (&[1u32, 2][..], &[4.0, 5.0][..]));
        assert_eq!(csr.row(3).0.len(), 0);
    }

    #[test]
    fn row_nnz_and_degrees() {
        let csr = Csr::from_coo(&sample_coo());
        assert_eq!(csr.row_nnz(0), 2);
        assert_eq!(csr.row_nnz(3), 0);
        assert_eq!(csr.degrees(), vec![2, 1, 2, 0]);
    }

    #[test]
    fn contains_and_get() {
        let csr = Csr::from_coo(&sample_coo());
        assert!(csr.contains(0, 1));
        assert!(!csr.contains(0, 0));
        assert_eq!(csr.get(2, 2), Some(&5.0));
        assert_eq!(csr.get(3, 3), None);
    }

    #[test]
    fn iter_visits_all_entries() {
        let csr = Csr::from_coo(&sample_coo());
        let entries: Vec<(u32, u32, f64)> = csr.iter().map(|(r, c, v)| (r, c, *v)).collect();
        assert_eq!(entries.len(), 5);
        assert!(entries.contains(&(2, 1, 4.0)));
    }

    #[test]
    fn to_dense_matches() {
        let csr = Csr::from_coo(&sample_coo());
        let d = csr.to_dense();
        assert_eq!(d[0][1], 1.0);
        assert_eq!(d[0][3], 2.0);
        assert_eq!(d[1][0], 3.0);
        assert_eq!(d[3][3], 0.0);
    }

    #[test]
    fn empty_matrix() {
        let coo: Coo<f64> = Coo::new(3, 3);
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.nnz(), 0);
        for r in 0..3 {
            assert_eq!(csr.row_nnz(r), 0);
        }
    }
}
