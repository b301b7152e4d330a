//! Coordinate (triplet) format matrix builder.
//!
//! Graphs arrive as edge lists — `(src, dst, value)` triples — and every other
//! format in this crate (CSR, CSC, DCSC) is built by first collecting triples
//! into a [`Coo`] and then sorting/compressing. The builder also hosts the
//! de-duplication and self-loop-removal passes that the paper applies during
//! pre-processing (§5.1).

use crate::{ix, Index};

/// A sparse matrix in coordinate (triplet) form.
///
/// Entries are not required to be sorted or unique until one of the
/// normalising methods ([`Coo::sort`], [`Coo::dedup_by`], …) is called.
#[derive(Clone, Debug, PartialEq)]
pub struct Coo<T> {
    nrows: Index,
    ncols: Index,
    entries: Vec<(Index, Index, T)>,
}

impl<T> Coo<T> {
    /// Create an empty matrix with the given dimensions.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Coo {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Create an empty matrix with capacity for `cap` entries.
    pub fn with_capacity(nrows: Index, ncols: Index, cap: usize) -> Self {
        Coo {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Create a matrix from an existing list of `(row, col, value)` triples.
    ///
    /// # Panics
    /// Panics (in debug builds) if any coordinate is out of range.
    pub fn from_entries(nrows: Index, ncols: Index, entries: Vec<(Index, Index, T)>) -> Self {
        debug_assert!(entries.iter().all(|&(r, c, _)| r < nrows && c < ncols));
        Coo {
            nrows,
            ncols,
            entries,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored entries (including duplicates, if any).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append an entry.
    ///
    /// # Panics
    /// Panics if the coordinates are out of range.
    pub fn push(&mut self, row: Index, col: Index, value: T) {
        assert!(
            row < self.nrows && col < self.ncols,
            "entry ({row},{col}) out of bounds for {}x{} matrix",
            self.nrows,
            self.ncols
        );
        self.entries.push((row, col, value));
    }

    /// Read-only view of the triples.
    pub fn entries(&self) -> &[(Index, Index, T)] {
        &self.entries
    }

    /// Consume the matrix and return its triples.
    pub fn into_entries(self) -> Vec<(Index, Index, T)> {
        self.entries
    }

    /// Sort entries by `(row, col)`.
    pub fn sort(&mut self) {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
    }

    /// Remove diagonal entries (graph self-loops).
    pub fn remove_self_loops(&mut self) {
        self.entries.retain(|&(r, c, _)| r != c);
    }

    /// Sort by `(row, col)` and merge duplicate coordinates with `combine`.
    ///
    /// `combine(existing, new)` returns the merged value; for graphs loaded
    /// from noisy edge lists this is typically "keep first" or "sum weights".
    pub fn dedup_by(&mut self, mut combine: impl FnMut(&T, &T) -> T) {
        self.sort();
        let mut out: Vec<(Index, Index, T)> = Vec::with_capacity(self.entries.len());
        for (r, c, v) in self.entries.drain(..) {
            match out.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => {
                    *lv = combine(lv, &v);
                }
                _ => out.push((r, c, v)),
            }
        }
        self.entries = out;
    }

    /// Transpose in place (swap rows and columns).
    pub fn transpose(&mut self) {
        std::mem::swap(&mut self.nrows, &mut self.ncols);
        for e in &mut self.entries {
            std::mem::swap(&mut e.0, &mut e.1);
        }
    }

    /// Map the values, keeping the structure.
    pub fn map<U>(self, mut f: impl FnMut(&T) -> U) -> Coo<U> {
        Coo {
            nrows: self.nrows,
            ncols: self.ncols,
            entries: self
                .entries
                .into_iter()
                .map(|(r, c, v)| (r, c, f(&v)))
                .collect(),
        }
    }

    /// Per-row number of entries. Used by the nnz-balancing partitioner.
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; ix(self.nrows)];
        for &(r, _, _) in &self.entries {
            counts[ix(r)] += 1;
        }
        counts
    }
}

impl<T: Clone> Coo<T> {
    /// Return a symmetrized copy: for every entry `(r, c, v)` with `r != c`,
    /// ensure `(c, r, v)` is also present. Duplicates are merged keeping the
    /// first value. This is the paper's BFS/TC pre-processing step
    /// ("replicate edges to obtain a symmetric graph", §5.1).
    pub fn symmetrized(&self) -> Coo<T> {
        let mut entries = Vec::with_capacity(self.entries.len() * 2);
        for (r, c, v) in &self.entries {
            entries.push((*r, *c, v.clone()));
            if r != c {
                entries.push((*c, *r, v.clone()));
            }
        }
        let mut out = Coo {
            nrows: self.nrows.max(self.ncols),
            ncols: self.nrows.max(self.ncols),
            entries,
        };
        out.dedup_by(|a, _| a.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo<f32> {
        let mut m = Coo::new(4, 4);
        m.push(0, 1, 1.0);
        m.push(1, 2, 2.0);
        m.push(2, 0, 3.0);
        m.push(2, 2, 4.0); // self loop
        m.push(0, 1, 5.0); // duplicate
        m
    }

    #[test]
    fn push_and_counts() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 4);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic]
    fn push_out_of_bounds_panics() {
        let mut m: Coo<f32> = Coo::new(2, 2);
        m.push(2, 0, 1.0);
    }

    #[test]
    fn remove_self_loops_drops_diagonal() {
        let mut m = sample();
        m.remove_self_loops();
        assert_eq!(m.nnz(), 4);
        assert!(m.entries().iter().all(|&(r, c, _)| r != c));
    }

    #[test]
    fn dedup_merges_duplicates() {
        let mut m = sample();
        m.dedup_by(|a, b| a + b);
        assert_eq!(m.nnz(), 4);
        let merged = m
            .entries()
            .iter()
            .find(|&&(r, c, _)| r == 0 && c == 1)
            .unwrap();
        assert_eq!(merged.2, 6.0);
    }

    #[test]
    fn dedup_keep_first() {
        let mut m = sample();
        m.dedup_by(|a, _| *a);
        let merged = m
            .entries()
            .iter()
            .find(|&&(r, c, _)| r == 0 && c == 1)
            .unwrap();
        assert_eq!(merged.2, 1.0);
    }

    #[test]
    fn sort_orders_row_major() {
        let mut m = sample();
        m.sort();
        let coords: Vec<(u32, u32)> = m.entries().iter().map(|&(r, c, _)| (r, c)).collect();
        let mut sorted = coords.clone();
        sorted.sort();
        assert_eq!(coords, sorted);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut m = sample();
        m.transpose();
        assert!(m.entries().iter().any(|&(r, c, _)| r == 1 && c == 0));
        assert_eq!(m.nrows(), 4);
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let m = sample();
        let s = m.symmetrized();
        // (0,1) implies (1,0)
        assert!(s.entries().iter().any(|&(r, c, _)| r == 1 && c == 0));
        // no duplicate coordinates
        let mut coords: Vec<(u32, u32)> = s.entries().iter().map(|&(r, c, _)| (r, c)).collect();
        let before = coords.len();
        coords.sort();
        coords.dedup();
        assert_eq!(before, coords.len());
    }

    #[test]
    fn row_counts_counts_entries() {
        let m = sample();
        let counts = m.row_counts();
        assert_eq!(counts, vec![2, 1, 2, 0]);
    }

    #[test]
    fn map_preserves_structure() {
        let m = sample().map(|v| *v as i64);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.entries()[0].2, 1i64);
    }
}
