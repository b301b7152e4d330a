//! Sparse matrix – sparse matrix multiplication (SpGEMM).
//!
//! GraphMat itself never multiplies two matrices — that is the point of its
//! triangle-counting formulation (§4.2). The kernel exists here because the
//! *CombBLAS-style baseline* has no access to destination-vertex state during
//! message processing and therefore has to count triangles the pure-matrix
//! way, `sum((A·A) .* A)`, which the paper reports as 36× slower and
//! memory-hungry (Figure 4c). Implementing the kernel lets the benchmark
//! harness reproduce that blow-up honestly.
//!
//! Both a plain and a *masked* SpGEMM are provided. The masked variant only
//! materialises output entries present in the mask, which is how a competent
//! matrix framework would implement the triangle count; the plain variant is
//! what a naive one does (and what overflows memory on large graphs).

use crate::semiring::Semiring;
use graphmat_sparse::coo::Coo;
use graphmat_sparse::csr::Csr;
use graphmat_sparse::{ix, Index};

/// Plain SpGEMM: `C = A ⊗ B` over the given semiring, with `A: m×k`, `B: k×n`.
///
/// `A` holds the semiring's input (`X`) elements and `B` its matrix (`E`)
/// elements, so `multiply(a_ik, b_kj)` type-checks directly.
///
/// Uses Gustavson's algorithm with a dense accumulator per output row.
///
/// # Panics
/// Panics if the inner dimensions do not agree.
pub fn spgemm<S>(a: &Csr<S::X>, b: &Csr<S::E>, semiring: &S) -> Csr<S::Y>
where
    S: Semiring,
    S::X: Clone,
    S::E: Clone,
    S::Y: Clone + PartialEq,
{
    assert_eq!(a.ncols(), b.nrows(), "SpGEMM inner dimension mismatch");
    let m = a.nrows();
    let n = b.ncols();
    let mut out = Coo::with_capacity(m, n, a.nnz());

    // Dense sparse-accumulator (SPA) reused across rows.
    let mut acc: Vec<Option<S::Y>> = vec![None; ix(n)];
    let mut touched: Vec<Index> = Vec::new();

    for i in 0..m {
        let (a_cols, a_vals) = a.row(i);
        for (kk, av) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(*kk);
            for (j, bv) in b_cols.iter().zip(b_vals) {
                let product = semiring.multiply(av, bv);
                match &mut acc[ix(*j)] {
                    Some(existing) => semiring.add(existing, product),
                    slot @ None => {
                        *slot = Some(product);
                        touched.push(*j);
                    }
                }
            }
        }
        touched.sort_unstable();
        for j in touched.drain(..) {
            if let Some(v) = acc[ix(j)].take() {
                out.push(i, j, v);
            }
        }
    }
    Csr::from_coo(&out)
}

/// Masked SpGEMM: compute only the entries of `A ⊗ B` whose coordinates are
/// present in `mask`, returning them as a COO. This is the
/// `C = (A·B) .* mask` pattern used by matrix-style triangle counting.
pub fn spgemm_masked<S, M>(a: &Csr<S::X>, b: &Csr<S::E>, mask: &Csr<M>, semiring: &S) -> Coo<S::Y>
where
    S: Semiring,
    S::X: Clone,
    S::E: Clone,
    S::Y: Clone,
{
    assert_eq!(a.ncols(), b.nrows(), "SpGEMM inner dimension mismatch");
    assert_eq!(mask.nrows(), a.nrows(), "mask row mismatch");
    assert_eq!(mask.ncols(), b.ncols(), "mask column mismatch");
    let m = a.nrows();
    let mut out = Coo::with_capacity(m, b.ncols(), mask.nnz());

    for i in 0..m {
        let (mask_cols, _) = mask.row(i);
        if mask_cols.is_empty() {
            continue;
        }
        let (a_cols, a_vals) = a.row(i);
        // accumulate only at masked positions: for each masked j, compute
        // dot(A[i,:], B[:,j]) by merging the sorted row of A with rows of B.
        for &j in mask_cols {
            let mut acc: Option<S::Y> = None;
            for (kk, av) in a_cols.iter().zip(a_vals) {
                if let Some(bv) = b.get(*kk, j) {
                    let product = semiring.multiply(av, bv);
                    match &mut acc {
                        Some(existing) => semiring.add(existing, product),
                        slot @ None => *slot = Some(product),
                    }
                }
            }
            if let Some(v) = acc {
                out.push(i, j, v);
            }
        }
    }
    out
}

/// Sum all values of a COO result (used to total triangle counts).
pub fn sum_values<T, Acc>(coo: &Coo<T>, init: Acc, mut fold: impl FnMut(Acc, &T) -> Acc) -> Acc {
    coo.entries()
        .iter()
        .fold(init, |acc, (_, _, v)| fold(acc, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;

    fn csr_from(entries: &[(u32, u32, f64)], n: u32) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for &(r, c, v) in entries {
            coo.push(r, c, v);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn spgemm_matches_dense_multiplication() {
        let a = csr_from(&[(0, 0, 1.0), (0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)], 3);
        let b = csr_from(&[(0, 1, 5.0), (1, 2, 6.0), (2, 0, 7.0)], 3);
        let c = spgemm(&a, &b, &PlusTimes);
        let ad = a.to_dense();
        let bd = b.to_dense();
        let cd = c.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                let expect: f64 = (0..3).map(|k| ad[i][k] * bd[k][j]).sum();
                assert!((cd[i][j] - expect).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn spgemm_identity() {
        let a = csr_from(&[(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)], 3);
        let id = csr_from(&[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)], 3);
        let c = spgemm(&a, &id, &PlusTimes);
        assert_eq!(c.to_dense(), a.to_dense());
    }

    #[test]
    #[should_panic]
    fn spgemm_dimension_mismatch_panics() {
        let a = csr_from(&[(0, 0, 1.0)], 2);
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        let b = Csr::from_coo(&coo);
        let _ = spgemm(&a, &b, &PlusTimes);
    }

    #[test]
    fn masked_spgemm_counts_triangles() {
        // Undirected triangle 0-1-2 plus a pendant edge 2-3, as an upper
        // triangular (DAG) adjacency matrix with unit weights.
        let adj = csr_from(&[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)], 4);
        // triangles = sum((A·A) .* A)
        let masked = spgemm_masked(&adj, &adj, &adj, &PlusTimes);
        let total = sum_values(&masked, 0.0, |acc, v| acc + v);
        assert_eq!(total, 1.0);
    }

    #[test]
    fn masked_spgemm_two_triangles() {
        // triangles: (0,1,2) and (1,2,3)
        let adj = csr_from(
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
            ],
            4,
        );
        let masked = spgemm_masked(&adj, &adj, &adj, &PlusTimes);
        let total = sum_values(&masked, 0.0, |acc, v| acc + v);
        assert_eq!(total, 2.0);
    }

    #[test]
    fn masked_spgemm_subset_of_plain() {
        let a = csr_from(&[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 0, 1.0)], 3);
        let plain = spgemm(&a, &a, &PlusTimes);
        let masked = spgemm_masked(&a, &a, &a, &PlusTimes);
        for (r, c, v) in masked.entries() {
            assert_eq!(plain.get(*r, *c), Some(v), "({r},{c})");
        }
        assert!(masked.nnz() <= plain.nnz());
    }

    #[test]
    fn spgemm_empty_matrices() {
        let a: Csr<f64> = Csr::from_coo(&Coo::new(3, 3));
        let c = spgemm(&a, &a, &PlusTimes);
        assert_eq!(c.nnz(), 0);
        let masked = spgemm_masked(&a, &a, &a, &PlusTimes);
        assert_eq!(masked.nnz(), 0);
    }
}
