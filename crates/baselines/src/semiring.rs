//! Generalized multiply/add pairs (semirings).
//!
//! The paper frames graph traversal as SpMV over a semiring (§2, §4.2):
//! "overloading the multiply and add operations of a SPMV can produce
//! different graph algorithms". A [`Semiring`] bundles the two user-defined
//! operations — `multiply` plays the role of `PROCESS_MESSAGE` restricted to
//! (message, edge) inputs, and `add` plays the role of `REDUCE`.
//!
//! The full GraphMat engine in `graphmat-core` uses a richer signature (the
//! destination vertex's property is also an input to `process_message`,
//! which is GraphMat's productivity advantage over CombBLAS), but the plain
//! semiring form is what the SpGEMM kernel in [`crate::spmm`] and the
//! CombBLAS-style baseline ([`crate::comb`]) use.

/// A generalized (multiply, add) pair over message type `X`, edge type `E`
/// and accumulator type `Y`.
pub trait Semiring: Sync {
    /// Input (message) element type.
    type X;
    /// Matrix (edge) element type.
    type E;
    /// Output (accumulator) element type.
    type Y;

    /// The generalized multiplication: combine an input-vector element with a
    /// matrix element.
    fn multiply(&self, x: &Self::X, e: &Self::E) -> Self::Y;

    /// The generalized addition: fold `value` into the accumulator.
    fn add(&self, acc: &mut Self::Y, value: Self::Y);
}

/// Ordinary arithmetic `(+, ×)` over `f64` — linear-algebra SpMV, PageRank.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusTimes;

impl Semiring for PlusTimes {
    type X = f64;
    type E = f64;
    type Y = f64;

    #[inline(always)]
    fn multiply(&self, x: &f64, e: &f64) -> f64 {
        x * e
    }

    #[inline(always)]
    fn add(&self, acc: &mut f64, value: f64) {
        *acc += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_is_arithmetic() {
        let s = PlusTimes;
        assert_eq!(s.multiply(&3.0, &4.0), 12.0);
        let mut acc = 1.0;
        s.add(&mut acc, 2.5);
        assert_eq!(acc, 3.5);
    }
}
