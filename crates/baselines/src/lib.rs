//! Comparator engines for the GraphMat evaluation.
//!
//! The paper compares GraphMat against three frameworks and hand-optimized
//! native code (§5.1). None of those C++ systems can be bundled here, so each
//! is re-implemented as a small Rust engine that preserves the *architectural
//! property the paper identifies as the cause of its performance*:
//!
//! | Module | Stands in for | Preserved property |
//! |--------|---------------|--------------------|
//! | [`native`] | the hand-optimized code of Satish et al. \[27\] | direct CSR loops, no framework abstraction — the Table 3 upper bound |
//! | [`comb`] | CombBLAS v1.3 | pure-semiring message processing with **no destination-vertex access**, per-"process" message buffer copies; triangle counting must use masked SpGEMM, collaborative filtering needs an extra gather pass |
//! | [`vertexpull`] | GraphLab v2.2 | per-vertex gather–apply–scatter over adjacency lists with per-edge dynamic dispatch and per-vertex scheduler bookkeeping — many more instructions per edge |
//! | [`worklist`] | Galois v2.2.0 | asynchronous worklist execution with atomic per-vertex updates — fewer instructions on SSSP/BFS (reads fresh state mid-round), no benefit on PageRank/CF |
//!
//! Every entry point returns a [`BaselineRun`]: the algorithm result, the
//! wall-clock time, and abstract cost counters in the units the engine's
//! own runs report.

pub mod comb;
pub mod native;
mod semiring;
mod spmm;
pub mod vertexpull;
pub mod worklist;

use graphmat_perf::CostCounters;
use std::time::Duration;

/// The result of running one algorithm under one baseline engine.
#[derive(Clone, Debug)]
pub struct BaselineRun<T> {
    /// Per-vertex result values (semantics depend on the algorithm).
    pub values: Vec<T>,
    /// Wall-clock time of the algorithm proper (graph loading excluded, as in
    /// the paper's methodology, §5.2.1).
    pub elapsed: Duration,
    /// Abstract operation counts.
    pub counters: CostCounters,
    /// Number of iterations / rounds executed (1 for non-iterative runs).
    pub iterations: usize,
}

/// Identifier for the frameworks compared in the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Framework {
    /// This repository's GraphMat implementation.
    GraphMat,
    /// GraphLab-style gather–apply–scatter engine.
    GraphLabLike,
    /// CombBLAS-style pure-semiring matrix engine.
    CombBlasLike,
    /// Galois-style asynchronous worklist engine.
    GaloisLike,
    /// Hand-optimized native code.
    Native,
}

impl Framework {
    /// Display name used in benchmark tables (mirrors the paper's legends).
    pub fn name(&self) -> &'static str {
        match self {
            Framework::GraphMat => "GraphMat",
            Framework::GraphLabLike => "GraphLab*",
            Framework::CombBlasLike => "CombBLAS*",
            Framework::GaloisLike => "Galois*",
            Framework::Native => "Native",
        }
    }

    /// The frameworks that appear in Figure 4 (everything except native).
    pub fn figure4() -> &'static [Framework] {
        &[
            Framework::GraphLabLike,
            Framework::CombBlasLike,
            Framework::GaloisLike,
            Framework::GraphMat,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framework_names_are_distinct() {
        let names: Vec<&str> = [
            Framework::GraphMat,
            Framework::GraphLabLike,
            Framework::CombBlasLike,
            Framework::GaloisLike,
            Framework::Native,
        ]
        .iter()
        .map(|f| f.name())
        .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn figure4_has_four_frameworks() {
        assert_eq!(Framework::figure4().len(), 4);
        assert!(Framework::figure4().contains(&Framework::GraphMat));
        assert!(!Framework::figure4().contains(&Framework::Native));
    }
}
