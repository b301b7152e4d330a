//! Benchmark harness regenerating every table and figure of the GraphMat
//! paper.
//!
//! The [`harness`] module contains the shared machinery: running one
//! algorithm under one framework ([`harness::run_graph_algorithm`]), collecting
//! wall time and cost counters, and formatting the paper's tables. The
//! `figures` binary (`cargo run -p graphmat-bench --bin figures --release`)
//! drives it to print text versions of Table 1–3 and Figures 4, 5 and 7;
//! the one Criterion bench under `benches/` (`spmv_kernels`) times the SpMV
//! kernels themselves. The [`ablation`] module holds the two losing
//! alternatives of the paper's ablations that the engine itself no longer
//! carries (sorted-tuple message vectors, not-inlined callbacks).

pub mod ablation;
pub mod harness;
