//! Benchmark harness regenerating every table and figure of the GraphMat
//! paper.
//!
//! The [`harness`] module contains the shared machinery: running one
//! algorithm under one framework ([`harness::run_graph_algorithm`]), collecting
//! wall time and cost counters, and formatting the paper's tables. The
//! `figures` binary (`cargo run -p graphmat-bench --bin figures --release`)
//! drives it to print text versions of Table 1–3 and Figures 4, 5 and 7,
//! and — `--kernels`, from [`harness::kernel_rows`] — the SpMV kernels timed
//! directly at the harness scale. The [`ablation`] module holds the one
//! losing alternative of the paper's ablations that can be rebuilt without a
//! seam in the engine (not-inlined callbacks).

pub mod ablation;
pub mod harness;
