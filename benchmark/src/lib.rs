//! The repo benchmark: six workloads that leave the L2, end-to-end metrics
//! for each, and per-crate layer metrics measured from outside. See
//! `README.md` for what every number means and `table.rs` for the list.

pub mod adapter;
pub mod cli;
pub mod input;
pub mod json;
pub mod probes;
pub mod reference;
pub mod stats;
pub mod table;
pub mod trace;
pub mod workloads;
