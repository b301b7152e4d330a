//! Abstract cost counters every engine in the workspace reports into.
//!
//! The paper explains *why* GraphMat beats the other frameworks with Intel
//! PMU counters (Figure 6). Those counters are not portable, so each engine
//! here counts, in the same units:
//!
//! * **work operations** — per-edge and per-vertex useful work
//!   ([`CostCounters::edge_ops`], [`CostCounters::vertex_ops`]);
//! * **overhead operations** — framework bookkeeping that does not advance
//!   the algorithm (copies, queue management, virtual dispatch, MPI-style
//!   buffer packing in the CombBLAS-like baseline);
//! * **bytes touched** — an estimate of memory traffic.
//!
//! The counts are what remains of a larger cost model: the proxies once
//! derived from them (instruction, stall, bandwidth and IPC estimates, and
//! the Figure 6 table built on those) were deleted after the repository's
//! benchmark measured the byte estimate at 0.69×, 0.095× and 0.024× of the
//! bytes a run's time accounts for on its three in-process workloads
//! (`perf.model.pred_ratio`) — a model that far off explains nothing.

pub mod counters;

pub use counters::CostCounters;
