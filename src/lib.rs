//! # GraphMat-RS
//!
//! A Rust reproduction of *GraphMat: High performance graph analytics made
//! productive* (Sundaram et al., VLDB 2015).
//!
//! GraphMat exposes a **vertex-programming** frontend — you write
//! `send_message` / `process_message` / `reduce` / `apply` callbacks — and
//! executes it as **generalized sparse matrix–sparse vector multiplication**
//! over the transposed adjacency matrix, stored in DCSC format and processed
//! by a partition-parallel backend.
//!
//! ## The session API: one resident graph, many concurrent queries
//!
//! The public API is organised around the separation that makes a serving
//! architecture possible (build the matrix once, answer many queries):
//!
//! * [`core::session::Session`] — owns one persistent worker pool and the
//!   fluent builders; `Sync`, so share it across threads;
//! * [`core::topology::Topology`]`<E>` — the immutable matrices + degrees,
//!   wrapped in an `Arc` and shared by every run without cloning;
//! * [`core::state::VertexState`]`<V>` — the per-run mutable half
//!   (properties + active set), fresh per query or pooled across runs.
//!
//! ```
//! use graphmat::prelude::*;
//!
//! let session = Session::with_defaults()?;
//! let edges = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 1.0)]);
//! // Build once; Arc<Topology> is shared by every run that follows.
//! let topo = session.build_graph(&edges).finish()?;
//!
//! // Packaged algorithms take &Session + a graph view (&Topology,
//! // &Arc<Topology> or a store snapshot's view)…
//! let ranks = pagerank_on(&session, &topo, &PageRankConfig::default())?;
//! assert!(ranks.values[2] > ranks.values[0]);
//! let sssp = sssp_on(&session, &topo, 0)?;
//! assert_eq!(sssp.values[1], 1.0);
//!
//! // …and hand-written programs go through the run builder
//! // (`session.run(&topo, program).seed_with(..).execute()?`, see
//! // `examples/quickstart.rs`).
//! # Ok::<(), GraphMatError>(())
//! ```
//!
//! Runs issued from different threads against the same `Arc<Topology>`
//! through one `Session` execute concurrently — the matrix is never cloned,
//! and every fallible path (bad vertex id, empty edge list, zero threads)
//! returns a typed [`core::error::GraphMatError`]. The topology stores one
//! orientation, `Gᵀ`; the first program that scatters along in-edges
//! (`EdgeDirection::In`/`Both`) derives `G` from it, once, for every later
//! run.
//!
//! ## The run surface
//!
//! There is one engine path, at three altitudes: the packaged drivers
//! `x_on(session, view, cfg)` (fresh state, returns the values) and
//! `x_into(session, view, …, deadline, &mut state)` (pooled state, the
//! serving hot path) in [`algorithms`]; the run builder
//! [`core::session::Session::run`] for any vertex program; and
//! [`core::runner::run_program`] underneath both. Every one of them takes a
//! `&Topology`: a `&Arc<Topology>` coerces to it, and a
//! [`core::store::GraphStore`] snapshot's `view()` is one, whose pending
//! edits are folded into its layouts on first use. See [`core`] for the
//! table.
//!
//! ## Direction optimization (PR-4)
//!
//! Runs are **direction-optimized** by default: each superstep executes
//! either the paper's sparse *push* SpMV (column-wise over the DCSC) or the
//! dense *pull* SpMV (row-parallel over a CSR mirror) over the same
//! bit-vector-backed message vector, chosen by comparing the two kernels'
//! costs — pull, which streams every stored edge of the rows the program
//! still `receives` on (every row by default; BFS turns reached vertices
//! away), when the frontier's out-edges exceed half of what it would gather.
//! Results are bit-for-bit identical across backends; the per-superstep
//! choice is recorded in `SuperstepStats::backend`. Pin a backend with
//! `.backend(Backend::Push | Backend::Pull)` on the run builder. The
//! mirrors' ~2× matrix memory is paid by the first pull along a side, which
//! derives its mirror from the push matrix: a graph that is only pushed
//! never holds one.
//!
//! ## Edge-type genericity (PR-1)
//!
//! Like the original C++ (which templatizes the edge type alongside the
//! three vertex-program types), the whole stack is **generic over the edge
//! value type**: a vertex program declares
//! [`core::program::GraphProgram::Edge`], topologies are `Topology<E>` and
//! edge lists are `EdgeList<E>` (`f32` by default). `Edge = ()` is the
//! **zero-cost unweighted fast path**: `Vec<()>` stores nothing, so the
//! DCSC matrices carry no edge value bytes at all — 4 bytes/edge less
//! memory traffic for a bandwidth-bound SpMV. BFS, connected components,
//! degree and triangle counting all accept `EdgeList<()>` (build one with
//! `EdgeList::from_pairs` or strip weights with `EdgeList::topology()`).
//! See [`core::program`] for the PR-1 migration guide from the
//! hardcoded-`f32` API.
//!
//! ## Serving (PR-6)
//!
//! The [`server`] crate turns the session architecture into a long-running
//! query server: `graphmat-serve` loads one graph at startup and answers
//! length-prefix-framed TCP requests (PageRank / BFS / SSSP / components /
//! degrees) from a worker pool with a bounded admission queue, per-request
//! deadlines, pooled per-worker `VertexState`s (steady-state serving
//! allocates nothing per query) and a `STATS` observability endpoint;
//! `loadgen` drives it (closed loop) and, with `--json`, writes its report
//! of counts, QPS and latency quantiles — a tool for localizing a change the
//! repo benchmark has flagged, not a recorded series. See the README's
//! *Serving* section.
//!
//! This umbrella crate re-exports the whole workspace so that examples,
//! integration tests and downstream users can depend on a single crate.

pub use graphmat_algorithms as algorithms;
pub use graphmat_baselines as baselines;
pub use graphmat_core as core;
pub use graphmat_delta as delta;
pub use graphmat_io as io;
pub use graphmat_perf as perf;
pub use graphmat_server as server;
pub use graphmat_sparse as sparse;

/// Commonly used types for writing and running vertex programs.
pub mod prelude {
    pub use graphmat_algorithms::bfs::bfs_on;
    pub use graphmat_algorithms::collaborative_filtering::{
        collaborative_filtering_on, rmse, CfConfig,
    };
    pub use graphmat_algorithms::connected_components::{component_count, connected_components_on};
    pub use graphmat_algorithms::degree::{in_degrees_on, out_degrees_on};
    pub use graphmat_algorithms::delta_pagerank::{
        delta_pagerank_into, delta_pagerank_on, DeltaPageRankConfig, StreamingPageRank,
    };
    pub use graphmat_algorithms::pagerank::{pagerank_on, PageRankConfig};
    pub use graphmat_algorithms::sssp::sssp_on;
    pub use graphmat_algorithms::triangle_count::{total_triangles, triangle_count_on};
    pub use graphmat_algorithms::AlgorithmOutput;
    pub use graphmat_core::{
        run_program, ActivityPolicy, Backend, EdgeDirection, GraphBuildOptions, GraphMatError,
        GraphProgram, GraphSnapshot, GraphStore, RunOptions, RunOutcome, RunResult, RunStats,
        Session, SessionOptions, StoreOptions, StoreStats, SuperstepStats, Topology, VertexId,
        VertexState,
    };
    pub use graphmat_delta::{DeltaBatch, DeltaError, UpdateOp};
    pub use graphmat_io::bipartite::BipartiteConfig;
    pub use graphmat_io::edgelist::{EdgeList, EdgeWeight};
    pub use graphmat_io::grid::GridConfig;
    pub use graphmat_io::rmat::RmatConfig;
    pub use graphmat_sparse::spvec::SparseVector;
}
