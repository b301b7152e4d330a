//! GraphMat core: the vertex-programming frontend executed as generalized
//! sparse matrix–sparse vector multiplication.
//!
//! This crate is the paper's primary contribution. Users describe a graph
//! algorithm as a [`program::GraphProgram`] — the familiar
//! `SEND_MESSAGE` / `PROCESS_MESSAGE` / `REDUCE` / `APPLY` vertex-programming
//! callbacks (§4.1) — and the runner executes it as a sequence of
//! bulk-synchronous supersteps, each of which is one generalized SpMV over
//! the DCSC-partitioned transposed adjacency matrix (Algorithms 1 and 2 of
//! the paper).
//!
//! # The three-layer API
//!
//! GraphMat's productivity claim is a frontend over a **fixed** sparse
//! matrix: build the matrix once, run many vertex programs against it. The
//! API is organised around exactly that split:
//!
//! 1. [`topology::Topology<E>`] — the immutable build product: partitioned
//!    DCSC out/in matrices, degree arrays. `Sync`, cheap to wrap in an
//!    `Arc`, queryable from many threads at once, never mutated by a run.
//! 2. [`state::VertexState<V>`] — the mutable per-run half: vertex
//!    properties plus the active bit vector (and a cached engine
//!    workspace). Created fresh per query, or pooled and reused across
//!    runs.
//! 3. [`session::Session`] — the owning handle: one persistent
//!    [`Executor`](graphmat_sparse::parallel::Executor) pool plus fluent
//!    builders for topologies ([`session::Session::build_graph`]) and runs
//!    ([`session::Session::run`]). Fallible paths return
//!    [`error::GraphMatError`] instead of panicking.
//!
//! ```
//! use graphmat_core::session::Session;
//! # use graphmat_core::program::{GraphProgram, VertexId};
//! # use graphmat_io::edgelist::EdgeList;
//! # struct Sssp;
//! # impl GraphProgram for Sssp {
//! #     type VertexProp = f32; type Message = f32; type Reduced = f32; type Edge = f32;
//! #     fn send_message(&self, _v: VertexId, d: &f32) -> Option<f32> { Some(*d) }
//! #     fn process_message(&self, m: &f32, e: &f32, _d: &f32) -> f32 { m + e }
//! #     fn reduce(&self, acc: &mut f32, v: f32) { if v < *acc { *acc = v; } }
//! #     fn apply(&self, r: &f32, d: &mut f32) { if *r < *d { *d = *r; } }
//! # }
//!
//! let session = Session::with_defaults()?;
//! # let edges = EdgeList::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
//! let topology = session.build_graph(&edges).partitions(16).finish()?;
//! let outcome = session
//!     .run(&topology, Sssp)
//!     .init_all(f32::MAX)
//!     .seed_with(0, 0.0)
//!     .max_iterations(50)
//!     .execute()?;
//! assert!(outcome.converged);
//! # Ok::<(), graphmat_core::error::GraphMatError>(())
//! ```
//!
//! Because the topology is shared by reference, N threads can run N
//! different programs against one graph **concurrently** through one
//! session — the matrix is never cloned. That separation is what a serving
//! frontend (many independent queries over one resident graph) needs.
//!
//! # The run surface
//!
//! One engine path, three altitudes — each reduces to the one below:
//!
//! | entry point | takes | use it for |
//! |---|---|---|
//! | `x_on(session, view, cfg)` / `x_into(session, view, …, deadline, &mut state)` in `graphmat-algorithms` | a packaged algorithm | `x_on` allocates a fresh state and returns the values; `x_into` writes into a pooled [`state::VertexState`] (the serving hot path) |
//! | [`session::Session::run`]`(view, program)` → [`session::RunBuilder`] | any [`program::GraphProgram`] | `.init_all` / `.seed_with` / `.activate_all`, per-run option overrides, then `.execute()` (fresh state) or `.execute_with(&mut state)` (pooled) |
//! | [`runner::run_program`]`(program, view, state, options, executor, ws)` | explicit state + executor + workspace | embedding the superstep loop without a session |
//!
//! `view` is always a `&`[`topology::Topology`]: a `&Arc<Topology>` coerces
//! to it, and `snapshot.view()` of a [`store::GraphStore`] snapshot is one —
//! a topology whose pending edits are folded into its layouts on first use —
//! so a resident topology and a streaming snapshot go through the same
//! functions. [`options::RunOptions`] and
//! [`topology::GraphBuildOptions`] have one set of defaults (backend chosen
//! per superstep, pull mirrors built); a [`session::Session`] adds only its pool size.
//! Which orientations of the graph exist is not an option: a
//! [`topology::Topology`] stores `Gᵀ` and derives `G` from it when the first
//! [`program::EdgeDirection::In`]/`Both` program runs. Neither is how the
//! push is partitioned: an automatic build pulls through 8 × lanes balanced
//! partitions and pushes through the same, or — when the matrix stores its
//! columns in many of them, as RMAT does — through one per lane
//! ([`topology::PUSH_MERGE_REPLICATION`]).
//!
//! # Direction optimization (PR-4)
//!
//! The paper's engine always runs column-wise sparse SpMV — a *push*
//! traversal, perfect for sparse frontiers, wasteful when most vertices are
//! active. This reproduction adds the *dense pull* backend (row-parallel
//! SpMV over a row-major CSR mirror of the partitioned matrix) and picks
//! push or pull **per superstep** by comparing what each would cost
//! ([`engine::choose_backend`]): pull streams every stored edge of the rows
//! it gathers whatever the frontier holds, push pays about twice as much per
//! edge it actually traverses ([`engine::PUSH_PULL_COST_RATIO`]), so a
//! superstep pulls when the frontier's out-edges exceed half of what a pull
//! would gather — every stored edge, unless the program's
//! [`program::GraphProgram::receives`] turns rows away (BFS: every reached
//! vertex), in which case the run's last pull says how many. Direction is a
//! decision over one message vector — SEND always fills the same
//! bit-vector-backed buffer — and both kernels reduce each
//! destination's messages in ascending source order, so results are
//! **bit-for-bit identical** — only speed changes. Costs and the one knob:
//!
//! * the CSR mirrors roughly double adjacency-matrix memory
//!   ([`topology::Topology::pull_bytes`]); a build makes none, and the
//!   first pull along a side derives its mirror from the push matrix;
//! * `.backend(…)` on the run builder pins every superstep to
//!   [`stats::Backend::Push`] or [`stats::Backend::Pull`] (tests and the
//!   Figure 7 comparison rows; nothing else needs it);
//! * each superstep records the chosen [`stats::Backend`] and its frontier
//!   density in [`stats::SuperstepStats`].
//!
//! # Edge-type genericity (PR-1)
//!
//! The whole stack is generic over the **edge value type**: a program
//! declares [`program::GraphProgram::Edge`] and runs on matrices that store
//! exactly that type. `Edge = ()` is the zero-cost unweighted fast path —
//! `Vec<()>` stores nothing, so BFS, connected components, degree and
//! triangle counting traverse matrices with no edge value bytes at all.
//! See [`program`] for the PR-1 migration guide from the hardcoded-`f32`
//! API.
//!
//! Module map:
//!
//! * [`program`] — the `GraphProgram` trait and edge-direction selection.
//! * [`topology`] — the immutable, shareable matrix half.
//! * [`state`] — the mutable per-run half (bounds-checked accessors with
//!   descriptive diagnostics; `try_*` variants return errors).
//! * [`pool`] — [`pool::StatePool`]: per-worker `VertexState` recycling with
//!   growth counters, the allocation-free steady state for serving layers.
//! * [`session`] — the session frontend: executor pool + builders.
//! * [`error`] — [`error::GraphMatError`].
//! * [`store`] — [`store::GraphStore`]: streaming updates as published
//!   snapshots over an immutable base.
//! * [`engine`] — one superstep: SEND + generalized SpMV into a reusable
//!   workspace.
//! * [`runner`] — the run prologue, the iteration loop with convergence
//!   detection and the APPLY phase (Algorithm 2).
//! * [`options`] — what one run can vary (§5.4 leaves threads and
//!   partitions to the session and the graph builder).
//! * [`stats`] — per-superstep and whole-run statistics.

pub mod engine;
pub mod error;
pub mod options;
pub mod pool;
pub mod program;
pub mod runner;
pub mod session;
pub mod state;
pub mod stats;
pub mod store;
pub mod topology;

pub use engine::choose_backend;
pub use error::GraphMatError;
pub use options::{ActivityPolicy, RunOptions};
pub use pool::StatePool;
pub use program::{EdgeDirection, GraphProgram, VertexId};
pub use runner::{run_program, RunResult};
pub use session::{GraphBuilder, RunBuilder, RunOutcome, Session, SessionOptions};
pub use state::VertexState;
pub use stats::{Backend, RunStats, SuperstepStats};
pub use store::{GraphSnapshot, GraphStore, StoreOptions, StoreStats};
pub use topology::{GraphBuildOptions, Topology};
