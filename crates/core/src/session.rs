//! [`Session`]: one persistent worker pool, many concurrent queries.
//!
//! The serving architecture GraphMat's matrix backend enables (and which
//! RedisGraph demonstrated in production) is: build the matrix **once**,
//! keep it resident, and answer many independent queries against it. The
//! session is the owning handle for that pattern:
//!
//! * it owns one [`Executor`] — a pool of worker threads created at
//!   [`Session::new`] and reused by every run (spinning between the
//!   supersteps of a run, parked when idle); concurrent runs share the pool
//!   safely (one parallel region owns it at a time and a run that finds it
//!   busy runs its own region inline; small phases run inline on the
//!   calling thread);
//! * [`Session::build_graph`] is a fluent builder producing an
//!   `Arc<Topology<E>>` — the immutable, `Sync` half that any number of
//!   runs can share without cloning;
//! * [`Session::run`] is a fluent run builder: seed vertices, initialise
//!   properties, cap iterations, then [`RunBuilder::execute`] into a fresh [`VertexState`] or
//!   [`RunBuilder::execute_with`] into a pooled one (which also recycles
//!   the engine workspace cached inside the state — reruns allocate
//!   nothing).
//!
//! Runs are **direction-optimized** by default: each superstep picks the
//! sparse push or dense pull SpMV backend by the share of the graph's edges
//! its frontier will traverse (bit-for-bit identical results either way; see
//! [`crate::engine::choose_backend`]).
//! Force one with [`RunBuilder::backend`]. The pull mirrors, which cost
//! roughly the adjacency matrices' memory again, are not built: the first
//! pull along a side derives its mirror from the push matrix.
//!
//! Every fallible step returns a [`GraphMatError`] instead of panicking:
//! out-of-range seed vertices, zero threads, empty edge lists, mismatched
//! state lengths and zero iteration limits are all error responses a
//! serving layer can hand back to a client.
//!
//! ```
//! use graphmat_core::session::Session;
//! use graphmat_core::program::{GraphProgram, VertexId};
//! use graphmat_io::edgelist::EdgeList;
//!
//! struct Hops;
//! impl GraphProgram for Hops {
//!     type VertexProp = u32;
//!     type Message = u32;
//!     type Reduced = u32;
//!     type Edge = ();
//!     fn send_message(&self, _v: VertexId, d: &u32) -> Option<u32> { Some(*d) }
//!     fn process_message(&self, m: &u32, _e: &(), _d: &u32) -> u32 { m.saturating_add(1) }
//!     fn reduce(&self, acc: &mut u32, v: u32) { *acc = (*acc).min(v); }
//!     fn apply(&self, r: &u32, d: &mut u32) { *d = (*d).min(*r); }
//! }
//!
//! let session = Session::sequential();
//! let edges = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]);
//! let topo = session.build_graph(&edges).finish().unwrap();
//! let outcome = session
//!     .run(&topo, Hops)
//!     .init_all(u32::MAX)
//!     .seed_with(0, 0)
//!     .execute()
//!     .unwrap();
//! assert_eq!(outcome.values, vec![0, 1, 2, 3]);
//! assert!(outcome.converged);
//! ```

use crate::engine::Workspace;
use crate::error::{GraphMatError, Result};
use crate::options::{ActivityPolicy, RunOptions};
use crate::program::{GraphProgram, VertexId};
use crate::runner::{admit, run_admitted, RunResult};
use crate::state::VertexState;
use crate::stats::{Backend, RunStats};
use crate::topology::{GraphBuildOptions, Topology};
use graphmat_io::edgelist::EdgeList;
use graphmat_sparse::parallel::{available_threads, Executor};
use std::sync::Arc;

/// Options for creating a [`Session`].
#[derive(Clone, Copy, Debug)]
pub struct SessionOptions {
    /// Number of executor lanes (worker pool size). Must be at least 1 —
    /// there is no "0 = auto" here; use [`SessionOptions::default`] for all
    /// available hardware threads.
    pub threads: usize,
    /// Default run options applied to every [`RunBuilder`] (each builder can
    /// override them per run).
    pub run_defaults: RunOptions,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            threads: available_threads(),
            run_defaults: RunOptions::default(),
        }
    }
}

impl SessionOptions {
    /// Set the worker-pool size.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the default run options.
    pub fn with_run_defaults(mut self, defaults: RunOptions) -> Self {
        self.run_defaults = defaults;
        self
    }
}

/// An owning handle over one persistent executor pool plus graph/run
/// builders. `Session` is `Sync`: share it by reference (or `Arc`) across
/// threads and issue concurrent runs against shared topologies.
#[derive(Debug)]
pub struct Session {
    executor: Executor,
    defaults: RunOptions,
}

impl Session {
    /// Create a session with an explicit configuration.
    ///
    /// # Errors
    ///
    /// [`GraphMatError::ZeroThreads`] if `options.threads == 0`;
    /// [`GraphMatError::ZeroIterations`] if the run defaults carry
    /// `max_iterations == Some(0)`.
    pub fn new(options: SessionOptions) -> Result<Session> {
        if options.threads == 0 {
            return Err(GraphMatError::ZeroThreads);
        }
        options.run_defaults.validate()?;
        Ok(Session {
            executor: Executor::new(options.threads),
            defaults: options.run_defaults,
        })
    }

    /// A session using every available hardware thread.
    pub fn with_defaults() -> Result<Session> {
        Session::new(SessionOptions::default())
    }

    /// A session with a pool of exactly `threads` lanes.
    pub fn with_threads(threads: usize) -> Result<Session> {
        Session::new(SessionOptions::default().with_threads(threads))
    }

    /// A single-threaded session (no worker pool; everything runs inline on
    /// the calling thread). Cannot fail.
    pub fn sequential() -> Session {
        Session {
            executor: Executor::sequential(),
            defaults: RunOptions::default(),
        }
    }

    /// Number of executor lanes the session's pool provides.
    pub fn nthreads(&self) -> usize {
        self.executor.nthreads()
    }

    /// The session's executor (for advanced callers driving
    /// [`crate::runner::run_program`] directly while sharing the pool).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The run defaults every [`RunBuilder`] starts from.
    pub fn run_defaults(&self) -> &RunOptions {
        &self.defaults
    }

    /// Start building a shared topology from an edge list. When the
    /// partition count is left automatic, it defaults to 8 × **this
    /// session's pool size** (the paper's `nthreads * 8` rule) — not the
    /// machine's hardware thread count — and a matrix whose columns repeat
    /// across those partitions is pushed through one partition per lane
    /// (see [`crate::topology`]).
    pub fn build_graph<'e, E: Clone>(&self, edges: &'e EdgeList<E>) -> GraphBuilder<'e, E> {
        GraphBuilder {
            edges,
            options: GraphBuildOptions::default(),
            threads: self.nthreads(),
        }
    }

    /// Start building a run of `program` over `view` — a `&Topology` (a
    /// `&Arc<Topology>` coerces to it), or `snapshot.view()` from a
    /// [`crate::store::GraphStore`] snapshot, whose pending edits are
    /// folded into the layouts it reads. The builder starts from the
    /// session's run defaults.
    pub fn run<'s, 't, P: GraphProgram>(
        &'s self,
        view: &'t Topology<P::Edge>,
        program: P,
    ) -> RunBuilder<'s, 't, P> {
        RunBuilder {
            session: self,
            view,
            program,
            options: self.defaults,
            init: InitSpec::None,
            first_seed: None,
            more_seeds: Vec::new(),
            activate_all: false,
        }
    }
}

/// Fluent builder for an `Arc<Topology<E>>` (from [`Session::build_graph`]).
pub struct GraphBuilder<'e, E> {
    edges: &'e EdgeList<E>,
    options: GraphBuildOptions,
    /// The session's pool size — what an automatic partition count is a
    /// multiple of.
    threads: usize,
}

impl<'e, E: Clone> GraphBuilder<'e, E> {
    /// Explicitly set the number of matrix partitions, for push and pull
    /// alike (`0` = the default: 8 × the session's pool size for the pull,
    /// the same or one per lane for the push).
    pub fn partitions(mut self, n: usize) -> Self {
        self.options.num_partitions = n;
        self
    }

    /// Balance partitions by edge count (default `true`).
    pub fn balanced(mut self, balance: bool) -> Self {
        self.options.balance_partitions = balance;
        self
    }

    /// Override every construction option at once.
    pub fn build_options(mut self, options: GraphBuildOptions) -> Self {
        self.options = options;
        self
    }

    /// Build the topology, ready to be shared across concurrent runs.
    ///
    /// # Errors
    ///
    /// [`GraphMatError::EmptyEdgeList`] if the edge list has no edges — an
    /// all-isolated-vertices "graph" is almost always an upstream loading
    /// bug, and the partitioner cannot balance zero edges meaningfully.
    pub fn finish(self) -> Result<Arc<Topology<E>>> {
        if self.edges.is_empty() {
            return Err(GraphMatError::EmptyEdgeList);
        }
        // Resolve an automatic partition count against the session's pool
        // size (the paper's `nthreads * 8`), not the machine's hardware
        // thread count — a 1-lane session on a 64-thread host must not
        // walk 512 partitions per SpMV.
        let topology = Topology::build(self.edges, self.options, self.threads);
        Ok(Arc::new(topology))
    }
}

/// How a run builder initialises vertex properties before seeding. The
/// init closure is borrowed, not boxed, so a pooled driver whose closure
/// captures per-query data (e.g. the view's degree array) stays
/// allocation-free.
enum InitSpec<'t, V> {
    /// Leave the state's current properties (warm start on pooled states;
    /// `V::default()` on fresh ones).
    None,
    /// Set every property to one value.
    All(V),
    /// Compute every property from the vertex id.
    Fn(&'t dyn Fn(VertexId) -> V),
}

/// The outcome of a builder-driven run: the final vertex properties plus
/// the engine statistics.
#[derive(Clone, Debug)]
pub struct RunOutcome<V> {
    /// Final per-vertex properties, indexed by vertex id (moved out of the
    /// run's state — no clone).
    pub values: Vec<V>,
    /// Timing and work statistics for the run.
    pub stats: RunStats,
    /// `true` if the program terminated because no vertex changed state,
    /// `false` if it hit the iteration limit.
    pub converged: bool,
}

/// Fluent builder for one vertex-program run (from [`Session::run`]).
pub struct RunBuilder<'s, 't, P: GraphProgram> {
    session: &'s Session,
    view: &'t Topology<P::Edge>,
    program: P,
    options: RunOptions,
    init: InitSpec<'t, P::VertexProp>,
    /// Held inline: `sssp_into`/`bfs_into` promise zero per-query allocation.
    first_seed: Option<(VertexId, Option<P::VertexProp>)>,
    more_seeds: Vec<(VertexId, Option<P::VertexProp>)>,
    activate_all: bool,
}

impl<'s, 't, P: GraphProgram> RunBuilder<'s, 't, P> {
    /// Mark vertex `v` active for the first superstep (validated against
    /// the topology's vertex count at execute time).
    pub fn seed(self, v: VertexId) -> Self {
        self.push_seed((v, None))
    }

    /// Set vertex `v`'s property to `value` *and* mark it active — the
    /// "source distance 0, source active" idiom of the paper's appendix in
    /// one call.
    pub fn seed_with(self, v: VertexId, value: P::VertexProp) -> Self {
        self.push_seed((v, Some(value)))
    }

    fn push_seed(mut self, seed: (VertexId, Option<P::VertexProp>)) -> Self {
        match self.first_seed {
            None => self.first_seed = Some(seed),
            Some(_) => self.more_seeds.push(seed),
        }
        self
    }

    fn seeds(&self) -> impl Iterator<Item = &(VertexId, Option<P::VertexProp>)> {
        self.first_seed.iter().chain(&self.more_seeds)
    }

    /// Set every vertex's property to `value` before seeding.
    pub fn init_all(mut self, value: P::VertexProp) -> Self {
        self.init = InitSpec::All(value);
        self
    }

    /// Compute every vertex's property from its id before seeding. The
    /// closure is borrowed for the builder's lifetime and may itself borrow
    /// from the topology, so per-vertex data such as
    /// [`Topology::out_degrees`] is read in place — no per-query clone, no
    /// boxed closure.
    pub fn init_with(mut self, f: &'t dyn Fn(VertexId) -> P::VertexProp) -> Self {
        self.init = InitSpec::Fn(f);
        self
    }

    /// Mark every vertex active for the first superstep (PageRank-style
    /// programs).
    pub fn activate_all(mut self) -> Self {
        self.activate_all = true;
        self
    }

    /// Cap the number of supersteps (`0` is rejected at execute time with
    /// [`GraphMatError::ZeroIterations`]).
    pub fn max_iterations(mut self, max: usize) -> Self {
        self.options.max_iterations = Some(max);
        self
    }

    /// Run until no vertex changes state (the default unless the session's
    /// run defaults say otherwise).
    pub fn until_convergence(mut self) -> Self {
        self.options.max_iterations = None;
        self
    }

    /// Force every superstep onto one SpMV backend, or (`None`, the
    /// default) let the engine pick push or pull per superstep. All three
    /// produce bit-for-bit identical results.
    pub fn backend(mut self, backend: impl Into<Option<Backend>>) -> Self {
        self.options.backend = backend.into();
        self
    }

    /// Set a hard wall-clock deadline for the run (`None` clears one
    /// inherited from the session defaults). Checked between supersteps —
    /// when the deadline passes, the run stops with
    /// [`GraphMatError::DeadlineExceeded`] instead of finishing, which is
    /// how a serving layer bounds per-request latency. The overshoot is at
    /// most one superstep; on [`RunBuilder::execute_with`] the completed
    /// supersteps' partial results remain in the pooled state (re-init with
    /// [`RunBuilder::init_all`]/[`RunBuilder::init_with`] on the next run).
    pub fn deadline(mut self, deadline: impl Into<Option<std::time::Instant>>) -> Self {
        self.options.deadline = deadline.into();
        self
    }

    /// Select how the next superstep's active set is derived.
    pub fn activity(mut self, activity: ActivityPolicy) -> Self {
        self.options.activity = activity;
        self
    }

    /// Record (or suppress) per-superstep statistics.
    pub fn record_supersteps(mut self, record: bool) -> Self {
        self.options.record_supersteps = record;
        self
    }

    /// The one run body: validate → admit → prepare → run. Whatever can
    /// reject the run (options, seed ranges, the runner's `admit`) comes
    /// **before** the first mutation: a rejected run — the outer `Err` —
    /// leaves a pooled state as it was, and `cached` is asked for the state's
    /// workspace only after admission. The workspace the run used comes back
    /// beside the run's own result for the caller to keep.
    fn run_into(
        &self,
        state: &mut VertexState<P::VertexProp>,
        cached: impl FnOnce(&mut VertexState<P::VertexProp>) -> Option<Box<Workspace<P>>>,
    ) -> Result<(Result<RunResult>, Box<Workspace<P>>)> {
        let num_vertices = self.view.num_vertices();
        self.options.validate()?;
        if let Some(&(vertex, _)) = self.seeds().find(|(v, _)| *v >= num_vertices) {
            return Err(GraphMatError::VertexOutOfRange {
                vertex,
                num_vertices,
            });
        }
        let traversal = admit(&self.program, self.view, state, &self.options)?;
        // Always clear the active set first so pooled states cannot leak
        // stale active bits into the new run.
        state.clear_active();
        match &self.init {
            InitSpec::None => {}
            InitSpec::All(value) => state.set_all_properties(value.clone()),
            InitSpec::Fn(f) => state.init_properties(f),
        }
        for (v, value) in self.seeds() {
            if let Some(value) = value {
                state.set_property(*v, value.clone());
            }
            state.set_active(*v);
        }
        if self.activate_all {
            state.set_all_active();
        }
        let n = num_vertices as usize;
        let mut ws = cached(state)
            .filter(|ws| ws.is_compatible(n))
            .unwrap_or_else(|| Box::new(Workspace::new(n)));
        let result = run_admitted(
            &self.program,
            &traversal,
            state,
            &self.options,
            &self.session.executor,
            &mut ws,
        );
        Ok((result, ws))
    }

    /// Run into a fresh [`VertexState`] and return the final properties.
    ///
    /// # Errors
    ///
    /// [`GraphMatError::ZeroIterations`] for a `max_iterations(0)` request,
    /// [`GraphMatError::VertexOutOfRange`] for a seed outside the topology,
    /// then everything [`crate::runner::run_program`] reports (a missing
    /// pull mirror, a forced pull over pending edits).
    pub fn execute(self) -> Result<RunOutcome<P::VertexProp>>
    where
        P::VertexProp: Default,
    {
        let mut state = VertexState::new(self.view.num_vertices() as usize);
        let result = self.run_into(&mut state, |_| None)?.0?;
        Ok(RunOutcome {
            values: state.into_properties(),
            stats: result.stats,
            converged: result.converged,
        })
    }

    /// Run into a caller-owned (pooled) state, recycling the engine
    /// workspace cached inside it: the second run of the same program type
    /// through the same state performs no buffer allocation at all.
    ///
    /// The state's active set is always cleared before seeding; properties
    /// are left untouched unless [`RunBuilder::init_all`] /
    /// [`RunBuilder::init_with`] is given (warm starts are a feature — pass
    /// an init to get a fully deterministic cold start).
    ///
    /// On return the state holds the final vertex properties.
    ///
    /// # Errors
    ///
    /// Everything [`RunBuilder::execute`] reports, plus
    /// [`GraphMatError::StateLengthMismatch`] if the state does not match
    /// the topology.
    pub fn execute_with(self, state: &mut VertexState<P::VertexProp>) -> Result<RunResult>
    where
        P: 'static,
    {
        let (result, ws) = self.run_into(state, VertexState::take_cached_workspace)?;
        state.cache_workspace(ws);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SSSP over f32 weights (the paper's appendix program).
    struct Sssp;

    impl GraphProgram for Sssp {
        type VertexProp = f32;
        type Message = f32;
        type Reduced = f32;
        type Edge = f32;

        fn send_message(&self, _v: VertexId, dist: &f32) -> Option<f32> {
            Some(*dist)
        }

        fn process_message(&self, msg: &f32, edge: &f32, _dst: &f32) -> f32 {
            msg + edge
        }

        fn reduce(&self, acc: &mut f32, value: f32) {
            if value < *acc {
                *acc = value;
            }
        }

        fn apply(&self, reduced: &f32, dist: &mut f32) {
            if *reduced < *dist {
                *dist = *reduced;
            }
        }
    }

    fn figure3_edges() -> EdgeList<f32> {
        EdgeList::from_tuples(
            5,
            vec![
                (0, 1, 1.0),
                (0, 2, 3.0),
                (0, 3, 2.0),
                (1, 2, 1.0),
                (2, 3, 2.0),
                (3, 4, 2.0),
                (4, 0, 4.0),
            ],
        )
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
    }

    #[test]
    fn sessions_run_and_build_with_the_plain_defaults() {
        assert_eq!(SessionOptions::default().run_defaults.backend, None);
        assert_eq!(Session::sequential().run_defaults().backend, None);
        assert_eq!(
            Session::with_threads(2).unwrap().run_defaults().backend,
            None
        );
        // One altitude of defaults: what the session uses is what
        // `RunOptions::default()` / `GraphBuildOptions::default()` say.
        assert_eq!(RunOptions::default().backend, None);
        let edges = figure3_edges();
        let built = Session::sequential().build_graph(&edges).finish().unwrap();
        let plain = Topology::from_edge_list(&edges, GraphBuildOptions::default());
        assert_eq!(built.out_partition_ranges(), plain.out_partition_ranges());
        // A build makes no pull mirror: the first pull derives it.
        assert!(built.out_side().made_mirror().is_none());
        assert_eq!(built.pull_bytes(), 0);
    }

    /// A forced pull on a topology no run has pulled derives its mirror and
    /// answers bit for bit like a forced push and the selector.
    #[test]
    fn forced_pull_on_a_fresh_topology_answers_like_push_and_auto() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let sssp = |topo: &Topology<f32>, backend: Option<Backend>| {
            let outcome = session
                .run(topo, Sssp)
                .init_all(f32::MAX)
                .seed_with(0, 0.0)
                .backend(backend)
                .execute()
                .unwrap();
            let bits: Vec<u32> = outcome.values.iter().map(|d| d.to_bits()).collect();
            (
                bits,
                outcome.stats.pull_supersteps,
                outcome.stats.iterations,
            )
        };
        let fresh = || session.build_graph(&edges).finish().unwrap();
        let topo = fresh();
        assert!(topo.out_side().made_mirror().is_none());
        let (pulled, pulls, iterations) = sssp(&topo, Some(Backend::Pull));
        assert_eq!(pulls, iterations);
        let mirror = topo.out_side().made_mirror().expect("the pull derived it");
        assert_eq!(topo.pull_bytes(), mirror.bytes());
        let want: Vec<u32> = [0.0f32, 1.0, 2.0, 2.0, 4.0].map(f32::to_bits).to_vec();
        assert_eq!(pulled, want);
        for backend in [Some(Backend::Push), None] {
            assert_eq!(sssp(&fresh(), backend).0, want, "{backend:?}");
        }
    }

    #[test]
    fn all_backends_agree_through_the_builder() {
        let session = Session::with_threads(2).unwrap();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).partitions(2).finish().unwrap();
        let run = |backend: Option<Backend>| {
            session
                .run(&*topo, Sssp)
                .init_all(f32::MAX)
                .seed_with(0, 0.0)
                .backend(backend)
                .execute()
                .unwrap()
                .values
        };
        let push = run(Some(Backend::Push));
        assert_eq!(push, run(Some(Backend::Pull)));
        assert_eq!(push, run(None));
    }

    #[test]
    fn expired_deadline_stops_the_run_with_a_typed_error() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();
        // A deadline already in the past trips before the first superstep.
        let err = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .deadline(std::time::Instant::now() - std::time::Duration::from_millis(1))
            .execute()
            .unwrap_err();
        assert_eq!(err, GraphMatError::DeadlineExceeded);
        // A comfortable deadline changes nothing.
        let outcome = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .deadline(std::time::Instant::now() + std::time::Duration::from_secs(60))
            .execute()
            .unwrap();
        assert_eq!(outcome.values, vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        // `None` clears a deadline inherited from an earlier builder call.
        let outcome = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .deadline(std::time::Instant::now())
            .deadline(None)
            .execute()
            .unwrap();
        assert!(outcome.converged);
    }

    #[test]
    fn deadline_mid_run_leaves_partial_results_in_a_pooled_state() {
        // A program that never converges (each superstep increments every
        // vertex), so only the deadline can stop it.
        struct Count;
        impl GraphProgram for Count {
            type VertexProp = u64;
            type Message = u64;
            type Reduced = u64;
            type Edge = f32;
            fn send_message(&self, _v: VertexId, c: &u64) -> Option<u64> {
                Some(*c)
            }
            fn process_message(&self, m: &u64, _e: &f32, _d: &u64) -> u64 {
                *m
            }
            fn reduce(&self, acc: &mut u64, v: u64) {
                *acc = (*acc).max(v);
            }
            fn apply(&self, _r: &u64, c: &mut u64) {
                *c += 1;
            }
        }
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();
        let mut state: VertexState<u64> = VertexState::for_topology(&topo);
        let err = session
            .run(&topo, Count)
            .init_all(0)
            .activate_all()
            .activity(ActivityPolicy::AlwaysAll)
            .deadline(std::time::Instant::now() + std::time::Duration::from_millis(20))
            .execute_with(&mut state)
            .unwrap_err();
        assert_eq!(err, GraphMatError::DeadlineExceeded);
        // Some supersteps completed before the deadline and their effects
        // are visible — the state is reusable for the next (re-initialised)
        // query.
        assert!(state.properties().iter().all(|&c| c > 0));
        assert!(state.has_cached_workspace());
    }

    #[test]
    fn zero_threads_is_rejected() {
        let err = Session::new(SessionOptions::default().with_threads(0)).unwrap_err();
        assert_eq!(err, GraphMatError::ZeroThreads);
    }

    #[test]
    fn invalid_run_defaults_are_rejected() {
        let opts = SessionOptions::default()
            .with_run_defaults(RunOptions::default().with_max_iterations(0));
        assert_eq!(
            Session::new(opts).unwrap_err(),
            GraphMatError::ZeroIterations
        );
    }

    #[test]
    fn automatic_partition_count_follows_the_session_pool_size() {
        // The paper's rule is nthreads × 8 where nthreads is what will
        // actually run the SpMV — the session's pool, not the machine.
        // A path stores each column once, so push and pull share the grain.
        let n = 4096u32;
        let edges = EdgeList::from_pairs(n, (0..n - 1).map(|v| (v, v + 1)));
        let mirror_partitions =
            |topo: &Topology<()>| topo.out_pull_mirror().unwrap().n_partitions();
        for threads in [1usize, 2] {
            let session = Session::with_threads(threads).unwrap();
            let topo = session.build_graph(&edges).finish().unwrap();
            assert_eq!(topo.num_partitions(), 8 * threads);
            assert_eq!(mirror_partitions(&topo), 8 * threads);
        }
        // An explicit partition count still wins, for both kernels — on a
        // matrix whose columns repeat, too.
        let rmat = graphmat_io::rmat::generate(&graphmat_io::rmat::RmatConfig::graph500(10));
        let session = Session::with_threads(2).unwrap();
        for edges in [edges, rmat.topology()] {
            let topo = session.build_graph(&edges).partitions(5).finish().unwrap();
            assert_eq!(topo.num_partitions(), 5);
            assert_eq!(mirror_partitions(&topo), 5);
        }
    }

    /// An automatic build of a matrix whose columns repeat pushes through one
    /// partition per lane of *this session*, and compaction keeps that
    /// layout, whatever the machine's thread count.
    #[test]
    fn an_automatic_rmat_layout_follows_the_session_through_compaction() {
        use crate::store::{GraphStore, StoreOptions};
        use graphmat_delta::DeltaBatch;
        use graphmat_sparse::partition::RowPartitioner;
        let edges = graphmat_io::rmat::generate(&graphmat_io::rmat::RmatConfig::graph500(10));
        for lanes in [1usize, 3] {
            let session = Session::with_threads(lanes).unwrap();
            let topo = session.build_graph(&edges).finish().unwrap();
            let store = GraphStore::new(
                Arc::clone(&topo),
                StoreOptions {
                    compaction_threshold: usize::MAX,
                    ..StoreOptions::default()
                },
            );
            let mut batch = DeltaBatch::new(edges.num_vertices());
            batch.insert(0, 1, 2.5).unwrap();
            batch
                .delete(edges.edges()[0].0, edges.edges()[0].1)
                .unwrap();
            store.apply(batch).unwrap();
            assert!(store.compact_now());
            let compacted = store.snapshot();
            let in_degrees: Vec<usize> = topo.in_degrees().iter().map(|&d| d as usize).collect();
            let fine = RowPartitioner::balanced_nnz(&in_degrees, 8 * lanes);
            for topo in [&*topo, compacted.base()] {
                let mirror = topo.out_pull_mirror().unwrap();
                let mirror_ranges: Vec<_> = mirror.partitions().iter().map(|p| p.rows).collect();
                assert_eq!(mirror_ranges, fine, "{lanes} lanes");
                assert_eq!(topo.num_partitions(), lanes, "{lanes} lanes");
                assert_eq!(
                    topo.out_partition_ranges(),
                    RowPartitioner::coarsen(&fine, lanes)
                );
            }
        }
    }

    #[test]
    fn empty_edge_list_is_rejected() {
        let session = Session::sequential();
        let edges: EdgeList<f32> = EdgeList::new(10);
        let err = session.build_graph(&edges).finish().unwrap_err();
        assert_eq!(err, GraphMatError::EmptyEdgeList);
    }

    #[test]
    fn builder_runs_figure3_sssp() {
        let session = Session::with_threads(2).unwrap();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).partitions(2).finish().unwrap();
        let outcome = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .max_iterations(50)
            .backend(Backend::Push)
            .execute()
            .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.values, vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        assert_eq!(outcome.stats.nthreads, 2);
    }

    #[test]
    fn out_of_range_seed_is_an_error_not_a_panic() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();
        let err = session
            .run(&topo, Sssp)
            .seed_with(99, 0.0)
            .execute()
            .unwrap_err();
        assert_eq!(
            err,
            GraphMatError::VertexOutOfRange {
                vertex: 99,
                num_vertices: 5
            }
        );
    }

    #[test]
    fn rejected_seed_leaves_a_pooled_state_untouched() {
        // A rejected run must not wipe the warm contents of a pooled state:
        // validation happens before the first mutation.
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();
        let mut state: VertexState<f32> = VertexState::for_topology(&topo);
        state.set_all_properties(42.0);
        state.set_active(3);
        let err = session
            .run(&*topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .seed_with(99, 0.0)
            .execute_with(&mut state)
            .unwrap_err();
        assert_eq!(
            err,
            GraphMatError::VertexOutOfRange {
                vertex: 99,
                num_vertices: 5
            }
        );
        assert!(state.properties().iter().all(|&p| p == 42.0));
        assert!(state.is_active(3));
        assert_eq!(state.active_count(), 1);
    }

    #[test]
    fn zero_iteration_cap_is_an_error() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();
        let err = session
            .run(&topo, Sssp)
            .seed_with(0, 0.0)
            .max_iterations(0)
            .execute()
            .unwrap_err();
        assert_eq!(err, GraphMatError::ZeroIterations);
    }

    #[test]
    fn execute_with_reuses_the_cached_workspace() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();
        let mut state: VertexState<f32> = VertexState::for_topology(&topo);

        let run = |state: &mut VertexState<f32>| {
            session
                .run(&topo, Sssp)
                .init_all(f32::MAX)
                .seed_with(0, 0.0)
                .execute_with(state)
                .unwrap()
        };
        assert!(!state.has_cached_workspace());
        run(&mut state);
        assert!(state.has_cached_workspace(), "workspace cached after run 1");
        let first = state.properties().to_vec();
        run(&mut state);
        assert_eq!(state.properties(), &first[..], "rerun is identical");

        // A fresh execute() agrees with the pooled path.
        let fresh = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .execute()
            .unwrap();
        assert_eq!(fresh.values, first);
    }

    #[test]
    fn stale_active_bits_do_not_leak_into_the_next_run() {
        let session = Session::sequential();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();
        let mut state: VertexState<f32> = VertexState::for_topology(&topo);
        // Poison the state: everything active, garbage properties.
        state.set_all_active();
        state.set_all_properties(-1.0);
        let result = session
            .run(&topo, Sssp)
            .init_all(f32::MAX)
            .seed_with(1, 0.0)
            .max_iterations(1)
            .execute_with(&mut state)
            .unwrap();
        // Only the seed was active: exactly its out-neighbourhood relaxed.
        assert_eq!(result.stats.supersteps[0].active_vertices, 1);
        assert_eq!(*state.property(2), 1.0);
        assert_eq!(*state.property(0), f32::MAX);
    }

    #[test]
    fn run_over_a_pending_overlay_matches_a_rebuilt_topology() {
        use crate::store::{GraphStore, StoreOptions};
        use graphmat_delta::{DeltaBatch, UpdateOp};

        let session = Session::with_threads(2).unwrap();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).partitions(2).finish().unwrap();
        let store = GraphStore::new(
            Arc::clone(&topo),
            StoreOptions {
                compaction_threshold: usize::MAX,
                overload_watermark: usize::MAX,
                ..StoreOptions::default()
            },
        );
        let batch = DeltaBatch::from_ops(
            5,
            vec![
                (0, 1, UpdateOp::Insert(5.0)), // reweight
                (0, 2, UpdateOp::Delete),
                (2, 0, UpdateOp::Insert(1.0)), // fresh edge
            ],
        )
        .unwrap();
        let snapshot = store.apply(batch).unwrap();
        assert!(snapshot.overlay().is_some());

        let overlaid = session
            .run(snapshot.view(), Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .execute()
            .unwrap();

        // Rebuild a topology from the edited edge list and run identically.
        store.compact_now();
        let compacted = store.snapshot();
        assert!(compacted.overlay().is_none());
        let rebuilt = session
            .run(compacted.view(), Sssp)
            .init_all(f32::MAX)
            .seed_with(0, 0.0)
            .execute()
            .unwrap();
        for (a, b) in overlaid.values.iter().zip(&rebuilt.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn concurrent_runs_share_one_topology_through_one_session() {
        let session = Session::with_threads(2).unwrap();
        let edges = figure3_edges();
        let topo = session.build_graph(&edges).finish().unwrap();

        let run_from = |source: VertexId| {
            session
                .run(&*topo, Sssp)
                .init_all(f32::MAX)
                .seed_with(source, 0.0)
                .execute()
                .unwrap()
                .values
        };
        let sequential: Vec<Vec<f32>> = (0..5).map(run_from).collect();

        let concurrent: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..5u32)
                .map(|source| {
                    let session = &session;
                    let topo = Arc::clone(&topo);
                    s.spawn(move || {
                        session
                            .run(&*topo, Sssp)
                            .init_all(f32::MAX)
                            .seed_with(source, 0.0)
                            .execute()
                            .unwrap()
                            .values
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, concurrent);
    }
}
