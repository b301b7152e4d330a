//! The superstep loop (Algorithm 2) and the APPLY phase.
//!
//! [`run_program`] repeats SEND → SpMV → APPLY until no vertex changes
//! state or the iteration limit is reached, following the bulk-synchronous
//! parallel model: state written by APPLY becomes visible only in the next
//! superstep (§4.1). After APPLY, exactly the vertices whose property changed
//! are active for the next superstep (Algorithm 2 lines 12–13).
//!
//! # APPLY: one scan of the reduced vector, written in place
//!
//! APPLY has the same shape as SEND: one loop body over word-aligned chunks
//! of a bit vector — here the reduced vector's validity bits. A chunk that
//! owns words `[ws, we)` owns vertex properties `[64·ws, 64·we)` and the
//! same words of the state's active set, so it applies each reduced value to
//! its vertex, collects the "changed" bits of a word in a register and
//! stores that word straight into the active set: plain stores, no atomics,
//! no work list unpacked from the bitmap and no second bit vector copied
//! back afterwards. The number of changed vertices it returns *is* the next
//! superstep's active count, so the loop never popcounts the active set
//! either. Whether the chunks run inline or across the executor's lanes is
//! [`phase_chunks`]' decision, as for SEND.
//!
//! # Topology / state split
//!
//! The loop reads an immutable [`Topology`] — a base, or a snapshot's
//! with pending edits — and mutates a caller-owned [`VertexState`]. Nothing about the matrices
//! changes during a run, so one `Arc<Topology>` can serve any number of
//! concurrent [`run_program`] calls, each with its own state.
//!
//! # The prologue
//!
//! Everything that can reject a run is checked once, by `admit`, before
//! the first superstep and before anything is mutated: the state's length,
//! and — through `Traversal::resolve` — the pull mirrors the options'
//! backend needs (the in-edge orientation is never missing: the first run
//! that needs it makes it there). The supersteps
//! then run over the resolved `Traversal` with no further checks.
//!
//! # Execution resources
//!
//! One [`Executor`] (a persistent pool of worker threads that spin between
//! the phases of this loop and park once it ends) and one [`Workspace`]
//! (message and output buffers) serve every superstep —
//! the loop itself spawns no threads and allocates nothing in the steady
//! state. The [`crate::session::Session`] frontend owns a process-lifetime
//! executor and recycles workspaces through pooled states.

use crate::engine::{superstep, Traversal, Workspace};
use crate::error::{GraphMatError, Result};
use crate::options::{ActivityPolicy, RunOptions};
use crate::program::GraphProgram;
use crate::state::VertexState;
use crate::stats::RunStats;
use crate::topology::Topology;
use graphmat_sparse::bitvec::WORD_BITS;
use graphmat_sparse::parallel::{phase_chunks, DisjointSlice, Executor};
use graphmat_sparse::spvec::SparseVector;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The outcome of a runner invocation.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Timing and work statistics for the run.
    pub stats: RunStats,
    /// `true` if the program terminated because no vertex changed state,
    /// `false` if it hit the iteration limit.
    pub converged: bool,
}

/// Run a vertex program over a topology and a caller-owned mutable state,
/// reusing a caller-owned workspace.
///
/// This is the one entry point the `Session` frontend and every algorithm
/// driver reduce to. `view` is a `&Topology` (a `&Arc<Topology>` coerces
/// to it), or `snapshot.view()` from a [`crate::store::GraphStore`]
/// snapshot: a topology with pending edits runs every superstep over folds
/// of them, with results bit-for-bit identical to a run over a topology
/// rebuilt from the edited edge list. The state's current vertex properties and active set are the
/// program's initial state; on return the state holds the final properties.
///
/// # Errors
///
/// * [`GraphMatError::StateLengthMismatch`] if `state` was allocated for a
///   different vertex count than the topology;
/// * [`GraphMatError::MissingPullMirror`] if the options force
///   `Backend::Pull` but the topology was built with
///   `build_pull_mirrors = false` (an unforced run degrades to always-push;
///   pending edits are no obstacle to either);
/// * [`GraphMatError::InvalidParameter`] if `ws` was allocated for a
///   different vertex count than this run's.
///
/// All of them are reported **before** the first superstep, in that order,
/// with `state` untouched.
pub fn run_program<P: GraphProgram>(
    program: &P,
    view: &Topology<P::Edge>,
    state: &mut VertexState<P::VertexProp>,
    options: &RunOptions,
    executor: &Executor,
    ws: &mut Workspace<P>,
) -> Result<RunResult> {
    let traversal = admit(program, view, state, options)?;
    if !ws.is_compatible(state.num_vertices()) {
        return Err(GraphMatError::InvalidParameter(
            "workspace was allocated for a different vertex count",
        ));
    }
    run_admitted(program, &traversal, state, options, executor, ws)
}

/// The run prologue: every check that can reject a run, made once. Callers
/// that initialise the state themselves (the session's run builder) admit
/// first, so a rejected run leaves a pooled state's contents intact.
pub(crate) fn admit<'a, P: GraphProgram>(
    program: &P,
    view: &'a Topology<P::Edge>,
    state: &VertexState<P::VertexProp>,
    options: &RunOptions,
) -> Result<Traversal<'a, P::Edge>> {
    state.check_matches(view)?;
    Traversal::resolve(view, program.direction(), options.backend)
}

/// The superstep loop over an admitted traversal. `ws` must be compatible
/// with the state's vertex count (see [`Workspace::is_compatible`]).
pub(crate) fn run_admitted<P: GraphProgram>(
    program: &P,
    traversal: &Traversal<'_, P::Edge>,
    state: &mut VertexState<P::VertexProp>,
    options: &RunOptions,
    executor: &Executor,
    ws: &mut Workspace<P>,
) -> Result<RunResult> {
    let mut stats = RunStats {
        matrix_bytes: traversal.topology().matrix_bytes(),
        nthreads: executor.nthreads(),
        ..RunStats::default()
    };
    let mut converged = false;
    let mut iteration = 0usize;
    // Counted once here; afterwards every APPLY hands the next count over.
    let mut active = state.active_count();
    // What the selector prices a pull at: every stored edge until the run
    // has pulled, then what `engine::superstep` makes of its last pull.
    let mut pull_edges = traversal.edge_total();

    loop {
        if let Some(max) = options.max_iterations {
            if iteration >= max {
                break;
            }
        }
        // The barrier between supersteps is the cancellation point: a run
        // can overshoot its deadline by at most one superstep, and the
        // completed supersteps' results stay in the state (a pooled state's
        // next run re-initialises anyway).
        if let Some(deadline) = options.deadline {
            if Instant::now() >= deadline {
                return Err(GraphMatError::DeadlineExceeded);
            }
        }
        if active == 0 {
            converged = true;
            break;
        }

        let mut step = superstep(
            traversal,
            state,
            program,
            executor,
            active,
            &mut pull_edges,
            ws,
        );
        step.iteration = iteration;
        step.vertices_updated = ws.reduced().nnz();
        (step.apply_time, step.vertices_changed) =
            apply_phase(program, state, ws.reduced(), executor);

        // Fixed-iteration algorithms (PageRank, gradient-descent CF) need
        // every vertex to rebroadcast each superstep even when its own state
        // did not change; frontier algorithms activate only changed vertices.
        active = step.vertices_changed;
        if options.activity == ActivityPolicy::AlwaysAll && active > 0 {
            state.set_all_active();
            active = state.num_vertices();
        }

        stats.record(step, options.record_supersteps);
        program.on_superstep_end(iteration, step.vertices_changed);
        iteration += 1;
    }

    Ok(RunResult { stats, converged })
}

/// APPLY the reduced values to their vertices and store the next active set
/// — exactly the vertices whose property changed — into the state, word by
/// word. Returns `(apply_time, vertices_changed)`.
fn apply_phase<P: GraphProgram>(
    program: &P,
    state: &mut VertexState<P::VertexProp>,
    reduced: &SparseVector<P::Reduced>,
    executor: &Executor,
) -> (Duration, usize) {
    let apply_start = Instant::now();
    let valid = reduced.valid_bits().words();
    let values = reduced.raw_values();
    let (props, active) = state.apply_parts();
    let n = props.len();
    let props = DisjointSlice::new(props, "APPLY property");
    let active = DisjointSlice::new(active, "APPLY active word");
    let changed = AtomicUsize::new(0);
    let ch = phase_chunks(valid.len(), reduced.nnz(), executor);
    executor.for_each_dynamic(ch.count(), |chunk_idx| {
        let (word_start, word_end) = ch.bounds(chunk_idx);
        let base = word_start * WORD_BITS;
        // SAFETY: each chunk is handed out exactly once and chunks partition
        // the word index space, so this task alone carves active words
        // `[word_start, word_end)` and the properties they cover.
        let (next_active, props) = unsafe {
            (
                active.range(word_start, word_end),
                props.range(base, (word_end * WORD_BITS).min(n)),
            )
        };
        let values = &values[base..base + props.len()];
        let mut local_changed = 0usize;
        for (w, next_word) in next_active.iter_mut().enumerate() {
            // `reduced`'s bits past the last vertex are clear, so the word
            // stored into the active set keeps its tail clear too.
            let mut pending = valid[word_start + w];
            let mut changed_bits = 0u64;
            while pending != 0 {
                let bit = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let i = w * WORD_BITS + bit;
                let slot = &mut props[i];
                let old = slot.clone();
                program.apply(&values[i], slot);
                // The law of `GraphProgram::receives`, checked on real
                // traffic: a push delivers to rows a pull would skip.
                debug_assert!(
                    *slot == old || program.receives(&old),
                    "GraphProgram::receives turned away vertex {} although APPLY changes it",
                    base + i
                );
                changed_bits |= u64::from(*slot != old) << bit;
            }
            *next_word = changed_bits;
            local_changed += changed_bits.count_ones() as usize;
        }
        changed.fetch_add(local_changed, Ordering::Relaxed);
    });
    (apply_start.elapsed(), changed.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{EdgeDirection, VertexId};
    use crate::topology::{GraphBuildOptions, Topology};
    use graphmat_io::edgelist::EdgeList;

    /// SSSP, as in the paper's appendix listing.
    struct Sssp;

    impl GraphProgram for Sssp {
        type VertexProp = f32;
        type Message = f32;
        type Reduced = f32;
        type Edge = f32;

        fn direction(&self) -> EdgeDirection {
            EdgeDirection::Out
        }

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

    fn figure3_topology() -> Topology<f32> {
        let el = EdgeList::from_tuples(
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
        );
        Topology::from_edge_list(&el, GraphBuildOptions::default().with_partitions(2))
    }

    /// SSSP from `source` over the Figure 3 graph with a fresh state and
    /// workspace: the final distances plus the run's result.
    fn sssp_from(
        source: Option<VertexId>,
        options: &RunOptions,
        executor: &Executor,
    ) -> (Vec<f32>, RunResult) {
        let topology = figure3_topology();
        let mut state: VertexState<f32> = VertexState::for_topology(&topology);
        state.set_all_properties(f32::MAX);
        if let Some(source) = source {
            state.set_property(source, 0.0);
            state.set_active(source);
        }
        let mut ws = Workspace::<Sssp>::new(state.num_vertices());
        let result = run_program(&Sssp, &topology, &mut state, options, executor, &mut ws).unwrap();
        (state.into_properties(), result)
    }

    #[test]
    fn sssp_converges_to_figure3_distances() {
        let (distances, result) =
            sssp_from(Some(0), &RunOptions::default(), &Executor::sequential());
        assert!(result.converged);
        // Final distances from A (paper Figure 3(d)): A=0, B=1, C=2, D=2, E=4
        assert_eq!(distances, vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        assert!(result.stats.iterations >= 3);
    }

    #[test]
    fn iteration_limit_is_respected() {
        let (distances, result) = sssp_from(
            Some(0),
            &RunOptions::default().with_max_iterations(1),
            &Executor::sequential(),
        );
        assert!(!result.converged);
        assert_eq!(result.stats.iterations, 1);
        // only A's direct neighbours have been relaxed
        assert_eq!(distances[4], f32::MAX);
    }

    #[test]
    fn empty_active_set_converges_immediately() {
        let (_, result) = sssp_from(None, &RunOptions::default(), &Executor::sequential());
        assert!(result.converged);
        assert_eq!(result.stats.iterations, 0);
    }

    #[test]
    fn parallel_and_sequential_agree_and_one_executor_serves_many_runs() {
        let options = RunOptions::default();
        let (sequential, _) = sssp_from(Some(0), &options, &Executor::sequential());
        let executor = Executor::new(4);
        let (first, result) = sssp_from(Some(0), &options, &executor);
        let (second, _) = sssp_from(Some(0), &options, &executor);
        assert_eq!(result.stats.nthreads, 4);
        assert_eq!(sequential, first);
        assert_eq!(first, second);
    }

    #[test]
    fn stats_capture_superstep_detail() {
        let (_, result) = sssp_from(Some(0), &RunOptions::default(), &Executor::sequential());
        assert_eq!(result.stats.supersteps.len(), result.stats.iterations);
        assert_eq!(result.stats.nthreads, 1);
        let first = &result.stats.supersteps[0];
        assert_eq!(first.active_vertices, 1);
        assert_eq!(first.messages_sent, 1);
        assert_eq!(first.edges_processed, 3);
        assert_eq!(first.vertices_updated, 3);
        assert!(result.stats.edges_processed >= 3);
    }

    #[test]
    fn cost_counters_do_not_depend_on_record_supersteps() {
        let executor = Executor::sequential();
        let (_, detailed) = sssp_from(Some(0), &RunOptions::default(), &executor);
        let quiet_options = RunOptions {
            record_supersteps: false,
            ..RunOptions::default()
        };
        let (_, quiet) = sssp_from(Some(0), &quiet_options, &executor);
        assert!(quiet.stats.supersteps.is_empty());
        assert!(!detailed.stats.supersteps.is_empty());
        assert!(detailed.stats.vertices_updated > detailed.stats.iterations as u64);
        assert_eq!(
            detailed.stats.to_cost_counters(4),
            quiet.stats.to_cost_counters(4)
        );
    }

    #[test]
    fn run_program_rejects_mismatched_state() {
        let topology = figure3_topology();
        let mut wrong: VertexState<f32> = VertexState::new(3);
        let options = RunOptions::default();
        let mut ws = Workspace::<Sssp>::new(topology.num_vertices() as usize);
        let err = run_program(
            &Sssp,
            &topology,
            &mut wrong,
            &options,
            &Executor::sequential(),
            &mut ws,
        )
        .unwrap_err();
        assert_eq!(
            err,
            GraphMatError::StateLengthMismatch {
                state_vertices: 3,
                topology_vertices: 5
            }
        );
    }

    #[test]
    fn run_program_rejects_a_workspace_of_another_size() {
        let topology = figure3_topology();
        let mut state: VertexState<f32> = VertexState::for_topology(&topology);
        let err = run_program(
            &Sssp,
            &topology,
            &mut state,
            &RunOptions::default(),
            &Executor::sequential(),
            &mut Workspace::<Sssp>::new(4),
        )
        .unwrap_err();
        assert!(matches!(err, GraphMatError::InvalidParameter(_)), "{err}");
    }

    /// The first superstep pushes (one message), so the neighbours of the
    /// source are delivered to although `receives` turned them away — a lie:
    /// APPLY improves their distances.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "GraphProgram::receives turned away vertex 1")]
    fn a_receives_that_lies_is_caught_where_push_delivers() {
        struct DeafSssp;

        impl GraphProgram for DeafSssp {
            type VertexProp = f32;
            type Message = f32;
            type Reduced = f32;
            type Edge = f32;

            fn send_message(&self, v: VertexId, dist: &f32) -> Option<f32> {
                Sssp.send_message(v, dist)
            }

            fn process_message(&self, msg: &f32, edge: &f32, dst: &f32) -> f32 {
                Sssp.process_message(msg, edge, dst)
            }

            fn reduce(&self, acc: &mut f32, value: f32) {
                Sssp.reduce(acc, value)
            }

            fn apply(&self, reduced: &f32, dist: &mut f32) {
                Sssp.apply(reduced, dist)
            }

            fn receives(&self, _dist: &f32) -> bool {
                false
            }
        }

        let topology = figure3_topology();
        let mut state: VertexState<f32> = VertexState::for_topology(&topology);
        state.set_all_properties(f32::MAX);
        state.set_property(0, 0.0);
        state.set_active(0);
        let mut ws = Workspace::<DeafSssp>::new(state.num_vertices());
        let (options, executor) = (RunOptions::default(), Executor::sequential());
        let _ = run_program(
            &DeafSssp, &topology, &mut state, &options, &executor, &mut ws,
        );
    }

    /// PageRank-style program where every vertex is active every iteration;
    /// exercises the parallel APPLY path on a slightly larger graph.
    struct Rank;

    impl GraphProgram for Rank {
        type VertexProp = f64;
        type Message = f64;
        type Reduced = f64;
        type Edge = f32;

        fn send_message(&self, _v: VertexId, rank: &f64) -> Option<f64> {
            Some(*rank)
        }

        fn process_message(&self, msg: &f64, _edge: &f32, _dst: &f64) -> f64 {
            *msg
        }

        fn reduce(&self, acc: &mut f64, value: f64) {
            *acc += value;
        }

        fn apply(&self, reduced: &f64, rank: &mut f64) {
            *rank = 0.15 + 0.85 * *reduced;
        }
    }

    #[test]
    fn parallel_apply_matches_sequential_on_larger_graph() {
        use graphmat_io::rmat::{self, RmatConfig};
        let el = rmat::generate(&RmatConfig::graph500(10).with_seed(11));
        let topology =
            Topology::from_edge_list(&el, GraphBuildOptions::default().with_partitions(16));
        let options = RunOptions::default().with_max_iterations(3);

        let run = |threads: usize| {
            let mut state: VertexState<f64> = VertexState::for_topology(&topology);
            state.set_all_properties(1.0);
            state.set_all_active();
            let mut ws = Workspace::<Rank>::new(state.num_vertices());
            run_program(
                &Rank,
                &topology,
                &mut state,
                &options,
                &Executor::new(threads),
                &mut ws,
            )
            .unwrap();
            state.into_properties()
        };

        let seq = run(1);
        let par = run(4);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn shared_topology_serves_two_states_without_cloning() {
        use std::sync::Arc;
        let topology = Arc::new(figure3_topology());
        let options = RunOptions::default();
        let executor = Executor::sequential();

        let run_from = |source: VertexId| {
            let mut state: VertexState<f32> = VertexState::for_topology(&topology);
            state.set_all_properties(f32::MAX);
            state.set_property(source, 0.0);
            state.set_active(source);
            let mut ws = Workspace::<Sssp>::new(topology.num_vertices() as usize);
            run_program(&Sssp, &topology, &mut state, &options, &executor, &mut ws).unwrap();
            state.into_properties()
        };

        // Two different queries over the SAME topology instance.
        assert_eq!(run_from(0), vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        assert_eq!(run_from(1), vec![9.0, 0.0, 1.0, 3.0, 5.0]);
    }
}
