//! Degree computation as a generalized SpMV (the paper's Figure 1 example).
//!
//! Multiplying `Gᵀ` by the all-ones vector yields in-degrees; multiplying `G`
//! by all-ones yields out-degrees. Expressed as a vertex program: every
//! vertex is active, sends the message `1`, `PROCESS_MESSAGE` is the constant
//! `1`, `REDUCE` is `+`, and `APPLY` stores the sum. The module exists partly
//! as the simplest possible example of the framework and partly so tests can
//! cross-check the engine against [`graphmat_core::Topology`]'s own degree
//! bookkeeping.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{
    EdgeDirection, GraphProgram, GraphView, RunResult, Session, VertexId, VertexState,
};

/// Degree-counting vertex program; the direction field selects which matrix
/// is traversed. Generic over the (ignored) edge type.
struct DegreeProgram<E> {
    direction: EdgeDirection,
    _edge: std::marker::PhantomData<E>,
}

impl<E: Clone + Send + Sync> GraphProgram for DegreeProgram<E> {
    type VertexProp = u64;
    type Message = u64;
    type Reduced = u64;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        self.direction
    }

    fn send_message(&self, _v: VertexId, _prop: &u64) -> Option<u64> {
        Some(1)
    }

    fn process_message(&self, _msg: &u64, _edge: &E, _dst: &u64) -> u64 {
        1
    }

    fn reduce(&self, acc: &mut u64, value: u64) {
        *acc += value;
    }

    fn apply(&self, reduced: &u64, prop: &mut u64) {
        *prop = *reduced;
    }
}

/// The degree SpMV along `direction` into a caller-owned state.
fn degrees_into<E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: GraphView<'_, E>,
    direction: EdgeDirection,
    deadline: Option<std::time::Instant>,
    state: &mut VertexState<u64>,
) -> Result<RunResult> {
    let program = DegreeProgram {
        direction,
        _edge: std::marker::PhantomData::<E>,
    };
    session
        .run(view, program)
        // A pooled state may carry the previous query's counts; the degree
        // SpMV overwrites only vertices that receive a message, so isolated
        // vertices must be zeroed explicitly.
        .init_all(0)
        .activate_all()
        .max_iterations(1)
        .deadline(deadline)
        .execute_with(state)
}

/// [`degrees_into`] on a fresh state. The single superstep is the whole
/// computation, so the run counts as converged.
fn degrees_on<E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: GraphView<'_, E>,
    direction: EdgeDirection,
) -> Result<AlgorithmOutput<u64>> {
    crate::run_fresh(
        view,
        |state| {
            let result = degrees_into(session, view, direction, None, state)?;
            Ok(RunResult {
                converged: true,
                ..result
            })
        },
        |degree| degree,
    )
}

/// In-degree of every vertex, computed as `Gᵀ · 1` (Figure 1 of the paper),
/// over a pre-built graph through a [`Session`].
pub fn in_degrees_on<'a, E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
) -> Result<AlgorithmOutput<u64>> {
    degrees_on(session, view.into(), EdgeDirection::Out)
}

/// Out-degree of every vertex, computed as `G · 1`, over a pre-built graph
/// through a [`Session`]. The out-degree SpMV traverses `G`, which the
/// topology derives from its stored `Gᵀ` the first time it is asked for.
pub fn out_degrees_on<'a, E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
) -> Result<AlgorithmOutput<u64>> {
    degrees_on(session, view.into(), EdgeDirection::In)
}

/// In-degrees into a caller-owned (pooled) state — the serving hot path
/// (zero per-query allocation in the steady state; see
/// [`graphmat_core::StatePool`]).
pub fn in_degrees_into<'a, E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
    deadline: Option<std::time::Instant>,
    state: &mut VertexState<u64>,
) -> Result<RunResult> {
    degrees_into(session, view.into(), EdgeDirection::Out, deadline, state)
}

/// Out-degrees into a caller-owned (pooled) state — the serving hot path
/// (zero per-query allocation in the steady state; see
/// [`graphmat_core::StatePool`]; the first call on a topology is the one
/// that derives `G`, like [`out_degrees_on`]).
pub fn out_degrees_into<'a, E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
    deadline: Option<std::time::Instant>,
    state: &mut VertexState<u64>,
) -> Result<RunResult> {
    degrees_into(session, view.into(), EdgeDirection::In, deadline, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmat_io::edgelist::EdgeList;

    fn figure1_graph() -> EdgeList<()> {
        // Figure 1: A->B, A->C, B->C, C->D  (A=0, B=1, C=2, D=3)
        EdgeList::from_pairs(4, vec![(0, 1), (0, 2), (1, 2), (2, 3)])
    }

    #[test]
    fn figure1_degrees_in_a_single_superstep() {
        let el = figure1_graph();
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();
        let ins = in_degrees_on(&session, &topo).unwrap();
        let outs = out_degrees_on(&session, &topo).unwrap();
        assert_eq!(ins.values, vec![0, 1, 2, 1]);
        assert_eq!(outs.values, vec![2, 1, 1, 0]);
        assert_eq!(ins.stats.iterations, 1);
        assert!(ins.converged);
    }

    #[test]
    fn matches_edge_list_bookkeeping_on_random_graph() {
        let el = graphmat_io::uniform::generate(
            &graphmat_io::uniform::UniformConfig::new(128, 1024).with_seed(2),
        );
        let session = Session::with_threads(2).unwrap();
        let topo = session.build_graph(&el).finish().unwrap();
        let ins = in_degrees_on(&session, &topo).unwrap();
        let outs = out_degrees_on(&session, &topo).unwrap();
        let expect_in: Vec<u64> = el.in_degrees().iter().map(|&d| d as u64).collect();
        let expect_out: Vec<u64> = el.out_degrees().iter().map(|&d| d as u64).collect();
        assert_eq!(ins.values, expect_in);
        assert_eq!(outs.values, expect_out);
    }

    #[test]
    fn pooled_driver_matches_and_clears_stale_counts() {
        let el = figure1_graph();
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();

        let mut pool = graphmat_core::StatePool::for_topology(&topo);
        let mut state = pool.acquire();
        in_degrees_into(&session, &topo, None, &mut state).unwrap();
        assert_eq!(state.properties(), vec![0, 1, 2, 1]);
        pool.release(state);

        // Vertex A (in-degree 0) receives no message; a recycled state must
        // not leak the previous query's count into it.
        let mut state = pool.acquire();
        out_degrees_into(&session, &topo, None, &mut state).unwrap();
        assert_eq!(state.properties(), vec![2, 1, 1, 0]);
        pool.release(state);
        let mut state = pool.acquire();
        in_degrees_into(&session, &topo, None, &mut state).unwrap();
        assert_eq!(state.properties(), vec![0, 1, 2, 1]);
        assert_eq!((pool.created(), pool.reused()), (1, 2));
    }
}
