//! Connected components by label propagation (extension beyond the paper's
//! five algorithms).
//!
//! Every vertex starts with its own id as its component label; each superstep
//! it broadcasts its label and adopts the minimum label it hears. On a
//! symmetrized graph this converges to the minimum vertex id of each
//! connected component. The program demonstrates that new algorithms need
//! only a `GraphProgram` implementation — no backend changes — which is the
//! paper's productivity claim.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{
    ActivityPolicy, EdgeDirection, GraphProgram, GraphView, RunResult, Session, VertexId,
    VertexState,
};
use graphmat_io::edgelist::EdgeList;

/// The label-propagation vertex program. Generic over the (ignored) edge
/// type; `CcProgram<()>` is the unweighted fast path.
pub struct CcProgram<E = ()> {
    _edge: std::marker::PhantomData<E>,
}

impl<E> Default for CcProgram<E> {
    fn default() -> Self {
        CcProgram {
            _edge: std::marker::PhantomData,
        }
    }
}

impl<E: Clone + Send + Sync> GraphProgram for CcProgram<E> {
    type VertexProp = u32;
    type Message = u32;
    type Reduced = u32;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, label: &u32) -> Option<u32> {
        Some(*label)
    }

    fn process_message(&self, msg: &u32, _edge: &E, _dst: &u32) -> u32 {
        *msg
    }

    fn reduce(&self, acc: &mut u32, value: u32) {
        if value < *acc {
            *acc = value;
        }
    }

    fn apply(&self, reduced: &u32, label: &mut u32) {
        if *reduced < *label {
            *label = *reduced;
        }
    }
}

/// Compute connected components over a pre-built graph through a
/// [`Session`]; the result maps every vertex to the minimum vertex id in its
/// component: [`connected_components_into`] on a fresh state.
///
/// Connected components are defined on the undirected graph, so build the
/// topology from a **symmetrized** edge list
/// (`session.build_graph(&edges.symmetrized()).finish()?`);
/// no preprocessing happens here. Over a view with pending edits labels
/// propagate over the **edited** graph, bit-for-bit identical to a run
/// against a rebuilt topology.
pub fn connected_components_on<'a, E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
) -> Result<AlgorithmOutput<u32>> {
    let view = view.into();
    crate::run_fresh(
        view,
        |state| connected_components_into(session, view, None, state),
        |label| label,
    )
}

/// Run connected components into a caller-owned (pooled) state — the
/// serving hot path.
///
/// Zero per-query allocation in the steady state: the labels are left in
/// `state` instead of a fresh `Vec`, and the engine workspace cached inside
/// the state is recycled. Use one [`graphmat_core::StatePool`] per program
/// type (see its docs); pass a `deadline` to bound wall-clock time
/// ([`graphmat_core::GraphMatError::DeadlineExceeded`] past it).
pub fn connected_components_into<'a, E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
    deadline: Option<std::time::Instant>,
    state: &mut VertexState<u32>,
) -> Result<RunResult> {
    session
        .run(view, CcProgram::<E>::default())
        .init_with(&|v| v)
        .activate_all()
        // Label propagation must run until no label changes; don't let
        // session run defaults truncate or over-activate it.
        .activity(ActivityPolicy::Changed)
        .until_convergence()
        .deadline(deadline)
        .execute_with(state)
}

/// Number of distinct components in a label assignment.
pub fn component_count(labels: &[u32]) -> usize {
    let mut sorted: Vec<u32> = labels.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Union-find reference implementation used by tests.
pub fn connected_components_reference<E>(edges: &EdgeList<E>) -> Vec<u32> {
    let n = edges.num_vertices() as usize;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for &(s, d, _) in edges.edges() {
        let (rs, rd) = (find(&mut parent, s as usize), find(&mut parent, d as usize));
        if rs != rd {
            parent[rs.max(rd)] = rs.min(rd);
        }
    }
    // canonical label: minimum id in the component
    let mut label = vec![0u32; n];
    for (v, slot) in label.iter_mut().enumerate() {
        *slot = find(&mut parent, v) as u32;
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Components of the symmetrized `el`, on `threads` lanes.
    fn components<E: Clone + Send + Sync + 'static>(
        el: &EdgeList<E>,
        threads: usize,
    ) -> AlgorithmOutput<u32> {
        let session = Session::with_threads(threads).unwrap();
        let topo = session.build_graph(&el.symmetrized()).finish().unwrap();
        connected_components_on(&session, &topo).unwrap()
    }

    #[test]
    fn two_components() {
        let el = EdgeList::from_pairs(6, vec![(0, 1), (1, 2), (3, 4)]);
        let out = components(&el, 1);
        assert_eq!(out.values, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(component_count(&out.values), 3);
        assert!(out.converged);
    }

    #[test]
    fn matches_union_find_reference() {
        let el = graphmat_io::uniform::generate(
            &graphmat_io::uniform::UniformConfig::new(300, 400).with_seed(13),
        );
        let out = components(&el, 4);
        let reference = connected_components_reference(&el);
        assert_eq!(out.values, reference);
    }

    #[test]
    fn pooled_driver_matches_and_reruns_identically() {
        let el = EdgeList::from_pairs(6, vec![(0, 1), (1, 2), (3, 4)]);
        let session = Session::sequential();
        let topo = session.build_graph(&el.symmetrized()).finish().unwrap();
        let on = connected_components_on(&session, &topo).unwrap();

        let mut pool = graphmat_core::StatePool::for_topology(&topo);
        let mut state = pool.acquire();
        connected_components_into(&session, &topo, None, &mut state).unwrap();
        assert_eq!(state.properties(), on.values.as_slice());
        pool.release(state);

        let mut state = pool.acquire();
        connected_components_into(&session, &topo, None, &mut state).unwrap();
        assert_eq!(state.properties(), on.values.as_slice());
        assert!(state.has_cached_workspace());
        assert_eq!((pool.created(), pool.reused()), (1, 1));
    }

    #[test]
    fn single_component_on_connected_graph() {
        let el = graphmat_io::grid::generate(&graphmat_io::grid::GridConfig {
            removal_fraction: 0.0,
            ..graphmat_io::grid::GridConfig::square(12)
        });
        let out = components(&el, 1);
        assert_eq!(component_count(&out.values), 1);
        assert!(out.values.iter().all(|&l| l == 0));
    }

    #[test]
    fn directionality_is_ignored_via_symmetrization() {
        // directed chain 2 -> 1 -> 0: still one component
        let el = EdgeList::from_pairs(3, vec![(2, 1), (1, 0)]);
        assert_eq!(component_count(&components(&el, 1).values), 1);
    }
}
