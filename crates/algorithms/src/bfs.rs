//! Breadth-First Search as a GraphMat vertex program.
//!
//! The paper's formulation (§3-II): the root gets distance 0 and is active;
//! at iteration `t` every vertex adjacent to an active vertex computes
//! `Distance(v) = min(Distance(v), t + 1)`, and vertices whose distance
//! changed (from ∞) become active. BFS runs on the symmetrized, unweighted
//! graph (§5.1).
//!
//! The program never reads edge values, so it is generic over the edge type
//! `E`. Running it on an `EdgeList<()>` takes the zero-cost unweighted fast
//! path: the DCSC matrices store no edge values, saving 4 bytes/edge of
//! memory traffic versus an `f32`-weighted graph of the same topology.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{
    ActivityPolicy, EdgeDirection, GraphProgram, RunResult, Session, Topology, VertexId,
    VertexState,
};
use graphmat_io::edgelist::EdgeList;

/// Distance value meaning "not reached yet".
pub const UNREACHED: u32 = u32::MAX;

/// The BFS vertex program. The vertex property is the current distance from
/// the root (`UNREACHED` if not discovered yet). Generic over the (ignored)
/// edge type; `BfsProgram<()>` is the unweighted fast path.
pub struct BfsProgram<E = ()> {
    _edge: std::marker::PhantomData<E>,
}

impl<E> Default for BfsProgram<E> {
    fn default() -> Self {
        BfsProgram {
            _edge: std::marker::PhantomData,
        }
    }
}

impl<E: Clone + Send + Sync> GraphProgram for BfsProgram<E> {
    type VertexProp = u32;
    type Message = u32;
    type Reduced = u32;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, dist: &u32) -> Option<u32> {
        Some(*dist)
    }

    fn process_message(&self, msg: &u32, _edge: &E, _dst: &u32) -> u32 {
        msg.saturating_add(1)
    }

    fn reduce(&self, acc: &mut u32, value: u32) {
        if value < *acc {
            *acc = value;
        }
    }

    fn apply(&self, reduced: &u32, dist: &mut u32) {
        if *reduced < *dist {
            *dist = *reduced;
        }
    }

    /// A reached vertex is done: the search is level-synchronous from roots
    /// at distance 0, so every message still to come carries a level above
    /// any distance already set and `apply` would ignore it.
    fn receives(&self, dist: &u32) -> bool {
        *dist == UNREACHED
    }
}

/// Run BFS over a pre-built graph through a [`Session`] and return the
/// per-vertex hop distance from the root ([`UNREACHED`] for vertices in
/// other components): [`bfs_into`] on a fresh state.
///
/// Accepts any edge value type — weights are ignored; build the topology
/// from an `EdgeList<()>` for the unweighted fast path. No preprocessing
/// happens here: the paper runs BFS on the symmetrized graph, so build from
/// `edges.symmetrized()` if the search should ignore direction
/// (`session.build_graph(&edges.symmetrized()).finish()?`).
/// Over a view with pending edits the search traverses the **edited**
/// graph, bit-for-bit identical to a run against a rebuilt topology.
///
/// # Errors
///
/// [`graphmat_core::GraphMatError::VertexOutOfRange`] if `root` is not a
/// vertex of the graph.
pub fn bfs_on<E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: &Topology<E>,
    root: VertexId,
) -> Result<AlgorithmOutput<u32>> {
    crate::run_fresh(
        view,
        |state| bfs_into(session, view, root, None, state),
        |distance| distance,
    )
}

/// Run BFS into a caller-owned (pooled) state — the serving hot path.
///
/// Zero per-query allocation in the steady state: the hop distances are
/// left in `state` instead of a fresh `Vec`, and the engine workspace cached
/// inside the state is recycled. Use one [`graphmat_core::StatePool`] per
/// program type (see its docs); pass a `deadline` to bound wall-clock time
/// ([`graphmat_core::GraphMatError::DeadlineExceeded`] past it).
pub fn bfs_into<E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: &Topology<E>,
    root: VertexId,
    deadline: Option<std::time::Instant>,
    state: &mut VertexState<u32>,
) -> Result<RunResult> {
    session
        .run(view, BfsProgram::<E>::default())
        .init_all(UNREACHED)
        .seed_with(root, 0)
        // BFS semantics are fixed: frontier-driven, run to convergence —
        // session-wide run defaults must not silently truncate or
        // over-activate the search.
        .activity(ActivityPolicy::Changed)
        .until_convergence()
        .deadline(deadline)
        .execute_with(state)
}

/// Queue-based reference BFS used by tests.
pub fn bfs_reference<E: Clone>(edges: &EdgeList<E>, root: VertexId, symmetrize: bool) -> Vec<u32> {
    let symmetric;
    let edges = if symmetrize {
        symmetric = edges.symmetrized();
        &symmetric
    } else {
        edges
    };
    let n = edges.num_vertices() as usize;
    let mut adj = vec![Vec::new(); n];
    for &(s, d, _) in edges.edges() {
        adj[s as usize].push(d as usize);
    }
    let mut dist = vec![UNREACHED; n];
    let mut queue = std::collections::VecDeque::new();
    dist[root as usize] = 0;
    queue.push_back(root as usize);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if dist[v] == UNREACHED {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with_branch() -> EdgeList<()> {
        // 0-1-2-3 chain plus branch 1-4; vertex 5 isolated
        EdgeList::from_pairs(6, vec![(0, 1), (1, 2), (2, 3), (1, 4)])
    }

    /// BFS over a freshly built out-edge topology of `el` as given.
    fn distances<E: Clone + Send + Sync + 'static>(
        el: &EdgeList<E>,
        root: VertexId,
        threads: usize,
    ) -> AlgorithmOutput<u32> {
        let session = Session::with_threads(threads).unwrap();
        let topo = session.build_graph(el).finish().unwrap();
        bfs_on(&session, &topo, root).unwrap()
    }

    #[test]
    fn distances_match_reference() {
        let el = chain_with_branch();
        let out = distances(&el.symmetrized(), 0, 1);
        assert_eq!(out.values, bfs_reference(&el, 0, true));
        assert_eq!(out.values, vec![0, 1, 2, 3, 2, UNREACHED]);
        assert!(out.converged);
    }

    #[test]
    fn symmetrization_makes_directed_edges_traversable_backwards() {
        let el = EdgeList::from_pairs(3, vec![(1, 0), (1, 2)]);
        // rooted at 0: without symmetrization nothing is reachable
        assert_eq!(distances(&el, 0, 1).values, vec![0, UNREACHED, UNREACHED]);
        assert_eq!(distances(&el.symmetrized(), 0, 1).values, vec![0, 1, 2]);
    }

    #[test]
    fn number_of_supersteps_equals_eccentricity() {
        let out = distances(&chain_with_branch().symmetrized(), 0, 1);
        // frontier advances one hop per superstep; final superstep discovers
        // nothing new, so iterations = max distance + 1
        assert_eq!(out.stats.iterations, 4);
    }

    #[test]
    fn out_of_range_root_is_an_error_not_a_panic() {
        let el = chain_with_branch();
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();
        assert_eq!(
            bfs_on(&session, &topo, 99).unwrap_err(),
            graphmat_core::GraphMatError::VertexOutOfRange {
                vertex: 99,
                num_vertices: 6
            }
        );
    }

    #[test]
    fn session_run_defaults_cannot_truncate_the_search() {
        // A session whose run defaults cap iterations at 1 (say, for
        // PageRank-style workloads) must not silently truncate a
        // convergence-driven driver: bfs_on pins its own termination.
        use graphmat_core::{RunOptions, SessionOptions};
        let session = Session::new(
            SessionOptions::default()
                .with_threads(1)
                .with_run_defaults(RunOptions::default().with_max_iterations(1)),
        )
        .unwrap();
        let el = chain_with_branch();
        let topo = session.build_graph(&el.symmetrized()).finish().unwrap();
        let out = bfs_on(&session, &topo, 0).unwrap();
        assert!(out.converged);
        assert_eq!(out.values, vec![0, 1, 2, 3, 2, UNREACHED]);
    }

    #[test]
    fn pooled_driver_matches_and_reruns_identically() {
        let el = chain_with_branch();
        let session = Session::sequential();
        let topo = session.build_graph(&el.symmetrized()).finish().unwrap();
        let on = bfs_on(&session, &topo, 0).unwrap();

        let mut pool = graphmat_core::StatePool::for_topology(&topo);
        let mut state = pool.acquire();
        bfs_into(&session, &topo, 0, None, &mut state).unwrap();
        assert_eq!(state.properties(), on.values.as_slice());
        pool.release(state);

        // Rerun from the pool: the stale distances must be re-initialized
        // and the cached workspace reused.
        let mut state = pool.acquire();
        bfs_into(&session, &topo, 1, None, &mut state).unwrap();
        let fresh = bfs_on(&session, &topo, 1).unwrap();
        assert_eq!(state.properties(), fresh.values.as_slice());
        assert!(state.has_cached_workspace());
        assert_eq!(pool.created(), 1);
        assert_eq!(pool.reused(), 1);
    }

    #[test]
    fn parallel_matches_sequential_on_rmat() {
        let el =
            graphmat_io::rmat::generate(&graphmat_io::rmat::RmatConfig::graph500(9).with_seed(21));
        let sym = el.symmetrized();
        let seq = distances(&sym, 1, 1);
        let par = distances(&sym, 1, 4);
        assert_eq!(seq.values, par.values);
        assert_eq!(seq.values, bfs_reference(&el, 1, true));
    }
}
