//! PageRank as a GraphMat vertex program.
//!
//! The paper's formulation (§3-I):
//!
//! ```text
//! PR_{t+1}(v) = r + (1 - r) * Σ_{u | (u,v) ∈ E}  PR_t(u) / degree(u)
//! ```
//!
//! with `r` the random-surf probability and `degree(u)` the out-degree of
//! `u`. Initial ranks are 1.0 and every vertex is active; each superstep is
//! one generalized SpMV with multiply = "take the incoming contribution" and
//! add = `+`. The paper reports time per iteration (Figure 4a), so the driver
//! runs a fixed number of iterations by default.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{
    ActivityPolicy, EdgeDirection, GraphProgram, GraphView, RunResult, Session, VertexId,
    VertexState,
};
use graphmat_io::edgelist::EdgeList;

/// PageRank parameters.
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Random-surf probability `r` (the paper's equation 1; 0.15 is the
    /// conventional value).
    pub random_surf: f64,
    /// Number of iterations to run (the paper reports time per iteration, so
    /// the iteration count is fixed rather than convergence-driven; see
    /// [`crate::delta_pagerank`] for the convergence-driven variant).
    pub iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            random_surf: 0.15,
            iterations: 20,
        }
    }
}

/// Per-vertex PageRank state: the current rank and the out-degree (cached so
/// SEND_MESSAGE can divide by it without a graph lookup, exactly as the
/// original GraphMat stores algorithm state in the vertex property).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PageRankVertex {
    /// Current rank estimate.
    pub rank: f64,
    /// Out-degree of the vertex.
    pub degree: u32,
}

/// The PageRank vertex program. Edge values are never read, so the program
/// is generic over the edge type; `PageRankProgram<()>` runs on unweighted
/// graphs with no edge value bytes in the matrix.
pub struct PageRankProgram<E = f32> {
    random_surf: f64,
    _edge: std::marker::PhantomData<E>,
}

impl<E> PageRankProgram<E> {
    /// The program with random-surf probability `random_surf`.
    pub fn new(random_surf: f64) -> Self {
        PageRankProgram {
            random_surf,
            _edge: std::marker::PhantomData,
        }
    }
}

impl<E: Clone + Send + Sync> GraphProgram for PageRankProgram<E> {
    type VertexProp = PageRankVertex;
    type Message = f64;
    type Reduced = f64;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    fn send_message(&self, _v: VertexId, prop: &PageRankVertex) -> Option<f64> {
        if prop.degree == 0 {
            None // dangling vertices contribute nothing
        } else {
            Some(prop.rank / prop.degree as f64)
        }
    }

    fn process_message(&self, msg: &f64, _edge: &E, _dst: &PageRankVertex) -> f64 {
        *msg
    }

    fn reduce(&self, acc: &mut f64, value: f64) {
        *acc += value;
    }

    fn apply(&self, reduced: &f64, prop: &mut PageRankVertex) {
        prop.rank = self.random_surf + (1.0 - self.random_surf) * reduced;
    }
}

/// Run PageRank over a pre-built graph through a [`Session`] and return the
/// per-vertex ranks: [`pagerank_into`] on a fresh state.
///
/// Ranks depend only on the structure, so any edge value type works and one
/// `Arc<Topology>` serves this and any other driver concurrently. Over a
/// view with pending edits the out-degrees each vertex divides its rank by
/// are the **edited** graph's, so the result is bit-for-bit identical to a
/// run against a topology rebuilt from the edited edge list. A
/// `config.iterations` of `0` returns the initial ranks (1.0 everywhere)
/// without running.
pub fn pagerank_on<'a, E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
    config: &PageRankConfig,
) -> Result<AlgorithmOutput<f64>> {
    let view = view.into();
    crate::run_fresh(
        view,
        |state| pagerank_into(session, view, config, None, state),
        |p| p.rank,
    )
}

/// Run PageRank into a caller-owned (pooled) state — the serving hot path.
///
/// Zero per-query allocation in the steady state: the final
/// [`PageRankVertex`] properties are left in `state` (read ranks with
/// `state.properties()[v].rank`) instead of being collected into a fresh
/// `Vec`, and the engine workspace cached inside the state is recycled.
/// Acquire/release the state through a [`graphmat_core::StatePool`]
/// dedicated to PageRank — the cached workspace is typed by the program, so
/// sharing one pool across programs would re-allocate it every query.
///
/// `deadline`, when given, bounds the run's wall-clock time
/// ([`graphmat_core::GraphMatError::DeadlineExceeded`] past it; the state
/// keeps the completed supersteps' partial ranks and stays safely
/// reusable). A `config.iterations` of `0` just writes the initial ranks.
pub fn pagerank_into<'a, E: Clone + Send + Sync + 'static>(
    session: &Session,
    view: impl Into<GraphView<'a, E>>,
    config: &PageRankConfig,
    deadline: Option<std::time::Instant>,
    state: &mut VertexState<PageRankVertex>,
) -> Result<RunResult> {
    /// Every vertex starts at rank 1.0 (the paper's initialisation).
    const INITIAL_RANK: f64 = 1.0;
    let view = view.into();
    // Borrowed, not cloned: the view's degree array is read in place.
    let degrees = view.out_degrees();
    let initial = |v: VertexId| PageRankVertex {
        rank: INITIAL_RANK,
        degree: degrees[v as usize],
    };
    if config.iterations == 0 {
        state.check_matches(view.topology())?;
        state.init_properties(initial);
        return Ok(crate::zero_superstep_result(view, session));
    }
    session
        .run(view, PageRankProgram::<E>::new(config.random_surf))
        .init_with(&initial)
        .activate_all()
        // every vertex rebroadcasts each iteration, as in the paper's
        // fixed-iteration PageRank runs
        .activity(ActivityPolicy::AlwaysAll)
        .max_iterations(config.iterations)
        .deadline(deadline)
        .execute_with(state)
}

/// Dense reference implementation used by tests: straightforward iteration of
/// the paper's equation 1 over an adjacency list.
pub fn pagerank_reference<E>(edges: &EdgeList<E>, random_surf: f64, iterations: usize) -> Vec<f64> {
    let n = edges.num_vertices() as usize;
    let degrees = edges.out_degrees();
    let mut ranks = vec![1.0f64; n];
    for _ in 0..iterations {
        let mut incoming = vec![0.0f64; n];
        for (u, v, _) in edges.edges() {
            if degrees[*u as usize] > 0 {
                incoming[*v as usize] += ranks[*u as usize] / degrees[*u as usize] as f64;
            }
        }
        for v in 0..n {
            // vertices with no in-edges keep rank = r + 0, but GraphMat only
            // applies to vertices that received a message — mirror that by
            // updating every vertex that has at least one in-edge
            ranks[v] = if incoming[v] > 0.0 || edges.in_degrees()[v] > 0 {
                random_surf + (1.0 - random_surf) * incoming[v]
            } else {
                ranks[v]
            };
        }
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_graph() -> EdgeList<()> {
        // 0 -> 1 -> 2 -> 0 plus 0 -> 2
        EdgeList::from_pairs(3, vec![(0, 1), (1, 2), (2, 0), (0, 2)])
    }

    /// PageRank on a freshly built out-edge topology with `threads` lanes.
    fn ranks<E: Clone + Send + Sync + 'static>(
        el: &EdgeList<E>,
        iterations: usize,
        threads: usize,
    ) -> AlgorithmOutput<f64> {
        let session = Session::with_threads(threads).unwrap();
        let topo = session.build_graph(el).finish().unwrap();
        let cfg = PageRankConfig {
            iterations,
            ..Default::default()
        };
        pagerank_on(&session, &topo, &cfg).unwrap()
    }

    #[test]
    fn matches_reference_on_small_graph() {
        let el = triangle_graph();
        let out = ranks(&el, 15, 1);
        let reference = pagerank_reference(&el, 0.15, 15);
        for (a, b) in out.values.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn ranks_reflect_link_structure() {
        // vertex 2 has two in-edges, vertices 0 and 1 have one each
        let out = ranks(&triangle_graph(), 20, 1);
        assert!(out.values[2] > out.values[1]);
        assert!(out.values[2] > out.values[0]);
    }

    #[test]
    fn runs_requested_number_of_iterations() {
        let out = ranks(&triangle_graph(), 7, 1);
        assert_eq!(out.stats.iterations, 7);
        assert!(!out.converged);
    }

    #[test]
    fn zero_iterations_returns_the_initial_ranks() {
        let out = ranks(&triangle_graph(), 0, 1);
        assert_eq!(out.values, vec![1.0; 3]);
        assert_eq!(out.stats.iterations, 0);
        assert!(out.stats.matrix_bytes > 0);
    }

    #[test]
    fn ranks_sum_stays_close_to_vertex_count() {
        // PageRank conserves total rank mass up to the dangling-vertex leak;
        // with no dangling vertices the sum stays ≈ n.
        let out = ranks(&triangle_graph(), 30, 1);
        let total: f64 = out.values.iter().sum();
        assert!((total - 3.0).abs() < 1e-6, "total rank {total}");
    }

    #[test]
    fn dangling_vertices_do_not_poison_ranks() {
        // vertex 3 has no out-edges
        let el = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 0), (0, 3)]);
        let out = ranks(&el, 20, 1);
        assert!(out.values.iter().all(|r| r.is_finite()));
        assert!(out.values[3] > 0.0);
    }

    #[test]
    fn pooled_driver_matches_and_reruns_identically() {
        let el = triangle_graph();
        let cfg = PageRankConfig {
            iterations: 15,
            ..Default::default()
        };
        let session = Session::sequential();
        let topo = session.build_graph(&el).finish().unwrap();
        let on = pagerank_on(&session, &topo, &cfg).unwrap();

        let mut pool = graphmat_core::StatePool::for_topology(&topo);
        let mut state = pool.acquire();
        pagerank_into(&session, &topo, &cfg, None, &mut state).unwrap();
        let ranks: Vec<f64> = state.properties().iter().map(|p| p.rank).collect();
        assert_eq!(ranks, on.values);
        pool.release(state);

        let mut state = pool.acquire();
        pagerank_into(&session, &topo, &cfg, None, &mut state).unwrap();
        let ranks: Vec<f64> = state.properties().iter().map(|p| p.rank).collect();
        assert_eq!(ranks, on.values);
        assert!(state.has_cached_workspace());
        assert_eq!((pool.created(), pool.reused()), (1, 1));
    }

    #[test]
    fn parallel_matches_sequential() {
        let el =
            graphmat_io::rmat::generate(&graphmat_io::rmat::RmatConfig::graph500(9).with_seed(77));
        let seq = ranks(&el, 5, 1);
        let par = ranks(&el, 5, 4);
        for (a, b) in seq.values.iter().zip(par.values.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
