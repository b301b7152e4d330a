//! GraphLab-style gather–apply–scatter (GAS) engine.
//!
//! GraphLab executes vertex programs directly over adjacency lists: each
//! (active) vertex *gathers* over its in-edges, *applies* the combined value,
//! and *scatters* activation to its neighbours. There is no global matrix
//! view, so none of GraphMat's structure-level optimizations apply, and the
//! per-edge work goes through a user-supplied closure held behind a trait
//! object (mirroring GraphLab's virtual `gather()` calls). The paper's
//! counter analysis (Figure 6) attributes GraphLab's gap to exactly this
//! instruction bloat — more instructions and stall cycles per edge — which is
//! the property this engine preserves. The engine also keeps GraphLab's
//! per-vertex scheduler bitmap, charged to the cost model as overhead.

use crate::BaselineRun;
use graphmat_io::bipartite::RatingsGraph;
use graphmat_io::edgelist::{EdgeList, EdgeWeight};
use graphmat_perf::CostCounters;
use graphmat_sparse::parallel::{chunks, Executor};
use graphmat_sparse::Index;
use std::marker::PhantomData;
use std::sync::Mutex;
use std::time::Instant;

/// Adjacency-list representation used by the GAS engine, generic over the
/// edge value type.
pub struct AdjacencyGraph<E = f32> {
    /// For every vertex, its in-neighbours and the value of the edge.
    pub in_edges: Vec<Vec<(Index, E)>>,
    /// For every vertex, its out-neighbours and the value of the edge.
    pub out_edges: Vec<Vec<(Index, E)>>,
}

impl<E: Clone> AdjacencyGraph<E> {
    /// Build the adjacency lists from an edge list.
    pub fn from_edges(edges: &EdgeList<E>) -> Self {
        let n = edges.num_vertices() as usize;
        let mut in_edges: Vec<Vec<(Index, E)>> = vec![Vec::new(); n];
        let mut out_edges: Vec<Vec<(Index, E)>> = vec![Vec::new(); n];
        for (s, d, w) in edges.edges() {
            out_edges[*s as usize].push((*d, w.clone()));
            in_edges[*d as usize].push((*s, w.clone()));
        }
        AdjacencyGraph {
            in_edges,
            out_edges,
        }
    }
}

impl<E> AdjacencyGraph<E> {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.in_edges.len()
    }
}

/// A GraphLab-style vertex program: gather over in-edges, apply, scatter.
/// The callbacks are invoked through `dyn` references, as GraphLab invokes
/// user code through virtual calls.
pub trait GasProgram: Sync {
    /// Per-vertex state.
    type State: Clone + Send + Sync;
    /// The gathered/accumulated type.
    type Gather: Clone + Send + Sync;
    /// The edge value type of the graphs this program gathers over.
    type Edge: Clone + Send + Sync;

    /// Neutral element of the gather sum.
    fn gather_init(&self) -> Self::Gather;
    /// Gather contribution of in-edge `(src → v)`.
    fn gather(
        &self,
        src_state: &Self::State,
        edge: &Self::Edge,
        v_state: &Self::State,
    ) -> Self::Gather;
    /// Combine two gather values.
    fn combine(&self, acc: &mut Self::Gather, value: Self::Gather);
    /// Apply the combined gather value; return `true` if the vertex changed
    /// (its out-neighbours are then activated for the next round).
    fn apply(&self, gathered: &Self::Gather, state: &mut Self::State) -> bool;
}

/// Run a GAS program round-based until no vertex is active or the iteration
/// cap is hit. Returns the final states and cost counters.
///
/// `keep_all_active` models GraphLab's "signal everything each round" usage
/// for fixed-iteration algorithms (PageRank, gradient-descent CF): every
/// vertex keeps broadcasting regardless of whether its own state changed.
pub fn run_gas<P: GasProgram>(
    graph: &AdjacencyGraph<P::Edge>,
    program: &P,
    mut states: Vec<P::State>,
    initial_active: Vec<bool>,
    max_iterations: Option<usize>,
    keep_all_active: bool,
    nthreads: usize,
) -> (Vec<P::State>, CostCounters, usize) {
    let n = graph.num_vertices();
    let executor = Executor::new(nthreads.max(1));
    let mut active = initial_active;
    let mut counters = CostCounters::new();
    let mut iterations = 0usize;

    while active.iter().any(|&a| a) {
        if let Some(cap) = max_iterations {
            if iterations >= cap {
                break;
            }
        }
        iterations += 1;

        // Which vertices need to gather this round: those with at least one
        // active in-neighbour (GraphLab's scheduler propagates signals along
        // out-edges; scanning the bitmap is scheduler overhead).
        let mut to_run: Vec<usize> = Vec::new();
        for v in 0..n {
            counters.add_overhead(1); // scheduler bitmap scan
            let signalled = graph.in_edges[v].iter().any(|&(u, _)| active[u as usize]);
            if signalled {
                to_run.push(v);
            }
        }

        let snapshot = states.clone();
        counters.add_overhead(n as u64); // state snapshot copy (BSP-consistency)
        let results = Mutex::new(Vec::<(usize, P::State, bool)>::with_capacity(to_run.len()));
        // dyn-dispatched callbacks, as GraphLab's engine would perform them
        #[allow(clippy::type_complexity)]
        let gather_dyn: &(dyn Fn(&P::State, &P::Edge, &P::State) -> P::Gather + Sync) =
            &|s, e, d| program.gather(s, e, d);
        let combine_dyn: &(dyn Fn(&mut P::Gather, P::Gather) + Sync) =
            &|acc, v| program.combine(acc, v);

        let ch = chunks(to_run.len(), executor.nthreads());
        executor.for_each_dynamic(ch.count(), |c| {
            let (lo, hi) = ch.bounds(c);
            let mut local = Vec::with_capacity(hi - lo);
            for &v in &to_run[lo..hi] {
                let mut acc = program.gather_init();
                for (u, w) in &graph.in_edges[v] {
                    if active[*u as usize] {
                        let contrib = gather_dyn(&snapshot[*u as usize], w, &snapshot[v]);
                        combine_dyn(&mut acc, contrib);
                    }
                }
                let mut state = snapshot[v].clone();
                let changed = program.apply(&acc, &mut state);
                local.push((v, state, changed));
            }
            results
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .extend(local);
        });

        let results = results
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        counters.add_edge_ops(to_run.iter().map(|&v| graph.in_edges[v].len() as u64).sum());
        counters.add_messages(results.len() as u64);
        counters.add_vertex_ops(results.len() as u64);
        counters.add_bytes_read(
            to_run
                .iter()
                .map(|&v| graph.in_edges[v].len() as u64 * 16)
                .sum(),
        );

        let mut next_active = vec![keep_all_active; n];
        for (v, state, changed) in results {
            states[v] = state;
            if changed && !keep_all_active {
                next_active[v] = true;
            }
        }
        active = next_active;
    }
    (states, counters, iterations)
}

/// PageRank under the GAS engine.
pub fn pagerank<E: Clone + Send + Sync>(
    edges: &EdgeList<E>,
    random_surf: f64,
    iterations: usize,
    nthreads: usize,
) -> BaselineRun<f64> {
    struct Pr<E> {
        random_surf: f64,
        _edge: PhantomData<E>,
    }
    #[derive(Clone)]
    struct State {
        rank: f64,
        degree: u32,
    }
    impl<E: Clone + Send + Sync> GasProgram for Pr<E> {
        type State = State;
        type Gather = f64;
        type Edge = E;
        fn gather_init(&self) -> f64 {
            0.0
        }
        fn gather(&self, src: &State, _e: &E, _v: &State) -> f64 {
            if src.degree > 0 {
                src.rank / src.degree as f64
            } else {
                0.0
            }
        }
        fn combine(&self, acc: &mut f64, v: f64) {
            *acc += v;
        }
        fn apply(&self, gathered: &f64, state: &mut State) -> bool {
            // vertices whose in-neighbours are all dangling receive nothing
            // and keep their rank, matching the message-driven engines
            if *gathered > 0.0 {
                state.rank = self.random_surf + (1.0 - self.random_surf) * gathered;
            }
            true // every vertex keeps signalling (fixed-iteration PageRank)
        }
    }

    let graph = AdjacencyGraph::from_edges(edges);
    let degrees = edges.out_degrees();
    let states: Vec<State> = (0..graph.num_vertices())
        .map(|v| State {
            rank: 1.0,
            degree: degrees[v] as u32,
        })
        .collect();
    let start = Instant::now();
    let (states, counters, iters) = run_gas(
        &graph,
        &Pr {
            random_surf,
            _edge: PhantomData,
        },
        states,
        vec![true; graph.num_vertices()],
        Some(iterations),
        true,
        nthreads,
    );
    BaselineRun {
        values: states.iter().map(|s| s.rank).collect(),
        elapsed: start.elapsed(),
        counters,
        iterations: iters,
    }
}

/// BFS under the GAS engine. Any edge type works, including `()`.
pub fn bfs<E: Clone + Send + Sync>(
    edges: &EdgeList<E>,
    root: Index,
    nthreads: usize,
) -> BaselineRun<u32> {
    struct Bfs<E>(PhantomData<E>);
    impl<E: Clone + Send + Sync> GasProgram for Bfs<E> {
        type State = u32;
        type Gather = u32;
        type Edge = E;
        fn gather_init(&self) -> u32 {
            u32::MAX
        }
        fn gather(&self, src: &u32, _e: &E, _v: &u32) -> u32 {
            src.saturating_add(1)
        }
        fn combine(&self, acc: &mut u32, v: u32) {
            *acc = (*acc).min(v);
        }
        fn apply(&self, gathered: &u32, state: &mut u32) -> bool {
            if *gathered < *state {
                *state = *gathered;
                true
            } else {
                false
            }
        }
    }

    let sym = edges.symmetrized();
    let graph = AdjacencyGraph::from_edges(&sym);
    let mut states = vec![u32::MAX; graph.num_vertices()];
    states[root as usize] = 0;
    let mut active = vec![false; graph.num_vertices()];
    active[root as usize] = true;
    let start = Instant::now();
    let (states, counters, iters) = run_gas(
        &graph,
        &Bfs(PhantomData),
        states,
        active,
        None,
        false,
        nthreads,
    );
    BaselineRun {
        values: states,
        elapsed: start.elapsed(),
        counters,
        iterations: iters,
    }
}

/// SSSP under the GAS engine. Accepts any scalar-readable edge weight type.
pub fn sssp<E: EdgeWeight>(
    edges: &EdgeList<E>,
    source: Index,
    nthreads: usize,
) -> BaselineRun<f32> {
    struct Sssp<E>(PhantomData<E>);
    impl<E: EdgeWeight> GasProgram for Sssp<E> {
        type State = f32;
        type Gather = f32;
        type Edge = E;
        fn gather_init(&self) -> f32 {
            f32::MAX
        }
        fn gather(&self, src: &f32, e: &E, _v: &f32) -> f32 {
            if *src == f32::MAX {
                f32::MAX
            } else {
                src + e.weight()
            }
        }
        fn combine(&self, acc: &mut f32, v: f32) {
            *acc = acc.min(v);
        }
        fn apply(&self, gathered: &f32, state: &mut f32) -> bool {
            if *gathered < *state {
                *state = *gathered;
                true
            } else {
                false
            }
        }
    }

    let graph = AdjacencyGraph::from_edges(edges);
    let mut states = vec![f32::MAX; graph.num_vertices()];
    states[source as usize] = 0.0;
    let mut active = vec![false; graph.num_vertices()];
    active[source as usize] = true;
    let start = Instant::now();
    let (states, counters, iters) = run_gas(
        &graph,
        &Sssp(PhantomData),
        states,
        active,
        None,
        false,
        nthreads,
    );
    BaselineRun {
        values: states,
        elapsed: start.elapsed(),
        counters,
        iterations: iters,
    }
}

/// Triangle counting under the GAS engine: each vertex gathers its
/// in-neighbour ids (round 1), then gathers intersection counts (round 2) —
/// the same two-phase structure as GraphMat's, but paying the adjacency-list
/// engine's per-edge overheads.
pub fn triangle_count<E: Clone + Send + Sync>(
    edges: &EdgeList<E>,
    nthreads: usize,
) -> BaselineRun<u64> {
    let dag = edges.to_dag();
    let graph = AdjacencyGraph::from_edges(&dag);
    let n = graph.num_vertices();
    let executor = Executor::new(nthreads.max(1));
    let mut counters = CostCounters::new();

    let start = Instant::now();
    // Round 1: collect sorted in-neighbour lists (materialised per vertex).
    let mut lists: Vec<Vec<Index>> = vec![Vec::new(); n];
    for (v, slot) in lists.iter_mut().enumerate() {
        let mut list: Vec<Index> = graph.in_edges[v].iter().map(|(u, _)| *u).collect();
        list.sort_unstable();
        list.dedup();
        counters.add_edge_ops(graph.in_edges[v].len() as u64);
        counters.add_overhead(list.len() as u64); // per-vertex hash/list build
        *slot = list;
    }
    // Round 2: for every edge (u -> v), intersect list(u) with list(v).
    let per_vertex: Vec<std::sync::atomic::AtomicU64> = (0..n)
        .map(|_| std::sync::atomic::AtomicU64::new(0))
        .collect();
    let edge_ops = std::sync::atomic::AtomicU64::new(0);
    let ch = chunks(n, executor.nthreads());
    executor.for_each_dynamic(ch.count(), |c| {
        let (lo, hi) = ch.bounds(c);
        for u in lo..hi {
            for (v, _) in &graph.out_edges[u] {
                let v = *v;
                let (a, b) = (&lists[u], &lists[v as usize]);
                let (mut i, mut j) = (0usize, 0usize);
                let mut count = 0u64;
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                edge_ops.fetch_add(
                    (a.len() + b.len()) as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
                per_vertex[v as usize].fetch_add(count, std::sync::atomic::Ordering::Relaxed);
            }
        }
    });
    counters.add_edge_ops(edge_ops.load(std::sync::atomic::Ordering::Relaxed));
    counters.add_vertex_ops(n as u64);
    // GraphLab's hash-based intersection keeps this algorithm competitive
    // (the paper: only ~1.5× slower than GraphMat), so no extra penalty here.
    let values: Vec<u64> = per_vertex
        .iter()
        .map(|a| a.load(std::sync::atomic::Ordering::Relaxed))
        .collect();
    BaselineRun {
        values,
        elapsed: start.elapsed(),
        counters,
        iterations: 2,
    }
}

/// Collaborative filtering under the GAS engine (gathers over both edge
/// directions by running the gather on the symmetrized bipartite graph).
pub fn collaborative_filtering(
    ratings: &RatingsGraph,
    latent_dims: usize,
    lambda: f64,
    gamma: f64,
    iterations: usize,
    seed: u64,
    nthreads: usize,
) -> BaselineRun<Vec<f64>> {
    struct Cf {
        lambda: f64,
        gamma: f64,
    }
    #[derive(Clone)]
    struct State {
        features: Vec<f64>,
    }
    impl GasProgram for Cf {
        type State = State;
        type Gather = Vec<f64>;
        type Edge = f32;
        fn gather_init(&self) -> Vec<f64> {
            Vec::new()
        }
        fn gather(&self, src: &State, rating: &f32, v: &State) -> Vec<f64> {
            let dot: f64 = src
                .features
                .iter()
                .zip(v.features.iter())
                .map(|(a, b)| a * b)
                .sum();
            let err = *rating as f64 - dot;
            src.features.iter().map(|x| err * x).collect()
        }
        fn combine(&self, acc: &mut Vec<f64>, value: Vec<f64>) {
            if acc.is_empty() {
                *acc = value;
            } else {
                for (a, v) in acc.iter_mut().zip(value) {
                    *a += v;
                }
            }
        }
        fn apply(&self, gathered: &Vec<f64>, state: &mut State) -> bool {
            if gathered.is_empty() {
                return true;
            }
            for (p, g) in state.features.iter_mut().zip(gathered.iter()) {
                *p += self.gamma * (g - self.lambda * *p);
            }
            true
        }
    }

    // gathering over in-edges of the symmetrized graph = messages from both
    // users and items, as the GraphMat Both-direction program does
    let sym = ratings.edges.symmetrized();
    let graph = AdjacencyGraph::from_edges(&sym);
    let states: Vec<State> = (0..graph.num_vertices() as u32)
        .map(|v| State {
            features: (0..latent_dims)
                .map(|i| crate::native::deterministic_init(seed, v, i, latent_dims))
                .collect(),
        })
        .collect();
    let start = Instant::now();
    let (states, counters, iters) = run_gas(
        &graph,
        &Cf { lambda, gamma },
        states,
        vec![true; graph.num_vertices()],
        Some(iterations),
        true,
        nthreads,
    );
    BaselineRun {
        values: states.into_iter().map(|s| s.features).collect(),
        elapsed: start.elapsed(),
        counters,
        iterations: iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native;
    use graphmat_io::bipartite::{self, BipartiteConfig};
    use graphmat_io::uniform::{self, UniformConfig};

    fn graph() -> EdgeList {
        uniform::generate(&UniformConfig::new(64, 512).with_weights(1, 9).with_seed(8))
    }

    #[test]
    fn gas_pagerank_matches_native() {
        let el = graph();
        let a = pagerank(&el, 0.15, 10, 2);
        let b = native::pagerank(&el, 0.15, 10, 2);
        for (v, (x, y)) in a.values.iter().zip(b.values.iter()).enumerate() {
            // GAS applies only to vertices with in-edges; native updates all.
            if el.in_degrees()[v] == 0 {
                continue;
            }
            assert!((x - y).abs() < 1e-9, "vertex {v}: {x} vs {y}");
        }
        assert!(a.counters.overhead_ops > 0);
    }

    #[test]
    fn gas_bfs_matches_native() {
        let el = graph();
        assert_eq!(bfs(&el, 0, 2).values, native::bfs(&el, 0, 2).values);
    }

    #[test]
    fn gas_sssp_matches_native() {
        let el = graph();
        let a = sssp(&el, 2, 2);
        let b = native::sssp(&el, 2, 2);
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            if *x == f32::MAX || *y == f32::MAX {
                assert_eq!(x, y);
            } else {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gas_triangles_match_native() {
        let el = graph();
        assert_eq!(
            triangle_count(&el, 2).values.iter().sum::<u64>(),
            native::triangle_count(&el, 2).values.iter().sum::<u64>()
        );
    }

    #[test]
    fn gas_cf_matches_native() {
        let ratings = bipartite::generate(&BipartiteConfig {
            num_users: 40,
            num_items: 8,
            num_ratings: 300,
            ..Default::default()
        });
        let a = collaborative_filtering(&ratings, 4, 0.05, 0.002, 5, 7, 2);
        let b = native::collaborative_filtering(&ratings, 4, 0.05, 0.002, 5, 7, 1);
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            for (p, q) in x.iter().zip(y.iter()) {
                assert!((p - q).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gas_engine_reports_more_overhead_than_comb() {
        // GraphLab-like executes the most bookkeeping per edge of all engines
        let el = graph();
        let gas = pagerank(&el, 0.15, 5, 2);
        let comb = crate::comb::pagerank(&el, 0.15, 5, 2);
        assert!(gas.counters.total_ops() > 0 && comb.counters.total_ops() > 0);
    }
}
