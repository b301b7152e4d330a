//! In-memory edge lists and the paper's pre-processing passes.
//!
//! Every generator and reader in this crate produces an [`EdgeList`]; the
//! graph structures in `graphmat-core` and the baselines are built from one.
//!
//! The edge list is **generic over the edge value type `E`**, mirroring the
//! original GraphMat C++ frontend which templatizes the edge type alongside
//! the three vertex-program types (paper §4.2 and appendix):
//!
//! * `EdgeList<f32>` (the default) is a conventionally weighted graph;
//! * `EdgeList<()>` is an *unweighted* graph whose edge values occupy zero
//!   bytes — DCSC matrices built from it store no value array at all, which
//!   removes 4 bytes/edge of memory traffic from the bandwidth-bound SpMV;
//! * any other `E` (integer weights, `u8` capacities, struct-valued edges)
//!   flows through the whole stack unchanged.
//!
//! The pre-processing methods implement §5.1 of the paper:
//!
//! * self-loops are always removed;
//! * PageRank / SSSP work on the directed graph as-is;
//! * BFS symmetrizes the graph;
//! * Triangle Counting symmetrizes and then keeps only the upper triangle
//!   (making the graph a DAG);
//! * Collaborative Filtering requires a bipartite graph (users × items).

use graphmat_sparse::coo::Coo;
use graphmat_sparse::Index;

/// Edge values that can be read as a scalar weight.
///
/// Algorithms that consume weights (SSSP's distance relaxation,
/// collaborative filtering's ratings) accept any `E: EdgeWeight` instead of
/// hardcoding `f32`. The `()` impl treats every edge as weight `1`, so
/// unweighted graphs run through weighted algorithms with hop-count
/// semantics.
pub trait EdgeWeight: Clone + Send + Sync {
    /// The scalar weight of this edge value.
    fn weight(&self) -> f32;
}

impl EdgeWeight for f32 {
    #[inline(always)]
    fn weight(&self) -> f32 {
        *self
    }
}

impl EdgeWeight for f64 {
    #[inline(always)]
    fn weight(&self) -> f32 {
        *self as f32
    }
}

impl EdgeWeight for u8 {
    #[inline(always)]
    fn weight(&self) -> f32 {
        *self as f32
    }
}

impl EdgeWeight for u16 {
    #[inline(always)]
    fn weight(&self) -> f32 {
        *self as f32
    }
}

impl EdgeWeight for u32 {
    #[inline(always)]
    fn weight(&self) -> f32 {
        *self as f32
    }
}

impl EdgeWeight for i32 {
    #[inline(always)]
    fn weight(&self) -> f32 {
        *self as f32
    }
}

impl EdgeWeight for () {
    /// An unweighted edge counts as one unit (hop).
    #[inline(always)]
    fn weight(&self) -> f32 {
        1.0
    }
}

/// A directed edge list with a fixed vertex count and edge values of type
/// `E` (`f32` weights by default; `()` for unweighted graphs).
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeList<E = f32> {
    num_vertices: Index,
    edges: Vec<(Index, Index, E)>,
}

impl<E> EdgeList<E> {
    /// Create an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: Index) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Create an edge list from `(src, dst, weight)` tuples.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_tuples(num_vertices: Index, edges: Vec<(Index, Index, E)>) -> Self {
        for &(s, d, _) in &edges {
            assert!(
                s < num_vertices && d < num_vertices,
                "edge ({s},{d}) out of range for {num_vertices} vertices"
            );
        }
        EdgeList {
            num_vertices,
            edges,
        }
    }

    /// Take the `(src, dst, value)` tuples back out — the inverse of
    /// [`EdgeList::from_tuples`], for callers that lend a vector to a build.
    pub fn into_tuples(self) -> Vec<(Index, Index, E)> {
        self.edges
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> Index {
        self.num_vertices
    }

    /// Number of edges currently stored.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` if there are no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Append an edge with value `weight`.
    pub fn push(&mut self, src: Index, dst: Index, weight: E) {
        assert!(src < self.num_vertices && dst < self.num_vertices);
        self.edges.push((src, dst, weight));
    }

    /// The edges as `(src, dst, weight)` tuples.
    pub fn edges(&self) -> &[(Index, Index, E)] {
        &self.edges
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.num_vertices as usize];
        for &(s, _, _) in &self.edges {
            d[s as usize] += 1;
        }
        d
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.num_vertices as usize];
        for &(_, t, _) in &self.edges {
            d[t as usize] += 1;
        }
        d
    }

    /// Remove self-loops (always done by the paper, §5.1).
    pub fn remove_self_loops(&mut self) {
        self.edges.retain(|&(s, d, _)| s != d);
    }

    /// Replace every edge value using `f(src, dst, &weight)`.
    pub fn map_weights(&mut self, mut f: impl FnMut(Index, Index, &E) -> E) {
        for (s, d, w) in &mut self.edges {
            *w = f(*s, *d, w);
        }
    }

    /// Convert to a new edge list with edge values of a different type,
    /// produced by `f(src, dst, &weight)`. This is how a weighted graph is
    /// re-typed (e.g. `f32` → `u32` integer weights) without rebuilding it.
    pub fn map_values<E2>(&self, mut f: impl FnMut(Index, Index, &E) -> E2) -> EdgeList<E2> {
        EdgeList {
            num_vertices: self.num_vertices,
            edges: self
                .edges
                .iter()
                .map(|(s, d, w)| (*s, *d, f(*s, *d, w)))
                .collect(),
        }
    }

    /// The unweighted view of this graph: same vertices and edges, `()`
    /// values. Graphs built from the result store **no edge value bytes** in
    /// their DCSC matrices — the zero-cost fast path for BFS, connected
    /// components, degree and triangle counting.
    pub fn topology(&self) -> EdgeList<()> {
        EdgeList {
            num_vertices: self.num_vertices,
            edges: self.edges.iter().map(|&(s, d, _)| (s, d, ())).collect(),
        }
    }

    /// Basic structural statistics, used to print Table 1.
    pub fn stats(&self) -> EdgeListStats {
        let out = self.out_degrees();
        let max_out = out.iter().copied().max().unwrap_or(0);
        let isolated = out
            .iter()
            .zip(self.in_degrees())
            .filter(|&(o, i)| *o == 0 && i == 0)
            .count();
        EdgeListStats {
            num_vertices: self.num_vertices as usize,
            num_edges: self.edges.len(),
            max_out_degree: max_out,
            avg_degree: if self.num_vertices == 0 {
                0.0
            } else {
                self.edges.len() as f64 / self.num_vertices as f64
            },
            isolated_vertices: isolated,
        }
    }
}

impl<E: Clone> EdgeList<E> {
    /// Remove duplicate `(src, dst)` pairs, keeping the first weight.
    ///
    /// The edges come out sorted by `(src, dst)`. Vertex ids are dense, so
    /// this is a stable counting sort, by `dst` and then by `src`, in
    /// O(n + m) and without a comparison; because it is stable, the edge
    /// kept of each run of equal pairs is the first in the original order.
    pub fn dedup(&mut self) {
        let n = self.num_vertices as usize;
        // any initialised buffer of length m: the scatter overwrites it all
        let mut by_dst = self.edges.clone();
        counting_sort_into(&self.edges, &mut by_dst, n, |&(_, d, _)| d);
        counting_sort_into(&by_dst, &mut self.edges, n, |&(s, _, _)| s);
        self.edges.dedup_by_key(|&mut (s, d, _)| (s, d));
    }

    /// Return a symmetrized copy (both directions of every edge, each keeping
    /// the original edge value), as the paper does for BFS and as the first
    /// step of triangle counting.
    pub fn symmetrized(&self) -> EdgeList<E> {
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        for (s, d, w) in &self.edges {
            edges.push((*s, *d, w.clone()));
            if s != d {
                edges.push((*d, *s, w.clone()));
            }
        }
        let mut out = EdgeList {
            num_vertices: self.num_vertices,
            edges,
        };
        out.dedup();
        out
    }

    /// Return the DAG used for triangle counting: symmetrize, then keep only
    /// edges with `dst > src` (the strict upper triangle of the adjacency
    /// matrix). Edge values ride along unchanged.
    pub fn to_dag(&self) -> EdgeList<E> {
        let sym = self.symmetrized();
        EdgeList {
            num_vertices: sym.num_vertices,
            edges: sym.edges.into_iter().filter(|&(s, d, _)| d > s).collect(),
        }
    }

    /// Convert to a COO adjacency matrix `A` (row = src, col = dst).
    pub fn to_adjacency_coo(&self) -> Coo<E> {
        let mut coo = Coo::with_capacity(self.num_vertices, self.num_vertices, self.edges.len());
        for (s, d, w) in &self.edges {
            coo.push(*s, *d, w.clone());
        }
        coo
    }

    /// Convert to the transposed adjacency matrix `Aᵀ` (row = dst, col = src),
    /// which is what the GraphMat SpMV over out-edges consumes.
    pub fn to_transpose_coo(&self) -> Coo<E> {
        let mut coo = Coo::with_capacity(self.num_vertices, self.num_vertices, self.edges.len());
        for (s, d, w) in &self.edges {
            coo.push(*d, *s, w.clone());
        }
        coo
    }
}

impl EdgeList<()> {
    /// Create an unweighted edge list from `(src, dst)` pairs.
    ///
    /// The result is `EdgeList<()>`: edge values occupy zero bytes end to
    /// end, so the DCSC matrices of graphs built from it carry no value
    /// array. Use [`EdgeList::map_values`] (or build with
    /// [`EdgeList::from_tuples`]) when actual weights are needed.
    pub fn from_pairs(
        num_vertices: Index,
        pairs: impl IntoIterator<Item = (Index, Index)>,
    ) -> Self {
        let edges = pairs.into_iter().map(|(s, d)| (s, d, ())).collect();
        Self::from_tuples(num_vertices, edges)
    }

    /// Attach weights to an unweighted graph, producing `EdgeList<E>` with
    /// `f(src, dst)` as each edge's value.
    pub fn with_weights<E>(&self, mut f: impl FnMut(Index, Index) -> E) -> EdgeList<E> {
        self.map_values(|s, d, _| f(s, d))
    }
}

/// Stable counting sort: writes `src` into `dst` (of the same length) in
/// ascending `key` order, where every key is below `n`.
fn counting_sort_into<T: Clone>(src: &[T], dst: &mut [T], n: usize, key: impl Fn(&T) -> Index) {
    let mut next = vec![0usize; n + 1];
    for e in src {
        next[key(e) as usize + 1] += 1;
    }
    for k in 1..=n {
        next[k] += next[k - 1];
    }
    for e in src {
        let slot = &mut next[key(e) as usize];
        dst[*slot] = e.clone();
        *slot += 1;
    }
}

/// Summary statistics of an [`EdgeList`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeListStats {
    /// Number of vertices (including isolated ones).
    pub num_vertices: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Largest out-degree.
    pub max_out_degree: usize,
    /// Edges per vertex.
    pub avg_degree: f64,
    /// Vertices with neither in- nor out-edges.
    pub isolated_vertices: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::from_tuples(
            5,
            vec![
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 0, 3.0),
                (2, 2, 9.0), // self loop
                (0, 1, 4.0), // duplicate
                (3, 4, 5.0),
            ],
        )
    }

    #[test]
    fn counts() {
        let el = sample();
        assert_eq!(el.num_vertices(), 5);
        assert_eq!(el.num_edges(), 6);
        assert!(!el.is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        EdgeList::from_tuples(2, vec![(0, 5, 1.0)]);
    }

    #[test]
    fn degrees() {
        let el = sample();
        assert_eq!(el.out_degrees(), vec![2, 1, 2, 1, 0]);
        assert_eq!(el.in_degrees(), vec![1, 2, 2, 0, 1]);
    }

    #[test]
    fn remove_self_loops_and_dedup() {
        let mut el = sample();
        el.remove_self_loops();
        assert_eq!(el.num_edges(), 5);
        el.dedup();
        assert_eq!(el.num_edges(), 4);
        // kept the first weight for (0,1)
        assert!(el.edges().contains(&(0, 1, 1.0)));
        assert!(!el.edges().contains(&(0, 1, 4.0)));
    }

    /// The comparison sort `dedup` used to run, kept as its oracle: a stable
    /// sort by `(src, dst)`, then the first edge of every run of equal pairs.
    fn dedup_oracle<E: Clone>(mut edges: Vec<(Index, Index, E)>) -> Vec<(Index, Index, E)> {
        edges.sort_by_key(|&(s, d, _)| (s, d));
        edges.dedup_by_key(|&mut (s, d, _)| (s, d));
        edges
    }

    fn symmetrized_oracle<E: Clone>(edges: &[(Index, Index, E)]) -> Vec<(Index, Index, E)> {
        let mut both = Vec::new();
        for (s, d, w) in edges {
            both.push((*s, *d, w.clone()));
            if s != d {
                both.push((*d, *s, w.clone()));
            }
        }
        dedup_oracle(both)
    }

    /// `m` seeded edges over `n` vertices, edge `i` carrying `value(i)`:
    /// a quarter repeat an earlier pair (a parallel edge with a distinct
    /// value), a quarter are self-loops, a quarter touch vertex 0 or
    /// `n − 1`, the rest are uniform.
    fn seeded_edges<E>(
        n: Index,
        m: usize,
        seed: u64,
        value: impl Fn(usize) -> E,
    ) -> Vec<(Index, Index, E)> {
        let mut rng = crate::rng::StdRng::seed_from_u64(seed);
        let mut edges: Vec<(Index, Index, E)> = Vec::with_capacity(m);
        for i in 0..m {
            let v = rng.gen_range(0..n);
            let (s, d) = match i % 4 {
                0 if i > 0 => {
                    let (s, d, _) = edges[rng.gen_range(0..i)];
                    (s, d)
                }
                1 => (v, v),
                2 if i % 8 == 2 => (0, v),
                2 => (v, n - 1),
                _ => (v, rng.gen_range(0..n)),
            };
            edges.push((s, d, value(i)));
        }
        edges
    }

    fn agrees_with_the_comparison_sort<E: Clone + PartialEq + std::fmt::Debug>(
        value: impl Fn(usize) -> E,
    ) {
        let cases = [(1, 0), (1, 9), (5, 0), (2, 40), (17, 300), (1000, 5000)];
        for (seed, (n, m)) in (1..).zip(cases) {
            let edges = seeded_edges(n, m, seed, &value);
            let el = EdgeList::from_tuples(n, edges.clone());
            let mut deduped = el.clone();
            deduped.dedup();
            assert_eq!(deduped.edges(), dedup_oracle(edges.clone()), "n {n} m {m}");
            if m >= 40 {
                assert!(deduped.num_edges() < m, "no parallel pair in the input");
            }
            let sym = symmetrized_oracle(&edges);
            assert_eq!(el.symmetrized().edges(), sym, "n {n} m {m}");
            let dag: Vec<_> = sym.into_iter().filter(|&(s, d, _)| d > s).collect();
            assert_eq!(el.to_dag().edges(), dag, "n {n} m {m}");
        }
    }

    #[test]
    fn dedup_symmetrized_and_dag_agree_with_the_comparison_sort() {
        agrees_with_the_comparison_sort(|i| i as f32);
        agrees_with_the_comparison_sort(|_| ());
        agrees_with_the_comparison_sort(|i| (i % 251) as u8);
    }

    #[test]
    fn symmetrized_has_both_directions() {
        let mut el = sample();
        el.remove_self_loops();
        el.dedup();
        let sym = el.symmetrized();
        assert!(sym.edges().iter().any(|&(s, d, _)| s == 1 && d == 0));
        assert!(sym.edges().iter().any(|&(s, d, _)| s == 0 && d == 1));
        assert_eq!(sym.num_edges(), 8);
    }

    #[test]
    fn symmetrized_preserves_generic_edge_values() {
        // integer-weighted graph: the reverse edge carries the same value
        let el: EdgeList<u32> = EdgeList::from_tuples(3, vec![(0, 1, 7), (1, 2, 9)]);
        let sym = el.symmetrized();
        assert!(sym.edges().contains(&(1, 0, 7)));
        assert!(sym.edges().contains(&(2, 1, 9)));
        // and unweighted graphs symmetrize too
        let unweighted = EdgeList::from_pairs(3, vec![(0, 1)]);
        assert_eq!(unweighted.symmetrized().num_edges(), 2);
    }

    #[test]
    fn dag_keeps_upper_triangle_only() {
        let el = sample();
        let dag = el.to_dag();
        assert!(dag.edges().iter().all(|&(s, d, _)| d > s));
        // undirected edges {0,1},{1,2},{0,2},{3,4} -> 4 DAG edges
        assert_eq!(dag.num_edges(), 4);
    }

    #[test]
    fn dag_preserves_generic_edge_values() {
        let el: EdgeList<u32> = EdgeList::from_tuples(3, vec![(1, 0, 5)]);
        let dag = el.to_dag();
        assert_eq!(dag.edges(), &[(0, 1, 5)]);
    }

    #[test]
    fn adjacency_and_transpose_are_consistent() {
        let el = sample();
        let a = el.to_adjacency_coo();
        let at = el.to_transpose_coo();
        assert_eq!(a.nnz(), at.nnz());
        for (r, c, v) in a.entries() {
            assert!(at.entries().contains(&(*c, *r, *v)));
        }
    }

    #[test]
    fn map_weights_rewrites() {
        let mut el = sample();
        el.map_weights(|s, d, _| (s + d) as f32);
        assert!(el.edges().iter().all(|&(s, d, w)| w == (s + d) as f32));
    }

    #[test]
    fn map_values_changes_edge_type() {
        let el = sample();
        let ints: EdgeList<u32> = el.map_values(|_, _, w| *w as u32);
        assert_eq!(ints.num_edges(), el.num_edges());
        assert!(ints.edges().contains(&(3, 4, 5)));
    }

    #[test]
    fn topology_drops_weights() {
        let el = sample();
        let topo = el.topology();
        assert_eq!(topo.num_edges(), el.num_edges());
        assert_eq!(topo.num_vertices(), el.num_vertices());
        assert!(topo.edges().contains(&(3, 4, ())));
    }

    #[test]
    fn with_weights_reattaches() {
        let topo = EdgeList::from_pairs(3, vec![(0, 1), (1, 2)]);
        let weighted: EdgeList<f32> = topo.with_weights(|s, d| (s + d) as f32);
        assert!(weighted.edges().contains(&(1, 2, 3.0)));
    }

    #[test]
    fn stats_are_consistent() {
        let el = sample();
        let st = el.stats();
        assert_eq!(st.num_vertices, 5);
        assert_eq!(st.num_edges, 6);
        assert_eq!(st.max_out_degree, 2);
        assert!((st.avg_degree - 1.2).abs() < 1e-9);
        assert_eq!(st.isolated_vertices, 0);
    }

    #[test]
    fn from_pairs_is_unweighted() {
        let el = EdgeList::from_pairs(3, vec![(0, 1), (1, 2)]);
        assert_eq!(el.num_edges(), 2);
        assert_eq!(std::mem::size_of_val(&el.edges()[0]), 8); // two u32 ids, zero value bytes
    }

    #[test]
    fn edge_weight_trait_reads_scalars() {
        assert_eq!(2.5f32.weight(), 2.5);
        assert_eq!(3u32.weight(), 3.0);
        assert_eq!(7u8.weight(), 7.0);
        assert_eq!((-2i32).weight(), -2.0);
        assert_eq!(().weight(), 1.0);
    }
}
