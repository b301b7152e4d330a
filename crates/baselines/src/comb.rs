//! CombBLAS-style pure-semiring matrix engine.
//!
//! CombBLAS expresses everything as semiring SpMV/SpGEMM and — crucially —
//! its message-processing functor sees only the message and the edge value,
//! *not* the destination vertex's state (§4.2). Two consequences the paper
//! measures, both reproduced here:
//!
//! 1. **Backend overhead.** CombBLAS is an MPI library with a 2-D
//!    partitioning; even on one node every iteration packs the message vector
//!    into per-process buffers. This engine materialises those copies (one
//!    per simulated process) and charges them to the cost model, which is why
//!    it trails GraphMat on PageRank/BFS/SSSP by a constant factor.
//! 2. **Expressiveness gap.** Triangle counting cannot read the destination's
//!    adjacency list during message processing, so it falls back to masked
//!    SpGEMM whose intermediate products dwarf the input (36× slower in the
//!    paper, Figure 4c); collaborative filtering needs an extra gather pass
//!    to bring the partner vectors over before the gradient can be formed.

use crate::semiring::PlusTimes;
use crate::spmm::{spgemm, spgemm_masked, sum_values};
use crate::BaselineRun;
use graphmat_io::bipartite::RatingsGraph;
use graphmat_io::edgelist::{EdgeList, EdgeWeight};
use graphmat_perf::CostCounters;
use graphmat_sparse::csr::Csr;
use graphmat_sparse::parallel::Executor;
use graphmat_sparse::partition::PartitionedDcsc;
use graphmat_sparse::spmv::gspmv;
use graphmat_sparse::spvec::SparseVector;
use graphmat_sparse::Index;
use std::time::Instant;

/// Number of MPI ranks the engine pretends to run with (the paper uses 16
/// processes on its 24-core machine because CombBLAS requires a square
/// process count).
const SIMULATED_PROCESSES: usize = 16;

/// Simulate the per-process message-buffer packing CombBLAS performs each
/// iteration: copy the frontier values once per simulated process and charge
/// the copies to the cost model.
fn simulate_mpi_copies<T: Clone>(frontier: &SparseVector<T>, counters: &mut CostCounters) {
    let nnz = frontier.nnz();
    for _ in 0..SIMULATED_PROCESSES {
        // materialise the buffer so the time cost is real, not just counted
        let buffer: Vec<(Index, T)> = frontier.iter().map(|(i, v)| (i, v.clone())).collect();
        std::hint::black_box(&buffer);
        counters.add_overhead(nnz as u64);
        counters.add_bytes_written(nnz as u64 * std::mem::size_of::<T>() as u64);
    }
}

fn transpose_partitioned<E: Clone>(edges: &EdgeList<E>, nparts: usize) -> PartitionedDcsc<E> {
    PartitionedDcsc::from_coo_balanced(&edges.to_transpose_coo(), nparts.max(1))
}

/// PageRank on the semiring engine. Any edge type works — the semiring
/// multiply ignores the matrix value.
pub fn pagerank<E: Clone + Send + Sync>(
    edges: &EdgeList<E>,
    random_surf: f64,
    iterations: usize,
    nthreads: usize,
) -> BaselineRun<f64> {
    let n = edges.num_vertices() as usize;
    let executor = Executor::new(nthreads.max(1));
    let gt = transpose_partitioned(edges, nthreads.max(1) * 4);
    let degrees: Vec<u32> = edges.out_degrees().iter().map(|&d| d as u32).collect();
    let mut counters = CostCounters::new();

    let start = Instant::now();
    let mut ranks = vec![1.0f64; n];
    for _ in 0..iterations {
        let mut frontier: SparseVector<f64> = SparseVector::new(n);
        for v in 0..n {
            if degrees[v] > 0 {
                frontier.set(v as Index, ranks[v] / degrees[v] as f64);
            }
        }
        simulate_mpi_copies(&frontier, &mut counters);
        let sums = gspmv(
            &gt,
            &frontier,
            // pure semiring multiply: no destination-vertex access
            &|msg: &f64, _e: &E, _k: Index| *msg,
            &|acc: &mut f64, v: f64| *acc += v,
            &executor,
        );
        counters.add_edge_ops(gt.nnz() as u64);
        counters.add_messages(frontier.nnz() as u64);
        counters.add_bytes_read(gt.nnz() as u64 * 12);
        for (v, rank) in ranks.iter_mut().enumerate() {
            if let Some(sum) = sums.get(v as Index) {
                *rank = random_surf + (1.0 - random_surf) * sum;
            }
        }
        counters.add_vertex_ops(n as u64);
    }
    BaselineRun {
        values: ranks,
        elapsed: start.elapsed(),
        counters,
        iterations,
    }
}

/// BFS on the semiring engine (boolean frontier expansion). Any edge type
/// works, including the unweighted `()`.
pub fn bfs<E: Clone + Send + Sync>(
    edges: &EdgeList<E>,
    root: Index,
    nthreads: usize,
) -> BaselineRun<u32> {
    let sym = edges.symmetrized();
    let n = sym.num_vertices() as usize;
    let executor = Executor::new(nthreads.max(1));
    let gt = transpose_partitioned(&sym, nthreads.max(1) * 4);
    let out_degrees = sym.out_degrees();
    let mut counters = CostCounters::new();

    let start = Instant::now();
    let mut dist = vec![u32::MAX; n];
    dist[root as usize] = 0;
    let mut frontier: SparseVector<u32> = SparseVector::new(n);
    frontier.set(root, 0);
    let mut iterations = 0usize;
    while frontier.nnz() > 0 {
        iterations += 1;
        simulate_mpi_copies(&frontier, &mut counters);
        let reached = gspmv(
            &gt,
            &frontier,
            &|level: &u32, _e: &E, _k: Index| level + 1,
            &|acc: &mut u32, v: u32| *acc = (*acc).min(v),
            &executor,
        );
        counters.add_messages(frontier.nnz() as u64);
        let mut next: SparseVector<u32> = SparseVector::new(n);
        for (v, &level) in reached.iter() {
            counters.add_vertex_ops(1);
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = level;
                next.set(v, level);
            }
        }
        counters.add_edge_ops(
            frontier
                .iter()
                .map(|(v, _)| out_degrees[v as usize] as u64)
                .sum(),
        );
        frontier = next;
    }
    BaselineRun {
        values: dist,
        elapsed: start.elapsed(),
        counters,
        iterations,
    }
}

/// SSSP on the semiring engine (min-plus frontier relaxation). Accepts any
/// scalar-readable edge weight type.
pub fn sssp<E: EdgeWeight>(
    edges: &EdgeList<E>,
    source: Index,
    nthreads: usize,
) -> BaselineRun<f32> {
    let n = edges.num_vertices() as usize;
    let executor = Executor::new(nthreads.max(1));
    let gt = transpose_partitioned(edges, nthreads.max(1) * 4);
    let out_degrees = edges.out_degrees();
    let mut counters = CostCounters::new();

    let start = Instant::now();
    let mut dist = vec![f32::MAX; n];
    dist[source as usize] = 0.0;
    let mut frontier: SparseVector<f32> = SparseVector::new(n);
    frontier.set(source, 0.0);
    let mut iterations = 0usize;
    while frontier.nnz() > 0 {
        iterations += 1;
        simulate_mpi_copies(&frontier, &mut counters);
        let relaxed = gspmv(
            &gt,
            &frontier,
            &|d: &f32, w: &E, _k: Index| d + w.weight(),
            &|acc: &mut f32, v: f32| *acc = acc.min(v),
            &executor,
        );
        counters.add_messages(frontier.nnz() as u64);
        counters.add_edge_ops(
            frontier
                .iter()
                .map(|(v, _)| out_degrees[v as usize] as u64)
                .sum(),
        );
        let mut next: SparseVector<f32> = SparseVector::new(n);
        for (v, &candidate) in relaxed.iter() {
            counters.add_vertex_ops(1);
            if candidate < dist[v as usize] {
                dist[v as usize] = candidate;
                next.set(v, candidate);
            }
        }
        frontier = next;
    }
    BaselineRun {
        values: dist,
        elapsed: start.elapsed(),
        counters,
        iterations,
    }
}

/// Triangle counting via masked SpGEMM (`sum((A·A) .* A)`) — the only option
/// for a framework whose multiply cannot look at the destination vertex.
/// Also reports the intermediate-product count that makes this approach blow
/// up on large graphs.
pub fn triangle_count<E: Clone + Send + Sync>(
    edges: &EdgeList<E>,
    _nthreads: usize,
) -> BaselineRun<u64> {
    let dag = edges.to_dag();
    // unweighted boolean structure: triangle counting ignores edge weights
    let adj_f64 = Csr::from_coo(&dag.to_adjacency_coo().map(|_| 1.0f64));
    let mut counters = CostCounters::new();

    let start = Instant::now();
    // every (i,k,j) product attempted is an edge op; Gustavson visits
    // Σ_i Σ_{k ∈ row i} nnz(row k) of them — count explicitly
    let mut intermediate_products: u64 = 0;
    for i in 0..adj_f64.nrows() {
        let (cols, _) = adj_f64.row(i);
        for &k in cols {
            intermediate_products += adj_f64.row_nnz(k) as u64;
        }
    }
    // The naive CombBLAS formulation materialises the full A·A before
    // masking — this is the intermediate blow-up the paper measures (the
    // product typically has far more non-zeros than A itself).
    let full_product = spgemm(&adj_f64, &adj_f64, &PlusTimes);
    let masked = spgemm_masked(&adj_f64, &adj_f64, &adj_f64, &PlusTimes);
    let total = sum_values(&masked, 0.0, |acc, v| acc + v) as u64;
    counters.add_edge_ops(intermediate_products);
    // materialised intermediates: every stored entry of A·A plus the products
    counters.add_overhead(intermediate_products + full_product.nnz() as u64);
    counters.add_bytes_read(intermediate_products * 12);
    counters.add_bytes_written(full_product.nnz() as u64 * 16 + masked.nnz() as u64 * 16);
    counters.add_vertex_ops(adj_f64.nrows() as u64);

    // per-vertex counts (row sums of the masked product) for API parity
    let mut per_vertex = vec![0u64; dag.num_vertices() as usize];
    for (r, _, v) in masked.entries() {
        per_vertex[*r as usize] += *v as u64;
    }
    let _ = total;
    BaselineRun {
        values: per_vertex,
        elapsed: start.elapsed(),
        counters,
        iterations: 1,
    }
}

/// Collaborative filtering with the extra "gather partner vectors" pass a
/// pure-semiring framework needs (it cannot read the destination's latent
/// vector inside the multiply).
pub fn collaborative_filtering(
    ratings: &RatingsGraph,
    latent_dims: usize,
    lambda: f64,
    gamma: f64,
    iterations: usize,
    seed: u64,
    _nthreads: usize,
) -> BaselineRun<Vec<f64>> {
    let edges = &ratings.edges;
    let n = edges.num_vertices() as usize;
    let user_to_item = Csr::from_coo(&edges.to_adjacency_coo());
    let item_to_user = Csr::from_coo(&edges.to_transpose_coo());
    let mut counters = CostCounters::new();

    let start = Instant::now();
    let mut features: Vec<Vec<f64>> = (0..n as u32)
        .map(|v| {
            (0..latent_dims)
                .map(|i| crate::native::deterministic_init(seed, v, i, latent_dims))
                .collect()
        })
        .collect();

    for _ in 0..iterations {
        let snapshot = features.clone();
        counters.add_overhead((n * latent_dims) as u64); // snapshot copy
        for v in 0..n {
            let (neighbors, ratings_row) = if (v as u32) < ratings.num_users {
                user_to_item.row(v as Index)
            } else {
                item_to_user.row(v as Index)
            };
            if neighbors.is_empty() {
                continue;
            }
            // Pass 1 (the extra gather): materialise every partner's vector.
            let gathered: Vec<Vec<f64>> = neighbors
                .iter()
                .map(|&o| snapshot[o as usize].clone())
                .collect();
            counters.add_overhead((gathered.len() * latent_dims) as u64);
            counters.add_bytes_written((gathered.len() * latent_dims * 8) as u64);
            // Pass 2: the gradient, now that the partner vectors are local.
            let mut gradient = vec![0.0f64; latent_dims];
            for (partner, &rating) in gathered.iter().zip(ratings_row) {
                let dot: f64 = snapshot[v]
                    .iter()
                    .zip(partner.iter())
                    .map(|(a, b)| a * b)
                    .sum();
                let err = rating as f64 - dot;
                for (g, x) in gradient.iter_mut().zip(partner.iter()) {
                    *g += err * x;
                }
            }
            counters.add_edge_ops(neighbors.len() as u64);
            for (p, g) in features[v].iter_mut().zip(gradient.iter()) {
                *p += gamma * (g - lambda * *p);
            }
            counters.add_vertex_ops(1);
        }
    }
    BaselineRun {
        values: features,
        elapsed: start.elapsed(),
        counters,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native;
    use graphmat_io::bipartite::{self, BipartiteConfig};
    use graphmat_io::uniform::{self, UniformConfig};

    fn graph() -> EdgeList {
        uniform::generate(&UniformConfig::new(64, 512).with_weights(1, 9).with_seed(3))
    }

    #[test]
    fn comb_pagerank_matches_native() {
        let el = graph();
        let a = pagerank(&el, 0.15, 10, 2);
        let b = native::pagerank(&el, 0.15, 10, 2);
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
        // CombBLAS-like engine must report more overhead than native (which
        // reports none)
        assert!(a.counters.overhead_ops > b.counters.overhead_ops);
    }

    #[test]
    fn comb_bfs_matches_native() {
        let el = graph();
        let a = bfs(&el, 3, 2);
        let b = native::bfs(&el, 3, 2);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn comb_sssp_matches_native() {
        let el = graph();
        let a = sssp(&el, 5, 2);
        let b = native::sssp(&el, 5, 2);
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            if *x == f32::MAX || *y == f32::MAX {
                assert_eq!(x, y);
            } else {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn comb_triangles_match_native_and_blow_up_in_ops() {
        let el = graph();
        let a = triangle_count(&el, 2);
        let b = native::triangle_count(&el, 2);
        assert_eq!(a.values.iter().sum::<u64>(), b.values.iter().sum::<u64>());
        // the SpGEMM route materialises intermediates the native
        // intersection never creates
        assert!(a.counters.overhead_ops > b.counters.overhead_ops);
        assert!(a.counters.bytes_written > b.counters.bytes_written);
    }

    #[test]
    fn comb_cf_matches_native() {
        let ratings = bipartite::generate(&BipartiteConfig {
            num_users: 40,
            num_items: 8,
            num_ratings: 300,
            ..Default::default()
        });
        let a = collaborative_filtering(&ratings, 4, 0.05, 0.002, 5, 7, 1);
        let b = native::collaborative_filtering(&ratings, 4, 0.05, 0.002, 5, 7, 1);
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            for (p, q) in x.iter().zip(y.iter()) {
                assert!((p - q).abs() < 1e-9);
            }
        }
        assert!(a.counters.overhead_ops > 0);
    }
}
