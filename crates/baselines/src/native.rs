//! Hand-optimized native implementations (the Table 3 upper bound).
//!
//! These are the kind of implementations the paper's native baseline \[27\]
//! uses: direct loops over CSR with no framework abstraction, no message
//! materialisation and no per-superstep bookkeeping beyond what the algorithm
//! itself needs. They double as correctness oracles for the framework-based
//! implementations in the integration tests.

use crate::BaselineRun;
use graphmat_io::bipartite::RatingsGraph;
use graphmat_io::edgelist::{EdgeList, EdgeWeight};
use graphmat_perf::CostCounters;
use graphmat_sparse::csr::Csr;
use graphmat_sparse::parallel::{chunks, DisjointSlice, Executor};
use graphmat_sparse::Index;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

fn csr_from_edges<E: Clone>(edges: &EdgeList<E>) -> Csr<E> {
    Csr::from_coo(&edges.to_adjacency_coo())
}

fn csr_transpose_from_edges<E: Clone>(edges: &EdgeList<E>) -> Csr<E> {
    Csr::from_coo(&edges.to_transpose_coo())
}

/// Native PageRank: pull-based iteration over the transposed CSR. Edge
/// values are ignored, so any edge type works.
pub fn pagerank<E: Clone + Send + Sync>(
    edges: &EdgeList<E>,
    random_surf: f64,
    iterations: usize,
    nthreads: usize,
) -> BaselineRun<f64> {
    let n = edges.num_vertices() as usize;
    let gt = csr_transpose_from_edges(edges); // row = dst, cols = srcs
    let degrees: Vec<u32> = edges.out_degrees().iter().map(|&d| d as u32).collect();
    let executor = Executor::new(nthreads.max(1));
    let mut counters = CostCounters::new();

    let start = Instant::now();
    let mut ranks = vec![1.0f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        // contribution of each source, computed once
        let contrib: Vec<f64> = ranks
            .iter()
            .zip(degrees.iter())
            .map(|(r, &d)| if d > 0 { r / d as f64 } else { 0.0 })
            .collect();
        let next_out = DisjointSlice::new(&mut next, "native pagerank next rank");
        let ranks_ref = &ranks;
        let ch = chunks(n, executor.nthreads());
        executor.for_each_dynamic(ch.count(), |c| {
            let (lo, hi) = ch.bounds(c);
            // SAFETY: each task carves only its own chunk's vertex range.
            let out = unsafe { next_out.range(lo, hi) };
            for (v, slot) in (lo..hi).zip(out) {
                let (srcs, _) = gt.row(v as Index);
                let mut sum = 0.0;
                for &u in srcs {
                    sum += contrib[u as usize];
                }
                // Vertices that receive no contribution keep their rank —
                // the same semantics as the message-driven engines, where
                // APPLY only runs for vertices that received a message.
                *slot = if sum > 0.0 {
                    random_surf + (1.0 - random_surf) * sum
                } else {
                    ranks_ref[v]
                };
            }
        });
        std::mem::swap(&mut ranks, &mut next);
        counters.add_edge_ops(gt.nnz() as u64);
        counters.add_vertex_ops(n as u64);
        counters.add_bytes_read(gt.nnz() as u64 * 12);
        counters.add_bytes_written(n as u64 * 8);
    }
    BaselineRun {
        values: ranks,
        elapsed: start.elapsed(),
        counters,
        iterations,
    }
}

/// Native BFS: frontier queue over the symmetrized CSR. Edge values are
/// ignored, so any edge type works (including the unweighted `()`).
pub fn bfs<E: Clone + Send + Sync>(
    edges: &EdgeList<E>,
    root: Index,
    nthreads: usize,
) -> BaselineRun<u32> {
    let sym = edges.symmetrized();
    let adj = csr_from_edges(&sym);
    let n = sym.num_vertices() as usize;
    let _ = nthreads;
    let mut counters = CostCounters::new();

    let start = Instant::now();
    let mut dist = vec![u32::MAX; n];
    let mut frontier = vec![root];
    dist[root as usize] = 0;
    let mut level = 0u32;
    let mut iterations = 0usize;
    while !frontier.is_empty() {
        level += 1;
        iterations += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            let (neighbors, _) = adj.row(u);
            counters.add_edge_ops(neighbors.len() as u64);
            for &v in neighbors {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = level;
                    next.push(v);
                }
            }
        }
        counters.add_vertex_ops(next.len() as u64);
        counters.add_bytes_read(frontier.len() as u64 * 8);
        frontier = next;
    }
    BaselineRun {
        values: dist,
        elapsed: start.elapsed(),
        counters,
        iterations,
    }
}

/// Native SSSP: Bellman-Ford with an active frontier over CSR. Accepts any
/// scalar-readable edge weight type.
pub fn sssp<E: EdgeWeight>(
    edges: &EdgeList<E>,
    source: Index,
    nthreads: usize,
) -> BaselineRun<f32> {
    let adj = csr_from_edges(edges);
    let n = edges.num_vertices() as usize;
    let _ = nthreads;
    let mut counters = CostCounters::new();

    let start = Instant::now();
    let mut dist = vec![f32::MAX; n];
    dist[source as usize] = 0.0;
    let mut frontier = vec![source];
    let mut iterations = 0usize;
    while !frontier.is_empty() {
        iterations += 1;
        let mut next = Vec::new();
        let mut touched = vec![false; n];
        for &u in &frontier {
            let (neighbors, weights) = adj.row(u);
            counters.add_edge_ops(neighbors.len() as u64);
            let du = dist[u as usize];
            for (&v, w) in neighbors.iter().zip(weights) {
                let candidate = du + w.weight();
                if candidate < dist[v as usize] {
                    dist[v as usize] = candidate;
                    if !touched[v as usize] {
                        touched[v as usize] = true;
                        next.push(v);
                    }
                }
            }
        }
        counters.add_vertex_ops(next.len() as u64);
        frontier = next;
    }
    BaselineRun {
        values: dist,
        elapsed: start.elapsed(),
        counters,
        iterations,
    }
}

/// Native triangle counting on the DAG: every vertex intersects its sorted
/// in-neighbour list (its row of the transposed CSR) with the in-neighbour
/// list of each of its in-neighbours, so a triangle is counted at its
/// largest vertex — the lists GraphMat's program intersects, and where it
/// counts. Each task writes the counts of the vertices it owns; tasks are
/// small chunks of vertices handed out dynamically, so a hub does not hold
/// up a lane's static share. Edge values are ignored, so any edge type
/// works.
pub fn triangle_count<E: Clone + Send + Sync>(
    edges: &EdgeList<E>,
    nthreads: usize,
) -> BaselineRun<u64> {
    let dag = edges.to_dag();
    let into = csr_transpose_from_edges(&dag); // row = vertex, cols = in-neighbours
    let n = dag.num_vertices() as usize;
    let executor = Executor::new(nthreads.max(1));
    let edge_ops = AtomicU64::new(0);

    let start = Instant::now();
    let mut values = vec![0u64; n];
    let out = DisjointSlice::new(&mut values, "native triangle counts");
    let ch = chunks(n, 64 * executor.nthreads());
    executor.for_each_dynamic(ch.count(), |c| {
        let (lo, hi) = ch.bounds(c);
        // SAFETY: each task carves only its own chunk's vertex range.
        let counts = unsafe { out.range(lo, hi) };
        let mut ops = 0u64;
        for (v, count) in (lo..hi).zip(counts) {
            let (nv, _) = into.row(v as Index);
            for &u in nv {
                let (nu, _) = into.row(u);
                *count += sorted_intersection_size(nu, nv);
                ops += (nu.len() + nv.len()) as u64;
            }
        }
        edge_ops.fetch_add(ops, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();
    let edge_ops = edge_ops.into_inner();
    let mut counters = CostCounters::new();
    counters.add_edge_ops(edge_ops);
    counters.add_vertex_ops(n as u64);
    counters.add_bytes_read(edge_ops * 4);
    BaselineRun {
        values,
        elapsed,
        counters,
        iterations: 1,
    }
}

/// Size of the intersection of two sorted, duplicate-free id lists.
fn sorted_intersection_size(a: &[Index], b: &[Index]) -> u64 {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
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
    count
}

/// Native collaborative filtering: gradient descent directly over CSR in both
/// directions (this plays the role of the paper's native SGD/GD code; GD is
/// used so results are comparable with the GraphMat program). The features
/// are one flat `n × latent_dims` array, double-buffered: each iteration
/// reads the previous one's and writes the next, in parallel over chunks of
/// vertices with one gradient scratch per task.
pub fn collaborative_filtering(
    ratings: &RatingsGraph,
    latent_dims: usize,
    lambda: f64,
    gamma: f64,
    iterations: usize,
    seed: u64,
    nthreads: usize,
) -> BaselineRun<Vec<f64>> {
    let edges = &ratings.edges;
    let n = edges.num_vertices() as usize;
    let k = latent_dims;
    let user_to_item = csr_from_edges(edges); // rows = users
    let item_to_user = csr_transpose_from_edges(edges); // rows = items
    let row = |v: usize| {
        if (v as u32) < ratings.num_users {
            user_to_item.row(v as Index)
        } else {
            item_to_user.row(v as Index)
        }
    };
    let executor = Executor::new(nthreads.max(1));
    let mut counters = CostCounters::new();

    let start = Instant::now();
    let mut features: Vec<f64> = (0..n as u32)
        .flat_map(|v| (0..k).map(move |i| deterministic_init(seed, v, i, k)))
        .collect();
    let mut next = vec![0.0f64; n * k];
    let updated = (0..n).filter(|&v| !row(v).0.is_empty()).count();
    for _ in 0..iterations {
        let current = &features;
        let next_out = DisjointSlice::new(&mut next, "native cf next features");
        let ch = chunks(n, 64 * executor.nthreads());
        executor.for_each_dynamic(ch.count(), |c| {
            let (lo, hi) = ch.bounds(c);
            // SAFETY: each task carves only its own chunk's feature rows.
            let out = unsafe { next_out.range(lo * k, hi * k) };
            let mut gradient = vec![0.0f64; k];
            for (v, p_next) in (lo..hi).zip(out.chunks_exact_mut(k.max(1))) {
                let p = &current[v * k..(v + 1) * k];
                let (neighbors, ratings_row) = row(v);
                if neighbors.is_empty() {
                    p_next.copy_from_slice(p);
                    continue;
                }
                gradient.fill(0.0);
                for (&other, &rating) in neighbors.iter().zip(ratings_row) {
                    let q = &current[other as usize * k..(other as usize + 1) * k];
                    let dot: f64 = p.iter().zip(q).map(|(a, b)| a * b).sum();
                    let err = rating as f64 - dot;
                    for (g, x) in gradient.iter_mut().zip(q) {
                        *g += err * x;
                    }
                }
                for ((next, p), g) in p_next.iter_mut().zip(p).zip(&gradient) {
                    *next = p + gamma * (g - lambda * p);
                }
            }
        });
        std::mem::swap(&mut features, &mut next);
        counters.add_bytes_read((n * k * 8) as u64);
        counters.add_edge_ops(2 * edges.num_edges() as u64);
        counters.add_vertex_ops(updated as u64);
    }
    let elapsed = start.elapsed();
    BaselineRun {
        values: (0..n)
            .map(|v| features[v * k..(v + 1) * k].to_vec())
            .collect(),
        elapsed,
        counters,
        iterations,
    }
}

/// Same deterministic initial feature values as the GraphMat CF program, so
/// the two implementations can be compared element-wise.
pub fn deterministic_init(seed: u64, v: u32, i: usize, k: usize) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((v as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
        .wrapping_add((i as u64).wrapping_mul(0x165667B19E3779F9));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51AFD7ED558CCD);
    h ^= h >> 33;
    (h >> 11) as f64 / (1u64 << 53) as f64 / (k as f64).sqrt()
}

/// Atomic f32 minimum via compare-exchange on the bit pattern; shared by the
/// worklist engine as well.
pub(crate) fn atomic_min_f32(cell: &AtomicU32, value: f32) -> bool {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        if f32::from_bits(current) <= value {
            return false;
        }
        match cell.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return true,
            Err(actual) => current = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmat_io::bipartite::{self, BipartiteConfig};
    use graphmat_io::uniform::{self, UniformConfig};

    fn small_graph() -> EdgeList {
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
    fn native_sssp_matches_figure3() {
        let run = sssp(&small_graph(), 0, 2);
        assert_eq!(run.values, vec![0.0, 1.0, 2.0, 2.0, 4.0]);
        assert!(run.counters.edge_ops > 0);
    }

    #[test]
    fn native_bfs_levels() {
        let run = bfs(&small_graph(), 0, 2);
        assert_eq!(run.values, vec![0, 1, 1, 1, 1]); // symmetrized: E adjacent to A
    }

    #[test]
    fn native_pagerank_sums_to_vertex_count() {
        let el = uniform::generate(&UniformConfig::new(64, 512).with_seed(5));
        let run = pagerank(&el, 0.15, 30, 2);
        // every vertex has out-edges with high probability; mass ≈ n
        let total: f64 = run.values.iter().sum();
        assert!(total > 30.0 && total < 80.0, "total {total}");
        assert_eq!(run.iterations, 30);
    }

    #[test]
    fn native_triangle_count_on_k4() {
        let mut pairs = Vec::new();
        for i in 0..4u32 {
            for j in (i + 1)..4u32 {
                pairs.push((i, j));
            }
        }
        let el = EdgeList::from_pairs(4, pairs);
        let run = triangle_count(&el, 2);
        assert_eq!(run.values.iter().sum::<u64>(), 4); // C(4,3)
    }

    #[test]
    fn native_cf_reduces_rmse() {
        let ratings = bipartite::generate(&BipartiteConfig {
            num_users: 50,
            num_items: 10,
            num_ratings: 400,
            ..Default::default()
        });
        let before = collaborative_filtering(&ratings, 8, 0.05, 0.002, 0, 7, 1);
        let after = collaborative_filtering(&ratings, 8, 0.05, 0.002, 30, 7, 1);
        let rmse = |features: &Vec<Vec<f64>>| -> f64 {
            let mut sum = 0.0;
            for &(u, v, r) in ratings.edges.edges() {
                let p: f64 = features[u as usize]
                    .iter()
                    .zip(features[v as usize].iter())
                    .map(|(a, b)| a * b)
                    .sum();
                sum += (r as f64 - p) * (r as f64 - p);
            }
            (sum / ratings.edges.num_edges() as f64).sqrt()
        };
        assert!(rmse(&after.values) < rmse(&before.values));
    }

    #[test]
    fn atomic_min_f32_keeps_minimum() {
        let cell = AtomicU32::new(10.0f32.to_bits());
        assert!(atomic_min_f32(&cell, 5.0));
        assert!(!atomic_min_f32(&cell, 7.0));
        assert_eq!(f32::from_bits(cell.load(Ordering::Relaxed)), 5.0);
    }

    #[test]
    fn pagerank_parallel_matches_sequential() {
        let el = uniform::generate(&UniformConfig::new(128, 1024).with_seed(9));
        let a = pagerank(&el, 0.15, 10, 1);
        let b = pagerank(&el, 0.15, 10, 4);
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
