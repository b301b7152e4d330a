//! Graph500 RMAT (Recursive MATrix) graph generator.
//!
//! The paper's synthetic graphs come from the Graph500 RMAT generator with
//! three parameter sets (§5.1):
//!
//! * PageRank / BFS / SSSP: `A = 0.57, B = C = 0.19` (scale 23);
//! * Triangle Counting: `A = 0.45, B = C = 0.15` (scale 20);
//! * one extra SSSP graph: `A = 0.50, B = C = 0.10` (scale 24).
//!
//! An RMAT graph with scale `s` has `2^s` vertices; each edge is placed by
//! recursively choosing one of the four quadrants of the adjacency matrix
//! with probabilities `A`, `B`, `C`, `D = 1 − A − B − C` until a single cell
//! is reached. Skewed parameters produce the heavy-tailed degree
//! distributions of social graphs, which is what stresses load balancing.
//!
//! # The random stream is a contract
//!
//! A dataset is "the graph this seed produces" ([`crate::rng`]), so the order
//! in which [`generate`] reads its one [`StdRng`] is fixed, and pinned by
//! `tests/generator_pins.rs`. Edges are drawn one after another; for each:
//!
//! * per level, top bit first: with noise, 5 `f64` draws (the quadrant draw
//!   `r`, then the jitters of `A`, `B`, `C` and `D` in that order); without
//!   noise, 1 (`r` only);
//! * then, only if the edge is kept (not a self-loop) and the weight range
//!   holds more than one value, the weight: a Lemire rejection draw of one or
//!   more `u64`s.
//!
//! Within a level, `r` is compared with `A`, `A + B` and `(A + B) + C` in
//! exactly these float expressions; every edge therefore depends on the
//! rounding of each, and a rewrite must keep them.

use crate::edgelist::EdgeList;
use crate::rng::StdRng;
use graphmat_sparse::Index;

/// Configuration for the RMAT generator.
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average number of directed edges per vertex (Graph500 uses 16).
    pub edge_factor: usize,
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
    /// If `true`, add a small random perturbation to the quadrant
    /// probabilities at every level, as the Graph500 reference does, to avoid
    /// exactly self-similar artefacts.
    pub noise: bool,
    /// Range of random integer edge weights, inclusive (e.g. `(1, 10)` for
    /// SSSP); `(1, 1)` gives an unweighted graph.
    pub weight_range: (u32, u32),
}

impl Default for RmatConfig {
    fn default() -> Self {
        RmatConfig {
            scale: 14,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 42,
            noise: true,
            weight_range: (1, 1),
        }
    }
}

impl RmatConfig {
    /// The paper's PageRank/BFS/SSSP parameter set (`A=0.57, B=C=0.19`).
    pub fn graph500(scale: u32) -> Self {
        RmatConfig {
            scale,
            ..Default::default()
        }
    }

    /// The paper's Triangle Counting parameter set (`A=0.45, B=C=0.15`).
    pub fn triangle_counting(scale: u32) -> Self {
        RmatConfig {
            scale,
            a: 0.45,
            b: 0.15,
            c: 0.15,
            ..Default::default()
        }
    }

    /// The paper's extra SSSP parameter set (`A=0.50, B=C=0.10`), used for
    /// the RMAT scale-24 graph matching [13, 24].
    pub fn sssp_extra(scale: u32) -> Self {
        RmatConfig {
            scale,
            a: 0.50,
            b: 0.10,
            c: 0.10,
            weight_range: (1, 255),
            ..Default::default()
        }
    }

    /// Number of vertices this configuration produces.
    pub fn num_vertices(&self) -> Index {
        1u32 << self.scale
    }

    /// Number of directed edges this configuration produces.
    pub fn num_edges(&self) -> usize {
        (self.num_vertices() as usize) * self.edge_factor
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the edge factor.
    pub fn with_edge_factor(mut self, edge_factor: usize) -> Self {
        self.edge_factor = edge_factor;
        self
    }

    /// Override the weight range.
    pub fn with_weights(mut self, lo: u32, hi: u32) -> Self {
        self.weight_range = (lo, hi);
        self
    }
}

/// Generate an RMAT edge list. Self-loops are removed (as the paper always
/// does); duplicate edges are kept, matching the Graph500 specification.
pub fn generate(config: &RmatConfig) -> EdgeList {
    assert!(
        config.scale >= 1 && config.scale <= 30,
        "scale out of range"
    );
    assert!(
        [config.a, config.b, config.c]
            .iter()
            .all(|p| p.is_finite() && *p >= 0.0),
        "quadrant probabilities must be finite and non-negative"
    );
    assert!(
        config.a + config.b + config.c <= 1.0 + 1e-9,
        "quadrant probabilities must sum to at most 1"
    );
    let n = config.num_vertices();
    let num_edges = config.num_edges();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut edges = Vec::with_capacity(num_edges);
    let (wlo, whi) = config.weight_range;
    assert!(wlo <= whi && wlo >= 1, "invalid weight range");

    for _ in 0..num_edges {
        let (src, dst) = sample_edge(config, &mut rng);
        if src == dst {
            continue; // paper removes self loops
        }
        let w = if wlo == whi {
            wlo as f32
        } else {
            rng.gen_range(wlo..=whi) as f32
        };
        edges.push((src, dst, w));
    }
    EdgeList::from_tuples(n, edges)
}

fn sample_edge(config: &RmatConfig, rng: &mut StdRng) -> (Index, Index) {
    let mut row = 0u32;
    let mut col = 0u32;
    let (mut a, mut b, mut c) = (config.a, config.b, config.c);
    for level in 0..config.scale {
        let r: f64 = rng.gen();
        let bit = 1u32 << (config.scale - 1 - level);
        // The quadrant without a branch (one per level would mispredict at
        // P(A) = 0.57): the thresholds ascend because `a, b, c ≥ 0`, so
        // `r ≥ a + b` means a bottom quadrant (row bit), and `r` in
        // `[a, a + b)` or from `a + b + c` on a right one (column bit).
        let ge_a = r >= a;
        let ge_ab = r >= a + b;
        let ge_abc = r >= a + b + c;
        row |= bit * u32::from(ge_ab);
        col |= bit * u32::from((ge_a & !ge_ab) | ge_abc);
        if config.noise {
            // Graph500-style noise: jitter each probability by up to ±5% and
            // renormalise, keeping determinism through the shared RNG.
            let jitter = |p: f64, rng: &mut StdRng| p * (0.95 + 0.1 * rng.gen::<f64>());
            let (na, nb, nc, nd) = (
                jitter(config.a, rng),
                jitter(config.b, rng),
                jitter(config.c, rng),
                jitter((1.0 - config.a - config.b - config.c).max(0.0), rng),
            );
            let total = na + nb + nc + nd;
            a = na / total;
            b = nb / total;
            c = nc / total;
        }
    }
    (row, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_size() {
        let cfg = RmatConfig::graph500(8).with_seed(7);
        let el = generate(&cfg);
        assert_eq!(el.num_vertices(), 256);
        // self loops removed, so <= scale * edge_factor
        assert!(el.num_edges() <= cfg.num_edges());
        assert!(el.num_edges() > cfg.num_edges() / 2);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = RmatConfig::graph500(7).with_seed(123);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        let c = generate(&RmatConfig::graph500(7).with_seed(124));
        assert_ne!(a, c);
    }

    #[test]
    fn no_self_loops() {
        let el = generate(&RmatConfig::graph500(8));
        assert!(el.edges().iter().all(|&(s, d, _)| s != d));
    }

    #[test]
    fn endpoints_in_range() {
        let cfg = RmatConfig::triangle_counting(9);
        let el = generate(&cfg);
        let n = cfg.num_vertices();
        assert!(el.edges().iter().all(|&(s, d, _)| s < n && d < n));
    }

    #[test]
    fn skewed_parameters_produce_skewed_degrees() {
        // With A=0.57 the degree distribution must be heavy-tailed: the max
        // out-degree should far exceed the average.
        let el = generate(&RmatConfig::graph500(10).with_seed(3));
        let st = el.stats();
        assert!(
            st.max_out_degree as f64 > 5.0 * st.avg_degree,
            "max {} avg {}",
            st.max_out_degree,
            st.avg_degree
        );
    }

    #[test]
    fn uniform_parameters_are_less_skewed_than_graph500() {
        let skewed = generate(&RmatConfig::graph500(10).with_seed(5)).stats();
        let flat = generate(&RmatConfig {
            scale: 10,
            a: 0.25,
            b: 0.25,
            c: 0.25,
            seed: 5,
            ..Default::default()
        })
        .stats();
        assert!(skewed.max_out_degree > flat.max_out_degree);
    }

    #[test]
    fn weights_respect_range() {
        let cfg = RmatConfig::sssp_extra(8);
        let el = generate(&cfg);
        assert!(el
            .edges()
            .iter()
            .all(|&(_, _, w)| (1.0..=255.0).contains(&w)));
    }

    #[test]
    fn paper_parameter_sets() {
        let pr = RmatConfig::graph500(20);
        assert!((pr.a - 0.57).abs() < 1e-12 && (pr.b - 0.19).abs() < 1e-12);
        let tc = RmatConfig::triangle_counting(20);
        assert!((tc.a - 0.45).abs() < 1e-12 && (tc.b - 0.15).abs() < 1e-12);
        let ss = RmatConfig::sssp_extra(24);
        assert!((ss.a - 0.50).abs() < 1e-12 && (ss.b - 0.10).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn invalid_probabilities_panic() {
        let cfg = RmatConfig {
            a: 0.8,
            b: 0.3,
            c: 0.3,
            ..Default::default()
        };
        let _ = generate(&cfg);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_probability_panics() {
        // sums to 0.8, so only the sign check can reject it
        let cfg = RmatConfig {
            a: 0.8,
            b: -0.3,
            c: 0.3,
            ..Default::default()
        };
        let _ = generate(&cfg);
    }
}
