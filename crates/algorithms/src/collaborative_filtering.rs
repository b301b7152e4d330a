//! Collaborative filtering (matrix factorization by gradient descent) as a
//! GraphMat vertex program.
//!
//! The paper's formulation (§3-III, equations 3–6): each user `u` and item
//! `v` owns a latent vector `p ∈ ℝᴷ`; the goal is to minimise
//! `Σ (G_uv − pᵤᵀp_v)² + λ(‖pᵤ‖² + ‖p_v‖²)`. One gradient-descent step per
//! superstep:
//!
//! ```text
//! e_uv = G_uv − pᵤᵀ p_v
//! pᵤ ← pᵤ + γ [ Σ_v e_uv p_v − λ pᵤ ]
//! p_v ← p_v + γ [ Σ_u e_uv pᵤ − λ p_v ]
//! ```
//!
//! The ratings graph is bipartite (edges run user → item) and the program
//! scatters along **both** edge directions, so users and items update
//! simultaneously from the previous superstep's values — which is exactly GD
//! (not SGD), the reason the paper's CF is *faster* than the SGD native
//! baseline in Table 3.
//!
//! `PROCESS_MESSAGE` needs the destination vertex's latent vector to compute
//! `e_uv`; as with triangle counting, this is the frontend capability that
//! pure-semiring frameworks lack. `K` is a compile-time constant, so a
//! latent vector, a message and a gradient are all one `[f64; K]` held in
//! place: nothing is allocated per edge or per superstep.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{ActivityPolicy, EdgeDirection, GraphProgram, Session, Topology, VertexId};
use graphmat_io::edgelist::{EdgeList, EdgeWeight};

/// Collaborative filtering parameters. The number of latent features `K` is
/// the drivers' const generic (the paper uses a small constant; the figure
/// harness runs 20).
#[derive(Clone, Copy, Debug)]
pub struct CfConfig {
    /// Regularisation weight `λ`.
    pub lambda: f64,
    /// Learning rate `γ`.
    pub gamma: f64,
    /// Number of gradient-descent iterations.
    pub iterations: usize,
    /// Seed for the deterministic initialisation of the latent vectors.
    pub seed: u64,
}

impl Default for CfConfig {
    fn default() -> Self {
        CfConfig {
            lambda: 0.05,
            gamma: 0.002,
            iterations: 10,
            seed: 7,
        }
    }
}

/// `K` latent features: a vertex's state, the message it sends and the
/// gradient it receives. A newtype because `std` implements `Default` for
/// arrays only up to 32 elements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Features<const K: usize>(pub [f64; K]);

impl<const K: usize> Default for Features<K> {
    fn default() -> Self {
        Features([0.0; K])
    }
}

/// The gradient-descent CF vertex program. Generic over any scalar-readable
/// rating type (`f32` by default, integer star ratings work too).
pub struct CfProgram<const K: usize, E = f32> {
    lambda: f64,
    gamma: f64,
    _edge: std::marker::PhantomData<E>,
}

impl<const K: usize, E: EdgeWeight> GraphProgram for CfProgram<K, E> {
    type VertexProp = Features<K>;
    type Message = Features<K>;
    type Reduced = Features<K>;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Both
    }

    fn send_message(&self, _v: VertexId, prop: &Features<K>) -> Option<Features<K>> {
        Some(*prop)
    }

    fn process_message(&self, msg: &Features<K>, rating: &E, dst: &Features<K>) -> Features<K> {
        // e = G_uv − p_other · p_self ; contribution = e * p_other
        let dot: f64 = msg.0.iter().zip(&dst.0).map(|(a, b)| a * b).sum();
        let error = rating.weight() as f64 - dot;
        Features(msg.0.map(|x| error * x))
    }

    fn reduce(&self, acc: &mut Features<K>, value: Features<K>) {
        for (a, v) in acc.0.iter_mut().zip(value.0) {
            *a += v;
        }
    }

    fn apply(&self, reduced: &Features<K>, prop: &mut Features<K>) {
        for (p, grad) in prop.0.iter_mut().zip(&reduced.0) {
            *p += self.gamma * (grad - self.lambda * *p);
        }
    }
}

/// Run collaborative filtering with `K` latent features over a pre-built
/// graph through a [`Session`] and return the per-vertex latent vectors
/// (users first, then items, in vertex-id order).
///
/// The topology must be built from the bipartite ratings edge list (edges
/// run from user vertices to item vertices; weights are ratings). The
/// program scatters in both directions, so its first run on a topology
/// derives the `G` matrix from the stored `Gᵀ`. A `config.iterations` of
/// `0` returns the deterministic initial latent vectors without running.
pub fn collaborative_filtering_on<const K: usize, E: EdgeWeight + 'static>(
    session: &Session,
    view: &Topology<E>,
    config: &CfConfig,
) -> Result<AlgorithmOutput<[f64; K]>> {
    let seed = config.seed;
    crate::run_fresh(
        view,
        |state| {
            state.init_properties(|v| {
                Features(std::array::from_fn(|i| init_feature(seed, v, i, K)))
            });
            if config.iterations == 0 {
                return Ok(crate::zero_superstep_result(view, session));
            }
            let program = CfProgram::<K, E> {
                lambda: config.lambda,
                gamma: config.gamma,
                _edge: std::marker::PhantomData,
            };
            session
                .run(view, program)
                .activate_all()
                // gradient descent updates every user and item each iteration
                .activity(ActivityPolicy::AlwaysAll)
                .max_iterations(config.iterations)
                .execute_with(state)
        },
        |p| p.0,
    )
}

/// Deterministic pseudo-random initial feature value in `[0, 1/√K)`.
fn init_feature(seed: u64, v: VertexId, i: usize, k: usize) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((v as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
        .wrapping_add((i as u64).wrapping_mul(0x165667B19E3779F9));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51AFD7ED558CCD);
    h ^= h >> 33;
    (h >> 11) as f64 / (1u64 << 53) as f64 / (k as f64).sqrt()
}

/// Root-mean-square error of the factorization over the given ratings.
pub fn rmse<E: EdgeWeight, const K: usize>(edges: &EdgeList<E>, features: &[[f64; K]]) -> f64 {
    if edges.num_edges() == 0 {
        return 0.0;
    }
    let mut sum = 0.0f64;
    for (u, v, rating) in edges.edges() {
        let prediction: f64 = features[*u as usize]
            .iter()
            .zip(&features[*v as usize])
            .map(|(a, b)| a * b)
            .sum();
        let err = rating.weight() as f64 - prediction;
        sum += err * err;
    }
    (sum / edges.num_edges() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmat_io::bipartite::{self, BipartiteConfig, RatingsGraph};

    fn small_ratings() -> RatingsGraph {
        bipartite::generate(&BipartiteConfig {
            num_users: 60,
            num_items: 15,
            num_ratings: 500,
            ..Default::default()
        })
    }

    /// CF over a freshly built topology with `threads` lanes.
    fn factorize<const K: usize>(
        ratings: &RatingsGraph,
        config: &CfConfig,
        threads: usize,
    ) -> AlgorithmOutput<[f64; K]> {
        let session = Session::with_threads(threads).unwrap();
        let topo = session.build_graph(&ratings.edges).finish().unwrap();
        collaborative_filtering_on::<K, _>(&session, &topo, config).unwrap()
    }

    #[test]
    fn rmse_decreases_over_iterations() {
        let ratings = small_ratings();
        let base = CfConfig {
            iterations: 0,
            ..Default::default()
        };
        let trained_cfg = CfConfig {
            iterations: 30,
            ..base
        };
        let initial = factorize::<8>(&ratings, &base, 1);
        let trained = factorize::<8>(&ratings, &trained_cfg, 1);
        let rmse_initial = rmse(&ratings.edges, &initial.values);
        let rmse_trained = rmse(&ratings.edges, &trained.values);
        assert!(
            rmse_trained < rmse_initial * 0.9,
            "training should reduce RMSE: {rmse_initial} -> {rmse_trained}"
        );
    }

    #[test]
    fn latent_vectors_cover_every_vertex() {
        let ratings = small_ratings();
        let cfg = CfConfig {
            iterations: 2,
            ..Default::default()
        };
        let out = factorize::<5>(&ratings, &cfg, 1);
        assert_eq!(out.values.len(), ratings.edges.num_vertices() as usize);
    }

    #[test]
    fn runs_requested_iterations() {
        let ratings = small_ratings();
        let cfg = CfConfig {
            iterations: 6,
            ..Default::default()
        };
        assert_eq!(factorize::<4>(&ratings, &cfg, 1).stats.iterations, 6);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let ratings = small_ratings();
        let cfg = CfConfig {
            iterations: 5,
            ..Default::default()
        };
        let seq = factorize::<4>(&ratings, &cfg, 1);
        let par = factorize::<4>(&ratings, &cfg, 4);
        let bits = |out: &AlgorithmOutput<[f64; 4]>| -> Vec<u64> {
            out.values.iter().flatten().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&seq), bits(&par));
    }

    #[test]
    fn initialisation_is_deterministic_and_bounded() {
        for v in 0..50u32 {
            for i in 0..8usize {
                let a = init_feature(7, v, i, 8);
                let b = init_feature(7, v, i, 8);
                assert_eq!(a, b);
                assert!((0.0..1.0).contains(&a));
            }
        }
    }

    #[test]
    fn rmse_of_perfect_factorization_is_zero() {
        // rating = 2.0, features chosen so dot product = 2.0 exactly
        let el = EdgeList::from_tuples(2, vec![(0, 1, 2.0)]);
        let features = [[1.0, 1.0], [1.0, 1.0]];
        assert!(rmse(&el, &features) < 1e-12);
    }
}
