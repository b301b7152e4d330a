//! The generator's output, pinned.
//!
//! Every dataset is "the graph this seed produces" (`graphmat_io::rng`), so
//! a change to `rmat::generate` or to the passes that pre-process its output
//! must reproduce every graph bit for bit. Each test hashes one edge list
//! (FNV-1a over `src`, `dst` and the weight's bits, in order) and compares
//! it with the constant recorded from the generator that defined the
//! dataset. The scale-17 pins are the benchmark's `pr_dense` and
//! `bfs_frontier` inputs; they take seconds in a debug build, so they are
//! ignored by default:
//!
//! ```text
//! cargo test --release --test generator_pins -- --ignored
//! ```

use graphmat_io::edgelist::EdgeList;
use graphmat_io::rmat::{self, RmatConfig};
use graphmat_io::rng::StdRng;

/// FNV-1a, 64-bit, over each edge's `src`, `dst` and `w.to_bits()` (all
/// little-endian `u32`s), in list order; the vertex count goes first.
fn fingerprint(edges: &EdgeList) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(edges.num_vertices());
    for &(s, d, w) in edges.edges() {
        eat(s);
        eat(d);
        eat(w.to_bits());
    }
    h
}

fn assert_pinned(name: &str, edges: &EdgeList, num_edges: usize, pinned: u64) {
    let got = fingerprint(edges);
    assert!(
        edges.num_edges() == num_edges && got == pinned,
        "{name}: {} edges, fingerprint {got:#018x}; pinned {num_edges} edges, {pinned:#018x}",
        edges.num_edges()
    );
}

#[test]
fn graph500_weighted_seed_1() {
    let cfg = RmatConfig::graph500(12).with_seed(1).with_weights(1, 10);
    assert_pinned(
        "graph500(12) seed 1 w1..=10",
        &rmat::generate(&cfg),
        65_297,
        0xfdd0_e241_211a_7eb4,
    );
}

#[test]
fn graph500_weighted_seed_2() {
    let cfg = RmatConfig::graph500(12).with_seed(2).with_weights(1, 10);
    assert_pinned(
        "graph500(12) seed 2 w1..=10",
        &rmat::generate(&cfg),
        65_337,
        0x498b_d7db_8d7c_1072,
    );
}

#[test]
fn graph500_unweighted() {
    let cfg = RmatConfig::graph500(12).with_seed(1);
    assert_pinned(
        "graph500(12) seed 1",
        &rmat::generate(&cfg),
        65_319,
        0x971e_4723_5774_5f76,
    );
}

#[test]
fn triangle_counting_parameters() {
    let cfg = RmatConfig::triangle_counting(11).with_seed(3);
    assert_pinned(
        "triangle_counting(11) seed 3",
        &rmat::generate(&cfg),
        32_158,
        0xd35e_c815_ba84_14f9,
    );
}

#[test]
fn sssp_extra_parameters() {
    let cfg = RmatConfig::sssp_extra(11).with_seed(4);
    assert_pinned(
        "sssp_extra(11) seed 4",
        &rmat::generate(&cfg),
        29_916,
        0x3f77_3634_0a43_6420,
    );
}

#[test]
fn without_noise() {
    let cfg = RmatConfig {
        noise: false,
        ..RmatConfig::graph500(12).with_seed(5).with_weights(1, 10)
    };
    assert_pinned(
        "graph500(12) noise off",
        &rmat::generate(&cfg),
        65_305,
        0x346d_be3a_fe48_2f80,
    );
}

#[test]
fn scale_one() {
    let cfg = RmatConfig::graph500(1).with_seed(6).with_weights(1, 10);
    assert_pinned(
        "graph500(1) seed 6",
        &rmat::generate(&cfg),
        12,
        0x2939_028f_7567_6ad6,
    );
}

/// The first `f64` of a seed's stream: the top-level quadrant draw of the
/// first edge.
fn first_draw(seed: u64) -> f64 {
    StdRng::seed_from_u64(seed).gen()
}

/// A draw equal to a threshold falls into the later quadrant (`r == A` is
/// not top-left). A random draw never lands on a threshold, so each of
/// these configs puts one threshold exactly on the first draw.
#[test]
fn a_draw_on_a_threshold_falls_into_the_later_quadrant() {
    let seed = (1..).find(|&s| first_draw(s) < 0.5).unwrap();
    let r = first_draw(seed);
    let tie = |a, b, c| RmatConfig {
        scale: 1,
        edge_factor: 4,
        a,
        b,
        c,
        seed,
        noise: false,
        weight_range: (1, 1),
    };
    assert_pinned(
        "tie at A",
        &rmat::generate(&tie(r, 0.2, 0.2)),
        3,
        0xea2e_6eb3_1ef6_23c7,
    );
    assert_pinned(
        "tie at A + B",
        &rmat::generate(&tie(0.0, r, 0.2)),
        4,
        0xe534_c867_77f9_1687,
    );
    assert_pinned(
        "tie at A + B + C",
        &rmat::generate(&tie(0.0, 0.0, r)),
        1,
        0x328b_a2a9_2dcc_b1d7,
    );
}

/// The pre-processing passes keep the first weight of every duplicate pair,
/// so their output is pinned along with the generator's.
#[test]
fn symmetrized_and_dag() {
    let directed = rmat::generate(&RmatConfig::graph500(12).with_seed(1).with_weights(1, 10));
    assert_pinned(
        "graph500(12) symmetrized",
        &directed.symmetrized(),
        96_658,
        0x1652_72cc_c04f_c485,
    );
    assert_pinned(
        "graph500(12) to_dag",
        &directed.to_dag(),
        48_329,
        0xba94_c86e_9047_4202,
    );
}

/// `pr_dense`'s input: RMAT-17, edge factor 16, weights 1..=10.
fn benchmark_rmat(seed: u64) -> EdgeList {
    rmat::generate(&RmatConfig::graph500(17).with_seed(seed).with_weights(1, 10))
}

#[test]
#[ignore = "scale 17: run with --release -- --ignored"]
fn pr_dense_input_seed_1() {
    assert_pinned(
        "pr_dense seed 1",
        &benchmark_rmat(1),
        2_096_550,
        0x9103_ca34_b7f6_14fa,
    );
}

#[test]
#[ignore = "scale 17: run with --release -- --ignored"]
fn pr_dense_input_seed_2() {
    assert_pinned(
        "pr_dense seed 2",
        &benchmark_rmat(2),
        2_096_516,
        0xb819_93c9_6b19_9f7b,
    );
}

/// `bfs_frontier`'s input before its weights are dropped.
#[test]
#[ignore = "scale 17: run with --release -- --ignored"]
fn bfs_frontier_input_seed_1() {
    let sym = benchmark_rmat(1).symmetrized();
    assert_pinned(
        "bfs_frontier seed 1",
        &sym,
        3_730_086,
        0xd258_26be_2067_7eeb,
    );
}

#[test]
#[ignore = "scale 17: run with --release -- --ignored"]
fn bfs_frontier_input_seed_2() {
    let sym = benchmark_rmat(2).symmetrized();
    assert_pinned(
        "bfs_frontier seed 2",
        &sym,
        3_728_706,
        0x4c37_5840_cf4e_958f,
    );
}
