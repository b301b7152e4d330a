//! Rank a synthetic web/social graph with PageRank and compare GraphMat's
//! engine against the hand-optimized native baseline (the Table 3
//! experiment, in miniature). Uses the session API: the topology is built
//! once and the GraphMat run goes through `pagerank_on`.
//!
//! ```text
//! cargo run --release --example pagerank_web
//! ```

use graphmat::baselines::native;
use graphmat::io::rmat::{self, RmatConfig};
use graphmat::prelude::*;
use std::time::Instant;

fn main() -> Result<(), GraphMatError> {
    // A power-law "web graph" from the Graph500 RMAT generator with the
    // paper's PageRank parameters (A=0.57, B=C=0.19).
    let scale = 15;
    let edges = rmat::generate(&RmatConfig::graph500(scale).with_seed(2024));
    println!(
        "generated RMAT scale {scale}: {} vertices, {} edges",
        edges.num_vertices(),
        edges.num_edges()
    );

    let iterations = 10;
    let config = PageRankConfig {
        iterations,
        ..Default::default()
    };

    // GraphMat engine: build the resident matrix once, then query it.
    let session = Session::with_defaults()?;
    let t0 = Instant::now();
    let topo = session.build_graph(&edges).finish()?;
    let build_wall = t0.elapsed();
    let t1 = Instant::now();
    let graphmat_run = pagerank_on(&session, &topo, &config)?;
    let graphmat_wall = t1.elapsed();

    // Native, hand-optimized CSR implementation.
    let native_run = native::pagerank(&edges, 0.15, iterations, 0);

    println!(
        "GraphMat : {:.3} ms/iteration (engine time; {:.3} ms wall + {:.3} ms one-off graph build)",
        graphmat_run.stats.total_time.as_secs_f64() * 1000.0 / iterations as f64,
        graphmat_wall.as_secs_f64() * 1000.0,
        build_wall.as_secs_f64() * 1000.0
    );
    println!(
        "Native   : {:.3} ms/iteration",
        native_run.elapsed.as_secs_f64() * 1000.0 / iterations as f64
    );

    // Same results?
    let max_diff = graphmat_run
        .values
        .iter()
        .zip(native_run.values.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |GraphMat - native| rank difference: {max_diff:.2e}");

    // Show the top-ranked vertices.
    let mut order: Vec<usize> = (0..graphmat_run.values.len()).collect();
    order.sort_by(|&a, &b| {
        graphmat_run.values[b]
            .partial_cmp(&graphmat_run.values[a])
            .unwrap()
    });
    println!("top 5 vertices by rank:");
    for &v in order.iter().take(5) {
        println!(
            "  vertex {v:>6}  rank {:>8.3}  in-degree {}",
            graphmat_run.values[v],
            topo.in_degrees()[v]
        );
    }
    Ok(())
}
