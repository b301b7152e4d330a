//! Unweighted quickstart: the zero-cost `Edge = ()` fast path, on the
//! session API.
//!
//! BFS, connected components, degree and triangle counting never read edge
//! values, so they run on `EdgeList<()>` / `Topology<()>`: the DCSC
//! adjacency matrices store **no edge value bytes at all** (a `Vec<()>` is
//! free), which removes 4 bytes/edge of memory traffic compared to carrying
//! `f32` weights the algorithm would ignore. This example
//!
//! 1. writes a hand-rolled unweighted vertex program against the
//!    `GraphProgram` trait with `type Edge = ()` and runs it through the
//!    `Session` run builder;
//! 2. runs the packaged `bfs_on()` against the same shared topology and
//!    checks they agree;
//! 3. prints the matrix memory footprint next to the footprint the same
//!    topology would cost with `f32` weights.
//!
//! ```text
//! cargo run --release --example unweighted_bfs
//! ```

use graphmat::io::rmat::{self, RmatConfig};
use graphmat::prelude::*;

/// Hop-count BFS with `type Edge = ()` — the unweighted fast path.
struct HopBfs;

impl GraphProgram for HopBfs {
    type VertexProp = u32;
    type Message = u32;
    type Reduced = u32;
    /// No edge values: the adjacency matrices store indices only.
    type Edge = ();

    fn send_message(&self, _v: VertexId, dist: &u32) -> Option<u32> {
        Some(*dist)
    }

    fn process_message(&self, msg: &u32, _edge: &(), _dst: &u32) -> u32 {
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
}

fn main() -> Result<(), GraphMatError> {
    // An unweighted social-style graph. `topology()` strips the generator's
    // unit weights, leaving an EdgeList<()>. BFS treats edges as
    // undirected, so symmetrize before building — session drivers never
    // preprocess behind your back.
    let weighted = rmat::generate(&RmatConfig::graph500(14).with_seed(99));
    let edges = weighted.symmetrized().topology();
    println!(
        "graph: {} vertices, {} undirected edges (unweighted)",
        edges.num_vertices(),
        edges.num_edges()
    );

    let session = Session::with_defaults()?;
    let topo = session.build_graph(&edges).finish()?;

    // Hand-rolled program through the run builder.
    let outcome = session
        .run(&topo, HopBfs)
        .init_all(u32::MAX)
        .seed_with(0, 0)
        .execute()?;
    println!(
        "hand-rolled BFS: {} supersteps, matrix footprint {} bytes (zero value bytes)",
        outcome.stats.iterations, outcome.stats.matrix_bytes
    );

    // Packaged bfs_on() — same shared topology, same answers.
    let packaged = bfs_on(&session, &topo, 0)?;
    assert_eq!(packaged.values, outcome.values);
    println!("packaged bfs_on() agrees with the hand-written program ✓");

    // What the same topology costs with f32 weights the algorithm ignores:
    let weighted_topo = session
        .build_graph(&edges.with_weights(|_, _| 1.0f32))
        .finish()?;
    // Compare like with like: a pull derives a side's mirror on first use,
    // so give both topologies theirs.
    topo.out_pull_mirror();
    weighted_topo.out_pull_mirror();
    let unweighted_bytes = topo.matrix_bytes();
    let weighted_bytes = weighted_topo.matrix_bytes();
    println!(
        "matrix memory: unweighted {} bytes vs weighted {} bytes — {:.1}% saved ({} bytes/edge)",
        unweighted_bytes,
        weighted_bytes,
        100.0 * (weighted_bytes - unweighted_bytes) as f64 / weighted_bytes as f64,
        (weighted_bytes - unweighted_bytes) / edges.num_edges().max(1)
    );

    let reached = packaged.values.iter().filter(|&&d| d != u32::MAX).count();
    println!("{reached} vertices reachable from the root");
    Ok(())
}
