//! Shortest paths on a road network — the high-diameter workload where the
//! paper credits GraphMat's low per-iteration overhead for its 10× win over
//! GraphLab and CombBLAS (Figure 4e, Flickr / USA-road discussion).
//!
//! The example generates a grid road network (the USA-road stand-in), runs
//! SSSP under GraphMat (through a `Session` over a shared topology — the
//! serving shape, where repeated queries never rebuild the matrix) and
//! under two comparator engines, and prints the runtime plus the number of
//! supersteps/rounds each needed.
//!
//! ```text
//! cargo run --release --example road_network_sssp
//! ```

use graphmat::baselines::{vertexpull, worklist};
use graphmat::io::grid;
use graphmat::prelude::*;

fn main() -> Result<(), GraphMatError> {
    // A 300×300 road grid with a few missing segments and random lengths.
    let config = GridConfig {
        removal_fraction: 0.06,
        num_shortcuts: 16,
        ..GridConfig::square(300)
    };
    let edges = grid::generate(&config);
    println!(
        "road network: {} intersections, {} road segments",
        edges.num_vertices(),
        edges.num_edges()
    );

    let source = config.vertex(0, 0);

    // GraphMat: matrix built once, SSSP queried through the session.
    let session = Session::with_defaults()?;
    let topo = session.build_graph(&edges).finish()?;
    let gm = sssp_on(&session, &topo, source)?;
    println!(
        "GraphMat      : {:>8.1} ms, {:>4} supersteps",
        gm.stats.total_time.as_secs_f64() * 1000.0,
        gm.stats.iterations
    );

    // GraphLab-style gather-apply-scatter engine.
    let gl = vertexpull::sssp(&edges, source, 0);
    println!(
        "GraphLab-like : {:>8.1} ms, {:>4} rounds",
        gl.elapsed.as_secs_f64() * 1000.0,
        gl.iterations
    );

    // Galois-style asynchronous worklist engine.
    let ga = worklist::sssp(&edges, source, 0);
    println!(
        "Galois-like   : {:>8.1} ms, {:>4} rounds (asynchronous)",
        ga.elapsed.as_secs_f64() * 1000.0,
        ga.iterations
    );

    // All three agree on the distances.
    let mut max_diff = 0.0f32;
    let mut reachable = 0usize;
    for ((a, b), c) in gm.values.iter().zip(gl.values.iter()).zip(ga.values.iter()) {
        if *a < f32::MAX {
            reachable += 1;
            max_diff = max_diff.max((a - b).abs()).max((a - c).abs());
        }
    }
    println!("{reachable} intersections reachable; max distance disagreement {max_diff:.1e}");

    // The resident matrix answers more queries with no rebuild: shortest
    // paths from the opposite corner reuse the same Arc<Topology>.
    let far_corner = config.vertex(299, 299);
    let back = sssp_on(&session, &topo, far_corner)?;
    let far = gm
        .values
        .iter()
        .enumerate()
        .filter(|(_, d)| **d < f32::MAX)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!(
        "farthest reachable intersection from (0,0): id {} at total length {:.0}",
        far.0, far.1
    );
    println!(
        "second query (from the far corner, same resident matrix): {} supersteps",
        back.stats.iterations
    );
    Ok(())
}
