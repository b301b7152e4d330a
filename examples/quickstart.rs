//! Quickstart: write your own vertex program and run it through a `Session`.
//!
//! This example implements the paper's running example — single-source
//! shortest paths (Figure 3 / appendix listing) — directly against the
//! `GraphProgram` trait, then runs it through the three-layer API:
//!
//! 1. `Session::with_defaults()` — one persistent worker pool for the whole
//!    process;
//! 2. `session.build_graph(..).finish()` — an immutable `Arc<Topology>`
//!    built once and shared by every query (and every thread) after it;
//! 3. `session.run(..).seed_with(..).execute()` — a per-query run with its
//!    own `VertexState`, returning a typed `RunOutcome` (or a
//!    `GraphMatError` for bad input, instead of a panic).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use graphmat::prelude::*;

/// The SSSP vertex program from the paper's appendix, translated to Rust.
struct Sssp;

impl GraphProgram for Sssp {
    /// Distance is stored as a single-precision floating point number.
    type VertexProp = f32;
    type Message = f32;
    type Reduced = f32;
    /// Edges carry `f32` lengths (use `()` for unweighted programs).
    type Edge = f32;

    /// Perform path traversals only via out-edges.
    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    /// Send message: read the vertex property and generate the message.
    fn send_message(&self, _v: VertexId, distance: &f32) -> Option<f32> {
        Some(*distance)
    }

    /// Process message: add the edge weight to the incoming distance.
    fn process_message(&self, message: &f32, edge_weight: &f32, _dst: &f32) -> f32 {
        message + edge_weight
    }

    /// Reduce: keep the minimum candidate distance.
    fn reduce(&self, acc: &mut f32, value: f32) {
        if value < *acc {
            *acc = value;
        }
    }

    /// Apply: keep the smaller of the old and new distance.
    fn apply(&self, reduced: &f32, distance: &mut f32) {
        if *reduced < *distance {
            *distance = *reduced;
        }
    }
}

fn main() -> Result<(), GraphMatError> {
    // The weighted graph of the paper's Figure 3: vertices A..E = 0..4.
    let edges = EdgeList::from_tuples(
        5,
        vec![
            (0, 1, 1.0), // A -> B, weight 1
            (0, 2, 3.0), // A -> C, weight 3
            (0, 3, 2.0), // A -> D, weight 2
            (1, 2, 1.0), // B -> C, weight 1
            (2, 3, 2.0), // C -> D, weight 2
            (3, 4, 2.0), // D -> E, weight 2
            (4, 0, 4.0), // E -> A, weight 4
        ],
    );

    // One session per process: it owns the worker pool every run shares.
    let session = Session::with_defaults()?;

    // Build the topology ONCE. The Arc<Topology> is immutable and Sync —
    // every query from here on (from any thread) reads the same matrices.
    let topology = session.build_graph(&edges).finish()?;

    // Run the program: infinity everywhere, source A = 0 seeded active.
    let outcome = session
        .run(&topology, Sssp)
        .init_all(f32::MAX)
        .seed_with(0, 0.0)
        .max_iterations(50)
        .execute()?;

    println!("SSSP from vertex A on the paper's Figure 3 graph");
    println!(
        "  converged: {} after {} supersteps",
        outcome.converged, outcome.stats.iterations
    );
    println!(
        "  time in generalized SpMV: {:.1}% of the run",
        outcome.stats.spmv_fraction() * 100.0
    );
    for (name, v) in ["A", "B", "C", "D", "E"].iter().zip(0usize..) {
        println!("  distance({name}) = {}", outcome.values[v]);
    }

    // The same algorithm is available pre-packaged as a session driver:
    let packaged = sssp_on(&session, &topology, 0)?;
    assert_eq!(packaged.values, outcome.values);
    println!("packaged sssp_on() agrees with the hand-written program ✓");

    // Misuse returns a typed error instead of panicking — a serving layer
    // turns this into an error response, not a crashed worker.
    let err = sssp_on(&session, &topology, 999).unwrap_err();
    println!("out-of-range query rejected: {err}");

    // A second query over the SAME topology: nothing is rebuilt or cloned.
    let from_b = sssp_on(&session, &topology, 1)?;
    println!(
        "distances from B (same matrix, new per-run state): {:?}",
        from_b.values
    );
    Ok(())
}
