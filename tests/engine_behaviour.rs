//! Integration tests of engine-level behaviour that the paper calls out:
//! the SpMV dominating runtime, frontier-driven work, the active-set
//! machinery, and the MatrixMarket loading path end to end.

use graphmat::io::{datasets, mtx};
use graphmat::prelude::*;
use graphmat_io::datasets::{DatasetId, DatasetScale};
use std::sync::Arc;

/// A default session plus `edges` built for out-edge traversal.
fn built<E: Clone>(edges: &EdgeList<E>) -> (Session, Arc<Topology<E>>) {
    let session = Session::with_defaults().unwrap();
    let topology = session.build_graph(edges).finish().unwrap();
    (session, topology)
}

fn pagerank_for(edges: &EdgeList, iterations: usize) -> AlgorithmOutput<f64> {
    let (session, topology) = built(edges);
    let cfg = PageRankConfig {
        iterations,
        ..Default::default()
    };
    pagerank_on(&session, &topology, &cfg).unwrap()
}

fn sssp_from_zero(edges: &EdgeList) -> AlgorithmOutput<f32> {
    let (session, topology) = built(edges);
    sssp_on(&session, &topology, 0).unwrap()
}

fn bfs_from(edges: &EdgeList, root: VertexId) -> AlgorithmOutput<u32> {
    let (session, topology) = built(&edges.symmetrized());
    bfs_on(&session, &topology, root).unwrap()
}

#[test]
fn spmv_dominates_pagerank_runtime() {
    // §5.4: "most (over 80%) of the time is spent in the Generalized SPMV".
    // At 2¹⁴ vertices a run is milliseconds of SpMV (a share of ~0.8); at
    // `Tiny` it is one pool dispatch per superstep, and the "share" measured
    // how long a wake takes. Other tests run beside this one, so require a
    // majority rather than the full 80%.
    let edges = datasets::load(DatasetId::RmatGraph500, DatasetScale::Small);
    let out = pagerank_for(&edges, 10);
    assert!(
        out.stats.spmv_fraction() > 0.5,
        "SpMV fraction was only {:.1}%",
        out.stats.spmv_fraction() * 100.0
    );
}

#[test]
fn sssp_on_road_network_takes_many_cheap_iterations() {
    // The Figure 4e discussion: road networks need many supersteps, each
    // doing little work — exactly where per-iteration overhead matters.
    // (A pure grid without highway shortcuts keeps the hop counts high.)
    let edges = graphmat::io::grid::generate(&graphmat::io::grid::GridConfig {
        removal_fraction: 0.05,
        num_shortcuts: 0,
        ..graphmat::io::grid::GridConfig::square(40)
    });
    let out = sssp_from_zero(&edges);
    assert!(out.converged);
    assert!(
        out.stats.iterations > 20,
        "expected a high-diameter run, got {} supersteps",
        out.stats.iterations
    );
    let max_frontier = out
        .stats
        .supersteps
        .iter()
        .map(|s| s.active_vertices)
        .max()
        .unwrap();
    assert!(
        max_frontier < edges.num_vertices() as usize / 2,
        "frontier should stay well below the vertex count"
    );
}

#[test]
fn bfs_on_social_graph_finishes_in_few_supersteps() {
    // Small-world graphs have tiny diameters, the opposite regime.
    let edges = datasets::load(DatasetId::FacebookLike, DatasetScale::Tiny);
    let out = bfs_from(&edges, 0);
    assert!(out.converged);
    assert!(
        out.stats.iterations <= 12,
        "social graph BFS took {} supersteps",
        out.stats.iterations
    );
}

#[test]
fn mtx_roundtrip_feeds_the_engine() {
    // Write a graph to MatrixMarket, read it back, and get identical results
    // — the original GraphMat's ReadMTX ingestion path.
    let edges = datasets::load(DatasetId::FlickrLike, DatasetScale::Tiny);
    let mut buffer = Vec::new();
    mtx::write(&edges, &mut buffer).unwrap();
    let reloaded = mtx::read(buffer.as_slice()).unwrap();
    assert_eq!(reloaded.num_edges(), edges.num_edges());

    assert_eq!(
        sssp_from_zero(&edges).values,
        sssp_from_zero(&reloaded).values
    );
}

#[test]
fn run_stats_account_for_all_supersteps() {
    let edges = datasets::load(DatasetId::WikipediaLike, DatasetScale::Tiny);
    let out = bfs_from(&edges, 2);
    assert_eq!(out.stats.supersteps.len(), out.stats.iterations);
    let edge_sum: u64 = out.stats.supersteps.iter().map(|s| s.edges_processed).sum();
    assert_eq!(edge_sum, out.stats.edges_processed);
    let msg_sum: u64 = out
        .stats
        .supersteps
        .iter()
        .map(|s| s.messages_sent as u64)
        .sum();
    assert_eq!(msg_sum, out.stats.messages_sent);
}

#[test]
fn delta_pagerank_touches_fewer_edges_than_fixed_iteration() {
    // The extension's point: convergence-driven activity saves work.
    let edges = datasets::load(DatasetId::LiveJournalLike, DatasetScale::Tiny);
    let fixed = pagerank_for(&edges, 50);
    let (session, topology) = built(&edges);
    let delta = delta_pagerank_on(
        &session,
        &topology,
        &DeltaPageRankConfig {
            tolerance: 1e-6,
            max_iterations: 50,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(delta.stats.edges_processed < fixed.stats.edges_processed);
}

#[test]
fn cost_counters_scale_with_graph_size() {
    let small = datasets::load(DatasetId::FacebookLike, DatasetScale::Tiny);
    let out = pagerank_for(&small, 3);
    let counters = out.stats.to_cost_counters(12);
    assert!(counters.edge_ops >= small.num_edges() as u64);
    assert!(counters.bytes_read > counters.edge_ops);
}
