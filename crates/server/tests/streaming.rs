//! Streaming-update serving tests: UPDATE batches over the wire, snapshot
//! isolation under concurrent ingest, and bit-for-bit agreement between
//! queries served from `(base ⊕ delta)` snapshots and direct runs against a
//! topology rebuilt from the same edits.

use graphmat_algorithms::bfs::bfs_on;
use graphmat_algorithms::connected_components::connected_components_on;
use graphmat_algorithms::degree::in_degrees_on;
use graphmat_algorithms::pagerank::{pagerank_on, PageRankConfig};
use graphmat_algorithms::sssp::sssp_on;
use graphmat_core::{GraphStore, Session, StoreOptions, Topology};
use graphmat_delta::DeltaBatch;
use graphmat_io::edgelist::EdgeList;
use graphmat_io::rmat::RmatConfig;
use graphmat_server::{
    protocol, Algorithm, Client, EdgeEdit, GraphService, RunRequest, Server, ServerConfig,
};
use std::collections::HashMap;
use std::sync::Arc;

fn test_edges() -> EdgeList<f32> {
    graphmat_io::rmat::generate(&RmatConfig::graph500(7).with_seed(11).with_weights(1, 10))
}

fn start_server(options: StoreOptions, config: ServerConfig) -> (Server, Arc<Topology<f32>>) {
    let session = Session::sequential();
    let topology = session.build_graph(&test_edges()).finish().unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        GraphService::with_store_options(session, Arc::clone(&topology), options),
        config,
    )
    .unwrap();
    (server, topology)
}

/// splitmix64 step — deterministic pseudo-random edits.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Apply recorded UPDATE batches (in version order, up to and including
/// `version`) to a fresh store over `base`, then compact, so the result is a
/// genuinely rebuilt topology — not another overlay.
fn rebuild_at_version(
    base: &Arc<Topology<f32>>,
    batches: &HashMap<u64, Vec<EdgeEdit>>,
    version: u64,
) -> Arc<Topology<f32>> {
    let store = GraphStore::new(
        Arc::clone(base),
        StoreOptions {
            compaction_threshold: usize::MAX,
            overload_watermark: usize::MAX,
            ..StoreOptions::default()
        },
    );
    for v in 1..=version {
        let edits = &batches[&v];
        let mut batch = DeltaBatch::new(base.num_vertices());
        for edit in edits {
            if edit.insert {
                batch.insert(edit.src, edit.dst, edit.weight).unwrap();
            } else {
                batch.delete(edit.src, edit.dst).unwrap();
            }
        }
        store.apply(batch).unwrap();
    }
    store.compact_now();
    let snapshot = store.snapshot();
    assert!(
        snapshot.overlay().is_none(),
        "compaction must clear overlay"
    );
    Arc::clone(snapshot.base())
}

#[test]
fn update_over_the_wire_changes_query_results() {
    let (server, topology) = start_server(StoreOptions::default(), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let before = client
        .run(&RunRequest::new(Algorithm::Bfs).seed(0).include_values(true))
        .unwrap();
    assert!(before.is_ok(), "{}", before.message);
    assert_eq!(before.snapshot_version, 0);

    // Splice vertex 0 directly into every vertex it could not reach.
    let unreached: Vec<u32> = before
        .values_u32()
        .unwrap()
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == u32::MAX)
        .map(|(v, _)| v as u32)
        .collect();
    assert!(!unreached.is_empty(), "scale-7 RMAT has unreached vertices");
    let edits: Vec<EdgeEdit> = unreached
        .iter()
        .map(|&v| EdgeEdit::insert(0, v, 1.0))
        .collect();
    let reply = client.update(&edits).unwrap();
    assert!(reply.is_ok(), "{}", reply.message);
    assert_eq!(reply.snapshot_version, 1);
    assert_eq!(reply.delta_edges as usize, edits.len());

    let after = client
        .run(&RunRequest::new(Algorithm::Bfs).seed(0).include_values(true))
        .unwrap();
    assert!(after.is_ok(), "{}", after.message);
    assert_eq!(after.snapshot_version, 1);
    let distances = after.values_u32().unwrap();
    assert!(
        distances.iter().all(|&d| d != u32::MAX),
        "every vertex must now be reachable from 0"
    );

    // The served result is bit-identical to a direct run over a topology
    // rebuilt from the same edits.
    let mut batches = HashMap::new();
    batches.insert(1, edits);
    let rebuilt = rebuild_at_version(&topology, &batches, 1);
    let check = Session::sequential();
    let expect = bfs_on(&check, &rebuilt, 0).unwrap().values;
    assert_eq!(distances, expect);

    // Deleting the splices restores the original distances (the graph, not
    // the history, defines the result).
    let removals: Vec<EdgeEdit> = unreached.iter().map(|&v| EdgeEdit::delete(0, v)).collect();
    let reply = client.update(&removals).unwrap();
    assert!(reply.is_ok(), "{}", reply.message);
    assert_eq!(reply.snapshot_version, 2);
    let restored = client
        .run(&RunRequest::new(Algorithm::Bfs).seed(0).include_values(true))
        .unwrap();
    assert_eq!(restored.snapshot_version, 2);
    assert_eq!(restored.checksum, before.checksum);

    server.shutdown();
}

#[test]
fn stats_exposes_store_state_after_updates() {
    let (server, _topology) = start_server(
        StoreOptions {
            compaction_threshold: usize::MAX, // keep the delta visible
            overload_watermark: usize::MAX,
            ..StoreOptions::default()
        },
        ServerConfig::default(),
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .update(&[EdgeEdit::insert(1, 2, 1.0), EdgeEdit::insert(2, 3, 1.0)])
        .unwrap();
    let stats = client.stats_json().unwrap();
    for key in [
        "\"snapshot_version\":1",
        "\"delta_edges\":2",
        "\"updates\":1",
        "\"update_edits\":2",
        "\"compactions\":0",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }
    server.shutdown();
}

/// The acceptance-criterion test: client threads running mixed algorithms
/// concurrently with writer threads pushing real edge batches, which compact
/// as the threshold is reached. Every reply names the snapshot version it was
/// admitted against, and its checksum must be bit-identical to a direct run
/// against a topology rebuilt from exactly that version's edits — in-flight
/// queries are never contaminated by later writes or by compaction.
#[test]
fn ingest_while_serving_queries_match_their_admitted_snapshot() {
    const WRITERS: usize = 2;
    const BATCHES_PER_WRITER: u64 = 6;
    const EDITS_PER_BATCH: usize = 24;
    const READERS: usize = 4;
    const QUERIES_PER_READER: usize = 10;

    let (server, topology) = start_server(
        StoreOptions {
            // Low threshold so writes genuinely compact mid-test.
            compaction_threshold: 32,
            overload_watermark: usize::MAX,
            ..StoreOptions::default()
        },
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let num_vertices = topology.num_vertices() as u64;

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || -> Vec<(u64, Vec<EdgeEdit>)> {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = 0xA5A5_0000 ^ (w as u64) << 8;
                let mut applied = Vec::new();
                for _ in 0..BATCHES_PER_WRITER {
                    let edits: Vec<EdgeEdit> = (0..EDITS_PER_BATCH)
                        .map(|_| {
                            let src = (next_rand(&mut rng) % num_vertices) as u32;
                            let dst = (next_rand(&mut rng) % num_vertices) as u32;
                            if next_rand(&mut rng) % 4 == 0 {
                                EdgeEdit::delete(src, dst)
                            } else {
                                EdgeEdit::insert(src, dst, (1 + next_rand(&mut rng) % 9) as f32)
                            }
                        })
                        .collect();
                    let reply = client.update(&edits).unwrap();
                    assert!(reply.is_ok(), "{}", reply.message);
                    applied.push((reply.snapshot_version, edits));
                }
                applied
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            std::thread::spawn(move || -> Vec<(Algorithm, u64, u64, u64)> {
                let mut client = Client::connect(addr).unwrap();
                let mut observed = Vec::new();
                for q in 0..QUERIES_PER_READER {
                    let seed = ((r + q) % 8) as u64;
                    let algorithm = match (r + q) % 5 {
                        0 => Algorithm::PageRank,
                        1 => Algorithm::Bfs,
                        2 => Algorithm::Sssp,
                        3 => Algorithm::ConnectedComponents,
                        _ => Algorithm::InDegrees,
                    };
                    let reply = client
                        .run(&RunRequest::new(algorithm).seed(seed).iterations(10))
                        .unwrap();
                    assert!(reply.is_ok(), "{}", reply.message);
                    observed.push((algorithm, seed, reply.snapshot_version, reply.checksum));
                }
                observed
            })
        })
        .collect();

    // Version → batch, reassembled from what each writer was told it
    // published.
    let mut batches: HashMap<u64, Vec<EdgeEdit>> = HashMap::new();
    for writer in writers {
        for (version, edits) in writer.join().unwrap() {
            assert!(batches.insert(version, edits).is_none());
        }
    }
    assert_eq!(batches.len(), WRITERS * BATCHES_PER_WRITER as usize);
    let queries: Vec<_> = readers
        .into_iter()
        .flat_map(|r| r.join().unwrap())
        .collect();
    server.shutdown();

    // Replay: for every observed (version, query), rebuild the graph as it
    // was at that version and demand a bit-identical checksum.
    let check = Session::sequential();
    let mut rebuilt_cache: HashMap<u64, Arc<Topology<f32>>> = HashMap::new();
    for (algorithm, seed, version, checksum) in queries {
        let rebuilt: &Arc<Topology<f32>> = rebuilt_cache
            .entry(version)
            .or_insert_with(|| rebuild_at_version(&topology, &batches, version));
        let expect = match algorithm {
            Algorithm::PageRank => {
                let cfg = PageRankConfig {
                    iterations: 10,
                    ..Default::default()
                };
                protocol::checksum_f64(&pagerank_on(&check, rebuilt, &cfg).unwrap().values)
            }
            Algorithm::Bfs => {
                protocol::checksum_u32(&bfs_on(&check, rebuilt, seed as u32).unwrap().values)
            }
            Algorithm::Sssp => {
                protocol::checksum_f32(&sssp_on(&check, rebuilt, seed as u32).unwrap().values)
            }
            Algorithm::ConnectedComponents => {
                protocol::checksum_u32(&connected_components_on(&check, rebuilt).unwrap().values)
            }
            Algorithm::InDegrees => {
                protocol::checksum_u64(&in_degrees_on(&check, rebuilt).unwrap().values)
            }
        };
        assert_eq!(
            checksum,
            expect,
            "{} at snapshot version {version} (seed {seed}) diverged from \
             the from-scratch rebuild",
            algorithm.name()
        );
    }
}
