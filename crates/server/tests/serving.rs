//! End-to-end serving tests: a real TCP server on a loopback port, driven
//! through the reference client, with results checked bit-for-bit against
//! direct `Session` runs on the same topology.

use graphmat_algorithms::bfs::bfs_on;
use graphmat_algorithms::connected_components::connected_components_on;
use graphmat_algorithms::degree::in_degrees_on;
use graphmat_algorithms::pagerank::{pagerank_on, PageRankConfig};
use graphmat_algorithms::sssp::sssp_on;
use graphmat_core::{Session, Topology};
use graphmat_io::edgelist::EdgeList;
use graphmat_io::rmat::RmatConfig;
use graphmat_server::{
    protocol, Algorithm, Client, GraphService, RunRequest, Server, ServerConfig, Status,
};
use std::sync::Arc;
use std::time::Duration;

fn test_edges() -> EdgeList<f32> {
    graphmat_io::rmat::generate(&RmatConfig::graph500(7).with_seed(11).with_weights(1, 10))
}

fn start_server(config: ServerConfig) -> (Server, Arc<Topology<f32>>) {
    let edges = test_edges();
    let session = Session::sequential();
    let topology = session.build_graph(&edges).finish().unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        GraphService::new(session, Arc::clone(&topology)),
        config,
    )
    .unwrap();
    (server, topology)
}

#[test]
fn concurrent_mixed_clients_match_direct_session_runs() {
    let (server, topology) = start_server(ServerConfig {
        workers: 2,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Expected results computed directly against the same Arc<Topology>
    // (results are bit-identical across sessions and thread counts).
    let check = Session::sequential();
    let pr_cfg = PageRankConfig {
        iterations: 10,
        ..Default::default()
    };
    let expect_pr = pagerank_on(&check, &topology, &pr_cfg).unwrap().values;
    let expect_cc = connected_components_on(&check, &topology).unwrap().values;
    let expect_deg = in_degrees_on(&check, &topology).unwrap().values;
    let expect_bfs: Vec<Vec<u32>> = (0..4)
        .map(|root| bfs_on(&check, &topology, root).unwrap().values)
        .collect();
    let expect_sssp: Vec<Vec<f32>> = (0..4)
        .map(|src| sssp_on(&check, &topology, src).unwrap().values)
        .collect();

    // ≥8 concurrent clients, mixed algorithms, several queries each.
    let clients: Vec<_> = (0..8u32)
        .map(|i| {
            let expect_pr = expect_pr.clone();
            let expect_cc = expect_cc.clone();
            let expect_deg = expect_deg.clone();
            let expect_bfs = expect_bfs.clone();
            let expect_sssp = expect_sssp.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..3u32 {
                    let seed = ((i + round) % 4) as u64;
                    match i % 4 {
                        0 => {
                            let reply = client
                                .run(
                                    &RunRequest::new(Algorithm::PageRank)
                                        .iterations(10)
                                        .include_values(true),
                                )
                                .unwrap();
                            assert!(reply.is_ok(), "{}", reply.message);
                            assert_eq!(reply.values_f64().unwrap(), expect_pr);
                            assert_eq!(reply.checksum, protocol::checksum_f64(&expect_pr));
                        }
                        1 => {
                            let reply = client
                                .run(
                                    &RunRequest::new(Algorithm::Bfs)
                                        .seed(seed)
                                        .include_values(true),
                                )
                                .unwrap();
                            assert!(reply.is_ok(), "{}", reply.message);
                            assert_eq!(reply.values_u32().unwrap(), expect_bfs[seed as usize]);
                        }
                        2 => {
                            let reply = client
                                .run(
                                    &RunRequest::new(Algorithm::Sssp)
                                        .seed(seed)
                                        .include_values(true),
                                )
                                .unwrap();
                            assert!(reply.is_ok(), "{}", reply.message);
                            assert_eq!(reply.values_f32().unwrap(), expect_sssp[seed as usize]);
                        }
                        _ => {
                            let reply = client
                                .run(
                                    &RunRequest::new(Algorithm::ConnectedComponents)
                                        .include_values(true),
                                )
                                .unwrap();
                            assert!(reply.is_ok(), "{}", reply.message);
                            assert_eq!(reply.values_u32().unwrap(), expect_cc);
                            let reply = client
                                .run(&RunRequest::new(Algorithm::InDegrees).include_values(true))
                                .unwrap();
                            assert!(reply.is_ok(), "{}", reply.message);
                            assert_eq!(reply.values_u64().unwrap(), expect_deg);
                        }
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    assert!(server.metrics().total_ok() >= 24);
    assert_eq!(server.metrics().total_failed(), 0);
    server.shutdown();
}

#[test]
fn checksum_only_replies_verify_against_local_values() {
    let (server, topology) = start_server(ServerConfig::default());
    let check = Session::sequential();
    let expect = bfs_on(&check, &topology, 3).unwrap().values;

    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client
        .run(&RunRequest::new(Algorithm::Bfs).seed(3))
        .unwrap();
    assert!(reply.is_ok());
    assert!(
        reply.values.is_empty(),
        "checksum-only reply ships no values"
    );
    assert_eq!(reply.num_values as usize, expect.len());
    assert_eq!(reply.checksum, protocol::checksum_u32(&expect));
    server.shutdown();
}

#[test]
fn overload_is_rejected_busy_not_queued_forever() {
    // One slow worker, queue depth 1: most of a burst must bounce.
    let (server, _topology) = start_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        service_delay: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let burst: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .run(&RunRequest::new(Algorithm::Bfs).seed(0))
                    .unwrap()
                    .status
            })
        })
        .collect();
    let statuses: Vec<Status> = burst.into_iter().map(|t| t.join().unwrap()).collect();
    let ok = statuses.iter().filter(|s| **s == Status::Ok).count();
    let busy = statuses.iter().filter(|s| **s == Status::Busy).count();
    assert!(ok >= 1, "some requests must get through: {statuses:?}");
    assert!(busy >= 1, "undersized queue must bounce some: {statuses:?}");
    assert_eq!(
        ok + busy,
        statuses.len(),
        "only Ok/Busy expected: {statuses:?}"
    );
    assert_eq!(server.metrics().total_busy() as usize, busy);
    server.shutdown();
}

#[test]
fn deadline_expired_while_queued_returns_timeout() {
    // The artificial service delay exceeds the request deadline, so the
    // deadline check after pop fires deterministically.
    let (server, _topology) = start_server(ServerConfig {
        workers: 1,
        queue_depth: 8,
        service_delay: Some(Duration::from_millis(80)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client
        .run(&RunRequest::new(Algorithm::Bfs).seed(0).timeout_ms(20))
        .unwrap();
    assert_eq!(reply.status, Status::Timeout, "{}", reply.message);
    assert_eq!(server.metrics().total_timeout(), 1);
    server.shutdown();
}

#[test]
fn deadline_mid_run_returns_timeout() {
    // A graph big enough that PageRank takes well over the deadline even in
    // release builds (it converges after ~200 supersteps; each superstep
    // touches every edge). The engine checks the deadline between
    // supersteps and aborts mid-run.
    let edges =
        graphmat_io::rmat::generate(&RmatConfig::graph500(12).with_seed(5).with_weights(1, 10));
    let session = Session::sequential();
    let topology = session.build_graph(&edges).finish().unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        GraphService::new(session, topology),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client
        .run(
            &RunRequest::new(Algorithm::PageRank)
                .iterations(200_000)
                .timeout_ms(5),
        )
        .unwrap();
    assert_eq!(reply.status, Status::Timeout, "{}", reply.message);
    assert!(
        reply.message.contains("deadline"),
        "timeout reply must say so: {:?}",
        reply.message
    );
    // The worker and its pooled state survive to serve the next query.
    let reply = client
        .run(&RunRequest::new(Algorithm::PageRank).iterations(5))
        .unwrap();
    assert!(reply.is_ok(), "{}", reply.message);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (server, _topology) = start_server(ServerConfig {
        workers: 1,
        queue_depth: 4,
        service_delay: Some(Duration::from_millis(120)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .run(&RunRequest::new(Algorithm::Bfs).seed(0))
            .unwrap()
    });
    // Let the request reach the queue, then shut down underneath it.
    std::thread::sleep(Duration::from_millis(40));
    server.shutdown();
    let reply = in_flight.join().unwrap();
    assert!(
        reply.is_ok(),
        "admitted request must be drained, got {:?}: {}",
        reply.status,
        reply.message
    );
}

#[test]
fn late_requests_during_shutdown_are_refused_not_hung() {
    // Looped: the window between the SHUTDOWN ack and the queue closing used
    // to admit the straggler's run about one time in eight.
    for round in 0..50 {
        let (server, _topology) = start_server(ServerConfig::default());
        let addr = server.local_addr();
        let mut straggler = Client::connect(addr).unwrap();
        straggler.ping().unwrap();

        // Ask for shutdown over the wire; once the server has acknowledged,
        // its admission queue is closed.
        let mut client = Client::connect(addr).unwrap();
        client.shutdown_server().unwrap();

        // A run on a pre-existing connection now either gets a typed
        // ShuttingDown reply (if it races ahead of the connection teardown)
        // or a closed connection — never a hang, never success.
        match straggler.run(&RunRequest::new(Algorithm::Bfs).seed(0)) {
            Ok(reply) => assert_eq!(
                reply.status,
                Status::ShuttingDown,
                "round {round}: {}",
                reply.message
            ),
            Err(_closed) => {}
        }
        server.wait();
    }
}

#[test]
fn steady_state_serving_allocates_no_new_states() {
    let (server, _topology) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Warm-up: first request per algorithm creates that pool's one state.
    for _ in 0..2 {
        for algorithm in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::PageRank] {
            let reply = client
                .run(&RunRequest::new(algorithm).seed(1).iterations(5))
                .unwrap();
            assert!(reply.is_ok(), "{}", reply.message);
        }
    }
    let created_after_warmup = server
        .metrics()
        .pool_created
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(created_after_warmup, 3, "one state per algorithm pool");

    for round in 0..10u64 {
        for algorithm in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::PageRank] {
            let reply = client
                .run(&RunRequest::new(algorithm).seed(round % 8).iterations(5))
                .unwrap();
            assert!(reply.is_ok(), "{}", reply.message);
        }
    }
    let created = server
        .metrics()
        .pool_created
        .load(std::sync::atomic::Ordering::Relaxed);
    let reused = server
        .metrics()
        .pool_reused
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        created, created_after_warmup,
        "steady state must not allocate new states"
    );
    assert!(reused >= 30, "reuse counter must grow: {reused}");

    // The same counters are visible through the wire STATS endpoint.
    let stats = client.stats_json().unwrap();
    assert!(
        stats.contains(&format!("\"created\":{created}")),
        "stats must export pool growth: {stats}"
    );
    server.shutdown();
}

#[test]
fn stats_endpoint_reports_counters_and_latency() {
    let (server, topology) = start_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    for _ in 0..3 {
        let reply = client
            .run(&RunRequest::new(Algorithm::Bfs).seed(0))
            .unwrap();
        assert!(reply.is_ok());
    }
    let stats = client.stats_json().unwrap();
    for key in [
        &format!("\"num_vertices\":{}", topology.num_vertices()) as &str,
        &format!("\"num_edges\":{}", topology.num_edges()),
        "\"qps\":",
        "\"p99_us\":",
        "\"pings\":1",
        "\"bfs\":{\"requests\":3,\"ok\":3",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }
    server.shutdown();
}
