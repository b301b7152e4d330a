//! Fault-injection suite: mixed read/write load raced against every chaos
//! failpoint, individually and in a seeded combination.
//!
//! Each scenario asserts the full robustness contract:
//!
//! * **no hang** — every client loop is count-bounded and the server still
//!   answers a plain (no-retry) client after the faults are disarmed;
//! * **no wrong answer** — every `Ok` RUN reply carries values, and the
//!   reply checksum is replay-verified against those bytes;
//! * **no leak** — pool/metrics counters balance: every isolated panic
//!   quarantined exactly one state, every quarantine came from a panic;
//! * **bounded-time recovery** — after `reset()` the very next plain
//!   client round-trip succeeds.
//!
//! Failpoints are process-global, so this suite lives in its own test
//! binary and serializes scenarios on a mutex; the lib/integration tests in
//! other binaries never arm failpoints.

#![cfg(feature = "chaos")]

use graphmat_core::{Session, StoreOptions, Topology};
use graphmat_io::edgelist::EdgeList;
use graphmat_io::rmat::RmatConfig;
use graphmat_server::{
    protocol, Algorithm, BreakerConfig, Client, EdgeEdit, GraphService, ResilientClient,
    RetryPolicy, RunRequest, Server, ServerConfig, Status,
};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Serialize scenarios: armed failpoints are process-global state.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn test_edges() -> EdgeList<f32> {
    graphmat_io::rmat::generate(&RmatConfig::graph500(7).with_seed(23).with_weights(1, 10))
}

fn start_server() -> (Server, Arc<Topology<f32>>) {
    let edges = test_edges();
    let session = Session::sequential();
    let topology = session.build_graph(&edges).finish().unwrap();
    let service = GraphService::with_store_options(
        session,
        Arc::clone(&topology),
        StoreOptions {
            compaction_threshold: 64,
            overload_watermark: usize::MAX,
            ..StoreOptions::default()
        },
    );
    let server = Server::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            workers: 2,
            queue_depth: 32,
            write_stall_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server, topology)
}

fn retrying_client(addr: std::net::SocketAddr, seed: u64) -> ResilientClient {
    ResilientClient::new(
        addr.to_string(),
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            retry_budget: 100_000,
            seed,
        },
        BreakerConfig {
            // High threshold: these scenarios inject faults on purpose, and
            // the point is to keep hammering through them, not to fail fast.
            failure_threshold: 10_000,
            cooldown: Duration::from_millis(10),
        },
    )
}

/// splitmix64 — deterministic per-thread request sequencing.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replay-verify an Ok reply: recompute the FNV checksum from the value
/// bytes the reply actually carried. A worker that answered from a
/// corrupted pooled state would disagree here.
fn verify_checksum(reply: &graphmat_server::RunReply) {
    use graphmat_server::ValueKind;
    let recomputed = match reply.value_kind {
        Some(ValueKind::F64) => protocol::checksum_f64(&reply.values_f64().expect("f64 values")),
        Some(ValueKind::U32) => protocol::checksum_u32(&reply.values_u32().expect("u32 values")),
        Some(ValueKind::F32) => protocol::checksum_f32(&reply.values_f32().expect("f32 values")),
        Some(ValueKind::U64) => protocol::checksum_u64(&reply.values_u64().expect("u64 values")),
        None => panic!("Ok reply without a value kind"),
    };
    assert_eq!(
        recomputed, reply.checksum,
        "Ok reply failed checksum replay"
    );
}

/// Mixed read/write load from several client threads, each count-bounded.
/// Returns the number of Ok runs observed (so scenarios can assert the
/// server actually served through the faults).
fn mixed_load(addr: std::net::SocketAddr, threads: usize, requests_per_thread: usize) -> u64 {
    let num_vertices = {
        let edges = test_edges();
        edges.num_vertices() as u64
    };
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = retrying_client(addr, 0xc0ffee ^ t as u64);
                let mut rng = 0x5eed ^ ((t as u64 + 1) << 40);
                let mut ok_runs = 0u64;
                for i in 0..requests_per_thread {
                    if i % 7 == 3 {
                        let src = (next_rand(&mut rng) % num_vertices) as u32;
                        let dst = (next_rand(&mut rng) % num_vertices) as u32;
                        match client.update(&[EdgeEdit::insert(src, dst, 1.0)]) {
                            // Typed rejections (injected apply errors,
                            // overload) and transport errors (dropped
                            // connections, inline-apply panics) are all
                            // legitimate under injected faults; the batch
                            // must just never half-apply — the replay
                            // checks below would surface that as a wrong
                            // answer or a hang.
                            Ok(_) | Err(_) => {}
                        }
                        continue;
                    }
                    let algorithm = match next_rand(&mut rng) % 4 {
                        0 => Algorithm::PageRank,
                        1 => Algorithm::Bfs,
                        2 => Algorithm::ConnectedComponents,
                        _ => Algorithm::InDegrees,
                    };
                    let request = RunRequest::new(algorithm)
                        .seed(next_rand(&mut rng) % num_vertices)
                        .iterations(5)
                        .timeout_ms(10_000)
                        .include_values(true);
                    match client.run(&request) {
                        Ok(reply) if reply.is_ok() => {
                            verify_checksum(&reply);
                            ok_runs += 1;
                        }
                        Ok(reply) => {
                            // Only the typed, fault-shaped statuses are
                            // acceptable — anything else is a wrong answer.
                            assert!(
                                matches!(
                                    reply.status,
                                    Status::Busy | Status::Timeout | Status::ServerError
                                ),
                                "unexpected status {:?}: {}",
                                reply.status,
                                reply.message
                            );
                        }
                        // Transport error after retries: dropped
                        // connection under frame faults. Tolerated.
                        Err(_) => {}
                    }
                }
                ok_runs
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).sum()
}

/// After disarming: a plain client (no retries) must round-trip
/// immediately — the bounded-time recovery assertion.
fn assert_recovered(addr: std::net::SocketAddr) {
    let mut plain = Client::connect(addr).expect("post-fault connect");
    plain.ping().expect("post-fault ping");
    let reply = plain
        .run(&RunRequest::new(Algorithm::Bfs).seed(0).include_values(true))
        .expect("post-fault run");
    assert!(reply.is_ok(), "post-fault run: {}", reply.message);
    verify_checksum(&reply);
}

/// One full scenario: arm the given failpoints, race mixed load, disarm,
/// assert recovery and counter balance.
fn run_scenario(failpoints: &[(&'static str, &str)]) {
    let _guard = guard();
    graphmat_chaos::reset();
    let (server, _topology) = start_server();
    let addr = server.local_addr();
    // Warm up before arming so every scenario starts from a serving state.
    assert_recovered(addr);
    for (name, spec) in failpoints {
        graphmat_chaos::configure(name, spec).unwrap();
    }
    let ok_runs = mixed_load(addr, 3, 40);
    let fired: u64 = failpoints
        .iter()
        .map(|(name, _)| graphmat_chaos::fires(name))
        .sum();
    graphmat_chaos::reset();
    assert_recovered(addr);
    // No leak: every isolated panic retired exactly one pooled state.
    let metrics = server.metrics();
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(
        metrics.worker_panics.load(Relaxed),
        metrics.pool_quarantined.load(Relaxed),
        "worker panics and quarantined states must balance"
    );
    assert!(
        ok_runs > 0,
        "server never answered Ok under {failpoints:?} (fired {fired})"
    );
    server.shutdown();
}

#[test]
fn worker_execute_panics_are_isolated_and_quarantined() {
    let _guard = guard();
    graphmat_chaos::reset();
    let (server, _topology) = start_server();
    let addr = server.local_addr();
    assert_recovered(addr);
    graphmat_chaos::configure("server.worker.execute", "panic@n1").unwrap();
    // A plain client sees the typed isolation reply, not a dropped
    // connection: the panic is caught inside the worker.
    let mut plain = Client::connect(addr).unwrap();
    let reply = plain
        .run(&RunRequest::new(Algorithm::Bfs).seed(0))
        .expect("connection must survive the isolated panic");
    assert_eq!(reply.status, Status::ServerError);
    assert!(
        reply.message.contains("quarantined"),
        "isolation reply should say so: {}",
        reply.message
    );
    graphmat_chaos::reset();
    assert_recovered(addr);
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(server.metrics().worker_panics.load(Relaxed), 1);
    assert_eq!(server.metrics().pool_quarantined.load(Relaxed), 1);
    server.shutdown();
}

#[test]
fn worker_lane_death_is_respawned_by_the_supervisor() {
    let _guard = guard();
    graphmat_chaos::reset();
    let (server, _topology) = start_server();
    let addr = server.local_addr();
    assert_recovered(addr);
    // Kill exactly one lane: the panic fires outside the per-run guard.
    graphmat_chaos::configure("server.worker.lane", "panic@n1").unwrap();
    {
        // This request's job is picked up by the dying lane. The lane's
        // ReplyGuard converts the unwind into a typed ServerError (the
        // connection must NOT hang on its reply channel), which the
        // resilient client retries — the surviving lane answers.
        let mut client = retrying_client(addr, 99);
        let reply = client
            .run(&RunRequest::new(Algorithm::Bfs).seed(0).include_values(true))
            .expect("retries must ride out the lane death");
        assert!(reply.is_ok(), "{}", reply.message);
        verify_checksum(&reply);
    }
    graphmat_chaos::reset();
    // The supervisor notices the dead lane within a few ticks and
    // respawns it; serving capacity must return to both lanes. Poll with a
    // deadline — bounded-time recovery, not eventual.
    use std::sync::atomic::Ordering::Relaxed;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.metrics().worker_restarts.load(Relaxed) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "supervisor never respawned the dead lane"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_recovered(addr);
    // Both lanes alive again: two slow-ish concurrent runs both succeed.
    let ok_runs = mixed_load(addr, 2, 10);
    assert!(ok_runs > 0);
    server.shutdown();
}

#[test]
fn every_failpoint_individually_survives_mixed_load() {
    // Probabilistic arming (seeded, deterministic): roughly 1 in 12 hits
    // fire, so the load sees both faulted and clean requests at every
    // point. Worker/store panics use one-shot or low probability so the
    // scenario exercises recovery, not permanent outage.
    let scenarios: &[&[(&'static str, &str)]] = &[
        &[("server.worker.execute", "panic@p0.08,s7")],
        &[("server.worker.execute", "error@p0.15,s11")],
        &[("server.admission.push", "error@p0.10,s13")],
        &[("server.frame.read", "error@p0.05,s17")],
        &[("server.frame.write", "error@p0.05,s19")],
        &[("store.apply.admit", "error@p0.25,s23")],
        &[("store.overlay.build", "error@p0.25,s29")],
        &[("store.apply.publish", "panic@n3")],
        &[("store.compact", "panic@n1")],
    ];
    for scenario in scenarios {
        run_scenario(scenario);
    }
}

#[test]
fn seeded_random_combination_of_failpoints_survives_mixed_load() {
    run_scenario(&[
        ("server.worker.execute", "panic@p0.03,s31"),
        ("server.admission.push", "error@p0.04,s37"),
        ("server.frame.read", "error@p0.02,s41"),
        ("server.frame.write", "error@p0.02,s43"),
        ("store.apply.admit", "error@p0.10,s47"),
        ("store.overlay.build", "error@p0.10,s53"),
        ("store.compact", "panic@n2"),
    ]);
}

#[test]
fn store_overload_rejects_writes_while_reads_keep_serving() {
    let _guard = guard();
    graphmat_chaos::reset();
    // Tiny watermark + no compaction: the second batch tips the store into
    // degraded mode.
    let edges = test_edges();
    let session = Session::sequential();
    let topology = session.build_graph(&edges).finish().unwrap();
    let service = GraphService::with_store_options(
        session,
        Arc::clone(&topology),
        StoreOptions {
            compaction_threshold: usize::MAX,
            overload_watermark: 2,
            ..StoreOptions::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let first = client
        .update(&[EdgeEdit::insert(0, 1, 1.0), EdgeEdit::insert(1, 2, 1.0)])
        .unwrap();
    assert!(first.is_ok(), "{}", first.message);
    let second = client.update(&[EdgeEdit::insert(2, 3, 1.0)]).unwrap();
    assert_eq!(second.status, Status::Overloaded, "{}", second.message);
    assert!(
        second.message.contains("overloaded"),
        "typed overload message: {}",
        second.message
    );
    // Degraded mode sheds writes only: reads still serve, same snapshot.
    let reply = client
        .run(
            &RunRequest::new(Algorithm::InDegrees)
                .seed(0)
                .include_values(true),
        )
        .unwrap();
    assert!(reply.is_ok(), "{}", reply.message);
    assert_eq!(reply.snapshot_version, first.snapshot_version);
    verify_checksum(&reply);
    // STATS counts the shed batch.
    let stats = client.stats_json().unwrap();
    assert!(
        stats.contains("\"update_overloaded\":1"),
        "stats must count shed batches: {stats}"
    );
    server.shutdown();
}
