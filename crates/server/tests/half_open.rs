//! Half-open peer reclamation: a client that sends valid requests and then
//! stalls forever mid-response-read must not pin a connection thread (or
//! any worker slot) indefinitely. The server's write-stall timeout bounds
//! the blocked `write_frame`, drops the connection, and keeps serving
//! everyone else.

use graphmat_core::{Session, Topology};
use graphmat_io::edgelist::EdgeList;
use graphmat_io::rmat::RmatConfig;
use graphmat_server::{Algorithm, Client, GraphService, RunRequest, Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(config: ServerConfig) -> (Server, Arc<Topology<f32>>) {
    // A larger graph (2^13 vertices) so include_values replies are ~64 KiB:
    // a handful of unread replies overflow the kernel socket buffers and
    // block the server's write path — the half-open hazard under test.
    let edges: EdgeList<f32> =
        graphmat_io::rmat::generate(&RmatConfig::graph500(13).with_seed(5).with_weights(1, 10));
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

/// Encode one RUN frame (length prefix + body) by hand so we can write
/// requests without ever reading replies.
fn encoded_run_frame() -> Vec<u8> {
    let mut body = Vec::new();
    RunRequest::new(Algorithm::PageRank)
        .iterations(5)
        .include_values(true)
        .encode(&mut body);
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

#[test]
fn half_open_peer_is_reclaimed_and_serving_continues() {
    let (server, _topology) = start_server(ServerConfig {
        workers: 2,
        queue_depth: 16,
        // Short stall budget so the test is fast; production default is 10s.
        write_stall_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // The half-open peer: valid frames in, nothing ever read out. It keeps
    // the request side full for as long as the server takes them (a fixed
    // number of frames leaves it to the kernel's auto-tuned loopback buffers
    // whether their ~64 KiB replies ever back up): every reply the server
    // cannot write grows its backlog until its connection thread blocks in
    // write_frame. Non-blocking, so a full pipe hands control back to the
    // polling loop below; `sent` keeps the framing across partial writes.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.set_nonblocking(true).unwrap();
    let frame = encoded_run_frame();
    let mut sent = 0usize;
    let mut keep_requesting = move |stalled: &mut TcpStream| {
        // An error other than a full pipe means the server already dropped
        // us — that's the mechanism working.
        while let Ok(written) = stalled.write(&frame[sent..]) {
            sent = (sent + written) % frame.len();
        }
    };

    // Meanwhile every other client keeps getting answers the whole time.
    let mut live = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut reclaimed = false;
    while Instant::now() < deadline {
        keep_requesting(&mut stalled);
        let reply = live
            .run(&RunRequest::new(Algorithm::Bfs).seed(0).timeout_ms(5_000))
            .expect("live client must keep serving alongside the stalled peer");
        assert!(reply.is_ok(), "{}", reply.message);
        if server.metrics().dropped_connections.load(Relaxed) > 0 {
            reclaimed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        reclaimed,
        "server never reclaimed the half-open connection (write stall timeout)"
    );

    // The stalled peer's socket is dead from the server side; worker slots
    // are free (workers hand replies to a channel, they never block on the
    // socket), so a burst of fresh clients all succeed promptly.
    let workers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let reply = client
                    .run(&RunRequest::new(Algorithm::InDegrees).timeout_ms(5_000))
                    .unwrap();
                assert!(reply.is_ok(), "{}", reply.message);
            })
        })
        .collect();
    for handle in workers {
        handle.join().unwrap();
    }
    drop(stalled);
    server.shutdown();
}
