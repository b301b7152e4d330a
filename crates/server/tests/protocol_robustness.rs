//! Adversarial protocol tests: truncated frames, hostile length prefixes,
//! unknown ids, malformed bodies. The invariant under test: every
//! malformed input produces a typed error response or a closed connection —
//! never a panic, never a hung connection thread.

use graphmat_core::Session;
use graphmat_io::rmat::RmatConfig;
use graphmat_server::protocol::{opcode, UpdateRequest, PROTOCOL_VERSION};
use graphmat_server::{
    Algorithm, Client, EdgeEdit, GraphService, RunRequest, Server, ServerConfig, Status,
};
use std::time::Duration;

fn start_server() -> Server {
    let edges = graphmat_io::rmat::generate(&RmatConfig::graph500(6).with_seed(3));
    let session = Session::sequential();
    let topology = session.build_graph(&edges).finish().unwrap();
    Server::bind(
        "127.0.0.1:0",
        GraphService::new(session, topology),
        ServerConfig {
            // Short stall timeout so the truncated-frame test is fast.
            read_stall_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Status byte of a raw reply body (`version | status | ...`).
fn status_of(reply: &[u8]) -> Status {
    assert!(reply.len() >= 2, "reply too short: {reply:?}");
    assert_eq!(reply[0], PROTOCOL_VERSION);
    Status::from_u8(reply[1]).expect("valid status byte")
}

/// After a well-framed error the connection must still serve requests.
fn assert_connection_alive(client: &mut Client) {
    client
        .ping()
        .expect("connection must survive a decode error");
}

#[test]
fn zero_length_frame_is_a_typed_error() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client.raw_round_trip(&[]).unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);
    assert_connection_alive(&mut client);
    server.shutdown();
}

#[test]
fn unknown_opcode_and_bad_version_are_typed_errors() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client.raw_round_trip(&[PROTOCOL_VERSION, 250]).unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);
    let reply = client.raw_round_trip(&[99, opcode::PING]).unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);
    assert_connection_alive(&mut client);
    server.shutdown();
}

#[test]
fn unknown_algorithm_id_is_a_typed_error() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut body = Vec::new();
    RunRequest::new(Algorithm::Bfs).encode(&mut body);
    body[2] = 77; // stomp the algorithm id
    let reply = client.raw_round_trip(&body).unwrap();
    assert_eq!(status_of(&reply), Status::UnknownAlgorithm);
    assert_connection_alive(&mut client);
    server.shutdown();
}

#[test]
fn malformed_run_bodies_are_typed_errors() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Short body.
    let reply = client
        .raw_round_trip(&[PROTOCOL_VERSION, opcode::RUN, 0, 0, 1])
        .unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);

    // Trailing junk.
    let mut body = Vec::new();
    RunRequest::new(Algorithm::Bfs).encode(&mut body);
    body.extend_from_slice(b"junk");
    let reply = client.raw_round_trip(&body).unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);

    // Undefined flag bits.
    let mut body = Vec::new();
    RunRequest::new(Algorithm::Bfs).encode(&mut body);
    body[3] = 0xF0;
    let reply = client.raw_round_trip(&body).unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);

    assert_connection_alive(&mut client);
    server.shutdown();
}

#[test]
fn out_of_range_seed_is_a_typed_error_not_a_panic() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Vertex far beyond the scale-6 graph, and beyond u32.
    for seed in [1_000_000u64, u64::MAX] {
        let reply = client
            .run(&RunRequest::new(Algorithm::Bfs).seed(seed))
            .unwrap();
        assert_eq!(reply.status, Status::BadRequest, "{}", reply.message);
        assert!(
            reply.message.contains("out of range"),
            "useful message expected, got {:?}",
            reply.message
        );
    }
    assert_connection_alive(&mut client);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_gets_error_then_disconnect() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // A hostile 4 GiB length prefix: the server cannot resync the stream,
    // so it answers with a typed error and drops the connection.
    client.raw_write(&u32::MAX.to_le_bytes()).unwrap();
    let reply = client.raw_read().unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);
    assert!(
        client.expect_eof(),
        "server must close after a bogus prefix"
    );
    // The server itself must survive for other clients.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.ping().unwrap();
    server.shutdown();
}

#[test]
fn truncated_frame_times_out_and_disconnects() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Claim 20 bytes, send 5, go silent: the mid-frame stall watchdog must
    // close the connection instead of hanging the thread forever.
    client.raw_write(&20u32.to_le_bytes()).unwrap();
    client
        .raw_write(&[PROTOCOL_VERSION, opcode::RUN, 0, 0, 0])
        .unwrap();
    assert!(
        client.expect_eof(),
        "server must drop a connection stalled mid-frame"
    );
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.ping().unwrap();
    server.shutdown();
}

#[test]
fn malformed_update_bodies_are_typed_errors_and_do_not_corrupt_the_snapshot() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Reference result against the untouched version-0 snapshot.
    let baseline = client
        .run(&RunRequest::new(Algorithm::ConnectedComponents))
        .unwrap();
    assert_eq!(baseline.snapshot_version, 0);

    // Zero-length batch (count == 0).
    let reply = client
        .raw_round_trip(&[PROTOCOL_VERSION, opcode::UPDATE, 0, 0, 0, 0, 0])
        .unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);

    // Truncated prefix.
    let reply = client
        .raw_round_trip(&[PROTOCOL_VERSION, opcode::UPDATE, 0])
        .unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);

    // Count that disagrees with the body length.
    let mut body = Vec::new();
    UpdateRequest::new(vec![EdgeEdit::insert(0, 1, 1.0)]).encode(&mut body);
    body[3..7].copy_from_slice(&1000u32.to_le_bytes());
    let reply = client.raw_round_trip(&body).unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);

    // Undefined flag bits.
    let mut body = Vec::new();
    UpdateRequest::new(vec![EdgeEdit::insert(0, 1, 1.0)]).encode(&mut body);
    body[2] = 0b0000_0001;
    let reply = client.raw_round_trip(&body).unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);

    // Unknown edit op byte.
    let mut body = Vec::new();
    UpdateRequest::new(vec![EdgeEdit::insert(0, 1, 1.0)]).encode(&mut body);
    body[7] = 42;
    let reply = client.raw_round_trip(&body).unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);

    // Well-formed frame, but the vertex ids are beyond the graph.
    let reply = client
        .update(&[EdgeEdit::insert(u32::MAX, 0, 1.0)])
        .unwrap();
    assert_eq!(reply.status, Status::BadRequest, "{}", reply.message);
    let reply = client.update(&[EdgeEdit::delete(0, u32::MAX - 1)]).unwrap();
    assert_eq!(reply.status, Status::BadRequest, "{}", reply.message);

    // None of the rejected batches may have published a snapshot: the
    // version is still 0 and queries reproduce the baseline bit-for-bit.
    let after = client
        .run(&RunRequest::new(Algorithm::ConnectedComponents))
        .unwrap();
    assert_eq!(after.snapshot_version, 0);
    assert_eq!(after.checksum, baseline.checksum);

    assert_connection_alive(&mut client);
    server.shutdown();
}

/// A NaN or infinite insert weight is a typed error naming the record, and
/// the batch carrying it publishes nothing; a delete's weight bytes are not
/// read, so a NaN there is accepted.
#[test]
fn non_finite_insert_weights_are_rejected_by_record() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for weight in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let edits = [EdgeEdit::insert(0, 1, 1.0), EdgeEdit::insert(1, 2, weight)];
        let reply = client.update(&edits).unwrap();
        assert_eq!(
            reply.status,
            Status::BadRequest,
            "{weight}: {}",
            reply.message
        );
        assert!(
            reply.message.contains("edit 1"),
            "{weight}: the message must name the record, got {:?}",
            reply.message
        );
    }
    let after = client
        .run(&RunRequest::new(Algorithm::ConnectedComponents))
        .unwrap();
    assert_eq!(
        after.snapshot_version, 0,
        "a rejected batch moved the version"
    );

    let nan_delete = EdgeEdit {
        weight: f32::NAN,
        ..EdgeEdit::delete(0, 1)
    };
    let reply = client.update(&[nan_delete]).unwrap();
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    assert_eq!(reply.snapshot_version, 1);
    assert_connection_alive(&mut client);
    server.shutdown();
}

#[test]
fn oversized_update_frame_gets_error_then_disconnect() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // An UPDATE whose claimed body exceeds MAX_FRAME_LEN: rejected at the
    // framing layer before any edit bytes are read.
    client
        .raw_write(&((graphmat_server::protocol::MAX_FRAME_LEN as u32) + 1).to_le_bytes())
        .unwrap();
    let reply = client.raw_read().unwrap();
    assert_eq!(status_of(&reply), Status::BadRequest);
    assert!(
        client.expect_eof(),
        "server must close after a bogus prefix"
    );
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.ping().unwrap();
    server.shutdown();
}

#[test]
fn half_sent_header_then_close_does_not_wedge_the_server() {
    let server = start_server();
    {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.raw_write(&[7u8, 0]).unwrap();
        // dropped here — mid-header EOF
    }
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.ping().unwrap();
    server.shutdown();
}
