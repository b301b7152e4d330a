//! Wire protocol: length-prefixed binary frames with a versioned codec.
//!
//! Every message — request or response — is one **frame**: a little-endian
//! `u32` byte length followed by that many body bytes. Bodies start with a
//! protocol version byte so the codec can evolve, followed by an opcode
//! (requests) or a status byte (responses). All multi-byte integers are
//! little-endian.
//!
//! Request bodies:
//!
//! ```text
//! RUN:      version u8 | opcode=1 | algorithm u8 | flags u8 |
//!           timeout_ms u32 | iterations u32 | seed u64        (20 bytes)
//! STATS:    version u8 | opcode=2                             (2 bytes)
//! PING:     version u8 | opcode=3                             (2 bytes)
//! SHUTDOWN: version u8 | opcode=4                             (2 bytes)
//! UPDATE:   version u8 | opcode=5 | flags u8 (must be 0) | count u32 |
//!           count × { op u8 (0=insert, 1=delete) | src u32 | dst u32 |
//!                     weight f32 }                   (7 + 13·count bytes)
//! ```
//!
//! Response bodies:
//!
//! ```text
//! error:     version u8 | status!=0 | msg_len u32 | msg utf-8
//! RUN ok:    version u8 | status=0  | snapshot_version u64 |
//!            elapsed_micros u64 | iterations u32 | value_kind u8 |
//!            checksum u64 | num_values u32 |
//!            [num_values values, little-endian]   (only if requested)
//! UPDATE ok: version u8 | status=0  | snapshot_version u64 |
//!            num_edges u64 | delta_edges u64 | compactions u64
//! STATS ok:  version u8 | status=0  | json_len u32 | json utf-8
//! PING ok / SHUTDOWN ok: version u8 | status=0
//! ```
//!
//! The `checksum` is FNV-1a 64 over the little-endian value bytes, so a
//! client can verify a result against a local run without shipping the full
//! vector. `snapshot_version` is the version of the immutable graph snapshot
//! the run was admitted against (the number of UPDATE batches applied before
//! it), so a client can pin a result to the exact graph state that produced
//! it. Decoding is strict: wrong version, unknown opcode/algorithm,
//! undefined flag bits, and bodies of the wrong length all produce a typed
//! error status — never a panic.

use std::io::{self, Read, Write};

/// Current protocol version; bumped on any incompatible codec change.
/// Version 2 added the `UPDATE` opcode and the `snapshot_version` field in
/// the RUN ok header.
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on a frame body. Large enough for the value vector of a
/// 2M-vertex f64 result; anything bigger is a corrupt or hostile length
/// prefix and the connection is dropped after a typed error.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Request opcodes.
pub mod opcode {
    /// Execute one algorithm run.
    pub const RUN: u8 = 1;
    /// Fetch the observability snapshot as JSON.
    pub const STATS: u8 = 2;
    /// Liveness probe.
    pub const PING: u8 = 3;
    /// Begin graceful shutdown (drains in-flight requests).
    pub const SHUTDOWN: u8 = 4;
    /// Apply one batch of edge insertions/deletions to the resident graph.
    pub const UPDATE: u8 = 5;
}

/// Response status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request succeeded.
    Ok = 0,
    /// Admission queue full — retry later (fast rejection under overload).
    Busy = 1,
    /// The request deadline expired, either while queued or mid-run.
    Timeout = 2,
    /// The request was malformed (bad version, length, flags, or seed).
    BadRequest = 3,
    /// The algorithm id is not one this server knows.
    UnknownAlgorithm = 4,
    /// The run failed inside the engine.
    ServerError = 5,
    /// The server is draining and no longer admits new runs.
    ShuttingDown = 6,
    /// The store's pending-delta high-watermark was hit: the write was shed
    /// to protect the serving path. Reads keep working; retry the write
    /// after compaction drains the backlog.
    Overloaded = 7,
}

impl Status {
    /// Decode a status byte.
    pub fn from_u8(byte: u8) -> Option<Status> {
        Some(match byte {
            0 => Status::Ok,
            1 => Status::Busy,
            2 => Status::Timeout,
            3 => Status::BadRequest,
            4 => Status::UnknownAlgorithm,
            5 => Status::ServerError,
            6 => Status::ShuttingDown,
            7 => Status::Overloaded,
            _ => return None,
        })
    }
}

/// The algorithms the server can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Algorithm {
    /// PageRank; `iterations` bounds the run (0 = server default).
    PageRank = 0,
    /// BFS hop distances from `seed`.
    Bfs = 1,
    /// Single-source shortest paths from `seed`.
    Sssp = 2,
    /// Connected components by label propagation.
    ConnectedComponents = 3,
    /// In-degree of every vertex.
    InDegrees = 4,
}

impl Algorithm {
    /// Every algorithm, in wire-id order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::PageRank,
        Algorithm::Bfs,
        Algorithm::Sssp,
        Algorithm::ConnectedComponents,
        Algorithm::InDegrees,
    ];

    /// Decode a wire id.
    pub fn from_u8(byte: u8) -> Option<Algorithm> {
        Some(match byte {
            0 => Algorithm::PageRank,
            1 => Algorithm::Bfs,
            2 => Algorithm::Sssp,
            3 => Algorithm::ConnectedComponents,
            4 => Algorithm::InDegrees,
            _ => return None,
        })
    }

    /// Stable lowercase name (metrics keys, loadgen mix specs).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::PageRank => "pagerank",
            Algorithm::Bfs => "bfs",
            Algorithm::Sssp => "sssp",
            Algorithm::ConnectedComponents => "components",
            Algorithm::InDegrees => "in_degrees",
        }
    }
}

/// Element type of a RUN result vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ValueKind {
    /// `f64` (PageRank ranks).
    F64 = 0,
    /// `u32` (BFS distances, component labels).
    U32 = 1,
    /// `f32` (SSSP distances).
    F32 = 2,
    /// `u64` (degree counts).
    U64 = 3,
}

impl ValueKind {
    /// Decode a wire id.
    pub fn from_u8(byte: u8) -> Option<ValueKind> {
        Some(match byte {
            0 => ValueKind::F64,
            1 => ValueKind::U32,
            2 => ValueKind::F32,
            3 => ValueKind::U64,
            _ => return None,
        })
    }

    /// Bytes per element on the wire.
    pub fn width(self) -> usize {
        match self {
            ValueKind::U32 | ValueKind::F32 => 4,
            ValueKind::F64 | ValueKind::U64 => 8,
        }
    }
}

/// Flag bit: include the full value vector in the RUN response (otherwise
/// only the checksum is returned).
pub const FLAG_INCLUDE_VALUES: u8 = 0b0000_0001;

/// A decoded RUN request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunRequest {
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// Ship the full value vector back (not just the checksum).
    pub include_values: bool,
    /// Per-request deadline in milliseconds; 0 = server default.
    pub timeout_ms: u32,
    /// Iteration bound for iteration-driven algorithms (PageRank);
    /// 0 = server default. Ignored by convergence-driven algorithms.
    pub iterations: u32,
    /// Seed vertex (BFS root / SSSP source). Ignored by seedless algorithms.
    pub seed: u64,
}

impl RunRequest {
    /// A request with default options (checksum only, server-default
    /// timeout, seed 0).
    pub fn new(algorithm: Algorithm) -> RunRequest {
        RunRequest {
            algorithm,
            include_values: false,
            timeout_ms: 0,
            iterations: 0,
            seed: 0,
        }
    }

    /// Set the seed vertex (BFS root / SSSP source).
    pub fn seed(mut self, seed: u64) -> RunRequest {
        self.seed = seed;
        self
    }

    /// Set the iteration bound (PageRank).
    pub fn iterations(mut self, iterations: u32) -> RunRequest {
        self.iterations = iterations;
        self
    }

    /// Set the per-request deadline in milliseconds.
    pub fn timeout_ms(mut self, timeout_ms: u32) -> RunRequest {
        self.timeout_ms = timeout_ms;
        self
    }

    /// Request the full value vector in the response.
    pub fn include_values(mut self, include: bool) -> RunRequest {
        self.include_values = include;
        self
    }

    /// Encode into a frame body.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(PROTOCOL_VERSION);
        buf.push(opcode::RUN);
        buf.push(self.algorithm as u8);
        buf.push(if self.include_values {
            FLAG_INCLUDE_VALUES
        } else {
            0
        });
        buf.extend_from_slice(&self.timeout_ms.to_le_bytes());
        buf.extend_from_slice(&self.iterations.to_le_bytes());
        buf.extend_from_slice(&self.seed.to_le_bytes());
    }
}

/// Exact body length of a RUN request frame.
const RUN_BODY_LEN: usize = 20;

/// One edge edit inside an UPDATE batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeEdit {
    /// `true` = insert/upsert with `weight`; `false` = delete (weight
    /// ignored, encoded as 0).
    pub insert: bool,
    /// Source vertex id.
    pub src: u32,
    /// Destination vertex id.
    pub dst: u32,
    /// Edge weight for inserts.
    pub weight: f32,
}

impl EdgeEdit {
    /// An insert/upsert edit.
    pub fn insert(src: u32, dst: u32, weight: f32) -> EdgeEdit {
        EdgeEdit {
            insert: true,
            src,
            dst,
            weight,
        }
    }

    /// A delete edit.
    pub fn delete(src: u32, dst: u32) -> EdgeEdit {
        EdgeEdit {
            insert: false,
            src,
            dst,
            weight: 0.0,
        }
    }
}

/// A decoded UPDATE request: one batch of edge edits applied atomically —
/// readers see either the previous snapshot or the whole batch.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct UpdateRequest {
    /// The edits, applied in order (later edits to the same `(src, dst)`
    /// pair win).
    pub edits: Vec<EdgeEdit>,
}

/// Bytes per encoded edge edit: op u8 + src u32 + dst u32 + weight f32.
const EDIT_RECORD_LEN: usize = 13;

/// Fixed prefix of an UPDATE body: version, opcode, flags, count.
const UPDATE_PREFIX_LEN: usize = 7;

impl UpdateRequest {
    /// Wrap a batch of edits.
    pub fn new(edits: Vec<EdgeEdit>) -> UpdateRequest {
        UpdateRequest { edits }
    }

    /// Encode into a frame body.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(PROTOCOL_VERSION);
        buf.push(opcode::UPDATE);
        buf.push(0); // flags: none defined
        buf.extend_from_slice(&(self.edits.len() as u32).to_le_bytes());
        for edit in &self.edits {
            buf.push(if edit.insert { 0 } else { 1 });
            buf.extend_from_slice(&edit.src.to_le_bytes());
            buf.extend_from_slice(&edit.dst.to_le_bytes());
            buf.extend_from_slice(&edit.weight.to_le_bytes());
        }
    }
}

/// A decoded request of any opcode.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Execute one algorithm run.
    Run(RunRequest),
    /// Apply one batch of edge edits.
    Update(UpdateRequest),
    /// Fetch the observability snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful shutdown.
    Shutdown,
}

/// A request decode failure: the status to reply with plus a human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Status byte for the error response.
    pub status: Status,
    /// Human-readable diagnosis.
    pub message: String,
}

impl DecodeError {
    fn bad(message: impl Into<String>) -> DecodeError {
        DecodeError {
            status: Status::BadRequest,
            message: message.into(),
        }
    }
}

impl Request {
    /// Decode a frame body. Strict: every malformed shape is a typed error.
    pub fn decode(body: &[u8]) -> Result<Request, DecodeError> {
        if body.len() < 2 {
            return Err(DecodeError::bad(format!(
                "frame body too short: {} bytes (need at least version + opcode)",
                body.len()
            )));
        }
        if body[0] != PROTOCOL_VERSION {
            return Err(DecodeError::bad(format!(
                "unsupported protocol version {} (server speaks {PROTOCOL_VERSION})",
                body[0]
            )));
        }
        match body[1] {
            opcode::RUN => {
                if body.len() != RUN_BODY_LEN {
                    return Err(DecodeError::bad(format!(
                        "RUN body must be exactly {RUN_BODY_LEN} bytes, got {}",
                        body.len()
                    )));
                }
                let algorithm = Algorithm::from_u8(body[2]).ok_or(DecodeError {
                    status: Status::UnknownAlgorithm,
                    message: format!("unknown algorithm id {}", body[2]),
                })?;
                let flags = body[3];
                if flags & !FLAG_INCLUDE_VALUES != 0 {
                    return Err(DecodeError::bad(format!(
                        "undefined flag bits 0b{flags:08b}"
                    )));
                }
                let le_u32 = |bytes: &[u8]| {
                    let mut arr = [0u8; 4];
                    arr.copy_from_slice(bytes);
                    u32::from_le_bytes(arr)
                };
                let le_u64 = |bytes: &[u8]| {
                    let mut arr = [0u8; 8];
                    arr.copy_from_slice(bytes);
                    u64::from_le_bytes(arr)
                };
                Ok(Request::Run(RunRequest {
                    algorithm,
                    include_values: flags & FLAG_INCLUDE_VALUES != 0,
                    timeout_ms: le_u32(&body[4..8]),
                    iterations: le_u32(&body[8..12]),
                    seed: le_u64(&body[12..20]),
                }))
            }
            opcode::UPDATE => {
                if body.len() < UPDATE_PREFIX_LEN {
                    return Err(DecodeError::bad(format!(
                        "UPDATE body must be at least {UPDATE_PREFIX_LEN} bytes, got {}",
                        body.len()
                    )));
                }
                let flags = body[2];
                if flags != 0 {
                    return Err(DecodeError::bad(format!(
                        "undefined UPDATE flag bits 0b{flags:08b}"
                    )));
                }
                let mut count_bytes = [0u8; 4];
                count_bytes.copy_from_slice(&body[3..7]);
                let count = u32::from_le_bytes(count_bytes) as usize;
                if count == 0 {
                    return Err(DecodeError::bad(
                        "UPDATE batch must contain at least one edit",
                    ));
                }
                let expected = UPDATE_PREFIX_LEN + count * EDIT_RECORD_LEN;
                if body.len() != expected {
                    return Err(DecodeError::bad(format!(
                        "UPDATE body for {count} edits must be exactly {expected} bytes, got {}",
                        body.len()
                    )));
                }
                let mut edits = Vec::with_capacity(count);
                let records = body[UPDATE_PREFIX_LEN..].chunks_exact(EDIT_RECORD_LEN);
                for (index, record) in records.enumerate() {
                    let insert = match record[0] {
                        0 => true,
                        1 => false,
                        op => {
                            return Err(DecodeError::bad(format!(
                                "unknown UPDATE edit op {op} (0=insert, 1=delete)"
                            )))
                        }
                    };
                    let le_u32 = |bytes: &[u8]| {
                        let mut arr = [0u8; 4];
                        arr.copy_from_slice(bytes);
                        u32::from_le_bytes(arr)
                    };
                    let weight =
                        f32::from_le_bytes([record[9], record[10], record[11], record[12]]);
                    // A NaN weight would reach every kernel that folds it:
                    // SSSP's `reduce` keeps a NaN it folded first against
                    // every shorter path (no `<` is true against NaN). A
                    // delete carries no weight, so its bytes are not checked.
                    if insert && !weight.is_finite() {
                        return Err(DecodeError::bad(format!(
                            "UPDATE edit {index}: insert weight {weight} is not finite"
                        )));
                    }
                    edits.push(EdgeEdit {
                        insert,
                        src: le_u32(&record[1..5]),
                        dst: le_u32(&record[5..9]),
                        weight,
                    });
                }
                Ok(Request::Update(UpdateRequest { edits }))
            }
            op @ (opcode::STATS | opcode::PING | opcode::SHUTDOWN) => {
                if body.len() != 2 {
                    return Err(DecodeError::bad(format!(
                        "opcode {op} takes no operands, got {} trailing bytes",
                        body.len() - 2
                    )));
                }
                Ok(match op {
                    opcode::STATS => Request::Stats,
                    opcode::PING => Request::Ping,
                    _ => Request::Shutdown,
                })
            }
            op => Err(DecodeError::bad(format!("unknown opcode {op}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Response encoding (server side) — all into a caller-reused buffer.
// ---------------------------------------------------------------------------

/// Encode an error response.
pub fn encode_error(buf: &mut Vec<u8>, status: Status, message: &str) {
    buf.push(PROTOCOL_VERSION);
    buf.push(status as u8);
    buf.extend_from_slice(&(message.len() as u32).to_le_bytes());
    buf.extend_from_slice(message.as_bytes());
}

/// Header fields of a successful RUN response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOkHeader {
    /// Version of the graph snapshot the run executed against.
    pub snapshot_version: u64,
    /// Wall-clock service time of the run, in microseconds.
    pub elapsed_micros: u64,
    /// Supersteps the engine executed.
    pub iterations: u32,
    /// Element type of the result vector.
    pub value_kind: ValueKind,
    /// FNV-1a 64 over the little-endian value bytes.
    pub checksum: u64,
    /// Number of result values (= vertex count).
    pub num_values: u32,
}

/// Encode a successful RUN response header; the caller appends the raw
/// little-endian value bytes afterwards if the client asked for them.
pub fn encode_run_ok_header(buf: &mut Vec<u8>, header: &RunOkHeader) {
    buf.push(PROTOCOL_VERSION);
    buf.push(Status::Ok as u8);
    buf.extend_from_slice(&header.snapshot_version.to_le_bytes());
    buf.extend_from_slice(&header.elapsed_micros.to_le_bytes());
    buf.extend_from_slice(&header.iterations.to_le_bytes());
    buf.push(header.value_kind as u8);
    buf.extend_from_slice(&header.checksum.to_le_bytes());
    buf.extend_from_slice(&header.num_values.to_le_bytes());
}

/// Fields of a successful UPDATE response: the state of the newly published
/// snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateOkReply {
    /// Version of the snapshot this batch published.
    pub snapshot_version: u64,
    /// Edges in the published `(base ⊕ delta)` graph.
    pub num_edges: u64,
    /// Resolved edits still pending in the delta overlay (0 right after a
    /// compaction).
    pub delta_edges: u64,
    /// Compactions performed since the server started.
    pub compactions: u64,
}

/// Encode a successful UPDATE response.
pub fn encode_update_ok(buf: &mut Vec<u8>, reply: &UpdateOkReply) {
    buf.push(PROTOCOL_VERSION);
    buf.push(Status::Ok as u8);
    buf.extend_from_slice(&reply.snapshot_version.to_le_bytes());
    buf.extend_from_slice(&reply.num_edges.to_le_bytes());
    buf.extend_from_slice(&reply.delta_edges.to_le_bytes());
    buf.extend_from_slice(&reply.compactions.to_le_bytes());
}

/// Encode a successful payload-carrying response (STATS).
pub fn encode_ok_payload(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.push(PROTOCOL_VERSION);
    buf.push(Status::Ok as u8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Encode a successful empty response (PING, SHUTDOWN).
pub fn encode_ok_empty(buf: &mut Vec<u8>) {
    buf.push(PROTOCOL_VERSION);
    buf.push(Status::Ok as u8);
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame (length prefix + body) and flush.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME_LEN);
    writer.write_all(&(body.len() as u32).to_le_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

/// Read one frame body into `buf` (blocking; used by clients). Fails with
/// `InvalidData` on an oversized length prefix.
pub fn read_frame(reader: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds maximum {MAX_FRAME_LEN}"),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    reader.read_exact(buf)
}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// Incremental FNV-1a 64 hasher over the little-endian value bytes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// Hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Fold bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// FNV-1a 64 of a little-endian `f64` slice (client-side verification).
pub fn checksum_f64(values: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    for v in values {
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

/// FNV-1a 64 of a little-endian `u32` slice.
pub fn checksum_u32(values: &[u32]) -> u64 {
    let mut h = Fnv64::new();
    for v in values {
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

/// FNV-1a 64 of a little-endian `f32` slice.
pub fn checksum_f32(values: &[f32]) -> u64 {
    let mut h = Fnv64::new();
    for v in values {
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

/// FNV-1a 64 of a little-endian `u64` slice.
pub fn checksum_u64(values: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for v in values {
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips() {
        let req = RunRequest::new(Algorithm::Sssp)
            .seed(42)
            .iterations(7)
            .timeout_ms(250)
            .include_values(true);
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert_eq!(buf.len(), RUN_BODY_LEN);
        assert_eq!(Request::decode(&buf), Ok(Request::Run(req)));
    }

    #[test]
    fn control_opcodes_round_trip() {
        for (op, want) in [
            (opcode::STATS, Request::Stats),
            (opcode::PING, Request::Ping),
            (opcode::SHUTDOWN, Request::Shutdown),
        ] {
            assert_eq!(Request::decode(&[PROTOCOL_VERSION, op]), Ok(want));
        }
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        // empty / one-byte body
        assert_eq!(Request::decode(&[]).unwrap_err().status, Status::BadRequest);
        assert_eq!(
            Request::decode(&[PROTOCOL_VERSION]).unwrap_err().status,
            Status::BadRequest
        );
        // wrong version
        assert_eq!(
            Request::decode(&[99, opcode::PING]).unwrap_err().status,
            Status::BadRequest
        );
        // unknown opcode
        assert_eq!(
            Request::decode(&[PROTOCOL_VERSION, 200])
                .unwrap_err()
                .status,
            Status::BadRequest
        );
        // short RUN body
        assert_eq!(
            Request::decode(&[PROTOCOL_VERSION, opcode::RUN, 0, 0])
                .unwrap_err()
                .status,
            Status::BadRequest
        );
        // trailing junk on a control opcode
        assert_eq!(
            Request::decode(&[PROTOCOL_VERSION, opcode::PING, 7])
                .unwrap_err()
                .status,
            Status::BadRequest
        );
        // unknown algorithm id
        let mut buf = Vec::new();
        RunRequest::new(Algorithm::Bfs).encode(&mut buf);
        buf[2] = 99;
        assert_eq!(
            Request::decode(&buf).unwrap_err().status,
            Status::UnknownAlgorithm
        );
        // undefined flag bits
        buf[2] = Algorithm::Bfs as u8;
        buf[3] = 0b1000_0000;
        assert_eq!(
            Request::decode(&buf).unwrap_err().status,
            Status::BadRequest
        );
    }

    #[test]
    fn update_request_round_trips() {
        let req = UpdateRequest::new(vec![
            EdgeEdit::insert(0, 7, 2.5),
            EdgeEdit::delete(3, 4),
            EdgeEdit::insert(7, 0, -1.0),
        ]);
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert_eq!(buf.len(), UPDATE_PREFIX_LEN + 3 * EDIT_RECORD_LEN);
        assert_eq!(Request::decode(&buf), Ok(Request::Update(req)));
    }

    #[test]
    fn malformed_update_bodies_are_typed_errors() {
        let mut buf = Vec::new();
        UpdateRequest::new(vec![EdgeEdit::insert(1, 2, 1.0)]).encode(&mut buf);

        // zero-count batch
        let mut empty = buf.clone();
        empty[3..7].copy_from_slice(&0u32.to_le_bytes());
        empty.truncate(UPDATE_PREFIX_LEN);
        assert_eq!(
            Request::decode(&empty).unwrap_err().status,
            Status::BadRequest
        );
        // truncated prefix
        assert_eq!(
            Request::decode(&buf[..5]).unwrap_err().status,
            Status::BadRequest
        );
        // count disagrees with the body length
        let mut wrong_count = buf.clone();
        wrong_count[3..7].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            Request::decode(&wrong_count).unwrap_err().status,
            Status::BadRequest
        );
        // trailing junk
        let mut trailing = buf.clone();
        trailing.push(0);
        assert_eq!(
            Request::decode(&trailing).unwrap_err().status,
            Status::BadRequest
        );
        // undefined flag bits
        let mut flagged = buf.clone();
        flagged[2] = 0b0000_0100;
        assert_eq!(
            Request::decode(&flagged).unwrap_err().status,
            Status::BadRequest
        );
        // unknown edit op byte
        let mut bad_op = buf.clone();
        bad_op[UPDATE_PREFIX_LEN] = 9;
        assert_eq!(
            Request::decode(&bad_op).unwrap_err().status,
            Status::BadRequest
        );
    }

    #[test]
    fn fnv1a64_matches_reference_vector() {
        // FNV-1a 64 of "a" is a published test vector.
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn framing_round_trips_through_a_cursor() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        let mut reader = io::Cursor::new(wire);
        let mut body = Vec::new();
        read_frame(&mut reader, &mut body).unwrap();
        assert_eq!(body, b"hello");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_client_side() {
        let mut reader = io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        let mut body = Vec::new();
        let err = read_frame(&mut reader, &mut body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
