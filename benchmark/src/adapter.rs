//! The only file of this package that names symbols of the repository.
//!
//! Everything the benchmark calls goes through the wrappers below, so the
//! list of `use` items here *is* the API the benchmark freezes (README.md
//! repeats it). Timing is not done here: the wrappers only make the call, and
//! the callers in `workloads/` and `probes.rs` stamp the spans around them.
//!
//! Deliberately not named: `Graph`, `run_graph_program*`, the `*_on` and
//! `*_view` drivers and `superstep*` — the entry points the roadmap's
//! one-engine-path item removes.

use graphmat_algorithms::bfs::{bfs_into, bfs_reference};
use graphmat_algorithms::connected_components::connected_components_into;
use graphmat_algorithms::degree::in_degrees_into;
use graphmat_algorithms::pagerank::{
    pagerank_into, pagerank_reference, PageRankConfig, PageRankVertex,
};
use graphmat_algorithms::sssp::{sssp_into, sssp_reference};
use graphmat_baselines::native;
use graphmat_core::runner::RunResult;
use graphmat_core::{
    GraphMatError, Session, StatePool, StoreOptions, StoreStats, Topology, VertexState,
};
use graphmat_delta::{BaseFacts, DeltaBatch, DeltaLog, DeltaOverlay, PairIndex, UpdateOp};
use graphmat_io::edgelist::{EdgeList, EdgeWeight};
use graphmat_io::grid::{self, GridConfig};
use graphmat_io::rmat::{self, RmatConfig};
use graphmat_server::protocol::{self, checksum_f64, Request};
use graphmat_server::queue::BoundedQueue;
use graphmat_server::service::{execute_run, WorkerStates};
use graphmat_server::{
    Algorithm, Client, EdgeEdit, GraphService, RunRequest, Server, ServerConfig, Status,
    UpdateRequest,
};
use graphmat_sparse::overlay::gspmv_overlay_into;
use graphmat_sparse::spmv::{gspmv_csr_pull_into, gspmv_into};
use graphmat_sparse::spvec::{DenseVector, SparseVector};

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The two edge value types the workloads use: `f32` weights and the
/// unweighted `()` fast path.
pub trait Edge: EdgeWeight + Default + 'static {
    fn from_weight(w: f32) -> Self;
}

impl Edge for f32 {
    fn from_weight(w: f32) -> f32 {
        w
    }
}

impl Edge for () {
    fn from_weight(_: f32) {}
}

pub struct Edges<E>(EdgeList<E>);

impl<E: Edge> Edges<E> {
    pub fn from_tuples(num_vertices: u32, tuples: Vec<(u32, u32, E)>) -> Edges<E> {
        Edges(EdgeList::from_tuples(num_vertices, tuples))
    }

    pub fn num_vertices(&self) -> u32 {
        self.0.num_vertices()
    }

    pub fn num_edges(&self) -> usize {
        self.0.num_edges()
    }

    pub fn tuples(&self) -> &[(u32, u32, E)] {
        self.0.edges()
    }

    /// The tuples with every edge value read as its scalar weight.
    pub fn weighted_tuples(&self) -> Vec<(u32, u32, f32)> {
        self.0
            .edges()
            .iter()
            .map(|(src, dst, e)| (*src, *dst, e.weight()))
            .collect()
    }
}

impl Edges<f32> {
    /// Both directions of every edge, duplicates removed, values dropped:
    /// the graph BFS runs on.
    pub fn symmetrized_unweighted(&self) -> Edges<()> {
        Edges(self.0.symmetrized().topology())
    }

    pub fn unweighted(&self) -> Edges<()> {
        Edges(self.0.topology())
    }
}

/// RMAT with the Graph500 parameters, edge factor 16, weights 1..=10.
pub fn rmat_edges(scale: u32, seed: u64) -> Edges<f32> {
    Edges(rmat::generate(
        &RmatConfig::graph500(scale)
            .with_seed(seed)
            .with_weights(1, 10),
    ))
}

/// The road-network stand-in: a `side x side` grid, 8 % of edges removed,
/// weights 1..=100, both directions. No long-range shortcuts: a handful of
/// random highways halves the diameter or not depending on where they land,
/// and the superstep count — which is what the workload is about — would
/// follow the seed (241..290 over ten seeds with 32 shortcuts, 610..638
/// without).
pub fn grid_edges(side: u32, seed: u64) -> Edges<f32> {
    Edges(grid::generate(&GridConfig {
        width: side,
        height: side,
        removal_fraction: 0.08,
        num_shortcuts: 0,
        seed,
        ..GridConfig::default()
    }))
}

// ---------------------------------------------------------------------------
// Session, topology
// ---------------------------------------------------------------------------

pub struct Engine(Session);

impl Engine {
    pub fn new(threads: usize) -> Result<Engine, String> {
        Session::with_threads(threads).map(Engine).map_err(err)
    }

    pub fn threads(&self) -> usize {
        self.0.nthreads()
    }

    pub fn build<E: Edge>(&self, edges: &Edges<E>) -> Result<Graph<E>, String> {
        self.0
            .build_graph(&edges.0)
            .finish()
            .map(Graph)
            .map_err(err)
    }

    /// One executor dispatch of `tasks` empty tasks.
    pub fn dispatch_noop(&self, tasks: usize) {
        self.0.executor().for_each_dynamic(tasks, |task| {
            std::hint::black_box(task);
        });
    }
}

pub struct Graph<E>(Arc<Topology<E>>);

impl<E> Clone for Graph<E> {
    fn clone(&self) -> Self {
        Graph(Arc::clone(&self.0))
    }
}

impl<E> Graph<E> {
    pub fn num_vertices(&self) -> u32 {
        self.0.num_vertices()
    }

    pub fn num_edges(&self) -> usize {
        self.0.num_edges()
    }

    pub fn num_partitions(&self) -> usize {
        self.0.num_partitions()
    }

    pub fn matrix_bytes(&self) -> usize {
        self.0.matrix_bytes()
    }

    pub fn pull_bytes(&self) -> usize {
        self.0.pull_bytes()
    }

    pub fn out_degrees(&self) -> &[u32] {
        self.0.out_degrees()
    }
}

// ---------------------------------------------------------------------------
// Queries: pooled drivers, references, native baselines
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    PageRank,
    Bfs,
    Sssp,
    Components,
    InDegrees,
}

impl Algo {
    pub const ALL: [Algo; 5] = [
        Algo::PageRank,
        Algo::Bfs,
        Algo::Sssp,
        Algo::Components,
        Algo::InDegrees,
    ];

    /// The name used in metric names and on the wire's STATS reply.
    pub fn name(self) -> &'static str {
        match self {
            Algo::PageRank => "pagerank",
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Components => "components",
            Algo::InDegrees => "in_degrees",
        }
    }

    fn wire(self) -> Algorithm {
        match self {
            Algo::PageRank => Algorithm::PageRank,
            Algo::Bfs => Algorithm::Bfs,
            Algo::Sssp => Algorithm::Sssp,
            Algo::Components => Algorithm::ConnectedComponents,
            Algo::InDegrees => Algorithm::InDegrees,
        }
    }
}

pub const PAGERANK_ITERATIONS: u32 = 10;
pub const RANDOM_SURF: f64 = 0.15;

/// One query: the algorithm plus its root/source (ignored by the whole-graph
/// algorithms). PageRank always runs [`PAGERANK_ITERATIONS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    pub algo: Algo,
    pub seed: u32,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Values {
    F64(Vec<f64>),
    U32(Vec<u32>),
    F32(Vec<f32>),
    U64(Vec<u64>),
}

/// What a run reports about itself (`RunStats`), per query.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunInfo {
    pub supersteps: u64,
    pub pull_supersteps: u64,
    pub edges: u64,
    pub messages: u64,
    pub send_s: f64,
    pub spmv_s: f64,
    pub apply_s: f64,
    /// Bytes the `perf` cost model says the run touched.
    pub model_bytes: u64,
}

fn run_info(result: RunResult, prop_bytes: usize) -> RunInfo {
    let s = &result.stats;
    RunInfo {
        supersteps: s.iterations as u64,
        pull_supersteps: s.pull_supersteps as u64,
        edges: s.edges_processed,
        messages: s.messages_sent,
        send_s: s.send_time.as_secs_f64(),
        spmv_s: s.spmv_time.as_secs_f64(),
        apply_s: s.apply_time.as_secs_f64(),
        model_bytes: s.to_cost_counters(prop_bytes).bytes_total(),
    }
}

/// One `StatePool` per algorithm, as the server keeps them: the workspace
/// cached in a state is typed by the program.
pub struct Pools {
    pagerank: StatePool<PageRankVertex>,
    bfs: StatePool<u32>,
    sssp: StatePool<f32>,
    components: StatePool<u32>,
    in_degrees: StatePool<u64>,
}

pub enum State {
    PageRank(VertexState<PageRankVertex>),
    Bfs(VertexState<u32>),
    Sssp(VertexState<f32>),
    Components(VertexState<u32>),
    InDegrees(VertexState<u64>),
}

impl Pools {
    pub fn new<E>(graph: &Graph<E>) -> Pools {
        Pools {
            pagerank: StatePool::for_topology(&graph.0),
            bfs: StatePool::for_topology(&graph.0),
            sssp: StatePool::for_topology(&graph.0),
            components: StatePool::for_topology(&graph.0),
            in_degrees: StatePool::for_topology(&graph.0),
        }
    }

    pub fn acquire(&mut self, algo: Algo) -> State {
        match algo {
            Algo::PageRank => State::PageRank(self.pagerank.acquire()),
            Algo::Bfs => State::Bfs(self.bfs.acquire()),
            Algo::Sssp => State::Sssp(self.sssp.acquire()),
            Algo::Components => State::Components(self.components.acquire()),
            Algo::InDegrees => State::InDegrees(self.in_degrees.acquire()),
        }
    }

    pub fn release(&mut self, state: State) {
        match state {
            State::PageRank(s) => self.pagerank.release(s),
            State::Bfs(s) => self.bfs.release(s),
            State::Sssp(s) => self.sssp.release(s),
            State::Components(s) => self.components.release(s),
            State::InDegrees(s) => self.in_degrees.release(s),
        }
    }

    pub fn created(&self) -> usize {
        self.pagerank.created()
            + self.bfs.created()
            + self.sssp.created()
            + self.components.created()
            + self.in_degrees.created()
    }

    pub fn reused(&self) -> usize {
        self.pagerank.reused()
            + self.bfs.reused()
            + self.sssp.reused()
            + self.components.reused()
            + self.in_degrees.reused()
    }
}

impl State {
    /// A copy of the result vector the last run left in this state.
    pub fn values(&self) -> Values {
        match self {
            State::PageRank(s) => Values::F64(s.properties().iter().map(|p| p.rank).collect()),
            State::Bfs(s) | State::Components(s) => Values::U32(s.properties().to_vec()),
            State::Sssp(s) => Values::F32(s.properties().to_vec()),
            State::InDegrees(s) => Values::U64(s.properties().to_vec()),
        }
    }

    /// The result's little-endian bytes, in vertex order, without copying
    /// the vector: what the wire checksum is taken over.
    pub fn for_each_le_bytes(&self, mut f: impl FnMut(&[u8])) {
        match self {
            State::PageRank(s) => s.properties().iter().for_each(|p| f(&p.rank.to_le_bytes())),
            State::Bfs(s) | State::Components(s) => {
                s.properties().iter().for_each(|v| f(&v.to_le_bytes()))
            }
            State::Sssp(s) => s.properties().iter().for_each(|v| f(&v.to_le_bytes())),
            State::InDegrees(s) => s.properties().iter().for_each(|v| f(&v.to_le_bytes())),
        }
    }
}

/// Run one query through the pooled `*_into` driver into `state`.
pub fn run_query<E: Edge>(
    engine: &Engine,
    graph: &Graph<E>,
    query: Query,
    state: &mut State,
) -> Result<RunInfo, String> {
    let (session, topology) = (&engine.0, &*graph.0);
    let result: Result<(RunResult, usize), GraphMatError> = match (query.algo, state) {
        (Algo::PageRank, State::PageRank(s)) => {
            let config = PageRankConfig {
                random_surf: RANDOM_SURF,
                iterations: PAGERANK_ITERATIONS as usize,
                ..PageRankConfig::default()
            };
            pagerank_into(session, topology, &config, None, s)
                .map(|r| (r, std::mem::size_of::<PageRankVertex>()))
        }
        (Algo::Bfs, State::Bfs(s)) => {
            bfs_into(session, topology, query.seed, None, s).map(|r| (r, 4))
        }
        (Algo::Sssp, State::Sssp(s)) => {
            sssp_into(session, topology, query.seed, None, s).map(|r| (r, 4))
        }
        (Algo::Components, State::Components(s)) => {
            connected_components_into(session, topology, None, s).map(|r| (r, 4))
        }
        (Algo::InDegrees, State::InDegrees(s)) => {
            in_degrees_into(session, topology, None, s).map(|r| (r, 8))
        }
        _ => return Err("state was acquired for another algorithm".into()),
    };
    result
        .map(|(r, prop_bytes)| run_info(r, prop_bytes))
        .map_err(err)
}

/// The in-tree reference for BFS (`bfs_reference`, on the edges as given)
/// and SSSP (`sssp_reference`); `None` for the other algorithms, whose
/// references live in `reference.rs`.
pub fn reference<E: Edge>(edges: &Edges<E>, query: Query) -> Option<Values> {
    match query.algo {
        Algo::Bfs => Some(Values::U32(bfs_reference(&edges.0, query.seed, false))),
        Algo::Sssp => Some(Values::F32(sssp_reference(&edges.0, query.seed))),
        _ => None,
    }
}

/// `pagerank_reference` — O(vertices x edges), so callers use it on small
/// graphs only (`--quick`).
pub fn pagerank_reference_small<E: Edge>(edges: &Edges<E>) -> Vec<f64> {
    pagerank_reference(&edges.0, RANDOM_SURF, PAGERANK_ITERATIONS as usize)
}

pub struct NativeRun {
    pub values: Values,
    /// `BaselineRun::elapsed`: the algorithm alone, without the CSR build
    /// the public function does first.
    pub elapsed_s: f64,
    pub edge_ops: u64,
}

/// The hand-written baseline for PageRank, BFS (symmetrizes its input
/// itself) and SSSP.
pub fn native_run<E: Edge>(edges: &Edges<E>, query: Query, threads: usize) -> Option<NativeRun> {
    match query.algo {
        Algo::PageRank => {
            let run =
                native::pagerank(&edges.0, RANDOM_SURF, PAGERANK_ITERATIONS as usize, threads);
            Some(NativeRun {
                elapsed_s: run.elapsed.as_secs_f64(),
                edge_ops: run.counters.edge_ops,
                values: Values::F64(run.values),
            })
        }
        Algo::Bfs => {
            let run = native::bfs(&edges.0, query.seed, threads);
            Some(NativeRun {
                elapsed_s: run.elapsed.as_secs_f64(),
                edge_ops: run.counters.edge_ops,
                values: Values::U32(run.values),
            })
        }
        Algo::Sssp => {
            let run = native::sssp(&edges.0, query.seed, threads);
            Some(NativeRun {
                elapsed_s: run.elapsed.as_secs_f64(),
                edge_ops: run.counters.edge_ops,
                values: Values::F32(run.values),
            })
        }
        Algo::Components | Algo::InDegrees => None,
    }
}

// ---------------------------------------------------------------------------
// Store and service (in process)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edit {
    pub insert: bool,
    pub src: u32,
    pub dst: u32,
    pub weight: f32,
}

impl Edit {
    fn wire(&self) -> EdgeEdit {
        if self.insert {
            EdgeEdit::insert(self.src, self.dst, self.weight)
        } else {
            EdgeEdit::delete(self.src, self.dst)
        }
    }

    fn op<E: Edge>(&self) -> (u32, u32, UpdateOp<E>) {
        let op = if self.insert {
            UpdateOp::Insert(E::from_weight(self.weight))
        } else {
            UpdateOp::Delete
        };
        (self.src, self.dst, op)
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Compaction {
    /// Only `compact_now` compacts: the overlay grows until the workload
    /// says otherwise.
    Manual,
    /// The store's background worker compacts past this many pending edits.
    Background { threshold: usize },
}

#[derive(Clone, Copy, Debug, Default)]
pub struct StoreInfo {
    pub version: u64,
    pub num_edges: u64,
    pub delta_edges: u64,
    pub compactions: u64,
    pub compaction_failures: u64,
}

impl From<StoreStats> for StoreInfo {
    fn from(stats: StoreStats) -> StoreInfo {
        StoreInfo {
            version: stats.version,
            num_edges: stats.num_edges as u64,
            delta_edges: stats.delta_edges as u64,
            compactions: stats.compactions,
            compaction_failures: stats.compaction_failures,
        }
    }
}

pub struct Service(GraphService);

pub struct Worker(WorkerStates);

impl Service {
    /// A fresh session + store over an already built topology.
    pub fn new(
        threads: usize,
        graph: &Graph<f32>,
        compaction: Compaction,
    ) -> Result<Service, String> {
        let session = Session::with_threads(threads).map_err(err)?;
        let options = match compaction {
            Compaction::Manual => StoreOptions {
                compaction_threshold: usize::MAX,
                background: false,
                ..StoreOptions::default()
            },
            Compaction::Background { threshold } => StoreOptions {
                compaction_threshold: threshold,
                background: true,
                ..StoreOptions::default()
            },
        };
        Ok(Service(GraphService::with_store_options(
            session,
            Arc::clone(&graph.0),
            options,
        )))
    }

    pub fn worker(&self) -> Worker {
        Worker(WorkerStates::for_topology(self.0.topology()))
    }

    pub fn apply_update(&self, edits: &[Edit]) -> Result<StoreInfo, String> {
        let request = UpdateRequest::new(edits.iter().map(Edit::wire).collect());
        self.0
            .apply_update(&request)
            .map(StoreInfo::from)
            .map_err(|(status, message)| format!("{status:?}: {message}"))
    }

    pub fn compact_now(&self) -> bool {
        self.0.store().compact_now()
    }

    pub fn store_info(&self) -> StoreInfo {
        self.0.store().stats().into()
    }

    /// Take and drop the published snapshot, as every served query does.
    pub fn touch_snapshot(&self) {
        drop(std::hint::black_box(self.0.snapshot()));
    }

    /// `execute_run` without a socket; `buf` receives the encoded reply.
    pub fn execute(
        &self,
        worker: &mut Worker,
        query: Query,
        buf: &mut Vec<u8>,
    ) -> Result<Reply, String> {
        buf.clear();
        let outcome = execute_run(&self.0, &mut worker.0, &run_request(query), None, buf);
        if outcome.panicked {
            return Err("execute_run panicked and was isolated".into());
        }
        match parse_run_reply(buf)? {
            (ReplyStatus::Ok, reply) => Ok(reply),
            (status, _) => Err(format!("execute_run replied {status:?}")),
        }
    }

    /// Start serving this service on an OS-chosen loopback port.
    pub fn serve(self, workers: usize) -> Result<ServerHandle, String> {
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", self.0, config).map_err(err)?;
        Ok(ServerHandle {
            addr: server.local_addr(),
            server,
        })
    }
}

pub struct ServerHandle {
    server: Server,
    addr: SocketAddr,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown; joins the server's threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyStatus {
    Ok,
    Busy,
    Timeout,
    Other,
}

impl From<Status> for ReplyStatus {
    fn from(status: Status) -> ReplyStatus {
        match status {
            Status::Ok => ReplyStatus::Ok,
            Status::Busy => ReplyStatus::Busy,
            Status::Timeout => ReplyStatus::Timeout,
            _ => ReplyStatus::Other,
        }
    }
}

/// Header of a successful RUN reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reply {
    pub snapshot_version: u64,
    pub elapsed_us: u64,
    pub iterations: u32,
    pub checksum: u64,
    pub num_values: u32,
}

fn run_request(query: Query) -> RunRequest {
    RunRequest::new(query.algo.wire())
        .seed(u64::from(query.seed))
        .iterations(PAGERANK_ITERATIONS)
}

/// Decode a RUN reply body as `protocol.rs` documents it:
/// `version | status | snapshot_version u64 | elapsed u64 | iterations u32 |
/// kind u8 | checksum u64 | count u32`.
fn parse_run_reply(body: &[u8]) -> Result<(ReplyStatus, Reply), String> {
    if body.len() < 2 || body[0] != protocol::PROTOCOL_VERSION {
        return Err("malformed reply: bad version or truncated".into());
    }
    let status = Status::from_u8(body[1]).ok_or("malformed reply: unknown status")?;
    if status != Status::Ok {
        return Ok((status.into(), Reply::default()));
    }
    let rest = &body[2..];
    if rest.len() < 33 {
        return Err("malformed reply: RUN ok header truncated".into());
    }
    let u64_at = |at: usize| u64::from_le_bytes(rest[at..at + 8].try_into().expect("8 bytes"));
    let u32_at = |at: usize| u32::from_le_bytes(rest[at..at + 4].try_into().expect("4 bytes"));
    Ok((
        ReplyStatus::Ok,
        Reply {
            snapshot_version: u64_at(0),
            elapsed_us: u64_at(8),
            iterations: u32_at(16),
            checksum: u64_at(21),
            num_values: u32_at(29),
        },
    ))
}

/// The product's blocking client, for every untraced wire operation.
pub struct Wire(Client);

impl Wire {
    pub fn connect(addr: SocketAddr) -> Result<Wire, String> {
        Client::connect(addr).map(Wire).map_err(err)
    }

    pub fn run(&mut self, query: Query) -> Result<(ReplyStatus, Reply), String> {
        let r = self.0.run(&run_request(query)).map_err(err)?;
        Ok((
            r.status.into(),
            Reply {
                snapshot_version: r.snapshot_version,
                elapsed_us: r.elapsed_micros,
                iterations: r.iterations,
                checksum: r.checksum,
                num_values: r.num_values,
            },
        ))
    }

    /// Returns the status and the snapshot version this batch published.
    pub fn update(&mut self, edits: &[Edit]) -> Result<(ReplyStatus, u64), String> {
        let wire: Vec<EdgeEdit> = edits.iter().map(Edit::wire).collect();
        let r = self.0.update(&wire).map_err(err)?;
        Ok((r.status.into(), r.snapshot_version))
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.0.ping().map_err(err)
    }

    pub fn stats_json(&mut self) -> Result<String, String> {
        self.0.stats_json().map_err(err)
    }
}

/// A client whose five stages are separate calls, so the traced pass can
/// stamp `encode, write, wait, read, decode` from outside. Same frames as
/// [`Wire`]: `RunRequest::encode` + `protocol::write_frame` out, one
/// length-prefixed frame back.
pub struct StagedWire {
    stream: TcpStream,
    request: Vec<u8>,
    reply: Vec<u8>,
    reply_len: usize,
}

impl StagedWire {
    pub fn connect(addr: SocketAddr) -> Result<StagedWire, String> {
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        Ok(StagedWire {
            stream,
            request: Vec::new(),
            reply: Vec::new(),
            reply_len: 0,
        })
    }

    pub fn encode(&mut self, query: Query) {
        self.request.clear();
        run_request(query).encode(&mut self.request);
    }

    pub fn write(&mut self) -> Result<(), String> {
        // One buffered write per frame, as the product client does.
        let mut writer = std::io::BufWriter::with_capacity(64, &self.stream);
        protocol::write_frame(&mut writer, &self.request).map_err(err)?;
        writer.flush().map_err(err)
    }

    /// Block until the reply's length prefix has arrived: server time plus
    /// both directions of the loopback.
    pub fn wait(&mut self) -> Result<(), String> {
        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header).map_err(err)?;
        self.reply_len = u32::from_le_bytes(header) as usize;
        if self.reply_len > protocol::MAX_FRAME_LEN {
            return Err(format!("reply frame of {} bytes", self.reply_len));
        }
        Ok(())
    }

    pub fn read(&mut self) -> Result<(), String> {
        self.reply.clear();
        self.reply.resize(self.reply_len, 0);
        self.stream.read_exact(&mut self.reply).map_err(err)
    }

    pub fn decode(&self) -> Result<(ReplyStatus, Reply), String> {
        parse_run_reply(&self.reply)
    }
}

// ---------------------------------------------------------------------------
// Layer probes: closures over one call each; `probes.rs` times them
// ---------------------------------------------------------------------------

/// One directly callable kernel plus the work one call does.
pub struct Kernel<'a> {
    /// Edges the kernel visits per call (see the metric's definition for
    /// which edges count).
    pub edges: u64,
    /// Bytes one call must move, computed from array sizes — not measured.
    pub bytes: u64,
    pub call: Box<dyn FnMut() + 'a>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frontier {
    /// Every vertex sends.
    Dense,
    /// Every 64th vertex sends.
    OneIn64,
}

impl Frontier {
    fn sends(self, v: u32) -> bool {
        self == Frontier::Dense || v % 64 == 0
    }
}

fn min_plus<E: Edge>() -> (
    impl Fn(&f32, &E, u32) -> f32 + Sync,
    impl Fn(&mut f32, f32) + Sync,
) {
    (
        |x: &f32, e: &E, _row: u32| *x + e.weight(),
        |acc: &mut f32, v: f32| {
            if v < *acc {
                *acc = v;
            }
        },
    )
}

fn vector_bytes(n: usize) -> u64 {
    // x values + its validity bitmap + y values + its bitmap.
    (2 * (n * 4 + n / 8)) as u64
}

/// `gspmv_csr_pull_into` over the out-edge pull mirror; `None` when the
/// topology was built without mirrors.
pub fn pull_kernel<'a, E: Edge>(
    engine: &'a Engine,
    graph: &'a Graph<E>,
    frontier: Frontier,
) -> Option<Kernel<'a>> {
    let mirror = graph.0.out_pull_mirror()?;
    let n = graph.num_vertices() as usize;
    let mut x: DenseVector<f32> = DenseVector::new(n);
    (0..n as u32)
        .filter(|&v| frontier.sends(v))
        .for_each(|v| x.set(v, 1.0));
    let mut y: SparseVector<f32> = SparseVector::new(n);
    let (multiply, add) = min_plus::<E>();
    Some(Kernel {
        edges: mirror.nnz() as u64,
        bytes: mirror.bytes() as u64 + vector_bytes(n),
        call: Box::new(move || {
            gspmv_csr_pull_into(mirror, &x, &multiply, &add, engine.0.executor(), &mut y);
            std::hint::black_box(y.nnz());
        }),
    })
}

fn frontier_vector<E>(graph: &Graph<E>, frontier: Frontier) -> (SparseVector<f32>, u64) {
    let n = graph.num_vertices() as usize;
    let mut x: SparseVector<f32> = SparseVector::new(n);
    let mut traversed = 0u64;
    for v in (0..n as u32).filter(|&v| frontier.sends(v)) {
        x.set(v, 1.0);
        traversed += u64::from(graph.0.out_degree(v));
    }
    (x, traversed)
}

/// `gspmv_into` over the out-edge DCSC matrix.
pub fn push_kernel<'a, E: Edge>(
    engine: &'a Engine,
    graph: &'a Graph<E>,
    frontier: Frontier,
) -> Kernel<'a> {
    let matrix = graph.0.out_matrix();
    let n = graph.num_vertices() as usize;
    let (x, traversed) = frontier_vector(graph, frontier);
    let mut y: SparseVector<f32> = SparseVector::new(n);
    let (multiply, add) = min_plus::<E>();
    Kernel {
        edges: traversed,
        bytes: matrix.bytes() as u64 + vector_bytes(n),
        call: Box::new(move || {
            gspmv_into(matrix, &x, &multiply, &add, engine.0.executor(), &mut y);
            std::hint::black_box(y.nnz());
        }),
    }
}

/// Pending edits compiled against a base topology, built the way
/// `GraphStore::apply` builds them (`DeltaLog` resolution, `PairIndex`,
/// `DeltaOverlay::build`).
pub struct BuiltOverlay<E>(DeltaOverlay<E>);

impl<E> BuiltOverlay<E> {
    pub fn pending(&self) -> usize {
        self.0.len()
    }
}

/// What `DeltaOverlay::build` needs, extracted once per graph.
pub struct OverlayInputs<E> {
    graph: Graph<E>,
    pair_index: PairIndex,
    resolved: Vec<(u32, u32, UpdateOp<E>)>,
}

impl<E: Edge> OverlayInputs<E> {
    /// Resolve `batches` (latest edit of a pair wins) against `graph`.
    pub fn new(graph: &Graph<E>, batches: &[Vec<Edit>]) -> Result<OverlayInputs<E>, String> {
        let mut log: DeltaLog<E> = DeltaLog::new();
        for batch in batches {
            let ops = batch.iter().map(Edit::op::<E>).collect();
            log.append(DeltaBatch::from_ops(graph.num_vertices(), ops).map_err(err)?);
        }
        Ok(OverlayInputs {
            graph: graph.clone(),
            pair_index: PairIndex::from_edges(graph.0.to_edge_list().edges()),
            resolved: log.resolve(),
        })
    }

    /// `DeltaOverlay::build`: the probe behind `delta.overlay.build_ms`.
    pub fn build(&self) -> BuiltOverlay<E> {
        let base = &self.graph.0;
        let out_ranges = base.out_partition_ranges();
        let in_ranges = base.in_partition_ranges();
        let facts = BaseFacts {
            num_vertices: base.num_vertices(),
            num_edges: base.num_edges(),
            out_ranges: &out_ranges,
            in_ranges: in_ranges.as_deref(),
            out_degrees: base.out_degrees(),
            in_degrees: base.in_degrees(),
        };
        BuiltOverlay(DeltaOverlay::build(
            &facts,
            &self.pair_index,
            &self.resolved,
        ))
    }
}

/// `gspmv_overlay_into` over `base + overlay`, every column set.
pub fn overlay_kernel<'a, E: Edge>(
    engine: &'a Engine,
    graph: &'a Graph<E>,
    overlay: &'a BuiltOverlay<E>,
) -> Kernel<'a> {
    let matrix = graph.0.out_matrix();
    let n = graph.num_vertices() as usize;
    let (x, traversed) = frontier_vector(graph, Frontier::Dense);
    let mut y: SparseVector<f32> = SparseVector::new(n);
    let (multiply, add) = min_plus::<E>();
    let out = overlay.0.out();
    Kernel {
        edges: traversed,
        bytes: matrix.bytes() as u64 + out.bytes() as u64 + vector_bytes(n),
        call: Box::new(move || {
            gspmv_overlay_into(
                matrix,
                out,
                &x,
                &multiply,
                &add,
                engine.0.executor(),
                &mut y,
            );
            std::hint::black_box(y.nnz());
        }),
    }
}

/// `DeltaBatch::from_ops` on one batch of edits.
pub fn batch_build_probe(num_vertices: u32, edits: &[Edit]) -> impl FnMut() + '_ {
    move || {
        let ops = edits.iter().map(Edit::op::<f32>).collect();
        drop(std::hint::black_box(DeltaBatch::from_ops(
            num_vertices,
            ops,
        )));
    }
}

/// `RunRequest::encode` into a reused buffer.
pub fn encode_probe(query: Query) -> impl FnMut() {
    let mut buf = Vec::with_capacity(64);
    move || {
        buf.clear();
        run_request(std::hint::black_box(query)).encode(&mut buf);
        std::hint::black_box(buf.len());
    }
}

/// `Request::decode` of the frame [`encode_probe`] produces.
pub fn decode_probe(query: Query) -> impl FnMut() {
    let mut frame = Vec::new();
    run_request(query).encode(&mut frame);
    move || {
        drop(std::hint::black_box(Request::decode(std::hint::black_box(
            &frame,
        ))));
    }
}

/// `checksum_f64` over `values`; returns the closure and the bytes hashed.
pub fn checksum_probe(values: Vec<f64>) -> (impl FnMut(), u64) {
    let bytes = (values.len() * 8) as u64;
    (
        move || {
            std::hint::black_box(checksum_f64(std::hint::black_box(&values)));
        },
        bytes,
    )
}

/// One uncontended `BoundedQueue::try_push` + `pop`.
pub fn queue_probe() -> impl FnMut() {
    let queue: BoundedQueue<u64> = BoundedQueue::new(64);
    move || {
        let pushed = queue.try_push(std::hint::black_box(7)).is_ok();
        std::hint::black_box((pushed, queue.pop()));
    }
}
