//! Algorithm dispatch over one resident session — the layer between the
//! wire protocol and the engine.
//!
//! A [`GraphService`] owns the process-wide [`Session`] (one persistent
//! executor pool) and the resident `Arc<Topology>`; it is `Sync` and shared
//! by every worker. Each worker owns a private [`WorkerStates`] — one
//! [`StatePool`] per algorithm, because the engine workspace cached inside a
//! state is typed by the program and sharing a pool across programs would
//! thrash it. After warm-up the pools stop growing and a request performs no
//! per-query allocation: the run writes into a recycled state and the
//! response is encoded into the connection's reused buffer.

use crate::protocol::{self, Fnv64, RunOkHeader, RunRequest, Status, UpdateRequest, ValueKind};
use graphmat_algorithms::bfs::bfs_into;
use graphmat_algorithms::connected_components::connected_components_into;
use graphmat_algorithms::degree::in_degrees_into;
use graphmat_algorithms::pagerank::{pagerank_into, PageRankConfig, PageRankVertex};
use graphmat_algorithms::sssp::sssp_into;
use graphmat_core::{
    GraphMatError, GraphSnapshot, GraphStore, Session, StatePool, StoreOptions, StoreStats,
    Topology, VertexState,
};
use graphmat_delta::DeltaBatch;
use std::sync::Arc;
use std::time::Instant;

use crate::protocol::Algorithm;

/// The resident graph plus the session that runs queries against it.
///
/// The graph lives in a [`GraphStore`]: queries are admitted against the
/// currently published immutable snapshot (base topology ⊕ delta overlay),
/// UPDATE batches publish new snapshots without blocking readers, and the
/// UPDATE that finds the overlay grown to the store threshold first compacts
/// it into a fresh base topology, from the folds the queries already made.
/// Version 0 serves the topology passed to [`GraphService::new`] verbatim.
pub struct GraphService {
    session: Session,
    topology: Arc<Topology<f32>>,
    store: Arc<GraphStore<f32>>,
}

impl GraphService {
    /// Wrap a session and a pre-built topology (default store options:
    /// compaction at [`graphmat_core::store::DEFAULT_COMPACTION_THRESHOLD`]
    /// pending edits).
    pub fn new(session: Session, topology: Arc<Topology<f32>>) -> GraphService {
        GraphService::with_store_options(session, topology, StoreOptions::default())
    }

    /// Wrap a session and a pre-built topology with explicit store tuning
    /// (compaction threshold, overload watermark).
    pub fn with_store_options(
        session: Session,
        topology: Arc<Topology<f32>>,
        options: StoreOptions,
    ) -> GraphService {
        let store = GraphStore::new(Arc::clone(&topology), options);
        GraphService {
            session,
            topology,
            store,
        }
    }

    /// The topology the service was started with — the version-0 snapshot
    /// base (share it to compute expected results out-of-band, e.g. in
    /// tests). After UPDATE batches, the *live* graph is
    /// [`GraphService::snapshot`].
    pub fn topology(&self) -> &Arc<Topology<f32>> {
        &self.topology
    }

    /// The streaming store holding the published snapshot.
    pub fn store(&self) -> &Arc<GraphStore<f32>> {
        &self.store
    }

    /// The currently published immutable snapshot.
    pub fn snapshot(&self) -> Arc<GraphSnapshot<f32>> {
        self.store.snapshot()
    }

    /// The session queries run through.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Apply one UPDATE batch: validates every edit against the vertex
    /// count, publishes a new snapshot on success, and returns its stats.
    /// In-flight queries keep the snapshot they were admitted against.
    pub fn apply_update(&self, request: &UpdateRequest) -> Result<StoreStats, (Status, String)> {
        let num_vertices = self.topology.num_vertices();
        let mut batch = DeltaBatch::new(num_vertices);
        for edit in &request.edits {
            let result = if edit.insert {
                batch.insert(edit.src, edit.dst, edit.weight)
            } else {
                batch.delete(edit.src, edit.dst)
            };
            if let Err(err) = result {
                return Err((Status::BadRequest, err.to_string()));
            }
        }
        match self.store.apply(batch) {
            // Report the snapshot *this* batch published, not the current
            // one — a concurrent writer may already have published a later
            // version.
            Ok(snapshot) => Ok(StoreStats {
                version: snapshot.version(),
                num_edges: snapshot.num_edges(),
                delta_edges: snapshot.delta_len(),
                ..self.store.stats()
            }),
            // Overload is graceful degradation, not a server fault: the
            // client gets a typed, retry-after-compaction status while
            // reads keep serving.
            Err(err @ GraphMatError::Overloaded { .. }) => {
                Err((Status::Overloaded, err.to_string()))
            }
            Err(err) => Err((Status::ServerError, err.to_string())),
        }
    }
}

/// One worker's pooled per-algorithm vertex states.
///
/// Deliberately one pool per algorithm (not one per value type): BFS and
/// connected components both use `u32` states, but their cached workspaces
/// are typed by the program, so sharing a pool would re-allocate the
/// workspace on every program switch.
pub struct WorkerStates {
    pagerank: StatePool<PageRankVertex>,
    bfs: StatePool<u32>,
    sssp: StatePool<f32>,
    components: StatePool<u32>,
    in_degrees: StatePool<u64>,
}

impl WorkerStates {
    /// Empty pools sized for the topology.
    pub fn for_topology(topology: &Topology<f32>) -> WorkerStates {
        WorkerStates {
            pagerank: StatePool::for_topology(topology),
            bfs: StatePool::for_topology(topology),
            sssp: StatePool::for_topology(topology),
            components: StatePool::for_topology(topology),
            in_degrees: StatePool::for_topology(topology),
        }
    }

    /// Total states allocated across all pools (constant after warm-up).
    pub fn created(&self) -> usize {
        self.pagerank.created()
            + self.bfs.created()
            + self.sssp.created()
            + self.components.created()
            + self.in_degrees.created()
    }

    /// Total acquisitions served by recycling.
    pub fn reused(&self) -> usize {
        self.pagerank.reused()
            + self.bfs.reused()
            + self.sssp.reused()
            + self.components.reused()
            + self.in_degrees.reused()
    }

    /// Total possibly-corrupt states retired after a panic instead of
    /// recycled.
    pub fn quarantined(&self) -> usize {
        self.pagerank.quarantined()
            + self.bfs.quarantined()
            + self.sssp.quarantined()
            + self.components.quarantined()
            + self.in_degrees.quarantined()
    }
}

/// Map an engine error to a wire status + message.
fn error_reply(buf: &mut Vec<u8>, err: &GraphMatError) -> Status {
    let status = match err {
        GraphMatError::DeadlineExceeded => Status::Timeout,
        GraphMatError::VertexOutOfRange { .. } => Status::BadRequest,
        GraphMatError::Overloaded { .. } => Status::Overloaded,
        _ => Status::ServerError,
    };
    protocol::encode_error(buf, status, &err.to_string());
    status
}

/// What one guarded RUN execution produced, for metrics accounting.
#[derive(Clone, Copy, Debug)]
pub struct ExecOutcome {
    /// Wire status of the reply encoded into the buffer.
    pub status: Status,
    /// The execution panicked: the reply is a typed `ServerError` and the
    /// vertex state it was using has been quarantined.
    pub panicked: bool,
}

/// Best-effort panic payload text for the error reply.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Acquire a state, run one algorithm execution inside a panic guard, and
/// either release the state (normal path, including typed engine errors) or
/// quarantine it (panic path). The connection always gets a complete typed
/// reply — a panicking run can never hang its client.
fn guarded<V: Clone + Default>(
    pool: &mut StatePool<V>,
    buf: &mut Vec<u8>,
    run: impl FnOnce(&mut VertexState<V>, &mut Vec<u8>) -> Status,
) -> ExecOutcome {
    let mut state = pool.acquire();
    // RECOVERY: a panic mid-run may leave `state` (frontier bitmaps, value
    // arrays, scratch) half-written, so the panic path quarantines it —
    // dropped, never released back to the pool — and the worker reports a
    // typed `ServerError` reply built from the panic payload. Nothing else
    // escapes the closure: `buf` is overwritten by `encode_error` before
    // sending, and the topology snapshot is immutable.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if graphmat_chaos::fire("server.worker.execute").is_some() {
            protocol::encode_error(
                buf,
                Status::ServerError,
                "chaos failpoint server.worker.execute",
            );
            return Status::ServerError;
        }
        run(&mut state, buf)
    }));
    match outcome {
        Ok(status) => {
            pool.release(state);
            ExecOutcome {
                status,
                panicked: false,
            }
        }
        // RECOVERY: the run unwound mid-superstep, so the vertex state (and
        // the engine workspace cached inside it) may be half-written —
        // quarantine it (drop, never recycle; the pool counts it) and
        // encode a typed ServerError so the connection gets a complete
        // reply instead of a hang. The worker lane itself keeps serving.
        Err(panic) => {
            pool.quarantine(state);
            buf.clear();
            protocol::encode_error(
                buf,
                Status::ServerError,
                &format!(
                    "run panicked and was isolated (state quarantined): {}",
                    panic_message(&*panic)
                ),
            );
            ExecOutcome {
                status: Status::ServerError,
                panicked: true,
            }
        }
    }
}

/// Encode a successful run: header with checksum, then (if requested) the
/// raw little-endian values. Two passes over the same iterator — one for
/// the checksum that precedes the values on the wire, one to copy them.
#[allow(clippy::too_many_arguments)]
fn ok_reply<const N: usize, I>(
    buf: &mut Vec<u8>,
    request: &RunRequest,
    snapshot_version: u64,
    elapsed: Instant,
    iterations: usize,
    value_kind: ValueKind,
    num_values: usize,
    bytes: I,
) -> Status
where
    I: Iterator<Item = [u8; N]> + Clone,
{
    let mut hash = Fnv64::new();
    for chunk in bytes.clone() {
        hash.write(&chunk);
    }
    protocol::encode_run_ok_header(
        buf,
        &RunOkHeader {
            snapshot_version,
            elapsed_micros: elapsed.elapsed().as_micros() as u64,
            iterations: iterations as u32,
            value_kind,
            checksum: hash.finish(),
            num_values: num_values as u32,
        },
    );
    if request.include_values {
        buf.reserve(num_values * N);
        for chunk in bytes {
            buf.extend_from_slice(&chunk);
        }
    }
    Status::Ok
}

/// Execute one RUN request with this worker's pooled states, encoding the
/// full response (success or typed error) into `buf`. Returns the status
/// plus panic-isolation accounting. Never panics on request content — bad
/// seeds and engine errors become typed error responses, and a panic
/// anywhere inside the execution is caught, quarantines the state, and
/// becomes a typed `ServerError` reply (see the internal `guarded` helper).
///
/// The request is **admitted against the snapshot published at this
/// moment**: the run keeps that snapshot for its whole execution even if
/// UPDATE batches or a compaction publish newer ones mid-run (snapshot
/// isolation). With an empty delta this is one `RwLock` read + `Arc` clone
/// on top of the plain topology path — the steady-state read path still
/// allocates nothing per query (`tests/zero_alloc.rs`).
pub fn execute_run(
    service: &GraphService,
    states: &mut WorkerStates,
    request: &RunRequest,
    deadline: Option<Instant>,
    buf: &mut Vec<u8>,
) -> ExecOutcome {
    let snapshot = service.snapshot();
    let version = snapshot.version();
    let view = snapshot.view();
    let num_vertices = view.num_vertices() as u64;
    if matches!(request.algorithm, Algorithm::Bfs | Algorithm::Sssp) && request.seed >= num_vertices
    {
        protocol::encode_error(
            buf,
            Status::BadRequest,
            &format!(
                "seed vertex {} out of range ({num_vertices} vertices)",
                request.seed
            ),
        );
        return ExecOutcome {
            status: Status::BadRequest,
            panicked: false,
        };
    }
    let start = Instant::now();
    match request.algorithm {
        Algorithm::PageRank => {
            let config = PageRankConfig {
                iterations: if request.iterations == 0 {
                    PageRankConfig::default().iterations
                } else {
                    request.iterations as usize
                },
                ..Default::default()
            };
            guarded(&mut states.pagerank, buf, |state, buf| match pagerank_into(
                &service.session,
                view,
                &config,
                deadline,
                state,
            ) {
                Ok(result) => ok_reply(
                    buf,
                    request,
                    version,
                    start,
                    result.stats.iterations,
                    ValueKind::F64,
                    state.num_vertices(),
                    state.properties().iter().map(|p| p.rank.to_le_bytes()),
                ),
                Err(err) => error_reply(buf, &err),
            })
        }
        Algorithm::Bfs => guarded(&mut states.bfs, buf, |state, buf| {
            match bfs_into(&service.session, view, request.seed as u32, deadline, state) {
                Ok(result) => ok_reply(
                    buf,
                    request,
                    version,
                    start,
                    result.stats.iterations,
                    ValueKind::U32,
                    state.num_vertices(),
                    state.properties().iter().map(|d| d.to_le_bytes()),
                ),
                Err(err) => error_reply(buf, &err),
            }
        }),
        Algorithm::Sssp => guarded(&mut states.sssp, buf, |state, buf| {
            match sssp_into(&service.session, view, request.seed as u32, deadline, state) {
                Ok(result) => ok_reply(
                    buf,
                    request,
                    version,
                    start,
                    result.stats.iterations,
                    ValueKind::F32,
                    state.num_vertices(),
                    state.properties().iter().map(|d| d.to_le_bytes()),
                ),
                Err(err) => error_reply(buf, &err),
            }
        }),
        Algorithm::ConnectedComponents => {
            guarded(
                &mut states.components,
                buf,
                |state, buf| match connected_components_into(
                    &service.session,
                    view,
                    deadline,
                    state,
                ) {
                    Ok(result) => ok_reply(
                        buf,
                        request,
                        version,
                        start,
                        result.stats.iterations,
                        ValueKind::U32,
                        state.num_vertices(),
                        state.properties().iter().map(|l| l.to_le_bytes()),
                    ),
                    Err(err) => error_reply(buf, &err),
                },
            )
        }
        Algorithm::InDegrees => {
            guarded(
                &mut states.in_degrees,
                buf,
                |state, buf| match in_degrees_into(&service.session, view, deadline, state) {
                    Ok(result) => ok_reply(
                        buf,
                        request,
                        version,
                        start,
                        result.stats.iterations,
                        ValueKind::U64,
                        state.num_vertices(),
                        state.properties().iter().map(|d| d.to_le_bytes()),
                    ),
                    Err(err) => error_reply(buf, &err),
                },
            )
        }
    }
}
