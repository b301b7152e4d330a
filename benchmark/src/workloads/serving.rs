//! `serve_mixed`, `serve_light`: the server over real loopback TCP, driven
//! by a closed loop from this process — each connection sends its next
//! operation only when the previous reply has arrived.
//!
//! Untraced passes use the product's `Client`. The traced pass stamps
//! `request > {encode, write, wait, read, decode}` around a client whose
//! stages are separate calls; the server side of `wait` is measured from
//! outside too, by calling `execute_run` on a twin service without a socket.

use super::{secs, timed, Config, Outcome, SetupTimes, SETUPS};
use crate::adapter::{
    self, Algo, Compaction, Edges, Edit, Engine, Graph, Pools, Query, Reply, ReplyStatus,
    ServerHandle, Service, StagedWire, Wire,
};
use crate::input::{edit_batch, pick_roots, Rng};
use crate::json::Json;
use crate::probes;
use crate::reference;
use crate::stats::{self, Stat};
use crate::table::W;
use crate::trace::{self, Tracer, NONE};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

struct Spec {
    scale: u32,
    connections: usize,
    /// Queries per cycle, by algorithm.
    mix: &'static [(Algo, usize)],
    /// One 16-edit UPDATE per cycle (10 % of operations with the mixed mix).
    updates: bool,
    /// Pending edits past which the store's background worker compacts. The
    /// store's default (4096) would be reached about once per run at this
    /// update rate — a coin flip between runs with and without a compaction;
    /// at 256 (16 update batches) every run sees close to ten.
    compaction_threshold: usize,
    warmup_s: f64,
    /// Replies replayed against a from-scratch rebuild (0: every reply is
    /// checked against precomputed answers instead).
    replay_samples: usize,
}

const EDITS_PER_UPDATE: usize = 16;
const ROOTS: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Run(Algo),
    Update,
}

/// One completed operation as its client saw it.
struct Record {
    /// Which connection sent it, in which pass of that connection over the
    /// mix.
    cycle: (usize, usize),
    op: Op,
    query: Query,
    start: Instant,
    end: Instant,
    status: ReplyStatus,
    reply: Reply,
}

impl Record {
    fn latency_s(&self) -> f64 {
        secs(self.end - self.start)
    }
}

#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    /// Every update batch this client sent, with the version it published.
    updates: Vec<(u64, Vec<Edit>)>,
    error: Option<String>,
}

/// What the load generator needs to know about the served graph.
struct Traffic<'a> {
    seed: u64,
    num_vertices: u32,
    base: &'a [(u32, u32, f32)],
    roots: &'a [u32],
    cycle: &'a [Op],
}

pub fn run(id: W, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = match id {
        W::ServeMixed => Spec {
            scale: if cfg.quick { 10 } else { 15 },
            connections: cores.min(2),
            mix: &[
                (Algo::Bfs, 4),
                (Algo::Sssp, 2),
                (Algo::PageRank, 1),
                (Algo::Components, 1),
                (Algo::InDegrees, 1),
            ],
            updates: true,
            compaction_threshold: if cfg.quick { 64 } else { 256 },
            warmup_s: if cfg.quick { 0.1 } else { 1.0 },
            replay_samples: if cfg.quick { 16 } else { 24 },
        },
        W::ServeLight => Spec {
            scale: if cfg.quick { 8 } else { 10 },
            connections: 1,
            mix: &[(Algo::InDegrees, 1), (Algo::Bfs, 1)],
            updates: false,
            compaction_threshold: 256,
            warmup_s: if cfg.quick { 0.1 } else { 0.5 },
            replay_samples: 0,
        },
        _ => unreachable!("not a serving workload"),
    };
    out.fact("rmat_scale", f64::from(spec.scale));
    out.fact("connections", spec.connections as f64);

    // ---- set up: generate, build, create the store, bind ----
    let engine = Engine::new(cfg.threads)?;
    let mut times = SetupTimes::new();
    let mut built: Option<(Edges<f32>, Graph<f32>, ServerHandle)> = None;
    for _ in 0..SETUPS {
        if let Some((_, _, server)) = built.take() {
            server.shutdown();
        }
        let (edges, gen) = timed(|| adapter::rmat_edges(spec.scale, cfg.seed));
        let (graph, build) = timed(|| engine.build(&edges));
        let graph = graph?;
        let (server, bind) = timed(|| {
            let compaction = Compaction::Background {
                threshold: spec.compaction_threshold,
            };
            Service::new(cfg.threads, &graph, compaction)?.serve(cfg.threads)
        });
        times.push(gen, build, bind);
        built = Some((edges, graph, server?));
    }
    let (edges, graph, server) = built.ok_or("no set-up ran")?;
    let result = serve(
        id,
        cfg,
        out,
        &spec,
        &engine,
        &edges,
        &graph,
        server.addr(),
        &times,
    );
    server.shutdown();
    result
}

#[allow(clippy::too_many_arguments)]
fn serve(
    id: W,
    cfg: &Config,
    out: &mut Outcome,
    spec: &Spec,
    engine: &Engine,
    edges: &Edges<f32>,
    graph: &Graph<f32>,
    addr: SocketAddr,
    times: &SetupTimes,
) -> Result<(), String> {
    times.report(
        out,
        graph.num_edges(),
        graph.matrix_bytes(),
        graph.pull_bytes(),
    );
    out.fact("vertices", f64::from(graph.num_vertices()));
    out.fact("edges", graph.num_edges() as f64);

    let roots = pick_roots(&mut Rng::new(cfg.seed, 1), graph.out_degrees(), ROOTS);
    let mut cycle: Vec<Op> = spec
        .mix
        .iter()
        .flat_map(|&(algo, weight)| std::iter::repeat(Op::Run(algo)).take(weight))
        .collect();
    if spec.updates {
        cycle.push(Op::Update);
    }
    let traffic = Traffic {
        seed: cfg.seed,
        num_vertices: graph.num_vertices(),
        base: edges.tuples(),
        roots: &roots,
        cycle: &cycle,
    };

    // Answers every reply can be checked against while the graph is still
    // at version 0 (always, when the workload sends no updates).
    let mut expected: HashMap<(Algo, u32), u64> = HashMap::new();
    if spec.replay_samples == 0 {
        for &(algo, _) in spec.mix {
            // The whole-graph algorithms ignore the seed; clients send 0.
            let seeds: &[u32] = match algo {
                Algo::Bfs | Algo::Sssp => &roots,
                _ => &[0],
            };
            for &seed in seeds {
                let query = Query { algo, seed };
                let values = match algo {
                    Algo::InDegrees => adapter::Values::U64(reference::in_degrees(
                        edges.num_vertices(),
                        edges.tuples(),
                    )),
                    _ => adapter::reference(edges, query)
                        .ok_or("serve_light mixes an algorithm without a reference")?,
                };
                expected.insert((algo, seed), reference::checksum(&values));
            }
        }
    }

    let mut updates: Vec<(u64, Vec<Edit>)> = Vec::new();
    if !cfg.trace {
        let load = drive(addr, spec, &traffic, cfg.seconds, None)?;
        let summary = summarize(out, &load, &expected);
        report_end_to_end(out, &summary);
        updates.extend(load.updates);
        verify_replay(out, spec, engine, edges, &updates, &summary.samples)?;
        return Ok(());
    }

    // ---- traced run: probes on the idle server first, then the passes ----
    let (untraced_s, traced_s, probe_s) = cfg.split();
    idle_probes(cfg, out, spec, engine, graph, addr, &roots)?;

    let base = drive(addr, spec, &traffic, untraced_s, None)?;
    let base_summary = summarize(out, &base, &expected);
    updates.extend(base.updates);
    let origin = Instant::now();
    let traced = drive(addr, spec, &traffic, traced_s, Some(origin))?;
    let traced_summary = summarize(out, &traced, &expected);
    updates.extend(traced.updates);

    report_end_to_end(out, &base_summary);
    report_client_layers(out, id, &base_summary);
    let (base_p50, traced_p50) = (
        stats::median(&base_summary.cycle_latency_s),
        stats::median(&traced_summary.cycle_latency_s),
    );
    out.put_exact(
        "trace.overhead_pct",
        100.0 * (traced_p50 - base_p50) / base_p50,
    );
    out.put_exact(
        "trace.unattributed_pct",
        trace::unattributed_pct(traced.tracer.spans()),
    );
    out.take_spans(traced.tracer);

    report_server_stats(out, id, addr)?;
    let mut samples = base_summary.samples;
    samples.extend(traced_summary.samples);
    verify_replay(out, spec, engine, edges, &updates, &samples)?;

    // ---- kernel probes on the base graph, with the edits the run sent ----
    updates.sort_by_key(|(version, _)| *version);
    let mut batches: Vec<Vec<Edit>> = updates.into_iter().map(|(_, b)| b).take(256).collect();
    if batches.is_empty() {
        let mut rng = Rng::new(cfg.seed, 2);
        let len = if cfg.quick { 64 } else { 1024 };
        batches = (0..4)
            .map(|_| edit_batch(&mut rng, edges.num_vertices(), edges.tuples(), len))
            .collect();
    }
    probes::graph_probes(out, engine, graph, &batches, probe_s)?;
    probes::batch_probe(
        out,
        graph.num_vertices(),
        &batches[0][..EDITS_PER_UPDATE.min(batches[0].len())],
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

struct Load {
    records: Vec<Record>,
    updates: Vec<(u64, Vec<Edit>)>,
    errors: Vec<String>,
    window: (Instant, Instant),
    runs_per_cycle: usize,
    tracer: Tracer,
}

/// Warm up, then run the closed loop for `seconds`. With `trace_origin`,
/// RUN operations go through the staged client and leave spans.
fn drive(
    addr: SocketAddr,
    spec: &Spec,
    traffic: &Traffic<'_>,
    seconds: f64,
    trace_origin: Option<Instant>,
) -> Result<Load, String> {
    let stop = AtomicBool::new(false);
    let (logs, window) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.connections)
            .map(|conn| {
                let stop = &stop;
                scope.spawn(move || client(addr, conn, traffic, stop, trace_origin))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(spec.warmup_s));
        let start = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        let end = Instant::now();
        stop.store(true, Ordering::SeqCst);
        let logs: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (logs, (start, end))
    });

    let mut load = Load {
        records: Vec::new(),
        updates: Vec::new(),
        errors: Vec::new(),
        window,
        runs_per_cycle: traffic
            .cycle
            .iter()
            .filter(|op| matches!(op, Op::Run(_)))
            .count(),
        tracer: Tracer::new(trace_origin.is_some(), trace_origin.unwrap_or(window.0)),
    };
    for joined in logs {
        let (log, tracer) = joined.map_err(|_| "a client thread panicked")?;
        load.records.extend(log.records);
        load.updates.extend(log.updates);
        load.errors.extend(log.error);
        load.tracer.absorb(tracer);
    }
    Ok(load)
}

fn client(
    addr: SocketAddr,
    conn: usize,
    traffic: &Traffic<'_>,
    stop: &AtomicBool,
    trace_origin: Option<Instant>,
) -> (ClientLog, Tracer) {
    let mut log = ClientLog::default();
    let mut tracer = match trace_origin {
        Some(origin) => Tracer::new(true, origin),
        None => Tracer::disabled(),
    };
    if let Err(message) = client_loop(addr, conn, traffic, stop, &mut log, &mut tracer) {
        log.error = Some(format!("connection {conn}: {message}"));
    }
    (log, tracer)
}

fn client_loop(
    addr: SocketAddr,
    conn: usize,
    traffic: &Traffic<'_>,
    stop: &AtomicBool,
    log: &mut ClientLog,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut rng = Rng::new(traffic.seed, 100 + conn as u64);
    let mut wire = Wire::connect(addr)?;
    let mut staged = if tracer.enabled() {
        Some(StagedWire::connect(addr)?)
    } else {
        None
    };
    let mut cycle = traffic.cycle.to_vec();
    let mut next_root = conn;
    let mut request_id = (conn as u32) << 24;
    for pass in 0.. {
        rng.shuffle(&mut cycle);
        for &op in &cycle {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match op {
                Op::Run(algo) => {
                    let seed = match algo {
                        Algo::Bfs | Algo::Sssp => {
                            next_root += 1;
                            traffic.roots[next_root % traffic.roots.len()]
                        }
                        _ => 0,
                    };
                    let query = Query { algo, seed };
                    request_id += 1;
                    let start = Instant::now();
                    let (status, reply) = match staged.as_mut() {
                        None => wire.run(query)?,
                        Some(staged) => staged_run(staged, tracer, query, request_id)?,
                    };
                    log.records.push(Record {
                        cycle: (conn, pass),
                        op,
                        query,
                        start,
                        end: Instant::now(),
                        status,
                        reply,
                    });
                }
                Op::Update => {
                    let edits = edit_batch(
                        &mut rng,
                        traffic.num_vertices,
                        traffic.base,
                        EDITS_PER_UPDATE,
                    );
                    let start = Instant::now();
                    let (status, version) = wire.update(&edits)?;
                    log.records.push(Record {
                        cycle: (conn, pass),
                        op,
                        query: Query {
                            algo: Algo::InDegrees,
                            seed: 0,
                        },
                        start,
                        end: Instant::now(),
                        status,
                        reply: Reply {
                            snapshot_version: version,
                            ..Reply::default()
                        },
                    });
                    if status == ReplyStatus::Ok {
                        log.updates.push((version, edits));
                    }
                }
            }
        }
    }
    Ok(())
}

fn staged_run(
    wire: &mut StagedWire,
    tracer: &mut Tracer,
    query: Query,
    id: u32,
) -> Result<(ReplyStatus, Reply), String> {
    let request = tracer.begin("request", NONE, id);
    let span = tracer.begin("encode", request, id);
    wire.encode(query);
    tracer.end(span);
    let span = tracer.begin("write", request, id);
    wire.write()?;
    tracer.end(span);
    let span = tracer.begin("wait", request, id);
    wire.wait()?;
    tracer.end(span);
    let span = tracer.begin("read", request, id);
    wire.read()?;
    tracer.end(span);
    let span = tracer.begin("decode", request, id);
    let reply = wire.decode()?;
    tracer.end(span);
    tracer.end(request);
    Ok(reply)
}

// ---------------------------------------------------------------------------
// What a pass measured
// ---------------------------------------------------------------------------

struct Summary {
    attempted: usize,
    ok: usize,
    busy: usize,
    timeout: usize,
    failed: usize,
    run_latency_s: Vec<f64>,
    /// Mean RUN latency of every pass over the mix that lies wholly inside
    /// the window. Every pass has the same composition, so their median does
    /// not sit in the gap between a cheap and a dear algorithm the way the
    /// median over single requests would.
    cycle_latency_s: Vec<f64>,
    /// OK replies per second in each half-second slice of the window; their
    /// median is the throughput a noisy second cannot move.
    slice_qps: Vec<f64>,
    by_algo: Vec<(Algo, Vec<f64>)>,
    update_latency_s: Vec<f64>,
    /// OK RUN replies of the window, for the replay check.
    samples: Vec<(Query, Reply)>,
}

/// Count and check the operations that started and ended inside the window.
fn summarize(out: &mut Outcome, load: &Load, expected: &HashMap<(Algo, u32), u64>) -> Summary {
    let (start, end) = load.window;
    let mut s = Summary {
        attempted: 0,
        ok: 0,
        busy: 0,
        timeout: 0,
        failed: load.errors.len(),
        run_latency_s: Vec::new(),
        cycle_latency_s: Vec::new(),
        slice_qps: Vec::new(),
        by_algo: Algo::ALL.iter().map(|&a| (a, Vec::new())).collect(),
        update_latency_s: Vec::new(),
        samples: Vec::new(),
    };
    for message in &load.errors {
        out.fail(1, message.clone());
    }
    let window_s = secs(end - start);
    let slice_s = (window_s / 20.0).clamp(0.01, 0.5);
    let mut slices = vec![0usize; (window_s / slice_s) as usize];
    let mut cycles: HashMap<(usize, usize), (usize, f64)> = HashMap::new();
    for r in load
        .records
        .iter()
        .filter(|r| r.start >= start && r.end <= end)
    {
        s.attempted += 1;
        match r.status {
            ReplyStatus::Ok => s.ok += 1,
            ReplyStatus::Busy => s.busy += 1,
            ReplyStatus::Timeout => s.timeout += 1,
            ReplyStatus::Other => s.failed += 1,
        }
        if r.status != ReplyStatus::Ok {
            let what = match r.op {
                Op::Update => "UPDATE",
                Op::Run(algo) => algo.name(),
            };
            out.fail(1, format!("a {what} request was answered {:?}", r.status));
            continue;
        }
        if let Some(slot) = slices.get_mut((secs(r.end - start) / slice_s) as usize) {
            *slot += 1;
        }
        let Op::Run(algo) = r.op else {
            s.update_latency_s.push(r.latency_s());
            continue;
        };
        s.run_latency_s.push(r.latency_s());
        if let Some((_, samples)) = s.by_algo.iter_mut().find(|(a, _)| *a == algo) {
            samples.push(r.latency_s());
        }
        let cycle = cycles.entry(r.cycle).or_insert((0, 0.0));
        cycle.0 += 1;
        cycle.1 += r.latency_s();
        s.samples.push((r.query, r.reply));
        if let Some(&want) = expected.get(&(algo, r.query.seed)) {
            if r.reply.checksum != want {
                s.failed += 1;
                out.fail(
                    1,
                    format!(
                        "{} from {} answered checksum {:x}, the reference gives {want:x}",
                        algo.name(),
                        r.query.seed,
                        r.reply.checksum
                    ),
                );
            }
        }
    }
    out.attempted += (s.attempted + load.errors.len()) as u64;
    s.slice_qps = slices.iter().map(|&n| n as f64 / slice_s).collect();
    s.cycle_latency_s = cycles
        .into_values()
        .filter(|(runs, _)| *runs == load.runs_per_cycle)
        .map(|(runs, sum)| sum / runs as f64)
        .collect();
    s
}

fn report_end_to_end(out: &mut Outcome, s: &Summary) {
    out.put("query_ms", Stat::median(&s.cycle_latency_s).scaled(1e3));
    out.put("query_p95_ms", Stat::at(&s.run_latency_s, 0.95).scaled(1e3));
    out.put("qps", Stat::median(&s.slice_qps));
    out.fact("operations", s.attempted as f64);
}

fn report_client_layers(out: &mut Outcome, id: W, s: &Summary) {
    out.put(
        "client.latency_p99_ms",
        Stat::at(&s.run_latency_s, 0.99).scaled(1e3),
    );
    out.put(
        "client.latency_max_ms",
        Stat::at(&s.run_latency_s, 1.0).scaled(1e3),
    );
    for (algo, samples) in &s.by_algo {
        if !samples.is_empty() {
            out.put(
                probes::per_algorithm("client.latency_p50_ms", "", *algo),
                Stat::median(samples).scaled(1e3),
            );
        }
    }
    if id == W::ServeMixed {
        out.put("update_ms", Stat::median(&s.update_latency_s).scaled(1e3));
        out.put(
            "client.update_p95_ms",
            Stat::at(&s.update_latency_s, 0.95).scaled(1e3),
        );
    }
    out.put_exact("client.requests", s.attempted as f64);
    out.put_exact("client.busy", s.busy as f64);
    out.put_exact("client.timeout", s.timeout as f64);
    out.put_exact("client.failed", s.failed as f64);
}

/// The server's own view, from `STATS` after the passes.
fn report_server_stats(out: &mut Outcome, id: W, addr: SocketAddr) -> Result<(), String> {
    let text = Wire::connect(addr)?.stats_json()?;
    let stats = Json::parse(&text).map_err(|e| format!("STATS is not JSON: {e}"))?;
    let number = |path: &str| {
        stats
            .path(path)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("STATS has no number at {path}"))
    };
    for (metric, path) in [
        ("server.stats.requests", "totals.requests"),
        ("server.stats.ok", "totals.ok"),
        ("server.stats.busy", "totals.busy"),
        ("server.stats.timeout", "totals.timeout"),
        ("server.stats.failed", "totals.failed"),
        ("server.stats.worker_panics", "totals.worker_panics"),
        (
            "server.stats.dropped_connections",
            "totals.dropped_connections",
        ),
        ("server.pool.created", "pool.created"),
        ("server.pool.reused", "pool.reused"),
    ] {
        out.put_exact(metric, number(path)?);
    }
    for algo in Algo::ALL {
        let requests = number(&format!("algorithms.{}.requests", algo.name()))?;
        if requests > 0.0 {
            out.put_exact(
                probes::per_algorithm("server.stats.exec_mean_us", "", algo),
                number(&format!("algorithms.{}.mean_us", algo.name()))?,
            );
        }
    }
    if id == W::ServeMixed {
        out.put_exact("core.store.delta_edges", number("store.delta_edges")?);
        out.put_exact("core.store.compactions", number("store.compactions")?);
        out.put_exact(
            "core.store.compaction_failures",
            number("store.compaction_failures")?,
        );
    }
    let unhealthy = number("totals.worker_panics")?
        + number("totals.failed")?
        + number("store.compaction_failures")?;
    if unhealthy > 0.0 {
        out.fail(
            unhealthy as u64,
            format!("the server counted {unhealthy} panics, failed requests or failed compactions"),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Probes on the idle server (traced runs)
// ---------------------------------------------------------------------------

/// PING, the unloaded client latency per algorithm, `execute_run` for the
/// same requests without a socket, and the pooled drivers under that: the
/// decomposition of one request from outside, before any update changes the
/// served graph.
fn idle_probes(
    cfg: &Config,
    out: &mut Outcome,
    spec: &Spec,
    engine: &Engine,
    graph: &Graph<f32>,
    addr: SocketAddr,
    roots: &[u32],
) -> Result<(), String> {
    let runs = if cfg.quick {
        3
    } else if graph.num_vertices() > 4096 {
        8
    } else {
        50
    };
    let mut wire = Wire::connect(addr)?;
    let mut pings = Vec::new();
    for _ in 0..(runs * 4).max(50) {
        let (pong, took) = timed(|| wire.ping());
        pong?;
        pings.push(secs(took));
    }
    out.put("server.ping_us", Stat::median(&pings).scaled(1e6));

    let queries: Vec<Query> = spec
        .mix
        .iter()
        .map(|&(algo, _)| Query {
            algo,
            seed: roots[0],
        })
        .collect();
    let twin = Service::new(cfg.threads, graph, Compaction::Manual)?;
    let mut worker = twin.worker();
    let mut buf = Vec::new();
    let mut pools = Pools::new(graph);
    let floors = probes::algorithm_probes(engine, graph, &mut pools, &queries, runs)?;

    let (mut overhead_s, mut self_s, mut weight_sum) = (0.0, 0.0, 0.0);
    for (&(algo, weight), &query) in spec.mix.iter().zip(&queries) {
        let (mut unloaded, mut execute) = (Vec::new(), Vec::new());
        for round in 0..=runs {
            let (reply, wire_took) = timed(|| wire.run(query));
            let (status, over_wire) = reply?;
            let (in_process, execute_took) = timed(|| twin.execute(&mut worker, query, &mut buf));
            let in_process = in_process?;
            out.attempted += 2;
            if status != ReplyStatus::Ok || over_wire.checksum != in_process.checksum {
                out.fail(
                    1,
                    format!(
                        "{}: the wire and execute_run disagree on an idle server",
                        algo.name()
                    ),
                );
            }
            if round > 0 {
                unloaded.push(secs(wire_took));
                execute.push(secs(execute_took));
            }
        }
        let execute_s = stats::median(&execute);
        let floor = floors
            .per_algo
            .iter()
            .find(|(a, _)| *a == algo)
            .map(|(_, stat)| *stat)
            .ok_or("an algorithm of the mix has no in-process floor")?;
        let floor_s = floor.value;
        out.put(
            probes::per_algorithm("server.service.execute_us", "", algo),
            Stat::median(&execute).scaled(1e6),
        );
        out.put(
            probes::per_algorithm("algorithms", "query_ms", algo),
            floor.scaled(1e3),
        );
        overhead_s += weight as f64 * (stats::median(&unloaded) - execute_s);
        self_s += weight as f64 * (execute_s - floor_s);
        weight_sum += weight as f64;
    }
    out.put_exact(
        "server.transport.overhead_ms",
        overhead_s / weight_sum * 1e3,
    );
    out.put_exact("server.service.self_us", self_s / weight_sum * 1e6);
    out.put(
        "core.pool.acquire_us",
        Stat::median(&floors.acquire_s).scaled(1e6),
    );
    out.put_exact("core.pool.created", pools.created() as f64);
    out.put_exact("core.pool.reused", pools.reused() as f64);

    probes::snapshot_probe(out, &twin);
    probes::protocol_probes(out, queries[0], graph.num_vertices() as usize);
    Ok(())
}

// ---------------------------------------------------------------------------
// Replay check
// ---------------------------------------------------------------------------

/// Replay sampled replies at their `snapshot_version`: order the update
/// batches by the version each published, rebuild the graph of that version
/// from the base edge tuples, run the query through the pooled driver on the
/// rebuilt topology and compare checksums.
fn verify_replay(
    out: &mut Outcome,
    spec: &Spec,
    engine: &Engine,
    edges: &Edges<f32>,
    updates: &[(u64, Vec<Edit>)],
    replies: &[(Query, Reply)],
) -> Result<(), String> {
    if spec.replay_samples == 0 || replies.is_empty() {
        return Ok(());
    }
    let mut history: Vec<&(u64, Vec<Edit>)> = updates.iter().collect();
    history.sort_by_key(|(version, _)| *version);
    // Every batch published exactly one version, 1, 2, 3, ...: anything
    // else means an update was lost or applied twice.
    if let Some((i, (version, _))) = history
        .iter()
        .enumerate()
        .find(|(i, (v, _))| *v != *i as u64 + 1)
    {
        out.fail(
            1,
            format!(
                "update history is not contiguous: batch #{} published version {version}",
                i + 1
            ),
        );
        return Ok(());
    }

    let step = (replies.len() / spec.replay_samples).max(1);
    let mut samples: Vec<&(Query, Reply)> = replies
        .iter()
        .step_by(step)
        .take(spec.replay_samples)
        .collect();
    samples.sort_by_key(|(_, reply)| reply.snapshot_version);
    out.fact("replayed_replies", samples.len() as f64);

    let mut at_version: Option<(u64, Graph<f32>, Pools)> = None;
    for (query, reply) in samples {
        let version = reply.snapshot_version;
        if version as usize > history.len() {
            out.fail(
                1,
                format!(
                    "a reply names version {version}, only {} updates were sent",
                    history.len()
                ),
            );
            continue;
        }
        if at_version.as_ref().map(|(v, _, _)| *v) != Some(version) {
            let mut tuples = edges.tuples().to_vec();
            let batches: Vec<&[Edit]> = history[..version as usize]
                .iter()
                .map(|(_, b)| b.as_slice())
                .collect();
            reference::apply_edits(&mut tuples, &batches);
            let graph = engine.build(&Edges::from_tuples(edges.num_vertices(), tuples))?;
            let pools = Pools::new(&graph);
            at_version = Some((version, graph, pools));
        }
        let Some((_, graph, pools)) = at_version.as_mut() else {
            continue;
        };
        let mut state = pools.acquire(query.algo);
        adapter::run_query(engine, graph, *query, &mut state)?;
        let want = reference::checksum_state(&state);
        pools.release(state);
        out.attempted += 1;
        if want != reply.checksum {
            out.fail(1, format!("{} from {} at version {version}: the server answered {:x}, a rebuild gives {want:x}", query.algo.name(), query.seed, reply.checksum));
        }
    }
    Ok(())
}
