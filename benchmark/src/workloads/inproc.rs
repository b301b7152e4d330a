//! `pr_dense`, `bfs_frontier`, `sssp_road`: one algorithm, one resident
//! graph, queries through the pooled `*_into` driver from this process.
//!
//! A repetition runs every fixed root once:
//! `rep > query > {pool.acquire, driver, verify}`. Traced runs interleave the
//! `native` baseline (`rep > native`) so that drift hits both sides; the
//! gated, untraced run spends its whole time on the engine.

use super::{secs, timed, Config, Outcome, SetupTimes, SETUPS};
use crate::adapter::{self, Algo, Edge, Edges, Engine, Graph, Pools, Query, RunInfo, Values};
use crate::input::{pick_grid_sources, pick_roots, Rng};
use crate::probes;
use crate::reference;
use crate::stats::{self, Stat};
use crate::table::W;
use crate::trace::{self, Tracer, NONE};
use std::time::{Duration, Instant};

const BFS_ROOTS: usize = 16;

struct Shape {
    algo: Algo,
    /// The first `native_roots` roots also run on the baseline,
    /// `native_per_rep` of them per repetition, in rotation: `native`
    /// rebuilds its CSR on every call, which for BFS costs 25x the search.
    native_roots: usize,
    native_per_rep: usize,
}

pub fn run(id: W, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let engine = Engine::new(cfg.threads)?;
    match id {
        W::PrDense => {
            let scale = if cfg.quick { 10 } else { 17 };
            out.fact("rmat_scale", f64::from(scale));
            let shape = Shape {
                algo: Algo::PageRank,
                native_roots: 1,
                native_per_rep: 1,
            };
            let generate = || (adapter::rmat_edges(scale, cfg.seed), None);
            drive(cfg, out, &engine, &shape, generate, |_, _| vec![0])
        }
        W::BfsFrontier => {
            let scale = if cfg.quick { 10 } else { 17 };
            out.fact("rmat_scale", f64::from(scale));
            let shape = Shape {
                algo: Algo::Bfs,
                native_roots: 4,
                native_per_rep: 2,
            };
            let generate = || {
                let directed = adapter::rmat_edges(scale, cfg.seed);
                (
                    directed.symmetrized_unweighted(),
                    Some(directed.unweighted()),
                )
            };
            drive(cfg, out, &engine, &shape, generate, |rng, graph| {
                pick_roots(rng, graph.out_degrees(), BFS_ROOTS)
            })
        }
        W::SsspRoad => {
            let side = if cfg.quick { 40 } else { 400 };
            out.fact("grid_side", f64::from(side));
            let shape = Shape {
                algo: Algo::Sssp,
                native_roots: 4,
                native_per_rep: 4,
            };
            let generate = || (adapter::grid_edges(side, cfg.seed), None);
            drive(cfg, out, &engine, &shape, generate, |rng, graph| {
                pick_grid_sources(rng, graph.out_degrees(), side)
            })
        }
        _ => unreachable!("not an in-process workload"),
    }
}

/// What one timed pass collected.
#[derive(Default)]
struct Pass {
    reps: usize,
    /// Driver span of every query, seconds, with the index of its root.
    driver: Vec<(usize, f64)>,
    /// Per repetition: mean driver span over its queries.
    rep_query_s: Vec<f64>,
    /// Per repetition: queries / product time (acquire + driver + release).
    rep_qps: Vec<f64>,
    acquire_s: Vec<f64>,
    /// The latest `RunInfo` per root (counts repeat exactly for a seed).
    infos: Vec<RunInfo>,
    /// Per query: phase times and what the driver span leaves over.
    send_s: Vec<f64>,
    spmv_s: Vec<f64>,
    apply_s: Vec<f64>,
    runner_self_s: Vec<f64>,
    spmv_share: Vec<f64>,
    /// Baseline runs: root index, `elapsed`, edge operations.
    native: Vec<(usize, f64, u64)>,
}

impl Pass {
    fn queries(&self) -> usize {
        self.driver.len()
    }

    fn query_ms(&self) -> Stat {
        Stat::median(&self.rep_query_s).scaled(1e3)
    }
}

/// `generate` returns the edges the topology is built from (and the
/// references run on) and, when it differs, what `native` takes: BFS
/// symmetrizes by itself.
fn drive<E: Edge>(
    cfg: &Config,
    out: &mut Outcome,
    engine: &Engine,
    shape: &Shape,
    generate: impl Fn() -> (Edges<E>, Option<Edges<E>>),
    roots: impl Fn(&mut Rng, &Graph<E>) -> Vec<u32>,
) -> Result<(), String> {
    // ---- set up, several times; keep the last ----
    let mut times = SetupTimes::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let ((edges, native_edges), gen) = timed(&generate);
        let (graph, build) = timed(|| engine.build(&edges));
        times.push(gen, build, Duration::ZERO);
        built = Some((edges, native_edges, graph?));
    }
    let (edges, native_edges, graph) = built.ok_or("no set-up ran")?;
    times.report(
        out,
        graph.num_edges(),
        graph.matrix_bytes(),
        graph.pull_bytes(),
    );
    out.fact("vertices", f64::from(graph.num_vertices()));
    out.fact("edges", graph.num_edges() as f64);

    let roots = roots(&mut Rng::new(cfg.seed, 1), &graph);
    let queries: Vec<Query> = roots
        .iter()
        .map(|&seed| Query {
            algo: shape.algo,
            seed,
        })
        .collect();
    let native_input = native_edges.as_ref().unwrap_or(&edges);

    // ---- expected answers, outside any timed span ----
    let mut pools = Pools::new(&graph);
    let expected = expected_checksums(
        cfg,
        out,
        engine,
        &edges,
        native_input,
        &graph,
        &queries,
        &mut pools,
    )?;

    // ---- measure ----
    let origin = Instant::now();
    let world = World {
        engine,
        graph: &graph,
        native_input,
        queries: &queries,
        expected: &expected,
        shape,
    };
    if !cfg.trace {
        let mut tracer = Tracer::disabled();
        let pass = world.pass(cfg, out, &mut pools, &mut tracer, cfg.seconds, false)?;
        report_end_to_end(out, &pass);
        return Ok(());
    }

    let (untraced_s, traced_s, probe_s) = cfg.split();
    let mut off = Tracer::disabled();
    let base = world.pass(cfg, out, &mut pools, &mut off, untraced_s, true)?;
    let mut on = Tracer::new(true, origin);
    let traced = world.pass(cfg, out, &mut pools, &mut on, traced_s, true)?;
    report_end_to_end(out, &base);
    report_layers(out, shape, &base, &pools);
    let overhead =
        100.0 * (traced.query_ms().value - base.query_ms().value) / base.query_ms().value;
    out.put_exact("trace.overhead_pct", overhead);
    out.put_exact(
        "trace.unattributed_pct",
        trace::unattributed_pct(on.spans()),
    );
    out.take_spans(on);

    let batches = probe_batches(cfg, &edges);
    let stream_gbps = probes::graph_probes(out, engine, &graph, &batches, probe_s)?;
    // The cost model's bytes at the machine's streaming rate, over the
    // SpMV time the run reported: 1 means the model predicts the run.
    let model_bytes = mean_count(&base.infos, |i| i.model_bytes);
    let edges = mean_count(&base.infos, |i| i.edges);
    let model_s = model_bytes / (stream_gbps * 1e9);
    out.put_exact("perf.model.bytes_per_edge", model_bytes / edges.max(1.0));
    out.put_exact(
        "perf.model.pred_ratio",
        model_s / stats::median(&base.spmv_s).max(1e-12),
    );
    Ok(())
}

/// Seeded edits for the overlay kernel probe: 4 batches of 1024 against the
/// workload's own edges (64 in `--quick`).
fn probe_batches<E: Edge>(cfg: &Config, edges: &Edges<E>) -> Vec<Vec<adapter::Edit>> {
    let base = edges.weighted_tuples();
    let mut rng = Rng::new(cfg.seed, 2);
    let len = if cfg.quick { 64 } else { 1024 };
    (0..4)
        .map(|_| crate::input::edit_batch(&mut rng, edges.num_vertices(), &base, len))
        .collect()
}

/// Reference answers for every root, and the checksum each query must
/// reproduce on every repetition.
#[allow(clippy::too_many_arguments)]
fn expected_checksums<E: Edge>(
    cfg: &Config,
    out: &mut Outcome,
    engine: &Engine,
    edges: &Edges<E>,
    native_input: &Edges<E>,
    graph: &Graph<E>,
    queries: &[Query],
    pools: &mut Pools,
) -> Result<Vec<u64>, String> {
    let mut expected = Vec::new();
    for (i, &query) in queries.iter().enumerate() {
        // The first run also warms the pool: states are created here, and
        // `core.pool.created` must not grow afterwards.
        let mut state = pools.acquire(query.algo);
        adapter::run_query(engine, graph, query, &mut state)?;
        let got = state.values();
        pools.release(state);
        out.attempted += 1;
        match query.algo {
            Algo::PageRank => {
                // Sums are taken in another order than the engine's, so the
                // gate is a tolerance; repetitions must then reproduce the
                // engine's own first answer bit for bit.
                let Values::F64(got_ranks) = &got else {
                    return Err("PageRank returned no f64 ranks".into());
                };
                let want = reference::pagerank(edges.num_vertices(), edges.tuples());
                let error = reference::max_relative_error(got_ranks, &want);
                if error > 1e-9 {
                    out.fail(
                        1,
                        format!("PageRank differs from the reference by {error:e} (relative)"),
                    );
                }
                if cfg.quick {
                    let small = adapter::pagerank_reference_small(edges);
                    let error = reference::max_relative_error(got_ranks, &small);
                    if error > 1e-9 {
                        out.fail(
                            1,
                            format!("PageRank differs from pagerank_reference by {error:e}"),
                        );
                    }
                }
                if let Some(native) = adapter::native_run(native_input, query, cfg.threads) {
                    let Values::F64(native_ranks) = &native.values else {
                        return Err("native PageRank returned no f64 ranks".into());
                    };
                    let error = reference::max_relative_error(got_ranks, native_ranks);
                    if error > 1e-9 {
                        out.fail(
                            1,
                            format!("PageRank differs from native by {error:e} (relative)"),
                        );
                    }
                }
                expected.push(reference::checksum(&got));
            }
            _ => {
                let want =
                    adapter::reference(edges, query).ok_or("no reference for this algorithm")?;
                if got != want {
                    out.fail(
                        1,
                        format!(
                            "{} from root {} (#{i}) is not bit-equal to its reference",
                            query.algo.name(),
                            query.seed
                        ),
                    );
                }
                expected.push(reference::checksum(&want));
            }
        }
    }
    Ok(expected)
}

struct World<'a, E> {
    engine: &'a Engine,
    graph: &'a Graph<E>,
    native_input: &'a Edges<E>,
    queries: &'a [Query],
    expected: &'a [u64],
    shape: &'a Shape,
}

impl<E: Edge> World<'_, E> {
    /// Repetitions for `budget_s` seconds (at least `min_reps`).
    fn pass(
        &self,
        cfg: &Config,
        out: &mut Outcome,
        pools: &mut Pools,
        tracer: &mut Tracer,
        budget_s: f64,
        with_native: bool,
    ) -> Result<Pass, String> {
        let mut pass = Pass {
            infos: vec![RunInfo::default(); self.queries.len()],
            ..Pass::default()
        };
        let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
        let mut query_id = 0u32;
        while pass.reps < cfg.min_reps() || Instant::now() < deadline {
            let rep = tracer.begin("rep", NONE, NONE);
            let (mut rep_driver_s, mut rep_product_s) = (0.0, 0.0);
            for (i, &query) in self.queries.iter().enumerate() {
                query_id += 1;
                let span = tracer.begin("query", rep, query_id);
                let t0 = Instant::now();
                let mut state = pools.acquire(query.algo);
                let t1 = Instant::now();
                let info = adapter::run_query(self.engine, self.graph, query, &mut state)?;
                let t2 = Instant::now();
                let matches = reference::checksum_state(&state) == self.expected[i];
                let t3 = Instant::now();
                pools.release(state);
                let t4 = Instant::now();
                tracer.record("pool.acquire", span, query_id, t0, t1);
                tracer.record("driver", span, query_id, t1, t2);
                tracer.record("verify", span, query_id, t2, t4);
                tracer.end(span);

                out.attempted += 1;
                if !matches {
                    out.fail(
                        1,
                        format!(
                            "{} from root {} changed its answer between repetitions",
                            query.algo.name(),
                            query.seed
                        ),
                    );
                }
                let driver_s = secs(t2 - t1);
                let phases = info.send_s + info.spmv_s + info.apply_s;
                pass.driver.push((i, driver_s));
                pass.acquire_s.push(secs(t1 - t0));
                pass.send_s.push(info.send_s);
                pass.spmv_s.push(info.spmv_s);
                pass.apply_s.push(info.apply_s);
                pass.runner_self_s.push(driver_s - phases);
                pass.spmv_share.push(info.spmv_s / driver_s);
                pass.infos[i] = info;
                rep_driver_s += driver_s;
                rep_product_s += secs(t2 - t0) + secs(t4 - t3);
            }
            if with_native {
                for k in 0..self.shape.native_per_rep {
                    let i = (pass.reps * self.shape.native_per_rep + k) % self.shape.native_roots;
                    let Some(&query) = self.queries.get(i) else {
                        continue;
                    };
                    let span = tracer.begin("native", rep, NONE);
                    let run = adapter::native_run(self.native_input, query, cfg.threads);
                    tracer.end(span);
                    let run = run.ok_or("no native baseline for this algorithm")?;
                    // PageRank was compared within tolerance at set-up; the
                    // traversals must be bit-equal every time.
                    if query.algo != Algo::PageRank
                        && reference::checksum(&run.values) != self.expected[i]
                    {
                        out.fail(
                            1,
                            format!(
                                "native {} from root {} disagrees with the reference",
                                query.algo.name(),
                                query.seed
                            ),
                        );
                    }
                    pass.native.push((i, run.elapsed_s, run.edge_ops));
                }
            }
            tracer.end(rep);
            let n = self.queries.len() as f64;
            pass.rep_query_s.push(rep_driver_s / n);
            pass.rep_qps.push(n / rep_product_s);
            pass.reps += 1;
        }
        Ok(pass)
    }
}

fn report_end_to_end(out: &mut Outcome, pass: &Pass) {
    out.put("query_ms", pass.query_ms());
    let all: Vec<f64> = pass.driver.iter().map(|(_, s)| *s).collect();
    out.put("query_p95_ms", Stat::at(&all, 0.95).scaled(1e3));
    out.put("qps", Stat::median(&pass.rep_qps));
    out.fact("repetitions", pass.reps as f64);
    out.fact("queries", pass.queries() as f64);
}

/// Mean of one count over the fixed roots (counts are exact per root).
fn mean_count(infos: &[RunInfo], count: fn(&RunInfo) -> u64) -> f64 {
    infos.iter().map(|i| count(i) as f64).sum::<f64>() / infos.len().max(1) as f64
}

/// The layer numbers that come from the untraced pass of a traced run.
fn report_layers(out: &mut Outcome, shape: &Shape, pass: &Pass, pools: &Pools) {
    let query_ms = pass.query_ms();
    let mean = |count| mean_count(&pass.infos, count);
    let supersteps = mean(|i| i.supersteps);
    let edges = mean(|i| i.edges);
    out.put_exact("core.engine.supersteps", supersteps);
    out.put_exact("core.engine.pull_supersteps", mean(|i| i.pull_supersteps));
    out.put_exact("core.engine.edges_processed", edges);
    out.put_exact("core.engine.messages_sent", mean(|i| i.messages));
    out.put(
        "core.engine.send_ms",
        Stat::median(&pass.send_s).scaled(1e3),
    );
    out.put(
        "core.engine.spmv_ms",
        Stat::median(&pass.spmv_s).scaled(1e3),
    );
    out.put(
        "core.engine.apply_ms",
        Stat::median(&pass.apply_s).scaled(1e3),
    );
    out.put("core.engine.spmv_share", Stat::median(&pass.spmv_share));
    out.put(
        "core.engine.us_per_superstep",
        query_ms.scaled(1e3 / supersteps.max(1.0)),
    );
    out.put(
        "core.runner.self_ms",
        Stat::median(&pass.runner_self_s).scaled(1e3),
    );
    out.put(
        "core.pool.acquire_us",
        Stat::median(&pass.acquire_s).scaled(1e6),
    );
    out.put_exact("core.pool.created", pools.created() as f64);
    out.put_exact("core.pool.reused", pools.reused() as f64);
    out.put("ns_per_edge", query_ms.scaled(1e6 / edges.max(1.0)));
    out.put(
        probes::per_algorithm("algorithms", "query_ms", shape.algo),
        query_ms,
    );

    // Per baseline root: median engine time over median baseline time,
    // summed over those roots, so that both sides answer the same queries.
    let (mut engine_s, mut native_s, mut native_all, mut edge_ops) = (0.0, 0.0, Vec::new(), 0u64);
    for root in 0..shape.native_roots {
        let ours: Vec<f64> = pass
            .driver
            .iter()
            .filter(|(i, _)| *i == root)
            .map(|(_, s)| *s)
            .collect();
        let theirs: Vec<f64> = pass
            .native
            .iter()
            .filter(|(i, _, _)| *i == root)
            .map(|(_, s, _)| *s)
            .collect();
        if ours.is_empty() || theirs.is_empty() {
            continue;
        }
        engine_s += stats::median(&ours);
        native_s += stats::median(&theirs);
        native_all.extend(theirs);
        edge_ops += pass
            .native
            .iter()
            .find(|(i, _, _)| *i == root)
            .map_or(0, |(_, _, ops)| *ops);
    }
    if native_s > 0.0 {
        out.put_exact("native_slowdown", engine_s / native_s);
        out.put(
            "baselines.native.query_ms",
            Stat::median(&native_all).scaled(1e3),
        );
        out.put_exact(
            "baselines.native.ns_per_edge",
            native_s * 1e9 / edge_ops.max(1) as f64,
        );
    }
    out.fact("native_runs", pass.native.len() as f64);
}
