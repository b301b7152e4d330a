//! `pr_overlay`: writes beside reads on one engine. A repetition is
//! `rep > {store.create, store.apply x32, overlay.queries > execute_run x3,
//! store.compact, compacted.queries > execute_run x3}` on a fresh store
//! over the same base topology, with compaction only when the workload asks
//! for it, so that every repetition merges the same overlay.

use super::{secs, timed, Config, Outcome, SetupTimes, SETUPS};
use crate::adapter::{
    self, Algo, Compaction, Edges, Edit, Engine, Pools, Query, Service, Values, Worker,
    PAGERANK_ITERATIONS,
};
use crate::input::{edit_batch, Rng};
use crate::probes;
use crate::reference;
use crate::stats::{self, Stat};
use crate::trace::{self, Tracer, NONE};
use std::time::{Duration, Instant};

const QUERIES_PER_LEG: usize = 3;
const QUERY: Query = Query {
    algo: Algo::PageRank,
    seed: 0,
};

#[derive(Default)]
struct Pass {
    reps: usize,
    /// Per repetition: mean `execute_run` time of each leg.
    overlay_leg_s: Vec<f64>,
    compacted_leg_s: Vec<f64>,
    /// Every overlay-leg query.
    overlay_query_s: Vec<f64>,
    update_s: Vec<f64>,
    compact_s: Vec<f64>,
    rep_qps: Vec<f64>,
    delta_edges: u64,
    overlay_edges: u64,
    compactions: u64,
    compaction_failures: u64,
}

pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let engine = Engine::new(cfg.threads)?;
    let scale = if cfg.quick { 10 } else { 16 };
    let (n_batches, batch_len) = if cfg.quick { (4, 64) } else { (32, 1024) };
    out.fact("rmat_scale", f64::from(scale));
    out.fact("update_batches", n_batches as f64);
    out.fact("edits_per_batch", batch_len as f64);

    // ---- set up: generate, build, create the store ----
    let mut times = SetupTimes::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (edges, gen) = timed(|| adapter::rmat_edges(scale, cfg.seed));
        let (graph, build) = timed(|| engine.build(&edges));
        let graph = graph?;
        let (service, create) = timed(|| Service::new(cfg.threads, &graph, Compaction::Manual));
        drop(service?);
        times.push(gen, build, create);
        built = Some((edges, graph));
    }
    let (edges, graph) = built.ok_or("no set-up ran")?;
    times.report(
        out,
        graph.num_edges(),
        graph.matrix_bytes(),
        graph.pull_bytes(),
    );
    out.fact("vertices", f64::from(graph.num_vertices()));
    out.fact("edges", graph.num_edges() as f64);

    let mut rng = Rng::new(cfg.seed, 3);
    let batches: Vec<Vec<Edit>> = (0..n_batches)
        .map(|_| edit_batch(&mut rng, edges.num_vertices(), edges.tuples(), batch_len))
        .collect();

    // ---- expected answer: the edited graph rebuilt from scratch ----
    let mut rebuilt = edges.tuples().to_vec();
    let batch_refs: Vec<&[Edit]> = batches.iter().map(Vec::as_slice).collect();
    reference::apply_edits(&mut rebuilt, &batch_refs);
    let rebuilt_ranks = reference::pagerank(edges.num_vertices(), &rebuilt);
    let rebuilt_edges = rebuilt.len();
    let rebuilt_graph = engine.build(&Edges::from_tuples(edges.num_vertices(), rebuilt))?;
    let mut pools = Pools::new(&rebuilt_graph);
    let mut state = pools.acquire(Algo::PageRank);
    adapter::run_query(&engine, &rebuilt_graph, QUERY, &mut state)?;
    let engine_on_rebuilt = state.values();
    pools.release(state);
    out.attempted += 1;
    let Values::F64(ranks) = &engine_on_rebuilt else {
        return Err("PageRank returned no f64 ranks".into());
    };
    let error = reference::max_relative_error(ranks, &rebuilt_ranks);
    if error > 1e-9 {
        out.fail(
            1,
            format!("PageRank on the rebuilt graph differs from the reference by {error:e}"),
        );
    }
    let expected = reference::checksum(&engine_on_rebuilt);
    drop((pools, rebuilt_graph));

    // One worker for the whole run: its pools warm up here, not in a rep.
    let warm = Service::new(cfg.threads, &graph, Compaction::Manual)?;
    let mut worker = warm.worker();
    let mut buf = Vec::new();
    warm.execute(&mut worker, QUERY, &mut buf)?;
    drop(warm);

    let world = World {
        cfg,
        graph: &graph,
        batches: &batches,
        expected,
        rebuilt_edges,
    };
    let origin = Instant::now();
    if !cfg.trace {
        let pass = world.pass(out, &mut worker, &mut Tracer::disabled(), cfg.seconds)?;
        report_end_to_end(out, &pass);
        return Ok(());
    }

    let (untraced_s, traced_s, probe_s) = cfg.split();
    let base = world.pass(out, &mut worker, &mut Tracer::disabled(), untraced_s)?;
    let mut on = Tracer::new(true, origin);
    let traced = world.pass(out, &mut worker, &mut on, traced_s)?;
    report_end_to_end(out, &base);
    report_layers(out, &base);
    let (base_ms, traced_ms) = (
        stats::median(&base.overlay_leg_s),
        stats::median(&traced.overlay_leg_s),
    );
    out.put_exact(
        "trace.overhead_pct",
        100.0 * (traced_ms - base_ms) / base_ms,
    );
    out.put_exact(
        "trace.unattributed_pct",
        trace::unattributed_pct(on.spans()),
    );
    out.take_spans(on);

    // ---- direct probes on the base graph with the workload's own edits ----
    probes::graph_probes(out, &engine, &graph, &batches, probe_s)?;
    probes::batch_probe(out, graph.num_vertices(), &batches[0]);
    let service = Service::new(cfg.threads, &graph, Compaction::Manual)?;
    probes::snapshot_probe(out, &service);
    let mut pools = Pools::new(&graph);
    let floor = probes::algorithm_probes(&engine, &graph, &mut pools, &[QUERY], 3)?;
    for (algo, stat) in floor.per_algo {
        out.put(
            probes::per_algorithm("algorithms", "query_ms", algo),
            stat.scaled(1e3),
        );
    }
    Ok(())
}

struct World<'a> {
    cfg: &'a Config,
    graph: &'a adapter::Graph<f32>,
    batches: &'a [Vec<Edit>],
    expected: u64,
    rebuilt_edges: usize,
}

impl World<'_> {
    fn pass(
        &self,
        out: &mut Outcome,
        worker: &mut Worker,
        tracer: &mut Tracer,
        budget_s: f64,
    ) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut buf = Vec::new();
        let mut query_id = 0u32;
        let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
        while pass.reps < self.cfg.min_reps() || Instant::now() < deadline {
            let rep = tracer.begin("rep", NONE, NONE);
            let mut product = Duration::ZERO;

            let span = tracer.begin("store.create", rep, NONE);
            let (service, took) =
                timed(|| Service::new(self.cfg.threads, self.graph, Compaction::Manual));
            tracer.end(span);
            let service = service?;
            product += took;

            for batch in self.batches {
                let span = tracer.begin("store.apply", rep, NONE);
                let (applied, took) = timed(|| service.apply_update(batch));
                tracer.end(span);
                out.attempted += 1;
                if let Err(message) = applied {
                    out.fail(1, format!("apply_update failed: {message}"));
                }
                pass.update_s.push(secs(took));
                product += took;
            }
            let before = service.store_info();
            pass.delta_edges = before.delta_edges;
            pass.overlay_edges = before.num_edges;
            if before.num_edges != self.rebuilt_edges as u64 {
                out.fail(
                    1,
                    format!(
                        "the store reports {} edges, a from-scratch rebuild has {}",
                        before.num_edges, self.rebuilt_edges
                    ),
                );
            }

            let mut leg = |name: &'static str,
                           tracer: &mut Tracer,
                           out: &mut Outcome|
             -> Result<Vec<f64>, String> {
                let leg_span = tracer.begin(name, rep, NONE);
                let mut times = Vec::new();
                for _ in 0..QUERIES_PER_LEG {
                    query_id += 1;
                    let span = tracer.begin("execute_run", leg_span, query_id);
                    let (reply, took) = timed(|| service.execute(worker, QUERY, &mut buf));
                    tracer.end(span);
                    out.attempted += 1;
                    match reply {
                        Ok(reply) if reply.checksum == self.expected => {}
                        Ok(reply) => out.fail(
                            1,
                            format!(
                                "{name}: checksum {:x} is not the rebuilt graph's {:x}",
                                reply.checksum, self.expected
                            ),
                        ),
                        Err(message) => out.fail(1, format!("{name}: {message}")),
                    }
                    times.push(secs(took));
                }
                tracer.end(leg_span);
                Ok(times)
            };

            let overlay = leg("overlay.queries", tracer, out)?;
            let span = tracer.begin("store.compact", rep, NONE);
            let (compacted, took) = timed(|| service.compact_now());
            tracer.end(span);
            out.attempted += 1;
            if !compacted {
                out.fail(1, "compact_now found nothing to compact");
            }
            pass.compact_s.push(secs(took));
            product += took;
            let compacted_leg = leg("compacted.queries", tracer, out)?;

            let after = service.store_info();
            pass.compactions = after.compactions;
            pass.compaction_failures = after.compaction_failures;
            if after.delta_edges != 0 {
                out.fail(
                    1,
                    format!("{} edits still pending after compaction", after.delta_edges),
                );
            }
            tracer.end(rep);
            drop(service);

            let query_s: f64 = overlay.iter().chain(&compacted_leg).sum();
            let product_s = secs(product) + query_s;
            let operations = self.batches.len() + 2 * QUERIES_PER_LEG + 1;
            pass.overlay_leg_s.push(stats::mean(&overlay));
            pass.compacted_leg_s.push(stats::mean(&compacted_leg));
            pass.overlay_query_s.extend(overlay);
            pass.rep_qps.push(operations as f64 / product_s);
            pass.reps += 1;
        }
        Ok(pass)
    }
}

fn report_end_to_end(out: &mut Outcome, pass: &Pass) {
    out.put("query_ms", Stat::median(&pass.overlay_leg_s).scaled(1e3));
    out.put(
        "query_p95_ms",
        Stat::at(&pass.overlay_query_s, 0.95).scaled(1e3),
    );
    out.put("qps", Stat::median(&pass.rep_qps));
    out.fact("repetitions", pass.reps as f64);
}

fn report_layers(out: &mut Outcome, pass: &Pass) {
    let overlay = Stat::median(&pass.overlay_leg_s);
    let compacted = Stat::median(&pass.compacted_leg_s);
    let update = Stat::median(&pass.update_s).scaled(1e3);
    let compact = Stat::median(&pass.compact_s).scaled(1e3);
    out.put("update_ms", update);
    out.put("core.store.apply_ms", update);
    out.put("compact_ms", compact);
    out.put("core.store.compact_ms", compact);
    out.put_exact(
        "core.store.overlay_slowdown",
        overlay.value / compacted.value,
    );
    out.put_exact("core.store.delta_edges", pass.delta_edges as f64);
    out.put_exact("core.store.compactions", pass.compactions as f64);
    out.put_exact(
        "core.store.compaction_failures",
        pass.compaction_failures as f64,
    );
    // PageRank keeps every vertex active, so a query traverses every edge
    // of the edited graph once per iteration: an exact count.
    let edges_per_query = pass.overlay_edges as f64 * f64::from(PAGERANK_ITERATIONS);
    out.put(
        "ns_per_edge",
        overlay.scaled(1e9 / edges_per_query.max(1.0)),
    );
    out.put("server.service.execute_us.pagerank", compacted.scaled(1e6));
}
