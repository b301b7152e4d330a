//! Direct layer probes: one public function of one crate, called in a loop
//! on the workload's own graph and frames, timed from here. They run only in
//! traced runs, after the timed passes, with the same thread count.

use crate::adapter::{
    self, Algo, Edge, Edit, Engine, Frontier, Graph, Kernel, OverlayInputs, Pools, Query, Service,
};
use crate::stats::{self, Stat};
use crate::table;
use crate::workloads::Outcome;
use std::time::{Duration, Instant};

/// Seconds per call, one sample per call, for calls long enough to time
/// singly (kernels, builds): at least `min_calls`, then until `budget_s`.
pub fn time_calls(call: &mut dyn FnMut(), budget_s: f64, min_calls: usize) -> Vec<f64> {
    call(); // warm: first-touch of output vectors, lazy set-up
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let mut samples = Vec::new();
    while samples.len() < min_calls || (Instant::now() < deadline && samples.len() < 10_000) {
        let start = Instant::now();
        call();
        samples.push(start.elapsed().as_secs_f64());
    }
    samples
}

/// Seconds per call for calls of nanoseconds: each sample is the mean over a
/// batch, so the clock's own cost disappears.
pub fn time_batched(call: &mut dyn FnMut(), batch: usize, samples: usize) -> Vec<f64> {
    for _ in 0..batch {
        call();
    }
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                call();
            }
            start.elapsed().as_secs_f64() / batch as f64
        })
        .collect()
}

/// STREAM triad `a = b + s*c` over three `f64` arrays of `array_bytes` each,
/// split over `threads` threads; GB/s counting the three arrays once per
/// pass (no write-allocate traffic counted).
pub fn stream_triad_gbps(array_bytes: usize, threads: usize) -> f64 {
    let len = (array_bytes / 8).max(1024);
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    // Enough passes to move ~256 MB, so small arrays are timed over more
    // than a thread spawn.
    let passes = (256_000_000 / (3 * len * 8)).clamp(3, 2000);
    let chunk = len.div_ceil(threads.max(1));
    let run = |a: &mut [f64], passes: usize| {
        std::thread::scope(|scope| {
            for (i, part) in a.chunks_mut(chunk).enumerate() {
                let (b, c) = (&b[i * chunk..], &c[i * chunk..]);
                scope.spawn(move || {
                    for pass in 0..passes {
                        let s = 1.0 + pass as f64;
                        for ((x, y), z) in part.iter_mut().zip(b).zip(c) {
                            *x = *y + s * *z;
                        }
                        std::hint::black_box(&mut *part);
                    }
                });
            }
        });
    };
    run(&mut a, 1); // first touch
    let start = Instant::now();
    run(&mut a, passes);
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(&a);
    (passes * 3 * len * 8) as f64 / elapsed / 1e9
}

struct KernelTiming {
    ns_per_edge: Stat,
    gbps: f64,
}

fn time_kernel(mut kernel: Kernel<'_>, budget_s: f64) -> KernelTiming {
    let samples = time_calls(&mut kernel.call, budget_s, 3);
    let per_call = stats::median(&samples);
    KernelTiming {
        ns_per_edge: Stat::median(&samples).scaled(1e9 / kernel.edges.max(1) as f64),
        gbps: kernel.bytes as f64 / per_call / 1e9,
    }
}

/// The machine, kernel, executor and overlay probes every workload runs on
/// its resident graph. `batches` are the edits the overlay kernel merges.
/// Returns `machine.stream_gbps` for the callers that divide by it.
pub fn graph_probes<E: Edge>(
    out: &mut Outcome,
    engine: &Engine,
    graph: &Graph<E>,
    batches: &[Vec<Edit>],
    budget_s: f64,
) -> Result<f64, String> {
    let slice = budget_s / 8.0;

    let stream = stream_triad_gbps(graph.matrix_bytes(), engine.threads());
    out.put_exact("machine.stream_gbps", stream);

    if let Some(kernel) = adapter::pull_kernel(engine, graph, Frontier::Dense) {
        let t = time_kernel(kernel, slice);
        out.put("sparse.pull.dense.ns_per_edge", t.ns_per_edge);
        out.put_exact("sparse.pull.dense.eff_gbps", t.gbps);
        out.put_exact("sparse.pull.dense.bw_fraction", t.gbps / stream);
    }
    if let Some(kernel) = adapter::pull_kernel(engine, graph, Frontier::OneIn64) {
        out.put(
            "sparse.pull.sparse.ns_per_edge",
            time_kernel(kernel, slice).ns_per_edge,
        );
    }
    let t = time_kernel(adapter::push_kernel(engine, graph, Frontier::Dense), slice);
    out.put("sparse.push.dense.ns_per_edge", t.ns_per_edge);
    out.put_exact("sparse.push.dense.eff_gbps", t.gbps);
    let t = time_kernel(
        adapter::push_kernel(engine, graph, Frontier::OneIn64),
        slice,
    );
    out.put("sparse.push.sparse.ns_per_edge", t.ns_per_edge);

    let inputs = OverlayInputs::new(graph, batches)?;
    let build = time_calls(&mut || drop(std::hint::black_box(inputs.build())), slice, 3);
    out.put("delta.overlay.build_ms", Stat::median(&build).scaled(1e3));
    let overlay = inputs.build();
    out.fact("overlay_probe_pending_edits", overlay.pending() as f64);
    let t = time_kernel(adapter::overlay_kernel(engine, graph, &overlay), slice);
    out.put("sparse.overlay.push.ns_per_edge", t.ns_per_edge);
    let empty = OverlayInputs::new(graph, &[])?.build();
    let t = time_kernel(adapter::overlay_kernel(engine, graph, &empty), slice);
    out.put("sparse.overlay.empty.ns_per_edge", t.ns_per_edge);

    let tasks = graph.num_partitions();
    let dispatch = time_batched(&mut || engine.dispatch_noop(tasks), 200, 15);
    out.put(
        "sparse.executor.dispatch_us",
        Stat::median(&dispatch).scaled(1e6),
    );
    Ok(stream)
}

/// `DeltaBatch::from_ops` on one of the workload's batches.
pub fn batch_probe(out: &mut Outcome, num_vertices: u32, batch: &[Edit]) {
    let samples = time_batched(&mut adapter::batch_build_probe(num_vertices, batch), 20, 15);
    out.put("delta.batch.build_us", Stat::median(&samples).scaled(1e6));
}

/// `GraphService::snapshot()`, taken and dropped.
pub fn snapshot_probe(out: &mut Outcome, service: &Service) {
    let samples = time_batched(&mut || service.touch_snapshot(), 1000, 15);
    out.put("core.store.snapshot_ns", Stat::median(&samples).scaled(1e9));
}

/// Codec, checksum and queue, on the workload's own frames and result size.
pub fn protocol_probes(out: &mut Outcome, query: Query, result_values: usize) {
    let encode = time_batched(&mut adapter::encode_probe(query), 1000, 15);
    out.put(
        "server.protocol.encode_ns",
        Stat::median(&encode).scaled(1e9),
    );
    let decode = time_batched(&mut adapter::decode_probe(query), 1000, 15);
    out.put(
        "server.protocol.decode_ns",
        Stat::median(&decode).scaled(1e9),
    );
    let values: Vec<f64> = (0..result_values).map(|i| i as f64 * 0.5).collect();
    let (mut checksum, bytes) = adapter::checksum_probe(values);
    let samples = time_calls(&mut checksum, 0.05, 5);
    out.put_exact(
        "server.protocol.checksum_gbps",
        bytes as f64 / stats::median(&samples) / 1e9,
    );
    let queue = time_batched(&mut adapter::queue_probe(), 1000, 15);
    out.put("server.queue.push_pop_ns", Stat::median(&queue).scaled(1e9));
}

/// The pooled drivers in process: the floor under any service time.
pub struct Floors {
    /// Seconds per query, median, for each algorithm asked for.
    pub per_algo: Vec<(Algo, Stat)>,
    /// Seconds per `StatePool::acquire` after warm-up.
    pub acquire_s: Vec<f64>,
}

/// Run each of `queries` `runs_each` times (after one warm-up round, in
/// which the pool creates its states) through the pooled driver.
pub fn algorithm_probes<E: Edge>(
    engine: &Engine,
    graph: &Graph<E>,
    pools: &mut Pools,
    queries: &[Query],
    runs_each: usize,
) -> Result<Floors, String> {
    let mut per_algo: Vec<(Algo, Vec<f64>)> = Vec::new();
    let mut acquire_s = Vec::new();
    for round in 0..=runs_each {
        for &query in queries {
            let acquiring = Instant::now();
            let mut state = pools.acquire(query.algo);
            let start = Instant::now();
            adapter::run_query(engine, graph, query, &mut state)?;
            let elapsed = start.elapsed().as_secs_f64();
            pools.release(state);
            if round == 0 {
                continue;
            }
            acquire_s.push((start - acquiring).as_secs_f64());
            match per_algo.iter_mut().find(|(a, _)| *a == query.algo) {
                Some((_, samples)) => samples.push(elapsed),
                None => per_algo.push((query.algo, vec![elapsed])),
            }
        }
    }
    Ok(Floors {
        per_algo: per_algo
            .into_iter()
            .map(|(algo, samples)| (algo, Stat::median(&samples)))
            .collect(),
        acquire_s,
    })
}

/// The table's name for a per-algorithm metric family, e.g.
/// `per_algorithm("algorithms", "query_ms", Algo::Bfs)` is
/// `algorithms.bfs.query_ms` and `per_algorithm("server.stats.exec_mean_us",
/// "", Algo::Bfs)` is `server.stats.exec_mean_us.bfs`.
pub fn per_algorithm(prefix: &str, suffix: &str, algo: Algo) -> &'static str {
    let dot = if suffix.is_empty() { "" } else { "." };
    let name = format!("{prefix}.{}{dot}{suffix}", algo.name());
    table::metric(&name)
        .unwrap_or_else(|| panic!("{name} is not in the table"))
        .name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_return_the_requested_samples() {
        let mut calls = 0usize;
        let samples = time_calls(&mut || calls += 1, 0.0, 4);
        assert_eq!(samples.len(), 4);
        assert_eq!(calls, 5); // one warm-up call
        let batched = time_batched(&mut || calls += 1, 10, 3);
        assert_eq!(batched.len(), 3);
        assert_eq!(calls, 5 + 40);
    }

    #[test]
    fn triad_reports_a_positive_rate() {
        assert!(stream_triad_gbps(1 << 16, 2) > 0.0);
    }
}
