//! Figure 7: cumulative effect of the backend optimizations (inlining,
//! parallelism, load balancing) on PageRank — extended with the
//! direction-optimization rows: push-only vs pull-only vs auto, so the
//! ablation covers the dense-pull backend and the per-superstep selector.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmat_bench::harness::{figure7_configs, figure7_run, Algorithm};
use graphmat_io::datasets::{load, DatasetId, DatasetScale};
use graphmat_sparse::parallel::available_threads;

fn bench(c: &mut Criterion) {
    let edges = load(DatasetId::FacebookLike, DatasetScale::Tiny);
    let max = available_threads();
    let mut group = c.benchmark_group("fig7_ablation_pagerank");
    group.sample_size(10);
    for config in figure7_configs(max) {
        let run = figure7_run(Algorithm::PageRank, &edges, config);
        group.bench_function(BenchmarkId::from_parameter(config.0), |b| b.iter(&run));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
