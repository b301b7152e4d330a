//! Figure 5: multicore scaling of GraphMat vs the other frameworks
//! (PageRank on the facebook-like graph, SSSP on the flickr-like graph).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmat_baselines::Framework;
use graphmat_bench::harness::{graph_run, Algorithm};
use graphmat_io::datasets::{load, DatasetId, DatasetScale};
use graphmat_sparse::parallel::available_threads;

fn bench(c: &mut Criterion) {
    let edges = load(DatasetId::FacebookLike, DatasetScale::Tiny);
    let mut group = c.benchmark_group("fig5_scaling_pagerank");
    group.sample_size(10);
    let max = available_threads();
    let mut threads = vec![1usize];
    let mut t = 2;
    while t <= max {
        threads.push(t);
        t *= 2;
    }
    for &fw in &[Framework::GraphMat, Framework::GraphLabLike] {
        for &t in &threads {
            let run = graph_run(fw, Algorithm::PageRank, &edges, t);
            group.bench_function(BenchmarkId::new(fw.name(), format!("{t}threads")), |b| {
                b.iter(&run)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
