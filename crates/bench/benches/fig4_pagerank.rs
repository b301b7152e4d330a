//! Figure 4a: PageRank time per iteration across frameworks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmat_baselines::Framework;
use graphmat_bench::harness::{graph_run, Algorithm};
use graphmat_io::datasets::{load, DatasetId, DatasetScale};

fn bench(c: &mut Criterion) {
    let edges = load(DatasetId::FacebookLike, DatasetScale::Tiny);
    let mut group = c.benchmark_group("fig4a_pagerank");
    group.sample_size(10);
    for &fw in Framework::figure4() {
        let run = graph_run(fw, Algorithm::PageRank, &edges, 0);
        group.bench_function(BenchmarkId::new(fw.name(), "facebook-like"), |b| {
            b.iter(&run)
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
