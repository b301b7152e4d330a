//! Figure 4e: SSSP total time across frameworks (including the road-network
//! case where per-iteration overhead dominates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmat_baselines::Framework;
use graphmat_bench::harness::{graph_run, Algorithm};
use graphmat_io::datasets::{load, DatasetId, DatasetScale};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4e_sssp");
    group.sample_size(10);
    for (label, id) in [
        ("flickr-like", DatasetId::FlickrLike),
        ("usa-road-like", DatasetId::UsaRoadLike),
    ] {
        let edges = load(id, DatasetScale::Tiny);
        for &fw in Framework::figure4() {
            let run = graph_run(fw, Algorithm::Sssp, &edges, 0);
            group.bench_function(BenchmarkId::new(fw.name(), label), |b| b.iter(&run));
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
