//! Figure 4c: Triangle Counting total time across frameworks (including the
//! CombBLAS-style SpGEMM blow-up).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmat_baselines::Framework;
use graphmat_bench::harness::{graph_run, Algorithm};
use graphmat_io::datasets::{load, DatasetId, DatasetScale};

fn bench(c: &mut Criterion) {
    let edges = load(DatasetId::RmatTriangle, DatasetScale::Tiny);
    let mut group = c.benchmark_group("fig4c_triangles");
    group.sample_size(10);
    for &fw in Framework::figure4() {
        let run = graph_run(fw, Algorithm::TriangleCount, &edges, 0);
        group.bench_function(BenchmarkId::new(fw.name(), "rmat-tc"), |b| b.iter(&run));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
