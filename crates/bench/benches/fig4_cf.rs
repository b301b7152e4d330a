//! Figure 4d: Collaborative Filtering time per iteration across frameworks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmat_baselines::Framework;
use graphmat_bench::harness::cf_run;
use graphmat_io::datasets::{load_ratings, DatasetId, DatasetScale};

fn bench(c: &mut Criterion) {
    let ratings = load_ratings(DatasetId::NetflixLike, DatasetScale::Tiny);
    let mut group = c.benchmark_group("fig4d_cf");
    group.sample_size(10);
    for &fw in Framework::figure4() {
        let run = cf_run(fw, &ratings, 0);
        group.bench_function(BenchmarkId::new(fw.name(), "netflix-like"), |b| {
            b.iter(&run)
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
