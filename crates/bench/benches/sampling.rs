//! Kernel-vs-scalar micro-benchmark for the PRR phase-I generator:
//! [`PrrFullSource::new`] (the packed in-edge lane) against
//! [`scalar_oracle`](PrrFullSource::scalar_oracle), per graph family.
//! Both legs draw the identical random stream and produce byte-equal
//! pools, so the ratio is pure kernel overhead/win — any semantic drift
//! would already fail the equivalence suites.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kboost_datasets::{Dataset, Scale};
use kboost_prr::{PrrArenaShard, PrrFullSource};
use kboost_rrset::seeds::select_random_nodes;
use kboost_rrset::sketch::SketchPool;
use std::hint::black_box;

const POOL_SEED: u64 = 23;
const TARGET: u64 = 512;

fn bench_prr_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("prr_sampling_512");
    for dataset in [Dataset::Digg, Dataset::Flickr] {
        let g = dataset.generate(Scale::Tiny, 2.0, 7);
        let seeds = select_random_nodes(&g, 20, &[], 3);
        let kernel = PrrFullSource::new(&g, &seeds, 100);
        let scalar = PrrFullSource::scalar_oracle(&g, &seeds, 100, kboost_prr::FootprintMode::Off);
        group.bench_function(BenchmarkId::new("kernel", dataset.name()), |b| {
            b.iter(|| {
                let mut pool: SketchPool<PrrArenaShard> = SketchPool::new(POOL_SEED, 1);
                pool.extend_to(&kernel, TARGET);
                black_box(pool.covers().len())
            });
        });
        group.bench_function(BenchmarkId::new("scalar_oracle", dataset.name()), |b| {
            b.iter(|| {
                let mut pool: SketchPool<PrrArenaShard> = SketchPool::new(POOL_SEED, 1);
                pool.extend_to(&scalar, TARGET);
                black_box(pool.covers().len())
            });
        });
    }
    group.finish();
}

/// Short measurement budget: this bench exists to expose the
/// kernel-vs-scalar ratio, not microsecond precision.
fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_prr_kernel
}
criterion_main!(benches);
