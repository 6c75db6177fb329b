//! Micro-benchmarks of the PRR-graph machinery: phase-I generation,
//! compression (ablation: full pipeline vs critical-only fast path), and
//! f_R evaluation — the inner loops behind Figures 6/11 and Tables 2/3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kboost_datasets::{Dataset, Scale};
use kboost_diffusion::sim::BoostMask;
use kboost_prr::{
    greedy_delta_selection, greedy_delta_selection_naive, FootprintMode, PrrArena, PrrEvalScratch,
    PrrGenerator, PrrOutcome,
};
use kboost_rrset::seeds::select_random_nodes;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("prr_generation");
    for dataset in [Dataset::Digg, Dataset::Flickr] {
        let g = dataset.generate(Scale::Tiny, 2.0, 7);
        let seeds = select_random_nodes(&g, 20, &[], 3);
        let generator = PrrGenerator::new(&g, &seeds, 100);
        group.bench_function(BenchmarkId::new("full", dataset.name()), |b| {
            let mut rng = SmallRng::seed_from_u64(11);
            b.iter(|| {
                black_box(matches!(
                    generator.sample(&mut rng),
                    PrrOutcome::Boostable(_)
                ))
            });
        });
        group.bench_function(BenchmarkId::new("critical_only", dataset.name()), |b| {
            let mut rng = SmallRng::seed_from_u64(11);
            b.iter(|| black_box(generator.sample_critical_only(&mut rng).len()));
        });
        // Ablation: disable the distance-k pruning (Section V-A notes the
        // pruning mostly matters for small k).
        let no_prune = PrrGenerator::new(&g, &seeds, 1_000_000_000);
        group.bench_function(BenchmarkId::new("full_no_pruning", dataset.name()), |b| {
            let mut rng = SmallRng::seed_from_u64(11);
            b.iter(|| {
                black_box(matches!(
                    no_prune.sample(&mut rng),
                    PrrOutcome::Boostable(_)
                ))
            });
        });
        // Ablation: small-k pruning (k = 1), where pruning bites hardest.
        let tight = PrrGenerator::new(&g, &seeds, 1);
        group.bench_function(BenchmarkId::new("full_k1_pruned", dataset.name()), |b| {
            let mut rng = SmallRng::seed_from_u64(11);
            b.iter(|| black_box(matches!(tight.sample(&mut rng), PrrOutcome::Boostable(_))));
        });
    }
    group.finish();
}

fn bench_evaluation(c: &mut Criterion) {
    let g = Dataset::Digg.generate(Scale::Tiny, 2.0, 7);
    let seeds = select_random_nodes(&g, 20, &[], 3);
    let generator = PrrGenerator::new(&g, &seeds, 100);
    let mut rng = SmallRng::seed_from_u64(13);
    // Collect a handful of boostable graphs.
    let mut graphs = Vec::new();
    while graphs.len() < 100 {
        if let PrrOutcome::Boostable(p) = generator.sample(&mut rng) {
            graphs.push(p);
        }
    }
    let boost = BoostMask::from_nodes(g.num_nodes(), &select_random_nodes(&g, 50, &seeds, 5));
    let mut scratch = PrrEvalScratch::default();
    c.bench_function("prr_f_eval_100_graphs", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for p in &graphs {
                hits += p.f(&boost, &mut scratch) as u32;
            }
            black_box(hits)
        });
    });
    let mut out = Vec::new();
    c.bench_function("prr_augmented_critical_100_graphs", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for p in &graphs {
                out.clear();
                let _ = p.augmented_critical(&boost, &mut scratch, &mut out);
                total += out.len();
            }
            black_box(total)
        });
    });
}

/// Greedy `Δ̂` selection: inverted coverage index vs the naive per-round
/// full re-traversal, on the same arena (single-threaded so the comparison
/// isolates the algorithmic change).
fn bench_selection(c: &mut Criterion) {
    let g = Dataset::Digg.generate(Scale::Tiny, 2.0, 7);
    let seeds = select_random_nodes(&g, 20, &[], 3);
    let k = 20usize;
    let generator = PrrGenerator::new(&g, &seeds, k);
    let mut rng = SmallRng::seed_from_u64(17);
    let mut arena = PrrArena::new();
    while arena.len() < 4_000 {
        if let PrrOutcome::Boostable(p) = generator.sample(&mut rng) {
            arena.push(&p, &[], &[], FootprintMode::Off);
        }
    }
    let mut group = c.benchmark_group("prr_selection_4k_graphs_k20");
    group.bench_function("indexed", |b| {
        b.iter(|| black_box(greedy_delta_selection(&arena, g.num_nodes(), k, 1).covered));
    });
    group.bench_function("naive_retraversal", |b| {
        b.iter(|| black_box(greedy_delta_selection_naive(&arena, g.num_nodes(), k).covered));
    });
    group.finish();
}

/// Short measurement budget: these benches exist to expose relative costs
/// (generation vs compression vs evaluation), not microsecond precision.
fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_generation, bench_evaluation, bench_selection
}
criterion_main!(benches);
