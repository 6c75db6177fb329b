//! Perf-trajectory harness for the parallel PRR engine, driven entirely
//! through the unified `kboost-engine` API.
//!
//! Generates a preferential-attachment network, then for each thread
//! count in the sweep builds an [`Engine`] with fixed-size sampling and
//! solves PRR-Boost through it, recording the pool build time, build
//! throughput and peak pool-build memory plus greedy `Δ̂` selection time
//! from the solution's [`SolveStats`]. Before any timing, capped pools
//! from the sampling kernel must be byte-equal to the scalar oracle's
//! (footprints off and in the hybrid tier) and, footprints off, to the
//! legacy per-graph payload oracle copied into an arena. The arenas
//! across all thread counts must be byte-equal too, so a CI smoke run of
//! this binary doubles as a determinism check. The indexed selection is
//! additionally cross-checked
//! against the naive re-traversal greedy (the deep-path oracle). A
//! **deadline curve** then solves the same instance through
//! `Engine::solve_within` under sample budgets of ⅛, ¼ and ½ of the full
//! target, recording the samples each budget bought and the achieved ε
//! they certify. Results go to `BENCH_prr.json`, committed alongside the
//! code so the perf trajectory of the hot path is tracked across PRs.
//!
//! ```text
//! cargo run --release -p kboost-bench --bin exp_perf -- \
//!     [--nodes N] [--samples N] [--k N] [--threads 1,2,4] [--seed N] \
//!     [--out PATH]
//! ```
//!
//! [`Engine`]: kboost_engine::Engine
//! [`SolveStats`]: kboost_engine::SolveStats

use kboost_engine::{Algorithm, Budget, EngineBuilder, Sampling, Solution};
use kboost_graph::generators::preferential_attachment;
use kboost_graph::probability::ProbabilityModel;
use kboost_graph::{DiGraph, NodeId};
use kboost_prr::{
    greedy_delta_selection_naive, FootprintMode, LegacyPrrSource, LegacySample, PrrArena,
    PrrArenaShard, PrrFullSource,
};
use kboost_rrset::seeds::select_random_nodes;
use kboost_rrset::sketch::SketchPool;
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct PerfOpts {
    nodes: usize,
    samples: u64,
    k: usize,
    threads: Vec<usize>,
    seed: u64,
    out: String,
}

fn default_thread_sweep() -> Vec<usize> {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut sweep = vec![1usize, 2, 4, nproc];
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

fn parse_args() -> PerfOpts {
    let mut opts = PerfOpts {
        nodes: 60_000,
        samples: 120_000,
        k: 100,
        threads: default_thread_sweep(),
        seed: 42,
        out: "BENCH_prr.json".to_string(),
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let next = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        };
        match flag {
            "--nodes" => opts.nodes = next(&mut i).parse().expect("--nodes N"),
            "--samples" => opts.samples = next(&mut i).parse().expect("--samples N"),
            "--k" => opts.k = next(&mut i).parse().expect("--k N"),
            "--threads" => {
                opts.threads = next(&mut i)
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads N[,N...]"))
                    .collect();
                assert!(
                    !opts.threads.is_empty(),
                    "--threads needs at least one value"
                );
            }
            "--seed" => opts.seed = next(&mut i).parse().expect("--seed N"),
            "--out" => opts.out = next(&mut i),
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    opts
}

/// One thread-count measurement of the shard pipeline.
struct SweepPoint {
    threads: usize,
    build_secs: f64,
    build_samples_per_sec: f64,
    build_peak_bytes: usize,
    select_secs: f64,
}

/// An engine over `g` at the given thread count — the whole hand-wired
/// `SketchPool → PrrPool → greedy` stack behind one call.
fn build_engine(
    g: &DiGraph,
    seeds: &[NodeId],
    opts: &PerfOpts,
    threads: usize,
) -> kboost_engine::Engine {
    EngineBuilder::new(g.clone())
        .seeds(seeds.to_vec())
        .k(opts.k)
        .threads(threads)
        .seed(opts.seed)
        .sampling(Sampling::Fixed {
            samples: opts.samples,
        })
        .build()
        .expect("valid engine configuration")
}

fn main() {
    let opts = parse_args();

    let mut rng = SmallRng::seed_from_u64(opts.seed);
    // Digg-calibrated log-normal probabilities (Table 1) — kept over
    // WeightedCascade (fixed since the PA generator gained its
    // second-pass probability assignment) so the perf trajectory stays
    // comparable across PRs.
    let g = preferential_attachment(
        opts.nodes,
        4,
        0.15,
        ProbabilityModel::LogNormal {
            mu: -1.93,
            sigma: 1.0,
            cap: 1.0,
        },
        2.0,
        &mut rng,
    );
    let seeds = select_random_nodes(&g, 50, &[], opts.seed ^ 0x5EED);
    eprintln!(
        "graph: {} nodes, {} edges; {} seeds, k = {}, thread sweep {:?}",
        g.num_nodes(),
        g.num_edges(),
        seeds.len(),
        opts.k,
        opts.threads,
    );

    // Kernel ≡ scalar oracle, in-bench: capped-target pools at 1 and 7
    // threads, footprints off and in the hybrid tier, must match
    // byte-for-byte (covers and arena storage arrays, footprint columns
    // included) before any timing is trusted. Footprints off, the kernel
    // arena must also equal the legacy per-graph payloads copied into an
    // arena (shard ≡ legacy copy).
    let equiv_target = opts.samples.min(2_048);
    let mut legacy_pool: SketchPool<Vec<LegacySample>> = SketchPool::new(opts.seed, 1);
    legacy_pool.extend_to(&LegacyPrrSource::new(&g, &seeds, opts.k), equiv_target);
    let (_, samples, _, _) = legacy_pool.into_parts();
    let legacy_arena = LegacySample::arena(&samples, FootprintMode::Off);
    for threads in [1usize, 7] {
        for mode in [
            FootprintMode::Off,
            FootprintMode::Hybrid { bloom_above: 16 },
        ] {
            let kernel_src = PrrFullSource::with_footprints(&g, &seeds, opts.k, mode);
            let scalar_src = PrrFullSource::scalar_oracle(&g, &seeds, opts.k, mode);
            let mut kernel_pool: SketchPool<PrrArenaShard> = SketchPool::new(opts.seed, threads);
            kernel_pool.extend_to(&kernel_src, equiv_target);
            let mut scalar_pool: SketchPool<PrrArenaShard> = SketchPool::new(opts.seed, threads);
            scalar_pool.extend_to(&scalar_src, equiv_target);
            assert_eq!(
                kernel_pool.covers(),
                scalar_pool.covers(),
                "kernel covers diverged from scalar oracle ({threads} threads, {mode:?})"
            );
            let (_, kernel_shard, _, _) = kernel_pool.into_parts();
            let (_, scalar_shard, _, _) = scalar_pool.into_parts();
            let kernel_arena = PrrArena::from_shard(kernel_shard);
            assert!(
                kernel_arena == PrrArena::from_shard(scalar_shard),
                "kernel arena diverged from scalar oracle ({threads} threads, {mode:?})"
            );
            if mode == FootprintMode::Off {
                assert!(
                    kernel_arena == legacy_arena,
                    "shard-built arena diverged from the legacy copy-built arena \
                     ({threads} threads)"
                );
            }
        }
    }
    eprintln!(
        "kernel ≡ scalar oracle verified over {equiv_target} samples at 1 and 7 threads, \
         footprints off and hybrid; shard ≡ legacy copy"
    );

    // Dedicated single-thread A/B: the same capped workload through the
    // scalar loop and through the kernel, for the kernel_speedup figure.
    let speed_target = opts.samples.min(8_192);
    let scalar_src = PrrFullSource::scalar_oracle(&g, &seeds, opts.k, FootprintMode::Off);
    let t = std::time::Instant::now();
    let mut scalar_pool: SketchPool<PrrArenaShard> = SketchPool::new(opts.seed, 1);
    scalar_pool.extend_to(&scalar_src, speed_target);
    let scalar_secs = t.elapsed().as_secs_f64();
    let kernel_src = PrrFullSource::new(&g, &seeds, opts.k);
    let t = std::time::Instant::now();
    let mut kernel_pool: SketchPool<PrrArenaShard> = SketchPool::new(opts.seed, 1);
    kernel_pool.extend_to(&kernel_src, speed_target);
    let kernel_secs = t.elapsed().as_secs_f64();
    let kernel_speedup = scalar_secs / kernel_secs.max(1e-9);
    let ab_kernel_rate = speed_target as f64 / kernel_secs.max(1e-9);
    eprintln!(
        "single-thread A/B over {speed_target} samples: scalar {scalar_secs:.2}s \
         ({:.1}/s) vs kernel {kernel_secs:.2}s ({ab_kernel_rate:.1}/s) → {kernel_speedup:.2}x",
        speed_target as f64 / scalar_secs.max(1e-9),
    );
    drop((scalar_pool, kernel_pool));

    let mut sweep: Vec<SweepPoint> = Vec::new();
    let mut reference: Option<(kboost_engine::Engine, Solution)> = None;
    for &threads in &opts.threads {
        // The engine builds the arena in place during sampling (shard
        // construction inside the workers, chunk-ordered absorbs on
        // merge, a final move into the pool) and reports build/select
        // timing and peak pool-build memory on the solution.
        let mut engine = build_engine(&g, &seeds, &opts, threads);
        let solution = engine.solve(&Algorithm::PrrBoost).expect("solve");
        let stats = solution.stats;

        eprintln!(
            "[{threads} threads] sampled {} PRR-graphs ({} boostable) in {:.2}s \
             (peak build {:.1} MiB); Δ̂ selection {:.3}s covering {} graphs",
            stats.total_samples,
            stats.boostable,
            stats.build_secs,
            stats.build_peak_bytes as f64 / (1024.0 * 1024.0),
            stats.select_secs,
            stats.covered,
        );
        sweep.push(SweepPoint {
            threads,
            build_secs: stats.build_secs,
            build_samples_per_sec: stats.total_samples as f64 / stats.build_secs.max(1e-9),
            build_peak_bytes: stats.build_peak_bytes,
            select_secs: stats.select_secs,
        });

        match &reference {
            None => {
                // Once per config: the indexed selection must match the
                // naive full re-traversal greedy (deep-path oracle).
                let t2 = std::time::Instant::now();
                let pool = engine.pool().expect("pool built");
                let naive = greedy_delta_selection_naive(pool.arena(), g.num_nodes(), opts.k);
                let naive_secs = t2.elapsed().as_secs_f64();
                assert_eq!(
                    solution.boost_set, naive.selected,
                    "index-accelerated selection diverged from the naive baseline"
                );
                assert_eq!(stats.covered, naive.covered);
                eprintln!(
                    "selection cross-check: indexed {:.3}s vs naive {naive_secs:.3}s → {:.1}x",
                    stats.select_secs,
                    naive_secs / stats.select_secs.max(1e-9)
                );
                reference = Some((engine, solution));
            }
            Some((ref_engine, ref_solution)) => {
                // The determinism contract, live: any thread count must
                // produce the bit-identical arena and the same selection.
                let ref_pool = ref_engine.pool_if_built().expect("reference pool built");
                let pool = engine.pool().expect("pool built");
                assert!(
                    pool.arena() == ref_pool.arena(),
                    "shard pipeline non-deterministic: arena at {threads} threads \
                     differs from {} threads",
                    sweep[0].threads,
                );
                assert_eq!(pool.total_samples(), ref_pool.total_samples());
                assert_eq!(
                    solution.boost_set, ref_solution.boost_set,
                    "greedy Δ̂ selection differs at {threads} threads"
                );
                assert_eq!(solution.stats.covered, ref_solution.stats.covered);
            }
        }
    }
    let (mut ref_engine, ref_solution) = reference.expect("at least one sweep entry");

    // Deadline curve: what accuracy a latency budget actually buys.
    // Fresh engines solve under sample budgets of ⅛, ¼ and ½ of the full
    // target through `solve_within`; the full-target reference solution
    // is the curve's last point. Each point records the samples the
    // budget bought and the honest ε they certify — achieved ε must
    // shrink monotonically as the budget grows (the CI json gate).
    let curve_threads = *opts.threads.iter().max().unwrap();
    let mut curve_json: Vec<String> = Vec::new();
    for denom in [8u64, 4, 2] {
        let budget_samples = (opts.samples / denom).max(1);
        let mut engine = build_engine(&g, &seeds, &opts, curve_threads);
        let solution = engine
            .solve_within(
                &Algorithm::PrrBoost,
                &Budget::unlimited().max_samples(budget_samples),
            )
            .expect("budgeted solve");
        assert!(
            solution.stats.interrupted,
            "a {budget_samples}-sample budget under a {}-sample target must interrupt",
            opts.samples
        );
        let eps = solution
            .stats
            .achieved_epsilon
            .expect("budgeted PRR solve certifies an ε");
        eprintln!(
            "deadline curve [budget {budget_samples}]: {} samples in {:.2}s, achieved ε {:.4}",
            solution.stats.total_samples, solution.stats.build_secs, eps,
        );
        curve_json.push(format!(
            "    {{ \"budget_samples\": {}, \"samples\": {}, \"achieved_epsilon\": {:.6}, \
             \"interrupted\": true, \"build_secs\": {:.4} }}",
            budget_samples, solution.stats.total_samples, eps, solution.stats.build_secs,
        ));
    }
    let full_eps = ref_solution
        .stats
        .achieved_epsilon
        .expect("full PRR solve certifies an ε");
    curve_json.push(format!(
        "    {{ \"budget_samples\": {}, \"samples\": {}, \"achieved_epsilon\": {:.6}, \
         \"interrupted\": false, \"build_secs\": {:.4} }}",
        opts.samples, ref_solution.stats.total_samples, full_eps, ref_solution.stats.build_secs,
    ));

    let delta_hat = ref_solution.delta_hat.expect("PRR solve carries Δ̂");
    let ref_pool = ref_engine.pool().expect("reference pool");
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                "    {{ \"threads\": {}, \"build_secs\": {:.4}, \
                 \"build_samples_per_sec\": {:.1}, \"build_peak_bytes\": {}, \
                 \"select_secs\": {:.4} }}",
                p.threads, p.build_secs, p.build_samples_per_sec, p.build_peak_bytes, p.select_secs,
            )
        })
        .collect();
    // The 1-thread sweep point (the full-target kernel run) is the
    // headline kernel throughput; fall back to the capped A/B measurement
    // when 1 isn't in the sweep.
    let samples_per_sec_kernel = sweep
        .iter()
        .find(|p| p.threads == 1)
        .map_or(ab_kernel_rate, |p| p.build_samples_per_sec);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let json = format!(
        "{{\n  \"nodes\": {},\n  \"edges\": {},\n  \"num_seeds\": {},\n  \"k\": {},\n  \
         \"seed\": {},\n  \"nproc\": {},\n  \"single_core\": {},\n  \"samples\": {},\n  \
         \"boostable\": {},\n  \"arena_edges\": {},\n  \
         \"arena_bytes\": {},\n  \"delta_hat\": {:.4},\n  \
         \"samples_per_sec_kernel\": {:.1},\n  \"kernel_speedup\": {:.4},\n  \
         \"thread_sweep\": [\n{}\n  ],\n  \
         \"deadline_curve\": [\n{}\n  ]\n}}\n",
        g.num_nodes(),
        g.num_edges(),
        seeds.len(),
        opts.k,
        opts.seed,
        nproc,
        nproc == 1,
        ref_pool.total_samples(),
        ref_pool.num_boostable(),
        ref_pool.arena().total_edges(),
        ref_pool.memory_bytes(),
        delta_hat,
        samples_per_sec_kernel,
        kernel_speedup,
        sweep_json.join(",\n"),
        curve_json.join(",\n"),
    );
    std::fs::write(&opts.out, &json).expect("write BENCH_prr.json");
    println!("{json}");
    eprintln!("wrote {}", opts.out);
}
