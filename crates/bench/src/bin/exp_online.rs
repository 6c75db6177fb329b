//! Perf + correctness harness for the online maintenance subsystem,
//! driven through the unified `kboost-engine` API.
//!
//! Builds an engine in online mode (fixed-size sampling) over a
//! preferential-attachment network, then applies a sequence of mutation
//! epochs through `Engine::apply_mutations`. Each epoch's batch is grown
//! (probability re-draws, removals, insertions on random edges) until it
//! invalidates ≈ `--churn` of the live stored graphs — sized with the
//! engine's `stale_graphs` dry run, which the maintainer now answers
//! from its **incrementally maintained** invalidation index — and is
//! then applied two ways:
//!
//! * **incrementally** (the engine's maintainer: tombstone the stale
//!   share, resample exactly that many samples under the
//!   `(base_seed, epoch, chunk)` seeds, compact past the threshold);
//! * **full rebuild** (a fresh engine over the mutated graph — what a
//!   pre-online deployment would do on every change).
//!
//! The recorded `speedup` is `rebuild_secs / refresh_secs` per epoch.
//! Note on comparability with pre-PR-4 numbers: the maintainer's
//! invalidation index is now built lazily and kept incrementally, so a
//! post-compaction rebuild lands in the first *dry run* that needs it
//! (the untimed `grow_batch` sizing phase here) rather than inside the
//! timed `apply_mutations` — `refresh_secs` therefore measures
//! tombstone + resample + index append, which is also what a service
//! that dry-runs its batches pays on the epoch path.
//! Because staleness detection only sees retained node tables, the
//! incremental pool drifts from a fresh pool's distribution on the
//! undetected share; `probe_delta_incremental` vs `probe_delta_rebuild`
//! records that drift on a *fixed* probe set: the epoch-0 PRR-Boost
//! selection, held for the whole run. Each epoch's own greedy pick is
//! still reported as `delta_hat_selected`. The probe was chosen on the
//! epoch-0 samples, which the incremental pool keeps and a fresh pool does
//! not, so selection bias is part of the recorded gap. Unlike a set of
//! top in-degree nodes, its `Δ̂` is far from 0, so the drift gates below
//! compare non-zero values; each leg asserts that where it relies on it.
//!
//! The binary is also the CI determinism smoke for the subsystem: for
//! every thread count in `--threads` the whole epoch sequence is re-run
//! and must produce bit-identical arenas and epoch reports, and the
//! first thread count is additionally checked byte-for-byte against the
//! naive replay oracle (`rebuild_from_history` — incremental == rebuild).
//!
//! After the approximate phase (whose recorded numbers are a pure
//! function of the seeds and therefore stay bit-identical across
//! footprint-free code changes), the **same mutation history** is
//! replayed in `Staleness::Exact` mode: per epoch the exact engine's
//! probe `Δ̂` (`delta_hat_incremental`) is compared against a
//! from-scratch exact replay of the history prefix
//! (`delta_hat_rebuild`, asserted > 0 at the first refresh) — the recorded
//! `drift` is asserted to be **exactly zero** (the arenas are byte-equal),
//! the approximate pool's residual drift against the same ground truth is
//! recorded as `drift_approximate`, and the footprint columns' memory
//! overhead is reported. The exact run is also re-executed at every thread count
//! and must be bit-identical.
//!
//! Two further phases cover the production staleness tiers:
//!
//! * **Memory tiers** — the same history under `ExactCompressed`
//!   (verdicts asserted identical to sorted exact, bytes asserted
//!   never above sorted) and `ExactHybrid { bloom_above: 16 }`
//!   (never-miss asserted; peak footprint bytes asserted under a hard
//!   40 MiB budget at the default scale), per-epoch byte curves in
//!   `memory_tiers`.
//! * **Trace tier** — `ExactTrace` at a reduced pool size: each epoch's
//!   conditional replay must stay byte-equal to the from-scratch trace
//!   replay of the history prefix (`drift` asserted exactly zero, on a
//!   probe whose rebuild `Δ̂` is asserted > 0), and the probe gap against
//!   an independent fresh pool over the mutated graph is recorded as
//!   `freshness_gap` (the statistical freshness assert lives in
//!   `tests/estimator_accuracy.rs`).
//!
//! ```text
//! cargo run --release -p kboost-bench --bin exp_online -- \
//!     [--nodes N] [--samples N] [--k N] [--epochs N] [--churn F] \
//!     [--threads 1,2] [--seed N] [--compact-threshold F] [--out PATH]
//! ```

use std::time::Instant;

use kboost_engine::{
    Algorithm, Engine, EngineBuilder, EpochBatch, MutationLog, Sampling, Staleness,
};
use kboost_graph::generators::preferential_attachment;
use kboost_graph::probability::{boost_probability, ProbabilityModel};
use kboost_graph::{DiGraph, EdgeProbs, NodeId};
use kboost_online::{rebuild_from_history, MaintainerOptions};
use kboost_prr::greedy_delta_selection;
use kboost_rrset::seeds::select_random_nodes;
use kboost_rrset::sketch::epoch_stream_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct OnlineOpts {
    nodes: usize,
    samples: u64,
    k: usize,
    epochs: u64,
    churn: f64,
    threads: Vec<usize>,
    seed: u64,
    compact_threshold: f64,
    out: String,
}

fn parse_args() -> OnlineOpts {
    let mut opts = OnlineOpts {
        nodes: 20_000,
        samples: 40_000,
        k: 50,
        epochs: 3,
        churn: 0.10,
        threads: vec![1, 2],
        seed: 42,
        compact_threshold: 0.25,
        out: "BENCH_online.json".to_string(),
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
            "--epochs" => opts.epochs = next(&mut i).parse().expect("--epochs N"),
            "--churn" => opts.churn = next(&mut i).parse().expect("--churn F"),
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
            "--compact-threshold" => {
                opts.compact_threshold = next(&mut i).parse().expect("--compact-threshold F")
            }
            "--out" => opts.out = next(&mut i),
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    opts
}

/// An online-mode engine over `g` — the maintainer behind one handle.
fn build_engine(g: &DiGraph, seeds: &[NodeId], opts: &OnlineOpts, threads: usize) -> Engine {
    build_engine_mode(g, seeds, opts, threads, Staleness::Approximate)
}

/// Same, with an explicit staleness rule (the exact phase).
fn build_engine_mode(
    g: &DiGraph,
    seeds: &[NodeId],
    opts: &OnlineOpts,
    threads: usize,
    staleness: Staleness,
) -> Engine {
    EngineBuilder::new(g.clone())
        .seeds(seeds.to_vec())
        .k(opts.k)
        .threads(threads)
        .seed(opts.seed)
        .sampling(Sampling::Fixed {
            samples: opts.samples,
        })
        .compact_threshold(opts.compact_threshold)
        .staleness(staleness)
        .build()
        .expect("valid engine configuration")
}

/// Grows a mutation batch on random edges of `g` until it invalidates at
/// least `churn` of the engine's live stored graphs (or a mutation budget
/// runs out). Deterministic in `rng`.
fn grow_batch(
    engine: &mut Engine,
    g: &DiGraph,
    log: &mut MutationLog,
    churn: f64,
    rng: &mut SmallRng,
) {
    let live = engine.pool().expect("pool built").arena().num_live();
    let want = ((live as f64) * churn).ceil() as usize;
    let edges: Vec<(NodeId, NodeId, EdgeProbs)> = g.edges().collect();
    let n = g.num_nodes() as u32;
    // Grow geometrically between dry runs; the incremental invalidation
    // index makes each dry run cheap (`O(touched + hits)`), but doubling
    // still keeps the untimed setup phase short.
    let mut step = 8usize;
    for _ in 0..64 {
        if engine
            .stale_graphs(log.pending())
            .expect("online mode")
            .len()
            >= want
        {
            break;
        }
        for _ in 0..step {
            match rng.random_range(0..4u32) {
                0 if !edges.is_empty() => {
                    // Remove a random existing edge.
                    let (u, v, _) = edges[rng.random_range(0..edges.len())];
                    log.remove_edge(u, v);
                }
                1 => {
                    // Insert a random fresh edge.
                    let u = rng.random_range(0..n);
                    let v = rng.random_range(0..n);
                    if u == v {
                        continue;
                    }
                    let p: f64 = rng.random_range(0.01..0.2);
                    log.insert_edge(
                        NodeId(u),
                        NodeId(v),
                        EdgeProbs::new(p, boost_probability(p, 2.0)).unwrap(),
                    );
                }
                _ if !edges.is_empty() => {
                    // Re-draw an existing edge's probability (fresh action
                    // logs): the most common production mutation.
                    let (u, v, _) = edges[rng.random_range(0..edges.len())];
                    let p: f64 = rng.random_range(0.01..0.3);
                    log.set_probs(u, v, EdgeProbs::new(p, boost_probability(p, 2.0)).unwrap());
                }
                _ => {}
            }
        }
        step = (step * 2).min(4_096);
    }
}

struct EpochPoint {
    epoch: u64,
    mutations: usize,
    invalidated: u64,
    invalidation_rate: f64,
    compacted: bool,
    refresh_secs: f64,
    rebuild_secs: f64,
    speedup: f64,
    live_bytes: usize,
    arena_bytes: usize,
    delta_selected: f64,
    probe_inc: f64,
    probe_rebuild: f64,
}

/// Full-rebuild baseline: a fresh engine sampling the whole pool over the
/// current graph (epoch-seeded so each baseline is an independent draw).
fn full_rebuild(
    g: &DiGraph,
    seeds: &[NodeId],
    opts: &OnlineOpts,
    epoch: u64,
    threads: usize,
) -> Engine {
    let mut engine = EngineBuilder::new(g.clone())
        .seeds(seeds.to_vec())
        .k(opts.k)
        .threads(threads)
        .seed(epoch_stream_seed(opts.seed ^ 0x5EED_F00D, epoch))
        .sampling(Sampling::Fixed {
            samples: opts.samples,
        })
        .build()
        .expect("valid engine configuration");
    engine.pool().expect("pool built");
    engine
}

fn main() {
    let opts = parse_args();

    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let g0 = preferential_attachment(
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
    let seeds = select_random_nodes(&g0, 50.min(opts.nodes / 4), &[], opts.seed ^ 0x5EED);
    eprintln!(
        "graph: {} nodes, {} edges; {} seeds, k = {}, {} samples, {} epochs at {:.0}% churn, \
         thread sweep {:?}",
        g0.num_nodes(),
        g0.num_edges(),
        seeds.len(),
        opts.k,
        opts.samples,
        opts.epochs,
        opts.churn * 100.0,
        opts.threads,
    );

    // The mutation history is fixed once (primary thread count) and then
    // replayed identically for every other thread count and the oracle.
    let primary = opts.threads[0];

    let t0 = Instant::now();
    let mut engine = build_engine(&g0, &seeds, &opts, primary);
    engine.pool().expect("pool built");
    let build_secs = t0.elapsed().as_secs_f64();
    let boostable0 = engine.pool().expect("pool built").num_boostable();
    eprintln!(
        "[epoch 0] built {} samples ({boostable0} boostable) in {build_secs:.2}s",
        engine.pool().expect("pool built").total_samples(),
    );
    // Every leg probes the epoch-0 PRR-Boost selection. Solving reads the
    // pool and leaves it untouched, so the epoch sequence is unchanged.
    let probe = engine.solve(&Algorithm::PrrBoost).expect("solve").boost_set;

    let mut log = MutationLog::new();
    let mut mut_rng = SmallRng::seed_from_u64(opts.seed ^ 0xC0FFEE);
    let mut history: Vec<EpochBatch> = Vec::new();
    let mut points: Vec<EpochPoint> = Vec::new();
    let mut reports = Vec::new();

    for _ in 0..opts.epochs {
        let g = engine.graph().clone();
        grow_batch(&mut engine, &g, &mut log, opts.churn, &mut mut_rng);
        let batch = log.seal_epoch();

        let live_before = engine.pool().expect("pool built").arena().num_live();
        let t = Instant::now();
        let report = engine.apply_mutations(&batch).expect("contiguous epoch");
        let refresh_secs = t.elapsed().as_secs_f64();

        // Baseline: what a pre-online deployment pays for the same change.
        let t = Instant::now();
        let mut rebuilt = full_rebuild(engine.graph(), &seeds, &opts, report.epoch, primary);
        let rebuild_secs = t.elapsed().as_secs_f64();

        let selection = engine.solve(&Algorithm::PrrBoost).expect("solve");
        let delta_selected = selection.delta_hat.expect("PRR solve carries Δ̂");
        let probe_inc = engine.delta_hat(&probe).expect("pool built");
        let probe_rebuild = rebuilt.delta_hat(&probe).expect("pool built");

        let rate = report.invalidated as f64 / live_before.max(1) as f64;
        eprintln!(
            "[epoch {}] {} mutations invalidated {} graphs ({:.1}% of live): \
             refresh {refresh_secs:.2}s vs rebuild {rebuild_secs:.2}s → {:.1}x; \
             probe Δ̂ {probe_inc:.2} vs fresh {probe_rebuild:.2}{}",
            report.epoch,
            batch.mutations.len(),
            report.invalidated,
            rate * 100.0,
            rebuild_secs / refresh_secs.max(1e-9),
            if report.compacted { "; compacted" } else { "" },
        );
        points.push(EpochPoint {
            epoch: report.epoch,
            mutations: batch.mutations.len(),
            invalidated: report.invalidated,
            invalidation_rate: rate,
            compacted: report.compacted,
            refresh_secs,
            rebuild_secs,
            speedup: rebuild_secs / refresh_secs.max(1e-9),
            live_bytes: engine
                .pool()
                .expect("pool built")
                .arena()
                .live_memory_bytes(),
            arena_bytes: engine.pool().expect("pool built").arena().memory_bytes(),
            delta_selected,
            probe_inc,
            probe_rebuild,
        });
        history.push(batch);
        reports.push(report);
    }
    let final_selection = engine.solve(&Algorithm::PrrBoost).expect("solve");

    // Determinism: every other thread count must reproduce the primary
    // run's arena bytes (tombstones included) and epoch reports.
    for &threads in &opts.threads[1..] {
        let mut m = build_engine(&g0, &seeds, &opts, threads);
        for (batch, expect) in history.iter().zip(&reports) {
            let report = m.apply_mutations(batch).expect("contiguous epoch");
            assert_eq!(
                &report, expect,
                "epoch report differs at {threads} threads (epoch {})",
                batch.epoch
            );
        }
        assert!(
            m.pool().expect("pool built").arena() == engine.pool().expect("pool built").arena(),
            "maintained arena differs at {threads} threads vs {primary}"
        );
        let sel = m.solve(&Algorithm::PrrBoost).expect("solve");
        assert_eq!(
            sel.boost_set, final_selection.boost_set,
            "selection differs at {threads} threads"
        );
        eprintln!("[determinism] {threads} threads: bit-identical to {primary}-thread run");
    }

    // Equivalence oracle: incremental == from-scratch replay (legacy
    // payload pipeline, naive staleness scan, no tombstones) — the deep
    // module path kept precisely for this role.
    let oracle_opts = MaintainerOptions {
        target_samples: opts.samples,
        k: opts.k,
        threads: primary,
        base_seed: opts.seed,
        compact_threshold: opts.compact_threshold,
        staleness: Staleness::Approximate,
    };
    let t = Instant::now();
    let (_g, oracle) = rebuild_from_history(&g0, &seeds, &oracle_opts, &history);
    let oracle_secs = t.elapsed().as_secs_f64();
    let pool = engine.pool().expect("pool built");
    assert_eq!(oracle.total_samples(), pool.total_samples());
    assert_eq!(oracle.empty_samples(), pool.empty_samples());
    assert!(
        pool.arena().compacted() == *oracle.arena(),
        "incremental maintenance diverged from the replay rebuild oracle"
    );
    let oracle_selection = greedy_delta_selection(oracle.arena(), g0.num_nodes(), opts.k, primary);
    assert_eq!(
        final_selection.boost_set, oracle_selection.selected,
        "selection diverged from the replay rebuild oracle"
    );
    assert_eq!(final_selection.stats.covered, oracle_selection.covered);
    eprintln!("[oracle] incremental == rebuild (replay verified in {oracle_secs:.2}s)");

    // ---- Exact-staleness phase: same history, drift must be zero -----
    let exact_opts = MaintainerOptions {
        staleness: Staleness::Exact,
        ..oracle_opts
    };
    let t = Instant::now();
    let mut exact_engine = build_engine_mode(&g0, &seeds, &opts, primary, Staleness::Exact);
    exact_engine.pool().expect("pool built");
    let exact_build_secs = t.elapsed().as_secs_f64();
    let sorted_fp0 = {
        let arena = exact_engine.pool().expect("pool built").arena();
        eprintln!(
            "[exact epoch 0] built in {exact_build_secs:.2}s; footprints {} KiB over a {} KiB \
             arena ({:.1}% overhead)",
            arena.footprint_memory_bytes() / 1024,
            arena.memory_bytes() / 1024,
            100.0 * arena.footprint_memory_bytes() as f64 / arena.memory_bytes().max(1) as f64,
        );
        arena.footprint_memory_bytes()
    };

    struct ExactPoint {
        epoch: u64,
        invalidated: u64,
        invalidated_empty: u64,
        refresh_secs: f64,
        oracle_secs: f64,
        footprint_bytes: usize,
        footprint_overhead: f64,
        delta_inc: f64,
        delta_rebuild: f64,
        drift: f64,
        drift_approx: f64,
    }
    let mut exact_points: Vec<ExactPoint> = Vec::new();
    let mut exact_reports = Vec::new();
    for (i, batch) in history.iter().enumerate() {
        let t = Instant::now();
        let report = exact_engine
            .apply_mutations(batch)
            .expect("contiguous epoch");
        let refresh_secs = t.elapsed().as_secs_f64();

        // Ground truth: from-scratch exact replay of the history prefix.
        let t = Instant::now();
        let (_g, rebuilt) = rebuild_from_history(&g0, &seeds, &exact_opts, &history[..=i]);
        let exact_oracle_secs = t.elapsed().as_secs_f64();
        {
            let pool = exact_engine.pool().expect("pool built");
            assert_eq!(pool.total_samples(), rebuilt.total_samples());
            assert_eq!(pool.empty_samples(), rebuilt.empty_samples());
            assert!(
                pool.arena().compacted() == *rebuilt.arena(),
                "exact incremental diverged from the exact replay at epoch {}",
                report.epoch
            );
        }
        let delta_inc = exact_engine.delta_hat(&probe).expect("pool built");
        let delta_rebuild = rebuilt.delta_hat(&probe);
        // This tier redraws invalidated samples unconditionally, so its pool
        // sheds the large-footprint boostable samples the probe was chosen
        // on: at the CI smoke scale the probe's Δ̂ reaches 0 at epoch 2. The
        // first refresh is where this gate must compare non-zero values.
        if i == 0 {
            assert!(
                delta_rebuild > 0.0,
                "exact epoch {}: probe Δ̂ is 0, so the drift gate would compare 0 with 0",
                report.epoch
            );
        }
        let drift = (delta_inc - delta_rebuild).abs();
        assert_eq!(
            drift, 0.0,
            "exact staleness must have zero incremental-vs-rebuild drift"
        );
        // The approximate phase probed the same (graph, seeds, k) set at
        // this epoch; its residual gap against the exact ground truth is
        // the under-detection the exact mode closes.
        let drift_approx = (points[i].probe_inc - delta_rebuild).abs();
        let arena = exact_engine.pool().expect("pool built").arena();
        let footprint_bytes = arena.footprint_memory_bytes();
        let footprint_overhead = footprint_bytes as f64 / arena.memory_bytes().max(1) as f64;
        eprintln!(
            "[exact epoch {}] invalidated {} ({} empty) in {refresh_secs:.2}s; \
             Δ̂ {delta_inc:.2} == rebuild {delta_rebuild:.2} (drift 0); \
             approximate pool drifts {drift_approx:.2}",
            report.epoch, report.invalidated, report.invalidated_empty,
        );
        exact_points.push(ExactPoint {
            epoch: report.epoch,
            invalidated: report.invalidated,
            invalidated_empty: report.invalidated_empty,
            refresh_secs,
            oracle_secs: exact_oracle_secs,
            footprint_bytes,
            footprint_overhead,
            delta_inc,
            delta_rebuild,
            drift,
            drift_approx,
        });
        exact_reports.push(report);
    }

    // Exact-mode thread determinism: bit-identical reports and arenas.
    for &threads in &opts.threads[1..] {
        let mut m = build_engine_mode(&g0, &seeds, &opts, threads, Staleness::Exact);
        for (batch, expect) in history.iter().zip(&exact_reports) {
            let report = m.apply_mutations(batch).expect("contiguous epoch");
            assert_eq!(
                &report, expect,
                "exact epoch report differs at {threads} threads (epoch {})",
                batch.epoch
            );
        }
        assert!(
            m.pool().expect("pool built").arena()
                == exact_engine.pool().expect("pool built").arena(),
            "exact maintained arena differs at {threads} threads vs {primary}"
        );
        eprintln!("[exact determinism] {threads} threads: bit-identical to {primary}-thread run");
    }

    // ---- Memory tiers: compressed + hybrid footprints, same history ---
    //
    // Each tier replays the identical epoch sequence and records its
    // footprint bytes per epoch (index 0 = the initial build). The
    // compressed tier must answer bit-identically to sorted exact
    // storage (same epoch reports) while never spending more footprint
    // bytes; the hybrid tier caps the heavy tail with fingerprints and
    // must stay under a hard byte budget at the default scale.
    const HYBRID_BLOOM_ABOVE: u32 = 16;
    const HYBRID_CAP_BYTES: usize = 40 * 1024 * 1024;
    let run_tier = |staleness: Staleness| -> (f64, Vec<usize>, Vec<kboost_online::EpochReport>) {
        let t = Instant::now();
        let mut m = build_engine_mode(&g0, &seeds, &opts, primary, staleness);
        m.pool().expect("pool built");
        let build_secs = t.elapsed().as_secs_f64();
        let mut bytes = vec![m
            .pool()
            .expect("pool built")
            .arena()
            .footprint_memory_bytes()];
        let mut tier_reports = Vec::new();
        for batch in &history {
            let report = m.apply_mutations(batch).expect("contiguous epoch");
            bytes.push(
                m.pool()
                    .expect("pool built")
                    .arena()
                    .footprint_memory_bytes(),
            );
            tier_reports.push(report);
        }
        (build_secs, bytes, tier_reports)
    };
    let sorted_bytes: Vec<usize> = std::iter::once(sorted_fp0)
        .chain(exact_points.iter().map(|p| p.footprint_bytes))
        .collect();
    let (compressed_build_secs, compressed_bytes, compressed_reports) =
        run_tier(Staleness::ExactCompressed);
    for (i, (report, expect)) in compressed_reports.iter().zip(&exact_reports).enumerate() {
        assert_eq!(
            report,
            expect,
            "compressed tier verdicts diverged from sorted exact at epoch {}",
            i + 1
        );
    }
    for (i, (&c, &s)) in compressed_bytes.iter().zip(&sorted_bytes).enumerate() {
        assert!(
            c <= s,
            "compressed footprints ({c} B) exceed sorted ({s} B) at epoch {i}"
        );
    }
    let (hybrid_build_secs, hybrid_bytes, hybrid_reports) = run_tier(Staleness::ExactHybrid {
        bloom_above: HYBRID_BLOOM_ABOVE,
    });
    // Never-miss is a per-query property against a shared pool state;
    // the pools only coincide before the first refresh (the epoch-0
    // build is footprint-mode-independent), so the count comparison is
    // meaningful at epoch 1 alone — after an over-refresh the hybrid
    // pool's sample population diverges. The per-query guarantee across
    // arbitrary states is property-tested in `footprint_properties`.
    if let (Some(report), Some(expect)) = (hybrid_reports.first(), exact_reports.first()) {
        assert!(
            report.invalidated >= expect.invalidated,
            "hybrid tier under-detected stale samples at epoch 1"
        );
    }
    let hybrid_peak = hybrid_bytes.iter().copied().max().unwrap_or(0);
    assert!(
        hybrid_peak <= HYBRID_CAP_BYTES,
        "hybrid footprints peak at {hybrid_peak} B, over the {HYBRID_CAP_BYTES} B budget"
    );
    eprintln!(
        "[memory tiers] footprint bytes per epoch — sorted {:?}, compressed {:?}, hybrid {:?} \
         (peak {:.1} MiB ≤ {} MiB budget)",
        sorted_bytes,
        compressed_bytes,
        hybrid_bytes,
        hybrid_peak as f64 / (1024.0 * 1024.0),
        HYBRID_CAP_BYTES / (1024 * 1024),
    );

    // ---- Trace tier: conditional replay, distribution-fresh ----------
    //
    // Retaining phase-I coin outcomes costs trace bytes per sample, so
    // the freshness leg runs at a reduced pool size. Per epoch the
    // replayed pool must stay byte-equal to the from-scratch trace
    // replay of the history prefix (zero drift); the probe gap against
    // an *independent* fresh pool over the mutated graph is recorded as
    // `freshness_gap` (stochastic — asserted statistically in
    // `tests/estimator_accuracy.rs`, recorded here for trend tracking).
    let trace_samples = (opts.samples / 8).max(1_000);
    let trace_opts = MaintainerOptions {
        target_samples: trace_samples,
        staleness: Staleness::ExactTrace,
        ..oracle_opts
    };
    let t = Instant::now();
    let mut trace_engine = EngineBuilder::new(g0.clone())
        .seeds(seeds.to_vec())
        .k(opts.k)
        .threads(primary)
        .seed(opts.seed)
        .sampling(Sampling::Fixed {
            samples: trace_samples,
        })
        .compact_threshold(opts.compact_threshold)
        .staleness(Staleness::ExactTrace)
        .build()
        .expect("valid engine configuration");
    trace_engine.pool().expect("pool built");
    let trace_build_secs = t.elapsed().as_secs_f64();

    struct TracePoint {
        epoch: u64,
        invalidated: u64,
        invalidated_empty: u64,
        replay_secs: f64,
        footprint_bytes: usize,
        delta_inc: f64,
        delta_rebuild: f64,
        drift: f64,
        probe_fresh: f64,
        freshness_gap: f64,
    }
    let mut trace_points: Vec<TracePoint> = Vec::new();
    for (i, batch) in history.iter().enumerate() {
        let t = Instant::now();
        let report = trace_engine
            .apply_mutations(batch)
            .expect("contiguous epoch");
        let replay_secs = t.elapsed().as_secs_f64();

        let (_g, rebuilt) = rebuild_from_history(&g0, &seeds, &trace_opts, &history[..=i]);
        {
            let pool = trace_engine.pool().expect("pool built");
            assert_eq!(pool.total_samples(), rebuilt.total_samples());
            assert_eq!(pool.empty_samples(), rebuilt.empty_samples());
            assert!(
                pool.arena().compacted() == *rebuilt.arena(),
                "trace replay diverged from the trace rebuild oracle at epoch {}",
                report.epoch
            );
        }
        let delta_inc = trace_engine.delta_hat(&probe).expect("pool built");
        let delta_rebuild = rebuilt.delta_hat(&probe);
        assert!(
            delta_rebuild > 0.0,
            "trace epoch {}: probe Δ̂ is 0, so the drift and freshness gates would compare 0 with 0",
            report.epoch
        );
        let drift = (delta_inc - delta_rebuild).abs();
        assert_eq!(drift, 0.0, "trace tier must have zero replay drift");

        // Independent fresh pool over the mutated graph, same size.
        let mut fresh = EngineBuilder::new(trace_engine.graph().clone())
            .seeds(seeds.to_vec())
            .k(opts.k)
            .threads(primary)
            .seed(epoch_stream_seed(opts.seed ^ 0xF4E5, report.epoch))
            .sampling(Sampling::Fixed {
                samples: trace_samples,
            })
            .build()
            .expect("valid engine configuration");
        let probe_fresh = fresh.delta_hat(&probe).expect("pool built");
        let freshness_gap = (delta_inc - probe_fresh).abs();

        let footprint_bytes = trace_engine
            .pool()
            .expect("pool built")
            .arena()
            .footprint_memory_bytes();
        eprintln!(
            "[trace epoch {}] replayed {} stale ({} empty) in {replay_secs:.2}s; \
             Δ̂ {delta_inc:.2} == rebuild {delta_rebuild:.2} (drift 0); \
             fresh pool Δ̂ {probe_fresh:.2} (gap {freshness_gap:.2})",
            report.epoch, report.invalidated, report.invalidated_empty,
        );
        trace_points.push(TracePoint {
            epoch: report.epoch,
            invalidated: report.invalidated,
            invalidated_empty: report.invalidated_empty,
            replay_secs,
            footprint_bytes,
            delta_inc,
            delta_rebuild,
            drift,
            probe_fresh,
            freshness_gap,
        });
    }
    let trace_max_drift = trace_points.iter().map(|p| p.drift).fold(0.0f64, f64::max);

    let mean_speedup = points.iter().map(|p| p.speedup).sum::<f64>() / points.len().max(1) as f64;
    let min_speedup = points
        .iter()
        .map(|p| p.speedup)
        .fold(f64::INFINITY, f64::min);
    let epoch_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{ \"epoch\": {}, \"mutations\": {}, \"invalidated\": {}, \
                 \"invalidation_rate\": {:.4}, \"compacted\": {}, \"refresh_secs\": {:.4}, \
                 \"rebuild_secs\": {:.4}, \"speedup\": {:.2}, \"live_bytes\": {}, \
                 \"arena_bytes\": {}, \"delta_hat_selected\": {:.4}, \
                 \"probe_delta_incremental\": {:.4}, \"probe_delta_rebuild\": {:.4} }}",
                p.epoch,
                p.mutations,
                p.invalidated,
                p.invalidation_rate,
                p.compacted,
                p.refresh_secs,
                p.rebuild_secs,
                p.speedup,
                p.live_bytes,
                p.arena_bytes,
                p.delta_selected,
                p.probe_inc,
                p.probe_rebuild,
            )
        })
        .collect();
    let exact_epoch_json: Vec<String> = exact_points
        .iter()
        .map(|p| {
            format!(
                "      {{ \"epoch\": {}, \"invalidated\": {}, \"invalidated_empty\": {}, \
                 \"refresh_secs\": {:.4}, \"rebuild_oracle_secs\": {:.4}, \
                 \"footprint_bytes\": {}, \"footprint_overhead\": {:.4}, \
                 \"delta_hat_incremental\": {:.4}, \"delta_hat_rebuild\": {:.4}, \
                 \"drift\": {:.4}, \"drift_approximate\": {:.4} }}",
                p.epoch,
                p.invalidated,
                p.invalidated_empty,
                p.refresh_secs,
                p.oracle_secs,
                p.footprint_bytes,
                p.footprint_overhead,
                p.delta_inc,
                p.delta_rebuild,
                p.drift,
                p.drift_approx,
            )
        })
        .collect();
    let max_drift = exact_points.iter().map(|p| p.drift).fold(0.0f64, f64::max);
    let max_drift_approx = exact_points
        .iter()
        .map(|p| p.drift_approx)
        .fold(0.0f64, f64::max);
    let trace_epoch_json: Vec<String> = trace_points
        .iter()
        .map(|p| {
            format!(
                "      {{ \"epoch\": {}, \"invalidated\": {}, \"invalidated_empty\": {}, \
                 \"replay_secs\": {:.4}, \"footprint_bytes\": {}, \
                 \"delta_hat_incremental\": {:.4}, \"delta_hat_rebuild\": {:.4}, \
                 \"drift\": {:.4}, \"probe_delta_fresh\": {:.4}, \"freshness_gap\": {:.4} }}",
                p.epoch,
                p.invalidated,
                p.invalidated_empty,
                p.replay_secs,
                p.footprint_bytes,
                p.delta_inc,
                p.delta_rebuild,
                p.drift,
                p.probe_fresh,
                p.freshness_gap,
            )
        })
        .collect();
    let memory_tiers_json = format!(
        "{{\n    \"hybrid_bloom_above\": {HYBRID_BLOOM_ABOVE},\n    \
         \"hybrid_cap_bytes\": {HYBRID_CAP_BYTES},\n    \
         \"compressed_build_secs\": {compressed_build_secs:.4},\n    \
         \"hybrid_build_secs\": {hybrid_build_secs:.4},\n    \
         \"sorted_bytes\": {sorted_bytes:?},\n    \
         \"compressed_bytes\": {compressed_bytes:?},\n    \
         \"hybrid_bytes\": {hybrid_bytes:?}\n  }}"
    );
    // Box context: a 1-core box makes any thread sweep meaningless, so
    // the JSON must say so (CI gates the presence of these fields).
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let json = format!(
        "{{\n  \"nodes\": {},\n  \"edges\": {},\n  \"num_seeds\": {},\n  \"k\": {},\n  \
         \"seed\": {},\n  \"nproc\": {},\n  \"single_core\": {},\n  \"samples\": {},\n  \
         \"churn_target\": {:.2},\n  \
         \"compact_threshold\": {:.2},\n  \"threads\": {:?},\n  \"build_secs\": {:.4},\n  \
         \"boostable_epoch0\": {},\n  \"mean_speedup\": {:.2},\n  \"min_speedup\": {:.2},\n  \
         \"epochs\": [\n{}\n  ],\n  \"exact\": {{\n    \"staleness\": \"exact\",\n    \
         \"build_secs\": {:.4},\n    \"max_drift\": {:.4},\n    \
         \"max_drift_approximate\": {:.4},\n    \"epochs\": [\n{}\n    ]\n  }},\n  \
         \"memory_tiers\": {},\n  \"trace\": {{\n    \"staleness\": \"exact_trace\",\n    \
         \"samples\": {},\n    \"build_secs\": {:.4},\n    \"max_drift\": {:.4},\n    \
         \"epochs\": [\n{}\n    ]\n  }}\n}}\n",
        g0.num_nodes(),
        g0.num_edges(),
        seeds.len(),
        opts.k,
        opts.seed,
        nproc,
        nproc == 1,
        opts.samples,
        opts.churn,
        opts.compact_threshold,
        opts.threads,
        build_secs,
        boostable0,
        mean_speedup,
        min_speedup,
        epoch_json.join(",\n"),
        exact_build_secs,
        max_drift,
        max_drift_approx,
        exact_epoch_json.join(",\n"),
        memory_tiers_json,
        trace_samples,
        trace_build_secs,
        trace_max_drift,
        trace_epoch_json.join(",\n"),
    );
    assert_eq!(max_drift, 0.0, "recorded exact-mode drift must be zero");
    assert_eq!(
        trace_max_drift, 0.0,
        "recorded trace-replay drift must be zero"
    );
    std::fs::write(&opts.out, &json).expect("write BENCH_online.json");
    println!("{json}");
    eprintln!("wrote {}", opts.out);
}
