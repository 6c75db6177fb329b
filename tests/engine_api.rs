//! The unified engine API's contracts, end to end:
//!
//! * **equivalence** — selections through `Engine` are bit-identical to
//!   the legacy hand-wired pipeline (`SketchPool → PrrPool →
//!   greedy_delta_selection`, and `prr_boost` for the full Algorithm 2)
//!   for the same `(seed, targets, k)`, at 1 and 7 threads;
//! * **feasibility** — every `BoostAlgorithm` in the registry returns at
//!   most `k` distinct, in-range, non-seed nodes on random ER and
//!   set-cover-gadget instances (or a typed error, e.g. `TreeExact` on a
//!   non-tree);
//! * **validation** — `EngineBuilder::build` rejects bad configurations
//!   with a typed `KboostError::Config` naming the offending field;
//! * **online** — `Engine::apply_mutations` reproduces a hand-wired
//!   `PoolMaintainer` epoch for epoch, and rejects out-of-order epochs
//!   with `KboostError::EpochOrder` instead of panicking;
//! * **latency contract** — `solve_within(Budget::unlimited())` is
//!   bit-identical to `solve`; a sample-capped budget yields a valid
//!   partial solution flagged `interrupted` with an honest (larger)
//!   `achieved_epsilon`; a cancelled epoch rolls back byte-identically
//!   and the batch retries verbatim; the progress observer sees every
//!   poll.

use kboost::core::{prr_boost, BoostOptions, PrrPool};
use kboost::engine::{
    Algorithm, BoostAlgorithm, Budget, CancelFlag, EngineBuilder, InterruptCause, KboostError,
    MutationError, Sampling,
};
use kboost::graph::generators::{erdos_renyi, set_cover_gadget, SetCoverInstance};
use kboost::graph::probability::ProbabilityModel;
use kboost::graph::{DiGraph, EdgeProbs, NodeId};
use kboost::online::{MaintainerOptions, MutationLog, PoolMaintainer, Staleness};
use kboost::prr::{greedy_delta_selection, PrrFullSource};
use kboost::rrset::sketch::SketchPool;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn er_graph(n: usize, m: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    erdos_renyi(n, m, ProbabilityModel::Constant(0.3), 2.0, &mut rng)
}

fn gadget() -> DiGraph {
    set_cover_gadget(&SetCoverInstance {
        num_elements: 6,
        subsets: vec![
            vec![0, 1, 2],
            vec![2, 3],
            vec![3, 4, 5],
            vec![0, 5],
            vec![1, 4],
        ],
    })
}

/// The legacy hand-wired pipeline the engine must reproduce bit for bit:
/// chunk-seeded sampling to a fixed target, arena pool, indexed greedy.
fn hand_wired_pool(
    g: &DiGraph,
    seeds: &[NodeId],
    k: usize,
    threads: usize,
    target: u64,
    seed: u64,
) -> PrrPool {
    let source = PrrFullSource::new(g, seeds, k);
    let mut sketches = SketchPool::new(seed, threads);
    sketches.extend_to(&source, target);
    PrrPool::new(sketches, g.num_nodes(), threads)
}

/// Acceptance equivalence: `Engine`-selected boost sets are bit-identical
/// to the hand-wired `SketchPool → PrrPool → greedy_delta_selection`
/// path for the same `(seed, targets, k)`, at 1 and 7 threads.
#[test]
fn engine_prr_boost_bit_identical_to_hand_wired_pipeline() {
    let g = er_graph(120, 600, 5);
    let seeds = [NodeId(0), NodeId(1)];
    let (k, target, seed) = (3usize, 30_000u64, 0xDE7u64);

    for threads in [1usize, 7] {
        let pool = hand_wired_pool(&g, &seeds, k, threads, target, seed);
        let direct = greedy_delta_selection(pool.arena(), g.num_nodes(), k, threads);

        let mut engine = EngineBuilder::new(g.clone())
            .seeds(seeds)
            .k(k)
            .threads(threads)
            .seed(seed)
            .sampling(Sampling::Fixed { samples: target })
            .build()
            .unwrap();
        let solution = engine.solve(&Algorithm::PrrBoost).unwrap();

        assert_eq!(
            solution.boost_set, direct.selected,
            "engine selection differs from direct greedy at {threads} threads"
        );
        assert_eq!(solution.stats.covered, direct.covered);
        // Not just the same selection: the same pool, byte for byte.
        let engine_pool = engine.pool().unwrap();
        assert!(
            engine_pool.arena() == pool.arena(),
            "engine arena differs from the hand-wired arena at {threads} threads"
        );
        assert_eq!(engine_pool.total_samples(), pool.total_samples());
        assert_eq!(solution.delta_hat, Some(pool.delta_hat(&direct.selected)));
        assert_eq!(solution.mu_hat, Some(pool.mu_hat(&direct.selected)));
    }
}

/// Full Algorithm 2 through the engine == the hand-wired `prr_boost`,
/// IMM sizing included — B_µ, B_Δ, the sandwich choice and Δ̂.
#[test]
fn engine_sandwich_matches_prr_boost_under_imm_sampling() {
    let g = er_graph(60, 240, 11);
    let seeds = [NodeId(0)];
    let k = 2;
    let opts = BoostOptions {
        epsilon: 0.5,
        ell: 1.0,
        threads: 2,
        seed: 77,
        max_sketches: Some(60_000),
        min_sketches: 20_000,
    };
    let (outcome, pool) = prr_boost(&g, &seeds, k, &opts);

    let mut engine = EngineBuilder::new(g.clone())
        .seeds(seeds)
        .k(k)
        .epsilon(0.5)
        .ell(1.0)
        .threads(2)
        .seed(77)
        .max_sketches(60_000)
        .min_sketches(20_000)
        .build()
        .unwrap();
    let solution = engine.solve(&Algorithm::Sandwich).unwrap();

    assert_eq!(solution.boost_set, outcome.best);
    assert_eq!(solution.delta_hat, Some(outcome.estimate));
    let cert = solution.certificate.as_ref().expect("sandwich certificate");
    assert_eq!(cert.b_mu, outcome.b_mu);
    assert_eq!(cert.b_delta, outcome.b_delta);
    assert!(engine.pool().unwrap().arena() == pool.arena());
}

/// Runs every registry algorithm on `(g, seeds, k)` and checks the
/// returned set is feasible: ≤ k nodes, in range, no duplicates, no
/// seeds. `TreeExact` is allowed (expected, on non-trees) to fail with a
/// typed tree error instead.
fn assert_registry_feasible(g: &DiGraph, seeds: &[NodeId], k: usize, samples: u64) {
    let mut engine = EngineBuilder::new(g.clone())
        .seeds(seeds.to_vec())
        .k(k)
        .threads(2)
        .seed(0xFEA5)
        .sampling(Sampling::Fixed { samples })
        .max_sketches(samples)
        .build()
        .unwrap();
    let is_seed: Vec<bool> = {
        let mut m = vec![false; g.num_nodes()];
        for &s in seeds {
            m[s.index()] = true;
        }
        m
    };
    for algo in Algorithm::registry() {
        let solution = match engine.solve(&algo) {
            Ok(s) => s,
            Err(KboostError::Tree(_)) => {
                assert!(
                    matches!(algo, Algorithm::TreeExact { .. }),
                    "only TreeExact may fail with a tree error, got one from {}",
                    algo.name()
                );
                continue;
            }
            Err(e) => panic!("{} failed: {e}", algo.name()),
        };
        assert_eq!(solution.algorithm, algo.name());
        assert!(
            solution.boost_set.len() <= k,
            "{} returned {} nodes for k = {k}",
            algo.name(),
            solution.boost_set.len()
        );
        let mut seen = vec![false; g.num_nodes()];
        for &v in &solution.boost_set {
            assert!(
                v.index() < g.num_nodes(),
                "{}: {v} out of range",
                algo.name()
            );
            assert!(!is_seed[v.index()], "{} selected seed {v}", algo.name());
            assert!(!seen[v.index()], "{} selected {v} twice", algo.name());
            seen[v.index()] = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cross-algorithm feasibility on random ER instances.
    #[test]
    fn registry_feasible_on_random_er(seed in 0u64..200, k in 1usize..4) {
        let g = er_graph(40, 160, seed);
        let seeds = [NodeId((seed % 7) as u32), NodeId(20 + (seed % 5) as u32)];
        assert_registry_feasible(&g, &seeds, k, 4_000);
    }
}

/// Cross-algorithm feasibility on the set-cover gadget (a known-optimum
/// instance with boost-only structure).
#[test]
fn registry_feasible_on_gadget() {
    let g = gadget();
    assert_registry_feasible(&g, &[NodeId(0)], 2, 6_000);
}

#[test]
fn builder_rejects_bad_configs_with_typed_errors() {
    let g = er_graph(20, 60, 1);
    let field_of = |r: Result<kboost::engine::Engine, KboostError>| match r {
        Err(KboostError::Config { field, .. }) => field,
        other => panic!(
            "expected a config error, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    };

    assert_eq!(
        field_of(EngineBuilder::new(g.clone()).k(1).build()),
        "seeds"
    );
    assert_eq!(
        field_of(EngineBuilder::new(g.clone()).seeds([NodeId(99)]).build()),
        "seeds"
    );
    assert_eq!(
        field_of(
            EngineBuilder::new(g.clone())
                .seeds([NodeId(3), NodeId(3)])
                .build()
        ),
        "seeds"
    );
    assert_eq!(
        field_of(
            EngineBuilder::new(g.clone())
                .seeds([NodeId(0)])
                .k(20)
                .build()
        ),
        "k"
    );
    assert_eq!(
        field_of(
            EngineBuilder::new(g.clone())
                .seeds([NodeId(0)])
                .epsilon(1.5)
                .build()
        ),
        "epsilon"
    );
    assert_eq!(
        field_of(
            EngineBuilder::new(g.clone())
                .seeds([NodeId(0)])
                .ell(-1.0)
                .build()
        ),
        "ell"
    );
    assert_eq!(
        field_of(
            EngineBuilder::new(g.clone())
                .seeds([NodeId(0)])
                .failure_probability(2.0)
                .build()
        ),
        "failure_probability"
    );
    assert_eq!(
        field_of(
            EngineBuilder::new(g.clone())
                .seeds([NodeId(0)])
                .threads(0)
                .build()
        ),
        "threads"
    );
    assert_eq!(
        field_of(
            EngineBuilder::new(g.clone())
                .seeds([NodeId(0)])
                .sampling(Sampling::Fixed { samples: 0 })
                .build()
        ),
        "sampling"
    );
    assert_eq!(
        field_of(
            EngineBuilder::new(g.clone())
                .seeds([NodeId(0)])
                .max_sketches(10)
                .min_sketches(100)
                .build()
        ),
        "max_sketches"
    );
    assert_eq!(
        field_of(
            EngineBuilder::new(g.clone())
                .seeds([NodeId(0)])
                .compact_threshold(1.5)
                .build()
        ),
        "compact_threshold"
    );
    // Exact staleness off the online path (adaptive sampling) is a typed
    // error...
    assert_eq!(
        field_of(
            EngineBuilder::new(g.clone())
                .seeds([NodeId(0)])
                .staleness(Staleness::ExactCompressed)
                .build()
        ),
        "staleness"
    );
    // ...while the online spelling builds, at any hybrid threshold.
    assert!(EngineBuilder::new(g.clone())
        .seeds([NodeId(0)])
        .sampling(Sampling::Fixed { samples: 1_000 })
        .staleness(Staleness::ExactHybrid { bloom_above: 0 })
        .build()
        .is_ok());
    // δ = n^-ℓ round-trips into a positive ℓ.
    let engine = EngineBuilder::new(g)
        .seeds([NodeId(0)])
        .failure_probability(0.01)
        .build()
        .unwrap();
    assert!(engine.config().ell > 0.0);
}

/// `Engine::apply_mutations` drives the maintainer identically to the
/// hand-wired `PoolMaintainer`, epoch for epoch, and turns the epoch
/// contiguity panic into a typed error.
#[test]
fn engine_online_lifecycle_matches_hand_wired_maintainer() {
    let g = er_graph(50, 200, 21);
    let seeds = vec![NodeId(0)];
    let (k, samples, seed) = (2usize, 6_000u64, 0xBEEFu64);

    let mut engine = EngineBuilder::new(g.clone())
        .seeds(seeds.clone())
        .k(k)
        .threads(2)
        .seed(seed)
        .sampling(Sampling::Fixed { samples })
        .build()
        .unwrap();
    let mut maintainer = PoolMaintainer::build(
        g.clone(),
        seeds,
        MaintainerOptions {
            target_samples: samples,
            k,
            threads: 2,
            base_seed: seed,
            compact_threshold: 0.25,
            staleness: Staleness::Approximate,
        },
    )
    .unwrap();

    let mut log = MutationLog::new();
    log.set_probs(NodeId(1), NodeId(2), EdgeProbs::new(0.1, 0.9).unwrap());
    log.remove_edge(NodeId(0), NodeId(1));
    let b1 = log.seal_epoch();
    log.insert_edge(NodeId(7), NodeId(3), EdgeProbs::new(0.2, 0.4).unwrap());
    let b2 = log.seal_epoch();

    // Applying epoch 2 before epoch 1 is a typed error, not a panic.
    let err = engine.apply_mutations(&b2).unwrap_err();
    assert_eq!(
        err,
        KboostError::EpochOrder {
            expected: 1,
            got: 2
        }
    );

    for batch in [&b1, &b2] {
        let engine_report = engine.apply_mutations(batch).unwrap();
        let maintainer_report = maintainer.apply_epoch(batch).unwrap();
        assert_eq!(engine_report, maintainer_report);
    }
    assert_eq!(engine.epoch(), 2);
    assert!(engine.pool().unwrap().arena() == maintainer.pool().arena());
    let engine_sel = engine.solve(&Algorithm::PrrBoost).unwrap();
    assert_eq!(engine_sel.boost_set, maintainer.select(k).selected);
    assert_eq!(engine.graph().num_edges(), maintainer.graph().num_edges());

    // Adaptive-sampling engines cannot go online — typed, not a panic.
    let mut offline = EngineBuilder::new(g)
        .seeds([NodeId(0)])
        .k(1)
        .build()
        .unwrap();
    assert!(matches!(
        offline.apply_mutations(&b1),
        Err(KboostError::Unsupported { .. })
    ));
}

/// Baselines report estimates only once a pool exists; `evaluate` scores
/// any set on demand.
#[test]
fn baseline_estimates_follow_pool_lifecycle() {
    let g = er_graph(40, 160, 31);
    let mut engine = EngineBuilder::new(g)
        .seeds([NodeId(0)])
        .k(2)
        .threads(2)
        .seed(3)
        .sampling(Sampling::Fixed { samples: 4_000 })
        .build()
        .unwrap();
    let before = engine.solve(&Algorithm::PageRank).unwrap();
    assert!(before.delta_hat.is_none(), "no pool was built yet");
    let (delta, mu) = engine.evaluate(&before.boost_set).unwrap();
    assert!(delta >= 0.0 && mu >= 0.0 && mu <= delta + 1e-12);
    let after = engine.solve(&Algorithm::PageRank).unwrap();
    assert_eq!(after.delta_hat, Some(delta));
    assert_eq!(after.boost_set, before.boost_set);
}

/// Malformed mutation batches — the one input a service feeds
/// continuously — are typed [`KboostError::Mutation`] errors on the
/// engine path, validated at ingress: never an index panic inside the
/// maintainer, and never a partially applied epoch.
#[test]
fn engine_rejects_adversarial_mutation_batches() {
    let g = er_graph(20, 60, 41);
    let mut engine = EngineBuilder::new(g)
        .seeds([NodeId(0)])
        .k(1)
        .threads(1)
        .sampling(Sampling::Fixed { samples: 500 })
        .build()
        .unwrap();

    // Out-of-universe endpoint, rejected on both the dry-run and the
    // apply path.
    let mut log = MutationLog::new();
    log.remove_edge(NodeId(10_000), NodeId(0));
    let err = engine.stale_graphs(log.pending()).unwrap_err();
    assert_eq!(
        err,
        KboostError::Mutation(MutationError::NodeOutOfRange {
            node: NodeId(10_000),
            n: 20
        })
    );
    let batch = log.seal_epoch();
    assert_eq!(
        engine.apply_mutations(&batch).unwrap_err(),
        KboostError::Mutation(MutationError::NodeOutOfRange {
            node: NodeId(10_000),
            n: 20
        })
    );
    assert_eq!(
        engine.epoch(),
        0,
        "rejected batch must not consume an epoch"
    );

    // A self-loop upsert is equally typed.
    let mut log = MutationLog::new();
    log.insert_edge(NodeId(3), NodeId(3), EdgeProbs::new(0.1, 0.2).unwrap());
    assert_eq!(
        engine.apply_mutations(&log.seal_epoch()).unwrap_err(),
        KboostError::Mutation(MutationError::SelfLoop { node: NodeId(3) })
    );

    // A batch mixing a valid removal with an invalid upsert is rejected
    // wholesale — the valid prefix is not applied.
    let edges_before = engine.graph().num_edges();
    let mut log = MutationLog::new();
    log.remove_edge(NodeId(0), NodeId(1));
    log.insert_edge(NodeId(2), NodeId(10_000), EdgeProbs::new(0.1, 0.2).unwrap());
    assert!(matches!(
        engine.apply_mutations(&log.seal_epoch()).unwrap_err(),
        KboostError::Mutation(MutationError::NodeOutOfRange { .. })
    ));
    assert_eq!(engine.graph().num_edges(), edges_before);

    // The engine is still fully usable after every rejection... but the
    // logs above consumed epoch numbers, so re-sync with a fresh batch.
    let mut log = MutationLog::new();
    log.remove_edge(NodeId(0), NodeId(1));
    let report = engine.apply_mutations(&log.seal_epoch()).unwrap();
    assert_eq!(report.epoch, 1);
    assert!(engine.pool().unwrap().total_samples() > 0);
}

/// PRR-Boost-LB honors the engine's sampling policy: under SSA early
/// stopping it must not silently fall back to IMM worst-case sizing.
#[test]
fn prr_boost_lb_honors_ssa_sampling() {
    let g = er_graph(40, 160, 51);
    let build = |sampling| {
        let mut engine = EngineBuilder::new(g.clone())
            .seeds([NodeId(0)])
            .k(2)
            .threads(2)
            .seed(9)
            .sampling(sampling)
            .max_sketches(200_000)
            .build()
            .unwrap();
        engine.solve(&Algorithm::PrrBoostLb).unwrap()
    };
    let ssa = build(Sampling::Ssa { initial: 500 });
    let imm = build(Sampling::Imm);
    assert!(ssa.stats.total_samples > 0);
    assert!(ssa.mu_hat.unwrap() >= 0.0);
    // SSA stops as soon as the estimate validates — far below the IMM
    // worst-case bound on this instance. Identical counts would mean the
    // policy was ignored.
    assert!(
        ssa.stats.total_samples < imm.stats.total_samples,
        "SSA drew {} samples vs IMM {} — sampling policy ignored?",
        ssa.stats.total_samples,
        imm.stats.total_samples
    );
}

/// The latency contract's identity leg: `solve_within` under an
/// unlimited budget is bit-identical to plain `solve` — same selection,
/// same estimates, same certificate, same sample count — and reports an
/// achieved ε no worse than the configured one.
#[test]
fn solve_within_unlimited_is_bit_identical_to_solve() {
    let g = er_graph(60, 240, 61);
    let build = || {
        EngineBuilder::new(g.clone())
            .seeds([NodeId(0)])
            .k(2)
            .epsilon(0.5)
            .ell(1.0)
            .threads(2)
            .seed(17)
            .max_sketches(80_000)
            .min_sketches(10_000)
            .build()
            .unwrap()
    };
    let plain = build().solve(&Algorithm::Sandwich).unwrap();
    let mut budgeted_engine = build();
    let budgeted = budgeted_engine
        .solve_within(&Algorithm::Sandwich, &Budget::unlimited())
        .unwrap();

    assert_eq!(budgeted.boost_set, plain.boost_set);
    assert_eq!(budgeted.delta_hat, plain.delta_hat);
    assert_eq!(budgeted.mu_hat, plain.mu_hat);
    assert_eq!(budgeted.stats.total_samples, plain.stats.total_samples);
    assert_eq!(budgeted.stats.boostable, plain.stats.boostable);
    assert_eq!(budgeted.stats.covered, plain.stats.covered);
    assert_eq!(
        budgeted.stats.achieved_epsilon,
        plain.stats.achieved_epsilon
    );
    assert!(!budgeted.stats.interrupted);
    let (bc, pc) = (
        budgeted.certificate.as_ref().unwrap(),
        plain.certificate.as_ref().unwrap(),
    );
    assert_eq!(bc.b_mu, pc.b_mu);
    assert_eq!(bc.b_delta, pc.b_delta);
    assert_eq!(bc.delta_hat_mu, pc.delta_hat_mu);
    assert_eq!(bc.delta_hat_delta, pc.delta_hat_delta);
    assert_eq!(bc.chose_delta, pc.chose_delta);
    // The configured accuracy was met: achieved ε ≤ configured ε.
    assert!(plain.stats.achieved_epsilon.unwrap() <= 0.5 + 1e-12);
}

/// A sample-capped budget stops the build at a deterministic chunk
/// boundary: the solve still returns a feasible solution on the partial
/// pool, flags it `interrupted`, and reports the honest — larger —
/// achieved ε. The partial pool is the bit-identical prefix of the full
/// one.
#[test]
fn sample_budget_yields_flagged_partial_solution() {
    let g = er_graph(60, 240, 71);
    let build = |samples: u64| {
        EngineBuilder::new(g.clone())
            .seeds([NodeId(0)])
            .k(2)
            .threads(3)
            .seed(23)
            .sampling(Sampling::Fixed { samples })
            .build()
            .unwrap()
    };

    let mut full_engine = build(20_000);
    let full = full_engine.solve(&Algorithm::PrrBoost).unwrap();
    assert!(!full.stats.interrupted);
    assert!(!full_engine.interrupted());

    let mut partial_engine = build(20_000);
    let partial = partial_engine
        .solve_within(
            &Algorithm::PrrBoost,
            &Budget::unlimited().max_samples(2_048),
        )
        .unwrap();
    assert!(partial.stats.interrupted);
    assert!(partial_engine.interrupted());
    assert_eq!(partial.stats.total_samples, 2_048);
    assert!(partial.boost_set.len() <= 2);
    // Fewer samples can only certify a looser ε.
    assert!(
        partial.stats.achieved_epsilon.unwrap() > full.stats.achieved_epsilon.unwrap(),
        "2k-sample ε {} should exceed 20k-sample ε {}",
        partial.stats.achieved_epsilon.unwrap(),
        full.stats.achieved_epsilon.unwrap()
    );
    // The partial pool is a bit-identical prefix: an engine *configured*
    // for that target builds the same arena.
    let mut prefix_engine = build(2_048);
    assert!(partial_engine.pool().unwrap().arena() == prefix_engine.pool().unwrap().arena());

    // The interrupted pool keeps serving, and flags every later solve.
    let again = partial_engine.solve(&Algorithm::PrrBoost).unwrap();
    assert_eq!(again.boost_set, partial.boost_set);
    assert!(again.stats.interrupted);
}

/// A cancelled epoch refresh surfaces as `KboostError::Interrupted`,
/// rolls the pool back byte-identically, and the identical batch retried
/// with an unlimited budget converges to the uninterrupted result.
#[test]
fn cancelled_epoch_rolls_back_and_retries_verbatim() {
    let g = er_graph(50, 200, 81);
    let build = || {
        EngineBuilder::new(g.clone())
            .seeds([NodeId(0)])
            .k(2)
            .threads(2)
            .seed(0xCA11)
            .sampling(Sampling::Fixed { samples: 6_000 })
            .build()
            .unwrap()
    };
    let mut engine = build();
    engine.pool().unwrap();

    let mut log = MutationLog::new();
    log.remove_edge(NodeId(0), NodeId(1));
    log.set_probs(NodeId(1), NodeId(2), EdgeProbs::new(0.1, 0.9).unwrap());
    let batch = log.seal_epoch();

    let arena_before = engine.pool().unwrap().arena().clone();
    let cancelled = CancelFlag::new();
    cancelled.cancel();
    let err = engine
        .apply_mutations_within(&batch, &Budget::unlimited().cancel_flag(cancelled))
        .unwrap_err();
    assert_eq!(
        err,
        KboostError::Interrupted {
            epoch: 1,
            cause: InterruptCause::Cancelled
        }
    );
    // Rollback: nothing moved.
    assert_eq!(engine.epoch(), 0);
    assert_eq!(engine.graph().num_edges(), g.num_edges());
    assert!(*engine.pool().unwrap().arena() == arena_before);

    // Retry verbatim == an engine that never saw the fault.
    let report = engine.apply_mutations(&batch).unwrap();
    assert_eq!(report.epoch, 1);
    let mut oracle = build();
    let oracle_report = oracle.apply_mutations(&batch).unwrap();
    assert_eq!(report, oracle_report);
    assert!(engine.pool().unwrap().arena() == oracle.pool().unwrap().arena());
}

/// The progress observer sees every terminator poll: monotone sample
/// counts, and (on the staged fixed-target build) stage ticks carrying a
/// running `Δ̂` and certificate width.
#[test]
fn budget_observer_reports_progress_ticks() {
    use std::sync::{Arc, Mutex};

    let g = er_graph(50, 200, 91);
    let mut engine = EngineBuilder::new(g)
        .seeds([NodeId(0)])
        .k(2)
        .threads(2)
        .seed(5)
        .sampling(Sampling::Fixed { samples: 40_000 })
        .build()
        .unwrap();

    let ticks: Arc<Mutex<Vec<kboost::engine::SolveProgress>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&ticks);
    let solution = engine
        .solve_within(
            &Algorithm::PrrBoost,
            &Budget::unlimited().observe(move |p| sink.lock().unwrap().push(p.clone())),
        )
        .unwrap();
    assert!(!solution.stats.interrupted);

    let ticks = ticks.lock().unwrap();
    assert!(!ticks.is_empty(), "observer never fired");
    let mut last = 0u64;
    for t in ticks.iter() {
        assert!(t.samples >= last, "sample counts must be monotone");
        last = t.samples;
    }
    // The staged build reports richer ticks: target, running Δ̂ and the
    // honest ε the samples so far would certify.
    let stage_ticks: Vec<_> = ticks.iter().filter(|t| t.delta_hat.is_some()).collect();
    assert!(
        !stage_ticks.is_empty(),
        "no stage ticks with a running estimate were observed"
    );
    for t in &stage_ticks {
        assert_eq!(t.target, Some(40_000));
        assert!(t.delta_hat.unwrap() >= 0.0);
        assert!(t.achieved_epsilon.unwrap().is_finite());
        // Every stage tick streams an improving solution: the boost set
        // the stage's greedy selection picked, within budget and never
        // spending budget on a seed.
        let best = t
            .best_boost
            .as_ref()
            .expect("stage ticks carry a boost set");
        assert!(best.len() <= 2);
        assert!(!best.contains(&NodeId(0)), "seeds are ineligible");
    }
    // Chunk ticks (no running estimate) never carry a boost set — the
    // streamed solution is a stage-boundary artifact.
    for t in ticks.iter().filter(|t| t.delta_hat.is_none()) {
        assert!(t.best_boost.is_none());
    }
    // ε tightens as samples accumulate.
    let eps: Vec<f64> = stage_ticks
        .iter()
        .map(|t| t.achieved_epsilon.unwrap())
        .collect();
    for w in eps.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-9,
            "achieved ε must shrink with samples: {eps:?}"
        );
    }
}
