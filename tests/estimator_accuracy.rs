//! Statistical end-to-end accuracy of the **engine's** estimator
//! pipeline against the `kboost-diffusion` ground truths — the missing
//! link between the sketch machinery and the simulators it is supposed
//! to reproduce.
//!
//! Every assertion runs at a fixed seed (so a pass is reproducible, not
//! flaky) with a tolerance *derived from the sample count* instead of a
//! magic constant: `Δ̂ = n · hits/T` with `hits ~ Binomial(T, Δ/n)`, so
//! `sd(Δ̂) = n·√(p(1−p)/T) ≤ n/(2√T)` and a 4σ band is `2n/√T`. The
//! Monte-Carlo references get the same treatment over their run counts,
//! and the two bands add.
//!
//! The suite covers the offline engine (`Δ̂` vs the exact enumerator and
//! the coupled Monte-Carlo simulator, `µ̂` vs the µ-model simulator, on
//! ER instances and the set-cover gadget) **and** the online engine,
//! where it is precise about what exact staleness does and does not
//! buy:
//!
//! * when a batch invalidates **every** randomness-dependent sample, the
//!   refreshed pool is a fresh pool and must hit the mutated graph's
//!   true `Δ` within the band (validates the epoch-seeded refresh
//!   sampler end to end);
//! * under **partial** churn the maintained pool equals its
//!   from-scratch exact replay bit-for-bit (zero drift — the PR's
//!   contract), but refresh-by-full-redraw does *not* reproduce a fresh
//!   pool's distribution: invalidated slots are conditionally different
//!   from average (their traces queried the mutated region) and the
//!   redraw is unconditioned. The residual gap is pinned here as an
//!   executable regression for the redraw tiers, and the fix —
//!   conditional coin reuse, [`Staleness::ExactTrace`] — is asserted
//!   *positively* on the same history: the trace-replayed pool hits the
//!   mutated graph's truth within the sampling band where the redraw
//!   pool is measurably skewed.

use kboost::diffusion::exact::exact_boost;
use kboost::diffusion::monte_carlo::{estimate_boost, McConfig};
use kboost::diffusion::mu_model::estimate_mu;
use kboost::engine::{EngineBuilder, MutationLog, Sampling, Staleness};
use kboost::graph::generators::{erdos_renyi, set_cover_gadget, SetCoverInstance};
use kboost::graph::probability::ProbabilityModel;
use kboost::graph::{DiGraph, EdgeProbs, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// 4σ band of the pool estimator `n · Binomial(T, p)/T`.
fn pool_tolerance(n: usize, samples: u64) -> f64 {
    2.0 * n as f64 / (samples as f64).sqrt()
}

/// 4σ band of a mean of `runs` simulator outcomes valued in `[0, n]`.
fn mc_tolerance(n: usize, runs: u32) -> f64 {
    2.0 * n as f64 / (runs as f64).sqrt()
}

/// A small ER instance with few enough edges for the exact enumerator.
fn er(seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    erdos_renyi(12, 16, ProbabilityModel::Constant(0.3), 2.0, &mut rng)
}

const SAMPLES: u64 = 120_000;

fn fixed_engine(g: &DiGraph, seeds: &[NodeId], k: usize, seed: u64) -> kboost::engine::Engine {
    EngineBuilder::new(g.clone())
        .seeds(seeds.to_vec())
        .k(k)
        .threads(2)
        .seed(seed)
        .sampling(Sampling::Fixed { samples: SAMPLES })
        .build()
        .expect("valid configuration")
}

#[test]
fn engine_delta_hat_matches_exact_and_monte_carlo_on_er() {
    let mc = McConfig {
        runs: 150_000,
        threads: 2,
        seed: 9,
    };
    for graph_seed in [2u64, 15, 33] {
        let g = er(graph_seed);
        let seeds = [NodeId(0)];
        let mut engine = fixed_engine(&g, &seeds, 2, 0xACC0 + graph_seed);
        for probe in [vec![NodeId(3)], vec![NodeId(5), NodeId(7)]] {
            let est = engine.delta_hat(&probe).expect("pool built");
            let truth = exact_boost(&g, &seeds, &probe);
            let tol = pool_tolerance(g.num_nodes(), SAMPLES);
            assert!(
                (est - truth).abs() <= tol,
                "graph {graph_seed} B={probe:?}: Δ̂ {est} vs exact {truth} (tol {tol})"
            );
            let sim = estimate_boost(&g, &seeds, &probe, &mc);
            let tol = tol + mc_tolerance(g.num_nodes(), mc.runs);
            assert!(
                (est - sim).abs() <= tol,
                "graph {graph_seed} B={probe:?}: Δ̂ {est} vs MC {sim} (tol {tol})"
            );
        }
    }
}

#[test]
fn engine_mu_hat_matches_mu_model_on_er() {
    for graph_seed in [4u64, 27] {
        let g = er(graph_seed);
        let seeds = [NodeId(0), NodeId(1)];
        let mut engine = fixed_engine(&g, &seeds, 2, 0xB00 + graph_seed);
        for probe in [vec![NodeId(4)], vec![NodeId(4), NodeId(6)]] {
            let (delta, mu) = engine.evaluate(&probe).expect("pool built");
            let runs = 150_000u32;
            let sim = estimate_mu(&g, &seeds, &probe, runs, 77);
            let tol = pool_tolerance(g.num_nodes(), SAMPLES) + mc_tolerance(g.num_nodes(), runs);
            assert!(
                (mu - sim).abs() <= tol,
                "graph {graph_seed} B={probe:?}: µ̂ {mu} vs µ-model {sim} (tol {tol})"
            );
            // The sandwich order must hold on the same pool.
            assert!(mu <= delta + 1e-12, "µ̂ {mu} > Δ̂ {delta}");
        }
    }
}

#[test]
fn engine_delta_hat_matches_exact_on_gadget() {
    // The set-cover gadget: deep PRR-graphs, known-by-construction
    // optimum, 17 edges — still exactly enumerable.
    let instance = SetCoverInstance {
        num_elements: 6,
        subsets: vec![
            vec![0, 1, 2],
            vec![2, 3],
            vec![3, 4, 5],
            vec![0, 5],
            vec![1, 4],
        ],
    };
    let g = set_cover_gadget(&instance);
    let seeds = [NodeId(0)];
    let mut engine = fixed_engine(&g, &seeds, 3, 0x6AD6E7);
    let cover: Vec<NodeId> = [0usize, 2, 4]
        .iter()
        .map(|&i| instance.set_node(i))
        .collect();
    let single = vec![instance.set_node(1)];
    for probe in [cover, single] {
        let est = engine.delta_hat(&probe).expect("pool built");
        let truth = exact_boost(&g, &seeds, &probe);
        let tol = pool_tolerance(g.num_nodes(), SAMPLES);
        assert!(
            (est - truth).abs() <= tol,
            "gadget B={probe:?}: Δ̂ {est} vs exact {truth} (tol {tol})"
        );
    }
}

/// Full-churn epoch: every non-seed node gets a new in-edge, so every
/// sample whose generation consumed randomness (its footprint contains
/// at least its root) is invalidated and redrawn from the epoch stream —
/// the only samples retained are seed-rooted `Activated` empties, whose
/// value is a constant under any edge set. The refreshed pool is
/// therefore distributed exactly like a fresh pool over the mutated
/// graph, and the engine's `Δ̂` must hit the exact enumerator within the
/// sampling band. This exercises epoch seeding, shard absorption,
/// empty-sample bookkeeping and the denominator accounting end to end.
#[test]
fn full_churn_refresh_is_statistically_fresh() {
    for graph_seed in [8u64, 19] {
        let mut rng = SmallRng::seed_from_u64(graph_seed);
        // 10 nodes / 12 edges: with 9 insertions the mutated graph stays
        // within the exact enumerator's 25-edge budget.
        let g0 = erdos_renyi(10, 12, ProbabilityModel::Constant(0.3), 2.0, &mut rng);
        let seeds = [NodeId(0)];
        let mut engine = EngineBuilder::new(g0.clone())
            .seeds(seeds.to_vec())
            .k(2)
            .threads(2)
            .seed(0xF1E1D + graph_seed)
            .sampling(Sampling::Fixed { samples: SAMPLES })
            .staleness(Staleness::ExactCompressed)
            .build()
            .expect("valid configuration");
        engine.pool().expect("pool built");

        let n = g0.num_nodes() as u32;
        let mut log = MutationLog::new();
        for v in 1..n {
            // Head coverage of every non-seed node invalidates every
            // root-expanding sample; tiny probabilities keep the graph
            // recognizable.
            let u = if v == 1 { n - 1 } else { v - 1 };
            log.insert_edge(NodeId(u), NodeId(v), EdgeProbs::new(0.02, 0.04).unwrap());
        }
        let report = engine.apply_mutations(&log.seal_epoch()).expect("epoch 1");
        let retained = SAMPLES - report.invalidated;
        assert!(
            report.invalidated_empty > 0 && retained < SAMPLES / 4,
            "churn construction failed: only {} of {SAMPLES} invalidated",
            report.invalidated
        );

        let mutated = engine.graph().clone();
        assert!(mutated.num_edges() <= 25);
        for probe in [vec![NodeId(3)], vec![NodeId(2), NodeId(5)]] {
            let est = engine.delta_hat(&probe).expect("pool built");
            let truth = exact_boost(&mutated, &seeds, &probe);
            let tol = pool_tolerance(mutated.num_nodes(), SAMPLES);
            assert!(
                (est - truth).abs() <= tol,
                "graph {graph_seed} B={probe:?}: refreshed Δ̂ {est} vs exact {truth} \
                 on the mutated graph (tol {tol})"
            );
        }
    }
}

/// Partial-churn pin for the **redraw** tiers: exact staleness makes the
/// maintained pool equal its from-scratch exact replay **bit for bit**
/// (the zero-drift contract), but it is *not* distribution-fresh — the
/// invalidated slots' traces queried the mutated region, so their
/// conditional `f`-law differs from average and the unconditioned redraw
/// skews the pool where probes overlap mutation sites. This regression
/// pins both facts at fixed seeds so the redraw tiers' documented
/// limitation stays measured (the fresh engine is accurate on the same
/// graph, ruling out a sampler bug as the explanation). The trace tier
/// closes the gap — `partial_churn_trace_replay_is_distribution_fresh`
/// asserts the positive counterpart on the identical history.
#[test]
fn partial_churn_zero_replay_drift_but_not_distribution_fresh() {
    let graph_seed = 19u64;
    let g0 = er(graph_seed);
    let seeds = [NodeId(0)];
    let build = |g: &DiGraph, staleness, seed: u64| {
        EngineBuilder::new(g.clone())
            .seeds(seeds.to_vec())
            .k(2)
            .threads(2)
            .seed(seed)
            .sampling(Sampling::Fixed { samples: SAMPLES })
            .staleness(staleness)
            .build()
            .expect("valid configuration")
    };
    let mut engine = build(&g0, Staleness::ExactCompressed, 0xF1E1D + graph_seed);

    // Churn overlapping the probe: node 2 gains an in-edge, so most
    // samples that made boosting 2 pay off are invalidated.
    let edges: Vec<(NodeId, NodeId, EdgeProbs)> = g0.edges().collect();
    let mut log = MutationLog::new();
    let (u, v, _) = edges[0];
    log.set_probs(u, v, EdgeProbs::new(0.45, 0.9).unwrap());
    let (u, v, _) = edges[edges.len() / 2];
    log.remove_edge(u, v);
    let b1 = log.seal_epoch();
    log.insert_edge(NodeId(9), NodeId(2), EdgeProbs::new(0.35, 0.7).unwrap());
    let (u, v, _) = edges[1];
    log.set_probs(u, v, EdgeProbs::new(0.05, 0.1).unwrap());
    let b2 = log.seal_epoch();
    engine.apply_mutations(&b1).expect("epoch 1");
    let report = engine.apply_mutations(&b2).expect("epoch 2");
    assert!(
        report.invalidated > 0 && report.invalidated < SAMPLES / 2,
        "pin needs partial churn, got {}/{SAMPLES}",
        report.invalidated
    );

    let mutated = engine.graph().clone();
    let probe = vec![NodeId(2), NodeId(5)];
    let est = engine.delta_hat(&probe).expect("pool built");
    let truth = exact_boost(&mutated, &seeds, &probe);
    let tol = pool_tolerance(mutated.num_nodes(), SAMPLES);

    // Fact 1 — zero drift vs the deterministic ground truth: the exact
    // replay of the same history lands on the identical estimate.
    let opts = kboost::online::MaintainerOptions {
        target_samples: SAMPLES,
        k: 2,
        threads: 2,
        base_seed: 0xF1E1D + graph_seed,
        compact_threshold: 0.25,
        staleness: kboost::online::Staleness::ExactCompressed,
    };
    let (_g, replay) = kboost::online::rebuild_from_history(&g0, &seeds, &opts, &[b1, b2]);
    assert_eq!(est, replay.delta_hat(&probe), "replay drift must be zero");

    // Fact 2 — a fresh pool on the mutated graph is accurate...
    let mut fresh = build(&mutated, Staleness::Approximate, 0x0F5E5);
    let fresh_est = fresh.delta_hat(&probe).expect("pool built");
    assert!(
        (fresh_est - truth).abs() <= tol,
        "fresh Δ̂ {fresh_est} vs exact {truth} (tol {tol}) — sampler broken?"
    );
    // ...while the maintained pool is measurably skewed on this probe:
    // the known redraw-conditioning limitation, kept visible on purpose.
    assert!(
        (est - truth).abs() > tol,
        "maintained Δ̂ {est} unexpectedly within {tol} of {truth}: the redraw \
         tiers' conditioning skew vanished — re-derive this pin's seeds"
    );
}

/// The positive counterpart of the redraw pin, on the **identical**
/// history: under [`Staleness::ExactTrace`] the invalidated samples are
/// conditionally replayed — untouched coins reused, only mutated coins
/// redrawn — so by deferred decisions the maintained pool is an exact
/// draw from the new graph's PRR distribution, jointly with the
/// untouched survivors. The estimate must therefore hit the mutated
/// graph's exact `Δ` within the sampling band (where the redraw pool is
/// pinned *outside* it), while the bit-for-bit zero-drift contract
/// against the trace replay oracle still holds.
#[test]
fn partial_churn_trace_replay_is_distribution_fresh() {
    let graph_seed = 19u64;
    let g0 = er(graph_seed);
    let seeds = [NodeId(0)];
    let mut engine = EngineBuilder::new(g0.clone())
        .seeds(seeds.to_vec())
        .k(2)
        .threads(2)
        .seed(0xF1E1D + graph_seed)
        .sampling(Sampling::Fixed { samples: SAMPLES })
        .staleness(Staleness::ExactTrace)
        .build()
        .expect("valid configuration");

    // The same two batches as the redraw pin.
    let edges: Vec<(NodeId, NodeId, EdgeProbs)> = g0.edges().collect();
    let mut log = MutationLog::new();
    let (u, v, _) = edges[0];
    log.set_probs(u, v, EdgeProbs::new(0.45, 0.9).unwrap());
    let (u, v, _) = edges[edges.len() / 2];
    log.remove_edge(u, v);
    let b1 = log.seal_epoch();
    log.insert_edge(NodeId(9), NodeId(2), EdgeProbs::new(0.35, 0.7).unwrap());
    let (u, v, _) = edges[1];
    log.set_probs(u, v, EdgeProbs::new(0.05, 0.1).unwrap());
    let b2 = log.seal_epoch();
    engine.apply_mutations(&b1).expect("epoch 1");
    let report = engine.apply_mutations(&b2).expect("epoch 2");
    assert!(
        report.invalidated > 0 && report.invalidated < SAMPLES / 2,
        "freshness assert needs partial churn, got {}/{SAMPLES}",
        report.invalidated
    );

    let mutated = engine.graph().clone();
    let probe = vec![NodeId(2), NodeId(5)];
    let est = engine.delta_hat(&probe).expect("pool built");
    let truth = exact_boost(&mutated, &seeds, &probe);
    let tol = pool_tolerance(mutated.num_nodes(), SAMPLES);
    assert!(
        (est - truth).abs() <= tol,
        "trace-replayed Δ̂ {est} vs exact {truth} (tol {tol}): conditional \
         replay must be distribution-fresh under partial churn"
    );

    // The zero-drift contract holds for the trace tier too: the replay
    // oracle reproduces the maintained estimate exactly.
    let opts = kboost::online::MaintainerOptions {
        target_samples: SAMPLES,
        k: 2,
        threads: 2,
        base_seed: 0xF1E1D + graph_seed,
        compact_threshold: 0.25,
        staleness: kboost::online::Staleness::ExactTrace,
    };
    let (_g, replay) = kboost::online::rebuild_from_history(&g0, &seeds, &opts, &[b1, b2]);
    assert_eq!(est, replay.delta_hat(&probe), "replay drift must be zero");
}
