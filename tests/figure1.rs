//! Figure 1 of the paper, checked through every evaluation path in the
//! workspace: exact enumeration, coupled Monte-Carlo, PRR-graph pools,
//! the µ-model simulator, and PRR-Boost itself (IMM and, through the
//! engine, SSA sampling).

use kboost::core::{prr_boost, prr_boost_lb, BoostOptions};
use kboost::diffusion::exact::{exact_boost, exact_sigma};
use kboost::diffusion::monte_carlo::{estimate_boost, estimate_sigma, McConfig};
use kboost::diffusion::mu_model::estimate_mu;
use kboost::engine::{Algorithm, EngineBuilder, Sampling};
use kboost::graph::{DiGraph, GraphBuilder, NodeId};

fn figure1() -> DiGraph {
    let mut b = GraphBuilder::new(3);
    b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
    b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
    b.build().unwrap()
}

const S: [NodeId; 1] = [NodeId(0)];

#[test]
fn exact_numbers_match_paper_table() {
    let g = figure1();
    assert!((exact_sigma(&g, &S, &[]) - 1.22).abs() < 1e-12);
    assert!((exact_sigma(&g, &S, &[NodeId(1)]) - 1.44).abs() < 1e-12);
    assert!((exact_sigma(&g, &S, &[NodeId(2)]) - 1.24).abs() < 1e-12);
    assert!((exact_sigma(&g, &S, &[NodeId(1), NodeId(2)]) - 1.48).abs() < 1e-12);
}

#[test]
fn monte_carlo_agrees_with_exact() {
    let g = figure1();
    let mc = McConfig {
        runs: 200_000,
        threads: 4,
        seed: 5,
    };
    for set in [
        vec![],
        vec![NodeId(1)],
        vec![NodeId(2)],
        vec![NodeId(1), NodeId(2)],
    ] {
        let sim = estimate_sigma(&g, &S, &set, &mc);
        let truth = exact_sigma(&g, &S, &set);
        assert!((sim - truth).abs() < 0.01, "B={set:?}: {sim} vs {truth}");
        let simd = estimate_boost(&g, &S, &set, &mc);
        let truthd = exact_boost(&g, &S, &set);
        assert!(
            (simd - truthd).abs() < 0.005,
            "Δ B={set:?}: {simd} vs {truthd}"
        );
    }
}

#[test]
fn mu_is_a_lower_bound_of_delta() {
    let g = figure1();
    for set in [vec![NodeId(1)], vec![NodeId(2)], vec![NodeId(1), NodeId(2)]] {
        let mu = estimate_mu(&g, &S, &set, 200_000, 11);
        let delta = exact_boost(&g, &S, &set);
        assert!(
            mu <= delta + 0.01,
            "µ {mu} must lower-bound Δ {delta} for {set:?}"
        );
    }
}

#[test]
fn prr_boost_picks_v0_and_pool_estimates_match() {
    let g = figure1();
    let opts = BoostOptions {
        threads: 2,
        seed: 21,
        min_sketches: 150_000,
        max_sketches: Some(300_000),
        ..Default::default()
    };
    let (out, pool) = prr_boost(&g, &S, 1, &opts);
    assert_eq!(
        out.best,
        vec![NodeId(1)],
        "boosting v0 dominates boosting v1"
    );

    // Pool estimators vs exact values.
    for set in [vec![NodeId(1)], vec![NodeId(2)], vec![NodeId(1), NodeId(2)]] {
        let est = pool.delta_hat(&set);
        let truth = exact_boost(&g, &S, &set);
        assert!((est - truth).abs() < 0.02, "Δ̂({set:?}) = {est} vs {truth}");
        let mu_hat = pool.mu_hat(&set);
        let mu_sim = estimate_mu(&g, &S, &set, 200_000, 31);
        assert!(
            (mu_hat - mu_sim).abs() < 0.02,
            "µ̂({set:?}) = {mu_hat} vs {mu_sim}"
        );
        assert!(mu_hat <= est + 0.01, "µ̂ must lower-bound Δ̂");
    }

    // The engine's SSA sampler makes the same Sandwich pick.
    let mut engine = EngineBuilder::new(g)
        .seeds(S)
        .k(1)
        .threads(2)
        .seed(71)
        .sampling(Sampling::Ssa { initial: 2_000 })
        .max_sketches(400_000)
        .build()
        .unwrap();
    let ssa = engine.solve(&Algorithm::Sandwich).unwrap();
    assert_eq!(ssa.boost_set, vec![NodeId(1)], "SSA sampling picks v0");
}

#[test]
fn lb_variant_agrees_with_full_variant() {
    let g = figure1();
    let opts = BoostOptions {
        threads: 2,
        seed: 23,
        min_sketches: 100_000,
        max_sketches: Some(200_000),
        ..Default::default()
    };
    let full = prr_boost(&g, &S, 1, &opts).0;
    let lb = prr_boost_lb(&g, &S, 1, &opts);
    assert_eq!(full.best, lb.best);
}

#[test]
fn boosting_beats_seeding_comparison_from_section_iii() {
    // Section III-A: as an extra *seed*, v1 (node 2) is the better pick;
    // as a *boost*, v0 (node 1) is far better — the two problems differ.
    let g = figure1();
    // Extra-seed marginal influence.
    let sigma_s_v0 = exact_sigma(&g, &[NodeId(0), NodeId(1)], &[]);
    let sigma_s_v1 = exact_sigma(&g, &[NodeId(0), NodeId(2)], &[]);
    assert!(sigma_s_v1 > sigma_s_v0, "as a seed, v1 wins");
    // Boost comparison.
    assert!(
        exact_boost(&g, &S, &[NodeId(1)]) > exact_boost(&g, &S, &[NodeId(2)]),
        "as a boost, v0 wins"
    );
}
