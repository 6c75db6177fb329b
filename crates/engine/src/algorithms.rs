//! [`BoostAlgorithm`] — the uniform interface every solver implements —
//! and [`Algorithm`], the built-in registry.
//!
//! The paper evaluates one problem (pick `k` boost nodes maximizing the
//! boost of influence) across many solvers: PRR-Boost and its light
//! variant, the Sandwich Approximation choosing between them, the exact
//! tree algorithms, and the Section-VII heuristic baselines. Each is one
//! [`Algorithm`] variant here, so scenario sweeps and cross-algorithm
//! benchmarking iterate [`Algorithm::registry`] instead of hand-wiring
//! five call signatures. User solvers plug in by implementing
//! [`BoostAlgorithm`] and passing themselves to
//! [`Engine::solve`](crate::Engine::solve).

use std::time::Instant;

use kboost_baselines::{
    high_degree_global, high_degree_local, more_seeds, pagerank_select, random_boost,
    WeightedDegree,
};
use kboost_graph::NodeId;
use kboost_prr::{greedy_delta_selection, PrrLbSource};
use kboost_rrset::imm::{achieved_epsilon, run_imm_within};
use kboost_tree::{dp_boost, greedy_boost, BidirectedTree};

use crate::budget::Budget;
use crate::engine::Engine;
use crate::error::KboostError;
use crate::solution::{SandwichCertificate, Solution, SolveStats};

/// A boost-set solver runnable through an [`Engine`].
///
/// Implementations receive the engine mutably so they can build or reuse
/// its PRR pool; they must not call [`Engine::solve`] back (that is the
/// dispatcher calling *them*).
pub trait BoostAlgorithm {
    /// Stable human-readable name, recorded in
    /// [`Solution::algorithm`](crate::Solution::algorithm).
    fn name(&self) -> String;

    /// Produces a solution for the engine's `(graph, seeds, k)`.
    fn solve(&self, engine: &mut Engine) -> Result<Solution, KboostError>;
}

/// The built-in algorithm registry: every solver the paper evaluates, as
/// one uniformly-dispatchable value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// Algorithm 2 end to end: the lower-bound greedy `B_µ`, the
    /// `Δ̂`-greedy `B_Δ`, and the Sandwich Approximation keeping whichever
    /// scores higher — with the certificate recorded on the solution.
    Sandwich,
    /// The `Δ̂`-greedy branch alone: greedy selection directly on the PRR
    /// estimate via the inverted coverage index.
    PrrBoost,
    /// PRR-Boost-LB (Section V-C): maximize only the submodular lower
    /// bound `µ̂` — faster sampling, far smaller memory footprint.
    PrrBoostLb,
    /// The exact bidirected-tree algorithms (Section VI): Greedy-Boost
    /// when `dp_epsilon` is `None`, the DP-Boost FPTAS at the given ε
    /// otherwise. Fails with [`KboostError::Tree`] on non-tree graphs.
    TreeExact {
        /// `None` → Greedy-Boost; `Some(ε)` → DP-Boost at that ε.
        dp_epsilon: Option<f64>,
    },
    /// HighDegreeGlobal under the given weighted-degree definition.
    HighDegreeGlobal(WeightedDegree),
    /// HighDegreeLocal (BFS rings around the seeds) under the given
    /// weighted-degree definition.
    HighDegreeLocal(WeightedDegree),
    /// PageRank over the reversed influence transition matrix.
    PageRank,
    /// MoreSeeds: `k` extra seeds via marginal IMM, returned as boosts.
    MoreSeeds,
    /// Uniform random non-seed nodes.
    Random,
}

impl Algorithm {
    /// Every built-in algorithm, one entry per paper solver (the four
    /// weighted-degree definitions of each HighDegree variant included,
    /// since the experiments report the best of the four).
    pub fn registry() -> Vec<Algorithm> {
        use WeightedDegree::*;
        let mut all = vec![
            Algorithm::Sandwich,
            Algorithm::PrrBoost,
            Algorithm::PrrBoostLb,
            Algorithm::TreeExact { dp_epsilon: None },
            Algorithm::TreeExact {
                dp_epsilon: Some(0.5),
            },
        ];
        for d in [OutSum, OutSumDiscounted, InGain, InGainDiscounted] {
            all.push(Algorithm::HighDegreeGlobal(d));
            all.push(Algorithm::HighDegreeLocal(d));
        }
        all.extend([Algorithm::PageRank, Algorithm::MoreSeeds, Algorithm::Random]);
        all
    }
}

impl BoostAlgorithm for Algorithm {
    fn name(&self) -> String {
        match self {
            Algorithm::Sandwich => "sandwich".into(),
            Algorithm::PrrBoost => "prr-boost".into(),
            Algorithm::PrrBoostLb => "prr-boost-lb".into(),
            Algorithm::TreeExact { dp_epsilon: None } => "tree-greedy".into(),
            Algorithm::TreeExact {
                dp_epsilon: Some(eps),
            } => format!("tree-dp(eps={eps})"),
            Algorithm::HighDegreeGlobal(d) => format!("high-degree-global({d:?})"),
            Algorithm::HighDegreeLocal(d) => format!("high-degree-local({d:?})"),
            Algorithm::PageRank => "pagerank".into(),
            Algorithm::MoreSeeds => "more-seeds".into(),
            Algorithm::Random => "random".into(),
        }
    }

    fn solve(&self, engine: &mut Engine) -> Result<Solution, KboostError> {
        match self {
            Algorithm::Sandwich => solve_sandwich(engine),
            Algorithm::PrrBoost => solve_prr_boost(engine),
            Algorithm::PrrBoostLb => solve_prr_boost_lb(engine),
            Algorithm::TreeExact { dp_epsilon } => solve_tree(engine, *dp_epsilon, self.name()),
            Algorithm::HighDegreeGlobal(d) => {
                let t0 = Instant::now();
                let set = high_degree_global(engine.graph(), engine.seeds(), engine.config().k, *d);
                Ok(baseline_solution(engine, self.name(), set, t0))
            }
            Algorithm::HighDegreeLocal(d) => {
                let t0 = Instant::now();
                let set = high_degree_local(engine.graph(), engine.seeds(), engine.config().k, *d);
                Ok(baseline_solution(engine, self.name(), set, t0))
            }
            Algorithm::PageRank => {
                let t0 = Instant::now();
                let set = pagerank_select(engine.graph(), engine.seeds(), engine.config().k);
                Ok(baseline_solution(engine, self.name(), set, t0))
            }
            Algorithm::MoreSeeds => {
                let t0 = Instant::now();
                let params = engine.imm_params();
                let set = more_seeds(engine.graph(), engine.seeds(), &params);
                Ok(baseline_solution(engine, self.name(), set, t0))
            }
            Algorithm::Random => {
                let t0 = Instant::now();
                let set = random_boost(
                    engine.graph(),
                    engine.seeds(),
                    engine.config().k,
                    engine.config().seed,
                );
                Ok(baseline_solution(engine, self.name(), set, t0))
            }
        }
    }
}

/// Shared stats snapshot of the engine's built pool. `mu_lb` is the
/// returned solution's `µ̂` — the OPT lower bound against which the
/// achieved ε inverts the IMM sample bound.
fn pool_stats(engine: &Engine, select_secs: f64, covered: u64, mu_lb: f64) -> SolveStats {
    let pool = engine.pool_built();
    let (build_secs, build_peak_bytes) = engine.pool_build_stats();
    let n = engine.graph().num_nodes();
    let eps = achieved_epsilon(
        n,
        n - engine.seeds().len(),
        engine.config().k,
        engine.imm_params().ell,
        pool.total_samples(),
        mu_lb,
    );
    SolveStats {
        total_samples: pool.total_samples(),
        boostable: pool.num_boostable() as u64,
        covered,
        build_secs,
        select_secs,
        build_peak_bytes,
        pool_bytes: pool.memory_bytes(),
        footprint_bytes: pool.arena().footprint_memory_bytes(),
        achieved_epsilon: Some(eps),
        interrupted: engine.build_interrupted(),
    }
}

/// Algorithm 2 lines 2–5: both greedy branches plus the Sandwich choice,
/// with the certificate attached. Under IMM sampling this reproduces the
/// hand-wired `kboost_core::prr_boost` bit for bit.
fn solve_sandwich(engine: &mut Engine) -> Result<Solution, KboostError> {
    engine.ensure_pool()?;
    // Time both greedy branches: for fixed-size pools the µ-selection is
    // a real lazy-greedy pass (adaptive pools return the cached IMM/SSA
    // selection, which costs nothing).
    let t0 = Instant::now();
    let (b_mu, mu_covered) = engine.mu_selection()?;
    let (n, k, threads) = {
        let cfg = engine.config();
        (engine.graph().num_nodes(), cfg.k, cfg.threads)
    };
    let pool = engine.pool_built();
    let delta_sel = greedy_delta_selection(pool.arena(), n, k, threads);
    let est_mu = pool.delta_hat(&b_mu);
    let est_delta = pool.delta_hat(&delta_sel.selected);
    let chose_delta = est_delta >= est_mu;
    let (best, estimate, covered) = if chose_delta {
        (delta_sel.selected.clone(), est_delta, delta_sel.covered)
    } else {
        (b_mu.clone(), est_mu, mu_covered)
    };
    let mu_best = pool.mu_hat(&best);
    let select_secs = t0.elapsed().as_secs_f64();
    let certificate = SandwichCertificate {
        b_mu,
        b_delta: delta_sel.selected,
        delta_hat_mu: est_mu,
        delta_hat_delta: est_delta,
        chose_delta,
        ratio: if estimate > 0.0 {
            mu_best / estimate
        } else {
            0.0
        },
    };
    Ok(Solution {
        algorithm: Algorithm::Sandwich.name(),
        boost_set: best,
        delta_hat: Some(estimate),
        mu_hat: Some(mu_best),
        certificate: Some(certificate),
        stats: pool_stats(engine, select_secs, covered, mu_best),
    })
}

/// The `Δ̂`-greedy branch alone — bit-identical to calling
/// `greedy_delta_selection` on a hand-built pool with the same seed and
/// target sequence.
fn solve_prr_boost(engine: &mut Engine) -> Result<Solution, KboostError> {
    engine.ensure_pool()?;
    let (n, k, threads) = {
        let cfg = engine.config();
        (engine.graph().num_nodes(), cfg.k, cfg.threads)
    };
    let pool = engine.pool_built();
    let t0 = Instant::now();
    let sel = greedy_delta_selection(pool.arena(), n, k, threads);
    let select_secs = t0.elapsed().as_secs_f64();
    let delta = pool.delta_hat(&sel.selected);
    let mu = pool.mu_hat(&sel.selected);
    Ok(Solution {
        algorithm: Algorithm::PrrBoost.name(),
        boost_set: sel.selected,
        delta_hat: Some(delta),
        mu_hat: Some(mu),
        certificate: None,
        stats: pool_stats(engine, select_secs, sel.covered, mu),
    })
}

/// PRR-Boost-LB. Under adaptive sampling this runs its own cover-only
/// pass over `PrrLbSource` honoring the engine's sampling policy — IMM
/// worst-case sizing (exactly `prr_boost_lb`) or SSA early stopping;
/// under fixed-size sampling it reuses the engine's maintained pool and
/// runs the lazy greedy over the live samples' critical sets.
fn solve_prr_boost_lb(engine: &mut Engine) -> Result<Solution, KboostError> {
    use crate::config::Sampling;
    if matches!(engine.config().sampling, Sampling::Fixed { .. }) {
        let t0 = Instant::now();
        let (b_mu, covered) = engine.mu_selection()?;
        let select_secs = t0.elapsed().as_secs_f64();
        let pool = engine.pool_built();
        let delta = pool.delta_hat(&b_mu);
        let mu = pool.mu_hat(&b_mu);
        return Ok(Solution {
            algorithm: Algorithm::PrrBoostLb.name(),
            boost_set: b_mu,
            delta_hat: Some(delta),
            mu_hat: Some(mu),
            certificate: None,
            stats: pool_stats(engine, select_secs, covered, mu),
        });
    }

    let t0 = Instant::now();
    let n = engine.graph().num_nodes();
    // The LB variant samples its own cover-only pool; a surrounding
    // `solve_within` budget applies to it the same way it would to the
    // engine pool.
    let term = engine
        .take_pending()
        .unwrap_or_else(|| Budget::unlimited().resolve());
    let source = PrrLbSource::new(engine.graph(), engine.seeds(), engine.config().k);
    let (result, pool, estimate, interrupted) = match engine.config().sampling {
        Sampling::Imm => {
            let (run, interrupted) =
                run_imm_within(&source, &engine.imm_params(), &term, engine.obs());
            let estimate =
                n as f64 * run.result.covered as f64 / run.pool.total_samples().max(1) as f64;
            (run.result, run.pool, estimate, interrupted)
        }
        Sampling::Ssa { initial } => {
            let cfg = engine.config();
            let params = kboost_rrset::ssa::SsaParams {
                k: cfg.k,
                epsilon: cfg.epsilon,
                initial,
                max_sketches: cfg.max_sketches.unwrap_or(u64::MAX / 2),
                threads: cfg.threads,
                seed: cfg.seed,
            };
            let (run, interrupted) =
                kboost_rrset::ssa::run_ssa_within(&source, &params, &term, engine.obs());
            // The validation pool never influenced selection, so its
            // estimate of µ̂ is the unbiased one to report.
            (run.result, run.pool, run.validated_estimate, interrupted)
        }
        Sampling::Fixed { .. } => unreachable!("handled above"),
    };
    let build_secs = t0.elapsed().as_secs_f64();
    let cover_bytes = pool.cover_memory_bytes();
    let eps = achieved_epsilon(
        n,
        n - engine.seeds().len(),
        engine.config().k,
        engine.imm_params().ell,
        pool.total_samples(),
        estimate,
    );
    Ok(Solution {
        algorithm: Algorithm::PrrBoostLb.name(),
        boost_set: result.selected,
        delta_hat: None,
        mu_hat: Some(estimate),
        certificate: None,
        stats: SolveStats {
            total_samples: pool.total_samples(),
            boostable: pool.covers().len() as u64,
            covered: result.covered,
            build_secs,
            select_secs: 0.0,
            build_peak_bytes: cover_bytes,
            pool_bytes: cover_bytes,
            footprint_bytes: 0,
            achieved_epsilon: Some(eps),
            interrupted,
        },
    })
}

/// Greedy-Boost / DP-Boost on bidirected trees — exact evaluation, no
/// sampling. The boost value returned is the *exact* `Δ_S(B)`.
fn solve_tree(
    engine: &mut Engine,
    dp_epsilon: Option<f64>,
    name: String,
) -> Result<Solution, KboostError> {
    if let Some(eps) = dp_epsilon {
        if !(eps > 0.0 && eps <= 1.0) {
            return Err(crate::error::config_err(
                "dp_epsilon",
                format!("DP-Boost ε must lie in (0, 1], got {eps}"),
            ));
        }
    }
    let tree = BidirectedTree::from_digraph(engine.graph(), engine.seeds())?;
    let k = engine.config().k;
    let t0 = Instant::now();
    let (boost_set, boost) = match dp_epsilon {
        None => {
            let out = greedy_boost(&tree, k);
            (out.boost_set, out.boost)
        }
        Some(eps) => {
            let out = dp_boost(&tree, k, eps);
            (out.boost_set, out.boost)
        }
    };
    let select_secs = t0.elapsed().as_secs_f64();
    Ok(Solution {
        algorithm: name,
        boost_set,
        delta_hat: Some(boost),
        mu_hat: None,
        certificate: None,
        stats: SolveStats {
            select_secs,
            ..SolveStats::default()
        },
    })
}

/// Wraps a pool-free baseline's selection. `Δ̂`/`µ̂` are filled only if the
/// engine already holds a pool (building one just to score a heuristic
/// would surprise callers with minutes of sampling) — use
/// [`Engine::evaluate`](crate::Engine::evaluate) to score explicitly.
fn baseline_solution(
    engine: &Engine,
    name: String,
    boost_set: Vec<NodeId>,
    t0: Instant,
) -> Solution {
    let select_secs = t0.elapsed().as_secs_f64();
    let (delta_hat, mu_hat) = match engine.pool_if_built() {
        Some(pool) => (
            Some(pool.delta_hat(&boost_set)),
            Some(pool.mu_hat(&boost_set)),
        ),
        None => (None, None),
    };
    Solution {
        algorithm: name,
        boost_set,
        delta_hat,
        mu_hat,
        certificate: None,
        stats: SolveStats {
            select_secs,
            ..SolveStats::default()
        },
    }
}
