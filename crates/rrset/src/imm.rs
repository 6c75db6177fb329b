//! The IMM sampling algorithm (Tang, Shi, Xiao — SIGMOD 2015).
//!
//! IMM draws enough sketches that, with probability `≥ 1 − n^−ℓ`, greedy
//! maximum coverage over the pool is a `(1 − 1/e − ε)`-approximation of the
//! underlying objective. The paper's Lemma 3 instantiates these bounds for
//! the lower-bound function `µ`; the same code selects influence-maximizing
//! seeds when fed RR-sets.
//!
//! Phase 1 (estimating `OPT`): for `x = n/2, n/4, …` draw `θ_i = λ'/x`
//! sketches, run greedy, and stop at the first `x` whose greedy estimate
//! clears `(1+ε')·x`; this certifies the lower bound `LB`.
//! Phase 2: grow the pool to `θ = λ*/LB` sketches and run greedy once more.

use kboost_obs::Obs;

use crate::greedy::{greedy_max_cover, CoverResult};
use crate::sketch::{ExtendStatus, SketchGenerator, SketchPool};
use crate::terminator::{Terminator, Unlimited};

/// Parameters of an IMM run.
#[derive(Clone, Copy, Debug)]
pub struct ImmParams {
    /// Solution size `k`.
    pub k: usize,
    /// Approximation slack ε (the paper uses 0.5).
    pub epsilon: f64,
    /// Failure exponent ℓ: success probability is `1 − n^−ℓ`.
    ///
    /// PRR-Boost passes `ℓ' = ℓ·(1 + log 3 / log n)` here to absorb its
    /// three union-bounded failure events (Algorithm 2, line 1).
    pub ell: f64,
    /// Worker threads for sketch generation.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional hard cap on the number of sketches (a pragmatic guard for
    /// experiment harnesses; `None` reproduces the paper exactly).
    pub max_sketches: Option<u64>,
    /// Minimum number of sketches regardless of the bounds. The martingale
    /// bounds assume `OPT ≥ 1`, which tiny test graphs violate; a floor
    /// keeps estimates usable there. `0` reproduces the paper.
    pub min_sketches: u64,
}

impl ImmParams {
    /// The paper's default setting: ε = 0.5, ℓ = 1.
    pub fn paper_defaults(k: usize) -> Self {
        ImmParams {
            k,
            epsilon: 0.5,
            ell: 1.0,
            threads: 8,
            seed: 0x133_75EED,
            max_sketches: None,
            min_sketches: 0,
        }
    }
}

/// Outcome of an IMM run: the selected nodes, the retained sketch pool and
/// diagnostic counters.
pub struct ImmRun<S> {
    /// Greedy selection over the final pool.
    pub result: CoverResult,
    /// The final sketch pool (PRR-Boost reuses its merged shard).
    pub pool: SketchPool<S>,
    /// The certified lower bound `LB` on `OPT` from phase 1.
    pub lower_bound: f64,
    /// The final sample target θ.
    pub theta: u64,
}

/// `ln C(n, k)` — logarithm of the binomial coefficient, `0` when `k > n`.
pub fn ln_binom(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k); // symmetry keeps the loop short
    (1..=k)
        .map(|i| ((n - k + i) as f64).ln() - (i as f64).ln())
        .sum()
}

/// Runs IMM against an arbitrary sketch generator.
///
/// Returns the greedy solution over the final pool; `n·covered/total` is a
/// `(1−1/e−ε)`-approximation of `max_{|B|≤k} F(B)` w.p. `≥ 1−n^−ℓ`.
pub fn run_imm<G: SketchGenerator>(generator: &G, params: &ImmParams) -> ImmRun<G::Shard> {
    run_imm_within(generator, params, &Unlimited, &Obs::noop()).0
}

/// [`run_imm`] under a cooperative stop condition: the terminator is
/// polled at every chunk boundary of both phases, and an interrupted run
/// returns the greedy selection over whatever the budget bought (the
/// second tuple element is `true`). The pool is always a deterministic
/// chunk prefix, so [`achieved_epsilon`] applied to its sample count
/// yields an honest a-posteriori guarantee. With
/// [`Unlimited`](crate::terminator::Unlimited) this *is* `run_imm`,
/// bit for bit. The pool records its chunks into `obs` (see
/// [`SketchPool::set_obs`]); recording never changes the run.
pub fn run_imm_within<G: SketchGenerator, T: Terminator + ?Sized>(
    generator: &G,
    params: &ImmParams,
    term: &T,
    obs: &Obs,
) -> (ImmRun<G::Shard>, bool) {
    let n = generator.universe() as f64;
    let k = params.k;
    let (eps, ell) = (params.epsilon, params.ell);
    // ℓ is bumped so the two phases' failure probabilities union-bound to
    // n^-ℓ (Tang et al., Section 4.2: ℓ ← ℓ + ln 2 / ln n).
    let ell = ell + 2f64.ln() / n.max(2.0).ln();

    let log_nk = ln_binom(
        generator.num_candidates(),
        k.min(generator.num_candidates()),
    );
    let eps_prime = 2f64.sqrt() * eps;
    let ln_n = n.max(2.0).ln();
    let log2_n = n.max(2.0).log2().max(1.0);

    // λ' from Tang et al. (Algorithm 2).
    let lambda_prime = (2.0 + 2.0 * eps_prime / 3.0) * (log_nk + ell * ln_n + log2_n.ln()) * n
        / (eps_prime * eps_prime);

    // λ* from Theorem 2 / the paper's Lemma 3.
    let alpha = (ell * ln_n + 2f64.ln()).sqrt();
    let beta = ((1.0 - 1.0 / std::f64::consts::E) * (log_nk + ell * ln_n + 2f64.ln())).sqrt();
    let e = std::f64::consts::E;
    let lambda_star = 2.0 * n * ((1.0 - 1.0 / e) * alpha + beta).powi(2) / (eps * eps);

    let mut pool = SketchPool::new(params.seed, params.threads);
    pool.set_obs(obs.clone());
    let mut lb = 1.0f64;
    let mut interrupted = false;

    let max_i = log2_n.floor() as u32;
    for i in 1..max_i {
        let x = n / 2f64.powi(i as i32);
        let theta_i = (lambda_prime / x).ceil() as u64;
        let theta_i = cap(theta_i, params.max_sketches);
        if pool.extend_to_within(generator, theta_i, term) == ExtendStatus::Interrupted {
            interrupted = true;
            break;
        }
        let res = greedy_max_cover(pool.covers(), generator.universe(), k, None);
        let est = n * res.covered as f64 / pool.total_samples() as f64;
        if est >= (1.0 + eps_prime) * x {
            lb = est / (1.0 + eps_prime);
            break;
        }
        if params
            .max_sketches
            .is_some_and(|cap| pool.total_samples() >= cap)
        {
            break;
        }
    }

    let theta = cap((lambda_star / lb).ceil() as u64, params.max_sketches).max(params.min_sketches);
    if !interrupted && pool.extend_to_within(generator, theta, term) == ExtendStatus::Interrupted {
        interrupted = true;
    }
    let result = greedy_max_cover(pool.covers(), generator.universe(), k, None);

    (
        ImmRun {
            result,
            pool,
            lower_bound: lb,
            theta,
        },
        interrupted,
    )
}

/// Inverts the IMM sample bound: the ε for which `theta` samples satisfy
/// `θ ≥ λ*(ε) / LB` — the *achieved* accuracy of a (possibly truncated)
/// pool, reported by `solve_within` so a deadline-cut answer still
/// carries an honest guarantee. Mirrors the λ* computation of
/// [`run_imm`] exactly (including the internal `ℓ ← ℓ + ln 2 / ln n`
/// union-bound bump), so `achieved_epsilon(…, θ(ε), LB) ≈ ε` when the
/// pool ran to completion. `opt_lb` is a lower bound on the optimum
/// (clamped to ≥ 1, as the martingale bounds assume).
pub fn achieved_epsilon(
    n: usize,
    num_candidates: usize,
    k: usize,
    ell: f64,
    theta: u64,
    opt_lb: f64,
) -> f64 {
    let n_f = n as f64;
    let ell = ell + 2f64.ln() / n_f.max(2.0).ln();
    let log_nk = ln_binom(num_candidates, k.min(num_candidates));
    let ln_n = n_f.max(2.0).ln();
    let e = std::f64::consts::E;
    let alpha = (ell * ln_n + 2f64.ln()).sqrt();
    let beta = ((1.0 - 1.0 / e) * (log_nk + ell * ln_n + 2f64.ln())).sqrt();
    let coef = 2.0 * n_f * ((1.0 - 1.0 / e) * alpha + beta).powi(2);
    (coef / (theta.max(1) as f64 * opt_lb.max(1.0))).sqrt()
}

fn cap(theta: u64, max: Option<u64>) -> u64 {
    match max {
        Some(m) => theta.min(m),
        None => theta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kboost_graph::NodeId;
    use rand::rngs::SmallRng;
    use rand::Rng;

    #[test]
    fn ln_binom_values() {
        assert!((ln_binom(5, 2) - 10f64.ln()).abs() < 1e-9);
        assert!((ln_binom(10, 0) - 0.0).abs() < 1e-12);
        assert!((ln_binom(10, 10) - 0.0).abs() < 1e-9);
        // C(50, 25) computed independently: ln ≈ 32.472...
        let expected = (126_410_606_437_752f64).ln();
        assert!((ln_binom(50, 25) - expected).abs() < 1e-6);
    }

    /// A synthetic objective: node 0 covers sketches w.p. 0.4, node 1 w.p.
    /// 0.2, the rest w.p. 0.01 each (disjointly). OPT for k=1 is node 0.
    struct Synthetic;

    impl SketchGenerator for Synthetic {
        type Shard = ();
        fn universe(&self) -> usize {
            20
        }
        fn generate(&self, rng: &mut SmallRng, (): &mut ()) -> Vec<NodeId> {
            let x: f64 = rng.random();
            let node = if x < 0.4 {
                Some(0u32)
            } else if x < 0.6 {
                Some(1)
            } else if x < 0.78 {
                Some(2 + ((x - 0.6) / 0.01) as u32)
            } else {
                None
            };
            match node {
                Some(v) => vec![NodeId(v)],
                None => Vec::new(),
            }
        }
    }

    #[test]
    fn imm_finds_the_heavy_node() {
        let params = ImmParams {
            k: 1,
            epsilon: 0.3,
            ell: 1.0,
            threads: 2,
            seed: 99,
            max_sketches: Some(200_000),
            min_sketches: 0,
        };
        let run = run_imm(&Synthetic, &params);
        assert_eq!(run.result.selected, vec![NodeId(0)]);
        // Estimated objective should approach n * 0.4 = 8.
        let est = 20.0 * run.result.covered as f64 / run.pool.total_samples() as f64;
        assert!((est - 8.0).abs() < 1.0, "estimate {est}");
        assert!(run.lower_bound >= 1.0);
        assert!(run.theta > 0);
    }

    #[test]
    fn imm_k2_takes_top_two() {
        let params = ImmParams {
            k: 2,
            epsilon: 0.3,
            ell: 1.0,
            threads: 2,
            seed: 7,
            max_sketches: Some(200_000),
            min_sketches: 0,
        };
        let run = run_imm(&Synthetic, &params);
        let mut sel = run.result.selected.clone();
        sel.sort_unstable();
        assert_eq!(sel, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn achieved_epsilon_inverts_the_sample_bound() {
        // θ derived from λ*(ε)/LB must invert back to ε (up to the ceil).
        let (n, cand, k, ell) = (5_000usize, 4_950usize, 20usize, 1.0f64);
        for eps in [0.3f64, 0.5, 1.0] {
            for lb in [1.0f64, 7.5, 120.0] {
                let coef = achieved_epsilon(n, cand, k, ell, 1, lb).powi(2) * lb.max(1.0);
                let theta = (coef / (eps * eps) / lb).ceil() as u64;
                let back = achieved_epsilon(n, cand, k, ell, theta, lb);
                assert!(
                    (back - eps).abs() < 1e-3,
                    "ε {eps} LB {lb} → θ {theta} → ε {back}"
                );
            }
        }
        // More samples → tighter ε; larger LB → tighter ε.
        let base = achieved_epsilon(n, cand, k, ell, 10_000, 5.0);
        assert!(achieved_epsilon(n, cand, k, ell, 40_000, 5.0) < base);
        assert!(achieved_epsilon(n, cand, k, ell, 10_000, 20.0) < base);
    }

    #[test]
    fn interrupted_imm_returns_a_usable_partial_run() {
        use crate::terminator::{StopAtChunk, Unlimited};
        let params = ImmParams {
            k: 1,
            epsilon: 0.3,
            ell: 1.0,
            threads: 2,
            seed: 99,
            max_sketches: Some(200_000),
            min_sketches: 0,
        };
        let (run, interrupted) = run_imm_within(&Synthetic, &params, &StopAtChunk(2), &Obs::noop());
        assert!(interrupted);
        assert!(run.pool.total_samples() > 0, "two chunks were bought");
        assert!(!run.result.selected.is_empty());
        // The unlimited variant is exactly run_imm.
        let (full, interrupted) = run_imm_within(&Synthetic, &params, &Unlimited, &Obs::noop());
        assert!(!interrupted);
        let reference = run_imm(&Synthetic, &params);
        assert_eq!(full.result.selected, reference.result.selected);
        assert_eq!(full.pool.total_samples(), reference.pool.total_samples());
        assert_eq!(full.theta, reference.theta);
    }

    #[test]
    fn cap_limits_pool() {
        let params = ImmParams {
            k: 1,
            epsilon: 0.5,
            ell: 1.0,
            threads: 2,
            seed: 3,
            max_sketches: Some(500),
            min_sketches: 0,
        };
        let run = run_imm(&Synthetic, &params);
        assert!(run.pool.total_samples() <= 500 + 4); // rounding slack per thread
    }
}
