//! [`Solution`] — the uniform result type every algorithm returns.

use kboost_graph::NodeId;

/// The Sandwich Approximation's run certificate (Theorem 2 context).
///
/// PRR-Boost's guarantee is `(1 − 1/e − ε)·µ(B*)/Δ_S(B*)`: the closer
/// `µ̂/Δ̂` sits to 1 on the returned solution, the tighter the sandwich.
/// The certificate records both candidate sets, their `Δ̂` scores, which
/// branch won, and the observed ratio.
#[derive(Clone, Debug)]
pub struct SandwichCertificate {
    /// The lower-bound-greedy candidate `B_µ`.
    pub b_mu: Vec<NodeId>,
    /// The `Δ̂`-greedy candidate `B_Δ`.
    pub b_delta: Vec<NodeId>,
    /// `Δ̂(B_µ)` under the run's pool.
    pub delta_hat_mu: f64,
    /// `Δ̂(B_Δ)` under the run's pool.
    pub delta_hat_delta: f64,
    /// Whether the `Δ̂`-greedy branch was returned (ties go to `B_Δ`).
    pub chose_delta: bool,
    /// `µ̂(best)/Δ̂(best)` — the empirical sandwich-ratio of the returned
    /// set (0 when `Δ̂(best) = 0`).
    pub ratio: f64,
}

/// Build / select diagnostics of one solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Total samples drawn for the backing pool (0 for pool-free
    /// baselines).
    pub total_samples: u64,
    /// Stored boostable PRR-graphs (or retained covers for the LB
    /// variant).
    pub boostable: u64,
    /// Sketches/PRR-graphs covered by the returned selection (0 when the
    /// algorithm has no coverage notion).
    pub covered: u64,
    /// Wall-clock seconds the backing pool's build took (sampling
    /// included). This is a property of the pool, not of the solve: a
    /// solve that reuses an already-built pool reports the same build
    /// time again.
    pub build_secs: f64,
    /// Wall-clock seconds in node selection.
    pub select_secs: f64,
    /// Peak bytes alive during the pool build (arena/payloads plus
    /// covers, before the covers are dropped).
    pub build_peak_bytes: usize,
    /// Bytes retained by the backing pool after the build.
    pub pool_bytes: usize,
    /// Bytes of `pool_bytes` held by per-sample staleness footprints —
    /// the memory cost of an exact
    /// [`Staleness`](crate::Staleness) rule (0 in approximate mode and
    /// for pool-free baselines).
    pub footprint_bytes: usize,
    /// The relative accuracy the backing pool's sample count actually
    /// guarantees: the ε at which the IMM sample bound demands exactly
    /// `total_samples` samples against the solution's own `µ̂` lower
    /// bound. For an uninterrupted IMM run this is at most the configured
    /// ε; for a budget-truncated run it is the honest (larger) figure the
    /// partial answer carries. `None` for pool-free algorithms.
    pub achieved_epsilon: Option<f64>,
    /// Whether the backing pool's sampling was stopped early by a
    /// [`Budget`](crate::Budget) — the solution is then a valid partial
    /// answer whose accuracy is `achieved_epsilon`, not the configured ε.
    pub interrupted: bool,
}

/// What an [`Engine`](crate::Engine) solve returns, uniformly across
/// PRR-Boost, the tree algorithms and every baseline.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Name of the algorithm that produced this solution.
    pub algorithm: String,
    /// The selected boost set `B` (at most `k` non-seed nodes).
    pub boost_set: Vec<NodeId>,
    /// The boost estimate for `boost_set`: `Δ̂` under the engine's PRR
    /// pool, or the *exact* `Δ_S(B)` for the tree algorithms. `None` when
    /// no estimator was available (pool-free baselines before any pool
    /// was built — call
    /// [`Engine::evaluate`](crate::Engine::evaluate) to score them).
    pub delta_hat: Option<f64>,
    /// The lower-bound estimate `µ̂(B)` where a PRR pool was available.
    pub mu_hat: Option<f64>,
    /// The sandwich certificate ([`Algorithm::Sandwich`] runs only).
    ///
    /// [`Algorithm::Sandwich`]: crate::Algorithm::Sandwich
    pub certificate: Option<SandwichCertificate>,
    /// Build/select timing and memory diagnostics.
    pub stats: SolveStats,
}
