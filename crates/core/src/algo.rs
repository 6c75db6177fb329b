//! Algorithm 2 — PRR-Boost — and its light variant PRR-Boost-LB.

use std::time::Instant;

use kboost_graph::{DiGraph, NodeId};
use kboost_prr::{greedy_delta_selection, PrrFullSource, PrrLbSource};
use kboost_rrset::imm::{run_imm, ImmParams};

use crate::pool::PrrPool;

/// Tuning knobs shared by both algorithms.
#[derive(Clone, Copy, Debug)]
pub struct BoostOptions {
    /// Approximation slack ε (paper default 0.5).
    pub epsilon: f64,
    /// Failure exponent ℓ (paper default 1; Algorithm 2 internally uses
    /// `ℓ' = ℓ·(1 + log 3/log n)`).
    pub ell: f64,
    /// Sketch-generation threads (paper: 8 OpenMP threads).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional sketch cap for bounded experiment runs.
    pub max_sketches: Option<u64>,
    /// Sketch floor (see [`ImmParams::min_sketches`]).
    pub min_sketches: u64,
}

impl Default for BoostOptions {
    fn default() -> Self {
        BoostOptions {
            epsilon: 0.5,
            ell: 1.0,
            threads: 8,
            seed: 0x0B00_57ED,
            max_sketches: None,
            min_sketches: 0,
        }
    }
}

impl BoostOptions {
    fn imm_params(&self, g: &DiGraph, k: usize) -> ImmParams {
        let n = (g.num_nodes() as f64).max(2.0);
        // Algorithm 2 line 1: ℓ' = ℓ · (1 + log 3 / log n).
        let ell_prime = self.ell * (1.0 + 3f64.ln() / n.ln());
        ImmParams {
            k,
            epsilon: self.epsilon,
            ell: ell_prime,
            threads: self.threads,
            seed: self.seed,
            max_sketches: self.max_sketches,
            min_sketches: self.min_sketches,
        }
    }
}

/// Diagnostics of a PRR-Boost / PRR-Boost-LB run.
#[derive(Clone, Debug, Default)]
pub struct BoostStats {
    /// Total PRR-graphs sampled (boostable or not).
    pub total_samples: u64,
    /// Stored boostable PRR-graphs.
    pub boostable: u64,
    /// Wall-clock seconds in the sampling phase.
    pub sampling_secs: f64,
    /// Wall-clock seconds in node selection.
    pub selection_secs: f64,
    /// Mean phase-I edges per boostable graph (compression-ratio
    /// numerator).
    pub avg_uncompressed_edges: f64,
    /// Mean compressed edges per boostable graph (denominator).
    pub avg_compressed_edges: f64,
    /// Bytes retained for boostable PRR-graphs (arena, or covers for the
    /// LB variant).
    pub memory_bytes: usize,
}

/// Result of a boosting run.
#[derive(Clone, Debug)]
pub struct BoostOutcome {
    /// The returned boost set `B_sa` (PRR-Boost) or `B_µ` (PRR-Boost-LB).
    pub best: Vec<NodeId>,
    /// The lower-bound-greedy set `B_µ`.
    pub b_mu: Vec<NodeId>,
    /// The `Δ̂`-greedy set `B_Δ` (empty for PRR-Boost-LB).
    pub b_delta: Vec<NodeId>,
    /// `Δ̂(best)` under the run's own pool (PRR-Boost) or `µ̂(B_µ)`
    /// (PRR-Boost-LB).
    pub estimate: f64,
    /// Run diagnostics.
    pub stats: BoostStats,
}

/// PRR-Boost (Algorithm 2): returns the boost set and, for further
/// analysis (sandwich ratios, re-estimation), the PRR-graph pool.
pub fn prr_boost(
    g: &DiGraph,
    seeds: &[NodeId],
    k: usize,
    opts: &BoostOptions,
) -> (BoostOutcome, PrrPool) {
    let t0 = Instant::now();
    let source = PrrFullSource::new(g, seeds, k);
    // Lines 2-3: IMM sampling sized for µ, plus the µ-greedy selection.
    let run = run_imm(&source, &opts.imm_params(g, k));
    let sampling_secs = t0.elapsed().as_secs_f64();
    let b_mu = run.result.selected.clone();

    let pool = PrrPool::new(run.pool, g.num_nodes(), opts.threads);

    // Line 4: greedy selection directly on Δ̂ over the same PRR-graphs,
    // via the inverted coverage index.
    let t1 = Instant::now();
    let delta_sel = greedy_delta_selection(pool.arena(), g.num_nodes(), k, opts.threads);
    let b_delta = delta_sel.selected;

    // Line 5: the Sandwich choice — keep whichever set has the larger
    // estimated boost.
    let est_mu = pool.delta_hat(&b_mu);
    let est_delta = pool.delta_hat(&b_delta);
    let (best, estimate) = if est_delta >= est_mu {
        (b_delta.clone(), est_delta)
    } else {
        (b_mu.clone(), est_mu)
    };
    let selection_secs = t1.elapsed().as_secs_f64();

    let (avg_unc, avg_cmp) = pool.compression_stats();
    let stats = BoostStats {
        total_samples: pool.total_samples(),
        boostable: pool.num_boostable() as u64,
        sampling_secs,
        selection_secs,
        avg_uncompressed_edges: avg_unc,
        avg_compressed_edges: avg_cmp,
        memory_bytes: pool.memory_bytes(),
    };

    (
        BoostOutcome {
            best,
            b_mu,
            b_delta,
            estimate,
            stats,
        },
        pool,
    )
}

/// PRR-Boost-LB (Section V-C): maximizes only the submodular lower bound,
/// trading a slightly weaker empirical solution for faster sampling and a
/// far smaller memory footprint.
pub fn prr_boost_lb(g: &DiGraph, seeds: &[NodeId], k: usize, opts: &BoostOptions) -> BoostOutcome {
    let t0 = Instant::now();
    let source = PrrLbSource::new(g, seeds, k);
    let run = run_imm(&source, &opts.imm_params(g, k));
    let sampling_secs = t0.elapsed().as_secs_f64();

    let b_mu = run.result.selected;
    let estimate =
        g.num_nodes() as f64 * run.result.covered as f64 / run.pool.total_samples().max(1) as f64;

    let boostable = run.pool.covers().len() as u64;
    let stats = BoostStats {
        total_samples: run.pool.total_samples(),
        boostable,
        sampling_secs,
        selection_secs: 0.0,
        avg_uncompressed_edges: 0.0,
        avg_compressed_edges: 0.0,
        memory_bytes: run.pool.cover_memory_bytes(),
    };
    BoostOutcome {
        best: b_mu.clone(),
        b_mu,
        b_delta: Vec::new(),
        estimate,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kboost_diffusion::exact::exact_boost;
    use kboost_graph::GraphBuilder;

    fn quick_opts(seed: u64) -> BoostOptions {
        BoostOptions {
            epsilon: 0.5,
            ell: 1.0,
            threads: 2,
            seed,
            max_sketches: Some(200_000),
            min_sketches: 100_000,
        }
    }

    fn figure1() -> DiGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure1_boosts_v0_not_v1() {
        // Section III-A: with one boost, v0 (node 1) beats v1 (node 2).
        let g = figure1();
        let (out, pool) = prr_boost(&g, &[NodeId(0)], 1, &quick_opts(21));
        assert_eq!(out.best, vec![NodeId(1)]);
        // Δ̂ should approximate Δ({v0}) = 0.22.
        let est = pool.delta_hat(&[NodeId(1)]);
        let truth = exact_boost(&g, &[NodeId(0)], &[NodeId(1)]);
        assert!((est - truth).abs() < 0.05, "Δ̂ {est} vs Δ {truth}");
    }

    #[test]
    fn lb_variant_agrees_on_figure1() {
        let g = figure1();
        let out = prr_boost_lb(&g, &[NodeId(0)], 1, &quick_opts(22));
        assert_eq!(out.best, vec![NodeId(1)]);
        assert!(out.stats.total_samples > 0);
        assert!(out.b_delta.is_empty());
    }

    #[test]
    fn k2_selects_both_path_nodes() {
        let g = figure1();
        let (out, _) = prr_boost(&g, &[NodeId(0)], 2, &quick_opts(23));
        let mut best = out.best.clone();
        best.sort_unstable();
        assert_eq!(best, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn stats_populated() {
        let g = figure1();
        let (out, _) = prr_boost(&g, &[NodeId(0)], 1, &quick_opts(24));
        assert!(out.stats.total_samples > 0);
        assert!(out.stats.boostable > 0);
        assert!(out.stats.avg_compressed_edges > 0.0);
        assert!(out.stats.memory_bytes > 0);
    }

    #[test]
    fn seeds_never_selected() {
        // A graph where the seed has huge in-probability edges: boosting it
        // would look attractive if allowed.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(1), NodeId(0), 0.5, 1.0).unwrap();
        b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.2, 0.4).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.2, 0.4).unwrap();
        let g = b.build().unwrap();
        let (out, _) = prr_boost(&g, &[NodeId(0)], 2, &quick_opts(25));
        assert!(
            !out.best.contains(&NodeId(0)),
            "seed in boost set: {:?}",
            out.best
        );
        let lb = prr_boost_lb(&g, &[NodeId(0)], 2, &quick_opts(26));
        assert!(!lb.best.contains(&NodeId(0)));
    }
}

/// PRR-Boost with the SSA-style adaptive sampler instead of IMM (Section
/// IV-A notes either framework applies): the pieces the engine's
/// `Sampling::Ssa` path wires together, checked on Figure 1.
#[cfg(test)]
mod ssa_tests {
    use super::*;
    use kboost_graph::GraphBuilder;
    use kboost_rrset::ssa::{run_ssa, SsaParams};

    #[test]
    fn ssa_variant_agrees_on_figure1() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
        let g = b.build().unwrap();
        let source = PrrFullSource::new(&g, &[NodeId(0)], 1);
        let params = SsaParams {
            k: 1,
            epsilon: 0.5,
            initial: 2_000,
            max_sketches: 400_000,
            threads: 2,
            seed: 71,
        };
        let run = run_ssa(&source, &params);
        let b_mu = run.result.selected;
        let pool = PrrPool::new(run.pool, g.num_nodes(), 2);
        let b_delta = greedy_delta_selection(pool.arena(), g.num_nodes(), 1, 2).selected;
        // The Sandwich choice, as in `prr_boost`.
        let best = if pool.delta_hat(&b_delta) >= pool.delta_hat(&b_mu) {
            b_delta
        } else {
            b_mu
        };
        assert_eq!(best, vec![NodeId(1)]);
        assert!(pool.total_samples() > 0);
    }
}
