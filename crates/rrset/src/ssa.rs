//! A Stop-and-Stare-style adaptive sampler (Nguyen, Thai, Dinh 2016).
//!
//! Section IV-A notes that "other similar frameworks based on RR-sets
//! (e.g., SSA/D-SSA) could also be applied" in place of IMM. This module
//! provides that alternative: instead of deriving a worst-case sample
//! count from martingale bounds, it doubles the sketch pool until the
//! greedy solution's coverage estimate *validates* on an independent pool
//! ("stare"), typically stopping with far fewer samples on easy instances.
//!
//! The stopping rule implemented here is the practical core of SSA: stop
//! at the first epoch where the selection pool's estimate and an equally
//! sized validation pool's estimate of the same solution agree within
//! `ε/3` relatively, and the estimate moved less than `ε/3` since the
//! previous epoch. (We keep IMM as the default because its guarantee is
//! what the paper's Lemma 3 states; SSA is offered for experimentation and
//! the ablation benches.)

use kboost_graph::NodeId;
use kboost_obs::Obs;

use crate::greedy::{greedy_max_cover, CoverResult};
use crate::sketch::{CoverOnly, ExtendStatus, SketchGenerator, SketchPool};
use crate::terminator::{Terminator, Unlimited};

/// Parameters of an SSA run.
#[derive(Clone, Copy, Debug)]
pub struct SsaParams {
    /// Solution size.
    pub k: usize,
    /// Target relative accuracy ε.
    pub epsilon: f64,
    /// Initial pool size (doubled each epoch).
    pub initial: u64,
    /// Hard cap on total samples across both pools.
    pub max_sketches: u64,
    /// Worker threads.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SsaParams {
    fn default() -> Self {
        SsaParams {
            k: 1,
            epsilon: 0.5,
            initial: 1_000,
            max_sketches: 50_000_000,
            threads: 8,
            seed: 0x55A,
        }
    }
}

/// Outcome of an SSA run.
pub struct SsaRun<S> {
    /// Greedy selection over the final selection pool.
    pub result: CoverResult,
    /// The selection pool (merged shard retained, as with IMM).
    pub pool: SketchPool<S>,
    /// The validation pool. Sampled through [`CoverOnly`], so it retains
    /// covers only — validation never evaluates retained graphs, and
    /// keeping a second arena alive doubled SSA's footprint for nothing.
    pub validation: SketchPool<()>,
    /// Objective estimate of the returned solution from the *validation*
    /// pool (unbiased: the validation pool never influenced selection).
    pub validated_estimate: f64,
    /// Number of doubling epochs used.
    pub epochs: u32,
}

/// Runs the adaptive sampler against any sketch generator.
pub fn run_ssa<G: SketchGenerator>(generator: &G, params: &SsaParams) -> SsaRun<G::Shard> {
    run_ssa_within(generator, params, &Unlimited, &Obs::noop()).0
}

/// [`run_ssa`] under a cooperative stop condition, polled at every chunk
/// boundary of both the selection and the validation pool. An interrupted
/// run (second tuple element `true`) returns the greedy selection over
/// the samples the budget bought; the validated estimate is then computed
/// on however much validation material exists (possibly none, in which
/// case it reads 0 — partial runs should be judged by the selection
/// pool's achieved ε instead). With
/// [`Unlimited`](crate::terminator::Unlimited) this *is* `run_ssa`.
/// Both pools record their chunks into `obs` (see
/// [`SketchPool::set_obs`]); recording never changes the run.
pub fn run_ssa_within<G: SketchGenerator, T: Terminator + ?Sized>(
    generator: &G,
    params: &SsaParams,
    term: &T,
    obs: &Obs,
) -> (SsaRun<G::Shard>, bool) {
    let n = generator.universe() as f64;
    let cover_only = CoverOnly(generator);
    let mut select_pool: SketchPool<G::Shard> = SketchPool::new(params.seed, params.threads);
    let mut validate_pool: SketchPool<()> =
        SketchPool::new(params.seed ^ 0xDEAD_BEEF, params.threads);
    select_pool.set_obs(obs.clone());
    validate_pool.set_obs(obs.clone());

    let mut target = params.initial.max(16);
    // NaN sentinel: `close` is false against it, forcing ≥ 2 epochs.
    let mut prev_estimate = f64::NAN;
    let mut epochs = 0u32;
    loop {
        epochs += 1;
        let select_status = select_pool.extend_to_within(generator, target, term);
        let result = greedy_max_cover(select_pool.covers(), generator.universe(), params.k, None);
        let est_select = n * result.covered as f64 / select_pool.total_samples().max(1) as f64;

        if select_status == ExtendStatus::Interrupted {
            let est_validate = validate_pool.estimate(generator.universe(), &result.selected);
            return (
                SsaRun {
                    result,
                    pool: select_pool,
                    validation: validate_pool,
                    validated_estimate: est_validate,
                    epochs,
                },
                true,
            );
        }

        // Stare: estimate the same solution on fresh samples.
        let validate_status = validate_pool.extend_to_within(&cover_only, target, term);
        let est_validate = validate_pool.estimate(generator.universe(), &result.selected);

        let tol = params.epsilon / 3.0;
        let close = |a: f64, b: f64| (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-12);
        let budget_spent =
            select_pool.total_samples() + validate_pool.total_samples() >= params.max_sketches;
        let interrupted = validate_status == ExtendStatus::Interrupted;
        if (close(est_select, est_validate) && close(est_validate, prev_estimate))
            || budget_spent
            || interrupted
        {
            return (
                SsaRun {
                    result,
                    pool: select_pool,
                    validation: validate_pool,
                    validated_estimate: est_validate,
                    epochs,
                },
                interrupted,
            );
        }
        prev_estimate = est_validate;
        target *= 2;
    }
}

/// Convenience: SSA-based seed selection (drop-in for
/// [`select_seeds`](crate::seeds::select_seeds)).
pub fn select_seeds_ssa(g: &kboost_graph::DiGraph, params: &SsaParams) -> (Vec<NodeId>, f64) {
    let run = run_ssa(&crate::ic::InfluenceRr::new(g), params);
    (run.result.selected, run.validated_estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kboost_graph::{GraphBuilder, NodeId};
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Node 0 covers w.p. 0.4, node 1 w.p. 0.2, empty otherwise.
    struct Synthetic;

    impl SketchGenerator for Synthetic {
        type Shard = ();
        fn universe(&self) -> usize {
            10
        }
        fn generate(&self, rng: &mut SmallRng, (): &mut ()) -> Vec<NodeId> {
            let x: f64 = rng.random();
            if x < 0.4 {
                vec![NodeId(0)]
            } else if x < 0.6 {
                vec![NodeId(1)]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn ssa_finds_heavy_node_cheaply() {
        let params = SsaParams {
            k: 1,
            epsilon: 0.3,
            seed: 1,
            threads: 2,
            ..Default::default()
        };
        let run = run_ssa(&Synthetic, &params);
        assert_eq!(run.result.selected, vec![NodeId(0)]);
        // Validated estimate ≈ 10 · 0.4 = 4.
        assert!(
            (run.validated_estimate - 4.0).abs() < 1.0,
            "est {}",
            run.validated_estimate
        );
        assert!(run.epochs >= 2, "must validate at least once");
    }

    #[test]
    fn ssa_respects_budget_cap() {
        let params = SsaParams {
            k: 1,
            epsilon: 0.001, // unreachable accuracy
            initial: 100,
            max_sketches: 5_000,
            threads: 2,
            seed: 2,
        };
        let run = run_ssa(&Synthetic, &params);
        assert!(run.pool.total_samples() <= 6_000);
    }

    #[test]
    fn validation_pool_retains_covers_only() {
        // A source that retains one shard entry per coverable sample: the
        // selection pool keeps its shard, while the validation pool samples
        // through `CoverOnly` and must retain nothing but covers.
        struct Retaining;
        impl SketchGenerator for Retaining {
            type Shard = Vec<u64>;
            fn universe(&self) -> usize {
                10
            }
            fn generate(&self, rng: &mut SmallRng, shard: &mut Vec<u64>) -> Vec<NodeId> {
                let x: f64 = rng.random();
                if x < 0.5 {
                    shard.push(0xFEED);
                    vec![NodeId(0)]
                } else {
                    Vec::new()
                }
            }
        }
        let params = SsaParams {
            k: 1,
            epsilon: 0.3,
            seed: 9,
            threads: 2,
            ..Default::default()
        };
        let run = run_ssa(&Retaining, &params);
        let retained = run.pool.total_samples() - run.pool.empty_samples();
        assert_eq!(run.pool.shard().len() as u64, retained);
        // The validation pool drew real samples but its shard is the unit
        // shard: retained validation memory is the covers alone.
        assert!(run.validation.total_samples() > 0);
        assert!(run.validation.cover_memory_bytes() > 0);
        let () = *run.validation.shard();
    }

    #[test]
    fn ssa_seed_selection_on_star() {
        let mut b = GraphBuilder::new(20);
        for v in 1..20u32 {
            b.add_edge(NodeId(0), NodeId(v), 0.8, 0.9).unwrap();
        }
        let g = b.build().unwrap();
        let params = SsaParams {
            k: 1,
            epsilon: 0.3,
            seed: 3,
            threads: 2,
            ..Default::default()
        };
        let (seeds, est) = select_seeds_ssa(&g, &params);
        assert_eq!(seeds, vec![NodeId(0)]);
        // σ({0}) = 1 + 19·0.8 = 16.2.
        assert!((est - 16.2).abs() < 2.0, "estimate {est}");
    }
}
