//! [`Engine`] — one handle over pool building, estimation, selection and
//! the online lifecycle.

use std::time::Instant;

use kboost_core::{sandwich_ratio_curve, PrrPool, RatioPoint};
use kboost_graph::{DiGraph, NodeId};
use kboost_obs::{MetricsSnapshot, Obs, Value};
use kboost_online::{
    validate_mutations, EpochBatch, EpochReport, MaintainerOptions, Mutation, PoolMaintainer,
};
use kboost_prr::{CompressedPrr, LegacyPrrSource, PrrFullSource};
use kboost_rrset::greedy::greedy_max_cover;
use kboost_rrset::imm::{achieved_epsilon, run_imm_within, ImmParams};
use kboost_rrset::sketch::{ExtendStatus, SketchPool};
use kboost_rrset::ssa::{run_ssa_within, SsaParams};
use kboost_serve::{PoolSnapshot, SnapshotService};

use crate::algorithms::BoostAlgorithm;
use crate::budget::{Budget, ResolvedBudget, SolveProgress};
use crate::config::{EngineConfig, Pipeline, Sampling};
use crate::error::KboostError;
use crate::solution::Solution;

/// The PRR pool behind the estimator-based algorithms, in whichever shape
/// the sampling policy produced it.
// One PoolState exists per Engine and it never moves after construction,
// so the size spread between `Unbuilt` and the pool-carrying variants is
// irrelevant.
#[allow(clippy::large_enum_variant)]
pub(crate) enum PoolState {
    /// No estimator query or PRR solve has happened yet.
    Unbuilt,
    /// IMM- or SSA-sized pool from a one-shot adaptive run. Remembers the
    /// run's µ-greedy selection so the Sandwich branch reuses it
    /// bit-for-bit.
    Adaptive {
        pool: PrrPool,
        b_mu: Vec<NodeId>,
        mu_covered: u64,
        build_secs: f64,
        peak_bytes: usize,
    },
    /// Fixed-size pool behind the online maintainer; serves queries while
    /// the graph evolves.
    Maintained {
        maintainer: PoolMaintainer,
        build_secs: f64,
    },
    /// Fixed-size pool built through the legacy per-graph payload
    /// pipeline (the equivalence oracle / memory baseline).
    Legacy {
        pool: PrrPool,
        build_secs: f64,
        convert_secs: f64,
        peak_bytes: usize,
    },
}

/// The unified entry point: owns the graph, seed set and configuration,
/// builds the PRR pool on demand, dispatches every algorithm through
/// [`solve`](Engine::solve), answers `Δ̂`/`µ̂` queries, and drives the
/// online maintainer behind the same handle.
///
/// Selections made through the engine are **bit-identical** to the
/// hand-wired pipeline under the determinism contract: same seed, same
/// sample-target sequence, any thread count (`tests/engine_api.rs`
/// asserts it against the legacy wiring at 1 and 7 threads).
pub struct Engine {
    /// `None` exactly while the graph lives inside the online maintainer.
    graph: Option<DiGraph>,
    seeds: Vec<NodeId>,
    cfg: EngineConfig,
    state: PoolState,
    /// The resolved budget a [`solve_within`](Self::solve_within) call
    /// stashed for the pool build its algorithm will trigger.
    pending: Option<ResolvedBudget>,
    /// Whether the built pool's sampling was stopped early by a budget —
    /// a property of the pool, reported on every solve that uses it.
    interrupted: bool,
    /// Observability handle ([`Obs::noop`] unless the builder attached a
    /// recorder); propagated into the maintainer, sampler and serving
    /// cell at pool build.
    obs: Obs,
}

impl Engine {
    /// Constructor used by [`EngineBuilder::build`] — config is already
    /// validated.
    ///
    /// [`EngineBuilder::build`]: crate::EngineBuilder::build
    pub(crate) fn from_validated(
        graph: DiGraph,
        seeds: Vec<NodeId>,
        cfg: EngineConfig,
        obs: Obs,
    ) -> Self {
        Engine {
            graph: Some(graph),
            seeds,
            cfg,
            state: PoolState::Unbuilt,
            pending: None,
            interrupted: false,
            obs,
        }
    }

    /// The current graph — the mutated one once epochs have been applied.
    pub fn graph(&self) -> &DiGraph {
        match &self.state {
            PoolState::Maintained { maintainer, .. } => maintainer.graph(),
            _ => self.graph.as_ref().expect("graph present while offline"),
        }
    }

    /// The seed set the engine is conditioned on.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// The validated configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// A point-in-time snapshot of every metric the attached recorder has
    /// accumulated — solve timings, sampler chunk throughput, online
    /// epoch accounting, serving publish/pin/lag histograms. Empty (all
    /// maps empty, zero events) when no recorder was attached through
    /// [`EngineBuilder::recorder`](crate::EngineBuilder::recorder) or the
    /// recorder does not implement
    /// [`Recorder::snapshot`](kboost_obs::Recorder::snapshot).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// The current mutation epoch (0 until a batch is applied).
    pub fn epoch(&self) -> u64 {
        match &self.state {
            PoolState::Maintained { maintainer, .. } => maintainer.epoch(),
            _ => 0,
        }
    }

    /// Solves with the given algorithm (any [`BoostAlgorithm`] impl,
    /// built-in or user-defined).
    pub fn solve<A: BoostAlgorithm + ?Sized>(
        &mut self,
        algorithm: &A,
    ) -> Result<Solution, KboostError> {
        // Cloned to a local so the span timer never holds a borrow of
        // `self` across the solver's `&mut Engine` access.
        let obs = self.obs.clone();
        let _span = obs.span("engine.solve.total_secs");
        let out = algorithm.solve(self);
        if obs.is_enabled() {
            if let Ok(solution) = &out {
                obs.counter_add("engine.solves", 1);
                obs.observe("engine.solve.build_secs", solution.stats.build_secs);
                obs.observe("engine.solve.convert_secs", solution.stats.convert_secs);
                obs.observe("engine.solve.select_secs", solution.stats.select_secs);
                if let Some(eps) = solution.stats.achieved_epsilon {
                    obs.gauge_set("engine.achieved_epsilon", eps);
                }
            }
        }
        out
    }

    /// Solves with the configured default algorithm
    /// ([`EngineConfig::algorithm`]).
    pub fn run(&mut self) -> Result<Solution, KboostError> {
        let algorithm = self.cfg.algorithm;
        self.solve(&algorithm)
    }

    /// [`solve`](Self::solve) under a latency [`Budget`]: the deadline,
    /// sample cap, and cancel flag are polled at every chunk boundary of
    /// the pool build this solve triggers, and sampling stops
    /// cooperatively as soon as any of them fires. Selection then runs on
    /// whatever the budget bought — always a valid pool prefix — and the
    /// solution reports the honest accuracy of that partial pool in
    /// [`SolveStats::achieved_epsilon`](crate::SolveStats::achieved_epsilon)
    /// plus [`SolveStats::interrupted`](crate::SolveStats::interrupted).
    ///
    /// `solve_within(alg, &Budget::unlimited())` is **bit-identical** to
    /// `solve(alg)`. A budget with only
    /// [`max_samples`](Budget::max_samples) is deterministic (the partial
    /// pool is bit-identical across thread counts); deadlines and cancel
    /// flags stop at a timing-dependent chunk.
    ///
    /// The budget governs the *pool build*; if the pool already exists
    /// the solve is pure selection (milliseconds) and completes
    /// regardless of the budget.
    pub fn solve_within<A: BoostAlgorithm + ?Sized>(
        &mut self,
        algorithm: &A,
        budget: &Budget,
    ) -> Result<Solution, KboostError> {
        self.pending = Some(budget.resolve());
        let out = self.solve(algorithm);
        self.pending = None;
        out
    }

    /// [`run`](Self::run) under a latency [`Budget`].
    pub fn run_within(&mut self, budget: &Budget) -> Result<Solution, KboostError> {
        let algorithm = self.cfg.algorithm;
        self.solve_within(&algorithm, budget)
    }

    /// Builds the engine's pool under a [`Budget`] without solving —
    /// useful to warm a service up to whatever accuracy a startup window
    /// allows, then answer `Δ̂`/`µ̂`/solve queries on the partial pool.
    /// No-op if the pool is already built.
    pub fn build_pool_within(&mut self, budget: &Budget) -> Result<(), KboostError> {
        if !matches!(self.state, PoolState::Unbuilt) {
            return Ok(());
        }
        let term = budget.resolve();
        self.build_pool_with(&term)
    }

    /// Whether the built pool's sampling was stopped early by a budget.
    /// `false` until a pool exists. A pool interrupted at build keeps
    /// serving — every query and solve it answers is flagged through
    /// [`SolveStats::interrupted`](crate::SolveStats::interrupted).
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// `Δ̂(B)` over the engine's pool (built on first use).
    pub fn delta_hat(&mut self, boost: &[NodeId]) -> Result<f64, KboostError> {
        self.ensure_pool()?;
        Ok(self.pool_built().delta_hat(boost))
    }

    /// `µ̂(B)` over the engine's pool (built on first use).
    pub fn mu_hat(&mut self, boost: &[NodeId]) -> Result<f64, KboostError> {
        self.ensure_pool()?;
        Ok(self.pool_built().mu_hat(boost))
    }

    /// `(Δ̂(B), µ̂(B))` in one call — the uniform way to score any boost
    /// set (e.g. a pool-free baseline's) on the engine's estimator.
    pub fn evaluate(&mut self, boost: &[NodeId]) -> Result<(f64, f64), KboostError> {
        self.ensure_pool()?;
        let pool = self.pool_built();
        Ok((pool.delta_hat(boost), pool.mu_hat(boost)))
    }

    /// Scores a whole batch of candidate boost sets in one arena
    /// traversal (`(Δ̂, µ̂)` per candidate) — bit-for-bit equal to
    /// calling [`evaluate`](Self::evaluate) per set, which is retained
    /// as the equivalence oracle (`tests/serve.rs` asserts the identity
    /// over random batches). Works on any pool shape; serving callers
    /// get the same kernel lock-free through
    /// [`PoolSnapshot::evaluate_many`](kboost_serve::PoolSnapshot::evaluate_many).
    pub fn evaluate_many(
        &mut self,
        candidates: &[Vec<NodeId>],
    ) -> Result<Vec<(f64, f64)>, KboostError> {
        self.ensure_pool()?;
        Ok(self.pool_built().evaluate_many(candidates))
    }

    /// The engine's serving cell: a cloneable [`SnapshotService`] whose
    /// readers pin immutable epoch snapshots while this engine keeps
    /// applying mutation epochs — created on first call (publishing the
    /// current state, building the pool if needed) and re-published by
    /// the maintainer after every committed epoch.
    ///
    /// Config validation: serving shares the online requirements
    /// ([`Sampling::Fixed`] + the shard pipeline), rejected with a typed
    /// [`KboostError::Unsupported`] otherwise — an adaptive or legacy
    /// pool has no maintainer to publish epochs.
    ///
    /// [`SnapshotService`]: kboost_serve::SnapshotService
    pub fn serving(&mut self) -> Result<SnapshotService, KboostError> {
        self.require_online("serving")?;
        self.ensure_pool()?;
        let PoolState::Maintained { maintainer, .. } = &mut self.state else {
            unreachable!("require_online guarantees the maintained state");
        };
        Ok(maintainer.serving())
    }

    /// Freezes the engine's current pool state as an epoch-stamped
    /// [`PoolSnapshot`](kboost_serve::PoolSnapshot) — the pinned-epoch
    /// oracle serving tests compare concurrent answers against. Same
    /// online requirements as [`serving`](Self::serving).
    pub fn snapshot(&mut self) -> Result<PoolSnapshot, KboostError> {
        self.require_online("snapshot")?;
        self.ensure_pool()?;
        let PoolState::Maintained { maintainer, .. } = &self.state else {
            unreachable!("require_online guarantees the maintained state");
        };
        Ok(maintainer.snapshot())
    }

    /// The sandwich-ratio analysis of Figures 7/9/12: `num_sets`
    /// perturbations of `base`, keeping sets with
    /// `Δ̂ ≥ keep_above_frac · Δ̂(base)`.
    pub fn ratio_curve(
        &mut self,
        base: &[NodeId],
        num_sets: usize,
        keep_above_frac: f64,
        curve_seed: u64,
    ) -> Result<Vec<RatioPoint>, KboostError> {
        self.ensure_pool()?;
        Ok(sandwich_ratio_curve(
            self.graph(),
            self.pool_built(),
            &self.seeds,
            base,
            num_sets,
            keep_above_frac,
            curve_seed,
        ))
    }

    /// The engine's PRR pool, building it on first use.
    pub fn pool(&mut self) -> Result<&PrrPool, KboostError> {
        self.ensure_pool()?;
        Ok(self.pool_built())
    }

    /// The engine's PRR pool if some solve or query already built it.
    pub fn pool_if_built(&self) -> Option<&PrrPool> {
        match &self.state {
            PoolState::Unbuilt => None,
            PoolState::Adaptive { pool, .. } | PoolState::Legacy { pool, .. } => Some(pool),
            PoolState::Maintained { maintainer, .. } => Some(maintainer.pool()),
        }
    }

    /// Applies one sealed mutation epoch: mutates the graph, tombstones
    /// stale samples, resamples exactly that share, compacts past the
    /// threshold — all behind this handle, so the same engine keeps
    /// serving `Δ̂`/`µ̂`/solve queries while the graph evolves.
    ///
    /// Requires [`Sampling::Fixed`] (the maintainer keeps the sample
    /// count constant) and the shard pipeline. The epoch is
    /// transactional: a gap is a typed [`KboostError::EpochOrder`], a
    /// malformed mutation (out-of-universe endpoint, self-loop) is a
    /// typed [`KboostError::Mutation`] — never a panic — and in every
    /// error case nothing was applied.
    pub fn apply_mutations(&mut self, batch: &EpochBatch) -> Result<EpochReport, KboostError> {
        self.apply_mutations_within(batch, &Budget::unlimited())
    }

    /// [`apply_mutations`](Self::apply_mutations) under a latency
    /// [`Budget`], polled at every chunk boundary of the epoch's refresh
    /// sampling. A budget that fires mid-refresh aborts the epoch with
    /// [`KboostError::Interrupted`] and **rolls the pool back** to its
    /// byte-identical pre-epoch state; the same batch can be retried
    /// verbatim (with a bigger budget) and converges to exactly what an
    /// uninterrupted apply would have produced.
    pub fn apply_mutations_within(
        &mut self,
        batch: &EpochBatch,
        budget: &Budget,
    ) -> Result<EpochReport, KboostError> {
        self.require_online("apply_mutations")?;
        // Validate at ingress, before the (possibly expensive) first
        // pool build a bad batch must not trigger.
        validate_mutations(self.graph().num_nodes(), &batch.mutations)
            .map_err(KboostError::from)?;
        self.ensure_pool()?;
        let PoolState::Maintained { maintainer, .. } = &mut self.state else {
            unreachable!("require_online guarantees the maintained state");
        };
        let term = budget.resolve();
        maintainer
            .apply_epoch_within(batch, &term)
            .map_err(KboostError::from)
    }

    /// Dry run of the staleness rule: the live stored samples `mutations`
    /// would invalidate, in ascending graph order — useful to size a
    /// batch before sealing it. Builds the pool on first use.
    pub fn stale_graphs(&mut self, mutations: &[Mutation]) -> Result<Vec<u32>, KboostError> {
        self.require_online("stale_graphs")?;
        validate_mutations(self.graph().num_nodes(), mutations).map_err(KboostError::from)?;
        self.ensure_pool()?;
        let PoolState::Maintained { maintainer, .. } = &mut self.state else {
            unreachable!("require_online guarantees the maintained state");
        };
        Ok(maintainer.stale_graphs(mutations))
    }

    fn require_online(&self, operation: &'static str) -> Result<(), KboostError> {
        match (self.cfg.sampling, self.cfg.pipeline) {
            (Sampling::Fixed { .. }, Pipeline::Shard) => Ok(()),
            (_, Pipeline::Legacy) => Err(KboostError::Unsupported {
                operation,
                reason: "the legacy oracle pipeline cannot maintain a pool online".into(),
            }),
            _ => Err(KboostError::Unsupported {
                operation,
                reason: "online maintenance requires Sampling::Fixed so the maintainer can \
                         keep the sample count constant across epochs"
                    .into(),
            }),
        }
    }

    /// IMM parameters exactly as Algorithm 2 derives them from the
    /// engine config (`ℓ' = ℓ·(1 + log 3/log n)`).
    pub(crate) fn imm_params(&self) -> ImmParams {
        let n = (self.graph().num_nodes() as f64).max(2.0);
        ImmParams {
            k: self.cfg.k,
            epsilon: self.cfg.epsilon,
            ell: self.cfg.ell * (1.0 + 3f64.ln() / n.ln()),
            threads: self.cfg.threads,
            seed: self.cfg.seed,
            max_sketches: self.cfg.max_sketches,
            min_sketches: self.cfg.min_sketches,
        }
    }

    /// Builds the pool dictated by the sampling policy, once. Consumes
    /// the budget a surrounding [`solve_within`](Self::solve_within)
    /// stashed (unlimited otherwise) — one code path for budgeted and
    /// plain solves, which is what makes them bit-identical.
    pub(crate) fn ensure_pool(&mut self) -> Result<(), KboostError> {
        if !matches!(self.state, PoolState::Unbuilt) {
            return Ok(());
        }
        let term = self
            .pending
            .take()
            .unwrap_or_else(|| Budget::unlimited().resolve());
        self.build_pool_with(&term)
    }

    /// The budget a surrounding [`solve_within`](Self::solve_within)
    /// stashed, for algorithms that sample outside the engine's own pool
    /// (PRR-Boost-LB under adaptive sampling).
    pub(crate) fn take_pending(&mut self) -> Option<ResolvedBudget> {
        self.pending.take()
    }

    /// The engine's observability handle, for pools sampled outside the
    /// engine pool (PRR-Boost-LB under adaptive sampling).
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Records whether the engine-pool build was stopped early.
    pub(crate) fn build_interrupted(&self) -> bool {
        self.interrupted
    }

    fn build_pool_with(&mut self, term: &ResolvedBudget) -> Result<(), KboostError> {
        match (self.cfg.sampling, self.cfg.pipeline) {
            (Sampling::Imm, Pipeline::Shard) => {
                let t0 = Instant::now();
                let g = self.graph.as_ref().expect("offline engine owns the graph");
                let source = PrrFullSource::new(g, &self.seeds, self.cfg.k);
                let (run, interrupted) =
                    run_imm_within(&source, &self.imm_params(), term, &self.obs);
                let peak_bytes = run.pool.shard().memory_bytes() + run.pool.cover_memory_bytes();
                let pool = PrrPool::new(run.pool, g.num_nodes(), self.cfg.threads);
                self.interrupted = interrupted;
                self.state = PoolState::Adaptive {
                    pool,
                    b_mu: run.result.selected,
                    mu_covered: run.result.covered,
                    build_secs: t0.elapsed().as_secs_f64(),
                    peak_bytes,
                };
            }
            (Sampling::Ssa { initial }, Pipeline::Shard) => {
                let t0 = Instant::now();
                let g = self.graph.as_ref().expect("offline engine owns the graph");
                let source = PrrFullSource::new(g, &self.seeds, self.cfg.k);
                let params = SsaParams {
                    k: self.cfg.k,
                    epsilon: self.cfg.epsilon,
                    initial,
                    max_sketches: self.cfg.max_sketches.unwrap_or(u64::MAX / 2),
                    threads: self.cfg.threads,
                    seed: self.cfg.seed,
                };
                let (run, interrupted) = run_ssa_within(&source, &params, term, &self.obs);
                let peak_bytes = run.pool.shard().memory_bytes() + run.pool.cover_memory_bytes();
                let pool = PrrPool::new(run.pool, g.num_nodes(), self.cfg.threads);
                self.interrupted = interrupted;
                self.state = PoolState::Adaptive {
                    pool,
                    b_mu: run.result.selected,
                    mu_covered: run.result.covered,
                    build_secs: t0.elapsed().as_secs_f64(),
                    peak_bytes,
                };
            }
            (Sampling::Fixed { samples }, Pipeline::Shard) => {
                let t0 = Instant::now();
                // The maintainer takes the graph by value; keep ours
                // until the build succeeds so a typed failure (bad
                // staleness config, injected panic) leaves the engine
                // fully usable. The copy is a flat-array memcpy — noise
                // against the sampling the build is about to do.
                let g = self
                    .graph
                    .as_ref()
                    .expect("offline engine owns the graph")
                    .clone();
                let n = g.num_nodes();
                let k = self.cfg.k;
                let ell = self.imm_params().ell;
                let seeds = self.seeds.clone();
                let num_seeds = seeds.len();
                let mut eligible = vec![true; n];
                for &s in &seeds {
                    eligible[s.index()] = false;
                }
                // Stage-boundary progress: a greedy pass over the covers
                // so far gives the running Δ̂, and inverting the IMM
                // bound at the current sample count gives the accuracy
                // already guaranteed.
                let obs = self.obs.clone();
                let mut on_stage = |target: u64, pool: &SketchPool<_>| {
                    let drawn = pool.total_samples();
                    let res = greedy_max_cover(pool.covers(), n, k, Some(&eligible));
                    let delta = n as f64 * res.covered as f64 / drawn.max(1) as f64;
                    let eps = achieved_epsilon(n, n - num_seeds, k, ell, drawn, delta);
                    obs.event(
                        "engine.budget_tick",
                        &[
                            ("samples", Value::from(drawn)),
                            ("target", Value::from(target)),
                            ("delta_hat", Value::from(delta)),
                            ("achieved_epsilon", Value::from(eps)),
                        ],
                    );
                    term.notify(&SolveProgress {
                        samples: drawn,
                        target: Some(target),
                        delta_hat: Some(delta),
                        achieved_epsilon: Some(eps),
                        best_boost: Some(res.selected),
                    });
                };
                let maintainer = PoolMaintainer::build_within_with_obs(
                    g,
                    seeds,
                    MaintainerOptions {
                        target_samples: samples,
                        k: self.cfg.k,
                        threads: self.cfg.threads,
                        base_seed: self.cfg.seed,
                        compact_threshold: self.cfg.compact_threshold,
                        staleness: self.cfg.staleness,
                    },
                    self.obs.clone(),
                    term,
                    &mut on_stage,
                )
                .map_err(KboostError::from)?;
                self.graph = None;
                self.interrupted = maintainer.pool().total_samples() < samples;
                self.state = PoolState::Maintained {
                    maintainer,
                    build_secs: t0.elapsed().as_secs_f64(),
                };
            }
            (Sampling::Fixed { samples }, Pipeline::Legacy) => {
                let t0 = Instant::now();
                let g = self.graph.as_ref().expect("offline engine owns the graph");
                let source = LegacyPrrSource::new(g, &self.seeds, self.cfg.k);
                let mut sketches: SketchPool<Vec<CompressedPrr>> =
                    SketchPool::new(self.cfg.seed, self.cfg.threads);
                sketches.set_obs(self.obs.clone());
                let status = sketches.extend_to_within(&source, samples, term);
                self.interrupted = status == ExtendStatus::Interrupted;
                let build_secs = t0.elapsed().as_secs_f64();
                let payload_bytes: usize = sketches
                    .shard()
                    .iter()
                    .map(|c| c.memory_bytes() + std::mem::size_of::<CompressedPrr>())
                    .sum();
                let cover_bytes = sketches.cover_memory_bytes();
                let t1 = Instant::now();
                let pool = PrrPool::from_legacy(sketches, g.num_nodes(), self.cfg.threads);
                let convert_secs = t1.elapsed().as_secs_f64();
                let peak_bytes = payload_bytes + cover_bytes + pool.memory_bytes();
                self.state = PoolState::Legacy {
                    pool,
                    build_secs,
                    convert_secs,
                    peak_bytes,
                };
            }
            (_, Pipeline::Legacy) => {
                unreachable!("EngineBuilder rejects adaptive sampling on the legacy pipeline")
            }
        }
        Ok(())
    }

    /// The built pool; panics if [`ensure_pool`](Self::ensure_pool) has
    /// not run — callers inside the crate always pair them.
    pub(crate) fn pool_built(&self) -> &PrrPool {
        self.pool_if_built()
            .expect("ensure_pool must run before pool_built")
    }

    /// The µ-greedy (lower bound) selection over the engine's pool: the
    /// adaptive run's cached IMM/SSA selection, or — for fixed-size
    /// pools — the lazy greedy over the live samples' critical sets.
    /// The fixed-size path recomputes (and re-materializes the critical
    /// covers) on every call; selection is milliseconds against the
    /// minutes sampling costs, so no per-epoch cache is kept until a
    /// profile says otherwise.
    pub(crate) fn mu_selection(&mut self) -> Result<(Vec<NodeId>, u64), KboostError> {
        self.ensure_pool()?;
        if let PoolState::Adaptive {
            b_mu, mu_covered, ..
        } = &self.state
        {
            return Ok((b_mu.clone(), *mu_covered));
        }
        let n = self.graph().num_nodes();
        let mut eligible = vec![true; n];
        for &s in &self.seeds {
            eligible[s.index()] = false;
        }
        let pool = self.pool_built();
        let arena = pool.arena();
        let covers: Vec<Vec<NodeId>> = (0..arena.len())
            .filter(|&i| arena.is_live(i))
            .map(|i| arena.graph(i).critical().to_vec())
            .collect();
        let res = greedy_max_cover(&covers, n, self.cfg.k, Some(&eligible));
        Ok((res.selected, res.covered))
    }

    /// `(build_secs, convert_secs, peak_bytes)` of the pool build — the
    /// numbers `exp_perf` records per pipeline.
    pub(crate) fn pool_build_stats(&self) -> (f64, f64, usize) {
        match &self.state {
            PoolState::Unbuilt => (0.0, 0.0, 0),
            PoolState::Adaptive {
                build_secs,
                peak_bytes,
                ..
            } => (*build_secs, 0.0, *peak_bytes),
            PoolState::Maintained {
                maintainer,
                build_secs,
            } => (*build_secs, 0.0, maintainer.build_peak_bytes()),
            PoolState::Legacy {
                build_secs,
                convert_secs,
                peak_bytes,
                ..
            } => (*build_secs, *convert_secs, *peak_bytes),
        }
    }
}
