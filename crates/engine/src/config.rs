//! [`EngineBuilder`] — validated configuration for an [`Engine`].
//!
//! Every knob that used to be hand-threaded through `BoostOptions`,
//! `ImmParams`, `SsaParams` and `MaintainerOptions` lives here once:
//! graph, seed set, budget `k`, sampling parameters (ε and the failure
//! exponent ℓ, or the failure probability δ = n^−ℓ directly), base RNG
//! seed, thread count and the default algorithm. [`build`] checks the
//! whole configuration and returns a typed [`KboostError::Config`] per
//! violated constraint instead of panicking deep inside a sampler.
//!
//! [`build`]: EngineBuilder::build
//! [`Engine`]: crate::Engine
//! [`KboostError::Config`]: crate::KboostError::Config

use std::sync::Arc;

use kboost_graph::{DiGraph, NodeId};
use kboost_obs::{Obs, Recorder};
use kboost_online::Staleness;

use crate::algorithms::Algorithm;
use crate::engine::Engine;
use crate::error::{config_err, KboostError};

/// How the PRR-graph pool behind the estimator-based algorithms is sized.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sampling {
    /// IMM-style worst-case sizing from `(ε, ℓ)` — Algorithm 2 of the
    /// paper, with the formal `(1 − 1/e − ε)`-style guarantee.
    Imm,
    /// SSA-style adaptive sampling: stop once the greedy solution
    /// validates on an independent pool. Usually far fewer sketches than
    /// IMM, at the cost of the formal guarantee.
    Ssa {
        /// Samples drawn in the first doubling epoch (default 2000).
        initial: u64,
    },
    /// A fixed-size pool. Required for online maintenance
    /// ([`Engine::apply_mutations`](crate::Engine::apply_mutations)): the
    /// maintainer keeps exactly this many samples alive at every epoch.
    Fixed {
        /// Total samples drawn (and maintained, in online mode).
        samples: u64,
    },
}

/// A fully validated engine configuration (everything but the graph and
/// seed set, which the [`Engine`] owns directly).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Boost budget `k`.
    pub k: usize,
    /// Approximation slack ε (paper default 0.5).
    pub epsilon: f64,
    /// Failure exponent ℓ: the guarantee holds with probability
    /// `1 − n^−ℓ`. Algorithm 2 internally bumps it to
    /// `ℓ' = ℓ·(1 + log 3/log n)`.
    pub ell: f64,
    /// Base RNG seed of the determinism contract.
    pub seed: u64,
    /// Worker threads for sampling, estimation and selection.
    pub threads: usize,
    /// Optional hard cap on drawn sketches (experiment guard).
    pub max_sketches: Option<u64>,
    /// Sketch floor regardless of the bounds (tiny-graph guard).
    pub min_sketches: u64,
    /// Pool sizing policy.
    pub sampling: Sampling,
    /// Online maintenance: compact the arena when the tombstoned fraction
    /// exceeds this threshold.
    pub compact_threshold: f64,
    /// Online maintenance: the staleness-detection rule (exact modes
    /// retain per-sample footprints; see
    /// [`Staleness`]).
    pub staleness: Staleness,
    /// The algorithm [`Engine::run`](crate::Engine::run) dispatches to.
    pub algorithm: Algorithm,
}

/// Builder for [`Engine`] — the single typed entry point over the whole
/// workspace.
///
/// ```
/// use kboost_engine::{EngineBuilder, KboostError};
/// use kboost_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
/// let g = b.build().unwrap();
///
/// // A seed outside the graph is rejected at build time, not deep in a
/// // sampler:
/// let err = EngineBuilder::new(g).seeds([NodeId(9)]).k(1).build();
/// assert!(matches!(err, Err(KboostError::Config { field: "seeds", .. })));
/// ```
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    graph: DiGraph,
    seeds: Vec<NodeId>,
    k: usize,
    epsilon: f64,
    ell: f64,
    delta: Option<f64>,
    seed: u64,
    threads: usize,
    max_sketches: Option<u64>,
    min_sketches: u64,
    sampling: Sampling,
    compact_threshold: f64,
    staleness: Staleness,
    algorithm: Algorithm,
    obs: Obs,
}

impl EngineBuilder {
    /// Starts a builder over `graph` with the paper's default parameters
    /// (ε = 0.5, ℓ = 1, 8 threads, IMM sampling, the Sandwich
    /// Approximation as the default algorithm).
    pub fn new(graph: DiGraph) -> Self {
        EngineBuilder {
            graph,
            seeds: Vec::new(),
            k: 1,
            epsilon: 0.5,
            ell: 1.0,
            delta: None,
            seed: 0x0B00_57ED,
            threads: 8,
            max_sketches: None,
            min_sketches: 0,
            sampling: Sampling::Imm,
            compact_threshold: 0.25,
            staleness: Staleness::Approximate,
            algorithm: Algorithm::Sandwich,
            obs: Obs::noop(),
        }
    }

    /// The seed set `S` the boost is conditioned on (required, non-empty).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = NodeId>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// The boost budget `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Approximation slack ε ∈ (0, 1).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Failure exponent ℓ > 0 (success probability `1 − n^−ℓ`).
    pub fn ell(mut self, ell: f64) -> Self {
        self.ell = ell;
        self.delta = None;
        self
    }

    /// Failure probability δ ∈ (0, 1) — the convenience spelling of the
    /// guarantee: `build` converts it to `ℓ = ln(1/δ)/ln n`. Overrides
    /// [`ell`](Self::ell).
    pub fn failure_probability(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Base RNG seed. Results are a pure function of this seed and the
    /// sample-target sequence, never of the thread count.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads (≥ 1) for sampling, estimation and selection.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Optional hard cap on drawn sketches (bounded experiment runs).
    pub fn max_sketches(mut self, max: u64) -> Self {
        self.max_sketches = Some(max);
        self
    }

    /// Sketch floor regardless of the theoretical bounds.
    pub fn min_sketches(mut self, min: u64) -> Self {
        self.min_sketches = min;
        self
    }

    /// Pool sizing policy (default [`Sampling::Imm`]).
    pub fn sampling(mut self, sampling: Sampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// Online maintenance compaction threshold ∈ [0, 1] (default 0.25).
    pub fn compact_threshold(mut self, threshold: f64) -> Self {
        self.compact_threshold = threshold;
        self
    }

    /// Online staleness-detection rule (default
    /// [`Staleness::Approximate`]). The default under-detects: at
    /// `exp_online`'s default scale (20k nodes, 40k samples, ~10 %
    /// churn) epoch 1 invalidated 667 samples, against 8,483 under exact
    /// detection (4,217 stored graphs + 4,266 empty samples). The exact
    /// modes retain a per-sample edge-space footprint so mutations
    /// invalidate exactly the samples whose generation queried them —
    /// zero estimator drift at the cost of footprint memory
    /// ([`SolveStats::footprint_bytes`]). Memory tiers: `ExactCompressed`
    /// stores interned delta-varint blobs, `ExactHybrid` bounds the long
    /// tail with constant-size fingerprints (never-miss, extra
    /// refreshes), and `ExactTrace` adds each sample's coin trace so
    /// invalidated samples are conditionally *replayed* instead of
    /// redrawn — the maintained pool stays distribution-fresh under
    /// partial churn. Exact modes require [`Sampling::Fixed`]: footprints
    /// only pay off where a maintainer can refresh.
    ///
    /// [`SolveStats::footprint_bytes`]: crate::SolveStats::footprint_bytes
    pub fn staleness(mut self, staleness: Staleness) -> Self {
        self.staleness = staleness;
        self
    }

    /// The algorithm [`Engine::run`](crate::Engine::run) dispatches to
    /// (default [`Algorithm::Sandwich`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Attaches a metrics [`Recorder`] (e.g.
    /// [`MetricsRecorder`](kboost_obs::MetricsRecorder)) to the engine's
    /// whole lifecycle: solve stage timings, sampler chunk throughput,
    /// online epoch accounting and serving publish/pin metrics all flow
    /// into it, and [`Engine::metrics`](crate::Engine::metrics) reads it
    /// back. Without a recorder every instrumentation point is a single
    /// predicted-not-taken branch — no clock reads, no allocation.
    ///
    /// Recording never consumes randomness: solves, sampled pools and
    /// mutation histories are **bit-identical** with and without a
    /// recorder attached (`tests/obs.rs` asserts it property-style).
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.obs = Obs::new(recorder);
        self
    }

    /// Validates the whole configuration and produces the [`Engine`].
    ///
    /// # Errors
    /// Returns [`KboostError::Config`] naming the offending field for:
    /// an empty graph, an empty / out-of-range / duplicated seed set, a
    /// budget larger than the non-seed population, ε ∉ (0, 1), ℓ ≤ 0
    /// (or δ ∉ (0, 1)), zero threads, a zero fixed sample target, a
    /// sketch cap below the floor, a compaction threshold outside
    /// [0, 1], or an exact staleness rule without fixed sampling.
    pub fn build(self) -> Result<Engine, KboostError> {
        let n = self.graph.num_nodes();
        if n == 0 {
            return Err(config_err("graph", "graph has no nodes"));
        }
        if self.seeds.is_empty() {
            return Err(config_err(
                "seeds",
                "seed set is empty: boosting spreads influence that seeding creates",
            ));
        }
        let mut seen = vec![false; n];
        for &s in &self.seeds {
            if s.index() >= n {
                return Err(config_err(
                    "seeds",
                    format!("seed {s} out of range for a graph with {n} nodes"),
                ));
            }
            if seen[s.index()] {
                return Err(config_err("seeds", format!("duplicate seed {s}")));
            }
            seen[s.index()] = true;
        }
        if self.k > n - self.seeds.len() {
            return Err(config_err(
                "k",
                format!(
                    "budget {} exceeds the {} boostable (non-seed) nodes",
                    self.k,
                    n - self.seeds.len()
                ),
            ));
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(config_err(
                "epsilon",
                format!("ε must lie in (0, 1), got {}", self.epsilon),
            ));
        }
        let ell = match self.delta {
            None => self.ell,
            Some(delta) => {
                if !(delta > 0.0 && delta < 1.0) {
                    return Err(config_err(
                        "failure_probability",
                        format!("δ must lie in (0, 1), got {delta}"),
                    ));
                }
                (1.0 / delta).ln() / (n as f64).max(2.0).ln()
            }
        };
        if !ell.is_finite() || ell <= 0.0 {
            return Err(config_err("ell", format!("ℓ must be positive, got {ell}")));
        }
        if self.threads == 0 {
            return Err(config_err("threads", "thread count must be at least 1"));
        }
        if let Sampling::Fixed { samples } = self.sampling {
            if samples == 0 {
                return Err(config_err(
                    "sampling",
                    "fixed sampling needs at least one sample",
                ));
            }
        }
        if let (Some(max), min) = (self.max_sketches, self.min_sketches) {
            if max < min {
                return Err(config_err(
                    "max_sketches",
                    format!("sketch cap {max} is below the floor {min}"),
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.compact_threshold) {
            return Err(config_err(
                "compact_threshold",
                format!(
                    "threshold must lie in [0, 1], got {}",
                    self.compact_threshold
                ),
            ));
        }
        if self.staleness.is_exact() && !matches!(self.sampling, Sampling::Fixed { .. }) {
            return Err(config_err(
                "staleness",
                "exact staleness requires Sampling::Fixed (online mode): footprints \
                 exist so a maintainer can refresh exactly the invalidated samples",
            ));
        }

        let cfg = EngineConfig {
            k: self.k,
            epsilon: self.epsilon,
            ell,
            seed: self.seed,
            threads: self.threads,
            max_sketches: self.max_sketches,
            min_sketches: self.min_sketches,
            sampling: self.sampling,
            compact_threshold: self.compact_threshold,
            staleness: self.staleness,
            algorithm: self.algorithm,
        };
        Ok(Engine::from_validated(
            self.graph, self.seeds, cfg, self.obs,
        ))
    }
}
