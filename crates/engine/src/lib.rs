//! `kboost-engine` — the single typed entry point over the whole kboost
//! workspace.
//!
//! Every caller used to hand-wire `GraphBuilder → SketchPool → PrrPool →
//! greedy → sandwich` with seeds, thread counts, ε/ℓ and maintainer
//! options scattered across five crates. The engine folds that into one
//! object:
//!
//! * [`EngineBuilder`] — graph, seed set, budget `k`, sampling parameters
//!   (ε and ℓ, or the failure probability δ directly), base RNG seed,
//!   thread count and algorithm choice, validated into an [`Engine`] with
//!   a typed [`KboostError`] per violated constraint.
//! * [`BoostAlgorithm`] / [`Algorithm`] — one trait over PRR-Boost,
//!   PRR-Boost-LB, the Sandwich Approximation, the exact tree algorithms
//!   and every Section-VII baseline; [`Algorithm::registry`] makes
//!   cross-algorithm sweeps a loop instead of five call signatures.
//! * [`Solution`] — the uniform result: boost set, `Δ̂`/`µ̂`, the
//!   [`SandwichCertificate`], and build/select timing plus peak-memory
//!   stats ([`SolveStats`]).
//! * **Online lifecycle** — [`Engine::apply_mutations`] drives the
//!   incremental pool maintainer behind the same handle, so one object
//!   serves `Δ̂`/`µ̂`/solve queries while the graph evolves. Epochs are
//!   transactional: malformed batches are rejected at ingress with a
//!   typed [`KboostError::Mutation`], and an epoch whose refresh is
//!   cancelled or panics rolls back byte-identically
//!   ([`KboostError::Interrupted`]) and can be retried verbatim.
//! * **Serving** — [`Engine::serving`] hands out a cloneable
//!   [`SnapshotService`]: query threads pin immutable, epoch-stamped
//!   [`PoolSnapshot`]s (each answering `Δ̂`/`µ̂` and the batched
//!   [`evaluate_many`](Engine::evaluate_many), lock-free) while the
//!   maintainer builds and publishes the next epoch
//!   by pointer swap — see `kboost_serve` for the pinning contract.
//! * **Latency contract** — [`Engine::solve_within`] bounds a solve by a
//!   [`Budget`] (deadline, sample cap, cooperative [`CancelFlag`] —
//!   composable, with an optional progress observer). Sampling stops at
//!   the next chunk boundary, selection runs on whatever the budget
//!   bought, and the solution reports the accuracy the partial pool
//!   actually guarantees ([`SolveStats::achieved_epsilon`]).
//!   `solve_within` under [`Budget::unlimited`] is bit-identical to
//!   [`Engine::solve`].
//!
//! Selections through the engine are **bit-identical** to the hand-wired
//! pipeline under the workspace determinism contract (same seed and
//! sample-target sequence, any thread count) — the deep module paths stay
//! re-exported from the facade precisely so the existing tests double as
//! the equivalence oracle.
//!
//! # Example
//!
//! ```
//! use kboost_engine::{Algorithm, EngineBuilder, Sampling};
//! use kboost_graph::{GraphBuilder, NodeId};
//!
//! // Figure 1 of the paper: s → v0 → v1.
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
//! b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
//! let g = b.build().unwrap();
//!
//! let mut engine = EngineBuilder::new(g)
//!     .seeds([NodeId(0)])
//!     .k(1)
//!     .threads(2)
//!     .seed(21)
//!     .sampling(Sampling::Fixed { samples: 30_000 })
//!     .build()
//!     .unwrap();
//! let solution = engine.solve(&Algorithm::Sandwich).unwrap();
//! assert_eq!(solution.boost_set, vec![NodeId(1)]); // boost v0, not v1
//! ```

#![deny(missing_docs)]

mod algorithms;
mod budget;
mod config;
mod engine;
mod error;
pub mod scenario;
mod solution;

pub use algorithms::{Algorithm, BoostAlgorithm};
pub use budget::{Budget, SolveProgress};
pub use config::{EngineBuilder, EngineConfig, Sampling};
pub use engine::Engine;
pub use error::KboostError;
pub use solution::{SandwichCertificate, Solution, SolveStats};

// Re-exports so engine-only callers (examples, services, bench bins) can
// name the types that flow through the API without depending on the
// deeper crates directly.
pub use kboost_baselines::WeightedDegree;
pub use kboost_core::{BudgetPoint, RatioPoint};
pub use kboost_graph::{DiGraph, EdgeProbs, GraphBuilder, NodeId};
pub use kboost_obs::{HistogramSummary, MetricsRecorder, MetricsSnapshot, NoopRecorder, Recorder};
pub use kboost_online::{
    EpochBatch, EpochReport, InterruptCause, Mutation, MutationError, MutationLog, Staleness,
};
pub use kboost_rrset::terminator::CancelFlag;
pub use kboost_serve::{PoolSnapshot, ServeStats, SnapshotService};
