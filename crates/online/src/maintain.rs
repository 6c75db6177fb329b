//! The pool maintainer: epoch-by-epoch incremental refresh.
//!
//! # Lifecycle of one epoch
//!
//! 1. the mutated graph is rebuilt ([`apply_mutations`]);
//! 2. the batch is matched against every live sample under the
//!    configured [`Staleness`] rule, in one scan over the live entries
//!    (see [`PoolMaintainer::stale_graphs`]) — approximate mode matches
//!    mutation endpoints against stored node tables; exact mode matches
//!    mutated edge *heads* against the per-sample footprints retained at
//!    sampling time, stored graphs and empty samples alike;
//! 3. stale entries are [tombstoned](kboost_prr::PrrArena::tombstone)
//!    (stored graphs) or
//!    [tombstoned in the empty column](kboost_prr::PrrArena::tombstone_empty) —
//!    each is one sample of the estimator's denominator, so the pool's
//!    total is debited accordingly;
//! 4. if tombstones now exceed
//!    [`compact_threshold`](MaintainerOptions::compact_threshold), the
//!    arena is compacted (order-preserving, canonicalizing);
//! 5. exactly `|stale|` replacement samples are produced over the new
//!    graph and absorbed: unconditioned fresh draws from a chunk-seeded
//!    pool of stream `(base_seed, epoch)` under most rules, or — under
//!    [`Staleness::ExactTrace`] — a *conditional replay* of each stale
//!    sample's retained coin trace that redraws only the coins the batch
//!    actually mutated (per-sample streams seeded from
//!    `(base_seed, epoch, ordinal)`), keeping the pool
//!    distribution-fresh under partial churn.
//!
//! Every step is a pure function of `(initial graph, base_seed, options,
//! mutation history)` — never of the thread count — so maintained pools
//! are bit-identical across thread counts, and
//! [`rebuild_from_history`] (the naive replay oracle: one
//! [`LegacySample`] per sample from the legacy per-graph source, verdicts
//! on raw footprints and per-graph node tables instead of the arena's
//! columns, eager filtering instead of tombstones, one epoch loop for
//! every rule) reproduces the compacted arena byte for byte — in every
//! staleness mode.

use std::collections::HashSet;

use kboost_core::PrrPool;
use kboost_graph::{DiGraph, NodeId};
use kboost_obs::{Obs, Value};
use kboost_prr::{
    greedy_delta_selection, DeltaSelection, FootprintColumn, FootprintMode, FootprintQuery,
    LegacyPrrSource, LegacySample, PrrArenaShard, PrrFullSource, PrrGenerator,
};
use kboost_rrset::sketch::{epoch_stream_seed, ExtendStatus, SketchPool, CHUNK_SIZE};
use kboost_rrset::terminator::{SampleProgress, Terminator, Unlimited};
use kboost_serve::{PoolSnapshot, SnapshotService};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::error::{InterruptCause, OnlineError};
use crate::mutation::{apply_mutations, validate_mutations, EpochBatch, Mutation};

/// How the maintainer decides which retained samples a mutation batch
/// invalidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Staleness {
    /// Match mutation endpoints against stored node tables — the original
    /// rule. Zero memory overhead, but **under-detects**: samples whose
    /// phase-I exploration touched a mutated edge without keeping either
    /// endpoint past compression, and empty (activated / hopeless)
    /// samples, are never refreshed, so the estimator drifts from a fresh
    /// pool's distribution as mutations accumulate. At `exp_online`'s
    /// default scale (20k nodes, 40k samples, ~10 % churn) epoch 1
    /// invalidated 667 samples, against 8,483 under exact detection
    /// (4,217 stored graphs + 4,266 empty samples).
    #[default]
    Approximate,
    /// Match mutated edge *heads* against the exact per-sample edge-space
    /// footprint (the nodes whose in-lists phase I read) retained at
    /// sampling time for **every** sample, empty ones included, stored
    /// as delta-varint blobs, long ones interned
    /// ([`FootprintMode::Compressed`]). Detection is exact (the scan
    /// decodes every live blob): a sample is refreshed iff its
    /// generation queried a mutated edge's slot, so every retained sample
    /// is bitwise what resampling it over the new graph would produce,
    /// and the maintained pool equals the from-scratch exact replay byte
    /// for byte (zero recorded drift). The cost is the footprint
    /// columns' memory. One statistical caveat remains under the
    /// unconditioned-redraw refresh this rule (and every non-trace rule)
    /// uses: invalidated slots are redrawn *unconditioned*, while the
    /// slots selected for invalidation are conditionally different from
    /// average (their traces explored the mutated region), so the pool
    /// is not identical in distribution to an independent fresh pool —
    /// [`ExactTrace`](Staleness::ExactTrace) closes that gap;
    /// `tests/estimator_accuracy.rs` pins both the zero-drift guarantee
    /// and the residual gap. The redraw also drains boostable samples,
    /// whose long footprints are invalidated far more often than empty
    /// ones: on `churn_hybrid`'s instance (seed 1, 256-mutation batches)
    /// the live stored graphs fall from 4,572 at epoch 0 to 1,528 after
    /// one batch and 50–115 over epochs 80–332 (under
    /// `ExactHybrid { bloom_above: 16 }`: 1,332, then 48–112), while
    /// `ExactTrace` keeps 4.6–4.8k.
    ExactCompressed,
    /// The bounded-memory tier: footprints at most `bloom_above` nodes
    /// long are stored exactly (compressed), longer ones collapse to a
    /// fixed [`HYBRID_BLOOM_BITS`](kboost_prr::HYBRID_BLOOM_BITS)-bit
    /// bloom fingerprint. Detection never misses; a long-footprint false
    /// positive refreshes an unaffected sample (the
    /// `online.invalidated_bloom` counter reports how many refreshes a
    /// fingerprint caused). The staleness scan tests a fingerprint with a
    /// handful of bit probes and decodes the short footprints for exact
    /// verdicts.
    ExactHybrid {
        /// Footprints longer than this many nodes use the bloom
        /// fingerprint. Any value is valid: `0` fingerprints every
        /// non-empty footprint.
        bloom_above: u32,
    },
    /// [`ExactCompressed`](Staleness::ExactCompressed) detection plus
    /// *conditional refresh*: every sample retains its queried-edge coin
    /// trace ([`FootprintMode::Trace`]), and an invalidated sample is not
    /// redrawn from scratch but *replayed* — coins on edges the batch
    /// left untouched are reused, only mutated coins (and coins on
    /// newly reachable edges) are drawn fresh, from a per-sample stream
    /// seeded by `(base_seed, epoch, ordinal)`. Jointly with the
    /// untouched survivors this makes the maintained pool
    /// **distribution-fresh** under partial churn — identical in law to
    /// a from-scratch pool over the new graph — closing the
    /// unconditioned-redraw caveat the other exact tiers document. The
    /// cost is the trace sidecar's memory and scalar (non-lane) coins for
    /// the replay's fresh draws.
    ExactTrace,
}

impl Staleness {
    /// The footprint retention the sampling pipeline needs for this rule.
    pub fn footprint_mode(self) -> FootprintMode {
        match self {
            Staleness::Approximate => FootprintMode::Off,
            Staleness::ExactCompressed => FootprintMode::Compressed,
            Staleness::ExactHybrid { bloom_above } => FootprintMode::Hybrid { bloom_above },
            Staleness::ExactTrace => FootprintMode::Trace,
        }
    }

    /// Whether this rule detects stale samples exactly (never
    /// under-detects).
    pub fn is_exact(self) -> bool {
        self != Staleness::Approximate
    }
}

/// Tuning knobs of a maintained pool.
#[derive(Clone, Copy, Debug)]
pub struct MaintainerOptions {
    /// Pool size: total samples maintained at every epoch.
    pub target_samples: u64,
    /// Boost budget `k` the PRR-graphs are pruned at.
    pub k: usize,
    /// Worker threads for sampling and selection.
    pub threads: usize,
    /// Base seed of the epoch-extended determinism contract.
    pub base_seed: u64,
    /// Compact the arena when the tombstoned fraction of retained entries
    /// exceeds this threshold (`0.0` compacts every epoch that tombstones
    /// anything; `1.0` never compacts). Compaction only reclaims memory —
    /// live content and estimates are unaffected.
    pub compact_threshold: f64,
    /// The staleness-detection rule (default
    /// [`Staleness::Approximate`], the original node-table heuristic).
    pub staleness: Staleness,
}

impl Default for MaintainerOptions {
    fn default() -> Self {
        MaintainerOptions {
            target_samples: 100_000,
            k: 10,
            threads: 8,
            base_seed: 0x0B00_57ED,
            compact_threshold: 0.25,
            staleness: Staleness::Approximate,
        }
    }
}

/// What one [`PoolMaintainer::apply_epoch`] call did. Timing is the
/// caller's business (`exp_online` wraps the call); every field here is a
/// deterministic function of the mutation history, which the cross-thread
/// property tests compare with `==`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochReport {
    /// The epoch this report describes.
    pub epoch: u64,
    /// Stale samples debited and redrawn: tombstoned stored graphs plus
    /// — under exact staleness — invalidated empty samples.
    pub invalidated: u64,
    /// The empty-sample share of `invalidated` (always 0 under
    /// [`Staleness::Approximate`], which cannot see empty samples).
    pub invalidated_empty: u64,
    /// Redrawn samples that stored a replacement graph.
    pub drawn_stored: u64,
    /// Redrawn samples that came up empty (activated / hopeless).
    pub drawn_empty: u64,
    /// Whether the arena was compacted this epoch.
    pub compacted: bool,
    /// Live stored graphs after the refresh.
    pub live_graphs: u64,
    /// Tombstoned graphs still occupying arena bytes after the refresh.
    pub dead_graphs: u64,
}

/// The nodes a mutation batch *touches* under the node-table rule
/// ([`Staleness::Approximate`]): both endpoints of every mutated edge.
fn touched_nodes(mutations: &[Mutation], n: usize) -> Vec<bool> {
    let mut touched = vec![false; n];
    for m in mutations {
        let (u, v) = m.endpoints();
        touched[u.index()] = true;
        touched[v.index()] = true;
    }
    touched
}

/// The mutated edge heads of a batch, deduplicated (exact-rule queries:
/// the head is the one node whose in-edge list a mutation changes — see
/// `kboost_prr::footprint`).
fn mutation_heads(mutations: &[Mutation]) -> Vec<u32> {
    let mut heads: Vec<u32> = mutations.iter().map(|m| m.endpoints().1 .0).collect();
    heads.sort_unstable();
    heads.dedup();
    heads
}

/// Exact-tier staleness: scans the live entries of `column` against one
/// prepared query — shared by the stored-graph and empty-sample paths.
/// Decodable entries answer exactly inside [`FootprintColumn::matches`];
/// a hybrid fingerprint may over-detect, never miss.
fn matches_stale_scan(
    column: &FootprintColumn,
    count: usize,
    live: impl Fn(usize) -> bool,
    mutations: &[Mutation],
    mode: FootprintMode,
    n: usize,
) -> Vec<u32> {
    let q = FootprintQuery::new(mode, &mutation_heads(mutations), n);
    (0..count as u32)
        .filter(|&i| live(i as usize) && column.matches(&q, i as usize))
        .collect()
}

/// Classifies a mutation batch against the **pre-batch** graph into the
/// two redraw predicates conditional replay needs:
///
/// * `redraw_node[v]` — head `v`'s in-edge list changed *structurally*
///   (an edge was inserted or removed), so recorded in-list positions no
///   longer line up and every coin at `v` is drawn fresh;
/// * `redraw_edge ∋ (u, v)` — edge `(u, v)` existed and only its
///   probabilities were rewritten: in-edge lists are sorted by source, so
///   every position is stable and exactly this one coin redraws.
///
/// Classification is conservative in the safe direction: a fresh draw is
/// always distribution-correct, so compound batches (remove-then-insert
/// of the same edge, say) simply fall back to node-level redraw.
fn replay_redraw_sets(old: &DiGraph, mutations: &[Mutation]) -> (Vec<bool>, HashSet<(u32, u32)>) {
    let mut redraw_node = vec![false; old.num_nodes()];
    let mut redraw_edge: HashSet<(u32, u32)> = HashSet::new();
    for m in mutations {
        match *m {
            Mutation::Upsert { from, to, .. } => {
                if old.has_edge(from, to) {
                    redraw_edge.insert((from.0, to.0));
                } else {
                    redraw_node[to.index()] = true;
                }
            }
            Mutation::Remove { from, to } => {
                if old.has_edge(from, to) {
                    redraw_node[to.index()] = true;
                }
                // Removing an absent edge is a graph no-op: reuse is exact.
            }
        }
    }
    (redraw_node, redraw_edge)
}

/// The RNG seed of replayed sample `ordinal` within epoch stream
/// `stream` ([`epoch_stream_seed`]) — the trace tier's extension of the
/// `(base_seed, epoch, chunk)` determinism contract to
/// `(base_seed, epoch, ordinal)`: stale samples are replayed in a
/// canonical order (stored ascending, then empty ascending), each from
/// its own SplitMix64-mixed stream, so maintained trace pools are
/// bit-identical across thread counts and reproducible by the oracle.
#[inline]
fn replay_sample_seed(stream: u64, ordinal: u64) -> u64 {
    let mut z = stream
        .rotate_left(17)
        .wrapping_add(ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of the compute-phase refresh: what the commit phase absorbs.
enum RefreshOutcome {
    /// Unconditioned fresh draws from the chunk-seeded epoch stream (all
    /// non-trace rules).
    Sampled(SketchPool<PrrArenaShard>),
    /// Conditionally replayed stale samples ([`Staleness::ExactTrace`]).
    Replayed(PrrArenaShard),
}

/// Samples per progress stage of a staged ([`PoolMaintainer::build_within`])
/// pool build. A multiple of the sampling [`CHUNK_SIZE`], so stage
/// boundaries are chunk-aligned and staged builds stay bit-identical to
/// one-shot builds.
const BUILD_STAGE: u64 = 64 * CHUNK_SIZE;

/// A PRR pool kept consistent with an evolving graph.
pub struct PoolMaintainer {
    graph: DiGraph,
    seeds: Vec<NodeId>,
    opts: MaintainerOptions,
    pool: PrrPool,
    epoch: u64,
    build_peak_bytes: usize,
    /// The serving cell, once [`serving`](Self::serving) attached one:
    /// every committed epoch publishes a frozen snapshot here, so query
    /// threads read epoch `e` while this maintainer refreshes `e + 1`
    /// in place. `None` until a service asks for it — offline consumers
    /// never pay the per-epoch snapshot clone.
    serving: Option<SnapshotService>,
    /// Observability handle ([`Obs::noop`] unless the engine attached a
    /// recorder). Instrumentation reads clocks and counters only — never
    /// randomness — so maintained pools under any recorder are
    /// bit-identical to the no-op run.
    obs: Obs,
}

impl PoolMaintainer {
    /// Builds the epoch-0 pool: `target_samples` drawn over `graph`
    /// through the streaming shard pipeline, bit-identical to an offline
    /// [`SketchPool`] build with the same base seed (footprint capture,
    /// when the staleness rule retains one, consumes no randomness).
    pub fn build(
        graph: DiGraph,
        seeds: Vec<NodeId>,
        opts: MaintainerOptions,
    ) -> Result<Self, OnlineError> {
        Self::build_within(graph, seeds, opts, &Unlimited, &mut |_, _| {})
    }

    /// Attaches an observability handle. Subsequent epochs record the
    /// `online.*` counters/gauges and rollback events, refresh sampling
    /// feeds the `sampler.*` chunk metrics, and committed-epoch
    /// publishes time into `serve.publish_secs`; an already-attached
    /// serving cell is wired up too.
    pub fn set_obs(&mut self, obs: Obs) {
        if let Some(serving) = &self.serving {
            serving.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// [`build`](Self::build) under a cooperative stop condition, with a
    /// progress callback invoked after every completed sampling stage
    /// (`on_stage(target_samples, &pool_so_far)`).
    ///
    /// Stages are chunk-aligned, so an unlimited staged build is
    /// bit-identical to the one-shot build. A *cancelled* build returns
    /// `Ok` with a usable partial pool — a contiguous chunk prefix of
    /// the full build, holding however many samples the budget bought
    /// (`pool().total_samples()` tells how far it got); selection and
    /// estimation over it are exact for the samples present. A build
    /// whose sampling *panicked* returns
    /// [`OnlineError::Interrupted`] with
    /// [`InterruptCause::Panicked`] instead — the panic is contained
    /// here and never unwinds into the caller.
    pub fn build_within<T: Terminator + ?Sized>(
        graph: DiGraph,
        seeds: Vec<NodeId>,
        opts: MaintainerOptions,
        term: &T,
        on_stage: &mut dyn FnMut(u64, &SketchPool<PrrArenaShard>),
    ) -> Result<Self, OnlineError> {
        Self::build_within_with_obs(graph, seeds, opts, Obs::noop(), term, on_stage)
    }

    /// [`build_within`](Self::build_within) with an observability handle
    /// attached *before* the epoch-0 sampling runs, so the initial build's
    /// chunks feed the `sampler.*` metrics too. The handle stays attached
    /// to the returned maintainer (no separate [`set_obs`](Self::set_obs)
    /// call needed).
    pub fn build_within_with_obs<T: Terminator + ?Sized>(
        graph: DiGraph,
        seeds: Vec<NodeId>,
        opts: MaintainerOptions,
        obs: Obs,
        term: &T,
        on_stage: &mut dyn FnMut(u64, &SketchPool<PrrArenaShard>),
    ) -> Result<Self, OnlineError> {
        let sampled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let source = PrrFullSource::with_footprints(
                &graph,
                &seeds,
                opts.k,
                opts.staleness.footprint_mode(),
            );
            let mut sketches: SketchPool<PrrArenaShard> =
                SketchPool::with_epoch(opts.base_seed, 0, opts.threads);
            sketches.set_obs(obs.clone());
            while sketches.total_samples() < opts.target_samples {
                let stage = (sketches.total_samples() + BUILD_STAGE).min(opts.target_samples);
                let status = sketches.extend_to_within(&source, stage, term);
                on_stage(opts.target_samples, &sketches);
                if status == ExtendStatus::Interrupted {
                    break;
                }
            }
            sketches
        }));
        let sketches = sampled.map_err(|_| OnlineError::Interrupted {
            epoch: 0,
            cause: InterruptCause::Panicked,
        })?;
        let build_peak_bytes = sketches.shard().memory_bytes() + sketches.cover_memory_bytes();
        let pool = PrrPool::new(sketches, graph.num_nodes(), opts.threads);
        Ok(PoolMaintainer {
            graph,
            seeds,
            opts,
            pool,
            epoch: 0,
            build_peak_bytes,
            serving: None,
            obs,
        })
    }

    /// Freezes the maintainer's current state as an epoch-stamped
    /// [`PoolSnapshot`] — the pinned-epoch oracle the serving tests and
    /// `exp_service` compare concurrent answers against. Cost: one
    /// flat-array clone of graph and pool.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot::new(
            self.epoch,
            self.graph.clone(),
            self.seeds.clone(),
            self.pool.clone(),
        )
    }

    /// The maintainer's [`SnapshotService`]: created on first call —
    /// publishing the current state — and re-published automatically
    /// after **every** committed epoch from then on, so readers pinning
    /// through clones of the returned handle always see the latest
    /// *committed* epoch while the next one builds. An epoch that rolls
    /// back (cancelled or panicked refresh) publishes nothing: the
    /// service keeps serving the pre-epoch snapshot, which is exactly
    /// the state the maintainer rolled back to.
    pub fn serving(&mut self) -> SnapshotService {
        if self.serving.is_none() {
            let service = SnapshotService::new(self.snapshot());
            if self.obs.is_enabled() {
                service.set_obs(self.obs.clone());
            }
            self.serving = Some(service);
        }
        self.serving.clone().expect("service just attached")
    }

    /// Peak bytes alive during the epoch-0 pool build: the merged
    /// sampling shard plus the covers, both held until the covers are
    /// dropped on conversion into the pool.
    pub fn build_peak_bytes(&self) -> usize {
        self.build_peak_bytes
    }

    /// The maintained pool (estimators skip tombstoned graphs).
    pub fn pool(&self) -> &PrrPool {
        &self.pool
    }

    /// The current (post-mutation) graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The seed set the pool is conditioned on.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// The current epoch (0 until the first batch is applied).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintainer's options.
    pub fn options(&self) -> &MaintainerOptions {
        &self.opts
    }

    /// Greedy `Δ̂` selection over the live pool.
    pub fn select(&self, k: usize) -> DeltaSelection {
        greedy_delta_selection(
            self.pool.arena(),
            self.graph.num_nodes(),
            k,
            self.opts.threads,
        )
    }

    /// Live stored graphs `mutations` would invalidate under the
    /// configured [`Staleness`] rule, in ascending graph order — also
    /// usable as a dry run to size a batch before sealing it. (Exact
    /// modes additionally refresh stale *empty* samples — see
    /// [`stale_empty_samples`](Self::stale_empty_samples) — which this
    /// stored-graph view does not list.)
    ///
    /// Every rule answers with one pass over the live stored graphs and
    /// caches nothing between calls: the exact rules test each retained
    /// footprint against one prepared [`FootprintQuery`] (a blob decode,
    /// or a handful of bit tests per hybrid fingerprint), the approximate
    /// rule reads each graph's node table. A dry run therefore costs the
    /// same on every call: `O(n)` for the query flags plus one read of
    /// the live entries' retained bytes. On `churn_hybrid`'s instance
    /// (20k nodes, 40k samples, 2-vCPU Xeon) an `ExactCompressed` or
    /// `ExactTrace` dry run takes 3–4 ms over the ≈4.6k stored graphs of
    /// an undrained pool and ≈0.05 ms over the ≈100 that the compressed
    /// tier's redraw leaves. A cached node → samples index answered a
    /// repeated dry run on the undrained pool in ≈0.15 ms, but compaction
    /// renumbers the samples, rebuilding the index took 17–26 ms, and the
    /// epoch path queries each batch only once.
    ///
    /// # Panics
    /// Panics if a mutation endpoint is outside the graph's node
    /// universe (the engine API validates this up front and returns a
    /// typed error instead).
    pub fn stale_graphs(&self, mutations: &[Mutation]) -> Vec<u32> {
        if mutations.is_empty() {
            return Vec::new();
        }
        let n = self.graph.num_nodes();
        let arena = self.pool.arena();
        let mode = self.opts.staleness.footprint_mode();
        if mode.is_on() {
            return matches_stale_scan(
                arena.footprints(),
                arena.len(),
                |i| arena.is_live(i),
                mutations,
                mode,
                n,
            );
        }
        let touched = touched_nodes(mutations, n);
        (0..arena.len() as u32)
            .filter(|&gi| {
                if !arena.is_live(gi as usize) {
                    return false;
                }
                let view = arena.graph(gi as usize);
                (0..view.num_nodes() as u32)
                    .any(|l| view.global_of(l).is_some_and(|v| touched[v.index()]))
            })
            .collect()
    }

    /// Live *empty* samples (activated / hopeless / cover-less — counted
    /// in the estimator's denominator but storing no graph) that
    /// `mutations` would invalidate, in ascending empty-column order, by
    /// the same one-pass scan as [`stale_graphs`](Self::stale_graphs).
    /// Always empty under [`Staleness::Approximate`], which retains no
    /// trace of empty samples and therefore can never refresh them — the
    /// under-detection the exact modes exist to close.
    pub fn stale_empty_samples(&self, mutations: &[Mutation]) -> Vec<u32> {
        if mutations.is_empty() || !self.opts.staleness.is_exact() {
            return Vec::new();
        }
        let arena = self.pool.arena();
        matches_stale_scan(
            arena.empty_footprints(),
            arena.num_empty_footprints(),
            |i| arena.empty_is_live(i),
            mutations,
            self.opts.staleness.footprint_mode(),
            self.graph.num_nodes(),
        )
    }

    /// The trace tier's compute-phase refresh: conditionally replays
    /// every stale sample — stored stale in ascending arena order, then
    /// stale empties in ascending empty-column order — over `new_graph`
    /// into a private shard, reusing each sample's retained coins on
    /// untouched edges and redrawing only what `batch` mutated. Reads the
    /// maintainer but never mutates it; the terminator is polled at
    /// [`CHUNK_SIZE`] replay boundaries like the sampled path polls its
    /// chunk stream, so cancellation rolls the epoch back identically.
    fn replay_refresh<T: Terminator + ?Sized>(
        &self,
        new_graph: &DiGraph,
        batch: &EpochBatch,
        stale: &[u32],
        stale_empty: &[u32],
        term: &T,
    ) -> (PrrArenaShard, ExtendStatus) {
        let mode = self.opts.staleness.footprint_mode();
        let (redraw_node, redraw_edge) = replay_redraw_sets(&self.graph, &batch.mutations);
        let is_node = |u: u32| redraw_node[u as usize];
        let is_edge = |u: u32, v: u32| redraw_edge.contains(&(u, v));
        let generator = PrrGenerator::new_scalar_oracle(new_graph, &self.seeds, self.opts.k);
        let stream = epoch_stream_seed(self.opts.base_seed, batch.epoch);
        let arena = self.pool.arena();
        let mut shard = PrrArenaShard::new();
        let mut ordinal: u64 = 0;
        let stored_traces = stale
            .iter()
            .map(|&gi| arena.footprints().trace(gi as usize));
        let empty_traces = stale_empty
            .iter()
            .map(|&ei| arena.empty_footprints().trace(ei as usize));
        #[allow(clippy::explicit_counter_loop)] // ordinal doubles as the seed stream position
        for trace in stored_traces.chain(empty_traces) {
            if ordinal.is_multiple_of(CHUNK_SIZE)
                && term.should_stop(&SampleProgress {
                    samples: ordinal,
                    chunk: ordinal / CHUNK_SIZE,
                })
            {
                return (shard, ExtendStatus::Interrupted);
            }
            let mut rng = SmallRng::seed_from_u64(replay_sample_seed(stream, ordinal));
            generator.replay_into_fp(trace, &is_node, &is_edge, &mut rng, &mut shard, mode);
            ordinal += 1;
        }
        (shard, ExtendStatus::Completed)
    }

    /// Applies one sealed epoch: mutates the graph, tombstones the stale
    /// graphs, compacts past the threshold, and resamples exactly the
    /// invalidated share under the `(base_seed, epoch, chunk)` seeds.
    ///
    /// All-or-nothing: the batch is validated at ingress and the refresh
    /// samples are drawn **before** anything is committed, so on any
    /// `Err` — malformed batch, out-of-order epoch, cancelled or
    /// panicked refresh — the maintainer's graph, epoch counter and
    /// arena bytes are exactly what they were before the call, and the
    /// batch can be retried verbatim (see
    /// [`apply_epoch_within`](Self::apply_epoch_within)).
    pub fn apply_epoch(&mut self, batch: &EpochBatch) -> Result<EpochReport, OnlineError> {
        self.apply_epoch_within(batch, &Unlimited)
    }

    /// [`apply_epoch`](Self::apply_epoch) under a cooperative stop
    /// condition polled at the refresh's chunk boundaries (the refresh
    /// chunk counter restarts at 0 each epoch, so a deterministic
    /// terminator injects at a reproducible point of the epoch's own
    /// stream).
    ///
    /// The epoch is transactional — compute, then commit:
    ///
    /// 1. contiguity and ingress validation reject bad input up front;
    /// 2. the mutated graph is rebuilt and the stale sets are computed
    ///    by read-only scans of the untouched arena;
    /// 3. the full refresh is sampled over the new graph into a private
    ///    pool, inside a panic guard — a cancelled or panicked refresh
    ///    returns [`OnlineError::Interrupted`] *before any commit*, so
    ///    the pool is byte-identical to its pre-epoch state;
    /// 4. only then are graph, epoch, tombstones, compaction and the
    ///    absorbed refresh committed, in the order the replay oracle
    ///    reproduces.
    ///
    /// An epoch that invalidates nothing draws no samples and therefore
    /// never polls the terminator — it commits even under a
    /// pre-cancelled budget.
    pub fn apply_epoch_within<T: Terminator + ?Sized>(
        &mut self,
        batch: &EpochBatch,
        term: &T,
    ) -> Result<EpochReport, OnlineError> {
        if batch.epoch != self.epoch + 1 {
            return Err(OnlineError::EpochOrder {
                expected: self.epoch + 1,
                got: batch.epoch,
            });
        }
        validate_mutations(self.graph.num_nodes(), &batch.mutations)?;
        // Cloned to a local so span timers never hold a borrow of `self`
        // across the `&mut self` commit phase.
        let obs = self.obs.clone();
        let _apply_span = obs.span("online.epoch.apply_secs");

        // Compute phase: nothing below mutates the maintainer. The stale
        // sets depend only on the arena and the batch (the universe size
        // is fixed), so computing them against the pre-mutation state is
        // exact.
        let new_graph = apply_mutations(&self.graph, &batch.mutations)?;
        let stale = self.stale_graphs(&batch.mutations);
        let stale_empty = self.stale_empty_samples(&batch.mutations);
        let invalidated_empty = stale_empty.len() as u64;
        let invalidated = stale.len() as u64 + invalidated_empty;
        // Stale entries whose verdict came from a hybrid fingerprint (so
        // may be false positives), counted before commit renumbers them.
        let invalidated_bloom = if obs.is_enabled() {
            let arena = self.pool.arena();
            let stored = stale
                .iter()
                .filter(|&&i| arena.footprints().is_fingerprint(i as usize));
            let empty = stale_empty
                .iter()
                .filter(|&&i| arena.empty_footprints().is_fingerprint(i as usize));
            (stored.count() + empty.count()) as u64
        } else {
            0
        };

        let refresh = if invalidated > 0 {
            let _refresh_span = obs.span("online.epoch.refresh_secs");
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.opts.staleness.footprint_mode().retains_trace() {
                    // Trace tier: conditional replay of the stale samples
                    // instead of unconditioned fresh draws.
                    let (shard, status) =
                        self.replay_refresh(&new_graph, batch, &stale, &stale_empty, term);
                    return (RefreshOutcome::Replayed(shard), status);
                }
                let mut refresh: SketchPool<PrrArenaShard> =
                    SketchPool::with_epoch(self.opts.base_seed, batch.epoch, self.opts.threads);
                refresh.set_obs(obs.clone());
                // A fresh source per epoch also rebuilds the kernel's packed
                // in-edge lane against the mutated graph — lane coherence
                // is by construction, never by invalidation.
                let status = refresh.extend_to_within(
                    &PrrFullSource::with_footprints(
                        &new_graph,
                        &self.seeds,
                        self.opts.k,
                        self.opts.staleness.footprint_mode(),
                    ),
                    invalidated,
                    term,
                );
                (RefreshOutcome::Sampled(refresh), status)
            }));
            match outcome {
                Err(_) => {
                    obs.counter_add("online.rollbacks", 1);
                    obs.event(
                        "online.rollback",
                        &[
                            ("epoch", Value::from(batch.epoch)),
                            ("cause", Value::from("panicked")),
                        ],
                    );
                    return Err(OnlineError::Interrupted {
                        epoch: batch.epoch,
                        cause: InterruptCause::Panicked,
                    });
                }
                Ok((_, ExtendStatus::Interrupted)) => {
                    obs.counter_add("online.rollbacks", 1);
                    obs.event(
                        "online.rollback",
                        &[
                            ("epoch", Value::from(batch.epoch)),
                            ("cause", Value::from("cancelled")),
                        ],
                    );
                    return Err(OnlineError::Interrupted {
                        epoch: batch.epoch,
                        cause: InterruptCause::Cancelled,
                    });
                }
                Ok((refresh, ExtendStatus::Completed)) => Some(refresh),
            }
        } else {
            None
        };

        // Commit phase — infallible from here on.
        self.graph = new_graph;
        self.epoch = batch.epoch;

        let arena = self.pool.arena_mut();
        for &gi in &stale {
            arena.tombstone(gi as usize);
        }
        for &ei in &stale_empty {
            arena.tombstone_empty(ei as usize);
        }
        let compacted = arena.dead_fraction() > self.opts.compact_threshold;
        if compacted {
            arena.compact();
        }

        let (drawn_stored, drawn_empty) = if let Some(refresh) = refresh {
            let (shard, drawn) = match refresh {
                RefreshOutcome::Sampled(pool) => {
                    let (_covers, shard, drawn, _cover_empties) = pool.into_parts();
                    (shard, drawn)
                }
                RefreshOutcome::Replayed(shard) => (shard, invalidated),
            };
            debug_assert_eq!(drawn, invalidated);
            // Cover-less boostable graphs are stored too, so the empty
            // share is storage-derived — drawn minus what the shard
            // actually stored — never the sketch layer's cover-based
            // count.
            let empties = drawn - shard.len() as u64;
            self.pool.arena_mut().absorb_shard(shard);
            self.pool
                .record_refresh(invalidated, invalidated_empty, drawn, empties);
            (drawn - empties, empties)
        } else {
            (0, 0)
        };

        // The epoch is committed; if a serving cell is attached, swap in
        // the frozen post-commit state. Readers pinned to the previous
        // epoch keep their Arc untouched — publication is a pointer
        // swap, never an in-place mutation of a published snapshot.
        if let Some(serving) = &self.serving {
            // The snapshot clone dominates publish cost, so it is timed
            // here rather than inside the pointer-swap `publish`.
            let timer = obs.is_enabled().then(std::time::Instant::now);
            serving.publish(self.snapshot());
            if let Some(start) = timer {
                obs.observe("serve.publish_secs", start.elapsed().as_secs_f64());
            }
        }

        let report = EpochReport {
            epoch: self.epoch,
            invalidated,
            invalidated_empty,
            drawn_stored,
            drawn_empty,
            compacted,
            live_graphs: self.pool.arena().num_live() as u64,
            dead_graphs: self.pool.arena().num_dead() as u64,
        };
        if obs.is_enabled() {
            obs.counter_add("online.epochs", 1);
            obs.counter_add("online.invalidated", invalidated);
            obs.counter_add("online.invalidated_empty", invalidated_empty);
            obs.counter_add("online.invalidated_bloom", invalidated_bloom);
            obs.counter_add("online.resampled", drawn_stored + drawn_empty);
            obs.counter_add("online.compactions", compacted as u64);
            obs.gauge_set("online.epoch", report.epoch as f64);
            obs.gauge_set("online.live_graphs", report.live_graphs as f64);
            obs.gauge_set("online.dead_graphs", report.dead_graphs as f64);
            obs.event(
                "online.epoch_commit",
                &[
                    ("epoch", Value::from(report.epoch)),
                    ("invalidated", Value::from(invalidated)),
                    ("resampled", Value::from(drawn_stored + drawn_empty)),
                    ("compacted", Value::from(compacted)),
                ],
            );
        }
        Ok(report)
    }
}

/// The equivalence oracle: replays the same mutation history from scratch
/// through the **legacy** pipeline, under the same [`Staleness`] rule as
/// `opts` — one [`LegacySample`] per sample (per-graph [`CompressedPrr`]
/// payloads plus the raw footprints and traces the rule retains; the
/// legacy source draws the exact randomness of the shard source), naive
/// full per-sample scans for staleness, eager filtering instead of
/// tombstones, and a final per-graph copy build. Returns the
/// epoch-`history.len()` graph and pool.
///
/// One epoch loop serves every rule; two steps vary by tier:
///
/// * the **verdict** — the approximate rule scans each stored graph's
///   node table for a touched endpoint (empty samples are invisible to
///   it); the exact rules give each sample's raw footprint the verdict
///   the arena column of their mode would give
///   ([`FootprintColumn::raw_matches`], so the hybrid fingerprints' false
///   positives reproduce bit-for-bit);
/// * the **refresh** — `|stale|` fresh samples drawn on the
///   `(base_seed, epoch)` stream, except under [`Staleness::ExactTrace`],
///   which conditionally replays every stale sample — stale stored
///   samples in retained order, then stale empties in retained order,
///   one `replay_sample_seed` stream each — mirroring the maintainer's
///   [`PoolMaintainer::apply_epoch`] replay exactly (arena index order
///   equals retained-subsequence order, since tombstone-compaction and
///   absorb both preserve order).
///
/// The maintained pool's compacted arena must be byte-equal to this
/// pool's arena (footprint columns included in exact modes), and all
/// estimates and selections must agree — the property
/// `tests/online_pool.rs` asserts.
///
/// [`CompressedPrr`]: kboost_prr::CompressedPrr
pub fn rebuild_from_history(
    graph0: &DiGraph,
    seeds: &[NodeId],
    opts: &MaintainerOptions,
    history: &[EpochBatch],
) -> (DiGraph, PrrPool) {
    let staleness = opts.staleness;
    let mode = staleness.footprint_mode();
    let n = graph0.num_nodes();
    let draw = |g: &DiGraph, epoch: u64, count: u64| {
        let mut pool: SketchPool<Vec<LegacySample>> =
            SketchPool::with_epoch(opts.base_seed, epoch, opts.threads);
        pool.extend_to(
            &LegacyPrrSource::with_footprints(g, seeds, opts.k, mode),
            count,
        );
        pool.into_parts().1
    };
    let mut g = graph0.clone();
    let mut samples = draw(&g, 0, opts.target_samples);

    for batch in history {
        let g_new = apply_mutations(&g, &batch.mutations)
            .expect("replayed batches were validated when first applied");
        let touched = touched_nodes(&batch.mutations, n);
        let q = FootprintQuery::new(mode, &mutation_heads(&batch.mutations), n);
        let is_stale = |s: &LegacySample| {
            if staleness.is_exact() {
                return FootprintColumn::raw_matches(mode, s.footprint(), &q);
            }
            let LegacySample::Stored { graph, .. } = s else {
                return false;
            };
            let view = graph.view();
            (0..view.num_nodes() as u32)
                .any(|l| view.global_of(l).is_some_and(|v| touched[v.index()]))
        };
        // Partition preserving retained order; stale stored before stale
        // empty fixes the replay ordinals the maintainer uses.
        let mut kept = Vec::with_capacity(samples.len());
        let (mut stale_stored, mut stale_empty) = (Vec::new(), Vec::new());
        for s in samples {
            match s {
                _ if !is_stale(&s) => kept.push(s),
                LegacySample::Stored { .. } => stale_stored.push(s),
                LegacySample::Empty { .. } => stale_empty.push(s),
            }
        }
        samples = kept;
        let stale = stale_stored.into_iter().chain(stale_empty);

        if mode.retains_trace() {
            let (redraw_node, redraw_edge) = replay_redraw_sets(&g, &batch.mutations);
            let generator = PrrGenerator::new_scalar_oracle(&g_new, seeds, opts.k);
            let stream = epoch_stream_seed(opts.base_seed, batch.epoch);
            for (ordinal, old) in stale.enumerate() {
                let mut rng = SmallRng::seed_from_u64(replay_sample_seed(stream, ordinal as u64));
                let (mut footprint, mut trace) = (Vec::new(), Vec::new());
                let out = generator.replay_with_footprint_trace(
                    old.trace(),
                    &|u| redraw_node[u as usize],
                    &|u, v| redraw_edge.contains(&(u, v)),
                    &mut rng,
                    &mut footprint,
                    &mut trace,
                );
                samples.push(LegacySample::new(out, footprint, trace));
            }
        } else {
            let invalidated = stale.count() as u64;
            if invalidated > 0 {
                samples.extend(draw(&g_new, batch.epoch, invalidated));
            }
        }
        g = g_new;
    }

    let arena = LegacySample::arena(&samples, mode);
    let total = samples.len() as u64;
    let empties = total - arena.len() as u64;
    (
        g,
        PrrPool::from_raw_parts(arena, n, total, empties, opts.threads),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::MutationLog;
    use kboost_graph::{EdgeProbs, GraphBuilder};

    fn quick_opts(target: u64, threads: usize) -> MaintainerOptions {
        MaintainerOptions {
            target_samples: target,
            k: 2,
            threads,
            base_seed: 0xCAFE,
            compact_threshold: 0.25,
            staleness: Staleness::Approximate,
        }
    }

    /// Seed 0 fans out to two disjoint boost-only 2-hop paths:
    /// 0 →(boost) mid →(live) end, mids {1, 2}, ends {3, 4}.
    fn two_paths() -> DiGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1), 0.0, 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 1.0, 1.0).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.0, 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(4), 1.0, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_epoch_zero_like_an_offline_pool() {
        let opts = quick_opts(2_000, 2);
        let m = PoolMaintainer::build(two_paths(), vec![NodeId(0)], opts).unwrap();
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.pool().total_samples(), 2_000);
        assert!(m.pool().num_boostable() > 0);

        // Offline pool with the same seed: identical arena.
        let g = two_paths();
        let mut sketches: SketchPool<PrrArenaShard> = SketchPool::new(opts.base_seed, 2);
        sketches.extend_to(&PrrFullSource::new(&g, &[NodeId(0)], opts.k), 2_000);
        let offline = PrrPool::new(sketches, g.num_nodes(), 2);
        assert!(m.pool().arena() == offline.arena());
    }

    #[test]
    fn staleness_rule_matches_node_tables_exactly() {
        // The dry run must mark a graph stale iff its node table holds a
        // touched endpoint — checked in both directions over every stored
        // graph.
        let m = PoolMaintainer::build(two_paths(), vec![NodeId(0)], quick_opts(1_000, 1)).unwrap();
        // Every stored graph contains its root; roots are uniform over
        // non-seed nodes, so node 1 appears in some table.
        let stale = m.stale_graphs(&[Mutation::Remove {
            from: NodeId(0),
            to: NodeId(1),
        }]);
        assert!(!stale.is_empty());
        for &gi in &stale {
            let view = m.pool().arena().graph(gi as usize);
            let hit = (0..view.num_nodes() as u32).any(|l| {
                view.global_of(l) == Some(NodeId(0)) || view.global_of(l) == Some(NodeId(1))
            });
            assert!(hit, "graph {gi} marked stale without a touched node");
        }
        // And graphs that contain neither endpoint are never marked.
        let all: std::collections::HashSet<u32> = stale.iter().copied().collect();
        for gi in 0..m.pool().arena().len() as u32 {
            if all.contains(&gi) {
                continue;
            }
            let view = m.pool().arena().graph(gi as usize);
            let hit = (0..view.num_nodes() as u32).any(|l| {
                view.global_of(l) == Some(NodeId(0)) || view.global_of(l) == Some(NodeId(1))
            });
            assert!(!hit, "graph {gi} touched but not marked stale");
        }
        assert!(m.stale_graphs(&[]).is_empty());
    }

    #[test]
    fn apply_epoch_refreshes_and_keeps_totals() {
        let mut m =
            PoolMaintainer::build(two_paths(), vec![NodeId(0)], quick_opts(2_000, 2)).unwrap();
        let mut log = MutationLog::new();
        // Cut path 1 → 3: root-3 graphs become hopeless in the new world.
        log.remove_edge(NodeId(1), NodeId(3));
        let report = m.apply_epoch(&log.seal_epoch()).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(m.epoch(), 1);
        assert!(report.invalidated > 0);
        assert_eq!(report.invalidated, report.drawn_stored + report.drawn_empty);
        assert_eq!(m.pool().total_samples(), 2_000);
        assert_eq!(report.live_graphs, m.pool().arena().num_live() as u64);
        // Boosting node 1 no longer activates root 3: Δ̂ must not count
        // any refreshed graph rooted at 3 for {1} alone... node 3 is now
        // unreachable, so µ̂/Δ̂ only pay out through path 2 → 4.
        assert!(m.pool().delta_hat(&[NodeId(2)]) > 0.0);
    }

    #[test]
    fn skipping_an_epoch_is_a_typed_error() {
        let mut m =
            PoolMaintainer::build(two_paths(), vec![NodeId(0)], quick_opts(500, 1)).unwrap();
        let mut log = MutationLog::new();
        let _skipped = log.seal_epoch();
        log.remove_edge(NodeId(1), NodeId(3));
        let batch2 = log.seal_epoch();
        assert_eq!(
            m.apply_epoch(&batch2).unwrap_err(),
            OnlineError::EpochOrder {
                expected: 1,
                got: 2
            }
        );
        // The rejected batch left no trace: epoch 1 still applies.
        let mut log = MutationLog::new();
        let _ = log.seal_epoch();
        assert_eq!(m.epoch(), 0);
    }

    #[test]
    fn malformed_batch_is_rejected_before_any_commit() {
        let mut m =
            PoolMaintainer::build(two_paths(), vec![NodeId(0)], quick_opts(500, 2)).unwrap();
        let samples_before = m.pool().total_samples();
        let batch = EpochBatch {
            epoch: 1,
            mutations: vec![
                Mutation::Remove {
                    from: NodeId(1),
                    to: NodeId(3),
                },
                Mutation::Upsert {
                    from: NodeId(2),
                    to: NodeId(99),
                    probs: EdgeProbs::new(0.1, 0.2).unwrap(),
                },
            ],
        };
        match m.apply_epoch(&batch) {
            Err(OnlineError::Mutation(crate::error::MutationError::NodeOutOfRange { node, n })) => {
                assert_eq!((node, n), (NodeId(99), 5));
            }
            other => panic!("expected a mutation error, got {other:?}"),
        }
        assert_eq!(m.epoch(), 0, "nothing committed");
        assert_eq!(m.pool().total_samples(), samples_before);
        assert_eq!(m.graph().num_edges(), two_paths().num_edges());
    }

    #[test]
    fn cancelled_refresh_rolls_back_and_retries_cleanly() {
        use kboost_rrset::terminator::StopAtChunk;
        let mut m =
            PoolMaintainer::build(two_paths(), vec![NodeId(0)], quick_opts(2_000, 2)).unwrap();
        let mut log = MutationLog::new();
        log.remove_edge(NodeId(1), NodeId(3));
        let batch = log.seal_epoch();
        let arena_before = m.pool().arena().clone();
        let edges_before = m.graph().num_edges();

        // Stop before the refresh's first chunk: the epoch must roll back.
        assert_eq!(
            m.apply_epoch_within(&batch, &StopAtChunk(0)).unwrap_err(),
            OnlineError::Interrupted {
                epoch: 1,
                cause: InterruptCause::Cancelled
            }
        );
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.graph().num_edges(), edges_before);
        assert!(
            *m.pool().arena() == arena_before,
            "arena must be byte-identical after rollback"
        );

        // Retrying the identical batch succeeds and matches an
        // uninterrupted maintainer exactly.
        let report = m.apply_epoch(&batch).unwrap();
        assert!(report.invalidated > 0);
        let mut fresh =
            PoolMaintainer::build(two_paths(), vec![NodeId(0)], quick_opts(2_000, 2)).unwrap();
        let fresh_report = fresh.apply_epoch(&batch).unwrap();
        assert_eq!(report, fresh_report);
        assert!(*m.pool().arena() == *fresh.pool().arena());
    }

    #[test]
    fn panicked_refresh_is_contained_and_rolls_back() {
        use kboost_rrset::terminator::PanicAt;
        for threads in [1usize, 2] {
            let mut m =
                PoolMaintainer::build(two_paths(), vec![NodeId(0)], quick_opts(1_500, threads))
                    .unwrap();
            let mut log = MutationLog::new();
            log.remove_edge(NodeId(1), NodeId(3));
            let batch = log.seal_epoch();
            let arena_before = m.pool().arena().clone();

            assert_eq!(
                m.apply_epoch_within(&batch, &PanicAt(0)).unwrap_err(),
                OnlineError::Interrupted {
                    epoch: 1,
                    cause: InterruptCause::Panicked
                }
            );
            assert_eq!(m.epoch(), 0);
            assert!(*m.pool().arena() == arena_before);
            // And the maintainer still serves: retry converges.
            assert!(m.apply_epoch(&batch).unwrap().invalidated > 0);
        }
    }

    #[test]
    fn empty_epoch_commits_even_under_a_dead_budget() {
        use kboost_rrset::terminator::StopAtChunk;
        let mut m =
            PoolMaintainer::build(two_paths(), vec![NodeId(0)], quick_opts(500, 1)).unwrap();
        let mut log = MutationLog::new();
        let batch = log.seal_epoch(); // nothing to refresh
        let report = m.apply_epoch_within(&batch, &StopAtChunk(0)).unwrap();
        assert_eq!(report.invalidated, 0);
        assert_eq!(m.epoch(), 1);
    }

    #[test]
    fn cancelled_build_yields_a_usable_partial_pool() {
        use kboost_rrset::terminator::{SampleBudget, StopAtChunk};
        let opts = quick_opts(4_000, 2);
        let mut stages = 0u32;
        let m = PoolMaintainer::build_within(
            two_paths(),
            vec![NodeId(0)],
            opts,
            &SampleBudget(1_000),
            &mut |target, pool| {
                stages += 1;
                assert_eq!(target, 4_000);
                assert!(pool.total_samples() <= 4_000);
            },
        )
        .unwrap();
        assert!(stages >= 1, "progress callback fired");
        let got = m.pool().total_samples();
        assert!((1_000..4_000).contains(&got), "partial pool: {got} samples");
        assert!(m.pool().num_boostable() > 0);

        // The partial pool is a prefix of the full build: its arena
        // equals a direct one-shot build truncated to the same chunks.
        let mut prefix: SketchPool<PrrArenaShard> = SketchPool::with_epoch(opts.base_seed, 0, 2);
        let status = prefix.extend_to_within(
            &PrrFullSource::new(&two_paths(), &[NodeId(0)], opts.k),
            4_000,
            &StopAtChunk(got / kboost_rrset::CHUNK_SIZE),
        );
        assert_eq!(status, ExtendStatus::Interrupted);
        assert_eq!(prefix.total_samples(), got);
        let prefix_pool = PrrPool::new(prefix, 5, 2);
        assert!(*m.pool().arena() == *prefix_pool.arena());
    }

    #[test]
    fn panicked_build_is_a_typed_error() {
        use kboost_rrset::terminator::PanicAt;
        let err = PoolMaintainer::build_within(
            two_paths(),
            vec![NodeId(0)],
            quick_opts(2_000, 2),
            &PanicAt(1),
            &mut |_, _| {},
        )
        .err()
        .expect("build must surface the contained panic");
        assert_eq!(
            err,
            OnlineError::Interrupted {
                epoch: 0,
                cause: InterruptCause::Panicked
            }
        );
    }

    #[test]
    fn compact_threshold_zero_compacts_every_refresh() {
        let probs = EdgeProbs::new(0.0, 0.9).unwrap();
        let run = |threshold: f64| {
            let mut opts = quick_opts(1_500, 2);
            opts.compact_threshold = threshold;
            let mut m = PoolMaintainer::build(two_paths(), vec![NodeId(0)], opts).unwrap();
            let mut log = MutationLog::new();
            for i in 0..3u64 {
                log.set_probs(NodeId(0), NodeId(1 + (i % 2) as u32), probs);
                let report = m.apply_epoch(&log.seal_epoch()).unwrap();
                if threshold == 0.0 && report.invalidated > 0 {
                    assert!(report.compacted);
                    assert_eq!(report.dead_graphs, 0);
                }
            }
            m
        };
        let eager = run(0.0);
        let lazy = run(1.0);
        assert_eq!(eager.pool().arena().num_dead(), 0);
        // Identical live content regardless of compaction policy.
        assert!(eager.pool().arena().compacted() == lazy.pool().arena().compacted());
        assert_eq!(eager.pool().total_samples(), lazy.pool().total_samples());
        assert_eq!(
            eager.pool().delta_hat(&[NodeId(1), NodeId(2)]),
            lazy.pool().delta_hat(&[NodeId(1), NodeId(2)])
        );
    }

    /// Seed 0 → x (always live) → root (boost-only): phase-II merges `x`
    /// into the super-seed, so the stored node table retains neither
    /// endpoint of the live edge — the approximate rule's blind spot.
    fn compressed_away() -> DiGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.0, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn exact_mode_detects_compressed_away_footprints() {
        let remove = Mutation::Remove {
            from: NodeId(0),
            to: NodeId(1),
        };
        let mut approx =
            PoolMaintainer::build(compressed_away(), vec![NodeId(0)], quick_opts(900, 2)).unwrap();
        let mut exact_opts = quick_opts(900, 2);
        exact_opts.staleness = Staleness::ExactCompressed;
        let mut exact =
            PoolMaintainer::build(compressed_away(), vec![NodeId(0)], exact_opts).unwrap();
        assert!(exact.pool().num_boostable() > 0, "degenerate pool");

        // The approximate rule sees only the node table {super, root}:
        // the mutated endpoints 0 and 1 appear in no retained table, so
        // nothing is detected — the documented under-detection.
        assert!(approx.stale_graphs(&[remove]).is_empty());
        assert!(approx.stale_empty_samples(&[remove]).is_empty());
        // The exact rule sees the footprint {x, root} of every stored
        // graph (phase I read x's in-list) and the footprint {x} of
        // every root-x activated sample.
        assert_eq!(
            exact.stale_graphs(&[remove]).len(),
            exact.pool().num_boostable()
        );
        assert!(!exact.stale_empty_samples(&[remove]).is_empty());

        // Applying the removal: with the live edge gone nothing reaches
        // the root, so the true Δ({root}) is 0. The exact pool refreshes
        // to that truth; the approximate pool keeps serving stale graphs.
        let mut log = MutationLog::new();
        log.remove_edge(NodeId(0), NodeId(1));
        let batch = log.seal_epoch();
        let report_a = approx.apply_epoch(&batch).unwrap();
        let report_e = exact.apply_epoch(&batch).unwrap();
        assert_eq!(report_a.invalidated, 0);
        assert!(report_e.invalidated > 0);
        assert!(report_e.invalidated_empty > 0);
        assert_eq!(
            report_e.invalidated,
            report_e.drawn_stored + report_e.drawn_empty
        );
        assert!(approx.pool().delta_hat(&[NodeId(2)]) > 0.0, "stale Δ̂ kept");
        assert_eq!(exact.pool().delta_hat(&[NodeId(2)]), 0.0);
        assert_eq!(exact.pool().total_samples(), 900);
    }

    #[test]
    fn exact_modes_match_their_replay_oracle() {
        for staleness in [
            Staleness::ExactCompressed,
            Staleness::ExactHybrid { bloom_above: 0 },
            Staleness::ExactHybrid { bloom_above: 2 },
            Staleness::ExactTrace,
        ] {
            let mut opts = quick_opts(1_000, 3);
            opts.staleness = staleness;
            let g0 = two_paths();
            let mut m = PoolMaintainer::build(g0.clone(), vec![NodeId(0)], opts).unwrap();
            let mut log = MutationLog::new();
            log.set_probs(NodeId(0), NodeId(1), EdgeProbs::new(0.2, 0.8).unwrap());
            let b1 = log.seal_epoch();
            log.remove_edge(NodeId(2), NodeId(4));
            log.insert_edge(NodeId(4), NodeId(2), EdgeProbs::new(0.3, 0.6).unwrap());
            let b2 = log.seal_epoch();
            m.apply_epoch(&b1).unwrap();
            m.apply_epoch(&b2).unwrap();

            let (g_oracle, oracle) = rebuild_from_history(&g0, &[NodeId(0)], &opts, &[b1, b2]);
            assert_eq!(g_oracle.num_edges(), m.graph().num_edges());
            assert_eq!(oracle.total_samples(), m.pool().total_samples());
            assert_eq!(oracle.empty_samples(), m.pool().empty_samples());
            assert!(
                m.pool().arena().compacted() == *oracle.arena(),
                "arena (footprint columns included) diverged under {staleness:?}"
            );
            for set in [vec![NodeId(1)], vec![NodeId(2)], vec![NodeId(1), NodeId(2)]] {
                assert_eq!(m.pool().delta_hat(&set), oracle.delta_hat(&set));
                assert_eq!(m.pool().mu_hat(&set), oracle.mu_hat(&set));
            }
            assert_eq!(
                m.select(2),
                greedy_delta_selection(oracle.arena(), 5, 2, opts.threads)
            );
        }
    }

    #[test]
    fn trace_refresh_is_cancellable_and_rolls_back() {
        use kboost_rrset::terminator::StopAtChunk;
        let mut opts = quick_opts(1_500, 2);
        opts.staleness = Staleness::ExactTrace;
        let mut m = PoolMaintainer::build(two_paths(), vec![NodeId(0)], opts).unwrap();
        let mut log = MutationLog::new();
        log.remove_edge(NodeId(1), NodeId(3));
        let batch = log.seal_epoch();
        let arena_before = m.pool().arena().clone();

        // Stop before the first replay chunk: the epoch must roll back.
        assert_eq!(
            m.apply_epoch_within(&batch, &StopAtChunk(0)).unwrap_err(),
            OnlineError::Interrupted {
                epoch: 1,
                cause: InterruptCause::Cancelled
            }
        );
        assert_eq!(m.epoch(), 0);
        assert!(*m.pool().arena() == arena_before, "rollback must be exact");

        // Retrying the identical batch succeeds; totals stay balanced.
        let report = m.apply_epoch(&batch).unwrap();
        assert!(report.invalidated > 0);
        assert_eq!(report.invalidated, report.drawn_stored + report.drawn_empty);
        assert_eq!(m.pool().total_samples(), 1_500);
    }

    #[test]
    fn trace_replay_reuses_untouched_coins_across_thread_counts() {
        // The replayed pool is a deterministic function of the history —
        // never of the thread count — and refreshing an edge the trace
        // never queried must reproduce the sample verbatim, so a batch
        // touching only one path leaves the other path's graphs
        // byte-identical.
        let run = |threads: usize| {
            let mut opts = quick_opts(1_000, threads);
            opts.staleness = Staleness::ExactTrace;
            let mut m = PoolMaintainer::build(two_paths(), vec![NodeId(0)], opts).unwrap();
            let mut log = MutationLog::new();
            log.set_probs(NodeId(1), NodeId(3), EdgeProbs::new(0.5, 1.0).unwrap());
            m.apply_epoch(&log.seal_epoch()).unwrap();
            m
        };
        let a = run(1);
        let b = run(3);
        assert!(a.pool().arena().compacted() == b.pool().arena().compacted());
        assert_eq!(a.pool().total_samples(), b.pool().total_samples());
        assert_eq!(a.pool().empty_samples(), b.pool().empty_samples());
    }

    #[test]
    fn footprint_capture_leaves_sampling_streams_unchanged() {
        // Same seed, footprints on vs off: identical covers, counters and
        // stored-graph content — capture must consume no randomness.
        let opts_off = quick_opts(1_500, 2);
        let mut opts_on = opts_off;
        opts_on.staleness = Staleness::ExactCompressed;
        let off = PoolMaintainer::build(two_paths(), vec![NodeId(0)], opts_off).unwrap();
        let on = PoolMaintainer::build(two_paths(), vec![NodeId(0)], opts_on).unwrap();
        assert_eq!(off.pool().total_samples(), on.pool().total_samples());
        assert_eq!(off.pool().empty_samples(), on.pool().empty_samples());
        assert_eq!(off.pool().num_boostable(), on.pool().num_boostable());
        for set in [vec![NodeId(1)], vec![NodeId(2)], vec![NodeId(3), NodeId(4)]] {
            assert_eq!(off.pool().delta_hat(&set), on.pool().delta_hat(&set));
            assert_eq!(off.pool().mu_hat(&set), on.pool().mu_hat(&set));
        }
        assert_eq!(off.pool().arena().footprint_memory_bytes(), 0);
        assert!(on.pool().arena().footprint_memory_bytes() > 0);
        assert_eq!(
            on.pool().arena().num_empty_footprints() as u64,
            on.pool().empty_samples()
        );
    }

    #[test]
    fn matches_replay_oracle_on_a_small_history() {
        let opts = quick_opts(1_200, 3);
        let g0 = two_paths();
        let mut m = PoolMaintainer::build(g0.clone(), vec![NodeId(0)], opts).unwrap();
        let mut log = MutationLog::new();
        log.set_probs(NodeId(0), NodeId(1), EdgeProbs::new(0.2, 0.8).unwrap());
        let b1 = log.seal_epoch();
        log.remove_edge(NodeId(2), NodeId(4));
        log.insert_edge(NodeId(4), NodeId(2), EdgeProbs::new(0.3, 0.6).unwrap());
        let b2 = log.seal_epoch();
        m.apply_epoch(&b1).unwrap();
        m.apply_epoch(&b2).unwrap();

        let (g_oracle, oracle) = rebuild_from_history(&g0, &[NodeId(0)], &opts, &[b1, b2]);
        assert_eq!(g_oracle.num_edges(), m.graph().num_edges());
        assert_eq!(oracle.total_samples(), m.pool().total_samples());
        assert_eq!(oracle.empty_samples(), m.pool().empty_samples());
        assert!(m.pool().arena().compacted() == *oracle.arena());
        for set in [vec![NodeId(1)], vec![NodeId(2)], vec![NodeId(1), NodeId(2)]] {
            assert_eq!(m.pool().delta_hat(&set), oracle.delta_hat(&set));
            assert_eq!(m.pool().mu_hat(&set), oracle.mu_hat(&set));
        }
        assert_eq!(
            m.select(2),
            greedy_delta_selection(oracle.arena(), 5, 2, opts.threads)
        );
    }
}
