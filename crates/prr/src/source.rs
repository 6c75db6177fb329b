//! [`SketchGenerator`] adapters feeding PRR-graphs into the IMM framework.
//!
//! All sources expose the critical set `C_R` as the sketch *cover* (so the
//! IMM machinery maximizes `µ̂`). They differ in what they retain:
//!
//! * [`PrrFullSource`] appends each boostable compressed PRR-graph
//!   directly into a per-chunk [`PrrArenaShard`] — the streaming pipeline
//!   PRR-Boost later reuses for the greedy `Δ̂` selection and the Sandwich
//!   comparison. No per-graph object is retained for storage (Phase I/II
//!   still use transient scratch allocations);
//! * [`PrrLbSource`] keeps nothing beyond the cover, reproducing
//!   PRR-Boost-LB's lower memory footprint and faster generation (phase-I
//!   exploration is pruned at distance 1);
//! * [`LegacyPrrSource`] retains one [`LegacySample`] per sample — a
//!   heap-allocated [`CompressedPrr`] per boostable sample, the pre-shard
//!   storage model, plus the raw footprint and trace its
//!   [`FootprintMode`] keeps. It exists **only** as the equivalence
//!   oracle: tests build both pools from the same seed and assert the
//!   shard-built arena is byte-equal to the one copied from the legacy
//!   samples through [`PrrArena::push`], and the online replay oracle
//!   (`kboost_online::rebuild_from_history`) keeps its pools in this
//!   form. Do not use it outside tests/benches.
//!
//! [`PrrFullSource`] and [`PrrLbSource`] sample through the data-oriented
//! phase-I kernel; the legacy source always runs the scalar loop. Since
//! both must produce identical bytes under a shared seed, every
//! shard-vs-legacy test doubles as a continuous kernel-vs-oracle
//! verification. The `scalar_oracle` constructors additionally expose
//! scalar variants of the streaming sources for direct A/B comparison.

use kboost_graph::{DiGraph, NodeId};
use kboost_rrset::sketch::SketchGenerator;
use rand::rngs::SmallRng;

use crate::arena::{PrrArena, PrrArenaShard};
use crate::footprint::FootprintMode;
use crate::gen::{PrrGenerator, PrrOutcome};
use crate::graph::CompressedPrr;

/// Full PRR-graph source (PRR-Boost): builds arena shards in place.
///
/// With a [`FootprintMode`] other than `Off`
/// ([`with_footprints`](Self::with_footprints)) each sample's edge-space
/// footprint is retained in the shard too — stored graphs get a footprint
/// column entry and empty samples land in the shard's empty-footprint
/// column — enabling the online subsystem's exact staleness detection.
/// Footprint capture consumes no randomness: the covers and stored
/// graphs are bit-identical to the footprint-free source under the same
/// seed.
pub struct PrrFullSource<'g> {
    generator: PrrGenerator<'g>,
    n: usize,
    candidates: usize,
    mode: FootprintMode,
}

impl<'g> PrrFullSource<'g> {
    /// Creates the source for `(G, S, k)` without footprint retention.
    /// Samples through the data-oriented phase-I kernel.
    pub fn new(g: &'g DiGraph, seeds: &[NodeId], k: usize) -> Self {
        Self::with_footprints(g, seeds, k, FootprintMode::Off)
    }

    /// Creates the source for `(G, S, k)` retaining per-sample footprints
    /// in the given mode. Samples through the data-oriented phase-I
    /// kernel — except for trace-retaining modes, which are scalar-only
    /// (the kernel has no traced variant; the stream and every stored
    /// byte are identical either way, so only throughput differs).
    pub fn with_footprints(
        g: &'g DiGraph,
        seeds: &[NodeId],
        k: usize,
        mode: FootprintMode,
    ) -> Self {
        let generator = if mode.retains_trace() {
            PrrGenerator::new_scalar_oracle(g, seeds, k)
        } else {
            PrrGenerator::new(g, seeds, k)
        };
        PrrFullSource {
            generator,
            n: g.num_nodes(),
            candidates: g.num_nodes().saturating_sub(seeds.len()),
            mode,
        }
    }

    /// Like [`with_footprints`](Self::with_footprints), but sampling
    /// through the scalar oracle loop instead of the kernel. The random
    /// stream and every produced byte are identical; this constructor
    /// exists for the kernel-equivalence test suites and the perf
    /// benchmark's baseline leg.
    pub fn scalar_oracle(g: &'g DiGraph, seeds: &[NodeId], k: usize, mode: FootprintMode) -> Self {
        PrrFullSource {
            generator: PrrGenerator::new_scalar_oracle(g, seeds, k),
            n: g.num_nodes(),
            candidates: g.num_nodes().saturating_sub(seeds.len()),
            mode,
        }
    }
}

impl SketchGenerator for PrrFullSource<'_> {
    type Shard = PrrArenaShard;

    fn universe(&self) -> usize {
        self.n
    }

    fn num_candidates(&self) -> usize {
        self.candidates
    }

    fn generate(&self, rng: &mut SmallRng, shard: &mut PrrArenaShard) -> Vec<NodeId> {
        self.generator.sample_into_fp(rng, shard, self.mode)
    }
}

/// Critical-set-only source (PRR-Boost-LB).
pub struct PrrLbSource<'g> {
    generator: PrrGenerator<'g>,
    n: usize,
    candidates: usize,
}

impl<'g> PrrLbSource<'g> {
    /// Creates the source for `(G, S, k)`. Samples through the
    /// data-oriented phase-I kernel.
    pub fn new(g: &'g DiGraph, seeds: &[NodeId], k: usize) -> Self {
        PrrLbSource {
            generator: PrrGenerator::new(g, seeds, k),
            n: g.num_nodes(),
            candidates: g.num_nodes().saturating_sub(seeds.len()),
        }
    }

    /// Scalar-oracle variant of [`new`](Self::new): identical stream and
    /// covers, original per-edge loop. For equivalence tests and baseline
    /// timing.
    pub fn scalar_oracle(g: &'g DiGraph, seeds: &[NodeId], k: usize) -> Self {
        PrrLbSource {
            generator: PrrGenerator::new_scalar_oracle(g, seeds, k),
            n: g.num_nodes(),
            candidates: g.num_nodes().saturating_sub(seeds.len()),
        }
    }
}

impl SketchGenerator for PrrLbSource<'_> {
    type Shard = ();

    fn universe(&self) -> usize {
        self.n
    }

    fn num_candidates(&self) -> usize {
        self.candidates
    }

    fn generate(&self, rng: &mut SmallRng, (): &mut ()) -> Vec<NodeId> {
        self.generator.sample_critical_only(rng)
    }
}

/// One sample as the legacy oracle retains it: the per-graph payload when
/// stored, plus the raw footprint and trace of **every** sample, empty
/// ones included — each left empty when the source's [`FootprintMode`]
/// keeps none.
#[derive(Clone, Debug)]
pub enum LegacySample {
    /// A boostable sample (cover-less ones included).
    Stored {
        /// The legacy per-graph payload.
        graph: CompressedPrr,
        /// Sorted, deduplicated expanded-node set.
        footprint: Vec<u32>,
        /// Retained queried-edge outcomes for conditional replay.
        trace: Vec<u8>,
    },
    /// An activated / hopeless sample: counted, not stored — but its
    /// footprint still schedules its refresh and its trace still seeds
    /// the conditional replay.
    Empty {
        /// Sorted, deduplicated expanded-node set.
        footprint: Vec<u32>,
        /// Retained queried-edge outcomes for conditional replay.
        trace: Vec<u8>,
    },
}

impl LegacySample {
    /// Wraps a per-graph outcome with what was captured alongside it.
    pub fn new(out: PrrOutcome, footprint: Vec<u32>, trace: Vec<u8>) -> Self {
        match out {
            PrrOutcome::Boostable(graph) => LegacySample::Stored {
                graph,
                footprint,
                trace,
            },
            PrrOutcome::Activated | PrrOutcome::Hopeless => {
                LegacySample::Empty { footprint, trace }
            }
        }
    }

    /// The sample's retained footprint.
    pub fn footprint(&self) -> &[u32] {
        match self {
            LegacySample::Stored { footprint, .. } | LegacySample::Empty { footprint, .. } => {
                footprint
            }
        }
    }

    /// The sample's retained trace.
    pub fn trace(&self) -> &[u8] {
        match self {
            LegacySample::Stored { trace, .. } | LegacySample::Empty { trace, .. } => trace,
        }
    }

    /// Copies `samples` in order into a fresh arena through the
    /// per-graph route: [`PrrArena::push`] for stored graphs,
    /// [`PrrArena::push_empty`] for empty samples, with the footprints
    /// and traces `mode` keeps.
    pub fn arena(samples: &[LegacySample], mode: FootprintMode) -> PrrArena {
        let mut arena = PrrArena::new();
        for s in samples {
            match s {
                LegacySample::Stored {
                    graph,
                    footprint,
                    trace,
                } => arena.push(graph, footprint, trace, mode),
                LegacySample::Empty { footprint, trace } => {
                    arena.push_empty(footprint, trace, mode)
                }
            }
        }
        arena
    }
}

/// Test-only equivalence oracle: the legacy per-graph storage model, one
/// [`LegacySample`] per sample.
///
/// Must draw the exact same randomness as [`PrrFullSource`] so that a pool
/// sampled from either source with the same `(base_seed, target)` contains
/// the same graphs in the same order — the shard-vs-legacy byte-equality
/// tests depend on it. Mirrors [`PrrFullSource`]'s constructors: a
/// source's [`FootprintMode`] decides what each sample captures besides
/// its graph (the footprint unless `Off`, the trace under `Trace`).
pub struct LegacyPrrSource<'g> {
    generator: PrrGenerator<'g>,
    n: usize,
    candidates: usize,
    mode: FootprintMode,
}

impl<'g> LegacyPrrSource<'g> {
    /// Creates the oracle source for `(G, S, k)` without footprints.
    pub fn new(g: &'g DiGraph, seeds: &[NodeId], k: usize) -> Self {
        Self::with_footprints(g, seeds, k, FootprintMode::Off)
    }

    /// Creates the oracle source for `(G, S, k)` capturing what `mode`
    /// keeps. Always samples through the scalar loop (the per-graph entry
    /// points are oracle-only), so no packed in-edge lane is built.
    pub fn with_footprints(
        g: &'g DiGraph,
        seeds: &[NodeId],
        k: usize,
        mode: FootprintMode,
    ) -> Self {
        LegacyPrrSource {
            generator: PrrGenerator::new_scalar_oracle(g, seeds, k),
            n: g.num_nodes(),
            candidates: g.num_nodes().saturating_sub(seeds.len()),
            mode,
        }
    }
}

impl SketchGenerator for LegacyPrrSource<'_> {
    type Shard = Vec<LegacySample>;

    fn universe(&self) -> usize {
        self.n
    }

    fn num_candidates(&self) -> usize {
        self.candidates
    }

    fn generate(&self, rng: &mut SmallRng, shard: &mut Vec<LegacySample>) -> Vec<NodeId> {
        let (mut footprint, mut trace) = (Vec::new(), Vec::new());
        let out = self
            .generator
            .sample_with(rng, self.mode, &mut footprint, &mut trace);
        let sample = LegacySample::new(out, footprint, trace);
        // Cover-less boostable graphs are stored too (matching the shard
        // path): they contribute no sketch cover, but Δ̂ for a k ≥ 2 boost
        // set that activates their root needs them.
        let cover = match &sample {
            LegacySample::Stored { graph, .. } => graph.critical().to_vec(),
            LegacySample::Empty { .. } => Vec::new(),
        };
        shard.push(sample);
        cover
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PrrArena;
    use kboost_diffusion::exact::exact_boost;
    use kboost_graph::GraphBuilder;
    use kboost_rrset::sketch::SketchPool;

    fn figure1() -> DiGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn full_source_estimates_delta_unbiasedly() {
        // n · E[f_R(B)] = Δ_S(B) (Lemma 1), checked via the shard arena
        // for B = {v0}: Δ = 0.22.
        let g = figure1();
        let source = PrrFullSource::new(&g, &[NodeId(0)], 2);
        let mut pool: SketchPool<PrrArenaShard> = SketchPool::new(77, 4);
        pool.extend_to(&source, 300_000);

        use crate::graph::PrrEvalScratch;
        use kboost_diffusion::sim::BoostMask;
        let mask = BoostMask::from_nodes(3, &[NodeId(1)]);
        let mut scratch = PrrEvalScratch::default();
        let total = pool.total_samples();
        let hits = pool
            .shard()
            .as_arena()
            .iter()
            .filter(|view| view.f(&mask, &mut scratch))
            .count();
        let est = 3.0 * hits as f64 / total as f64;
        let truth = exact_boost(&g, &[NodeId(0)], &[NodeId(1)]);
        assert!((est - truth).abs() < 0.01, "Δ̂ {est} vs Δ {truth}");
    }

    #[test]
    fn shard_pool_matches_legacy_oracle() {
        // Same seed, same target: the shard-built arena must be byte-equal
        // to the arena copy-built from the legacy per-graph payloads.
        let g = figure1();
        let full = PrrFullSource::new(&g, &[NodeId(0)], 2);
        let legacy = LegacyPrrSource::new(&g, &[NodeId(0)], 2);
        let mut ps: SketchPool<PrrArenaShard> = SketchPool::new(40, 3);
        ps.extend_to(&full, 50_000);
        let mut pl: SketchPool<Vec<LegacySample>> = SketchPool::new(40, 3);
        pl.extend_to(&legacy, 50_000);

        assert_eq!(ps.total_samples(), pl.total_samples());
        assert_eq!(ps.empty_samples(), pl.empty_samples());
        assert_eq!(ps.covers(), pl.covers());
        let (_, shard, _, _) = ps.into_parts();
        let (_, payloads, _, _) = pl.into_parts();
        let shard_arena = PrrArena::from_shard(shard);
        let legacy_arena = LegacySample::arena(&payloads, FootprintMode::Off);
        assert!(shard_arena == legacy_arena, "arenas diverge");
        assert!(
            !shard_arena.is_empty(),
            "degenerate test: no boostable graphs"
        );
    }

    #[test]
    fn lb_source_estimates_mu() {
        // µ({v1}) for Figure 1 with B = {v1}: critical sets containing v1.
        // Exact µ({v0,v1}) from the lower-bound model:
        // (p'₀−p₀)(1+p₁) + p₀(p'₁−p₁) = 0.2·1.1 + 0.2·0.1 = 0.24... wait:
        // 0.2·1.1 = 0.22, plus 0.02 = 0.24? No: (0.4−0.2)·(1+0.1)=0.22 and
        // 0.2·(0.2−0.1)=0.02 → µ = 0.24. Checked against the µ-model
        // simulator in kboost-diffusion instead, to avoid double error.
        let g = figure1();
        let source = PrrLbSource::new(&g, &[NodeId(0)], 2);
        let mut pool: SketchPool<()> = SketchPool::new(78, 4);
        pool.extend_to(&source, 300_000);
        let est = pool.estimate(3, &[NodeId(1), NodeId(2)]);
        let sim = kboost_diffusion::mu_model::estimate_mu(
            &g,
            &[NodeId(0)],
            &[NodeId(1), NodeId(2)],
            300_000,
            123,
        );
        assert!((est - sim).abs() < 0.01, "µ̂ {est} vs simulated µ {sim}");
    }

    #[test]
    fn lb_and_full_covers_same_distribution() {
        // The critical-set distribution must be identical between the two
        // sources (same underlying randomness model): compare the estimate
        // of µ({v0}) from both pools.
        let g = figure1();
        let full = PrrFullSource::new(&g, &[NodeId(0)], 2);
        let lb = PrrLbSource::new(&g, &[NodeId(0)], 2);
        let mut pf: SketchPool<PrrArenaShard> = SketchPool::new(5, 2);
        pf.extend_to(&full, 200_000);
        let mut pl: SketchPool<()> = SketchPool::new(6, 2);
        pl.extend_to(&lb, 200_000);
        let a = pf.estimate(3, &[NodeId(1)]);
        let b = pl.estimate(3, &[NodeId(1)]);
        assert!((a - b).abs() < 0.01, "full {a} vs lb {b}");
    }
}
