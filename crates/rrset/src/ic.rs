//! RR-set sketch sources for the Independent Cascade model.
//!
//! An RR-set for a root `r` is the random set of nodes that can reach `r`
//! in a sampled deterministic copy of the graph (each edge `(u,v)` kept
//! with probability `p_uv`). Its key property (Section IV-A):
//! `σ(S) = n · E[I(R ∩ S ≠ ∅)]`.

//! Like the PRR phase-I sampler, two equivalent implementations coexist:
//! the scalar loop below (one `rng.random::<f64>()` per qualifying edge)
//! and a kernel walking the graph's in-edge CSR slices
//! ([`DiGraph::in_offsets`], [`DiGraph::in_sources`],
//! [`DiGraph::in_probs`]) with batched [`RngCore::fill_u64`] draws
//! consumed from a rolling buffer. The scalar loop only consumes a draw
//! when the head is unmarked *and* `p > 0`; the kernel applies the same
//! test at consumption time and, on exit, rewinds the RNG to the last
//! refill snapshot and replays exactly the consumed draws, so the streams
//! are bit-identical (`kernel_matches_scalar_oracle`).
//!
//! Unlike the PRR kernel — whose walk is cache-miss-dominated at benchmark
//! scale and reads a packed 8-byte lane
//! ([`InEdgeSoa`](kboost_graph::InEdgeSoa)) to cut its edge traffic — an
//! RR-set walk is small and usually cache-resident, so it reads the CSR
//! in place and builds no lane, and batching is roughly cost-neutral here
//! (the vendored RNG fills sequentially; see `benches/sampling.rs` for
//! the measured kernel-vs-scalar ratio per family). The kernel keeps the
//! draw path uniform across samplers.

use kboost_diffusion::sim::BoostMask;
use kboost_graph::{DiGraph, NodeId};
use rand::distr::unit_f64;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

use crate::sketch::SketchGenerator;

/// Maximum number of uniforms drawn per bulk RNG refill in the kernel.
/// Deliberately smaller than the PRR kernel's batch: an RR-set consumes
/// hundreds of draws, not tens of thousands, and the unused tail of the
/// final batch is pure overhead (filled, then discarded by the rewind),
/// so the cap bounds that waste at 64 draws per sample.
const UNIFORM_BATCH: usize = 64;

/// First refill size of a sample; refills double up to [`UNIFORM_BATCH`]
/// so small RR-sets over-draw at most ~8 uniforms (cheap rewind) while
/// large walks amortise into maximal batches.
const UNIFORM_BATCH_MIN: usize = 8;

/// Generates one RR-set: all nodes reaching the random root through kept
/// edges, traversed backward.
pub fn sample_rr_set(g: &DiGraph, rng: &mut SmallRng, scratch: &mut RrScratch) -> Vec<NodeId> {
    let root = NodeId(rng.random_range(0..g.num_nodes() as u32));
    sample_rr_set_from(g, root, rng, scratch)
}

/// Generates one RR-set rooted at `root`.
pub fn sample_rr_set_from(
    g: &DiGraph,
    root: NodeId,
    rng: &mut SmallRng,
    scratch: &mut RrScratch,
) -> Vec<NodeId> {
    scratch.reset(g.num_nodes());
    let mut set = Vec::with_capacity(8);
    scratch.mark(root);
    set.push(root);
    let mut head = 0usize;
    while head < set.len() {
        let v = set[head];
        head += 1;
        for (u, p) in g.in_edges(v) {
            if !scratch.is_marked(u) && p.base > 0.0 && rng.random::<f64>() < p.base {
                scratch.mark(u);
                set.push(u);
            }
        }
    }
    set
}

/// Generates one RR-set for a uniformly random root through the
/// data-oriented kernel; draw-stream identical to [`sample_rr_set`].
pub fn sample_rr_set_kernel(
    g: &DiGraph,
    rng: &mut SmallRng,
    scratch: &mut RrScratch,
) -> Vec<NodeId> {
    let root = NodeId(rng.random_range(0..g.num_nodes() as u32));
    sample_rr_set_from_kernel(g, root, rng, scratch)
}

/// Kernel counterpart of [`sample_rr_set_from`]: a single pass over the
/// in-edge CSR slices, drawing from a rolling bulk-filled uniform buffer. The
/// eligibility test (`p > 0` and head unmarked) runs at consumption time,
/// exactly like the scalar loop; on exit the RNG is rewound to the last
/// refill snapshot and advanced by the consumed draws so the stream stays
/// bit-identical.
pub fn sample_rr_set_from_kernel(
    g: &DiGraph,
    root: NodeId,
    rng: &mut SmallRng,
    scratch: &mut RrScratch,
) -> Vec<NodeId> {
    scratch.reset(g.num_nodes());
    if scratch.uniforms.len() != UNIFORM_BATCH {
        scratch.uniforms.resize(UNIFORM_BATCH, 0);
    }
    let RrScratch {
        stamp,
        round,
        uniforms,
    } = scratch;
    let round = *round;
    let offsets = g.in_offsets();
    let heads = g.in_sources();
    let probs = g.in_probs();

    let mut set = Vec::with_capacity(8);
    stamp[root.index()] = round;
    set.push(root);
    let mut saved = rng.clone();
    let mut pos = 0usize;
    let mut batch = 0usize;
    let mut head_cursor = 0usize;
    while head_cursor < set.len() {
        let v = set[head_cursor];
        head_cursor += 1;
        let (lo, hi) = (offsets[v.index()] as usize, offsets[v.index() + 1] as usize);
        for e in lo..hi {
            let u = heads[e];
            if probs[e].base > 0.0 && stamp[u as usize] != round {
                if pos == batch {
                    batch = if batch == 0 {
                        UNIFORM_BATCH_MIN
                    } else {
                        (batch * 2).min(UNIFORM_BATCH)
                    };
                    saved = rng.clone();
                    rng.fill_u64(&mut uniforms[..batch]);
                    pos = 0;
                }
                let x = unit_f64(uniforms[pos]);
                pos += 1;
                if x < probs[e].base {
                    stamp[u as usize] = round;
                    set.push(NodeId(u));
                }
            }
        }
    }
    // Resync after over-drawing the tail of the last batch (no-op when the
    // buffer was never filled or exactly exhausted).
    if pos != batch {
        *rng = saved;
        for _ in 0..pos {
            rng.next_u64();
        }
    }
    set
}

/// Reusable visited-stamp buffer for RR-set BFS (avoids reallocating a
/// visited array per sample; see the perf-book guidance on workhorse
/// collections), plus the kernel's uniform batch buffer.
#[derive(Default)]
pub struct RrScratch {
    stamp: Vec<u32>,
    round: u32,
    uniforms: Vec<u64>,
}

impl RrScratch {
    fn reset(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp = vec![0; n];
            self.round = 0;
        }
        self.round += 1;
        if self.round == u32::MAX {
            self.stamp.fill(0);
            self.round = 1;
        }
    }

    #[inline]
    fn mark(&mut self, v: NodeId) {
        self.stamp[v.index()] = self.round;
    }

    #[inline]
    fn is_marked(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.round
    }
}

/// Sketch source for plain influence maximization: every RR-set is
/// coverable and covers exactly its member nodes.
pub struct InfluenceRr<'g> {
    g: &'g DiGraph,
    kernel: bool,
}

impl<'g> InfluenceRr<'g> {
    /// Creates the source over `g`, sampling through the batched-draw
    /// kernel.
    pub fn new(g: &'g DiGraph) -> Self {
        InfluenceRr { g, kernel: true }
    }

    /// Scalar-oracle variant of [`new`](Self::new): identical stream,
    /// original per-edge loop. For equivalence tests and baseline timing.
    pub fn new_scalar_oracle(g: &'g DiGraph) -> Self {
        InfluenceRr { g, kernel: false }
    }
}

thread_local! {
    // Workhorse scratch shared by all RR-set sources on this thread, so a
    // sample costs O(|R|) rather than O(n) for the visited array.
    static SCRATCH: std::cell::RefCell<RrScratch> = std::cell::RefCell::new(RrScratch::default());
}

impl SketchGenerator for InfluenceRr<'_> {
    type Shard = ();

    fn universe(&self) -> usize {
        self.g.num_nodes()
    }

    fn generate(&self, rng: &mut SmallRng, (): &mut ()) -> Vec<NodeId> {
        SCRATCH.with_borrow_mut(|scratch| {
            if self.kernel {
                sample_rr_set_kernel(self.g, rng, scratch)
            } else {
                sample_rr_set(self.g, rng, scratch)
            }
        })
    }
}

/// Sketch source for *marginal* influence: an RR-set already intersecting
/// the fixed seed set `S` is uncoverable (its root would be activated
/// regardless), so greedy coverage maximizes `σ(S ∪ T) − σ(S)`.
/// This drives the MoreSeeds baseline.
pub struct MarginalRr<'g> {
    g: &'g DiGraph,
    kernel: bool,
    seed_mask: BoostMask,
}

impl<'g> MarginalRr<'g> {
    /// Creates the source over `g` with fixed existing seeds, sampling
    /// through the batched-draw kernel.
    pub fn new(g: &'g DiGraph, seeds: &[NodeId]) -> Self {
        MarginalRr {
            g,
            kernel: true,
            seed_mask: BoostMask::from_nodes(g.num_nodes(), seeds),
        }
    }

    /// Scalar-oracle variant of [`new`](Self::new).
    pub fn new_scalar_oracle(g: &'g DiGraph, seeds: &[NodeId]) -> Self {
        MarginalRr {
            g,
            kernel: false,
            seed_mask: BoostMask::from_nodes(g.num_nodes(), seeds),
        }
    }
}

impl SketchGenerator for MarginalRr<'_> {
    type Shard = ();

    fn universe(&self) -> usize {
        self.g.num_nodes()
    }

    fn generate(&self, rng: &mut SmallRng, (): &mut ()) -> Vec<NodeId> {
        let set = SCRATCH.with_borrow_mut(|scratch| {
            if self.kernel {
                sample_rr_set_kernel(self.g, rng, scratch)
            } else {
                sample_rr_set(self.g, rng, scratch)
            }
        });
        if set.iter().any(|&v| self.seed_mask.contains(v)) {
            Vec::new()
        } else {
            set
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kboost_diffusion::exact::exact_sigma;
    use kboost_graph::GraphBuilder;
    use rand::SeedableRng;

    fn path_graph() -> DiGraph {
        // 0 -> 1 -> 2 with p = 0.5, 0.5
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.5, 0.6).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.5, 0.6).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rr_sets_contain_root() {
        let g = path_graph();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut scratch = RrScratch::default();
        for _ in 0..50 {
            let set = sample_rr_set(&g, &mut rng, &mut scratch);
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn rr_unbiasedness() {
        // n * P[R ∩ {0} != ∅] should equal σ({0}) = 1 + 0.5 + 0.25 = 1.75.
        let g = path_graph();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut scratch = RrScratch::default();
        let trials = 200_000;
        let mut hits = 0u32;
        for _ in 0..trials {
            let set = sample_rr_set(&g, &mut rng, &mut scratch);
            if set.contains(&NodeId(0)) {
                hits += 1;
            }
        }
        let est = 3.0 * hits as f64 / trials as f64;
        let truth = exact_sigma(&g, &[NodeId(0)], &[]);
        assert!((est - truth).abs() < 0.02, "est {est} vs exact {truth}");
    }

    #[test]
    fn marginal_rr_excludes_seed_covered() {
        let g = path_graph();
        let src = MarginalRr::new(&g, &[NodeId(0)]);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut saw_empty = false;
        let mut saw_cover = false;
        for _ in 0..500 {
            let cover = src.generate(&mut rng, &mut ());
            if cover.is_empty() {
                saw_empty = true;
            } else {
                assert!(!cover.contains(&NodeId(0)));
                saw_cover = true;
            }
        }
        assert!(saw_empty && saw_cover);
    }

    #[test]
    fn kernel_matches_scalar_oracle() {
        // Same seed → identical sets AND identical RNG state after every
        // sample, across random graphs with mixed zero/positive edges.
        use kboost_graph::generators::erdos_renyi;
        use kboost_graph::probability::ProbabilityModel;
        for gseed in 0..6u64 {
            let mut grng = SmallRng::seed_from_u64(gseed + 40);
            let g = erdos_renyi(25, 100, ProbabilityModel::Trivalency, 2.0, &mut grng);
            let mut rng_s = SmallRng::seed_from_u64(gseed * 13 + 1);
            let mut rng_k = rng_s.clone();
            let mut scratch_s = RrScratch::default();
            let mut scratch_k = RrScratch::default();
            for _ in 0..400 {
                let set_s = sample_rr_set(&g, &mut rng_s, &mut scratch_s);
                let set_k = sample_rr_set_kernel(&g, &mut rng_k, &mut scratch_k);
                assert_eq!(set_s, set_k, "RR-sets diverged (gseed {gseed})");
            }
            assert_eq!(
                rng_s.next_u64(),
                rng_k.next_u64(),
                "rng stream diverged (gseed {gseed})"
            );
        }
    }

    #[test]
    fn kernel_sources_match_scalar_sources() {
        let g = path_graph();
        let kernel = MarginalRr::new(&g, &[NodeId(0)]);
        let scalar = MarginalRr::new_scalar_oracle(&g, &[NodeId(0)]);
        let mut rng_k = SmallRng::seed_from_u64(21);
        let mut rng_s = rng_k.clone();
        for _ in 0..300 {
            assert_eq!(
                kernel.generate(&mut rng_k, &mut ()),
                scalar.generate(&mut rng_s, &mut ())
            );
        }
        let kernel = InfluenceRr::new(&g);
        let scalar = InfluenceRr::new_scalar_oracle(&g);
        for _ in 0..300 {
            assert_eq!(
                kernel.generate(&mut rng_k, &mut ()),
                scalar.generate(&mut rng_s, &mut ())
            );
        }
    }

    #[test]
    fn rooted_rr_set_respects_probabilities() {
        // Root at 2: must include 2, may include 1 then 0.
        let g = path_graph();
        let mut rng = SmallRng::seed_from_u64(13);
        let mut scratch = RrScratch::default();
        let mut with_one = 0u32;
        let trials = 100_000;
        for _ in 0..trials {
            let set = sample_rr_set_from(&g, NodeId(2), &mut rng, &mut scratch);
            assert!(set.contains(&NodeId(2)));
            if set.contains(&NodeId(0)) {
                assert!(set.contains(&NodeId(1)), "0 unreachable without 1");
            }
            if set.contains(&NodeId(1)) {
                with_one += 1;
            }
        }
        let frac = with_one as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.01, "P[1 in R] ≈ {frac}");
    }
}
