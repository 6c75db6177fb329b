//! RR-set sketch sources for the Independent Cascade model.
//!
//! An RR-set for a root `r` is the random set of nodes that can reach `r`
//! in a sampled deterministic copy of the graph (each edge `(u,v)` kept
//! with probability `p_uv`). Its key property (Section IV-A):
//! `σ(S) = n · E[I(R ∩ S ≠ ∅)]`.
//!
//! The sampler draws one `rng.random::<f64>()` per unmarked in-edge with
//! `p > 0`, in CSR order: a bulk-fill-and-rewind kernel of the same stream
//! took 1.12–1.27× as long per RR-set (eight graph families, 2-vCPU Xeon).

use kboost_diffusion::sim::BoostMask;
use kboost_graph::{DiGraph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::sketch::SketchGenerator;

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

/// Reusable visited-stamp buffer for RR-set BFS (avoids reallocating a
/// visited array per sample; see the perf-book guidance on workhorse
/// collections).
#[derive(Default)]
pub struct RrScratch {
    stamp: Vec<u32>,
    round: u32,
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
}

impl<'g> InfluenceRr<'g> {
    /// Creates the source over `g`.
    pub fn new(g: &'g DiGraph) -> Self {
        InfluenceRr { g }
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
        SCRATCH.with_borrow_mut(|scratch| sample_rr_set(self.g, rng, scratch))
    }
}

/// Sketch source for *marginal* influence: an RR-set already intersecting
/// the fixed seed set `S` is uncoverable (its root would be activated
/// regardless), so greedy coverage maximizes `σ(S ∪ T) − σ(S)`.
/// This drives the MoreSeeds baseline.
pub struct MarginalRr<'g> {
    g: &'g DiGraph,
    seed_mask: BoostMask,
}

impl<'g> MarginalRr<'g> {
    /// Creates the source over `g` with fixed existing seeds.
    pub fn new(g: &'g DiGraph, seeds: &[NodeId]) -> Self {
        MarginalRr {
            g,
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
        let set = SCRATCH.with_borrow_mut(|scratch| sample_rr_set(self.g, rng, scratch));
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

    /// Pins the RR-set stream bit for bit: the covers, `total_samples` and
    /// `empty_samples` of `InfluenceRr` and `MarginalRr` pools on an ER
    /// graph (Trivalency, a third of its edges at `p = 0`) and a LogNormal
    /// preferential-attachment graph, each pool equal at 1 and 7 threads,
    /// then the IMM selections of `select_seeds` and `select_more_seeds`
    /// on the PA graph. This loop and the bulk-fill kernel it replaced
    /// both produced the pinned value.
    #[test]
    fn rr_stream_digest_is_pinned() {
        use crate::imm::ImmParams;
        use crate::seeds::{select_more_seeds, select_seeds};
        use crate::sketch::SketchPool;
        use kboost_graph::generators::{erdos_renyi, preferential_attachment};
        use kboost_graph::probability::ProbabilityModel;
        use kboost_graph::EdgeProbs;

        /// FNV-1a over little-endian `u32` words.
        fn fnv(d: &mut u64, words: impl IntoIterator<Item = u32>) {
            for w in words {
                for b in w.to_le_bytes() {
                    *d = (*d ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }

        fn fold_pools<G: SketchGenerator<Shard = ()>>(d: &mut u64, src: &G) {
            let [pool, wide] = [1, 7].map(|threads| {
                let mut pool = SketchPool::<()>::new(17, threads);
                pool.extend_to(src, 2_000);
                pool
            });
            assert_eq!(wide.covers(), pool.covers());
            assert_eq!(wide.total_samples(), pool.total_samples());
            assert_eq!(wide.empty_samples(), pool.empty_samples());
            let counts = [pool.total_samples(), pool.empty_samples()];
            fnv(d, counts.map(|c| c as u32));
            for cover in pool.covers() {
                fnv(d, [cover.len() as u32]);
                fnv(d, cover.iter().map(|v| v.0));
            }
        }

        let mut rng = SmallRng::seed_from_u64(40);
        let er = erdos_renyi(60, 360, ProbabilityModel::Trivalency, 2.0, &mut rng).map_probs(
            |u, v, p| {
                if (u.0 + v.0) % 3 == 0 {
                    EdgeProbs::new(0.0, p.boosted).unwrap()
                } else {
                    p
                }
            },
        );
        let model = ProbabilityModel::LogNormal {
            mu: -2.0,
            sigma: 1.0,
            cap: 0.8,
        };
        let pa = preferential_attachment(1_000, 4, 0.15, model, 2.0, &mut rng);
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        for g in [&er, &pa] {
            fold_pools(&mut d, &InfluenceRr::new(g));
            fold_pools(&mut d, &MarginalRr::new(g, &[NodeId(2), NodeId(5)]));
        }
        let params = ImmParams {
            k: 5,
            epsilon: 0.5,
            ell: 1.0,
            threads: 2,
            seed: 0x5EED,
            max_sketches: Some(20_000),
            min_sketches: 0,
        };
        let seeds = select_seeds(&pa, &params);
        let more = select_more_seeds(&pa, &seeds[..2], &params);
        fnv(&mut d, seeds.iter().chain(&more).map(|v| v.0));
        assert_eq!(d, 0x843e_abd3_65ce_0474);
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
