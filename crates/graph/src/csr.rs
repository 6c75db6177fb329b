#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

use crate::NodeId;

/// The pair of influence probabilities attached to a directed edge `(u, v)`.
///
/// * `base` is `p_uv`: the probability that a newly-activated `u` influences
///   `v` when `v` is *not* boosted.
/// * `boosted` is `p'_uv`: the probability used when `v` *is* boosted
///   (Definition 1). The paper requires `p'_uv ≥ p_uv`.
#[derive(Clone, Copy, PartialEq, Debug)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct EdgeProbs {
    /// Base influence probability `p_uv` (in `[0, 1]`).
    pub base: f64,
    /// Boosted influence probability `p'_uv` (in `[base, 1]`).
    pub boosted: f64,
}

impl EdgeProbs {
    /// Creates a probability pair, validating `0 ≤ base ≤ boosted ≤ 1`.
    pub fn new(base: f64, boosted: f64) -> Option<Self> {
        if (0.0..=1.0).contains(&base) && (0.0..=1.0).contains(&boosted) && base <= boosted {
            Some(EdgeProbs { base, boosted })
        } else {
            None
        }
    }

    /// The extra probability mass unlocked by boosting: `p' − p`.
    #[inline]
    pub fn gain(self) -> f64 {
        self.boosted - self.base
    }

    /// The probability to use given whether the edge head is boosted.
    #[inline]
    pub fn for_boosted(self, head_boosted: bool) -> f64 {
        if head_boosted {
            self.boosted
        } else {
            self.base
        }
    }
}

/// An immutable directed graph in compressed-sparse-row (CSR) form.
///
/// Both the forward (out-edges) and reverse (in-edges) adjacency are stored,
/// because the diffusion simulators traverse forward while RR-set / PRR-graph
/// generation traverses backward. Each direction stores the neighbor id and
/// the [`EdgeProbs`] inline, so a traversal touches a single contiguous
/// array.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct DiGraph {
    n: u32,
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    out_probs: Vec<EdgeProbs>,
    in_offsets: Vec<u32>,
    in_sources: Vec<u32>,
    in_probs: Vec<EdgeProbs>,
}

impl DiGraph {
    /// Internal constructor used by [`GraphBuilder`](crate::GraphBuilder).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        n: u32,
        out_offsets: Vec<u32>,
        out_targets: Vec<u32>,
        out_probs: Vec<EdgeProbs>,
        in_offsets: Vec<u32>,
        in_sources: Vec<u32>,
        in_probs: Vec<EdgeProbs>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), n as usize + 1);
        debug_assert_eq!(in_offsets.len(), n as usize + 1);
        debug_assert_eq!(out_targets.len(), out_probs.len());
        debug_assert_eq!(in_sources.len(), in_probs.len());
        debug_assert_eq!(out_targets.len(), in_sources.len());
        DiGraph {
            n,
            out_offsets,
            out_targets,
            out_probs,
            in_offsets,
            in_sources,
            in_probs,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n as usize
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + use<> {
        (0..self.n).map(NodeId)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        let i = u.index();
        (self.out_offsets[i + 1] - self.out_offsets[i]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.in_offsets[i + 1] - self.in_offsets[i]) as usize
    }

    /// Iterates over `(v, probs)` for every out-edge `(u, v)`.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeProbs)> + '_ {
        let i = u.index();
        let (lo, hi) = (
            self.out_offsets[i] as usize,
            self.out_offsets[i + 1] as usize,
        );
        self.out_targets[lo..hi]
            .iter()
            .zip(&self.out_probs[lo..hi])
            .map(|(&t, &p)| (NodeId(t), p))
    }

    /// Iterates over `(edge_index, v, probs)` for every out-edge `(u, v)`.
    ///
    /// The edge index is the position of the edge in the forward CSR and is
    /// stable for the lifetime of the graph; the diffusion simulator uses it
    /// to derive per-edge random draws so that coupled simulations (with and
    /// without boosting) see identical randomness.
    #[inline]
    pub fn out_edges_indexed(
        &self,
        u: NodeId,
    ) -> impl Iterator<Item = (u32, NodeId, EdgeProbs)> + '_ {
        let i = u.index();
        let (lo, hi) = (
            self.out_offsets[i] as usize,
            self.out_offsets[i + 1] as usize,
        );
        self.out_targets[lo..hi]
            .iter()
            .zip(&self.out_probs[lo..hi])
            .enumerate()
            .map(move |(off, (&t, &p))| ((lo + off) as u32, NodeId(t), p))
    }

    /// Iterates over `(u, probs)` for every in-edge `(u, v)`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeProbs)> + '_ {
        let i = v.index();
        let (lo, hi) = (self.in_offsets[i] as usize, self.in_offsets[i + 1] as usize);
        self.in_sources[lo..hi]
            .iter()
            .zip(&self.in_probs[lo..hi])
            .map(|(&s, &p)| (NodeId(s), p))
    }

    /// Looks up the probabilities on edge `(u, v)`, if it exists.
    ///
    /// Out-edges are sorted by target, so this is a binary search.
    pub fn edge(&self, u: NodeId, v: NodeId) -> Option<EdgeProbs> {
        let i = u.index();
        let (lo, hi) = (
            self.out_offsets[i] as usize,
            self.out_offsets[i + 1] as usize,
        );
        let slice = &self.out_targets[lo..hi];
        slice
            .binary_search(&v.0)
            .ok()
            .map(|pos| self.out_probs[lo + pos])
    }

    /// Whether the directed edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge(u, v).is_some()
    }

    /// Iterates over every edge as `(u, v, probs)`, in `u`-major order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeProbs)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_edges(u).map(move |(v, p)| (u, v, p)))
    }

    /// Returns a copy of this graph with every edge's probabilities replaced
    /// by `f(u, v, probs)`.
    ///
    /// Used to re-parameterize a network, e.g. when sweeping the boosting
    /// parameter β (Section VII, Figure 8).
    pub fn map_probs(&self, mut f: impl FnMut(NodeId, NodeId, EdgeProbs) -> EdgeProbs) -> DiGraph {
        let mut g = self.clone();
        for u in 0..self.n {
            let (lo, hi) = (
                g.out_offsets[u as usize] as usize,
                g.out_offsets[u as usize + 1] as usize,
            );
            for idx in lo..hi {
                let v = g.out_targets[idx];
                g.out_probs[idx] = f(NodeId(u), NodeId(v), g.out_probs[idx]);
            }
        }
        // Rebuild the reverse probability array to stay consistent.
        for v in 0..self.n {
            let (lo, hi) = (
                g.in_offsets[v as usize] as usize,
                g.in_offsets[v as usize + 1] as usize,
            );
            for idx in lo..hi {
                let u = g.in_sources[idx];
                g.in_probs[idx] = g
                    .edge(NodeId(u), NodeId(v))
                    .expect("reverse edge must exist in forward adjacency");
            }
        }
        g
    }

    /// Approximate heap footprint of the CSR arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.out_offsets.len() + self.in_offsets.len()) * size_of::<u32>()
            + (self.out_targets.len() + self.in_sources.len()) * size_of::<u32>()
            + (self.out_probs.len() + self.in_probs.len()) * size_of::<EdgeProbs>()
    }

    /// The in-edge CSR offsets, `n + 1` entries: `v`'s in-edges occupy
    /// positions `in_offsets()[v]..in_offsets()[v + 1]` of
    /// [`in_sources`](Self::in_sources) and [`in_probs`](Self::in_probs),
    /// in [`in_edges`](Self::in_edges) order. Exposed for the sampling
    /// kernels, which read the offsets ahead of expansion to prefetch.
    #[inline]
    pub fn in_offsets(&self) -> &[u32] {
        &self.in_offsets
    }

    /// Source node id of every in-edge, parallel to
    /// [`in_probs`](Self::in_probs).
    #[inline]
    pub fn in_sources(&self) -> &[u32] {
        &self.in_sources
    }

    /// Exact `(p_uv, p'_uv)` of every in-edge, parallel to
    /// [`in_sources`](Self::in_sources).
    #[inline]
    pub fn in_probs(&self) -> &[EdgeProbs] {
        &self.in_probs
    }

    /// Builds the packed in-edge lane used by the PRR phase-I kernel (see
    /// [`InEdgeSoa`]). `O(m)`; call once per graph (and once per mutation
    /// epoch, since every epoch rebuilds the CSR and therefore any lane
    /// derived from it).
    pub fn in_edge_soa(&self) -> InEdgeSoa {
        InEdgeSoa {
            lane: self
                .in_sources
                .iter()
                .zip(&self.in_probs)
                .map(|(&head, p)| PackedInEdge {
                    head,
                    boosted_hi: coin_threshold_hi(p.boosted),
                    base_hi: coin_threshold_hi(p.base),
                })
                .collect(),
        }
    }
}

/// The hot lane of the phase-I kernel: one 8-byte [`PackedInEdge`] per
/// in-edge, in the CSR in-edge order of the [`DiGraph`] it was built from.
///
/// The kernel draws one coin per in-edge of every expanded node and, at
/// benchmark scale, is bound by the edge bytes it streams rather than by
/// the draws. Each record therefore carries only what nearly every coin
/// needs: the head, and the 16-bit coin thresholds of `p'_uv` and
/// `p_uv` (see [`coin_threshold_hi`]). The exact
/// [`EdgeProbs`] stay in the graph's CSR ([`DiGraph::in_probs`]), the cold
/// lane that [`coin_at_least`] reads only on a 16-bit tie (probability
/// 2⁻¹⁶ per comparison), and the kernel reads the offsets from
/// [`DiGraph::in_offsets`] as well. The lane holds derived values, not
/// borrows, so a mutation epoch that rebuilds the `DiGraph` must rebuild
/// it too (sources do this by construction: they build their lane from
/// the epoch's graph).
#[derive(Clone, Debug)]
pub struct InEdgeSoa {
    lane: Vec<PackedInEdge>,
}

impl InEdgeSoa {
    /// One record per in-edge, indexed by the positions of
    /// [`DiGraph::in_offsets`].
    #[inline]
    pub fn lane(&self) -> &[PackedInEdge] {
        &self.lane
    }

    /// Heap bytes of the lane.
    pub fn memory_bytes(&self) -> usize {
        self.lane.len() * std::mem::size_of::<PackedInEdge>()
    }
}

/// One in-edge `(u, v)` of the packed lane: the head `u` and the 16-bit
/// coin thresholds of `p'_uv` and `p_uv`, 8 bytes in all.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(C)]
pub struct PackedInEdge {
    head: u32,
    boosted_hi: u16,
    base_hi: u16,
}

impl PackedInEdge {
    /// The edge's source node id `u`.
    #[inline]
    pub fn head(self) -> u32 {
        self.head
    }

    /// [`coin_threshold_hi`] of `p'_uv`.
    #[inline]
    pub fn boosted_hi(self) -> u16 {
        self.boosted_hi
    }

    /// [`coin_threshold_hi`] of `p_uv`.
    #[inline]
    pub fn base_hi(self) -> u16 {
        self.base_hi
    }
}

/// The 16-bit coin threshold of `p`: `floor(p·2¹⁶)`, saturated to
/// `0..=u16::MAX`, with NaN mapped to `u16::MAX`.
///
/// A coin drawn as 64 random bits is `unit_f64(bits) = (bits >> 11)·2⁻⁵³`,
/// and since `bits >> 11` is an integer, `unit_f64(bits) < p` iff
/// `(bits >> 11) < T` with `T = ceil(p·2⁵³)`. A 16-bit value `x` settles
/// every coin whose `bits >> 48` differs from it iff
/// `x·2³⁷ ≤ T ≤ (x + 1)·2³⁷`: below `x` the coin is under `T`, above it
/// at or over `T`. `floor(p·2¹⁶)` satisfies that for every `p` in
/// `[0, 1]` (so does `T >> 37`, which differs from it only when `T` is a
/// multiple of 2³⁷ and `p·2⁵³` is not an integer), and it is one multiply
/// and one conversion, so a lane of two thresholds per edge builds at
/// memory speed. Values outside `[0, 1]`, which [`DiGraph::map_probs`]
/// stores without validation, stay exact too: `p < 0` gives 0 and no
/// `bits >> 48` lies below it, while `p > 1` and NaN, which no coin
/// reaches (`unit_f64(bits) >= NaN` is false), give `u16::MAX` and none
/// lies above it. Ties fall back to the exact comparison.
pub fn coin_threshold_hi(p: f64) -> u16 {
    if p.is_nan() {
        return u16::MAX;
    }
    // Scaling by 2¹⁶ is exact; the cast truncates and saturates.
    (p * 65536.0) as u16
}

/// Whether the coin drawn as `bits` lands at or above `p`, i.e.
/// `unit_f64(bits) >= p`, given `p_hi = coin_threshold_hi(p)`.
///
/// The 16-bit comparison decides unless `bits >> 48 == p_hi`; only then
/// is the exact probability read through `p` and compared in floating
/// point. Both answers are the same predicate (see [`coin_threshold_hi`]),
/// so callers draw and consume exactly the stream of the plain
/// comparison.
#[inline(always)]
pub fn coin_at_least(bits: u64, p_hi: u16, p: impl FnOnce() -> f64) -> bool {
    let hi = (bits >> 48) as u16;
    if hi != p_hi {
        hi > p_hi
    } else {
        rand::distr::unit_f64(bits) >= p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.5, 0.7).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.25, 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.1, 0.2).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.9, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn degrees_and_counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn forward_and_reverse_agree() {
        let g = diamond();
        for (u, v, p) in g.edges() {
            let back = g
                .in_edges(v)
                .find(|&(s, _)| s == u)
                .expect("edge present in reverse adjacency");
            assert_eq!(back.1, p);
        }
    }

    #[test]
    fn edge_lookup() {
        let g = diamond();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        let p = g.edge(NodeId(2), NodeId(3)).unwrap();
        assert_eq!(p.base, 0.9);
        assert_eq!(p.boosted, 1.0);
    }

    #[test]
    fn map_probs_updates_both_directions() {
        let g = diamond().map_probs(|_, _, p| EdgeProbs::new(p.base / 2.0, p.boosted).unwrap());
        let fwd = g.edge(NodeId(0), NodeId(1)).unwrap();
        assert!((fwd.base - 0.25).abs() < 1e-12);
        let rev = g.in_edges(NodeId(1)).next().unwrap().1;
        assert_eq!(rev, fwd);
    }

    #[test]
    fn in_edge_soa_mirrors_in_edges() {
        let g = diamond();
        let soa = g.in_edge_soa();
        assert_eq!(soa.lane().len(), g.num_edges());
        for v in 0..g.num_nodes() as u32 {
            let (lo, hi) = (
                g.in_offsets()[v as usize] as usize,
                g.in_offsets()[v as usize + 1] as usize,
            );
            let aos: Vec<(NodeId, EdgeProbs)> = g.in_edges(NodeId(v)).collect();
            assert_eq!(hi - lo, aos.len());
            for (e, &(u, p)) in (lo..hi).zip(aos.iter()) {
                assert_eq!(g.in_sources()[e], u.0);
                assert_eq!(g.in_probs()[e], p);
                let rec = soa.lane()[e];
                assert_eq!(rec.head(), u.0);
                assert_eq!(rec.boosted_hi(), coin_threshold_hi(p.boosted));
                assert_eq!(rec.base_hi(), coin_threshold_hi(p.base));
            }
        }
        assert_eq!(std::mem::size_of::<PackedInEdge>(), 8);
        assert_eq!(soa.memory_bytes(), 8 * g.num_edges());
    }

    #[test]
    fn packed_coin_verdict_matches_unit_f64() {
        use crate::probability::ProbabilityModel;
        use rand::distr::unit_f64;
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut ps = vec![0.0, -0.0, 5e-324, 1.0 - 2f64.powi(-53), 1.0];
        // Unvalidated values that `map_probs` can store.
        ps.extend([f64::NAN, -1.0, 2.0, f64::INFINITY]);
        // Every 16-bit boundary region: j·2⁻¹⁶ and its f64 neighbours.
        for j in [1u64, 2, 3, 255, 256, 4095, 4096, 32767, 32768, 65534, 65535] {
            let p = j as f64 / 65536.0;
            ps.extend([
                f64::from_bits(p.to_bits() - 1),
                p,
                f64::from_bits(p.to_bits() + 1),
            ]);
        }
        let model = ProbabilityModel::LogNormal {
            mu: -1.93,
            sigma: 1.0,
            cap: 1.0,
        };
        for _ in 0..64 {
            let p = model.sample(&mut rng, 0);
            ps.extend([p, crate::probability::boost_probability(p, 2.0)]);
        }

        let low48 = (1u64 << 48) - 1;
        for &p in &ps {
            let p_hi = coin_threshold_hi(p);
            let check = |bits: u64| {
                assert_eq!(
                    coin_at_least(bits, p_hi, || p),
                    unit_f64(bits) >= p,
                    "p = {p:e} (hi {p_hi}), bits = {bits:#018x}"
                );
            };
            // Random coins: almost all settle on the 16-bit comparison.
            for _ in 0..2_000 {
                check(rng.next_u64());
            }
            // Coins forced onto the tie, where the exact comparison runs.
            let tie = u64::from(p_hi) << 48;
            for _ in 0..2_000 {
                check(tie | (rng.next_u64() & low48));
            }
            check(tie);
            check(tie | low48);
            // Both sides of the exact threshold `ceil(p·2⁵³) << 11`.
            let t = (p * (1u64 << 53) as f64).ceil();
            if t > 0.0 && t < (1u64 << 53) as f64 {
                let t = t as u64;
                for low in [0u64, 1, 0x7FF] {
                    check((t << 11) | low);
                    check(((t - 1) << 11) | low);
                }
            }
        }
    }

    #[test]
    fn edge_probs_validation() {
        assert!(EdgeProbs::new(0.2, 0.1).is_none());
        assert!(EdgeProbs::new(-0.1, 0.5).is_none());
        assert!(EdgeProbs::new(0.5, 1.1).is_none());
        let p = EdgeProbs::new(0.2, 0.6).unwrap();
        assert!((p.gain() - 0.4).abs() < 1e-12);
        assert_eq!(p.for_boosted(true), 0.6);
        assert_eq!(p.for_boosted(false), 0.2);
    }
}
