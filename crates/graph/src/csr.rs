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

    /// Builds the struct-of-arrays mirror of the in-edge adjacency used by
    /// the data-oriented samplers (see [`InEdgeSoa`]). `O(m)`; call once
    /// per graph (and once per mutation epoch, since every epoch rebuilds
    /// the CSR and therefore any mirror of it).
    pub fn in_edge_soa(&self) -> InEdgeSoa {
        InEdgeSoa {
            offsets: self.in_offsets.clone(),
            heads: self.in_sources.clone(),
            probs: self.in_probs.clone(),
        }
    }
}

/// Flat mirror of a graph's in-edge adjacency tuned for the backward
/// sampling kernels: a narrow `u32` head lane and a paired
/// `(base, boosted)` probability lane, both in the CSR in-edge layout (and
/// edge order) of the [`DiGraph`] it was built from.
///
/// The lane split follows the kernels' access pattern. Every draw
/// compares against `boosted` and usually `base` of the *same* edge, so
/// the two probabilities live together in one 16-byte [`EdgeProbs`]
/// record — one cache line serves four edges instead of spreading each
/// edge's pair across two distant lines. Heads stay in their own `u32`
/// lane because they are read ahead of the draws (the kernels prefetch
/// per-node state for upcoming heads), and a narrow lane packs sixteen
/// per line. Built once per graph via [`DiGraph::in_edge_soa`] — it holds
/// copies, not borrows, so a mutation epoch that rebuilds the `DiGraph`
/// must rebuild the mirror too (sources do this by construction: they
/// build their mirror from the epoch's graph).
#[derive(Clone, Debug)]
pub struct InEdgeSoa {
    /// Per-node edge ranges, `n + 1` entries (the in-edge CSR offsets).
    offsets: Vec<u32>,
    /// Edge source node ids, one per in-edge.
    heads: Vec<u32>,
    /// Paired `(p_uv, p'_uv)` probabilities, one record per in-edge.
    probs: Vec<EdgeProbs>,
}

impl InEdgeSoa {
    /// The flat edge range of `v`'s in-edges: index `heads`/`probs`
    /// with it.
    #[inline]
    pub fn range(&self, v: NodeId) -> (usize, usize) {
        let i = v.index();
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
    }

    /// Edge source ids, parallel to [`probs`](Self::probs).
    #[inline]
    pub fn heads(&self) -> &[u32] {
        &self.heads
    }

    /// The raw CSR offset array (`n + 1` entries) behind
    /// [`range`](Self::range) — exposed so samplers can prefetch a node's
    /// range entry as soon as the node is enqueued, before it is expanded.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The paired `(p_uv, p'_uv)` lane, parallel to [`heads`](Self::heads).
    #[inline]
    pub fn probs(&self) -> &[EdgeProbs] {
        &self.probs
    }

    /// Approximate heap bytes of the mirror.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.offsets.len() + self.heads.len()) * size_of::<u32>()
            + self.probs.len() * size_of::<EdgeProbs>()
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
        for v in 0..g.num_nodes() as u32 {
            let (lo, hi) = soa.range(NodeId(v));
            let aos: Vec<(NodeId, EdgeProbs)> = g.in_edges(NodeId(v)).collect();
            assert_eq!(hi - lo, aos.len());
            for (e, &(u, p)) in (lo..hi).zip(aos.iter()) {
                assert_eq!(soa.heads()[e], u.0);
                assert_eq!(soa.probs()[e], p);
            }
        }
        assert!(soa.memory_bytes() > 0);
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
