//! Greedy NodeSelection over `Δ̂` (Algorithm 2, line 4).
//!
//! Unlike the coverage greedy used for `µ̂` (each sketch is covered by a
//! fixed set), `Δ̂` is evaluated on whole PRR-graphs: after each insertion
//! the per-graph candidate sets change. The naive algorithm therefore
//! recomputes, for each not-yet-covered graph, the *B-augmented* critical
//! set every round — `O(k · Σ|R|)` node-selection cost.
//!
//! [`greedy_delta_selection`] replaces the per-round full re-traversal with
//! an **inverted coverage index**: node `v` maps to the PRR-graphs in which
//! `v` heads a boost edge — precisely the graphs whose `f_R` / candidate
//! set can change when `v` enters `B`. Each round then
//!
//! 1. picks the max-vote node from incrementally maintained vote counts
//!    (`votes[v] = #{uncovered R : v ∈ A_R(B)}`), and
//! 2. re-traverses only the graphs listed under the picked node,
//!    subtracting their old candidate votes and adding the new ones.
//!
//! Graphs without the picked node among their boost heads cannot change
//! (`f_R` and `A_R` depend on `B` only through the graph's own boost-edge
//! heads), so their cached candidate sets stay exact. The result is
//! bit-identical to the naive greedy — tie-breaks included (highest vote
//! count, then lowest node id) — which
//! `greedy_matches_naive_on_random_arenas` and the cross-crate property
//! tests enforce. The initial candidate sets are computed in parallel
//! (deterministically: per-graph results are ordered by graph id).

use kboost_diffusion::sim::BoostMask;
use kboost_graph::NodeId;

use crate::arena::PrrArena;
use crate::graph::{Augmented, PrrEvalScratch};

/// A CSR multimap from node id to `u32` items, built by the
/// count / prefix-sum / scatter passes of the greedy selection's inverted
/// coverage index.
///
/// `fill` is invoked twice — once to count, once to scatter — and must
/// emit the identical `(node, item)` sequence both times; items of one
/// node keep their emission order.
pub struct NodeIndex {
    /// `n + 1` offsets into `items`.
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl NodeIndex {
    /// Builds the index over node universe `0..n`.
    pub fn build(n: usize, fill: impl Fn(&mut dyn FnMut(NodeId, u32))) -> Self {
        let mut offsets = vec![0u32; n + 1];
        fill(&mut |v, _| offsets[v.index() + 1] += 1);
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut items = vec![0u32; offsets[n] as usize];
        fill(&mut |v, item| {
            items[cursor[v.index()] as usize] = item;
            cursor[v.index()] += 1;
        });
        NodeIndex { offsets, items }
    }

    /// The items filed under node `v`.
    #[inline]
    pub fn items_of(&self, v: NodeId) -> &[u32] {
        let (lo, hi) = (
            self.offsets[v.index()] as usize,
            self.offsets[v.index() + 1] as usize,
        );
        &self.items[lo..hi]
    }

    /// Total number of stored `(node, item)` pairs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the index holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Result of the greedy `Δ̂` selection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSelection {
    /// Chosen boost nodes, in pick order.
    pub selected: Vec<NodeId>,
    /// Number of PRR-graphs whose root activates under the final set.
    pub covered: u64,
}

/// Arenas with fewer graphs compute their initial candidates on the
/// calling thread. A helper thread's start-up and cold caches cost more
/// than it saves below this size: on a 2-vCPU Xeon the whole selection
/// took 0.061 ms on one thread and 0.120 ms on two at 1,303 graphs,
/// 0.362 and 0.407 ms at 5,283, and 1.369 and 1.300 ms at 18,579.
pub const PARALLEL_MIN_GRAPHS: usize = 16_384;

/// Greedily selects up to `k` nodes maximizing the number of PRR-graphs
/// with `f_R(B) = 1`, using the inverted coverage index. `n` is the
/// host-graph node count; `threads` bounds the parallel fan-out of the
/// initial candidate computation, which arenas below
/// [`PARALLEL_MIN_GRAPHS`] skip. Tombstoned graphs (online maintenance)
/// are skipped: they earn no votes and never count as covered.
pub fn greedy_delta_selection(
    arena: &PrrArena,
    n: usize,
    k: usize,
    threads: usize,
) -> DeltaSelection {
    // `k == 0` deliberately falls through: phase 1 still classifies graphs
    // already covered under the empty boost set, matching the naive
    // greedy's final sweep.
    let num_graphs = arena.len();
    if num_graphs == 0 {
        return DeltaSelection {
            selected: Vec::new(),
            covered: 0,
        };
    }

    // Phase 1 (parallel on large arenas): per-graph initial candidate set
    // A_R(∅) and the graph's distinct boost-edge heads.
    let workers = if num_graphs < PARALLEL_MIN_GRAPHS {
        1
    } else {
        threads
    };
    let init = initial_candidates(arena, n, workers);

    let mut covered: Vec<bool> = Vec::with_capacity(num_graphs);
    let mut covered_count = 0u64;
    let mut cand_sets: Vec<Vec<NodeId>> = Vec::with_capacity(num_graphs);
    let mut head_lists: Vec<Vec<NodeId>> = Vec::with_capacity(num_graphs);
    for g in init {
        if g.covered {
            covered_count += 1;
        }
        covered.push(g.covered);
        cand_sets.push(g.candidates);
        head_lists.push(g.heads);
    }

    // Phase 2: inverted index node -> graphs where it heads a boost edge.
    let index = NodeIndex::build(n, |emit| {
        for (gi, heads) in head_lists.iter().enumerate() {
            for &h in heads {
                emit(h, gi as u32);
            }
        }
    });
    drop(head_lists);

    // Phase 3: vote counts over the current candidate sets.
    let mut votes = vec![0u32; n];
    let mut active: Vec<u32> = Vec::new();
    let mut in_active = vec![false; n];
    for (gi, cands) in cand_sets.iter().enumerate() {
        if covered[gi] {
            continue;
        }
        for &v in cands {
            votes[v.index()] += 1;
            if !in_active[v.index()] {
                in_active[v.index()] = true;
                active.push(v.0);
            }
        }
    }

    // Phase 4: greedy rounds with lazy incremental updates.
    let mut boost = BoostMask::empty(n);
    let mut selected: Vec<NodeId> = Vec::with_capacity(k);
    let mut scratch = PrrEvalScratch::default();
    let mut fresh: Vec<NodeId> = Vec::new();

    for _round in 0..k {
        // Max votes, ties to the lowest node id — the naive greedy's order.
        let mut best: Option<(u32, u32)> = None;
        for &v in &active {
            let count = votes[v as usize];
            if count == 0 {
                continue;
            }
            best = match best {
                None => Some((count, v)),
                Some((bc, bv)) if count > bc || (count == bc && v < bv) => Some((count, v)),
                other => other,
            };
        }
        let Some((_, picked)) = best else { break }; // no node improves any graph
        let picked = NodeId(picked);
        boost.insert(picked);
        selected.push(picked);

        // Only graphs with `picked` among their boost heads can change.
        for &gi in index.items_of(picked) {
            let gi = gi as usize;
            if covered[gi] {
                continue;
            }
            for &u in &cand_sets[gi] {
                votes[u.index()] -= 1;
            }
            fresh.clear();
            match arena
                .graph(gi)
                .augmented_critical(&boost, &mut scratch, &mut fresh)
            {
                Augmented::Covered => {
                    covered[gi] = true;
                    covered_count += 1;
                    cand_sets[gi] = Vec::new();
                }
                Augmented::Open => {
                    for &u in &fresh {
                        votes[u.index()] += 1;
                        if !in_active[u.index()] {
                            in_active[u.index()] = true;
                            active.push(u.0);
                        }
                    }
                    std::mem::swap(&mut cand_sets[gi], &mut fresh);
                }
            }
        }
        debug_assert_eq!(votes[picked.index()], 0, "picked node kept residual votes");
    }

    DeltaSelection {
        selected,
        covered: covered_count,
    }
}

/// Per-graph output of the parallel initial pass.
struct GraphInit {
    candidates: Vec<NodeId>,
    heads: Vec<NodeId>,
    covered: bool,
}

/// Computes `A_R(∅)` and the distinct boost heads of every graph, fanning
/// out over `workers` contiguous graph ranges (the calling thread takes
/// the first); results are ordered by graph id, so the output is
/// independent of `workers`. Tombstoned graphs get an inert record — no
/// candidates, no heads, not covered — so they contribute no votes, no
/// index entries and no coverage.
fn initial_candidates(arena: &PrrArena, n: usize, workers: usize) -> Vec<GraphInit> {
    let num_graphs = arena.len();
    let empty = BoostMask::empty(n);
    let run_range = |range: std::ops::Range<usize>| -> Vec<GraphInit> {
        let mut scratch = PrrEvalScratch::default();
        let mut out = Vec::with_capacity(range.len());
        for gi in range {
            if !arena.is_live(gi) {
                out.push(GraphInit {
                    candidates: Vec::new(),
                    heads: Vec::new(),
                    covered: false,
                });
                continue;
            }
            let view = arena.graph(gi);
            let mut candidates = Vec::new();
            let covered = matches!(
                view.augmented_critical(&empty, &mut scratch, &mut candidates),
                Augmented::Covered
            );
            let mut heads = Vec::new();
            view.for_each_boost_head(|v| heads.push(v));
            out.push(GraphInit {
                candidates,
                heads,
                covered,
            });
        }
        out
    };

    let workers = workers.max(1).min(num_graphs.max(1));
    if workers <= 1 {
        return run_range(0..num_graphs);
    }
    let per = num_graphs.div_ceil(workers);
    let range = |w: usize| {
        let lo = (per * w).min(num_graphs);
        lo..(lo + per).min(num_graphs)
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                let run_range = &run_range;
                let r = range(w);
                scope.spawn(move || run_range(r))
            })
            .collect();
        let mut results: Vec<GraphInit> = Vec::with_capacity(num_graphs);
        results.extend(run_range(range(0)));
        for h in handles {
            results.extend(h.join().expect("initial-candidate worker panicked"));
        }
        results
    })
}

/// The reference greedy: recomputes every uncovered graph's B-augmented
/// critical set each round (the paper's `O(k · Σ|R|)` node selection).
/// Kept as the equivalence oracle for [`greedy_delta_selection`] and as the
/// baseline the perf harness measures against.
pub fn greedy_delta_selection_naive(arena: &PrrArena, n: usize, k: usize) -> DeltaSelection {
    let num_graphs = arena.len();
    let mut boost = BoostMask::empty(n);
    let mut selected: Vec<NodeId> = Vec::with_capacity(k);
    let mut covered: Vec<bool> = vec![false; num_graphs];
    let mut scratch = PrrEvalScratch::default();

    // Per-round vote counts, reset via the touched list.
    let mut votes: Vec<u32> = vec![0; n];
    let mut touched: Vec<NodeId> = Vec::new();
    let mut candidates: Vec<NodeId> = Vec::new();

    for _round in 0..k {
        touched.clear();
        for (i, prr) in arena.iter().enumerate() {
            if covered[i] || !arena.is_live(i) {
                continue;
            }
            candidates.clear();
            match prr.augmented_critical(&boost, &mut scratch, &mut candidates) {
                Augmented::Covered => covered[i] = true,
                Augmented::Open => {
                    for &v in &candidates {
                        if votes[v.index()] == 0 {
                            touched.push(v);
                        }
                        votes[v.index()] += 1;
                    }
                }
            }
        }

        let best = touched
            .iter()
            .copied()
            .max_by_key(|v| (votes[v.index()], std::cmp::Reverse(v.0)));
        for &v in &touched {
            votes[v.index()] = 0;
        }
        match best {
            Some(v) => {
                boost.insert(v);
                selected.push(v);
            }
            None => break, // no node improves any graph
        }
    }

    // Final coverage count under the complete selection.
    let mut covered_final = 0u64;
    for (i, prr) in arena.iter().enumerate() {
        if arena.is_live(i) && (covered[i] || prr.f(&boost, &mut scratch)) {
            covered_final += 1;
        }
    }
    DeltaSelection {
        selected,
        covered: covered_final,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CompressedPrr, SUPER_SEED};

    /// super --boost--> a --live--> root.
    fn single_critical(a_global: u32, root_global: u32) -> CompressedPrr {
        let out_adj = vec![vec![(1u32, true)], vec![(2u32, false)], vec![]];
        CompressedPrr::from_adjacency(
            2,
            vec![SUPER_SEED, a_global, root_global],
            &out_adj,
            vec![NodeId(a_global)],
            10,
        )
    }

    /// super --boost--> a --boost--> root (needs both boosted).
    fn chain_of_two(a_global: u32, root_global: u32) -> CompressedPrr {
        let out_adj = vec![vec![(1u32, true)], vec![(2u32, true)], vec![]];
        CompressedPrr::from_adjacency(
            2,
            vec![SUPER_SEED, a_global, root_global],
            &out_adj,
            vec![],
            10,
        )
    }

    fn arena_of(graphs: &[CompressedPrr]) -> PrrArena {
        let mut arena = PrrArena::new();
        for g in graphs {
            arena.push(g, &[], &[], crate::FootprintMode::Off);
        }
        arena
    }

    fn both(arena: &PrrArena, n: usize, k: usize) -> DeltaSelection {
        let fast = greedy_delta_selection(arena, n, k, 2);
        let naive = greedy_delta_selection_naive(arena, n, k);
        assert_eq!(fast, naive, "indexed greedy diverged from naive");
        fast
    }

    #[test]
    fn picks_majority_node() {
        let arena = arena_of(&[
            single_critical(5, 6),
            single_critical(5, 7),
            single_critical(8, 9),
        ]);
        let res = both(&arena, 10, 1);
        assert_eq!(res.selected, vec![NodeId(5)]);
        assert_eq!(res.covered, 2);
    }

    #[test]
    fn chains_get_completed_across_rounds() {
        // One chain graph needing {3, 4}: alone it offers no single-node
        // gain, but a single-critical graph on node 3 drags 3 in; after
        // that the chain's candidate set becomes {4}.
        let arena = arena_of(&[chain_of_two(3, 4), single_critical(3, 6)]);
        let res = both(&arena, 10, 2);
        assert_eq!(res.selected, vec![NodeId(3), NodeId(4)]);
        assert_eq!(res.covered, 2);
    }

    #[test]
    fn stops_early_without_candidates() {
        let arena = arena_of(&[chain_of_two(3, 4)]);
        // Alone, the chain offers no single-node gain: selection is empty.
        let res = both(&arena, 10, 2);
        assert!(res.selected.is_empty());
        assert_eq!(res.covered, 0);
    }

    #[test]
    fn ties_break_to_lower_id() {
        let arena = arena_of(&[single_critical(5, 6), single_critical(2, 7)]);
        let res = both(&arena, 10, 1);
        assert_eq!(res.selected, vec![NodeId(2)]);
    }

    #[test]
    fn empty_pool() {
        let arena = PrrArena::new();
        let res = both(&arena, 5, 3);
        assert!(res.selected.is_empty());
        assert_eq!(res.covered, 0);
    }

    /// super --live--> root: covered with no boosting at all (cannot come
    /// out of the PRR-Boost pipeline, but the arena API allows it).
    fn pre_covered(root_global: u32) -> CompressedPrr {
        let out_adj = vec![vec![(1u32, false)], vec![]];
        CompressedPrr::from_adjacency(1, vec![SUPER_SEED, root_global], &out_adj, vec![], 3)
    }

    #[test]
    fn k_zero_counts_pre_covered_graphs() {
        let arena = arena_of(&[pre_covered(4), single_critical(5, 6)]);
        let res = both(&arena, 10, 0);
        assert!(res.selected.is_empty());
        assert_eq!(res.covered, 1);
        let res = both(&arena, 10, 1);
        assert_eq!(res.selected, vec![NodeId(5)]);
        assert_eq!(res.covered, 2);
    }

    #[test]
    fn node_index_groups_items_in_emission_order() {
        let pairs = [(2u32, 10u32), (0, 11), (2, 12), (1, 13), (2, 14)];
        let index = NodeIndex::build(4, |emit| {
            for &(v, item) in &pairs {
                emit(NodeId(v), item);
            }
        });
        assert_eq!(index.len(), 5);
        assert!(!index.is_empty());
        assert_eq!(index.items_of(NodeId(0)), &[11]);
        assert_eq!(index.items_of(NodeId(1)), &[13]);
        assert_eq!(index.items_of(NodeId(2)), &[10, 12, 14]);
        assert_eq!(index.items_of(NodeId(3)), &[] as &[u32]);
    }

    #[test]
    fn tombstoned_graphs_are_invisible_to_both_greedys() {
        // Three graphs voting for node 5; tombstoning two must change the
        // winner and the coverage count exactly as if they were absent.
        let mut arena = arena_of(&[
            single_critical(5, 6),
            single_critical(5, 7),
            single_critical(8, 9),
        ]);
        arena.tombstone(0);
        arena.tombstone(1);
        let res = both(&arena, 10, 1);
        assert_eq!(res.selected, vec![NodeId(8)]);
        assert_eq!(res.covered, 1);
        // And the result matches a fresh arena holding only the survivor.
        let fresh = arena_of(&[single_critical(8, 9)]);
        assert_eq!(res, both(&fresh, 10, 1));
    }

    /// The fan-out that large arenas take returns the serial pass's
    /// records, in graph order, for any worker count.
    #[test]
    fn initial_candidates_match_across_worker_counts() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x1417);
        let n = 12usize;
        let graphs: Vec<CompressedPrr> = (0..300)
            .map(|_| {
                let a = rng.random_range(1..n as u32 - 1);
                let r = rng.random_range(1..n as u32 - 1);
                let r = if r == a { r - 1 } else { r };
                if rng.random_bool(0.5) {
                    single_critical(a, r)
                } else {
                    chain_of_two(a, r)
                }
            })
            .collect();
        let mut arena = arena_of(&graphs);
        arena.tombstone(7);
        let serial = initial_candidates(&arena, n, 1);
        assert_eq!(serial.len(), graphs.len());
        for workers in [2, 3, 7, 1000] {
            let fanned = initial_candidates(&arena, n, workers);
            assert_eq!(fanned.len(), serial.len());
            for (a, b) in serial.iter().zip(&fanned) {
                assert_eq!(
                    (&a.candidates, &a.heads, a.covered),
                    (&b.candidates, &b.heads, b.covered)
                );
            }
        }
    }

    #[test]
    fn greedy_matches_naive_on_random_arenas() {
        // Synthetic random pools: chains and single-critical graphs over a
        // small universe, several budgets.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = SmallRng::seed_from_u64(seed * 7 + 1);
            let n = 12usize;
            let graphs: Vec<CompressedPrr> = (0..rng.random_range(1..40usize))
                .map(|_| {
                    let a = rng.random_range(1..n as u32 - 1);
                    let r = rng.random_range(1..n as u32 - 1);
                    if rng.random_bool(0.5) {
                        single_critical(a, if r == a { r - 1 } else { r })
                    } else {
                        chain_of_two(a, if r == a { r - 1 } else { r })
                    }
                })
                .collect();
            let arena = arena_of(&graphs);
            for k in [0usize, 1, 2, 4, 8] {
                both(&arena, n, k);
            }
        }
    }
}
