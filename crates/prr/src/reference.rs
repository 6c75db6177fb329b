//! The full phase-I search, kept as the test reference of the X-pruned
//! search in [`gen`](crate::gen): a pre-drawn world fed to both must give
//! the same outcome class and compressed graph.

use std::collections::VecDeque;

use kboost_diffusion::sim::BoostMask;
use kboost_graph::{DiGraph, NodeId};

use crate::gen::{RawPrr, TRACE_BLOCKED, TRACE_BOOST};

/// A reference phase-I result.
pub(crate) enum Phase1 {
    Activated,
    Hopeless,
    Raw(RawPrr),
}

/// The backward 0-1 BFS from `root` that expands every non-seed node
/// within `prune_at` boosts, the seeds' live closure included. Each
/// expanded node draws one coin per in-edge from `coin(e)` (`e` the CSR
/// in-edge position) and emits its non-blocked in-edges within budget; a
/// seed reached at distance 0 returns `Activated` at once, mid-list.
/// `expanded` receives the expanded nodes in pop order (this search's
/// footprint).
pub(crate) fn phase1(
    g: &DiGraph,
    seeds: &BoostMask,
    root: NodeId,
    prune_at: u32,
    mut coin: impl FnMut(usize) -> u8,
    expanded: &mut Vec<u32>,
) -> Phase1 {
    const INF: u32 = u32::MAX;
    expanded.clear();
    if seeds.contains(root) {
        return Phase1::Activated;
    }
    let (offsets, sources) = (g.in_offsets(), g.in_sources());
    let mut dist = vec![INF; g.num_nodes()];
    let mut deque = VecDeque::from([(root.0, 0u32)]);
    let (mut edges, mut found) = (Vec::new(), Vec::new());
    dist[root.index()] = 0;
    while let Some((u, du)) = deque.pop_front() {
        if du > dist[u as usize] {
            continue; // stale entry: u was settled at a smaller distance
        }
        expanded.push(u);
        for e in offsets[u as usize] as usize..offsets[u as usize + 1] as usize {
            let outcome = coin(e);
            if outcome == TRACE_BLOCKED {
                continue;
            }
            let boost = outcome == TRACE_BOOST;
            let dv = du + boost as u32;
            if dv > prune_at {
                continue; // pruning: needs more than k boosts
            }
            let v = sources[e];
            edges.push((v, u, boost));
            let old = dist[v as usize];
            if dv < old {
                dist[v as usize] = dv;
                if seeds.contains(NodeId(v)) {
                    if dv == 0 {
                        return Phase1::Activated;
                    }
                    if old == INF {
                        found.push(v);
                    }
                } else if dv == du {
                    deque.push_front((v, dv));
                } else {
                    deque.push_back((v, dv));
                }
            }
        }
    }
    if found.is_empty() {
        Phase1::Hopeless
    } else {
        Phase1::Raw(RawPrr {
            root: root.0,
            edges,
            seeds: found,
        })
    }
}
