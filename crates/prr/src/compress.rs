//! Phase II — PRR-graph compression (Section V-A).
//!
//! The compression keeps `f_R(B)` and `f⁻_R(B)` unchanged for every
//! `|B| ≤ k` while shrinking the graph by orders of magnitude (the paper
//! reports ratios of 27–3125, Tables 2–3):
//!
//! 1. merge the live-forward closure `X` of the seeds into one *super-seed*
//!    (boosting inside `X` can never matter);
//! 2. drop every node whose cheapest super-seed→node→root path needs more
//!    than `k` boost edges (`d_S[v] + d'_r[v] > k`);
//! 3. shortcut nodes with a live path to the root (`d'_r[v] = 0`) straight
//!    to it — once such a node activates, the root follows;
//! 4. keep only nodes lying on some super-seed→root path.
//!
//! The critical set falls out for free: after merging, every edge leaving
//! the super-seed is live-upon-boost (a live one would have extended `X`),
//! so `C_R` is exactly the heads of super-seed edges that live-reach the
//! root.
//!
//! # Output-sensitive core
//!
//! A boostable raw graph can span most of the host graph while its
//! compressed form keeps a handful of edges, so only one pass and one DFS
//! touch the whole raw graph:
//!
//! 1. **One pass** over the raw edges records each head's in-edge block
//!    and chains every live edge onto its tail's live out-edge list.
//! 2. **X** is a DFS over those chains from the seeds.
//! 3. **F**, the non-X nodes that reach the root without passing through
//!    X, comes with every `d'_r` out of one backward 0-1 BFS from the root
//!    over the in-edge blocks that never enters X. In-edges from X become
//!    super-seed edges, in first-seen (lowest edge index) order.
//! 4. `d_S`, the budget filter, the shortcuts, the forward DFS, the
//!    relabelling and the critical set run on F ∪ {super-seed} alone.
//!
//! Step 4 is exact (byte-identical to running it on the super-seed and
//! every non-X node) by two lemmas:
//!
//! * **Paths into F stay in F.** Every node on a super-seed→`v` path with
//!   `v ∈ F` reaches the root through `v` without touching X, so it is in
//!   F. `d_S` is therefore exact on F, and nodes outside F have
//!   `d'_r = ∞` and fail the budget filter.
//! * **In the shortcut graph, backward reachability to the root equals the
//!   budget filter.** A kept node with `d'_r = 0` has its shortcut edge to
//!   the root; one with `d'_r > 0` keeps its out-edges, and the next node
//!   on a cheapest path to the root has `d'_r` smaller by that edge's
//!   weight and `d_S` larger by at most that weight, so it is kept too.
//!   Rule 4 therefore needs only the forward DFS from the super-seed.
//!
//! **Grouping precondition.** Phase I expands each node at most once and
//! emits all of its non-blocked in-edges while doing so, so every head's
//! in-edges are contiguous (see [`RawPrr::edges`]). The pass addresses a
//! node's in-edges as `edges[lo..hi]` and checks the grouping with a
//! release `assert!`: a reopened block is a phase-I bug.
//!
//! All working state lives in a thread-local [`CompressScratch`] reused
//! across samples, so steady-state compression allocates nothing beyond
//! growing the output [`CompressedParts`]. Every output ordering (local
//! ids by first appearance, per-node adjacency in edge-scan order,
//! critical nodes in super-seed edge order) is fixed by raw-local ids and
//! edge indices, never by traversal or hash order, so the output is
//! deterministic and identical to the historical `HashMap`-based
//! implementation.

use std::collections::VecDeque;

use kboost_graph::NodeId;

use crate::gen::RawPrr;
use crate::graph::{CompressedPrr, SUPER_SEED};

const INF: u32 = u32::MAX;
/// End of a live out-edge chain.
const NIL: u32 = u32::MAX;
/// Backward-BFS label of a node merged into the super-seed.
const IN_X: u32 = u32::MAX - 1;
/// F-space id of the super-seed; F's own nodes follow in discovery order,
/// so the root, discovered first, is always 1.
const SUPER_F: u32 = 0;
const ROOT_F: u32 = 1;

/// Packed local-edge encoding shared with the phase-I kernel: an edge
/// `(from, to, is_boost)` in raw-local ids is stored as
/// `(from, to | LEDGE_BOOST * is_boost)`. Local ids stay below 2³¹ (they
/// index nodes of one PRR sample), so bit 31 of the head is free.
pub(crate) const LEDGE_BOOST: u32 = 1 << 31;
/// Mask clearing [`LEDGE_BOOST`] to recover the head's local id.
pub(crate) const LEDGE_MASK: u32 = LEDGE_BOOST - 1;

/// The assembled output of Phase II before any storage commitment: the
/// shard pipeline appends it straight into a
/// [`PrrArenaShard`](crate::arena::PrrArenaShard), while the single-graph
/// oracle path materializes it as a [`CompressedPrr`]. Adjacency is stored
/// in CSR form (`adj_off` has `globals.len() + 1` entries, `adj_off[0] ==
/// 0`) so the kernel path can reuse one `CompressedParts` across samples
/// without per-node `Vec`s.
#[derive(Default, Debug, PartialEq)]
pub(crate) struct CompressedParts {
    /// Local id of the root.
    pub root: u32,
    /// Local → global id table; `globals[0] == SUPER_SEED`.
    pub globals: Vec<u32>,
    /// Per-node edge ranges into `adj` (`globals.len() + 1` entries).
    pub adj_off: Vec<u32>,
    /// Outgoing edges `(head, is_boost)` in local ids, node-major.
    pub adj: Vec<(u32, bool)>,
    /// Critical nodes `C_R` (global ids).
    pub critical: Vec<NodeId>,
    /// Phase-I edge count before compression.
    pub uncompressed: u32,
}

impl CompressedParts {
    /// Resets for reuse without releasing capacity.
    pub fn clear(&mut self) {
        self.root = 0;
        self.globals.clear();
        self.adj_off.clear();
        self.adj.clear();
        self.critical.clear();
        self.uncompressed = 0;
    }
}

/// Reusable phase-II working state; one per thread, reused across samples.
///
/// The localization half (`gstamp`/`glocal`/`nodes`/`ledges`/
/// `seed_locals`) is only exercised by the scalar path
/// ([`compress_parts_into`]): the kernel emits raw-local ids straight out
/// of phase I and enters through [`compress_locals_into`], which skips the
/// global→local assign pass entirely and uses just the [`FScratch`].
#[derive(Default)]
struct CompressScratch {
    // Epoch-stamped global → raw-local id map, grown on demand to cover
    // the largest global id seen.
    gstamp: Vec<u32>,
    glocal: Vec<u32>,
    round: u32,
    // Raw-local space (packed [`LEDGE_BOOST`] edge encoding).
    nodes: Vec<u32>,
    ledges: Vec<(u32, u32)>,
    seed_locals: Vec<u32>,
    core: FScratch,
}

/// What the one pass, the X DFS and the backward BFS know about a
/// raw-local node.
#[derive(Clone, Copy)]
struct RawNode {
    /// The node's in-edge block `ledges[lo..hi]`; `hi == 0` until opened.
    lo: u32,
    hi: u32,
    /// Latest entry of the node's live out-edge chain, or [`NIL`].
    live: u32,
    /// Backward 0-1 BFS label: `d'_r`, [`INF`] if unreached, or [`IN_X`].
    d_r: u32,
}

/// The compression core's working state: the raw-node table of the one
/// pass, and the F-space arrays (super-seed [`SUPER_F`], then F in
/// discovery order) everything after the backward BFS runs on.
#[derive(Default)]
struct FScratch {
    raw: Vec<RawNode>,
    /// Live out-edge chains: `(head, next entry or NIL)`.
    chain: Vec<(u32, u32)>,
    stack: Vec<u32>,
    deque: VecDeque<(u32, u32)>,
    /// Raw-local → F-space id; only read for nodes the BFS reached, so it
    /// is grown but never cleared.
    fid: Vec<u32>,
    /// F-space → raw-local id (`SUPER_SEED` for the super-seed).
    f_local: Vec<u32>,
    /// Super-seed edges as `(first edge index, F-space head)`.
    sup: Vec<(u32, u32)>,
    /// Edges inside F as `(F-space tail, edge index, F-space head)`.
    inner: Vec<(u32, u32, u32)>,
    out_off: Vec<u32>,
    out_adj: Vec<(u32, bool)>,
    d_s: Vec<u32>,
    seen: Vec<bool>,
    /// Surviving F nodes as `(raw-local id, F-space id)`.
    order: Vec<(u32, u32)>,
    final_of: Vec<u32>,
}

thread_local! {
    static CSCRATCH: std::cell::RefCell<CompressScratch> =
        std::cell::RefCell::new(CompressScratch::default());
}

/// Compresses a phase-I raw PRR-graph into a standalone [`CompressedPrr`].
/// Returns `None` when the graph turns out to be non-boostable (no
/// super-seed→root path within the `k`-boost budget) — callers count it as
/// hopeless.
///
/// The sampling hot path does not go through this function: it uses
/// [`compress_parts_into`] and appends directly into an arena shard.
///
/// # Panics
///
/// If `raw.edges` is not grouped by head (see [`RawPrr::edges`]).
pub fn compress(raw: &RawPrr, k: usize) -> Option<CompressedPrr> {
    compress_parts(raw, k).map(CompressedPrr::from_parts)
}

/// Phase-II compression into a freshly allocated [`CompressedParts`] —
/// the single-sample convenience wrapper over [`compress_parts_into`].
pub(crate) fn compress_parts(raw: &RawPrr, k: usize) -> Option<CompressedParts> {
    let mut parts = CompressedParts::default();
    compress_parts_into(raw.root, &raw.edges, &raw.seeds, k, &mut parts).then_some(parts)
}

/// Phase-II compression over *global*-id phase-I output: localizes the
/// edge/seed lists through the epoch-stamped map, then runs the shared
/// core. Compresses into `parts` (cleared first), returning `false` when
/// the graph is non-boostable within budget `k` (in which case `parts`
/// holds no meaningful content). Thread-local scratch makes repeated calls
/// allocation-free.
///
/// The sampling hot path skips this localization: the phase-I kernel
/// assigns local ids during its BFS (the first-touch order provably
/// equals the first-appearance order this assign pass would produce) and
/// enters through [`compress_locals_into`].
pub(crate) fn compress_parts_into(
    root: u32,
    redges: &[(u32, u32, bool)],
    rseeds: &[u32],
    k: usize,
    parts: &mut CompressedParts,
) -> bool {
    CSCRATCH.with_borrow_mut(|s| {
        s.round += 1;
        if s.round == u32::MAX {
            s.gstamp.fill(0);
            s.round = 1;
        }
        let round = s.round;
        let CompressScratch {
            gstamp,
            glocal,
            round: _,
            nodes,
            ledges,
            seed_locals,
            core,
        } = s;

        // Local ids by first appearance (root, then each edge's endpoints
        // in scan order) via the epoch-stamped map — the same order the
        // historical HashMap entry API produced.
        nodes.clear();
        ledges.clear();
        seed_locals.clear();
        let mut assign = |g: u32| -> u32 {
            let gi = g as usize;
            if gi >= gstamp.len() {
                gstamp.resize(gi + 1, 0);
                glocal.resize(gi + 1, 0);
            }
            if gstamp[gi] != round {
                gstamp[gi] = round;
                glocal[gi] = nodes.len() as u32;
                nodes.push(g);
            }
            glocal[gi]
        };
        let root_l = assign(root);
        debug_assert_eq!(root_l, 0, "root is always the first local id");
        for &(u, v, b) in redges {
            let ul = assign(u);
            let vl = assign(v);
            ledges.push((ul, vl | if b { LEDGE_BOOST } else { 0 }));
        }
        for &g in rseeds {
            seed_locals.push(assign(g));
        }
        compress_core(nodes, ledges, seed_locals, k, parts, core)
    })
}

/// Phase-II compression over *local*-id phase-I output — the kernel fast
/// path. `globals` maps raw-local → global ids with the root at index 0,
/// `ledges` is the packed [`LEDGE_BOOST`] edge list, and `lseeds` the
/// discovered seeds, all exactly as the phase-I kernel leaves them in its
/// scratch. Output-identical to routing the same sample through
/// [`compress_parts_into`] (the kernel equivalence suites pin this).
pub(crate) fn compress_locals_into(
    globals: &[u32],
    ledges: &[(u32, u32)],
    lseeds: &[u32],
    k: usize,
    parts: &mut CompressedParts,
) -> bool {
    CSCRATCH.with_borrow_mut(|s| compress_core(globals, ledges, lseeds, k, parts, &mut s.core))
}

/// 0-1 BFS over a CSR adjacency: boost edges weigh 1, live edges 0.
/// Reuses the caller's distance vector and deque.
fn zero_one_bfs_csr(
    off: &[u32],
    adj: &[(u32, bool)],
    n: usize,
    start: u32,
    dist: &mut Vec<u32>,
    deque: &mut VecDeque<(u32, u32)>,
) {
    dist.clear();
    dist.resize(n, INF);
    deque.clear();
    dist[start as usize] = 0;
    deque.push_back((start, 0u32));
    while let Some((u, du)) = deque.pop_front() {
        if du > dist[u as usize] {
            continue;
        }
        let (lo, hi) = (off[u as usize] as usize, off[u as usize + 1] as usize);
        for &(v, boost) in &adj[lo..hi] {
            let nd = du + boost as u32;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                if boost {
                    deque.push_back((v, nd));
                } else {
                    deque.push_front((v, nd));
                }
            }
        }
    }
}

/// The output-sensitive core (see the module docs). Raw-local ids are
/// first-appearance ordered with the root at 0 — guaranteed by both the
/// scalar localization and the phase-I kernel.
fn compress_core(
    nodes: &[u32],
    ledges: &[(u32, u32)],
    seed_locals: &[u32],
    k: usize,
    parts: &mut CompressedParts,
    s: &mut FScratch,
) -> bool {
    let k = k as u32;
    parts.clear();

    let FScratch {
        raw,
        chain,
        stack,
        deque,
        fid,
        f_local,
        sup,
        inner,
        out_off,
        out_adj,
        d_s,
        seen,
        order,
        final_of,
    } = s;

    // ---- One pass: in-edge blocks by head, live out-edge chains by tail
    raw.clear();
    raw.resize(
        nodes.len(),
        RawNode {
            lo: 0,
            hi: 0,
            live: NIL,
            d_r: INF,
        },
    );
    chain.clear();
    let mut head = NIL;
    for (e, &(u, pv)) in ledges.iter().enumerate() {
        let (e, v) = (e as u32, pv & LEDGE_MASK);
        if v != head {
            if head != NIL {
                raw[head as usize].hi = e;
            }
            // A closed block has `hi > lo ≥ 0`.
            assert!(
                raw[v as usize].hi == 0,
                "raw PRR edges must be grouped by head: the in-edges of local node {v} \
                 reopen at edge {e}"
            );
            raw[v as usize].lo = e;
            head = v;
        }
        if pv & LEDGE_BOOST == 0 {
            chain.push((v, raw[u as usize].live));
            raw[u as usize].live = chain.len() as u32 - 1;
        }
    }
    if head != NIL {
        raw[head as usize].hi = ledges.len() as u32;
    }

    // ---- X: live-forward closure of the seeds --------------------------
    stack.clear();
    for &sl in seed_locals {
        if raw[sl as usize].d_r != IN_X {
            raw[sl as usize].d_r = IN_X;
            stack.push(sl);
        }
    }
    while let Some(u) = stack.pop() {
        let mut c = raw[u as usize].live;
        while c != NIL {
            let (v, next) = chain[c as usize];
            if raw[v as usize].d_r != IN_X {
                raw[v as usize].d_r = IN_X;
                stack.push(v);
            }
            c = next;
        }
    }
    if raw[0].d_r == IN_X {
        // Live seed→root path: activated (phase I normally catches this).
        return false;
    }

    // ---- F: backward 0-1 BFS from the root that never enters X ---------
    fid.resize(fid.len().max(nodes.len()), 0);
    f_local.clear();
    f_local.extend([SUPER_SEED, 0]);
    fid[0] = ROOT_F;
    sup.clear();
    inner.clear();
    raw[0].d_r = 0;
    deque.clear();
    deque.push_back((0, 0));
    while let Some((v, dv)) = deque.pop_front() {
        if dv > raw[v as usize].d_r {
            continue; // stale entry: v was settled at a smaller distance
        }
        let fv = fid[v as usize];
        let mut from_x = false;
        let (lo, hi) = (raw[v as usize].lo, raw[v as usize].hi);
        for e in lo..hi {
            let (u, pv) = ledges[e as usize];
            let du = raw[u as usize].d_r;
            if du == IN_X {
                debug_assert!(pv & LEDGE_BOOST != 0, "a live edge would extend X");
                if !from_x {
                    from_x = true;
                    sup.push((e, fv));
                }
                continue;
            }
            if du == INF {
                fid[u as usize] = f_local.len() as u32;
                f_local.push(u);
            }
            inner.push((fid[u as usize], e, fv));
            let nd = dv + (pv & LEDGE_BOOST != 0) as u32;
            if nd < du {
                raw[u as usize].d_r = nd;
                if nd == dv {
                    deque.push_front((u, nd));
                } else {
                    deque.push_back((u, nd));
                }
            }
        }
    }
    let nf = f_local.len();

    // ---- Forward out-lists in F-space, edge-scan ordered ---------------
    sup.sort_unstable();
    inner.sort_unstable();
    out_off.clear();
    out_off.resize(nf + 1, 0);
    out_adj.clear();
    out_adj.extend(sup.iter().map(|&(_, h)| (h, true)));
    out_off[SUPER_F as usize + 1] = sup.len() as u32;
    for &(t, e, h) in inner.iter() {
        out_adj.push((h, ledges[e as usize].1 & LEDGE_BOOST != 0));
        out_off[t as usize + 1] += 1;
    }
    for f in 1..=nf {
        out_off[f] += out_off[f - 1];
    }

    // ---- d_S, budget filter, live shortcuts ----------------------------
    zero_one_bfs_csr(out_off, out_adj, nf, SUPER_F, d_s, deque);
    if d_s[ROOT_F as usize] > k {
        return false; // hopeless within budget (unreachable is INF > k)
    }
    // Defined on F's own nodes; the super-seed is kept because the root is.
    let d_r = |f: u32| raw[f_local[f as usize] as usize].d_r;
    let keep = |f: u32| d_s[f as usize] != INF && d_s[f as usize] + d_r(f) <= k;
    const TO_ROOT: [(u32, bool); 1] = [(ROOT_F, false)];
    let out2 = |f: u32| -> &[(u32, bool)] {
        if f != SUPER_F && f != ROOT_F && d_r(f) == 0 {
            &TO_ROOT // kept shortcut node: once active, the root follows
        } else {
            &out_adj[out_off[f as usize] as usize..out_off[f as usize + 1] as usize]
        }
    };

    // ---- Nodes on some super→root path: the forward DFS ----------------
    seen.clear();
    seen.resize(nf, false);
    seen[SUPER_F as usize] = true;
    stack.clear();
    stack.push(SUPER_F);
    while let Some(f) = stack.pop() {
        for &(h, _) in out2(f) {
            if !seen[h as usize] && keep(h) {
                seen[h as usize] = true;
                stack.push(h);
            }
        }
    }
    debug_assert!(seen[ROOT_F as usize], "a cheapest super→root path survives");

    // ---- Relabel + assemble: super-seed first, then raw-local order ----
    order.clear();
    order.extend(
        (ROOT_F..nf as u32)
            .filter(|&f| seen[f as usize])
            .map(|f| (f_local[f as usize], f)),
    );
    order.sort_unstable();
    order.insert(0, (SUPER_SEED, SUPER_F));
    final_of.clear();
    final_of.resize(nf, INF);
    for (i, &(l, f)) in order.iter().enumerate() {
        final_of[f as usize] = i as u32;
        parts.globals.push(if f == SUPER_F {
            SUPER_SEED
        } else {
            nodes[l as usize]
        });
    }
    parts.adj_off.push(0);
    for &(_, f) in order.iter() {
        for &(h, b) in out2(f) {
            if seen[h as usize] {
                parts.adj.push((final_of[h as usize], b));
            }
        }
        parts.adj_off.push(parts.adj.len() as u32);
    }

    // Critical nodes: heads of super-seed (boost) edges that live-reach
    // the root.
    let zero = parts.adj_off[1] as usize;
    for &(v, _) in &parts.adj[..zero] {
        let (_, f) = order[v as usize];
        if d_r(f) == 0 {
            parts.critical.push(NodeId(parts.globals[v as usize]));
        }
    }

    parts.root = final_of[ROOT_F as usize];
    parts.uncompressed = ledges.len() as u32;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{raw_f, PrrGenerator};
    use crate::graph::PrrEvalScratch;
    use kboost_diffusion::sim::BoostMask;
    use kboost_graph::generators::{erdos_renyi, preferential_attachment};
    use kboost_graph::probability::ProbabilityModel;
    use kboost_graph::{DiGraph, GraphBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The first `B` with `|B| ≤ k` on which `raw` compressed at `k`
    /// answers `f_R(B)` differently from `raw` itself, if any. Graphs are
    /// tiny, so every subset of the `n` nodes is tried.
    pub(super) fn f_mismatch(raw: &RawPrr, n: usize, k: usize) -> Option<Vec<NodeId>> {
        let compressed = compress(raw, k);
        let mut scratch = PrrEvalScratch::default();
        for bits in (0u32..1 << n).filter(|b| b.count_ones() as usize <= k) {
            let b: Vec<_> = (0..n as u32)
                .filter(|i| bits >> i & 1 == 1)
                .map(NodeId)
                .collect();
            let mask = BoostMask::from_nodes(n, &b);
            if raw_f(raw, &mask)
                != compressed
                    .as_ref()
                    .is_some_and(|c| c.f(&mask, &mut scratch))
            {
                return Some(b);
            }
        }
        None
    }

    /// The critical set of `raw` compressed at `k` and the definitional
    /// `{v : f_R({v}) = 1}`, both sorted; `None` if not boostable.
    pub(super) fn critical_vs_definition(
        raw: &RawPrr,
        n: usize,
        k: usize,
    ) -> Option<(Vec<NodeId>, Vec<NodeId>)> {
        let mut got = compress(raw, k)?.critical().to_vec();
        let mut expect: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|&v| raw_f(raw, &BoostMask::from_nodes(n, &[v])))
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        Some((got, expect))
    }

    /// Compare compressed f_R(B) and the critical set with the raw
    /// reference over a sampled PRR-graph.
    fn check_equivalence(g: &DiGraph, seeds: &[NodeId], k: usize, root: NodeId, seed: u64) {
        let generator = PrrGenerator::new(g, seeds, k);
        let mut rng = SmallRng::seed_from_u64(seed);
        let Some(raw) = generator.phase1_raw(root, &mut rng) else {
            return;
        };
        assert_eq!(f_mismatch(&raw, g.num_nodes(), k), None);
        if let Some((got, expect)) = critical_vs_definition(&raw, g.num_nodes(), k) {
            assert_eq!(got, expect, "critical set mismatch");
        }
    }

    fn random_graph(n: usize, m: usize, seed: u64) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        erdos_renyi(n, m, ProbabilityModel::Constant(0.4), 2.5, &mut rng)
    }

    #[test]
    fn equivalence_on_random_graphs() {
        for seed in 0..60 {
            let g = random_graph(8, 20, seed);
            for k in [1usize, 2, 3] {
                check_equivalence(&g, &[NodeId(0)], k, NodeId(7), seed * 31 + k as u64);
            }
        }
    }

    #[test]
    fn equivalence_with_two_seeds() {
        for seed in 0..40 {
            let g = random_graph(9, 24, seed + 1000);
            check_equivalence(&g, &[NodeId(0), NodeId(1)], 2, NodeId(8), seed * 7);
        }
    }

    #[test]
    fn compress_deterministic_chain() {
        // s -(live)-> a -(boost)-> b -(live)-> r : C_R = {b}.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.0, 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1.0, 1.0).unwrap();
        let g = b.build().unwrap();
        let generator = PrrGenerator::new(&g, &[NodeId(0)], 2);
        let mut rng = SmallRng::seed_from_u64(2);
        let raw = generator.phase1_raw(NodeId(3), &mut rng).unwrap();
        let c = compress(&raw, 2).expect("boostable");
        assert_eq!(c.critical(), &[NodeId(2)]);
        // Super-seed merges {s, a}; nodes: super, b, r.
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.num_edges(), 2);
    }

    #[test]
    fn hopeless_when_budget_too_small() {
        // Two boost edges in series need k >= 2.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.0, 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.0, 1.0).unwrap();
        let g = b.build().unwrap();
        // Generate with prune k=2 so the raw graph includes both edges,
        // but compress with budget k=1.
        let generator = PrrGenerator::new(&g, &[NodeId(0)], 2);
        let mut rng = SmallRng::seed_from_u64(4);
        let raw = generator.phase1_raw(NodeId(2), &mut rng).unwrap();
        assert!(compress(&raw, 1).is_none());
        assert!(compress(&raw, 2).is_some());
    }

    #[test]
    #[should_panic(expected = "grouped by head")]
    fn rejects_edges_not_grouped_by_head() {
        // Head 3's in-edges are split by head 1's block, which no phase-I
        // loop emits.
        let raw = RawPrr {
            root: 3,
            edges: vec![(1, 3, true), (0, 1, true), (2, 3, false)],
            seeds: vec![0],
        };
        compress(&raw, 2);
    }

    /// An FNV-1a hash (independent of the standard library's hasher) over
    /// every compression result folded in, and how many were boostable.
    struct Digest(u64, usize);

    impl Digest {
        fn word(&mut self, w: u32) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }

        /// Draws `samples` random roots through phase I pruned at `k_gen`
        /// and folds in every field of each raw graph's compression at
        /// each of `budgets`, non-boostable results included.
        fn fold(
            &mut self,
            g: &DiGraph,
            seeds: &[NodeId],
            (k_gen, budgets): (usize, &[usize]),
            samples: usize,
            rng: &mut SmallRng,
        ) {
            let generator = PrrGenerator::new_scalar_oracle(g, seeds, k_gen);
            for _ in 0..samples {
                let root = NodeId(rng.random_range(0..g.num_nodes() as u32));
                let Some(raw) = generator.phase1_raw(root, rng) else {
                    continue;
                };
                for &k in budgets {
                    let Some(p) = compress_parts(&raw, k) else {
                        self.word(u32::MAX);
                        continue;
                    };
                    self.1 += 1;
                    let lens = [p.globals.len(), p.adj.len(), p.critical.len()].map(|l| l as u32);
                    [p.root, p.uncompressed]
                        .into_iter()
                        .chain(lens)
                        .chain(p.globals.iter().chain(&p.adj_off).copied())
                        .chain(p.adj.iter().flat_map(|&(v, b)| [v, b as u32]))
                        .chain(p.critical.iter().map(|v| v.0))
                        .for_each(|w| self.word(w));
                }
            }
        }
    }

    /// Pins phase-II output bit for bit. The constant is a digest of every
    /// `CompressedParts` field over a fixed sample set, computed with the
    /// full-graph core this module ran before its output-sensitive one:
    ///
    /// * a 3,000-node LogNormal preferential-attachment graph with 20
    ///   seeds (the benchmark family at small scale), at k ∈ {1, 2, 5, 50};
    /// * small ER graphs whose phase I prunes at k = 5 but which are
    ///   compressed at every k ≤ 5, so the budget filter drops nodes that
    ///   phase I kept.
    #[test]
    fn compressed_parts_digest_is_pinned() {
        let mut digest = Digest(0xcbf2_9ce4_8422_2325, 0);
        let mut rng = SmallRng::seed_from_u64(2017);
        let model = ProbabilityModel::LogNormal {
            mu: -1.93,
            sigma: 1.0,
            cap: 1.0,
        };
        let g = preferential_attachment(3_000, 4, 0.15, model, 2.0, &mut rng);
        let seeds: Vec<NodeId> = (0..20).map(|i| NodeId(i * 149 + 3)).collect();
        for k in [1usize, 2, 5, 50] {
            digest.fold(&g, &seeds, (k, &[k]), 1_500, &mut rng);
        }
        for graph_seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(graph_seed);
            let g = erdos_renyi(30, 90, ProbabilityModel::Constant(0.3), 2.0, &mut rng);
            let seeds: Vec<NodeId> = (0..1 + graph_seed as u32 % 3).map(NodeId).collect();
            digest.fold(&g, &seeds, (5, &[1, 2, 3, 5]), 40, &mut rng);
        }
        assert_eq!((digest.0, digest.1), (0xcdd5_f797_abb9_fcb5, 2_377));
    }

    #[test]
    fn scratch_reuse_is_stateless_across_samples() {
        // Running many different compressions through the same
        // thread-local scratch must give the same output as a fresh
        // process would: interleave the raw graphs and check each keeps
        // producing identical CompressedParts every time.
        let g = random_graph(10, 30, 77);
        let generator = PrrGenerator::new(&g, &[NodeId(0)], 2);
        let mut rng = SmallRng::seed_from_u64(123);
        let raws: Vec<RawPrr> = (0..10u32)
            .filter_map(|root| generator.phase1_raw(NodeId(root), &mut rng))
            .collect();
        let baseline: Vec<_> = raws.iter().map(|r| compress_parts(r, 2)).collect();
        for _ in 0..3 {
            for (raw, base) in raws.iter().zip(&baseline) {
                assert_eq!(*base, compress_parts(raw, 2));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    //! Property-based compression equivalence: on arbitrary random graphs
    //! and budgets, the compressed PRR-graph answers every `f_R(B)` query
    //! (|B| ≤ k) exactly like the uncompressed phase-I graph, and the
    //! critical set matches its definition.

    use super::tests::{critical_vs_definition, f_mismatch};
    use crate::gen::PrrGenerator;
    use kboost_graph::generators::erdos_renyi;
    use kboost_graph::probability::ProbabilityModel;
    use kboost_graph::NodeId;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn compression_preserves_f_for_all_small_b(
            graph_seed in 0u64..10_000,
            status_seed in 0u64..10_000,
            n in 10usize..13,
            num_seeds in 1u32..4,
            k in 1usize..4,
            p in 0.2f64..0.7,
            root_pick in 0u32..1_000,
        ) {
            let mut rng = SmallRng::seed_from_u64(graph_seed);
            let g = erdos_renyi(n, 2 * n + 4, ProbabilityModel::Constant(p), 2.0, &mut rng);
            let seeds: Vec<NodeId> = (0..num_seeds).map(NodeId).collect();
            let generator = PrrGenerator::new(&g, &seeds, k);
            let mut srng = SmallRng::seed_from_u64(status_seed);
            let root = NodeId(root_pick % n as u32);
            if let Some(raw) = generator.phase1_raw(root, &mut srng) {
                prop_assert_eq!(f_mismatch(&raw, n, k), None);
            }
        }

        #[test]
        fn critical_set_matches_definition(
            graph_seed in 0u64..10_000,
            status_seed in 0u64..10_000,
            n in 10usize..13,
            num_seeds in 1u32..4,
            root_pick in 0u32..1_000,
        ) {
            let k = 2usize;
            let mut rng = SmallRng::seed_from_u64(graph_seed);
            let g = erdos_renyi(n, 2 * n, ProbabilityModel::Constant(0.4), 2.2, &mut rng);
            let seeds: Vec<NodeId> = (0..num_seeds).map(NodeId).collect();
            let generator = PrrGenerator::new(&g, &seeds, k);
            let mut srng = SmallRng::seed_from_u64(status_seed);
            let root = NodeId(root_pick % n as u32);
            let raw = generator.phase1_raw(root, &mut srng);
            if let Some((got, expect)) = raw.and_then(|raw| critical_vs_definition(&raw, n, k)) {
                prop_assert_eq!(got, expect);
            }
        }
    }
}
