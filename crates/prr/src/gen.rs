//! PRR-graph generation — Algorithm 1, phase I, stopped at the seeds'
//! live closure.
//!
//! # The search
//!
//! A sample's *world* fixes every edge as live (probability `p`),
//! live-upon-boost (`p' − p`) or blocked. Phase II merges `X`, the nodes
//! a seed reaches over live edges, into one super-seed and keeps only
//! nodes that reach the root without passing through `X` (Section V-A),
//! so phase I never needs to look behind `X`. It is a backward 0-1 BFS
//! from the root — a node's *distance* is the fewest live-upon-boost
//! edges on a path from it to the root through nodes outside `X`, so live
//! edges relax at the front of the deque and boost edges at the back —
//! that expands only nodes proven to be outside `X`:
//!
//! * Each node the BFS pops has its `X` status settled by a **walk**
//!   backward over live in-edges. The walk stops at the first seed or
//!   known-`X` node and propagates that hit forward over the live edges
//!   already drawn: every node they reach is in `X`. When the walk runs
//!   out instead, no node it visited reaches a seed, so every one of them
//!   is proven outside `X` and none is walked again.
//! * A popped node in `X` is not expanded. It is the tail of a
//!   super-seed edge and goes to phase II in the raw graph's seed list
//!   ([`RawPrr::seeds`]).
//! * A popped node outside `X` emits all of its non-blocked in-edges,
//!   unless it sits at distance `k`. Every path from the super-seed
//!   starts with a boost edge, so such a node would need `k + 1` boosts
//!   and compression keeps neither it nor anything behind it. Edges that
//!   would need more than `k` boosts are therefore never emitted.
//! * A root in `X` is `Activated`. A BFS that reaches no `X` node is
//!   `Hopeless`.
//!
//! Every node whose in-list the search reads — each node a walk visits —
//! draws its whole in-list once, in CSR order, and keeps the non-blocked
//! in-edges in a sample-local block that later walks and its expansion
//! reread without drawing. The expansion itself draws nothing: a node
//! proven outside `X` was walked. All per-node search state (`X` status,
//! in-edge block, live out-chain, walk stamp, distance) lives in
//! sample-local arrays indexed by the local ids the search assigns on
//! first touch, so `NodeMeta` stays the only per-graph-node array per
//! thread.
//!
//! For a fixed world, the compressed graph, its critical set and the
//! outcome class equal those of the full BFS this search replaced, which
//! expanded every node within `k` boosts, `X` included: the raw graph
//! loses only the region behind `X` and behind the budget boundary,
//! which compression dropped anyway. The test reference (`reference`)
//! keeps that full BFS and the world-equivalence suite compares the two
//! sample by sample.
//!
//! # The stream
//!
//! A sample draws one coin per in-edge of every node the search reads,
//! in read order: the root's walk first, then the walk of each popped
//! node whose status is still open. This is a different order from the
//! full BFS, and far fewer coins (≈1.5k instead of ≈27k per sample at the
//! `offline_solve` scale). Each coin is drawn at most once and
//! independently of the others, so the outcome distribution is
//! unchanged.
//!
//! # Coin sources
//!
//! The search is written once, generic over its `CoinSource`:
//!
//! * `LaneCoins` — kernel generators ([`PrrGenerator::new`]). It reads
//!   the packed 8-byte [`InEdgeSoa`] lane (head plus 16-bit coin
//!   thresholds) instead of the 20 bytes per edge of the CSR and settles a
//!   coin, one [`RngCore::next_u64`] each, on integers: `bits >> 48`
//!   against the record's threshold, falling back to the exact
//!   [`EdgeProbs`] only on a tie (probability 2⁻¹⁶ per comparison, see
//!   [`coin_at_least`]). The earlier kernel bulk-filled a buffer of
//!   uniforms and rewound the RNG at the end of each sample; at ≈1.5k
//!   coins a sample, the over-draw and the rewind cost more than the bulk
//!   fill saved.
//! * `ScalarCoins` — scalar oracles
//!   ([`PrrGenerator::new_scalar_oracle`]). One `rng.random::<f64>()` per
//!   coin against the exact probabilities: the same predicate and the
//!   same stream as the lane, so every cover and arena byte agrees.
//! * `ReplayCoins` — conditional replay of a retained trace (see
//!   [`PrrGenerator::replay_with_footprint_trace`]). It reuses recorded
//!   coins and draws the rest like `ScalarCoins`.
//!
//! # Edge-space footprints
//!
//! The set of nodes whose in-lists the search read is the sample's exact
//! edge-space footprint: a mutation of edge `(u, v)` changes the sample's
//! distribution iff `v`'s in-list was read, because only then would the
//! search have queried `v`'s (old or new) in-edges. The search reads
//! nothing else (the expansion rereads blocks already drawn), so the
//! footprint stays exact. The footprint-retaining entry points capture
//! that set (sorted) for the online subsystem's exact staleness
//! detection; capture consumes no randomness, so footprint-on and
//! footprint-off pools draw identical streams.
//!
//! Every entry point ends in one of two phase-II steps: `outcome`
//! compresses a result into a per-graph [`PrrOutcome`], `store` compresses
//! it into a shard entry (the graph, or an empty entry when the sample
//! stores none) with the footprint and trace the [`FootprintMode`] keeps.

use kboost_diffusion::sim::BoostMask;
use kboost_graph::{coin_at_least, DiGraph, EdgeProbs, InEdgeSoa, NodeId, PackedInEdge};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

use crate::arena::PrrArenaShard;
use crate::compress::{compress_locals_into, CompressedParts, LEDGE_BOOST, LEDGE_MASK};
use crate::footprint::{read_varint, write_varint, FootprintMode};
use crate::graph::CompressedPrr;

/// 2-bit coin outcome: the edge was sampled live.
pub(crate) const TRACE_LIVE: u8 = 0;
/// 2-bit coin outcome: the edge was sampled live-upon-boost.
pub(crate) const TRACE_BOOST: u8 = 1;
/// 2-bit coin outcome: the edge was sampled blocked.
pub(crate) const TRACE_BLOCKED: u8 = 2;

/// Per-sample trace blob builder for [`FootprintMode::Trace`].
///
/// Layout: `varint(root)` followed by one self-delimiting record per node
/// whose in-list the search read, in read order — `varint(global id)`,
/// `varint(in-degree at capture)`, then `ceil(deg / 4)` bytes of 2-bit
/// edge outcomes in in-edge-list order ([`TRACE_LIVE`], [`TRACE_BOOST`],
/// [`TRACE_BLOCKED`]). Every record is complete: the search reads whole
/// in-lists.
#[derive(Default)]
struct TraceBuf {
    buf: Vec<u8>,
    node_off: usize,
}

impl TraceBuf {
    fn begin(&mut self, root: u32) {
        self.buf.clear();
        write_varint(&mut self.buf, root);
    }

    fn begin_node(&mut self, v: u32, deg: usize) {
        write_varint(&mut self.buf, v);
        write_varint(&mut self.buf, deg as u32);
        self.node_off = self.buf.len();
        self.buf.resize(self.node_off + deg.div_ceil(4), 0);
    }

    #[inline]
    fn record(&mut self, pos: usize, outcome: u8) {
        self.buf[self.node_off + pos / 4] |= outcome << ((pos % 4) * 2);
    }
}

/// Parsed read-only view of a trace blob: the retained root plus a
/// node → (captured in-degree, outcome-byte offset) index.
struct TraceView<'a> {
    root: u32,
    records: std::collections::HashMap<u32, (u32, usize)>,
    blob: &'a [u8],
}

impl<'a> TraceView<'a> {
    fn parse(blob: &'a [u8]) -> Self {
        let mut pos = 0usize;
        let root = read_varint(blob, &mut pos);
        let mut records = std::collections::HashMap::new();
        while pos < blob.len() {
            let v = read_varint(blob, &mut pos);
            let deg = read_varint(blob, &mut pos);
            records.insert(v, (deg, pos));
            pos += (deg as usize).div_ceil(4);
        }
        TraceView {
            root,
            records,
            blob,
        }
    }

    /// The 2-bit outcome recorded at in-edge position `pos` of the record
    /// whose outcome bytes start at `off`.
    #[inline]
    fn outcome(&self, off: usize, pos: usize) -> u8 {
        (self.blob[off + pos / 4] >> ((pos % 4) * 2)) & 0b11
    }
}

/// A conditional replay's inputs (see [`ReplayCoins`]): the old trace and
/// the mutation batch's redraw predicates.
struct Replay<'a> {
    old: TraceView<'a>,
    redraw_node: &'a dyn Fn(u32) -> bool,
    redraw_edge: &'a dyn Fn(u32, u32) -> bool,
}

impl Replay<'_> {
    /// The outcome-byte offset of `u`'s record, if its positions still
    /// line up with `u`'s current in-edge list: `u` is not redrawn
    /// wholesale, was read at capture, and kept its in-degree.
    fn record(&self, u: u32, deg: usize) -> Option<usize> {
        if (self.redraw_node)(u) {
            return None;
        }
        let &(captured, off) = self.old.records.get(&u)?;
        (captured as usize == deg).then_some(off)
    }
}

/// Result of generating one PRR-graph.
pub enum PrrOutcome {
    /// A live seed→root path exists: the root is activated regardless of
    /// boosting (`f_R ≡ 0`). Only counted.
    Activated,
    /// No seed→root path with at most `k` boost edges exists (`f_R ≡ 0`
    /// for all `|B| ≤ k`). Only counted.
    Hopeless,
    /// The root can be activated by boosting: the compressed graph.
    Boostable(CompressedPrr),
}

/// Phase-I output before compression in global ids, kept public for
/// tests and probes ([`PrrGenerator::phase1_raw`]).
pub struct RawPrr {
    /// The root node (global id).
    pub root: u32,
    /// Sampled non-blocked edges `(from, to, is_boost)` in global ids,
    /// grouped by head: all edges into one node are contiguous. Phase I
    /// expands each node at most once and emits its in-edges while doing
    /// so, and [`compress`](crate::compress::compress) relies on (and
    /// asserts) the grouping.
    pub edges: Vec<(u32, u32, bool)>,
    /// Nodes phase II starts `X` from. The search lists exactly the `X`
    /// nodes among the edges' tails (the super-seed edges' tails); a full
    /// BFS lists the seeds it reached, and compression closes them over
    /// live edges.
    pub seeds: Vec<u32>,
}

/// Phase-I outcome: on `Raw`, the edge and seed lists are left in the
/// thread-local [`GenScratch`] in sample-local ids.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase1 {
    Activated,
    Hopeless,
    Raw,
}

/// Generator of random PRR-graphs for a fixed `(G, S, k)`.
pub struct PrrGenerator<'g> {
    g: &'g DiGraph,
    /// Packed in-edge lane: present on kernel generators ([`new`]
    /// (Self::new)), absent on scalar oracles
    /// ([`new_scalar_oracle`](Self::new_scalar_oracle)).
    soa: Option<InEdgeSoa>,
    seed_mask: BoostMask,
    k: usize,
}

/// Where the search's coins come from: one outcome ([`TRACE_LIVE`],
/// [`TRACE_BOOST`] or [`TRACE_BLOCKED`]) per in-edge, drawn when the
/// search first reads the in-list holding it.
pub(crate) trait CoinSource {
    /// Draws the whole in-list of `u`, the CSR in-edge positions
    /// `lo..hi`, calling `f(i, tail, outcome)` for the `i`-th in-edge in
    /// list order.
    fn draw_in_list(&mut self, u: u32, lo: usize, hi: usize, f: impl FnMut(usize, u32, u8));
}

/// The scalar coin: one `rng.random::<f64>()` against the exact
/// probabilities.
#[inline]
pub(crate) fn scalar_coin(rng: &mut SmallRng, p: EdgeProbs) -> u8 {
    let x: f64 = rng.random();
    if x < p.base {
        TRACE_LIVE
    } else if x < p.boosted {
        TRACE_BOOST
    } else {
        TRACE_BLOCKED
    }
}

/// The kernel's coins: the packed lane, one `next_u64` per coin.
struct LaneCoins<'a> {
    lane: &'a [PackedInEdge],
    probs: &'a [EdgeProbs],
    rng: &'a mut SmallRng,
}

impl<'a> LaneCoins<'a> {
    fn new(soa: &'a InEdgeSoa, g: &'a DiGraph, rng: &'a mut SmallRng) -> Self {
        LaneCoins {
            lane: soa.lane(),
            probs: g.in_probs(),
            rng,
        }
    }
}

impl CoinSource for LaneCoins<'_> {
    #[inline]
    fn draw_in_list(&mut self, _u: u32, lo: usize, hi: usize, mut f: impl FnMut(usize, u32, u8)) {
        let (lane, probs) = (self.lane, self.probs);
        // A local copy keeps the RNG state in registers across `f`.
        let mut rng = self.rng.clone();
        for e in lo..hi {
            let bits = rng.next_u64();
            // The scalar split on x = unit_f64(bits): x ≥ boosted ⇒
            // blocked, x < base ⇒ live, otherwise boost. The packed
            // thresholds decide; the exact probabilities are read only on
            // a 16-bit tie.
            let r = lane[e];
            let outcome = if coin_at_least(bits, r.boosted_hi(), || probs[e].boosted) {
                TRACE_BLOCKED
            } else if coin_at_least(bits, r.base_hi(), || probs[e].base) {
                TRACE_BOOST
            } else {
                TRACE_LIVE
            };
            f(e - lo, r.head(), outcome);
        }
        *self.rng = rng;
    }
}

/// The scalar oracle's coins: [`scalar_coin`] per in-edge over the CSR.
struct ScalarCoins<'a> {
    sources: &'a [u32],
    probs: &'a [EdgeProbs],
    rng: &'a mut SmallRng,
}

impl<'a> ScalarCoins<'a> {
    fn new(g: &'a DiGraph, rng: &'a mut SmallRng) -> Self {
        ScalarCoins {
            sources: g.in_sources(),
            probs: g.in_probs(),
            rng,
        }
    }
}

impl CoinSource for ScalarCoins<'_> {
    fn draw_in_list(&mut self, _u: u32, lo: usize, hi: usize, mut f: impl FnMut(usize, u32, u8)) {
        for e in lo..hi {
            f(
                e - lo,
                self.sources[e],
                scalar_coin(self.rng, self.probs[e]),
            );
        }
    }
}

/// Conditional replay (Ohsaka-style) of an invalidated sample on the
/// *current* graph: reuses the recorded coin of every edge whose law is
/// unchanged and draws a fresh [`scalar_coin`] only where the mutation
/// batch touched:
///
/// * `redraw_node(u)` — `u`'s in-edge list changed structurally
///   (insert/remove head): every coin of `u`'s in-edges is redrawn,
///   positional correspondence with the record is void;
/// * `redraw_edge(v, u)` — the edge `(v, u)` had its probabilities
///   rewritten in place: only that coin is redrawn;
/// * a node with no record, or whose captured in-degree disagrees with
///   the current one, is redrawn wholesale.
///
/// By the principle of deferred decisions the replayed sample is an
/// exact draw from the new graph's PRR distribution, *jointly* with the
/// untouched survivors — the coupling that makes trace-retention refresh
/// distribution-fresh under partial churn where unconditioned redraw is
/// not. A replay that holds no retained coin draws exactly what a fresh
/// sample from the same RNG state would.
struct ReplayCoins<'a> {
    replay: &'a Replay<'a>,
    fresh: ScalarCoins<'a>,
}

impl CoinSource for ReplayCoins<'_> {
    fn draw_in_list(&mut self, u: u32, lo: usize, hi: usize, mut f: impl FnMut(usize, u32, u8)) {
        let record = self.replay.record(u, hi - lo);
        for e in lo..hi {
            let (i, v) = (e - lo, self.fresh.sources[e]);
            let outcome = match record {
                Some(off) if !(self.replay.redraw_edge)(v, u) => self.replay.old.outcome(off, i),
                _ => scalar_coin(self.fresh.rng, self.fresh.probs[e]),
            };
            f(i, v, outcome);
        }
    }
}

/// What a search records besides its result: the footprint (every node
/// whose in-list it reads, in read order) and the trace.
struct Capture<'a> {
    footprint: Option<&'a mut Vec<u32>>,
    trace: Option<&'a mut TraceBuf>,
}

/// Per-graph-node state: the epoch stamp (validity) and the sample-local
/// id assigned on first touch. One random cache access per touched node.
#[derive(Clone, Copy)]
struct NodeMeta {
    stamp: u32,
    lid: u32,
}

/// `X` status of a touched node: not settled yet.
const X_OPEN: u8 = 0;
/// `X` status: a seed reaches the node over live edges.
const X_IN: u8 = 1;
/// `X` status: proven outside `X` by an exhausted walk.
const X_OUT: u8 = 2;
/// [`Local::lo`] of a node whose in-list is not drawn yet.
const UNDRAWN: u32 = u32::MAX;
/// End of a live out-chain.
const NIL: u32 = u32::MAX;

/// Sample-local search state of a touched node, indexed by its local id.
#[derive(Clone, Copy)]
struct Local {
    /// 0-1 BFS distance to the root through nodes outside `X`;
    /// [`GenScratch::INF`] until relaxed.
    dist: u32,
    /// Id of the last walk that visited the node.
    walk: u32,
    /// The node's non-blocked in-edges `block[lo..hi]`; `lo` is
    /// [`UNDRAWN`] until its in-list is drawn.
    lo: u32,
    hi: u32,
    /// Latest entry of the node's live out-chain (the drawn live edges
    /// leaving it), or [`NIL`].
    live: u32,
    /// [`X_OPEN`], [`X_IN`] or [`X_OUT`].
    x: u8,
}

/// Per-thread scratch: stamped per-node state sized to the host graph,
/// plus the sample-local search state and the local-id node/edge/seed
/// output lists phase II reads.
struct GenScratch {
    meta: Vec<NodeMeta>,
    round: u32,
    local: Vec<Local>,
    /// Drawn in-edge blocks: a live edge's tail as its local id, a
    /// live-upon-boost edge's tail as its global id with [`LEDGE_BOOST`]
    /// set. Walks follow only live edges, so a boost tail is touched only
    /// if its head is expanded.
    block: Vec<u32>,
    /// Live out-chains: `(head, next entry or NIL)`.
    chain: Vec<(u32, u32)>,
    walks: u32,
    /// The current walk's visited nodes.
    walked: Vec<u32>,
    stack: Vec<u32>,
    deque: std::collections::VecDeque<(u32, u32)>,
    /// Output: local → global id table, first-touch ordered, `globals[0]`
    /// = the root.
    globals: Vec<u32>,
    /// Output: packed local edges (see [`LEDGE_BOOST`]), grouped by head.
    ledges: Vec<(u32, u32)>,
    /// Output: local ids of the `X` nodes the BFS popped.
    lseeds: Vec<u32>,
}

impl GenScratch {
    const INF: u32 = u32::MAX;

    fn new() -> Self {
        GenScratch {
            meta: Vec::new(),
            round: 0,
            local: Vec::new(),
            block: Vec::new(),
            chain: Vec::new(),
            walks: 0,
            walked: Vec::new(),
            stack: Vec::new(),
            deque: std::collections::VecDeque::new(),
            globals: Vec::new(),
            ledges: Vec::new(),
            lseeds: Vec::new(),
        }
    }

    fn begin(&mut self, n: usize) {
        if self.meta.len() < n {
            self.meta = vec![NodeMeta { stamp: 0, lid: 0 }; n];
            self.round = 0;
        }
        self.round += 1;
        if self.round == u32::MAX {
            for m in &mut self.meta {
                m.stamp = 0;
            }
            self.round = 1;
        }
        self.local.clear();
        self.block.clear();
        self.chain.clear();
        self.walks = 0;
        self.deque.clear();
        self.globals.clear();
        self.ledges.clear();
        self.lseeds.clear();
    }

    /// The local id of global node `v`, assigned on first touch (seeds
    /// start in `X`).
    #[inline]
    fn touch(&mut self, v: u32, seeds: &BoostMask) -> u32 {
        let m = &mut self.meta[v as usize];
        if m.stamp == self.round {
            return m.lid;
        }
        let lid = self.globals.len() as u32;
        *m = NodeMeta {
            stamp: self.round,
            lid,
        };
        self.globals.push(v);
        self.local.push(Local {
            dist: Self::INF,
            walk: 0,
            lo: UNDRAWN,
            hi: 0,
            live: NIL,
            x: if seeds.contains(NodeId(v)) {
                X_IN
            } else {
                X_OPEN
            },
        });
        lid
    }

    /// Marks everything `hit` (a node in `X`) reaches over drawn live
    /// edges as in `X`.
    fn propagate(&mut self, hit: u32) {
        self.stack.clear();
        self.stack.push(hit);
        while let Some(u) = self.stack.pop() {
            let mut c = self.local[u as usize].live;
            while c != NIL {
                let (h, next) = self.chain[c as usize];
                let lh = &mut self.local[h as usize];
                if lh.x != X_IN {
                    debug_assert_eq!(lh.x, X_OPEN, "a live edge from X into a proven non-X node");
                    lh.x = X_IN;
                    self.stack.push(h);
                }
                c = next;
            }
        }
    }

    /// The critical set `C_R` of the sample the search left here: heads
    /// of boost edges from `X` that live-reach the root, in edge-scan
    /// order. A head's in-edges are contiguous, so skipping repeats of the
    /// last head deduplicates.
    fn critical(&self) -> Vec<NodeId> {
        let mut critical = Vec::new();
        let mut last = NIL;
        for &(t, pv) in &self.ledges {
            let v = pv & LEDGE_MASK;
            if pv & LEDGE_BOOST != 0
                && v != last
                && self.local[v as usize].dist == 0
                && self.local[t as usize].x == X_IN
            {
                critical.push(NodeId(self.globals[v as usize]));
                last = v;
            }
        }
        critical
    }

    /// The output lists in global ids.
    fn raw_prr(&self) -> RawPrr {
        let g = |l: u32| self.globals[l as usize];
        RawPrr {
            root: g(0),
            edges: self
                .ledges
                .iter()
                .map(|&(t, pv)| (g(t), g(pv & LEDGE_MASK), pv & LEDGE_BOOST != 0))
                .collect(),
            seeds: self.lseeds.iter().map(|&l| g(l)).collect(),
        }
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<GenScratch> = std::cell::RefCell::new(GenScratch::new());
    /// Reusable footprint buffer — cleared per sample, copied into the
    /// shard column on retention.
    static FP_SCRATCH: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Reusable phase-II output for the shard path: compression writes
    /// into it in place, the shard copies out of it.
    static PARTS: std::cell::RefCell<CompressedParts> =
        std::cell::RefCell::new(CompressedParts::default());
    /// Reusable trace blob builder for [`FootprintMode::Trace`] capture
    /// and replay — cleared per sample, copied into the shard's trace
    /// sidecar on retention.
    static TRACE_SCRATCH: std::cell::RefCell<TraceBuf> =
        const {
            std::cell::RefCell::new(TraceBuf {
                buf: Vec::new(),
                node_off: 0,
            })
        };
}

impl<'g> PrrGenerator<'g> {
    /// Creates a kernel generator for seeds `S` and budget `k`: builds the
    /// packed in-edge lane (`O(m)`, once per generator — sources construct
    /// one generator per pool build / mutation epoch, which is what keeps
    /// the lane fresh across online epochs) and draws every fresh coin
    /// from it (`LaneCoins`).
    pub fn new(g: &'g DiGraph, seeds: &[NodeId], k: usize) -> Self {
        PrrGenerator {
            soa: Some(g.in_edge_soa()),
            ..Self::new_scalar_oracle(g, seeds, k)
        }
    }

    /// Creates a scalar-oracle generator: no packed lane, every fresh coin
    /// is one `rng.random::<f64>()` against the exact probabilities
    /// (`ScalarCoins`). Same search, same stream, same bytes as
    /// [`new`](Self::new); used by the legacy source, the replay paths
    /// and the kernel-equivalence test suites.
    pub fn new_scalar_oracle(g: &'g DiGraph, seeds: &[NodeId], k: usize) -> Self {
        // In-edge blocks tag boost tails' global ids with LEDGE_BOOST.
        assert!(
            g.num_nodes() <= LEDGE_MASK as usize,
            "node ids must stay below 2^31"
        );
        PrrGenerator {
            g,
            soa: None,
            seed_mask: BoostMask::from_nodes(g.num_nodes(), seeds),
            k,
        }
    }

    /// The boost budget `k` this generator prunes at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether this generator draws its coins from the packed lane (true
    /// for [`new`](Self::new), false for
    /// [`new_scalar_oracle`](Self::new_scalar_oracle)).
    pub fn is_kernel(&self) -> bool {
        self.soa.is_some()
    }

    /// Generates a PRR-graph for a uniformly random root — the per-graph
    /// entry point of the legacy pipeline and of tests.
    pub fn sample(&self, rng: &mut SmallRng) -> PrrOutcome {
        let root = NodeId(rng.random_range(0..self.g.num_nodes() as u32));
        self.sample_rooted(root, rng)
    }

    /// Generates a PRR-graph for the given root.
    pub fn sample_rooted(&self, root: NodeId, rng: &mut SmallRng) -> PrrOutcome {
        self.run(
            root,
            rng,
            self.k as u32,
            FootprintMode::Off,
            None,
            |ph, s, _, _| self.outcome(ph, s),
        )
    }

    /// Like [`sample`](Self::sample), additionally writing the sample's
    /// edge-space footprint (the sorted set of nodes whose in-lists the
    /// search read) into `footprint` — the legacy/oracle entry point of
    /// the exact-staleness pipeline. Draws the exact same randomness as
    /// [`sample`](Self::sample) and [`sample_into`](Self::sample_into), so
    /// footprint-retaining pools reproduce footprint-free streams
    /// bit-for-bit.
    pub fn sample_with_footprint(
        &self,
        rng: &mut SmallRng,
        footprint: &mut Vec<u32>,
    ) -> PrrOutcome {
        self.sample_with(rng, FootprintMode::Compressed, footprint, &mut Vec::new())
    }

    /// Like [`sample_with_footprint`](Self::sample_with_footprint),
    /// additionally writing the sample's trace blob (every read in-edge's
    /// outcome, [`TraceBuf`] layout) into `trace` — the legacy/oracle
    /// entry point of the trace-retention tier. Draws the exact same
    /// randomness as every other sampling entry point.
    pub fn sample_with_footprint_trace(
        &self,
        rng: &mut SmallRng,
        footprint: &mut Vec<u32>,
        trace: &mut Vec<u8>,
    ) -> PrrOutcome {
        self.sample_with(rng, FootprintMode::Trace, footprint, trace)
    }

    /// The per-graph sampler of the legacy oracle: a uniformly random
    /// root, writing what `mode` retains into the out-params — the
    /// footprint unless `Off`, the trace under `Trace` — and clearing the
    /// rest.
    pub(crate) fn sample_with(
        &self,
        rng: &mut SmallRng,
        mode: FootprintMode,
        footprint: &mut Vec<u32>,
        trace: &mut Vec<u8>,
    ) -> PrrOutcome {
        let root = NodeId(rng.random_range(0..self.g.num_nodes() as u32));
        self.run(root, rng, self.k as u32, mode, None, |ph, s, fp, tr| {
            footprint.clear();
            footprint.extend_from_slice(fp);
            trace.clear();
            trace.extend_from_slice(tr);
            self.outcome(ph, s)
        })
    }

    /// Conditionally replays one invalidated sample from its retained
    /// trace (legacy/oracle form): re-runs phase I on the current graph
    /// for the trace's root, reusing every recorded coin whose edge the
    /// mutation batch left untouched and drawing fresh coins only for
    /// `redraw_node` heads, `redraw_edge` hits and in-lists the trace does
    /// not hold — see `ReplayCoins` for why the result is
    /// distribution-fresh. Writes the replayed sample's new footprint and
    /// trace (against the current graph) into the out-params.
    pub fn replay_with_footprint_trace(
        &self,
        old_trace: &[u8],
        redraw_node: &dyn Fn(u32) -> bool,
        redraw_edge: &dyn Fn(u32, u32) -> bool,
        rng: &mut SmallRng,
        footprint: &mut Vec<u32>,
        trace: &mut Vec<u8>,
    ) -> PrrOutcome {
        let replay = Replay {
            old: TraceView::parse(old_trace),
            redraw_node,
            redraw_edge,
        };
        let root = NodeId(replay.old.root);
        self.run(
            root,
            rng,
            self.k as u32,
            FootprintMode::Trace,
            Some(&replay),
            |ph, s, fp, tr| {
                footprint.clear();
                footprint.extend_from_slice(fp);
                trace.clear();
                trace.extend_from_slice(tr);
                self.outcome(ph, s)
            },
        )
    }

    /// Conditionally replays one invalidated sample from its retained
    /// trace straight into a sampling `shard` — the maintainer's
    /// trace-retention refresh path. Stores the replayed graph (or its
    /// empty-sample footprint) together with the new footprint and trace,
    /// and returns the sketch cover exactly like
    /// [`sample_into_fp`](Self::sample_into_fp). `mode` must retain
    /// traces.
    pub fn replay_into_fp(
        &self,
        old_trace: &[u8],
        redraw_node: &dyn Fn(u32) -> bool,
        redraw_edge: &dyn Fn(u32, u32) -> bool,
        rng: &mut SmallRng,
        shard: &mut PrrArenaShard,
        mode: FootprintMode,
    ) -> Vec<NodeId> {
        assert!(
            mode.retains_trace(),
            "replay requires a trace-retaining mode"
        );
        let replay = Replay {
            old: TraceView::parse(old_trace),
            redraw_node,
            redraw_edge,
        };
        let root = NodeId(replay.old.root);
        self.run(
            root,
            rng,
            self.k as u32,
            mode,
            Some(&replay),
            |ph, s, fp, tr| self.store(ph, s, shard, fp, tr, mode),
        )
    }

    /// Samples one PRR-graph for a uniformly random root straight into a
    /// sampling `shard` — the streaming pipeline's hot path: Phase-II
    /// output is appended to the shard's flat arrays without ever
    /// materializing a per-graph [`CompressedPrr`].
    ///
    /// Returns the sketch cover (the stored graph's critical set). An
    /// empty return means no cover was contributed: the sample was
    /// activated, hopeless, or boostable with an empty critical set.
    /// Cover-less boostable graphs ARE stored — they carry no criticality
    /// signal for `k = 1` sketch covers, but `Δ̂` for a `k ≥ 2` boost set
    /// must still count them when the set activates their root, so
    /// dropping them (as the pre-PR-10 pipeline did) underestimated.
    pub fn sample_into(&self, rng: &mut SmallRng, shard: &mut PrrArenaShard) -> Vec<NodeId> {
        self.sample_into_fp(rng, shard, FootprintMode::Off)
    }

    /// [`sample_into`](Self::sample_into) with footprint retention: when
    /// `mode` is on, the sample's footprint is appended to the shard —
    /// alongside the stored graph for boostable samples (cover-less ones
    /// included), or into the empty-sample column for activated /
    /// hopeless ones (those must be refreshable too, or the estimator's
    /// denominator would silently go stale). Trace-retaining modes
    /// additionally store the sample's read in-edge outcomes for
    /// conditional replay. Randomness consumption is identical to the
    /// footprint-free path.
    pub fn sample_into_fp(
        &self,
        rng: &mut SmallRng,
        shard: &mut PrrArenaShard,
        mode: FootprintMode,
    ) -> Vec<NodeId> {
        let root = NodeId(rng.random_range(0..self.g.num_nodes() as u32));
        self.run(root, rng, self.k as u32, mode, None, |ph, s, fp, tr| {
            self.store(ph, s, shard, fp, tr, mode)
        })
    }

    /// Phase II for the per-graph entry points: one phase-I result as a
    /// [`PrrOutcome`] (a raw graph that compression finds non-boostable
    /// is hopeless).
    fn outcome(&self, ph: Phase1, s: &GenScratch) -> PrrOutcome {
        match ph {
            Phase1::Activated => PrrOutcome::Activated,
            Phase1::Hopeless => PrrOutcome::Hopeless,
            Phase1::Raw => {
                let mut parts = CompressedParts::default();
                if compress_locals_into(&s.globals, &s.ledges, &s.lseeds, self.k, &mut parts) {
                    PrrOutcome::Boostable(CompressedPrr::from_parts(parts))
                } else {
                    PrrOutcome::Hopeless
                }
            }
        }
    }

    /// Phase II for the shard entry points: compresses a raw result into
    /// the reusable [`CompressedParts`] and stores the sample in `shard` —
    /// the graph when boostable, an empty entry otherwise — with the
    /// footprint and trace `mode` retains (empty slices when it retains
    /// none). Returns the sketch cover.
    fn store(
        &self,
        ph: Phase1,
        s: &GenScratch,
        shard: &mut PrrArenaShard,
        footprint: &[u32],
        trace: &[u8],
        mode: FootprintMode,
    ) -> Vec<NodeId> {
        PARTS.with_borrow_mut(|parts| {
            let boostable = ph == Phase1::Raw
                && compress_locals_into(&s.globals, &s.ledges, &s.lseeds, self.k, parts);
            if !boostable {
                shard.push_empty(footprint, trace, mode);
                return Vec::new();
            }
            shard.push_parts(parts, footprint, trace, mode);
            // The shard copied the critical set; the reused parts can
            // donate the Vec as the cover.
            std::mem::take(&mut parts.critical)
        })
    }

    /// Fast path for PRR-Boost-LB: produces only the critical-node set
    /// `C_R` (empty for activated / hopeless / criticality-free graphs).
    ///
    /// Exploration is pruned at distance 1 — "there is no need to explore
    /// incoming edges of a node v if `d_r[v] > 1`" (Section V-C) — which is
    /// sound because a critical node needs a live tail to the root and a
    /// single boost edge fed by a live head from a seed. The set is read
    /// off the search's own state (`X` status and distances), no phase II
    /// runs.
    pub fn sample_critical_only(&self, rng: &mut SmallRng) -> Vec<NodeId> {
        let root = NodeId(rng.random_range(0..self.g.num_nodes() as u32));
        self.run(root, rng, 1, FootprintMode::Off, None, |ph, s, _, _| {
            if ph == Phase1::Raw {
                s.critical()
            } else {
                Vec::new()
            }
        })
    }

    /// Phase-I raw generation for `root` at the generator's budget, in
    /// global ids (`None` when activated or hopeless), exposed for tests
    /// and probes. Draws exactly what a sample rooted at `root` draws.
    pub fn phase1_raw(&self, root: NodeId, rng: &mut SmallRng) -> Option<RawPrr> {
        self.run(
            root,
            rng,
            self.k as u32,
            FootprintMode::Off,
            None,
            |ph, s, _, _| (ph == Phase1::Raw).then(|| s.raw_prr()),
        )
    }

    /// Runs the search for `root`, pruned at `prune_at` boosts, on the
    /// generator's coins — or on `replay`'s when given — and hands the
    /// result to `finish` (see [`run_with`](Self::run_with)).
    fn run<R>(
        &self,
        root: NodeId,
        rng: &mut SmallRng,
        prune_at: u32,
        mode: FootprintMode,
        replay: Option<&Replay<'_>>,
        finish: impl FnOnce(Phase1, &GenScratch, &[u32], &[u8]) -> R,
    ) -> R {
        match (replay, &self.soa) {
            (Some(replay), _) => {
                let mut coins = ReplayCoins {
                    replay,
                    fresh: ScalarCoins::new(self.g, rng),
                };
                self.run_with(root, prune_at, mode, &mut coins, finish)
            }
            (None, Some(soa)) => self.run_with(
                root,
                prune_at,
                mode,
                &mut LaneCoins::new(soa, self.g, rng),
                finish,
            ),
            (None, None) => self.run_with(
                root,
                prune_at,
                mode,
                &mut ScalarCoins::new(self.g, rng),
                finish,
            ),
        }
    }

    /// Runs the search on `coins`, capturing what `mode` retains — the
    /// footprint (sorted) unless `Off`, the trace under `Trace` — and
    /// hands the result, the scratch holding its lists, and the captured
    /// slices (empty where nothing is retained) to `finish`.
    fn run_with<C: CoinSource, R>(
        &self,
        root: NodeId,
        prune_at: u32,
        mode: FootprintMode,
        coins: &mut C,
        finish: impl FnOnce(Phase1, &GenScratch, &[u32], &[u8]) -> R,
    ) -> R {
        SCRATCH.with_borrow_mut(|s| {
            FP_SCRATCH.with_borrow_mut(|fp| {
                TRACE_SCRATCH.with_borrow_mut(|tb| {
                    fp.clear();
                    let mut cap = Capture {
                        footprint: mode.is_on().then_some(&mut *fp),
                        trace: mode.retains_trace().then_some(&mut *tb),
                    };
                    let ph = self.search(root.0, prune_at, coins, s, &mut cap);
                    fp.sort_unstable();
                    let trace: &[u8] = if mode.retains_trace() { &tb.buf } else { &[] };
                    finish(ph, s, fp, trace)
                })
            })
        })
    }

    /// The X-pruned phase I (see the module docs): settles the root, then
    /// a backward 0-1 BFS that expands only popped nodes proven outside
    /// `X` and below `prune_at`, leaving the raw graph in `s`.
    fn search<C: CoinSource>(
        &self,
        root: u32,
        prune_at: u32,
        coins: &mut C,
        s: &mut GenScratch,
        cap: &mut Capture<'_>,
    ) -> Phase1 {
        if let Some(tb) = cap.trace.as_deref_mut() {
            tb.begin(root);
        }
        if self.seed_mask.contains(NodeId(root)) {
            return Phase1::Activated;
        }
        s.begin(self.g.num_nodes());
        s.touch(root, &self.seed_mask);
        if self.settle(0, coins, s, cap) {
            return Phase1::Activated;
        }
        s.local[0].dist = 0;
        s.deque.push_back((0, 0));
        while let Some((u, du)) = s.deque.pop_front() {
            if du > s.local[u as usize].dist {
                continue; // stale entry: u was settled at a smaller distance
            }
            let in_x = match s.local[u as usize].x {
                X_IN => true,
                X_OUT => false,
                _ => self.settle(u, coins, s, cap),
            };
            if in_x {
                s.lseeds.push(u);
                continue;
            }
            if du == prune_at {
                continue; // budget boundary: compression keeps nothing here
            }
            let Local { lo, hi, .. } = s.local[u as usize];
            for i in lo as usize..hi as usize {
                let p = s.block[i];
                let (t, boost) = if p & LEDGE_BOOST == 0 {
                    (p, 0)
                } else {
                    (s.touch(p & LEDGE_MASK, &self.seed_mask), LEDGE_BOOST)
                };
                s.ledges.push((t, u | boost));
                let dt = du + (boost != 0) as u32;
                let lt = &mut s.local[t as usize];
                if dt < lt.dist {
                    lt.dist = dt;
                    if boost == 0 {
                        s.deque.push_front((t, dt));
                    } else {
                        s.deque.push_back((t, dt));
                    }
                }
            }
        }
        if s.lseeds.is_empty() {
            Phase1::Hopeless
        } else {
            Phase1::Raw
        }
    }

    /// Settles whether local node `u` (status open, not a seed) is in `X`
    /// by a backward walk over live in-edges, drawing the in-list of every
    /// node it visits for the first time. A live tail in `X` ends the walk
    /// (its hit propagates forward, reaching `u`); a walk that runs out
    /// proves every node it visited to be outside `X`.
    fn settle<C: CoinSource>(
        &self,
        u: u32,
        coins: &mut C,
        s: &mut GenScratch,
        cap: &mut Capture<'_>,
    ) -> bool {
        s.walks += 1;
        let walk = s.walks;
        s.walked.clear();
        s.stack.clear();
        s.local[u as usize].walk = walk;
        s.walked.push(u);
        s.stack.push(u);
        while let Some(w) = s.stack.pop() {
            if s.local[w as usize].lo == UNDRAWN {
                self.draw(w, coins, s, cap);
            }
            let Local { lo, hi, .. } = s.local[w as usize];
            for i in lo as usize..hi as usize {
                let t = s.block[i];
                if t & LEDGE_BOOST != 0 {
                    continue;
                }
                let lt = &mut s.local[t as usize];
                match lt.x {
                    X_IN => {
                        s.propagate(t);
                        return true;
                    }
                    X_OPEN if lt.walk != walk => {
                        lt.walk = walk;
                        s.walked.push(t);
                        s.stack.push(t);
                    }
                    _ => {}
                }
            }
        }
        for &v in &s.walked {
            s.local[v as usize].x = X_OUT;
        }
        false
    }

    /// Draws the whole in-list of local node `w`: captures it, keeps its
    /// non-blocked in-edges as `w`'s block, and chains each live one onto
    /// its tail's live out-chain.
    fn draw<C: CoinSource>(
        &self,
        w: u32,
        coins: &mut C,
        s: &mut GenScratch,
        cap: &mut Capture<'_>,
    ) {
        let u = s.globals[w as usize];
        let offsets = self.g.in_offsets();
        let (lo, hi) = (
            offsets[u as usize] as usize,
            offsets[u as usize + 1] as usize,
        );
        if let Some(fp) = cap.footprint.as_deref_mut() {
            fp.push(u);
        }
        if let Some(tb) = cap.trace.as_deref_mut() {
            tb.begin_node(u, hi - lo);
        }
        let start = s.block.len() as u32;
        let (trace, seeds) = (&mut cap.trace, &self.seed_mask);
        coins.draw_in_list(u, lo, hi, |i, t, outcome| {
            if let Some(tb) = trace.as_deref_mut() {
                tb.record(i, outcome);
            }
            match outcome {
                TRACE_LIVE => {
                    let tl = s.touch(t, seeds);
                    let next = s.local[tl as usize].live;
                    s.chain.push((w, next));
                    s.local[tl as usize].live = s.chain.len() as u32 - 1;
                    s.block.push(tl);
                }
                TRACE_BOOST => s.block.push(t | LEDGE_BOOST),
                _ => {}
            }
        });
        let lw = &mut s.local[w as usize];
        lw.lo = start;
        lw.hi = s.block.len() as u32;
    }
}

/// Evaluates `f_R(B)` directly on a phase-I raw graph (reference
/// implementation used by tests to validate compression).
pub fn raw_f(raw: &RawPrr, boost: &BoostMask) -> bool {
    use std::collections::{HashMap, HashSet};
    let mut out: HashMap<u32, Vec<(u32, bool)>> = HashMap::new();
    for &(u, v, b) in &raw.edges {
        out.entry(u).or_default().push((v, b));
    }
    // No boosting: is the root already activated?
    let reach = |use_boost: bool| -> bool {
        let mut seen: HashSet<u32> = raw.seeds.iter().copied().collect();
        let mut stack: Vec<u32> = raw.seeds.clone();
        while let Some(u) = stack.pop() {
            if u == raw.root {
                return true;
            }
            if let Some(outs) = out.get(&u) {
                for &(v, b) in outs {
                    let ok = !b || (use_boost && boost.contains(NodeId(v)));
                    if ok && seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
        }
        seen.contains(&raw.root)
    };
    !reach(false) && reach(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_parts;
    use crate::graph::PrrEvalScratch;
    use crate::reference;
    use kboost_graph::generators::{erdos_renyi, preferential_attachment};
    use kboost_graph::probability::ProbabilityModel;
    use kboost_graph::GraphBuilder;
    use rand::SeedableRng;

    /// Phase I alone for `root`, pruned at `prune_at`, on the generator's
    /// coins: the outcome class and, when raw, the raw graph.
    fn phase1(
        gen: &PrrGenerator,
        root: NodeId,
        rng: &mut SmallRng,
        prune_at: u32,
    ) -> (Phase1, Option<RawPrr>) {
        gen.run(
            root,
            rng,
            prune_at,
            FootprintMode::Off,
            None,
            |ph, s, _, _| (ph, (ph == Phase1::Raw).then(|| s.raw_prr())),
        )
    }

    fn figure1() -> DiGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn root_at_seed_is_activated() {
        let g = figure1();
        let gen = PrrGenerator::new(&g, &[NodeId(0)], 2);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            gen.sample_rooted(NodeId(0), &mut rng),
            PrrOutcome::Activated
        ));
    }

    #[test]
    fn outcome_frequencies_match_exact_probabilities() {
        // Root = v1 (node 2). P[activated] = P[both edges live] = 0.02.
        // P[boostable] = P[root activatable with ≤2 boosts] − P[activated].
        let g = figure1();
        let gen = PrrGenerator::new(&g, &[NodeId(0)], 2);
        let mut rng = SmallRng::seed_from_u64(5);
        let trials = 200_000;
        let (mut act, mut boostable) = (0u32, 0u32);
        for _ in 0..trials {
            match gen.sample_rooted(NodeId(2), &mut rng) {
                PrrOutcome::Activated => act += 1,
                PrrOutcome::Boostable(_) => boostable += 1,
                PrrOutcome::Hopeless => {}
            }
        }
        let p_act = act as f64 / trials as f64;
        assert!((p_act - 0.02).abs() < 0.005, "P[activated] ≈ {p_act}");
        // Boostable: both edges non-blocked, not both live:
        // 0.4·0.2 − 0.02 = 0.06.
        let p_boost = boostable as f64 / trials as f64;
        assert!((p_boost - 0.06).abs() < 0.005, "P[boostable] ≈ {p_boost}");
    }

    #[test]
    fn pruning_respects_k() {
        // With k = 1, a root needing 2 boosts must be hopeless.
        let mut b = GraphBuilder::new(3);
        // Both edges are boost-only (p = 0, p' = 1).
        b.add_edge(NodeId(0), NodeId(1), 0.0, 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.0, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let gen1 = PrrGenerator::new(&g, &[NodeId(0)], 1);
        assert!(matches!(
            gen1.sample_rooted(NodeId(2), &mut rng),
            PrrOutcome::Hopeless
        ));
        let gen2 = PrrGenerator::new(&g, &[NodeId(0)], 2);
        assert!(matches!(
            gen2.sample_rooted(NodeId(2), &mut rng),
            PrrOutcome::Boostable(_)
        ));
    }

    #[test]
    fn pruned_edges_not_retained() {
        // Satellite audit pin: the `dvr > prune_at` check precedes the
        // `edges.push`, so pruned edges never reach phase II. Graph:
        // 0→1, 0→2, 1→2 all boost-only; seeds {0}, k = 1, root 2. The
        // backward BFS reaches node 1 at distance 1; its in-edge 0→1
        // would land at dvr = 2 > 1 and must be dropped — in both the
        // scalar oracle and the kernel.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.0, 1.0).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.0, 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.0, 1.0).unwrap();
        let g = b.build().unwrap();
        let gen = PrrGenerator::new(&g, &[NodeId(0)], 1);

        let mut rng = SmallRng::seed_from_u64(17);
        let raw = gen.phase1_raw(NodeId(2), &mut rng).expect("boostable");
        assert_eq!(raw.edges.len(), 2, "pruned edge retained: {:?}", raw.edges);
        assert!(raw.edges.contains(&(0, 2, true)));
        assert!(raw.edges.contains(&(1, 2, true)));
        assert!(!raw.edges.contains(&(0, 1, true)));

        let scalar = PrrGenerator::new_scalar_oracle(&g, &[NodeId(0)], 1);
        let mut rng = SmallRng::seed_from_u64(17);
        let oracle = scalar.phase1_raw(NodeId(2), &mut rng).expect("boostable");
        assert_eq!(oracle.edges, raw.edges);
        assert_eq!(oracle.seeds, raw.seeds);
    }

    fn er_graph(n: usize, m: usize, seed: u64) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        erdos_renyi(n, m, ProbabilityModel::Constant(0.35), 2.0, &mut rng)
    }

    #[test]
    fn kernel_phase1_matches_scalar_oracle() {
        // Same seed, same root → identical edges, seeds, and (critically)
        // identical RNG state afterwards, the kernel's end-of-sample
        // resync included.
        for gseed in 0..8u64 {
            let g = er_graph(24, 90, gseed);
            let kernel = PrrGenerator::new(&g, &[NodeId(0), NodeId(1)], 2);
            let scalar = PrrGenerator::new_scalar_oracle(&g, &[NodeId(0), NodeId(1)], 2);
            for sseed in 0..40u64 {
                for root in [2u32, 7, 23] {
                    let mut rng_s = SmallRng::seed_from_u64(sseed * 1000 + root as u64);
                    let mut rng_k = rng_s.clone();
                    let (ph_s, raw_s) = phase1(&scalar, NodeId(root), &mut rng_s, 2);
                    let (ph_k, raw_k) = phase1(&kernel, NodeId(root), &mut rng_k, 2);
                    assert_eq!(
                        ph_s, ph_k,
                        "outcome diverged (gseed {gseed}, sseed {sseed})"
                    );
                    if let (Some(s), Some(k)) = (raw_s, raw_k) {
                        assert_eq!(s.edges, k.edges);
                        assert_eq!(s.seeds, k.seeds);
                    }
                    // Streams must stay in lockstep after the sample.
                    assert_eq!(
                        rng_s.next_u64(),
                        rng_k.next_u64(),
                        "rng state diverged (gseed {gseed}, sseed {sseed}, root {root})"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_shard_byte_equal_to_scalar_shard() {
        use crate::arena::{PrrArena, PrrArenaShard};
        for gseed in 0..4u64 {
            let g = er_graph(20, 70, gseed + 50);
            let kernel = PrrGenerator::new(&g, &[NodeId(0)], 2);
            let scalar = PrrGenerator::new_scalar_oracle(&g, &[NodeId(0)], 2);
            assert!(kernel.is_kernel() && !scalar.is_kernel());
            for mode in [
                FootprintMode::Off,
                FootprintMode::Compressed,
                FootprintMode::Hybrid { bloom_above: 4 },
            ] {
                let mut rng_k = SmallRng::seed_from_u64(gseed * 7 + 3);
                let mut rng_s = rng_k.clone();
                let mut shard_k = PrrArenaShard::new();
                let mut shard_s = PrrArenaShard::new();
                for _ in 0..300 {
                    let ck = kernel.sample_into_fp(&mut rng_k, &mut shard_k, mode);
                    let cs = scalar.sample_into_fp(&mut rng_s, &mut shard_s, mode);
                    assert_eq!(ck, cs, "covers diverged");
                }
                assert_eq!(rng_k.next_u64(), rng_s.next_u64(), "stream diverged");
                assert_eq!(
                    PrrArena::from_shard(shard_k),
                    PrrArena::from_shard(shard_s),
                    "arenas diverged (gseed {gseed}, mode {mode:?})"
                );
            }
        }
    }

    #[test]
    fn trace_capture_leaves_stream_and_payload_unchanged() {
        // Trace mode must draw the identical stream and store the same
        // graphs/footprints as Compressed mode; only the sidecar differs.
        use crate::arena::{PrrArena, PrrArenaShard};
        for gseed in 0..4u64 {
            let g = er_graph(20, 70, gseed + 200);
            let gen = PrrGenerator::new_scalar_oracle(&g, &[NodeId(0)], 2);
            let mut rng_t = SmallRng::seed_from_u64(gseed * 11 + 5);
            let mut rng_s = rng_t.clone();
            let mut shard_t = PrrArenaShard::new();
            let mut shard_s = PrrArenaShard::new();
            for _ in 0..200 {
                let ct = gen.sample_into_fp(&mut rng_t, &mut shard_t, FootprintMode::Trace);
                let cs = gen.sample_into_fp(&mut rng_s, &mut shard_s, FootprintMode::Compressed);
                assert_eq!(ct, cs, "covers diverged");
            }
            assert_eq!(rng_t.next_u64(), rng_s.next_u64(), "stream diverged");
            let at = PrrArena::from_shard(shard_t);
            let arena_s = PrrArena::from_shard(shard_s);
            assert_eq!(at.len(), arena_s.len());
            // Same decoded footprints, graph for graph.
            for i in 0..at.len() {
                let mut ft = Vec::new();
                at.footprints().for_each_node(i, |v| ft.push(v));
                let mut fs = Vec::new();
                arena_s.footprints().for_each_node(i, |v| fs.push(v));
                assert_eq!(fs, ft);
                assert!(!at.footprints().trace(i).is_empty(), "missing trace");
            }
        }
    }

    #[test]
    fn replay_without_mutation_reproduces_the_sample() {
        // With no mutated edges every coin is reused: the replay must
        // reproduce the original graph, footprint, and trace exactly,
        // consuming no randomness (every record holds a whole in-list;
        // activated samples have no stored graph to compare anyway).
        for gseed in 0..6u64 {
            let g = er_graph(24, 90, gseed + 300);
            let gen = PrrGenerator::new_scalar_oracle(&g, &[NodeId(0)], 2);
            let mut rng = SmallRng::seed_from_u64(gseed * 13 + 1);
            let (mut fp0, mut tr0) = (Vec::new(), Vec::new());
            let (mut fp1, mut tr1) = (Vec::new(), Vec::new());
            for _ in 0..80 {
                let out = gen.sample_with_footprint_trace(&mut rng, &mut fp0, &mut tr0);
                let mut replay_rng = SmallRng::seed_from_u64(999);
                let before = replay_rng.clone().next_u64();
                let rep = gen.replay_with_footprint_trace(
                    &tr0,
                    &|_| false,
                    &|_, _| false,
                    &mut replay_rng,
                    &mut fp1,
                    &mut tr1,
                );
                match (&out, &rep) {
                    (PrrOutcome::Boostable(a), PrrOutcome::Boostable(b)) => {
                        assert_eq!(a, b, "replayed graph diverged");
                        assert_eq!(fp0, fp1);
                        assert_eq!(tr0, tr1);
                        // Full-reuse replay consumes no randomness.
                        assert_eq!(replay_rng.next_u64(), before);
                    }
                    (PrrOutcome::Hopeless, PrrOutcome::Hopeless) => {
                        assert_eq!(fp0, fp1);
                        assert_eq!(tr0, tr1);
                    }
                    (PrrOutcome::Activated, PrrOutcome::Activated) => {}
                    _ => panic!("outcome diverged under no-mutation replay"),
                }
            }
        }
    }

    #[test]
    fn replay_redraws_only_mutated_coins() {
        // Conditional replay on the same graph with a redraw predicate:
        // outcomes of untouched edges must be preserved bit-for-bit in
        // the new trace; redrawn positions follow the replay RNG.
        let g = er_graph(24, 90, 7);
        let gen = PrrGenerator::new_scalar_oracle(&g, &[NodeId(0)], 2);
        let mut rng = SmallRng::seed_from_u64(21);
        let (mut fp0, mut tr0) = (Vec::new(), Vec::new());
        let (mut fp1, mut tr1) = (Vec::new(), Vec::new());
        let (mut checked, mut reused, mut differ) = (0u32, 0u32, 0u32);
        for _ in 0..60 {
            let out = gen.sample_with_footprint_trace(&mut rng, &mut fp0, &mut tr0);
            if !matches!(out, PrrOutcome::Boostable(_)) {
                continue;
            }
            // "Mutate" the in-edges of one footprint node: same probs, so
            // the replayed sample stays a valid draw, but its coins are
            // forced fresh while all the others must be reused.
            let target = fp0[fp0.len() / 2];
            let mut replay_rng = SmallRng::seed_from_u64(4242);
            gen.replay_with_footprint_trace(
                &tr0,
                &|u| u == target,
                &|_, _| false,
                &mut replay_rng,
                &mut fp1,
                &mut tr1,
            );
            // Every coin both runs drew at a node other than the target
            // is the recorded one.
            let (old, new) = (TraceView::parse(&tr0), TraceView::parse(&tr1));
            for (&u, &(deg, off)) in &new.records {
                let Some(&(old_deg, old_off)) = old.records.get(&u) else {
                    continue;
                };
                if u == target {
                    continue;
                }
                assert_eq!(
                    deg, old_deg,
                    "in-degree of {u} changed on an unchanged graph"
                );
                for i in 0..deg as usize {
                    let (was, now) = (old.outcome(old_off, i), new.outcome(off, i));
                    assert_eq!(was, now, "coin {i} of node {u} redrawn without a mutation");
                    reused += 1;
                }
            }
            differ += (tr1 != tr0) as u32;
            checked += 1;
        }
        assert!(checked > 10, "too few boostable samples to exercise replay");
        assert!(reused > 0, "no reused coin compared");
        assert!(differ > 0, "no replay differs from its original");
    }

    /// FNV-1a over little-endian `u32` words (independent of the standard
    /// library's hasher).
    struct Fnv(u64);

    impl Fnv {
        fn words(&mut self, words: impl IntoIterator<Item = u32>) {
            for w in words {
                for b in w.to_le_bytes() {
                    self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }

        fn list(&mut self, words: &[u32]) {
            self.words([words.len() as u32]);
            self.words(words.iter().copied());
        }

        fn bytes(&mut self, bytes: &[u8]) {
            self.words([bytes.len() as u32]);
            self.words(bytes.iter().map(|&b| b as u32));
        }

        fn outcome(&mut self, out: &PrrOutcome) {
            let c = match out {
                PrrOutcome::Activated => return self.words([0]),
                PrrOutcome::Hopeless => return self.words([1]),
                PrrOutcome::Boostable(c) => c,
            };
            self.words([2, c.root, c.uncompressed_edges]);
            for part in [&c.globals, &c.fwd_offsets, &c.fwd, &c.bwd_offsets, &c.bwd] {
                self.list(part);
            }
            self.list(&c.critical.iter().map(|v| v.0).collect::<Vec<_>>());
        }
    }

    /// Pins conditional replay bit for bit: which coins a replay reuses,
    /// which it redraws and in what order. A fixed trace-mode pool (ER
    /// graphs, stored and empty samples) is folded in, then every sample
    /// is replayed on the unchanged graph under a node-level and an
    /// edge-level redraw set, one seed per ordinal, through both the
    /// per-graph route and the shard route; the digest covers every
    /// outcome, footprint, trace, cover, RNG position and shard entry.
    #[test]
    fn replay_digest_is_pinned() {
        use crate::arena::{PrrArena, PrrArenaShard};
        let mut d = Fnv(0xcbf2_9ce4_8422_2325);
        for gseed in 0..4u64 {
            let g = er_graph(30, 120, gseed + 500);
            let gen = PrrGenerator::new_scalar_oracle(&g, &[NodeId(0), NodeId(1)], 2);
            let mut rng = SmallRng::seed_from_u64(gseed * 17 + 2);
            let mut pool = Vec::new();
            for _ in 0..60 {
                let (mut fp, mut tr) = (Vec::new(), Vec::new());
                d.outcome(&gen.sample_with_footprint_trace(&mut rng, &mut fp, &mut tr));
                d.list(&fp);
                d.bytes(&tr);
                pool.push(tr);
            }
            // Pass 0 redraws whole nodes, pass 1 single edges.
            for pass in 0..2u64 {
                let redraw_node = |u: u32| pass == 0 && u % 5 == 2;
                let redraw_edge = |v: u32, u: u32| pass == 1 && (v * 31 + u).is_multiple_of(7);
                let mut shard = PrrArenaShard::new();
                for (ordinal, old) in pool.iter().enumerate() {
                    let seed = (gseed << 32) ^ (pass << 16) ^ ordinal as u64;
                    let mut rng_graph = SmallRng::seed_from_u64(seed);
                    let mut rng_shard = rng_graph.clone();
                    let (mut fp, mut tr) = (Vec::new(), Vec::new());
                    d.outcome(&gen.replay_with_footprint_trace(
                        old,
                        &redraw_node,
                        &redraw_edge,
                        &mut rng_graph,
                        &mut fp,
                        &mut tr,
                    ));
                    d.list(&fp);
                    d.bytes(&tr);
                    let cover = gen.replay_into_fp(
                        old,
                        &redraw_node,
                        &redraw_edge,
                        &mut rng_shard,
                        &mut shard,
                        FootprintMode::Trace,
                    );
                    d.list(&cover.iter().map(|v| v.0).collect::<Vec<_>>());
                    let next = rng_graph.next_u64();
                    assert_eq!(next, rng_shard.next_u64(), "replay routes drew differently");
                    d.words([next as u32, (next >> 32) as u32]);
                }
                let arena = PrrArena::from_shard(shard);
                d.words(
                    [
                        arena.len(),
                        arena.num_empty_footprints(),
                        arena.total_nodes(),
                        arena.total_edges(),
                        arena.total_critical(),
                        arena.memory_bytes(),
                    ]
                    .map(|x| x as u32),
                );
                for (i, view) in arena.iter().enumerate() {
                    let n = view.num_nodes() as u32;
                    d.words([view.root_local(), view.uncompressed_edges(), n]);
                    d.words((0..n).map(|l| view.global_of(l).map_or(u32::MAX, |v| v.0)));
                    d.words(view.critical().iter().map(|v| v.0));
                    view.for_each_boost_head(|v| d.words([v.0]));
                    arena.footprints().for_each_node(i, |v| d.words([v]));
                    d.bytes(arena.footprints().trace(i));
                }
                for i in 0..arena.num_empty_footprints() {
                    arena.empty_footprints().for_each_node(i, |v| d.words([v]));
                    d.bytes(arena.empty_footprints().trace(i));
                }
            }
        }
        assert_eq!(d.0, 0xfe05_f473_88bf_15d6);
    }

    #[test]
    fn coverless_boostable_graphs_are_stored() {
        // Satellite pin (PR 10): a boostable graph whose critical set is
        // empty is retained in the shard with an empty cover — dropping
        // it broke Δ̂ for k ≥ 2 boost sets that activate its root.
        use crate::arena::{PrrArena, PrrArenaShard};
        let mut stored_coverless = 0usize;
        for gseed in 0..8u64 {
            let g = er_graph(20, 70, gseed + 400);
            let gen = PrrGenerator::new(&g, &[NodeId(0)], 2);
            let mut rng = SmallRng::seed_from_u64(gseed);
            let mut shard = PrrArenaShard::new();
            let mut covers = 0usize;
            for _ in 0..300 {
                if !gen.sample_into(&mut rng, &mut shard).is_empty() {
                    covers += 1;
                }
            }
            let arena = PrrArena::from_shard(shard);
            assert!(arena.len() >= covers);
            stored_coverless += arena.len() - covers;
        }
        assert!(
            stored_coverless > 0,
            "no cover-less boostable graph sampled; weaken the pin's graphs"
        );
    }

    #[test]
    fn critical_only_kernel_matches_scalar() {
        for gseed in 0..6u64 {
            let g = er_graph(18, 60, gseed + 100);
            let kernel = PrrGenerator::new(&g, &[NodeId(0), NodeId(3)], 1);
            let scalar = PrrGenerator::new_scalar_oracle(&g, &[NodeId(0), NodeId(3)], 1);
            let mut rng_k = SmallRng::seed_from_u64(gseed + 9);
            let mut rng_s = rng_k.clone();
            for _ in 0..200 {
                assert_eq!(
                    kernel.sample_critical_only(&mut rng_k),
                    scalar.sample_critical_only(&mut rng_s)
                );
            }
            assert_eq!(rng_k.next_u64(), rng_s.next_u64(), "stream diverged");
        }
    }

    #[test]
    fn raw_f_on_deterministic_graph() {
        // p = 0, p' = 1 on s->a and a->r: f(∅)=0, f({a})=0, f({a,r})=1.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.0, 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.0, 1.0).unwrap();
        let g = b.build().unwrap();
        let gen = PrrGenerator::new(&g, &[NodeId(0)], 2);
        let mut rng = SmallRng::seed_from_u64(9);
        let raw = gen.phase1_raw(NodeId(2), &mut rng).expect("boostable");
        assert!(!raw_f(&raw, &BoostMask::empty(3)));
        assert!(!raw_f(&raw, &BoostMask::from_nodes(3, &[NodeId(1)])));
        assert!(raw_f(
            &raw,
            &BoostMask::from_nodes(3, &[NodeId(1), NodeId(2)])
        ));
    }

    #[test]
    fn critical_only_agrees_with_raw_definition() {
        // Deterministic boost-only single edge: s -> r with p=0, p'=1.
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 0.0, 1.0).unwrap();
        let g = b.build().unwrap();
        let gen = PrrGenerator::new(&g, &[NodeId(0)], 1);
        let mut rng = SmallRng::seed_from_u64(11);
        // Critical set of every sampled graph rooted at 1 must be {1}.
        let mut found = 0;
        for _ in 0..20 {
            let crit = gen.sample_critical_only(&mut rng);
            if crit == vec![NodeId(1)] {
                found += 1;
            } else {
                assert!(crit.is_empty(), "unexpected critical set {crit:?}");
            }
        }
        // Root is uniform over {0, 1}; roughly half the samples root at 1.
        assert!(found > 3, "critical set never found");
    }

    /// A pre-drawn world as a coin source: one outcome per in-CSR edge.
    struct WorldCoins<'a> {
        sources: &'a [u32],
        world: &'a [u8],
    }

    impl CoinSource for WorldCoins<'_> {
        fn draw_in_list(
            &mut self,
            _u: u32,
            lo: usize,
            hi: usize,
            mut f: impl FnMut(usize, u32, u8),
        ) {
            for e in lo..hi {
                f(e - lo, self.sources[e], self.world[e]);
            }
        }
    }

    /// Draws a world of `g`: one [`scalar_coin`] per in-CSR edge.
    fn world(g: &DiGraph, rng: &mut SmallRng) -> Vec<u8> {
        g.in_probs().iter().map(|&p| scalar_coin(rng, p)).collect()
    }

    /// A sample's outcome class, with a boostable graph as sets of global
    /// ids (local orders differ between the two searches).
    #[derive(Debug, PartialEq)]
    enum Sets {
        Activated,
        Hopeless,
        Boostable {
            root: u32,
            nodes: Vec<u32>,
            edges: Vec<(u32, u32, bool)>,
            critical: Vec<u32>,
        },
    }

    fn sets(p: &CompressedParts) -> Sets {
        let g = &p.globals;
        let mut nodes = g.clone();
        nodes.sort_unstable();
        let mut edges = Vec::new();
        for u in 0..g.len() {
            let (lo, hi) = (p.adj_off[u] as usize, p.adj_off[u + 1] as usize);
            edges.extend(p.adj[lo..hi].iter().map(|&(v, b)| (g[u], g[v as usize], b)));
        }
        edges.sort_unstable();
        let mut critical: Vec<u32> = p.critical.iter().map(|v| v.0).collect();
        critical.sort_unstable();
        Sets::Boostable {
            root: g[p.root as usize],
            nodes,
            edges,
            critical,
        }
    }

    /// Runs the reference full BFS and the search on one world, at `k`
    /// and at k = 1, and asserts the same outcome class and compressed
    /// graph, the same k = 1 critical set, and, unless activated, a
    /// footprint inside the reference's. Returns the class, the
    /// reference's raw graph and the search's compressed one for `f_R(B)`
    /// checks.
    fn check_world(
        g: &DiGraph,
        seeds: &[NodeId],
        k: usize,
        root: NodeId,
        world: &[u8],
    ) -> (Sets, Option<RawPrr>, Option<CompressedPrr>) {
        let mask = BoostMask::from_nodes(g.num_nodes(), seeds);
        let gen = PrrGenerator::new_scalar_oracle(g, seeds, k);
        let mut coins = WorldCoins {
            sources: g.in_sources(),
            world,
        };

        let mut expanded = Vec::new();
        let (want, ref_raw) =
            match reference::phase1(g, &mask, root, k as u32, |e| world[e], &mut expanded) {
                reference::Phase1::Activated => (Sets::Activated, None),
                reference::Phase1::Hopeless => (Sets::Hopeless, None),
                reference::Phase1::Raw(raw) => {
                    let want = compress_parts(&raw, k).map_or(Sets::Hopeless, |p| sets(&p));
                    (want, Some(raw))
                }
            };
        let (got, graph, footprint) = gen.run_with(
            root,
            k as u32,
            FootprintMode::Compressed,
            &mut coins,
            |ph, s, fp, _| {
                let mut parts = CompressedParts::default();
                let boostable = ph == Phase1::Raw
                    && compress_locals_into(&s.globals, &s.ledges, &s.lseeds, k, &mut parts);
                let got = match ph {
                    Phase1::Activated => Sets::Activated,
                    _ if boostable => sets(&parts),
                    _ => Sets::Hopeless,
                };
                let graph = boostable.then(|| CompressedPrr::from_parts(parts));
                (got, graph, fp.to_vec())
            },
        );
        assert_eq!(got, want, "root {root:?}, k {k}");
        if got != Sets::Activated {
            expanded.sort_unstable();
            for v in &footprint {
                assert!(
                    expanded.binary_search(v).is_ok(),
                    "node {v} read outside the reference's footprint"
                );
            }
        }

        let want_critical =
            match reference::phase1(g, &mask, root, 1, |e| world[e], &mut Vec::new()) {
                reference::Phase1::Raw(raw) => {
                    compress_parts(&raw, 1).map_or(Vec::new(), |p| p.critical)
                }
                _ => Vec::new(),
            };
        let mut got_critical =
            gen.run_with(root, 1, FootprintMode::Off, &mut coins, |ph, s, _, _| {
                if ph == Phase1::Raw {
                    s.critical()
                } else {
                    Vec::new()
                }
            });
        let mut want_critical = want_critical;
        got_critical.sort_unstable();
        want_critical.sort_unstable();
        assert_eq!(
            got_critical, want_critical,
            "k = 1 critical set, root {root:?}"
        );
        (got, ref_raw, graph)
    }

    #[test]
    fn search_matches_full_bfs_on_er_worlds() {
        // compress.rs's ER families: (8, 20) at p = 0.4 with one seed and
        // (9, 24) with two, boost factor 2.5; (n, 2n + 4) with n in
        // 10..13, p in 0.2..0.7 and 1–3 seeds, boost factor 2.
        let mut classes = [0usize; 3];
        let mut scratch = PrrEvalScratch::default();
        for gseed in 0..90u64 {
            let mut rng = SmallRng::seed_from_u64(gseed);
            let (g, seeds, budgets): (DiGraph, Vec<NodeId>, &[usize]) = match gseed % 3 {
                0 => (
                    erdos_renyi(8, 20, ProbabilityModel::Constant(0.4), 2.5, &mut rng),
                    vec![NodeId(0)],
                    &[1, 2, 3],
                ),
                1 => (
                    erdos_renyi(9, 24, ProbabilityModel::Constant(0.4), 2.5, &mut rng),
                    vec![NodeId(0), NodeId(1)],
                    &[2],
                ),
                _ => {
                    let n = 10 + (gseed / 3 % 3) as usize;
                    let p = [0.2, 0.45, 0.7][(gseed / 9 % 3) as usize];
                    let seeds = (0..1 + (gseed / 3 % 3) as u32).map(NodeId).collect();
                    let g = erdos_renyi(n, 2 * n + 4, ProbabilityModel::Constant(p), 2.0, &mut rng);
                    (g, seeds, &[1, 2, 3])
                }
            };
            let n = g.num_nodes();
            for &k in budgets {
                for _ in 0..25 {
                    let root = NodeId(rng.random_range(0..n as u32));
                    let w = world(&g, &mut rng);
                    let (class, ref_raw, graph) = check_world(&g, &seeds, k, root, &w);
                    classes[match class {
                        Sets::Activated => 0,
                        Sets::Hopeless => 1,
                        Sets::Boostable { .. } => 2,
                    }] += 1;
                    let Some(raw) = ref_raw else {
                        continue;
                    };
                    // Exhaustive f_R(B) over |B| ≤ k against the
                    // reference's raw graph.
                    for bits in (0u32..1 << n).filter(|b| b.count_ones() as usize <= k) {
                        let b: Vec<_> = (0..n as u32)
                            .filter(|i| bits >> i & 1 == 1)
                            .map(NodeId)
                            .collect();
                        let mask = BoostMask::from_nodes(n, &b);
                        assert_eq!(
                            graph.as_ref().is_some_and(|c| c.f(&mask, &mut scratch)),
                            raw_f(&raw, &mask),
                            "f_R({b:?}) differs (graph seed {gseed}, k {k})"
                        );
                    }
                }
            }
        }
        assert!(
            classes.iter().all(|&c| c > 50),
            "degenerate families: {classes:?}"
        );
    }

    #[test]
    fn search_matches_full_bfs_on_pa_worlds() {
        // compressed_parts_digest_is_pinned's family: a 3,000-node
        // LogNormal preferential-attachment graph with 20 seeds.
        let mut rng = SmallRng::seed_from_u64(2017);
        let model = ProbabilityModel::LogNormal {
            mu: -1.93,
            sigma: 1.0,
            cap: 1.0,
        };
        let g = preferential_attachment(3_000, 4, 0.15, model, 2.0, &mut rng);
        let seeds: Vec<NodeId> = (0..20).map(|i| NodeId(i * 149 + 3)).collect();
        let mut boostable = 0usize;
        for k in [1usize, 2, 5, 50] {
            for _ in 0..600 {
                let root = NodeId(rng.random_range(0..g.num_nodes() as u32));
                let w = world(&g, &mut rng);
                boostable += check_world(&g, &seeds, k, root, &w).2.is_some() as usize;
            }
        }
        assert!(
            boostable > 100,
            "only {boostable} boostable samples compared"
        );
    }
}
