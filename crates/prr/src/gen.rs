//! PRR-graph generation — Algorithm 1, phase I.
//!
//! A backward 0-1 BFS from the root: the *distance* of a node is the
//! minimum number of live-upon-boost edges on any path from it to the root,
//! so live edges relax at the front of the deque and boost edges at the
//! back. Edges whose best distance would exceed `k` are pruned — boosting
//! at most `k` nodes can never make them useful (Section V-A). Pruned
//! edges are dropped at the check, *before* entering the raw edge list, so
//! they never inflate phase-II input (pinned by
//! `pruned_edges_not_retained`).
//!
//! # The data-oriented kernel and its scalar oracle
//!
//! Two phase-I loops coexist here, byte-for-byte equivalent by
//! construction and by test:
//!
//! * the **scalar loop** ([`phase1_tr`](PrrGenerator)) — the original
//!   readable loop over [`DiGraph::in_edges`], one `rng.random::<f64>()`
//!   per touched edge, fresh `Vec`s per sample. Generators built with
//!   [`PrrGenerator::new_scalar_oracle`] use it on every entry point, and
//!   every generator uses it for trace capture and for conditional
//!   replay (which reuses an old trace's coins and draws the rest, see
//!   `phase1_tr`).
//! * the **kernel** (`phase1_kernel`) — the throughput path used by
//!   generators built with [`PrrGenerator::new`]. It walks the packed
//!   8-byte [`InEdgeSoa`] lane (head plus 16-bit coin thresholds) instead
//!   of the 20 bytes per edge of the CSR, refills a fixed scratch buffer
//!   of uniforms through bulk [`RngCore::fill_u64`] calls (consumed in the
//!   exact one-draw-per-edge order of the scalar loop, so the stream is
//!   bit-identical), keeps the BFS deque, edge list, and seed buffer in
//!   the thread-local [`GenScratch`] so steady-state sampling performs no
//!   heap allocation, and emits *sample-local* node ids as it goes —
//!   phase II consumes them directly and skips its global→local
//!   relabeling pass.
//!
//! The kernel settles each coin on integers: `bits >> 48` of the drawn
//! `u64` against the record's threshold, falling back to the scalar
//! loop's `unit_f64(bits)` comparison against the graph's exact
//! [`EdgeProbs`](kboost_graph::EdgeProbs) only on a tie (probability 2⁻¹⁶
//! per comparison). The two tests are the same predicate
//! ([`coin_at_least`]), so every verdict, and with it the stream, covers
//! and arena bytes, equals the scalar loop's. At benchmark scale phase I
//! is bound by edge traffic, not draws: the lane is 8 bytes per edge
//! against the 20 of the CSR's head and probability arrays.
//!
//! The only stream subtlety is the early `Activated` return: the scalar
//! loop stops mid-in-edge-list having consumed exactly one draw per edge
//! up to the live seed edge, while the kernel has already bulk-drawn its
//! whole batch. The kernel therefore snapshots the 32-byte RNG state
//! before each refill and, on early return after batch index `j`, restores
//! the snapshot and replays exactly `j + 1` draws — leaving the RNG in the
//! scalar loop's exact state.
//!
//! # Edge-space footprints
//!
//! The BFS queries edge statuses lazily: expanding a node enumerates its
//! in-edges and draws one status each. The set of *expanded* nodes is
//! therefore the sample's exact edge-space footprint — a mutation of edge
//! `(u, v)` changes the sample's distribution iff `v` was expanded,
//! because only then would the generator have queried `v`'s (old or new)
//! in-edge list. The footprint-retaining entry points capture that set at
//! generation time (sorted, deduplicated) for the online subsystem's
//! exact staleness detection; capture consumes no randomness, so
//! footprint-on and footprint-off pools draw identical streams.
//!
//! Every entry point ends in one of two phase-II steps: `outcome`
//! compresses a result into a per-graph [`PrrOutcome`], `store` compresses
//! it into a shard entry (the graph, or an empty entry when the sample
//! stores none) with the footprint and trace the [`FootprintMode`] keeps.

use kboost_diffusion::sim::BoostMask;
use kboost_graph::{coin_at_least, DiGraph, InEdgeSoa, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

use crate::arena::PrrArenaShard;
use crate::compress::{
    compress, compress_locals_into, compress_parts_into, CompressedParts, LEDGE_BOOST, LEDGE_MASK,
};
use crate::footprint::{read_varint, write_varint, FootprintMode};
use crate::graph::CompressedPrr;

/// 2-bit trace outcome: the edge was sampled live.
const TRACE_LIVE: u8 = 0;
/// 2-bit trace outcome: the edge was sampled live-upon-boost.
const TRACE_BOOST: u8 = 1;
/// 2-bit trace outcome: the edge was sampled blocked.
const TRACE_BLOCKED: u8 = 2;
/// 2-bit trace sentinel: the edge's coin was never drawn (the sample
/// returned `Activated` mid-way through the node's in-edge list).
const TRACE_NOT_DRAWN: u8 = 3;

/// Per-sample trace blob builder for [`FootprintMode::Trace`].
///
/// Layout: `varint(root)` followed by one self-delimiting record per
/// expanded node in BFS pop order — `varint(global id)`,
/// `varint(in-degree at capture)`, then `ceil(deg / 4)` bytes of 2-bit
/// edge outcomes in in-edge-list order ([`TRACE_LIVE`], [`TRACE_BOOST`],
/// [`TRACE_BLOCKED`], [`TRACE_NOT_DRAWN`]). Outcome bytes start
/// all-sentinel, so an early `Activated` return leaves the undrawn tail
/// of the last record marked not-drawn without any cleanup pass.
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
        self.buf.resize(self.node_off + deg.div_ceil(4), 0xFF);
    }

    #[inline]
    fn record(&mut self, pos: usize, outcome: u8) {
        let byte = &mut self.buf[self.node_off + pos / 4];
        let shift = (pos % 4) * 2;
        *byte = (*byte & !(0b11 << shift)) | (outcome << shift);
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

/// A conditional replay's inputs (see [`PrrGenerator::phase1_tr`]): the
/// old trace and the mutation batch's redraw predicates.
struct Replay<'a> {
    old: TraceView<'a>,
    redraw_node: &'a dyn Fn(u32) -> bool,
    redraw_edge: &'a dyn Fn(u32, u32) -> bool,
}

impl Replay<'_> {
    /// The outcome-byte offset of `u`'s record, if its positions still
    /// line up with `u`'s current in-edge list: `u` is not redrawn
    /// wholesale, was expanded at capture, and kept its in-degree.
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

/// Phase-I output before compression, kept public for testing and for the
/// critical-only fast path.
pub struct RawPrr {
    /// The root node (global id).
    pub root: u32,
    /// Sampled non-blocked edges `(from, to, is_boost)` in global ids,
    /// grouped by head: all edges into one node are contiguous. Phase I
    /// expands each node at most once and emits its in-edges while doing
    /// so, and [`compress`] relies on (and asserts) the grouping.
    pub edges: Vec<(u32, u32, bool)>,
    /// Seed nodes discovered during the backward BFS.
    pub seeds: Vec<u32>,
}

enum Phase1 {
    Activated,
    Hopeless,
    Raw(RawPrr),
}

impl Phase1 {
    fn raw(&self) -> Option<RawRef<'_>> {
        match self {
            Phase1::Raw(raw) => Some(RawRef::Global(raw)),
            Phase1::Activated | Phase1::Hopeless => None,
        }
    }
}

/// Kernel phase-I outcome: on `Raw`, the edge and seed lists are left in
/// the thread-local [`GenScratch`] instead of being moved into an owned
/// [`RawPrr`].
enum KernelPhase1 {
    Activated,
    Hopeless,
    Raw,
}

/// A boostable-candidate phase-I result as phase II reads it: the scalar
/// loop's global-id [`RawPrr`], or the kernel's local-id lists in
/// [`GenScratch`].
enum RawRef<'a> {
    Global(&'a RawPrr),
    Local(&'a GenScratch),
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

/// Maximum number of uniforms drawn per bulk RNG refill in the kernel.
const UNIFORM_BATCH: usize = 512;

/// First refill size of a sample. Refills double from here up to
/// [`UNIFORM_BATCH`], so a sample that touches only a handful of edges
/// (tiny graphs, early activation) over-draws at most ~8 uniforms
/// instead of a full batch, while long walks settle into maximal batches
/// after a few refills.
const UNIFORM_BATCH_MIN: usize = 8;

/// How many edges ahead the kernel prefetches the per-node state of edge
/// heads. The per-node arrays span megabytes at benchmark scale, so every
/// head lookup is a likely cache miss; issuing the loads this far ahead
/// lets them overlap instead of serializing on the BFS's dependent chain.
const PREFETCH_AHEAD: usize = 16;

/// Best-effort prefetch of the cache line holding `p` (no-op off x86-64).
#[inline(always)]
fn prefetch<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const T as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Per-node phase-I state, merged into one entry so the BFS pays a single
/// random cache access per touched node: the epoch stamp (validity), the
/// settled 0-1 BFS distance, and the sample-local id the kernel assigns on
/// first touch (the compression core consumes local ids directly).
#[derive(Clone, Copy)]
struct NodeMeta {
    stamp: u32,
    dist: u32,
    lid: u32,
}

/// Per-thread scratch: stamped per-node state sized to the host graph,
/// plus the kernel's reusable BFS deque, local-id node/edge/seed output
/// lists, and uniform batch buffer.
struct GenScratch {
    meta: Vec<NodeMeta>,
    round: u32,
    deque: std::collections::VecDeque<(u32, u32)>,
    /// Kernel output: local → global id table, first-touch ordered,
    /// `globals[0]` = the root.
    globals: Vec<u32>,
    /// Kernel output: packed local edges (see [`LEDGE_BOOST`]).
    ledges: Vec<(u32, u32)>,
    /// Kernel output: local ids of the seeds discovered by the BFS.
    lseeds: Vec<u32>,
    uniforms: Vec<u64>,
}

impl GenScratch {
    const INF: u32 = u32::MAX;

    fn new() -> Self {
        GenScratch {
            meta: Vec::new(),
            round: 0,
            deque: std::collections::VecDeque::new(),
            globals: Vec::new(),
            ledges: Vec::new(),
            lseeds: Vec::new(),
            uniforms: Vec::new(),
        }
    }

    fn begin(&mut self, n: usize) {
        if self.meta.len() < n {
            self.meta = vec![
                NodeMeta {
                    stamp: 0,
                    dist: Self::INF,
                    lid: 0,
                };
                n
            ];
            self.round = 0;
        }
        self.round += 1;
        if self.round == u32::MAX {
            for m in &mut self.meta {
                m.stamp = 0;
            }
            self.round = 1;
        }
        self.deque.clear();
        self.globals.clear();
        self.ledges.clear();
        self.lseeds.clear();
        if self.uniforms.len() != UNIFORM_BATCH {
            self.uniforms.resize(UNIFORM_BATCH, 0);
        }
    }

    #[inline]
    fn get(&self, v: u32) -> u32 {
        let m = &self.meta[v as usize];
        if m.stamp == self.round {
            m.dist
        } else {
            Self::INF
        }
    }

    #[inline]
    fn set(&mut self, v: u32, d: u32) {
        let m = &mut self.meta[v as usize];
        m.stamp = self.round;
        m.dist = d;
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<GenScratch> = std::cell::RefCell::new(GenScratch::new());
    /// Reusable footprint buffer for the streaming footprint path —
    /// cleared per sample, copied into the shard column on retention.
    static FP_SCRATCH: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Reusable phase-II output for the kernel path: compression writes
    /// into it in place, the shard copies out of it.
    static PARTS: std::cell::RefCell<CompressedParts> =
        std::cell::RefCell::new(CompressedParts::default());
    /// Reusable state for the kernel's hash-free critical-set extraction.
    static CRIT_SCRATCH: std::cell::RefCell<CritScratch> =
        std::cell::RefCell::new(CritScratch::new());
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
    /// the lane fresh across online epochs) and routes the bulk-sampling
    /// entry points through the data-oriented kernel.
    pub fn new(g: &'g DiGraph, seeds: &[NodeId], k: usize) -> Self {
        PrrGenerator {
            g,
            soa: Some(g.in_edge_soa()),
            seed_mask: BoostMask::from_nodes(g.num_nodes(), seeds),
            k,
        }
    }

    /// Creates a scalar-oracle generator: no packed lane, every entry point
    /// runs the original per-edge loop. Used by the legacy source and the
    /// kernel-equivalence test suites.
    pub fn new_scalar_oracle(g: &'g DiGraph, seeds: &[NodeId], k: usize) -> Self {
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

    /// Whether this generator routes bulk sampling through the
    /// data-oriented kernel (true for [`new`](Self::new), false for
    /// [`new_scalar_oracle`](Self::new_scalar_oracle)).
    pub fn is_kernel(&self) -> bool {
        self.soa.is_some()
    }

    /// Generates a PRR-graph for a uniformly random root.
    ///
    /// Always runs the scalar oracle — this per-graph entry point exists
    /// for the legacy pipeline and for tests.
    pub fn sample(&self, rng: &mut SmallRng) -> PrrOutcome {
        let root = NodeId(rng.random_range(0..self.g.num_nodes() as u32));
        self.sample_rooted(root, rng)
    }

    /// Generates a PRR-graph for the given root (scalar oracle).
    pub fn sample_rooted(&self, root: NodeId, rng: &mut SmallRng) -> PrrOutcome {
        self.outcome(self.phase1(root, rng, self.k as u32))
    }

    /// Like [`sample`](Self::sample), additionally writing the sample's
    /// edge-space footprint (sorted, deduplicated expanded-node set) into
    /// `footprint` — the legacy/oracle entry point of the exact-staleness
    /// pipeline. Draws the exact same randomness as [`sample`](Self::sample) and
    /// [`sample_into`](Self::sample_into), so footprint-retaining pools
    /// reproduce footprint-free streams bit-for-bit.
    pub fn sample_with_footprint(
        &self,
        rng: &mut SmallRng,
        footprint: &mut Vec<u32>,
    ) -> PrrOutcome {
        self.sample_with(rng, FootprintMode::Compressed, footprint, &mut Vec::new())
    }

    /// Like [`sample_with_footprint`](Self::sample_with_footprint),
    /// additionally writing the sample's trace blob (retained queried-edge
    /// outcomes, [`TraceBuf`] layout) into `trace` — the legacy/oracle
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
    /// root through the scalar loop, writing what `mode` retains into the
    /// out-params — the footprint unless `Off`, the trace under `Trace` —
    /// and clearing the rest.
    pub(crate) fn sample_with(
        &self,
        rng: &mut SmallRng,
        mode: FootprintMode,
        footprint: &mut Vec<u32>,
        trace: &mut Vec<u8>,
    ) -> PrrOutcome {
        let root = NodeId(rng.random_range(0..self.g.num_nodes() as u32));
        self.captured(root, rng, mode, None, |ph, fp, tr| {
            footprint.clear();
            footprint.extend_from_slice(fp);
            trace.clear();
            trace.extend_from_slice(tr);
            self.outcome(ph)
        })
    }

    /// Conditionally replays one invalidated sample from its retained
    /// trace (legacy/oracle form): re-runs phase I on the current graph
    /// for the trace's root, reusing every recorded coin whose edge the
    /// mutation batch left untouched and drawing fresh coins only for
    /// `redraw_node` heads, `redraw_edge` hits, and not-drawn sentinels —
    /// see [`phase1_tr`](Self::phase1_tr) for why the result is
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
        self.captured(
            root,
            rng,
            FootprintMode::Trace,
            Some(&replay),
            |ph, fp, tr| {
                footprint.clear();
                footprint.extend_from_slice(fp);
                trace.clear();
                trace.extend_from_slice(tr);
                self.outcome(ph)
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
        self.captured(root, rng, mode, Some(&replay), |ph, fp, tr| {
            self.store(ph.raw(), shard, fp, tr, mode)
        })
    }

    /// Samples one PRR-graph for a uniformly random root straight into a
    /// sampling `shard` — the streaming pipeline's hot path: Phase-II
    /// output is appended to the shard's flat arrays without ever
    /// materializing a per-graph [`CompressedPrr`]. Kernel generators run
    /// the data-oriented phase-I kernel here; scalar oracles run the
    /// original loop, drawing the identical random stream.
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
    /// additionally store the sample's queried-edge outcomes for
    /// conditional replay. Randomness consumption is identical to the
    /// footprint-free path.
    pub fn sample_into_fp(
        &self,
        rng: &mut SmallRng,
        shard: &mut PrrArenaShard,
        mode: FootprintMode,
    ) -> Vec<NodeId> {
        let root = NodeId(rng.random_range(0..self.g.num_nodes() as u32));
        match &self.soa {
            // Trace capture is scalar-only: the kernel has no traced
            // variant, and both loops draw bit-identical streams anyway.
            Some(soa) if !mode.retains_trace() => {
                self.kernel_sample_into_fp(soa, root, rng, shard, mode)
            }
            _ => self.captured(root, rng, mode, None, |ph, fp, tr| {
                self.store(ph.raw(), shard, fp, tr, mode)
            }),
        }
    }

    /// Kernel body of [`sample_into_fp`](Self::sample_into_fp): phase I in
    /// the batched-draw kernel, phase II through the reusable
    /// [`CompressedParts`] — allocation-free in steady state apart from
    /// the returned cover. Footprints off, it borrows no footprint
    /// buffer and sorts nothing.
    fn kernel_sample_into_fp(
        &self,
        soa: &InEdgeSoa,
        root: NodeId,
        rng: &mut SmallRng,
        shard: &mut PrrArenaShard,
        mode: FootprintMode,
    ) -> Vec<NodeId> {
        SCRATCH.with_borrow_mut(|scratch| {
            if !mode.is_on() {
                let ph = self.phase1_kernel(soa, root, rng, self.k as u32, None, scratch);
                let raw = matches!(ph, KernelPhase1::Raw).then_some(RawRef::Local(scratch));
                return self.store(raw, shard, &[], &[], mode);
            }
            FP_SCRATCH.with_borrow_mut(|fp| {
                fp.clear();
                let ph = self.phase1_kernel(soa, root, rng, self.k as u32, Some(fp), scratch);
                fp.sort_unstable();
                fp.dedup();
                let raw = matches!(ph, KernelPhase1::Raw).then_some(RawRef::Local(scratch));
                self.store(raw, shard, fp, &[], mode)
            })
        })
    }

    /// Phase II for the per-graph entry points: one phase-I result as a
    /// [`PrrOutcome`] (a raw graph that compression finds non-boostable
    /// is hopeless).
    fn outcome(&self, ph: Phase1) -> PrrOutcome {
        match ph {
            Phase1::Activated => PrrOutcome::Activated,
            Phase1::Hopeless => PrrOutcome::Hopeless,
            Phase1::Raw(raw) => {
                compress(&raw, self.k).map_or(PrrOutcome::Hopeless, PrrOutcome::Boostable)
            }
        }
    }

    /// Phase II for the shard entry points: compresses `raw` (if any)
    /// into the reusable [`CompressedParts`] and stores the sample in
    /// `shard` — the graph when boostable, an empty entry otherwise —
    /// with the footprint and trace `mode` retains (empty slices when it
    /// retains none). Returns the sketch cover.
    fn store(
        &self,
        raw: Option<RawRef<'_>>,
        shard: &mut PrrArenaShard,
        footprint: &[u32],
        trace: &[u8],
        mode: FootprintMode,
    ) -> Vec<NodeId> {
        PARTS.with_borrow_mut(|parts| {
            let boostable = match raw {
                None => false,
                Some(RawRef::Global(raw)) => {
                    compress_parts_into(raw.root, &raw.edges, &raw.seeds, self.k, parts)
                }
                Some(RawRef::Local(s)) => {
                    compress_locals_into(&s.globals, &s.ledges, &s.lseeds, self.k, parts)
                }
            };
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
    /// single boost edge fed by a live head from a seed. Kernel generators
    /// extract the set via stamped scratch arrays; scalar oracles via the
    /// hash-based [`critical_from_raw`]. Both orders are edge-scan-driven
    /// and identical.
    pub fn sample_critical_only(&self, rng: &mut SmallRng) -> Vec<NodeId> {
        let root = NodeId(rng.random_range(0..self.g.num_nodes() as u32));
        match &self.soa {
            Some(soa) => SCRATCH.with_borrow_mut(|scratch| {
                match self.phase1_kernel(soa, root, rng, 1, None, scratch) {
                    KernelPhase1::Activated | KernelPhase1::Hopeless => Vec::new(),
                    KernelPhase1::Raw => CRIT_SCRATCH.with_borrow_mut(|cs| {
                        critical_from_scratch(
                            &scratch.globals,
                            &scratch.ledges,
                            &scratch.lseeds,
                            &self.seed_mask,
                            cs,
                        )
                    }),
                }
            }),
            None => match self.phase1(root, rng, 1) {
                Phase1::Activated | Phase1::Hopeless => Vec::new(),
                Phase1::Raw(raw) => critical_from_raw(&raw, &self.seed_mask),
            },
        }
    }

    /// Phase-I raw generation, exposed for tests; prunes at `prune_at`
    /// boost edges. Always the scalar oracle.
    pub fn phase1_raw(&self, root: NodeId, rng: &mut SmallRng) -> Option<RawPrr> {
        match self.phase1(root, rng, self.k as u32) {
            Phase1::Raw(raw) => Some(raw),
            _ => None,
        }
    }

    /// [`phase1_tr`](Self::phase1_tr) capturing nothing.
    fn phase1(&self, root: NodeId, rng: &mut SmallRng, prune_at: u32) -> Phase1 {
        self.phase1_tr(root, rng, prune_at, None, None, None)
    }

    /// Scalar phase I for `root` capturing what `mode` retains — the
    /// footprint (sorted, deduplicated) unless `Off`, the trace under
    /// `Trace` — and replaying `replay` when given; hands the result and
    /// the captured slices (empty where nothing is retained) to `finish`.
    fn captured<R>(
        &self,
        root: NodeId,
        rng: &mut SmallRng,
        mode: FootprintMode,
        replay: Option<&Replay<'_>>,
        finish: impl FnOnce(Phase1, &[u32], &[u8]) -> R,
    ) -> R {
        FP_SCRATCH.with_borrow_mut(|fp| {
            TRACE_SCRATCH.with_borrow_mut(|tb| {
                fp.clear();
                let ph = self.phase1_tr(
                    root,
                    rng,
                    self.k as u32,
                    mode.is_on().then_some(&mut *fp),
                    mode.retains_trace().then_some(&mut *tb),
                    replay,
                );
                fp.sort_unstable();
                fp.dedup();
                let trace: &[u8] = if mode.retains_trace() { &tb.buf } else { &[] };
                finish(ph, fp, trace)
            })
        })
    }

    /// The scalar phase-I loop: one `rng.random::<f64>()` per queried
    /// edge over [`DiGraph::in_edges`], fresh `Vec`s per sample.
    ///
    /// When `footprint` is given, every node whose in-edge enumeration
    /// begins is appended to it (unsorted; a node appears at most once
    /// because only the entry matching the settled distance expands). A
    /// seed root queries nothing and leaves the footprint empty. When
    /// `trace` is given, the outcome of every queried edge is recorded
    /// into the per-sample [`TraceBuf`]. Capture consumes no randomness,
    /// so every capture draws the same stream.
    ///
    /// With `replay` the loop is the conditional replay (Ohsaka-style) of
    /// an invalidated sample on the *current* graph: it reuses the
    /// recorded coin of every edge whose law is unchanged and draws a
    /// fresh coin only where the mutation batch touched:
    ///
    /// * `redraw_node(u)` — `u`'s in-edge list changed structurally
    ///   (insert/remove head): every coin of `u`'s in-edges is redrawn,
    ///   positional correspondence with the record is void;
    /// * `redraw_edge(v, u)` — the edge `(v, u)` had its probabilities
    ///   rewritten in place: only that coin is redrawn;
    /// * a popped node with no record, or whose captured in-degree
    ///   disagrees with the current one, is redrawn wholesale;
    /// * a [`TRACE_NOT_DRAWN`] sentinel (the capturing run returned
    ///   `Activated` before drawing) is a deferred decision — drawn
    ///   fresh now.
    ///
    /// By the principle of deferred decisions the replayed sample is an
    /// exact draw from the new graph's PRR distribution, *jointly* with
    /// the untouched survivors — the coupling that makes trace-retention
    /// refresh distribution-fresh under partial churn where unconditioned
    /// redraw is not. A replay that holds no retained coin draws exactly
    /// what a fresh sample from the same RNG state would.
    fn phase1_tr(
        &self,
        root: NodeId,
        rng: &mut SmallRng,
        prune_at: u32,
        mut footprint: Option<&mut Vec<u32>>,
        mut trace: Option<&mut TraceBuf>,
        replay: Option<&Replay<'_>>,
    ) -> Phase1 {
        if let Some(tb) = trace.as_deref_mut() {
            tb.begin(root.0);
        }
        if self.seed_mask.contains(root) {
            return Phase1::Activated;
        }
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.begin(self.g.num_nodes());
            let mut deque: std::collections::VecDeque<(u32, u32)> =
                std::collections::VecDeque::new();
            let mut edges: Vec<(u32, u32, bool)> = Vec::new();
            let mut seeds_found: Vec<u32> = Vec::new();

            scratch.set(root.0, 0);
            deque.push_back((root.0, 0));

            while let Some((u, du)) = deque.pop_front() {
                if du > scratch.get(u) {
                    continue; // stale entry: u was settled at a smaller distance
                }
                if let Some(fp) = footprint.as_deref_mut() {
                    fp.push(u);
                }
                let deg = self.g.in_degree(NodeId(u));
                if let Some(tb) = trace.as_deref_mut() {
                    tb.begin_node(u, deg);
                }
                let record = replay.and_then(|r| Some((r, r.record(u, deg)?)));
                for (i, (v, p)) in self.g.in_edges(NodeId(u)).enumerate() {
                    let mut outcome = match record {
                        Some((r, off)) if !(r.redraw_edge)(v.0, u) => r.old.outcome(off, i),
                        _ => TRACE_NOT_DRAWN,
                    };
                    if outcome == TRACE_NOT_DRAWN {
                        // Sample the three-way status on first (and only) touch.
                        let x: f64 = rng.random();
                        outcome = if x < p.base {
                            TRACE_LIVE
                        } else if x < p.boosted {
                            TRACE_BOOST
                        } else {
                            TRACE_BLOCKED
                        };
                    }
                    if let Some(tb) = trace.as_deref_mut() {
                        tb.record(i, outcome);
                    }
                    if outcome == TRACE_BLOCKED {
                        continue; // blocked
                    }
                    let boost = outcome == TRACE_BOOST;
                    let dvr = du + boost as u32;
                    if dvr > prune_at {
                        continue; // pruning: needs more than k boosts
                    }
                    edges.push((v.0, u, boost));
                    let old = scratch.get(v.0);
                    if dvr < old {
                        scratch.set(v.0, dvr);
                        if self.seed_mask.contains(v) {
                            if dvr == 0 {
                                return Phase1::Activated;
                            }
                            if old == GenScratch::INF {
                                seeds_found.push(v.0);
                            }
                        } else if dvr == du {
                            deque.push_front((v.0, dvr));
                        } else {
                            deque.push_back((v.0, dvr));
                        }
                    }
                }
            }

            if seeds_found.is_empty() {
                Phase1::Hopeless
            } else {
                Phase1::Raw(RawPrr {
                    root: root.0,
                    edges,
                    seeds: seeds_found,
                })
            }
        })
    }

    /// Data-oriented phase I: identical semantics and random stream to
    /// [`phase1`](Self::phase1), but walking the packed lane with batched
    /// uniform draws and emitting *sample-local* node/edge/seed lists into
    /// `scratch` for the compression core to consume without any
    /// global→local relabeling pass.
    ///
    /// Local ids are assigned on first touch. That reproduces exactly the
    /// first-appearance order compression's scalar localization would
    /// assign over the global edge list (root first, then each edge's
    /// endpoints in scan order): every non-root node's first appearance in
    /// the edge list is as the tail of the edge on which the BFS first
    /// touches it — it cannot appear as a head earlier, because heads are
    /// expanded nodes and expansion requires an earlier first touch — and
    /// a first touch always relaxes (the stored distance is `INF`).
    fn phase1_kernel(
        &self,
        soa: &InEdgeSoa,
        root: NodeId,
        rng: &mut SmallRng,
        prune_at: u32,
        mut footprint: Option<&mut Vec<u32>>,
        scratch: &mut GenScratch,
    ) -> KernelPhase1 {
        if self.seed_mask.contains(root) {
            return KernelPhase1::Activated;
        }
        scratch.begin(self.g.num_nodes());
        let GenScratch {
            meta,
            round,
            deque,
            globals,
            ledges,
            lseeds,
            uniforms,
        } = scratch;
        let round = *round;
        let lane = soa.lane();
        let offsets = self.g.in_offsets();
        let probs = self.g.in_probs();

        meta[root.0 as usize] = NodeMeta {
            stamp: round,
            dist: 0,
            lid: 0,
        };
        globals.push(root.0);
        deque.push_back((root.0, 0));

        // Rolling uniform buffer, shared across node boundaries. `saved`
        // snapshots the RNG before each bulk refill; `pos` counts uniforms
        // consumed since. On ANY exit the RNG is rewound to the snapshot
        // and advanced exactly `pos` draws, leaving it bit-identical to
        // the scalar oracle's one-draw-per-touched-edge stream. Refills
        // grow from `UNIFORM_BATCH_MIN` to `UNIFORM_BATCH`; the batch size
        // never affects the stream, only how far the RNG runs ahead.
        let mut saved = rng.clone();
        let mut pos: usize = 0;
        let mut batch: usize = 0;

        while let Some((u, du)) = deque.pop_front() {
            // Deque entries are stamped this round by construction.
            if du > meta[u as usize].dist {
                continue; // stale entry: u was settled at a smaller distance
            }
            if let Some(fp) = footprint.as_deref_mut() {
                fp.push(u);
            }
            let ul = meta[u as usize].lid;
            let (lo, hi) = (
                offsets[u as usize] as usize,
                offsets[u as usize + 1] as usize,
            );
            // One-expansion lookahead: start fetching the lane lines of the
            // next nodes in the deque while this node is processed (their
            // offset entries were prefetched when they were pushed).
            for &(w, _) in deque.iter().take(2) {
                prefetch(&meta[w as usize]);
                let wlo = offsets[w as usize] as usize;
                if wlo < lane.len() {
                    prefetch(&lane[wlo]);
                }
            }
            // Heads are known before any draw: issue their per-node state
            // loads for the whole range (rolling beyond PREFETCH_AHEAD) so
            // the kept-edge lookups below overlap their cache misses.
            for e in lo..hi.min(lo + PREFETCH_AHEAD) {
                prefetch(&meta[lane[e].head() as usize]);
            }
            for e in lo..hi {
                if e + PREFETCH_AHEAD < hi {
                    prefetch(&meta[lane[e + PREFETCH_AHEAD].head() as usize]);
                }
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
                let bits = uniforms[pos];
                pos += 1;
                // Same three-way split as the scalar loop on x = unit_f64(bits):
                // x ≥ boosted ⇒ blocked, x < base ⇒ live, otherwise boost.
                // The packed thresholds decide; the exact probabilities are
                // read only on a 16-bit tie.
                let r = lane[e];
                if coin_at_least(bits, r.boosted_hi(), || probs[e].boosted) {
                    continue; // blocked (the common case)
                }
                let boost = coin_at_least(bits, r.base_hi(), || probs[e].base);
                let dvr = du + boost as u32;
                if dvr > prune_at {
                    continue; // pruning: needs more than k boosts
                }
                let v = r.head();
                let to_packed = ul | if boost { LEDGE_BOOST } else { 0 };
                let mi = v as usize;
                let m = meta[mi];
                if m.stamp != round {
                    // First touch: assign the next local id; the stored
                    // distance is INF, so the relaxation is unconditional.
                    let l = globals.len() as u32;
                    meta[mi] = NodeMeta {
                        stamp: round,
                        dist: dvr,
                        lid: l,
                    };
                    globals.push(v);
                    ledges.push((l, to_packed));
                    if self.seed_mask.contains(NodeId(v)) {
                        if dvr == 0 {
                            *rng = saved;
                            for _ in 0..pos {
                                rng.next_u64();
                            }
                            return KernelPhase1::Activated;
                        }
                        lseeds.push(l);
                    } else if dvr == du {
                        prefetch(&offsets[mi]);
                        deque.push_front((v, dvr));
                    } else {
                        prefetch(&offsets[mi]);
                        deque.push_back((v, dvr));
                    }
                } else {
                    ledges.push((m.lid, to_packed));
                    if dvr < m.dist {
                        meta[mi].dist = dvr;
                        if self.seed_mask.contains(NodeId(v)) {
                            if dvr == 0 {
                                *rng = saved;
                                for _ in 0..pos {
                                    rng.next_u64();
                                }
                                return KernelPhase1::Activated;
                            }
                            // Seeds are recorded on first touch only.
                        } else if dvr == du {
                            prefetch(&offsets[mi]);
                            deque.push_front((v, dvr));
                        } else {
                            prefetch(&offsets[mi]);
                            deque.push_back((v, dvr));
                        }
                    }
                }
            }
        }

        // Resync after over-drawing the tail of the last batch. When the
        // buffer is exactly exhausted (or never filled) the RNG already
        // sits at the scalar stream position.
        if pos != batch {
            *rng = saved;
            for _ in 0..pos {
                rng.next_u64();
            }
        }

        if lseeds.is_empty() {
            KernelPhase1::Hopeless
        } else {
            KernelPhase1::Raw
        }
    }
}

/// Extracts the critical set straight from a phase-I raw graph:
/// `v ∈ C_R` iff some boost edge `(u, v)` has `u` live-reachable from a
/// seed and `v` live-reaching the root.
///
/// This is the hash-based reference; the kernel path runs the
/// stamped-scratch [`critical_from_scratch`] equivalent, whose output
/// order (first occurrence in edge-scan order) is identical.
pub fn critical_from_raw(raw: &RawPrr, seed_mask: &BoostMask) -> Vec<NodeId> {
    use std::collections::{HashMap, HashSet};

    // Build adjacency over the raw edge list (local, hash-based: raw graphs
    // are small relative to the host graph).
    let mut live_out: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut live_in: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(u, v, boost) in &raw.edges {
        if !boost {
            live_out.entry(u).or_default().push(v);
            live_in.entry(v).or_default().push(u);
        }
    }

    // X: live-forward closure of the seeds.
    let mut x_set: HashSet<u32> = raw.seeds.iter().copied().collect();
    let mut stack: Vec<u32> = raw.seeds.clone();
    while let Some(u) = stack.pop() {
        if let Some(outs) = live_out.get(&u) {
            for &v in outs {
                if x_set.insert(v) {
                    stack.push(v);
                }
            }
        }
    }

    // L: live-backward closure of the root.
    let mut l_set: HashSet<u32> = HashSet::new();
    l_set.insert(raw.root);
    let mut stack = vec![raw.root];
    while let Some(u) = stack.pop() {
        if let Some(ins) = live_in.get(&u) {
            for &v in ins {
                if l_set.insert(v) {
                    stack.push(v);
                }
            }
        }
    }

    let mut critical: Vec<NodeId> = Vec::new();
    let mut seen: HashSet<u32> = HashSet::new();
    for &(u, v, boost) in &raw.edges {
        if boost
            && x_set.contains(&u)
            && l_set.contains(&v)
            && !seed_mask.contains(NodeId(v))
            && seen.insert(v)
        {
            critical.push(NodeId(v));
        }
    }
    critical
}

/// Node-flag bits used by [`critical_from_scratch`].
const X_FLAG: u8 = 1;
const L_FLAG: u8 = 2;
const SEEN_FLAG: u8 = 4;

/// Reusable state for the kernel's critical-set extraction: local live
/// CSR adjacencies and per-node flag bytes — the hash-free equivalent of
/// [`critical_from_raw`]'s maps and sets. The phase-I kernel already
/// emits local ids, so no global→local map is needed here.
struct CritScratch {
    out_off: Vec<u32>,
    out_adj: Vec<u32>,
    in_off: Vec<u32>,
    in_adj: Vec<u32>,
    flags: Vec<u8>,
    stack: Vec<u32>,
    cursor: Vec<u32>,
}

impl CritScratch {
    fn new() -> Self {
        CritScratch {
            out_off: Vec::new(),
            out_adj: Vec::new(),
            in_off: Vec::new(),
            in_adj: Vec::new(),
            flags: Vec::new(),
            stack: Vec::new(),
            cursor: Vec::new(),
        }
    }
}

/// Hash-free critical-set extraction over the kernel's scratch-resident
/// phase-I output (local-id tables, packed [`LEDGE_BOOST`] edges, root at
/// local id 0); output-identical to [`critical_from_raw`] (verified by
/// `critical_only_kernel_matches_scalar`).
fn critical_from_scratch(
    globals: &[u32],
    ledges: &[(u32, u32)],
    lseeds: &[u32],
    seed_mask: &BoostMask,
    cs: &mut CritScratch,
) -> Vec<NodeId> {
    let CritScratch {
        out_off,
        out_adj,
        in_off,
        in_adj,
        flags,
        stack,
        cursor,
    } = cs;

    let nn = globals.len();
    let root_l: u32 = 0;

    // Local live CSRs, both directions, per-node lists in edge-scan order.
    out_off.clear();
    out_off.resize(nn + 1, 0);
    in_off.clear();
    in_off.resize(nn + 1, 0);
    for &(lu, pv) in ledges {
        if pv & LEDGE_BOOST == 0 {
            out_off[lu as usize + 1] += 1;
            in_off[pv as usize + 1] += 1;
        }
    }
    for i in 1..=nn {
        out_off[i] += out_off[i - 1];
        in_off[i] += in_off[i - 1];
    }
    out_adj.clear();
    out_adj.resize(out_off[nn] as usize, 0);
    in_adj.clear();
    in_adj.resize(in_off[nn] as usize, 0);
    cursor.clear();
    cursor.extend_from_slice(&out_off[..nn]);
    for &(lu, pv) in ledges {
        if pv & LEDGE_BOOST == 0 {
            out_adj[cursor[lu as usize] as usize] = pv;
            cursor[lu as usize] += 1;
        }
    }
    cursor.clear();
    cursor.extend_from_slice(&in_off[..nn]);
    for &(lu, pv) in ledges {
        if pv & LEDGE_BOOST == 0 {
            in_adj[cursor[pv as usize] as usize] = lu;
            cursor[pv as usize] += 1;
        }
    }

    flags.clear();
    flags.resize(nn, 0);

    // X: live-forward closure of the seeds.
    stack.clear();
    for &ls in lseeds {
        if flags[ls as usize] & X_FLAG == 0 {
            flags[ls as usize] |= X_FLAG;
            stack.push(ls);
        }
    }
    while let Some(u) = stack.pop() {
        let (lo, hi) = (
            out_off[u as usize] as usize,
            out_off[u as usize + 1] as usize,
        );
        for &v in &out_adj[lo..hi] {
            if flags[v as usize] & X_FLAG == 0 {
                flags[v as usize] |= X_FLAG;
                stack.push(v);
            }
        }
    }

    // L: live-backward closure of the root.
    stack.clear();
    flags[root_l as usize] |= L_FLAG;
    stack.push(root_l);
    while let Some(u) = stack.pop() {
        let (lo, hi) = (in_off[u as usize] as usize, in_off[u as usize + 1] as usize);
        for &v in &in_adj[lo..hi] {
            if flags[v as usize] & L_FLAG == 0 {
                flags[v as usize] |= L_FLAG;
                stack.push(v);
            }
        }
    }

    let mut critical: Vec<NodeId> = Vec::new();
    for &(lu, pv) in ledges {
        if pv & LEDGE_BOOST == 0 {
            continue;
        }
        let lv = pv & LEDGE_MASK;
        let gv = globals[lv as usize];
        if flags[lu as usize] & X_FLAG != 0
            && flags[lv as usize] & L_FLAG != 0
            && !seed_mask.contains(NodeId(gv))
            && flags[lv as usize] & SEEN_FLAG == 0
        {
            flags[lv as usize] |= SEEN_FLAG;
            critical.push(NodeId(gv));
        }
    }
    critical
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
    use kboost_graph::GraphBuilder;
    use rand::SeedableRng;

    /// Maps the kernel's local-id edge list back to the scalar oracle's
    /// global `(from, to, is_boost)` representation.
    fn kernel_global_edges(s: &GenScratch) -> Vec<(u32, u32, bool)> {
        s.ledges
            .iter()
            .map(|&(f, pt)| {
                (
                    s.globals[f as usize],
                    s.globals[(pt & LEDGE_MASK) as usize],
                    pt & LEDGE_BOOST != 0,
                )
            })
            .collect()
    }

    /// Maps the kernel's local seed ids back to global ids.
    fn kernel_global_seeds(s: &GenScratch) -> Vec<u32> {
        s.lseeds.iter().map(|&l| s.globals[l as usize]).collect()
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

        let soa = gen.soa.as_ref().unwrap();
        let mut rng = SmallRng::seed_from_u64(17);
        let mut scratch = GenScratch::new();
        assert!(matches!(
            gen.phase1_kernel(soa, NodeId(2), &mut rng, 1, None, &mut scratch),
            KernelPhase1::Raw
        ));
        assert_eq!(kernel_global_edges(&scratch), raw.edges);
        assert_eq!(kernel_global_seeds(&scratch), raw.seeds);
    }

    fn er_graph(n: usize, m: usize, seed: u64) -> DiGraph {
        use kboost_graph::generators::erdos_renyi;
        use kboost_graph::probability::ProbabilityModel;
        let mut rng = SmallRng::seed_from_u64(seed);
        erdos_renyi(n, m, ProbabilityModel::Constant(0.35), 2.0, &mut rng)
    }

    #[test]
    fn kernel_phase1_matches_scalar_oracle() {
        // Same seed, same root → identical edges, seeds, and (critically)
        // identical RNG state afterwards, early-Activated rewinds included.
        for gseed in 0..8u64 {
            let g = er_graph(24, 90, gseed);
            let gen = PrrGenerator::new(&g, &[NodeId(0), NodeId(1)], 2);
            let soa = gen.soa.as_ref().unwrap();
            let mut scratch = GenScratch::new();
            for sseed in 0..40u64 {
                for root in [2u32, 7, 23] {
                    let mut rng_s = SmallRng::seed_from_u64(sseed * 1000 + root as u64);
                    let mut rng_k = rng_s.clone();
                    let scalar = gen.phase1(NodeId(root), &mut rng_s, 2);
                    let kernel =
                        gen.phase1_kernel(soa, NodeId(root), &mut rng_k, 2, None, &mut scratch);
                    match (&scalar, &kernel) {
                        (Phase1::Activated, KernelPhase1::Activated)
                        | (Phase1::Hopeless, KernelPhase1::Hopeless) => {}
                        (Phase1::Raw(raw), KernelPhase1::Raw) => {
                            assert_eq!(raw.edges, kernel_global_edges(&scratch));
                            assert_eq!(raw.seeds, kernel_global_seeds(&scratch));
                        }
                        _ => panic!("outcome diverged (gseed {gseed}, sseed {sseed})"),
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
        // consuming no randomness (except for not-drawn sentinels, which
        // only arise on early-Activated samples — those have no stored
        // graph to compare anyway).
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
                    if was != TRACE_NOT_DRAWN && now != TRACE_NOT_DRAWN {
                        assert_eq!(was, now, "coin {i} of node {u} redrawn without a mutation");
                        reused += 1;
                    }
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
        assert_eq!(d.0, 0xd959_b5c7_e7a1_ffc9);
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
}
