//! Flat arena storage for pools of compressed PRR-graphs, built in
//! streaming shards during sampling.
//!
//! PRR-Boost retains `10^5`–`10^7` compressed PRR-graphs and re-traverses
//! them on every `Δ̂` evaluation and greedy round. Storing each graph as an
//! independent [`CompressedPrr`] scatters those traversals across the heap
//! (seven allocations per graph). The [`PrrArena`] concatenates every
//! graph's node table, CSR offsets, packed edges and critical set into one
//! shared `Vec` each, with a fixed-size [`GraphMeta`] record per graph — so
//! a full pool sweep is a linear scan over a handful of flat arrays.
//!
//! # Shard lifecycle
//!
//! The arena is *never* populated by copying finished per-graph objects.
//! Sampling workers each build a [`PrrArenaShard`] per work chunk: Phase-II
//! compression appends node tables, CSR offsets, packed `u32` edges and
//! critical sets straight from the raw PRR-graph into the shard's shared
//! arrays (no intermediate `CompressedPrr` is ever allocated on this path).
//! The sketch pool then merges chunk shards **in chunk order** via
//! [`PrrArena::absorb_shard`]: a handful of bulk `Vec` appends, with the
//! shard's (shard-absolute) CSR offsets and [`GraphMeta`] bases rebased by
//! the receiving arena's current sizes. Converting the final merged shard
//! into a [`PrrArena`] is a move.
//!
//! # Determinism contract
//!
//! Shard contents depend only on the RNG handed to the generator, and
//! chunk shards are absorbed in global chunk-index order, so for a fixed
//! `(base_seed, target sequence)` the final arena is **bit-identical for
//! any thread count**. Shard construction reuses the exact CSR assembly of
//! `CompressedPrr::from_parts`, so a shard-built arena is also
//! byte-equal to a legacy arena built by pushing per-graph `CompressedPrr`
//! payloads (`tests/shard_pipeline.rs` asserts both properties; the legacy
//! path survives only as that equivalence oracle).
//!
//! Per-node edge offsets are stored *absolute* (into the shared edge
//! arrays) as `u32`, capping an arena at `u32::MAX` stored edges — orders
//! of magnitude above the paper's largest runs; [`PrrArena::push`] and
//! [`PrrArena::absorb_shard`] assert the cap.
//!
//! # Tombstones and compaction (online maintenance)
//!
//! The online subsystem (`kboost-online`) refreshes a pool under graph
//! mutations by [`tombstone`](PrrArena::tombstone)-ing stale graphs and
//! absorbing replacement shards. A tombstoned graph's bytes stay in the
//! shared arrays (flagged dead, skipped by every consumer via
//! [`is_live`](PrrArena::is_live)) until
//! [`compact`](PrrArena::compact) rewrites the arena without them.
//! Compaction is *canonicalizing*: the compacted arena is byte-identical
//! to one built by appending the surviving graphs in order onto an empty
//! arena, so an incrementally maintained arena compares equal (`==`) to a
//! from-scratch rebuild with the same live content — the equivalence the
//! online property tests assert.
//!
//! [`PrrGraphView`] is the borrowed form of one graph — either a slice of
//! an arena or a borrow of a standalone [`CompressedPrr`] — and owns the
//! evaluation primitives `f_R(B)` and the B-augmented critical set.

use kboost_diffusion::sim::BoostMask;
use kboost_graph::NodeId;
use kboost_rrset::sketch::SketchShard;

use crate::compress::CompressedParts;
use crate::footprint::{FootprintColumn, FootprintMode};
use crate::graph::{pack_edge, unpack_edge, Augmented, CompressedPrr, PrrEvalScratch, SUPER_SEED};

thread_local! {
    /// Reusable backward-CSR count/cursor buffer for
    /// [`PrrArena::push_parts`] (cleared per graph, grown on demand) —
    /// same idiom as the generation scratch in `gen.rs`.
    static BWD_SCRATCH: std::cell::RefCell<Vec<u32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Per-graph record: where the graph's slices live in the shared arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GraphMeta {
    /// Local id of the root.
    root: u32,
    /// Start of this graph's entries in `globals`.
    node_base: u32,
    /// Number of local nodes (super-seed included).
    nodes: u32,
    /// Start of this graph's `nodes + 1` entries in `fwd_off` / `bwd_off`.
    off_base: u32,
    /// Start of this graph's entries in `critical`.
    crit_base: u32,
    /// Number of critical nodes.
    crit_len: u32,
    /// Phase-I edge count before compression.
    uncompressed: u32,
}

/// A flat, append-only pool of compressed PRR-graphs.
///
/// Filled by absorbing sampling shards (see the module docs for the
/// lifecycle); immutable once filled and shared across worker threads by
/// reference (all parallel consumers only read). `PartialEq` compares the
/// raw storage arrays — two arenas are equal iff they are byte-equal,
/// which is what the determinism and shard-vs-legacy equivalence tests
/// assert. `Clone` exists for the transactional-epoch fault tests, which
/// snapshot the arena before an epoch and assert byte-identity after a
/// rollback.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct PrrArena {
    meta: Vec<GraphMeta>,
    /// Concatenated local → global id tables.
    globals: Vec<u32>,
    /// Concatenated per-node forward CSR offsets, absolute into `fwd`.
    fwd_off: Vec<u32>,
    /// Concatenated packed forward edges.
    fwd: Vec<u32>,
    /// Concatenated per-node backward CSR offsets, absolute into `bwd`.
    bwd_off: Vec<u32>,
    /// Concatenated packed backward edges.
    bwd: Vec<u32>,
    /// Concatenated critical sets.
    critical: Vec<NodeId>,
    /// Tombstone flags, parallel to `meta`. Lazily allocated: empty means
    /// every graph is live (the invariant batch-built arenas keep), and
    /// [`compact`](Self::compact) restores the empty state — so two arenas
    /// with identical live content compare equal regardless of tombstone
    /// history once compacted.
    dead: Vec<bool>,
    /// Number of `true` entries in `dead`.
    num_dead: usize,
    /// Per-stored-graph edge-space footprints (exact staleness only;
    /// empty column in [`FootprintMode::Off`]).
    fp: FootprintColumn,
    /// Footprints of *empty* samples (activated / hopeless / cover-less),
    /// which store no graph but still need refreshing when their
    /// phase-I exploration touched a mutated edge.
    empty_fp: FootprintColumn,
    /// Tombstone flags for `empty_fp` entries, same lazy semantics as
    /// `dead`.
    empty_dead: Vec<bool>,
    /// Number of `true` entries in `empty_dead`.
    num_empty_dead: usize,
}

impl PrrArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an arena by pushing per-graph `CompressedPrr`s in order —
    /// the legacy copy path, kept as the equivalence oracle for the shard
    /// pipeline (tests only; the production path is
    /// [`absorb_shard`](Self::absorb_shard)).
    pub fn from_graphs<I: IntoIterator<Item = CompressedPrr>>(graphs: I) -> Self {
        let mut arena = PrrArena::new();
        for g in graphs {
            arena.push(&g);
        }
        arena
    }

    /// Unwraps the final merged sampling shard into an arena (a move — the
    /// shard's arrays *are* the arena's arrays).
    pub fn from_shard(shard: PrrArenaShard) -> Self {
        shard.0
    }

    /// Asserts the shared-array growth stays within the `u32` offset caps.
    ///
    /// Every stored offset and meta base — including each graph's *end*
    /// edge offset, which equals the resulting array length — must fit in
    /// a `u32`, so each resulting length is capped at `u32::MAX`.
    /// `add_off` is the true `fwd_off`/`bwd_off` growth (`nodes + 1` per
    /// appended graph).
    fn assert_caps(
        &self,
        add_nodes: usize,
        add_off: usize,
        add_fwd: usize,
        add_bwd: usize,
        add_crit: usize,
    ) {
        const LIMIT: u64 = u32::MAX as u64;
        assert!(
            self.fwd.len() as u64 + add_fwd as u64 <= LIMIT
                && self.bwd.len() as u64 + add_bwd as u64 <= LIMIT,
            "PrrArena exceeds the u32 stored-edge cap"
        );
        assert!(
            self.globals.len() as u64 + add_nodes as u64 <= LIMIT
                && self.fwd_off.len() as u64 + add_off as u64 <= LIMIT
                && self.critical.len() as u64 + add_crit as u64 <= LIMIT,
            "PrrArena exceeds a u32 shared-array cap"
        );
    }

    /// Appends one compressed graph, copying its arrays into the shared
    /// storage with offsets rebased (legacy/oracle path).
    pub fn push(&mut self, g: &CompressedPrr) {
        let n = g.globals.len();
        let fwd_base = self.fwd.len() as u64;
        let bwd_base = self.bwd.len() as u64;
        self.assert_caps(n, n + 1, g.fwd.len(), g.bwd.len(), g.critical.len());

        self.meta.push(GraphMeta {
            root: g.root,
            node_base: self.globals.len() as u32,
            nodes: n as u32,
            off_base: self.fwd_off.len() as u32,
            crit_base: self.critical.len() as u32,
            crit_len: g.critical.len() as u32,
            uncompressed: g.uncompressed_edges,
        });
        self.globals.extend_from_slice(&g.globals);
        self.fwd_off
            .extend(g.fwd_offsets.iter().map(|&o| fwd_base as u32 + o));
        self.fwd.extend_from_slice(&g.fwd);
        self.bwd_off
            .extend(g.bwd_offsets.iter().map(|&o| bwd_base as u32 + o));
        self.bwd.extend_from_slice(&g.bwd);
        self.critical.extend_from_slice(&g.critical);
        if !self.dead.is_empty() {
            self.dead.push(false);
        }
    }

    /// Appends one compressed graph together with its sampling footprint
    /// (legacy/oracle path of the exact-staleness pipeline).
    pub fn push_with_footprint(
        &mut self,
        g: &CompressedPrr,
        footprint: &[u32],
        mode: FootprintMode,
    ) {
        debug_assert!(mode.is_on());
        self.push(g);
        self.fp.ensure_mode(mode);
        self.fp.push(footprint);
    }

    /// [`push_with_footprint`](Self::push_with_footprint) with the
    /// sample's phase-I trace sidecar attached
    /// ([`FootprintMode::Trace`]).
    pub fn push_with_footprint_trace(
        &mut self,
        g: &CompressedPrr,
        footprint: &[u32],
        trace: &[u8],
        mode: FootprintMode,
    ) {
        debug_assert!(mode.is_on());
        self.push(g);
        self.fp.ensure_mode(mode);
        self.fp.push_with_trace(footprint, trace);
    }

    /// Records the footprint of an *empty* sample (one that stored no
    /// graph). No-op in [`FootprintMode::Off`].
    pub fn push_empty_footprint(&mut self, footprint: &[u32], mode: FootprintMode) {
        self.push_empty_footprint_trace(footprint, &[], mode);
    }

    /// [`push_empty_footprint`](Self::push_empty_footprint) with the
    /// sample's phase-I trace sidecar attached
    /// ([`FootprintMode::Trace`]).
    pub fn push_empty_footprint_trace(
        &mut self,
        footprint: &[u32],
        trace: &[u8],
        mode: FootprintMode,
    ) {
        if !mode.is_on() {
            return;
        }
        self.empty_fp.ensure_mode(mode);
        self.empty_fp.push_with_trace(footprint, trace);
        if !self.empty_dead.is_empty() {
            self.empty_dead.push(false);
        }
    }

    /// Appends one graph straight from Phase-II adjacency output,
    /// assembling both CSR halves in place in the shared arrays — the
    /// streaming counterpart of [`CompressedPrr::from_adjacency`] followed
    /// by [`push`](Self::push), producing byte-identical storage.
    pub(crate) fn push_parts(&mut self, parts: &CompressedParts) {
        let n = parts.globals.len();
        debug_assert_eq!(parts.adj_off.len(), n + 1);
        debug_assert_eq!(parts.globals[0], SUPER_SEED);
        let m = parts.adj.len();
        let fwd_base = self.fwd.len();
        let bwd_base = self.bwd.len();
        self.assert_caps(n, n + 1, m, m, parts.critical.len());

        self.meta.push(GraphMeta {
            root: parts.root,
            node_base: self.globals.len() as u32,
            nodes: n as u32,
            off_base: self.fwd_off.len() as u32,
            crit_base: self.critical.len() as u32,
            crit_len: parts.critical.len() as u32,
            uncompressed: parts.uncompressed,
        });
        self.globals.extend_from_slice(&parts.globals);
        self.critical.extend_from_slice(&parts.critical);
        if !self.dead.is_empty() {
            self.dead.push(false);
        }

        // Forward CSR: the parts offsets rebased to this arena, plus the
        // packed edges.
        self.fwd_off
            .extend(parts.adj_off.iter().map(|&o| fwd_base as u32 + o));
        self.fwd.reserve(m);
        self.fwd
            .extend(parts.adj.iter().map(|&(to, boost)| pack_edge(to, boost)));

        // Backward CSR: count in-degrees, prefix-sum into absolute
        // offsets, then scatter (same edge order as `from_adjacency`).
        // One reusable thread-local buffer serves as both the count and
        // the scatter-cursor array, keeping this hot path allocation-free.
        BWD_SCRATCH.with_borrow_mut(|cursor| {
            cursor.clear();
            cursor.resize(n, 0);
            for &(to, _) in &parts.adj {
                cursor[to as usize] += 1;
            }
            // Prefix-sum: emit the absolute offsets and convert each count
            // into its node's scatter start position in the same pass.
            let mut off = bwd_base as u32;
            self.bwd_off.push(off);
            for c in cursor.iter_mut() {
                let count = *c;
                *c = off;
                off += count;
                self.bwd_off.push(off);
            }
            self.bwd.resize(bwd_base + m, 0);
            for from in 0..n {
                let (lo, hi) = (
                    parts.adj_off[from] as usize,
                    parts.adj_off[from + 1] as usize,
                );
                for &(to, boost) in &parts.adj[lo..hi] {
                    self.bwd[cursor[to as usize] as usize] = pack_edge(from as u32, boost);
                    cursor[to as usize] += 1;
                }
            }
        });
    }

    /// Streaming-path variant of [`push_parts`](Self::push_parts) that
    /// also records the sample's footprint.
    pub(crate) fn push_parts_fp(
        &mut self,
        parts: &CompressedParts,
        footprint: &[u32],
        mode: FootprintMode,
    ) {
        debug_assert!(mode.is_on());
        self.push_parts(parts);
        self.fp.ensure_mode(mode);
        self.fp.push(footprint);
    }

    /// [`push_parts_fp`](Self::push_parts_fp) with the sample's phase-I
    /// trace sidecar attached ([`FootprintMode::Trace`]).
    pub(crate) fn push_parts_fp_trace(
        &mut self,
        parts: &CompressedParts,
        footprint: &[u32],
        trace: &[u8],
        mode: FootprintMode,
    ) {
        debug_assert!(mode.is_on());
        self.push_parts(parts);
        self.fp.ensure_mode(mode);
        self.fp.push_with_trace(footprint, trace);
    }

    /// Merges a sampling shard into this arena by bulk `Vec` appends,
    /// rebasing the shard's (shard-absolute) CSR offsets and `GraphMeta`
    /// bases by this arena's current sizes. Callers must absorb shards in
    /// chunk order — that ordering is the determinism contract.
    pub fn absorb_shard(&mut self, shard: PrrArenaShard) {
        let other = shard.0;
        debug_assert!(
            other.dead.is_empty() && other.empty_dead.is_empty(),
            "shards never hold tombstones"
        );
        if self.meta.is_empty() && self.empty_fp.count() == 0 {
            // First shard: adopt its arrays wholesale (all bases are 0).
            // A previously filled arena can only be empty again if it was
            // never tombstoned or was compacted, so no dead flags to keep.
            // (A latent footprint *mode* on an empty column carries no
            // content — column equality ignores it — so adopting the
            // shard's columns wholesale is safe here too.)
            debug_assert!(self.dead.is_empty() && self.empty_dead.is_empty());
            *self = other;
            return;
        }
        self.assert_caps(
            other.globals.len(),
            other.fwd_off.len(),
            other.fwd.len(),
            other.bwd.len(),
            other.critical.len(),
        );
        let node_base = self.globals.len() as u32;
        let off_base = self.fwd_off.len() as u32;
        let crit_base = self.critical.len() as u32;
        let fwd_base = self.fwd.len() as u32;
        let bwd_base = self.bwd.len() as u32;

        self.meta.extend(other.meta.iter().map(|m| GraphMeta {
            root: m.root,
            node_base: m.node_base + node_base,
            nodes: m.nodes,
            off_base: m.off_base + off_base,
            crit_base: m.crit_base + crit_base,
            crit_len: m.crit_len,
            uncompressed: m.uncompressed,
        }));
        self.globals.extend_from_slice(&other.globals);
        self.fwd_off
            .extend(other.fwd_off.iter().map(|&o| o + fwd_base));
        self.fwd.extend_from_slice(&other.fwd);
        self.bwd_off
            .extend(other.bwd_off.iter().map(|&o| o + bwd_base));
        self.bwd.extend_from_slice(&other.bwd);
        self.critical.extend_from_slice(&other.critical);
        if !self.dead.is_empty() {
            self.dead.resize(self.meta.len(), false);
        }
        self.fp.absorb(&other.fp);
        self.empty_fp.absorb(&other.empty_fp);
        if !self.empty_dead.is_empty() {
            self.empty_dead.resize(self.empty_fp.count(), false);
        }
    }

    /// Marks graph `i` dead: skipped by estimation/selection, its bytes
    /// reclaimed by the next [`compact`](Self::compact).
    pub fn tombstone(&mut self, i: usize) {
        if self.dead.is_empty() {
            self.dead.resize(self.meta.len(), false);
        }
        assert!(!self.dead[i], "graph {i} tombstoned twice");
        self.dead[i] = true;
        self.num_dead += 1;
    }

    /// Whether graph `i` is live (not tombstoned).
    #[inline]
    pub fn is_live(&self, i: usize) -> bool {
        self.dead.is_empty() || !self.dead[i]
    }

    /// Number of tombstoned graphs.
    pub fn num_dead(&self) -> usize {
        self.num_dead
    }

    /// Number of live (non-tombstoned) graphs.
    pub fn num_live(&self) -> usize {
        self.meta.len() - self.num_dead
    }

    /// Marks the empty-sample footprint `i` dead — the empty-sample
    /// counterpart of [`tombstone`](Self::tombstone), used by exact
    /// staleness when a mutation hits an empty sample's exploration.
    pub fn tombstone_empty(&mut self, i: usize) {
        if self.empty_dead.is_empty() {
            self.empty_dead.resize(self.empty_fp.count(), false);
        }
        assert!(!self.empty_dead[i], "empty sample {i} tombstoned twice");
        self.empty_dead[i] = true;
        self.num_empty_dead += 1;
    }

    /// Whether empty-sample footprint `i` is live.
    #[inline]
    pub fn empty_is_live(&self, i: usize) -> bool {
        self.empty_dead.is_empty() || !self.empty_dead[i]
    }

    /// Number of retained empty-sample footprints (dead included until
    /// compaction; 0 unless a footprint mode is on).
    pub fn num_empty_footprints(&self) -> usize {
        self.empty_fp.count()
    }

    /// Number of tombstoned empty-sample footprints.
    pub fn num_empty_dead(&self) -> usize {
        self.num_empty_dead
    }

    /// Fraction of retained entries — stored graphs plus empty-sample
    /// footprints — that are tombstoned (`0.0` when nothing is stored).
    /// Without footprint retention this is exactly the stored-graph dead
    /// fraction of the original tombstone lifecycle.
    pub fn dead_fraction(&self) -> f64 {
        let entries = self.meta.len() + self.empty_fp.count();
        if entries == 0 {
            0.0
        } else {
            (self.num_dead + self.num_empty_dead) as f64 / entries as f64
        }
    }

    /// A canonical live-only copy: byte-identical to an arena built by
    /// appending the surviving graphs in order onto an empty one.
    pub fn compacted(&self) -> PrrArena {
        let mut out = PrrArena::new();
        for (i, &m) in self.meta.iter().enumerate() {
            if !self.is_live(i) {
                continue;
            }
            let (nb, n) = (m.node_base as usize, m.nodes as usize);
            let ob = m.off_base as usize;
            let cb = m.crit_base as usize;
            let (fwd_lo, fwd_hi) = (self.fwd_off[ob] as usize, self.fwd_off[ob + n] as usize);
            let (bwd_lo, bwd_hi) = (self.bwd_off[ob] as usize, self.bwd_off[ob + n] as usize);

            out.meta.push(GraphMeta {
                root: m.root,
                node_base: out.globals.len() as u32,
                nodes: m.nodes,
                off_base: out.fwd_off.len() as u32,
                crit_base: out.critical.len() as u32,
                crit_len: m.crit_len,
                uncompressed: m.uncompressed,
            });
            let fwd_base = out.fwd.len() as u32;
            let bwd_base = out.bwd.len() as u32;
            out.globals.extend_from_slice(&self.globals[nb..nb + n]);
            out.fwd_off.extend(
                self.fwd_off[ob..=ob + n]
                    .iter()
                    .map(|&o| o - fwd_lo as u32 + fwd_base),
            );
            out.fwd.extend_from_slice(&self.fwd[fwd_lo..fwd_hi]);
            out.bwd_off.extend(
                self.bwd_off[ob..=ob + n]
                    .iter()
                    .map(|&o| o - bwd_lo as u32 + bwd_base),
            );
            out.bwd.extend_from_slice(&self.bwd[bwd_lo..bwd_hi]);
            out.critical
                .extend_from_slice(&self.critical[cb..cb + m.crit_len as usize]);
        }
        out.fp = self.fp.compacted(|i| self.is_live(i));
        out.empty_fp = self.empty_fp.compacted(|i| self.empty_is_live(i));
        out
    }

    /// Rewrites the arena without its tombstoned graphs and empty-sample
    /// footprints (no-op when none are dead), restoring the canonical
    /// all-live representation.
    pub fn compact(&mut self) {
        if self.num_dead > 0 || self.num_empty_dead > 0 {
            *self = self.compacted();
        } else {
            // Still drop all-false flag arrays so the representation is
            // canonical (equal to a never-tombstoned arena).
            self.dead = Vec::new();
            self.empty_dead = Vec::new();
        }
    }

    /// Number of stored graphs.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the arena holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Borrows graph `i`.
    #[inline]
    pub fn graph(&self, i: usize) -> PrrGraphView<'_> {
        let m = self.meta[i];
        let (nb, n) = (m.node_base as usize, m.nodes as usize);
        let ob = m.off_base as usize;
        let cb = m.crit_base as usize;
        PrrGraphView {
            root: m.root,
            globals: &self.globals[nb..nb + n],
            fwd_off: &self.fwd_off[ob..ob + n + 1],
            fwd: &self.fwd,
            bwd_off: &self.bwd_off[ob..ob + n + 1],
            bwd: &self.bwd,
            critical: &self.critical[cb..cb + m.crit_len as usize],
            uncompressed: m.uncompressed,
        }
    }

    /// Iterates over all stored graphs.
    pub fn iter(&self) -> impl Iterator<Item = PrrGraphView<'_>> {
        (0..self.len()).map(|i| self.graph(i))
    }

    /// Total local nodes across all graphs.
    pub fn total_nodes(&self) -> usize {
        self.globals.len()
    }

    /// Total stored (compressed) edges across all graphs.
    pub fn total_edges(&self) -> usize {
        self.fwd.len()
    }

    /// Total critical-set entries across all graphs.
    pub fn total_critical(&self) -> usize {
        self.critical.len()
    }

    /// Approximate heap bytes of the shared storage (tombstoned graphs
    /// included until the next [`compact`](Self::compact)).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.meta.len() * size_of::<GraphMeta>()
            + self.globals.len() * size_of::<u32>()
            + (self.fwd_off.len() + self.bwd_off.len()) * size_of::<u32>()
            + (self.fwd.len() + self.bwd.len()) * size_of::<u32>()
            + self.critical.len() * size_of::<NodeId>()
            + (self.dead.len() + self.empty_dead.len()) * size_of::<bool>()
            + self.footprint_memory_bytes()
    }

    /// The footprint retention mode this arena carries (Off unless it
    /// was built by a footprint-retaining source).
    pub fn footprint_mode(&self) -> FootprintMode {
        if self.fp.mode().is_on() {
            self.fp.mode()
        } else {
            self.empty_fp.mode()
        }
    }

    /// The per-stored-graph footprint column.
    pub fn footprints(&self) -> &FootprintColumn {
        &self.fp
    }

    /// The empty-sample footprint column.
    pub fn empty_footprints(&self) -> &FootprintColumn {
        &self.empty_fp
    }

    /// Approximate heap bytes held by the footprint columns alone — the
    /// memory overhead of exact staleness detection.
    pub fn footprint_memory_bytes(&self) -> usize {
        self.fp.memory_bytes() + self.empty_fp.memory_bytes()
    }

    /// Approximate heap bytes attributable to the *live* graphs alone —
    /// what [`memory_bytes`](Self::memory_bytes) would report right after
    /// a compaction.
    pub fn live_memory_bytes(&self) -> usize {
        use std::mem::size_of;
        if self.num_dead == 0 && self.num_empty_dead == 0 {
            return self.memory_bytes()
                - (self.dead.len() + self.empty_dead.len()) * size_of::<bool>();
        }
        let mut bytes = 0usize;
        for (i, &m) in self.meta.iter().enumerate() {
            if !self.is_live(i) {
                continue;
            }
            let n = m.nodes as usize;
            let ob = m.off_base as usize;
            let fwd = (self.fwd_off[ob + n] - self.fwd_off[ob]) as usize;
            let bwd = (self.bwd_off[ob + n] - self.bwd_off[ob]) as usize;
            bytes += size_of::<GraphMeta>()
                + n * size_of::<u32>()
                + 2 * (n + 1) * size_of::<u32>()
                + (fwd + bwd) * size_of::<u32>()
                + m.crit_len as usize * size_of::<NodeId>();
        }
        bytes
            + self.fp.live_memory_bytes(|i| self.is_live(i))
            + self.empty_fp.live_memory_bytes(|i| self.empty_is_live(i))
    }
}

/// A per-worker-chunk slice of arena content, built in place during
/// sampling.
///
/// Workers append each boostable graph's tables directly from Phase-II
/// compression (no intermediate `CompressedPrr`); the sketch pool merges
/// finished shards in chunk order with [`PrrArena::absorb_shard`], and the
/// final merged shard becomes the pool's [`PrrArena`] by a move
/// ([`PrrArena::from_shard`]). Internally a shard *is* an arena whose
/// offsets are shard-absolute — rebasing happens once, at absorb time.
#[derive(Default, Debug, PartialEq, Eq)]
pub struct PrrArenaShard(PrrArena);

impl PrrArenaShard {
    /// An empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of graphs appended so far.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the shard holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Approximate heap bytes of the shard's storage.
    pub fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    /// Borrows the shard's content as an arena (for inspection/tests).
    pub fn as_arena(&self) -> &PrrArena {
        &self.0
    }

    /// Appends one graph straight from Phase-II output.
    pub(crate) fn push_parts(&mut self, parts: &CompressedParts) {
        self.0.push_parts(parts);
    }

    /// Appends one graph plus its sampling footprint (exact-staleness
    /// pipeline).
    pub(crate) fn push_parts_fp(
        &mut self,
        parts: &CompressedParts,
        footprint: &[u32],
        mode: FootprintMode,
    ) {
        self.0.push_parts_fp(parts, footprint, mode);
    }

    /// Records an empty sample's footprint (exact-staleness pipeline).
    pub(crate) fn push_empty_footprint(&mut self, footprint: &[u32], mode: FootprintMode) {
        self.0.push_empty_footprint(footprint, mode);
    }

    /// Trace-sidecar variant of
    /// [`push_parts_fp`](Self::push_parts_fp)
    /// (conditional-refresh pipeline).
    pub(crate) fn push_parts_fp_trace(
        &mut self,
        parts: &CompressedParts,
        footprint: &[u32],
        trace: &[u8],
        mode: FootprintMode,
    ) {
        self.0.push_parts_fp_trace(parts, footprint, trace, mode);
    }

    /// Trace-sidecar variant of
    /// [`push_empty_footprint`](Self::push_empty_footprint).
    pub(crate) fn push_empty_footprint_trace(
        &mut self,
        footprint: &[u32],
        trace: &[u8],
        mode: FootprintMode,
    ) {
        self.0.push_empty_footprint_trace(footprint, trace, mode);
    }
}

/// Chunk shards merge in chunk order: `absorb` appends `later`'s graphs
/// after this shard's own, rebasing offsets — exactly what
/// [`PrrArena::absorb_shard`] does.
impl SketchShard for PrrArenaShard {
    fn absorb(&mut self, later: Self) {
        self.0.absorb_shard(later);
    }
}

/// A borrowed compressed PRR-graph: evaluation interface shared by
/// arena-resident graphs and standalone [`CompressedPrr`]s.
#[derive(Clone, Copy)]
pub struct PrrGraphView<'a> {
    root: u32,
    globals: &'a [u32],
    /// Per-node forward offsets (`n + 1` entries), absolute into `fwd`.
    fwd_off: &'a [u32],
    fwd: &'a [u32],
    bwd_off: &'a [u32],
    bwd: &'a [u32],
    critical: &'a [NodeId],
    uncompressed: u32,
}

impl<'a> PrrGraphView<'a> {
    /// Assembles a view from raw parts (used by [`CompressedPrr::view`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        root: u32,
        globals: &'a [u32],
        fwd_off: &'a [u32],
        fwd: &'a [u32],
        bwd_off: &'a [u32],
        bwd: &'a [u32],
        critical: &'a [NodeId],
        uncompressed: u32,
    ) -> Self {
        PrrGraphView {
            root,
            globals,
            fwd_off,
            fwd,
            bwd_off,
            bwd,
            critical,
            uncompressed,
        }
    }

    /// Number of local nodes (super-seed included).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.globals.len()
    }

    /// Number of stored edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        (self.fwd_off[self.num_nodes()] - self.fwd_off[0]) as usize
    }

    /// Number of phase-I edges before compression.
    pub fn uncompressed_edges(&self) -> u32 {
        self.uncompressed
    }

    /// The critical nodes `C_R = {v : f_R({v}) = 1}` (global ids).
    pub fn critical(&self) -> &'a [NodeId] {
        self.critical
    }

    /// The local id of the root.
    pub fn root_local(&self) -> u32 {
        self.root
    }

    /// The global id of local node `v`, or `None` for the super-seed.
    pub fn global_of(&self, v: u32) -> Option<NodeId> {
        let g = self.globals[v as usize];
        (g != SUPER_SEED).then_some(NodeId(g))
    }

    /// Packed forward edges of local node `u`.
    #[inline]
    fn out_edges(&self, u: u32) -> &'a [u32] {
        let (lo, hi) = (
            self.fwd_off[u as usize] as usize,
            self.fwd_off[u as usize + 1] as usize,
        );
        &self.fwd[lo..hi]
    }

    /// Packed backward edges of local node `u` (sources of in-edges).
    #[inline]
    fn in_edges(&self, u: u32) -> &'a [u32] {
        let (lo, hi) = (
            self.bwd_off[u as usize] as usize,
            self.bwd_off[u as usize + 1] as usize,
        );
        &self.bwd[lo..hi]
    }

    #[inline]
    fn traversable(&self, to: u32, boosted_edge: bool, boost: &BoostMask) -> bool {
        if !boosted_edge {
            return true;
        }
        let g = self.globals[to as usize];
        g != SUPER_SEED && boost.contains(NodeId(g))
    }

    /// Calls `visit` for every distinct boost-edge head (global id) of this
    /// graph — the nodes whose boosting can change `f_R`. Heads are emitted
    /// in ascending local-id order without duplicates (a head's in-edges
    /// are contiguous in the backward CSR).
    pub fn for_each_boost_head(&self, mut visit: impl FnMut(NodeId)) {
        for v in 0..self.num_nodes() as u32 {
            if self.in_edges(v).iter().any(|&e| unpack_edge(e).1) {
                let g = self.globals[v as usize];
                if g != SUPER_SEED {
                    visit(NodeId(g));
                }
            }
        }
    }

    /// Evaluates `f_R(B)`: does boosting `B` activate the root?
    pub fn f(&self, boost: &BoostMask, scratch: &mut PrrEvalScratch) -> bool {
        self.f_by(|v| boost.contains(v), scratch)
    }

    /// [`f`](Self::f) with an arbitrary boost-membership predicate — the
    /// hook the batched `evaluate_many` kernel (`kboost-core`) uses to
    /// test candidate bitsets without materializing a [`BoostMask`] per
    /// candidate. Same traversal, so for any predicate that agrees with
    /// a mask the result is identical to [`f`](Self::f) on that mask.
    pub fn f_by(&self, boosted: impl Fn(NodeId) -> bool, scratch: &mut PrrEvalScratch) -> bool {
        let n = self.num_nodes();
        scratch.fwd_mark.clear();
        scratch.fwd_mark.resize(n, false);
        scratch.stack.clear();
        scratch.fwd_mark[0] = true;
        scratch.stack.push(0);
        while let Some(u) = scratch.stack.pop() {
            if u == self.root {
                return true;
            }
            for &e in self.out_edges(u) {
                let (v, boosted_edge) = unpack_edge(e);
                let pass = !boosted_edge || {
                    let g = self.globals[v as usize];
                    g != SUPER_SEED && boosted(NodeId(g))
                };
                if !scratch.fwd_mark[v as usize] && pass {
                    scratch.fwd_mark[v as usize] = true;
                    scratch.stack.push(v);
                }
            }
        }
        false
    }

    /// Computes the *B-augmented critical set*: nodes `v ∉ B` such that
    /// `f_R(B ∪ {v}) = 1`. Appends the global ids to `out` (deduplicated
    /// within this graph). Returns [`Augmented::Covered`] without touching
    /// `out` when `f_R(B) = 1` already.
    ///
    /// Soundness: `f_R(B∪{v}) = 1` iff some boost edge `(u, v)` has `u`
    /// reachable from the super-seed and `v` reaching the root, both under
    /// `B`-traversability — take the first entry of `v` on any witnessing
    /// path for the forward half and the last exit for the backward half.
    pub fn augmented_critical(
        &self,
        boost: &BoostMask,
        scratch: &mut PrrEvalScratch,
        out: &mut Vec<NodeId>,
    ) -> Augmented {
        let n = self.num_nodes();
        scratch.fwd_mark.clear();
        scratch.fwd_mark.resize(n, false);
        scratch.stack.clear();
        scratch.fwd_mark[0] = true;
        scratch.stack.push(0);
        while let Some(u) = scratch.stack.pop() {
            for &e in self.out_edges(u) {
                let (v, boosted_edge) = unpack_edge(e);
                if !scratch.fwd_mark[v as usize] && self.traversable(v, boosted_edge, boost) {
                    scratch.fwd_mark[v as usize] = true;
                    scratch.stack.push(v);
                }
            }
        }
        if scratch.fwd_mark[self.root as usize] {
            return Augmented::Covered;
        }

        scratch.bwd_mark.clear();
        scratch.bwd_mark.resize(n, false);
        scratch.stack.clear();
        scratch.bwd_mark[self.root as usize] = true;
        scratch.stack.push(self.root);
        while let Some(u) = scratch.stack.pop() {
            for &e in self.in_edges(u) {
                // Edge (v → u); traversable if live or head `u` boosted.
                let (v, boosted_edge) = unpack_edge(e);
                if !scratch.bwd_mark[v as usize] && self.traversable(u, boosted_edge, boost) {
                    scratch.bwd_mark[v as usize] = true;
                    scratch.stack.push(v);
                }
            }
        }

        // For every boost edge (u, v): if u is forward-reachable and v
        // backward-reaches the root, boosting v closes the gap.
        let before = out.len();
        for u in 0..n as u32 {
            if !scratch.fwd_mark[u as usize] {
                continue;
            }
            for &e in self.out_edges(u) {
                let (v, boosted_edge) = unpack_edge(e);
                if boosted_edge && scratch.bwd_mark[v as usize] {
                    let g = self.globals[v as usize];
                    if g != SUPER_SEED && !boost.contains(NodeId(g)) {
                        let id = NodeId(g);
                        if !out[before..].contains(&id) {
                            out.push(id);
                        }
                    }
                }
            }
        }
        Augmented::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SUPER_SEED;

    /// super --boost--> a --live--> root, plus super --boost--> root.
    fn sample(a: u32, r: u32) -> CompressedPrr {
        let out_adj = vec![
            vec![(1u32, true), (2u32, true)],
            vec![(2u32, false)],
            vec![],
        ];
        CompressedPrr::from_adjacency(
            2,
            vec![SUPER_SEED, a, r],
            &out_adj,
            vec![NodeId(a), NodeId(r)],
            42,
        )
    }

    #[test]
    fn arena_roundtrips_graphs() {
        let g1 = sample(10, 20);
        let g2 = sample(5, 6);
        let mut arena = PrrArena::new();
        arena.push(&g1);
        arena.push(&g2);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.total_nodes(), 6);
        assert_eq!(arena.total_edges(), 6);
        assert_eq!(arena.total_critical(), 4);
        assert!(arena.memory_bytes() > 0);

        let mut scratch = PrrEvalScratch::default();
        for (view, original) in arena.iter().zip([&g1, &g2]) {
            assert_eq!(view.num_nodes(), original.num_nodes());
            assert_eq!(view.num_edges(), original.num_edges());
            assert_eq!(view.critical(), original.critical());
            assert_eq!(view.uncompressed_edges(), original.uncompressed_edges());
            assert_eq!(view.root_local(), original.root_local());
            for boosted in [vec![], vec![NodeId(10)], vec![NodeId(5)], vec![NodeId(20)]] {
                let mask = BoostMask::from_nodes(30, &boosted);
                let mut s2 = PrrEvalScratch::default();
                assert_eq!(view.f(&mask, &mut scratch), original.f(&mask, &mut s2));
                let mut out_view = Vec::new();
                let mut out_orig = Vec::new();
                let a = view.augmented_critical(&mask, &mut scratch, &mut out_view);
                let b = original.augmented_critical(&mask, &mut s2, &mut out_orig);
                assert_eq!(out_view, out_orig);
                assert!(matches!(
                    (a, b),
                    (Augmented::Covered, Augmented::Covered) | (Augmented::Open, Augmented::Open)
                ));
            }
        }
    }

    #[test]
    fn from_graphs_preserves_order() {
        let arena = PrrArena::from_graphs(vec![sample(1, 2), sample(3, 4)]);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.graph(1).critical(), &[NodeId(3), NodeId(4)]);
    }

    /// `CompressedParts` mirroring [`sample`]'s adjacency.
    fn sample_parts(a: u32, r: u32) -> crate::compress::CompressedParts {
        crate::compress::CompressedParts {
            root: 2,
            globals: vec![SUPER_SEED, a, r],
            adj_off: vec![0, 2, 3, 3],
            adj: vec![(1u32, true), (2u32, true), (2u32, false)],
            critical: vec![NodeId(a), NodeId(r)],
            uncompressed: 42,
        }
    }

    #[test]
    fn shard_build_matches_legacy_push_bytes() {
        // In-place CSR assembly must be byte-identical to the
        // from_adjacency + push copy path.
        let legacy = PrrArena::from_graphs(vec![sample(10, 20), sample(5, 6)]);
        let mut shard = PrrArenaShard::new();
        shard.push_parts(&sample_parts(10, 20));
        shard.push_parts(&sample_parts(5, 6));
        assert_eq!(PrrArena::from_shard(shard), legacy);
    }

    #[test]
    fn absorb_shard_rebases_offsets() {
        // Build [g1] ++ [g2, g3] by absorbing two shards and compare with
        // the sequential single-shard build.
        let mut a = PrrArenaShard::new();
        a.push_parts(&sample_parts(10, 20));
        let mut b = PrrArenaShard::new();
        b.push_parts(&sample_parts(5, 6));
        b.push_parts(&sample_parts(7, 8));
        let mut merged = PrrArena::new();
        merged.absorb_shard(a);
        merged.absorb_shard(b);

        let mut all = PrrArenaShard::new();
        for (x, y) in [(10, 20), (5, 6), (7, 8)] {
            all.push_parts(&sample_parts(x, y));
        }
        assert_eq!(merged, PrrArena::from_shard(all));
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.graph(2).critical(), &[NodeId(7), NodeId(8)]);
        // Views still evaluate correctly after rebasing.
        let mut scratch = PrrEvalScratch::default();
        let mask = BoostMask::from_nodes(30, &[NodeId(7)]);
        assert!(merged.graph(2).f(&mask, &mut scratch));
        assert!(!merged.graph(1).f(&mask, &mut scratch));
    }

    #[test]
    fn absorb_into_empty_is_a_move() {
        let mut shard = PrrArenaShard::new();
        shard.push_parts(&sample_parts(1, 2));
        let bytes = shard.memory_bytes();
        let mut arena = PrrArena::new();
        arena.absorb_shard(shard);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.memory_bytes(), bytes);
    }

    #[test]
    fn boost_heads_deduplicated() {
        // Two boost edges into the same head must report it once.
        let out_adj = vec![vec![(1u32, true), (2, false)], vec![], vec![(1u32, true)]];
        let g =
            CompressedPrr::from_adjacency(1, vec![SUPER_SEED, 7, 9], &out_adj, vec![NodeId(7)], 3);
        let mut arena = PrrArena::new();
        arena.push(&g);
        let mut heads = Vec::new();
        arena.graph(0).for_each_boost_head(|v| heads.push(v));
        assert_eq!(heads, vec![NodeId(7)]);
    }

    #[test]
    fn empty_arena() {
        let arena = PrrArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.iter().count(), 0);
        assert_eq!(arena.dead_fraction(), 0.0);
    }

    #[test]
    fn tombstone_then_compact_matches_fresh_build() {
        // Dropping the middle graph must leave bytes identical to an arena
        // that never contained it.
        let mut arena = PrrArena::from_graphs(vec![sample(1, 2), sample(3, 4), sample(5, 6)]);
        assert!(arena.is_live(1));
        arena.tombstone(1);
        assert!(!arena.is_live(1));
        assert!(arena.is_live(0) && arena.is_live(2));
        assert_eq!(arena.num_dead(), 1);
        assert_eq!(arena.num_live(), 2);
        assert!((arena.dead_fraction() - 1.0 / 3.0).abs() < 1e-12);

        let fresh = PrrArena::from_graphs(vec![sample(1, 2), sample(5, 6)]);
        assert_eq!(arena.compacted(), fresh);
        assert!(arena.live_memory_bytes() < arena.memory_bytes());
        assert_eq!(arena.live_memory_bytes(), fresh.memory_bytes());

        arena.compact();
        assert_eq!(arena, fresh);
        assert_eq!(arena.num_dead(), 0);
        assert_eq!(arena.live_memory_bytes(), arena.memory_bytes());
    }

    #[test]
    fn absorb_after_tombstone_keeps_flags_consistent() {
        let mut arena = PrrArena::from_graphs(vec![sample(1, 2), sample(3, 4)]);
        arena.tombstone(0);
        let mut shard = PrrArenaShard::new();
        shard.push_parts(&sample_parts(7, 8));
        arena.absorb_shard(shard);
        assert_eq!(arena.len(), 3);
        assert!(!arena.is_live(0));
        assert!(arena.is_live(1) && arena.is_live(2));
        // Compacting after the absorb equals building the two live graphs.
        let fresh = PrrArena::from_graphs(vec![sample(3, 4), sample(7, 8)]);
        assert_eq!(arena.compacted(), fresh);
    }

    #[test]
    fn compact_without_dead_is_canonicalizing_noop() {
        let mut arena = PrrArena::from_graphs(vec![sample(1, 2)]);
        let before = arena.memory_bytes();
        arena.compact();
        assert_eq!(arena.memory_bytes(), before);
        assert_eq!(arena, PrrArena::from_graphs(vec![sample(1, 2)]));
    }

    #[test]
    #[should_panic(expected = "tombstoned twice")]
    fn double_tombstone_panics() {
        let mut arena = PrrArena::from_graphs(vec![sample(1, 2)]);
        arena.tombstone(0);
        arena.tombstone(0);
    }
}
