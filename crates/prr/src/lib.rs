//! Potentially Reverse Reachable (PRR) graphs — the paper's core sketch.
//!
//! A PRR-graph for a root `r` (Definition 3) fixes a deterministic copy of
//! the network in which each edge is *live* (probability `p`),
//! *live-upon-boost* (`p' − p`) or *blocked* (`1 − p'`), and keeps the part
//! relevant to activating `r` from the seeds. Its central property
//! (Lemma 1): `n · E[f_R(B)] = Δ_S(B)`, where `f_R(B) = 1` iff the root is
//! inactive without boosting but active once `B` is boosted.
//!
//! Modules:
//!
//! * [`gen`] — Algorithm 1: backward 0-1 BFS from the root with status
//!   sampling, distance pruning at `k`, and early classification into
//!   *activated* / *hopeless* / *boostable*.
//! * [`compress`] — Phase II: merge the live-reachable seed region into a
//!   super-seed, remove nodes off all super-seed→root paths or beyond the
//!   `k`-boost budget, and shortcut live-reaching nodes straight to the
//!   root. Compression preserves `f_R(B)` for every `|B| ≤ k`.
//! * [`graph`] — the compressed representation with `f_R(B)` evaluation,
//!   critical nodes `C_R = {v : f_R({v}) = 1}`, and the *B-augmented*
//!   critical set used by the greedy `Δ̂` selection.
//! * [`source`] — [`SketchGenerator`](kboost_rrset::SketchGenerator)
//!   adapters: the full source streams compressed PRR-graphs into arena
//!   shards (PRR-Boost), the light source keeps only critical sets
//!   (PRR-Boost-LB), and the legacy per-graph source survives as the
//!   shard pipeline's equivalence oracle.
//! * [`arena`] — flat shared storage for retained PRR-graph pools: one
//!   `Vec` each of node tables, CSR offsets and packed edges, built in
//!   per-chunk [`PrrArenaShard`]s during sampling and merged in chunk
//!   order by bulk append with offset rebasing, with [`PrrGraphView`] as
//!   the borrowed per-graph evaluation interface. Supports tombstoning
//!   and order-preserving compaction so the online maintainer
//!   (`kboost-online`) can retire stale graphs in place.
//! * [`footprint`] — per-sample *edge-space footprints* (the expanded-node
//!   set of phase I) retained as flat [`FootprintColumn`]s —
//!   delta-varint compressed blobs with an interning dictionary, a
//!   hybrid exact-below / bloom-above split, or the trace-retaining
//!   tier that additionally stores each sample's
//!   queried-edge outcomes for conditional replay — for the online
//!   subsystem's exact staleness detection. Stored graphs and *empty*
//!   samples both carry one, so no sample is ever silently unrefreshable.
//! * [`select`] — the greedy NodeSelection over `Δ̂` (Algorithm 2, line 4):
//!   an inverted coverage index with incremental vote maintenance, plus
//!   the naive full re-traversal greedy as the equivalence oracle. The
//!   index's CSR build is factored out as [`NodeIndex`], which the online
//!   maintainer reuses for its node → graphs invalidation index.

pub mod arena;
pub mod compress;
pub mod footprint;
pub mod gen;
pub mod graph;
pub mod select;
pub mod source;

pub use arena::{PrrArena, PrrArenaShard, PrrGraphView};
pub use footprint::{FootprintColumn, FootprintMode, FootprintQuery, HYBRID_BLOOM_BITS};
pub use gen::{PrrGenerator, PrrOutcome, RawPrr};
pub use graph::{CompressedPrr, PrrEvalScratch};
pub use select::{greedy_delta_selection, greedy_delta_selection_naive, DeltaSelection, NodeIndex};
pub use source::{
    LegacyFpSource, LegacyPrrSource, LegacySample, LegacyTraceSample, LegacyTraceSource,
    PrrFullSource, PrrLbSource,
};
