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
//!   sampling and distance pruning at `k`, stopped at the seeds' live
//!   closure `X` (a popped node's `X` status is settled by a backward
//!   walk over live edges that stops at the first seed or known-`X`
//!   node), and classification into *activated* / *hopeless* /
//!   *boostable*. One search, generic over its coin source: the kernel's
//!   packed lane, the scalar oracle's per-edge draws, or a conditional
//!   replay of a retained coin trace.
//! * [`compress`] — Phase II: merge the live-reachable seed region into a
//!   super-seed (phase I hands over only its boundary), remove nodes off
//!   all super-seed→root paths or beyond the `k`-boost budget, and
//!   shortcut live-reaching nodes straight to the root. Compression
//!   preserves `f_R(B)` for every `|B| ≤ k`.
//! * [`graph`] — the compressed representation with `f_R(B)` evaluation,
//!   critical nodes `C_R = {v : f_R({v}) = 1}`, and the *B-augmented*
//!   critical set used by the greedy `Δ̂` selection.
//! * [`source`] — [`SketchGenerator`](kboost_rrset::SketchGenerator)
//!   adapters: the full source streams compressed PRR-graphs into arena
//!   shards (PRR-Boost), the light source keeps only critical sets
//!   (PRR-Boost-LB), and the one legacy per-graph source, capturing
//!   footprints and traces as its [`FootprintMode`] keeps them, survives
//!   as the equivalence oracle of the shard pipeline and of the online
//!   replay.
//! * [`arena`] — flat shared storage for retained PRR-graph pools: one
//!   `Vec` each of node tables, CSR offsets and packed edges, built in
//!   per-chunk [`PrrArenaShard`]s during sampling and merged in chunk
//!   order by bulk append with offset rebasing, with [`PrrGraphView`] as
//!   the borrowed per-graph evaluation interface. Supports tombstoning
//!   and order-preserving compaction so the online maintainer
//!   (`kboost-online`) can retire stale graphs in place.
//! * [`footprint`] — per-sample *edge-space footprints* (the nodes whose
//!   in-lists phase I read) retained as flat [`FootprintColumn`]s —
//!   delta-varint compressed blobs (long ones interned), a
//!   hybrid exact-below / bloom-above split, or the trace-retaining
//!   tier that additionally stores each sample's
//!   queried-edge outcomes for conditional replay — for the online
//!   subsystem's exact staleness detection. Stored graphs and *empty*
//!   samples both carry one, so no sample is ever silently unrefreshable.
//! * [`select`] — the greedy NodeSelection over `Δ̂` (Algorithm 2, line 4):
//!   an inverted coverage index with incremental vote maintenance, plus
//!   the naive full re-traversal greedy as the equivalence oracle.

pub mod arena;
pub mod compress;
pub mod footprint;
pub mod gen;
pub mod graph;
#[cfg(test)]
mod reference;
pub mod select;
pub mod source;

pub use arena::{PrrArena, PrrArenaShard, PrrGraphView};
pub use footprint::{FootprintColumn, FootprintMode, FootprintQuery, HYBRID_BLOOM_BITS};
pub use gen::{PrrGenerator, PrrOutcome, RawPrr};
pub use graph::{CompressedPrr, PrrEvalScratch};
pub use select::{greedy_delta_selection, greedy_delta_selection_naive, DeltaSelection};
pub use source::{LegacyPrrSource, LegacySample, PrrFullSource, PrrLbSource};
