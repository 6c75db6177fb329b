//! `kboost-online` — incremental PRR-pool maintenance for evolving graphs.
//!
//! The paper's pipeline builds the PRR-graph pool once for a frozen
//! network, but a production boost service faces a network that changes
//! continuously: edge probabilities re-learned from fresh action logs, new
//! follows, unfollows. Sampling dominates the pipeline's cost by four
//! orders of magnitude over selection (`BENCH_prr.json`), so rebuilding
//! the pool on every change is the one thing a live system cannot afford.
//! This crate keeps an existing pool *serving* while paying only for the
//! share of samples a change actually invalidates.
//!
//! * [`mutation`] — the [`MutationLog`](mutation::MutationLog): edge
//!   probability/boost updates, insertions and removals, batched into
//!   numbered epochs, plus the pure
//!   [`apply_mutations`](mutation::apply_mutations) graph rebuild.
//! * [`maintain`] — the [`PoolMaintainer`](maintain::PoolMaintainer):
//!   maps a mutation batch to the set of stale PRR-graphs through a
//!   node → graphs inverted index
//!   ([`NodeIndex`](kboost_prr::NodeIndex), shared with the greedy
//!   selection), tombstones them in the
//!   [`PrrArena`](kboost_prr::PrrArena), resamples exactly that share
//!   under the epoch-extended determinism contract, and compacts the
//!   arena when tombstones exceed a threshold. The naive
//!   [`rebuild_from_history`](maintain::rebuild_from_history) replay —
//!   legacy per-graph samples
//!   ([`LegacySample`](kboost_prr::LegacySample)), eager filtering, no
//!   tombstones, no index — is the equivalence oracle: one epoch loop
//!   for every staleness rule, varying only its verdict and its
//!   refresh.
//!
//! # Determinism contract, extended
//!
//! Offline sampling seeds chunk `c` from `(base_seed, c)`. Online refresh
//! adds the epoch: the resampling of epoch `e` seeds its chunks from
//! `(base_seed, e, c)` (see
//! [`epoch_stream_seed`](kboost_rrset::sketch::epoch_stream_seed)), with
//! epoch 0 — the initial build — bit-identical to the offline stream.
//! Stale-set detection is a pure function of the live arena and the
//! batch, and chunk shards merge in chunk order, so the maintained pool
//! after any mutation history is **bit-identical for any thread count**,
//! and its compacted arena is **byte-equal** to the oracle's from-scratch
//! replay at the same epoch.
//!
//! # Staleness rules
//!
//! [`Staleness`](maintain::Staleness) picks how stale samples are found:
//!
//! * **`Approximate`** (default, zero memory overhead) — a stored sample
//!   is invalidated iff a mutated edge's endpoint appears in its node
//!   table, the only footprint a compressed PRR-graph retains. This
//!   **under-detects**: samples whose phase-I exploration touched a
//!   mutated edge but kept neither endpoint past compression, and empty
//!   (activated / hopeless) samples, are never refreshed, so `Δ̂` drifts
//!   from a fresh pool's distribution as mutations accumulate. At
//!   `exp_online`'s default scale (20k nodes, 40k samples, ~10 % churn)
//!   epoch 1 invalidated 672 samples, against 8,738 under exact
//!   detection (4,536 stored graphs + 4,202 empty samples).
//! * **`ExactCompressed`** — sampling retains each sample's *edge-space
//!   footprint* (the set of nodes whose in-edge lists phase I enumerated
//!   — see `kboost_prr::footprint`), for stored graphs **and** empty
//!   samples, as delta-varint blobs interned through a per-column
//!   dictionary (identical footprints — which dominate at pool scale —
//!   are stored once). A mutation of edge `(u, v)` invalidates exactly
//!   the samples whose footprint contains the head `v` — the samples
//!   whose generation actually queried the mutated slot. Retained
//!   samples are therefore bitwise what regeneration over the new graph
//!   would produce (`tests/online_pool.rs` proves it per sample), and
//!   `exp_online`'s recorded incremental-vs-rebuild drift is exactly
//!   zero. The cost is footprint memory.
//! * **`ExactHybrid { bloom_above }`** — compressed storage for
//!   footprints up to `bloom_above` nodes, fixed
//!   [`HYBRID_BLOOM_BITS`](kboost_prr::HYBRID_BLOOM_BITS)-bit
//!   fingerprints for the heavy tail (`bloom_above = 0` fingerprints
//!   every non-empty footprint). Caps the per-sample cost of
//!   high-exploration samples at bloom semantics: exact verdicts below
//!   the threshold, never-miss above it, where a false positive costs
//!   one redundant refresh. The `online.invalidated_bloom` counter
//!   reports how many refreshes a fingerprint caused.
//! * **`ExactTrace`** — exact verdicts *plus conditional refresh*:
//!   phase I retains each sample's categorical coin outcomes alongside
//!   the footprint, and an invalidated sample is **replayed** — coins on
//!   unmutated in-edge slots are reused, only mutated slots redraw, each
//!   replay on its own `(base_seed, epoch, ordinal)` stream. By the
//!   principle of deferred decisions the replayed pool is **identical in
//!   distribution to a fresh pool over the mutated graph**, closing the
//!   redraw-conditioning caveat below.
//!
//! All rules are pure functions of the retained bytes and the batch, so
//! the bit-identity and `incremental == rebuild` byte-equality contracts
//! hold per mode.
//!
//! One statistical caveat is shared by every rule *except `ExactTrace`*:
//! invalidated slots are redrawn as *unconditioned* fresh samples, while
//! the invalidation event itself selects slots whose traces explored the
//! mutated region — a conditionally non-average population. Under a
//! redraw-mode rule the maintained pool is therefore not identical in
//! distribution to an independently sampled fresh pool (exact modes
//! remove the under-detection error, which dominates, but not this
//! redraw-conditioning effect). `tests/estimator_accuracy.rs` pins the
//! redraw-tier gap on a fixed history and asserts positively that
//! `ExactTrace`'s conditional replay stays inside the fresh-pool
//! confidence band on the same history, with zero replay drift.
//!
//! # Transactional epochs — the fault-tolerance contract
//!
//! Every epoch applies atomically, or not at all:
//!
//! * **Ingress validation.** [`validate_mutations`] rejects batches that
//!   reference out-of-universe nodes or self-loops with a typed
//!   [`MutationError`] before anything is touched; `apply_mutations`
//!   returns `Result` and never panics.
//! * **Compute-then-commit.**
//!   [`apply_epoch`](maintain::PoolMaintainer::apply_epoch) computes the
//!   mutated graph, stale sets, and the
//!   refresh pool against the *pre-epoch* state; only a fully sampled
//!   refresh is committed. A refresh that is cancelled by a
//!   [`Terminator`](kboost_rrset::Terminator) (see
//!   [`apply_epoch_within`](maintain::PoolMaintainer::apply_epoch_within))
//!   or that panics mid-sampling is contained (`catch_unwind`) and
//!   surfaced as [`OnlineError::Interrupted`]; the maintainer's graph,
//!   epoch counter, and arena are then **byte-identical** to their
//!   pre-epoch state, and the identical batch can be retried verbatim —
//!   the retry converges to the same bytes as an uninterrupted apply
//!   (fault-injection proptests in `tests/online_pool.rs` drive random
//!   mutation histories with cancellations and panics at random chunk
//!   boundaries and check both properties against the
//!   [`rebuild_from_history`] oracle).
//! * **Bounded builds.**
//!   [`build_within`](maintain::PoolMaintainer::build_within) polls its
//!   terminator at stage boundaries that are
//!   multiples of the chunk size, so a cancelled build yields a smaller
//!   pool that is a bit-identical prefix of the full build's stream.

pub mod error;
pub mod maintain;
pub mod mutation;

pub use error::{InterruptCause, MutationError, OnlineError};
pub use maintain::{
    rebuild_from_history, EpochReport, MaintainerOptions, PoolMaintainer, Staleness,
};
pub use mutation::{apply_mutations, validate_mutations, EpochBatch, Mutation, MutationLog};
