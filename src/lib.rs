//! `kboost` — a reproduction of *"Boosting Information Spread: An
//! Algorithmic Approach"* (Lin, Chen, Lui; ICDE 2017 / arXiv:1602.03111).
//!
//! # Start here: the engine
//!
//! [`engine`] is the single typed entry point over the whole workspace:
//! an [`engine::EngineBuilder`] validates graph, seed set, budget `k`,
//! sampling parameters (ε/ℓ or the failure probability δ), RNG seed and
//! thread count into an [`engine::Engine`]; every solver — PRR-Boost,
//! PRR-Boost-LB, the Sandwich Approximation, the exact tree algorithms
//! and all Section-VII baselines — runs through the one
//! [`engine::BoostAlgorithm`] interface and returns a uniform
//! [`engine::Solution`] (boost set, `Δ̂`/`µ̂`, sandwich certificate,
//! timing and peak-memory stats). The same handle owns the online
//! lifecycle: [`engine::Engine::apply_mutations`] drives the incremental
//! pool maintainer, so one object serves queries while the graph
//! evolves. Configuration mistakes surface as typed
//! [`engine::KboostError`]s at build time, not panics inside a sampler.
//!
//! # Quickstart
//!
//! Figure 1 of the paper (`s → v0 → v1`), end to end through the engine:
//! with one boost available, boosting `v0` (node 1) beats `v1` — gains
//! compound down the path.
//!
//! ```
//! use kboost::engine::{Algorithm, EngineBuilder, Sampling};
//! use kboost::graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
//! b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
//! let g = b.build().unwrap();
//!
//! let mut engine = EngineBuilder::new(g)
//!     .seeds([NodeId(0)])
//!     .k(1)
//!     .threads(2)
//!     .seed(21)
//!     .sampling(Sampling::Fixed { samples: 30_000 })
//!     .build()
//!     .expect("validated configuration");
//!
//! let solution = engine.solve(&Algorithm::Sandwich).expect("solvable");
//! assert_eq!(solution.boost_set, vec![NodeId(1)]);
//! // Δ̂ approximates the exact Δ_S({v0}) = 0.22 of the paper.
//! let delta_hat = solution.delta_hat.unwrap();
//! assert!((delta_hat - 0.22).abs() < 0.05, "Δ̂ = {delta_hat}");
//! // The sandwich certificate records both branches and the µ̂/Δ̂ ratio.
//! let cert = solution.certificate.unwrap();
//! assert!(cert.ratio > 0.0 && cert.ratio <= 1.05);
//! ```
//!
//! # Module map
//!
//! * [`engine`] — the unified `EngineBuilder` / `Engine` /
//!   `BoostAlgorithm` API above: **new code should enter here**.
//! * [`graph`] — directed-graph substrate (CSR with base/boosted edge
//!   probabilities), generators, IO, statistics.
//! * [`diffusion`] — the Independent Cascade and influence-boosting
//!   simulators, an exact exhaustive evaluator for small graphs, and a
//!   parallel Monte-Carlo estimator.
//! * [`rrset`] — Reverse-Reachable sets and the IMM sampling framework.
//! * [`prr`] — Potentially Reverse Reachable graphs: generation
//!   (Algorithm 1), compression, evaluation, critical nodes, the flat
//!   storage arena, and the index-accelerated greedy `Δ̂` selection.
//! * [`core`] — PRR-Boost, PRR-Boost-LB, the Sandwich Approximation, and
//!   the budget-allocation heuristic.
//! * [`online`] — incremental PRR-pool maintenance for evolving graphs:
//!   mutation logs, epoch refresh, tombstone compaction.
//! * [`serve`] — concurrent query serving: epoch-pinned immutable pool
//!   snapshots published by pointer swap, and the batched
//!   `evaluate_many` query surface.
//! * [`obs`] — vendored zero-dependency observability: counters,
//!   gauges, log-bucketed histograms, span timers and a JSONL event
//!   sink behind one `Recorder` trait (see **Observability** below).
//! * [`tree`] — bidirected-tree algorithms: linear-time exact boosted
//!   influence (Lemmas 5–7), Greedy-Boost, and the DP-Boost FPTAS.
//! * [`baselines`] — HighDegreeGlobal/Local, PageRank, MoreSeeds, Random.
//! * [`datasets`] — synthetic stand-ins for the paper's four social
//!   networks, calibrated to Table 1.
//!
//! The deep module paths stay re-exported on purpose: the pre-engine
//! tests and benches wire `SketchPool → PrrPool → greedy` by hand and
//! thereby double as the equivalence oracle — selections through the
//! engine are bit-identical to the hand-wired pipeline under the
//! determinism contract (`tests/engine_api.rs` asserts it at 1 and 7
//! threads).
//!
//! # The parallel PRR engine underneath
//!
//! The hot path — PRR-graph sampling and greedy boost selection — is
//! multi-threaded end to end, under one **determinism contract**: results
//! depend only on the seed and the requested sample targets, never on the
//! thread count or the OS scheduler.
//!
//! * **Sampling** ([`rrset::sketch::SketchPool`]): work is cut into
//!   fixed-size chunks seeded from `(base_seed, global_chunk_index)`;
//!   workers pull chunks from a shared counter and results merge in chunk
//!   order. Per-thread generation scratch (the stamped node table of
//!   Algorithm 1) is reused across samples via thread-locals.
//! * **Storage** ([`prr::arena::PrrArena`]): boostable PRR-graphs are
//!   flattened into shared arrays — node tables, CSR offsets, packed
//!   edges (head + boost flag in one `u32`), critical sets — built
//!   **during sampling**: each worker chunk appends Phase-II output
//!   straight into a [`prr::arena::PrrArenaShard`], and chunk shards
//!   merge into the pool arena by bulk append with offset rebasing.
//! * **Selection** ([`prr::select::greedy_delta_selection`]): an inverted
//!   coverage index maps each node to the PRR-graphs where it heads a
//!   boost edge; greedy rounds update vote counts incrementally.
//!   Bit-identical to the naive full re-traversal
//!   ([`prr::select::greedy_delta_selection_naive`]), which property
//!   tests enforce; `BENCH_prr.json` tracks the measured speedup.
//! * **Estimation** (`core::PrrPool`): `Δ̂` / `µ̂` count exact hits in
//!   one sweep of the arena, skipping tombstoned graphs; the batch
//!   evaluator fans out over contiguous arena ranges on large pools and
//!   sums exact per-range counts.
//!
//! # The X-pruned sampling kernel
//!
//! Phase-I generation — the hot path — is one search (`prr::gen`):
//! a backward 0-1 BFS from the root that expands only nodes proven to lie
//! outside `X`, the seeds' live closure, which phase II merges into a
//! super-seed anyway. A popped node's `X` status is settled by a walk
//! backward over live edges that stops at the first seed or known-`X`
//! node; a walk that runs out proves everything it visited outside `X`.
//! Every node the search reads draws its whole in-list once, so a sample
//! reads ≈140 nodes and ≈1.5k coins at the 60k-node benchmark scale,
//! where the full BFS it replaced read ≈5.1k nodes and ≈27k coins. For a
//! fixed world the compressed graph, critical set and outcome class are
//! those of the full BFS (a world-equivalence suite in `prr::gen` pins it
//! against the reference full BFS kept for tests).
//!
//! The search is generic over its coin source. The **kernel** draws from
//! the packed lane; the **scalar oracle** draws one
//! `rng.random::<f64>()` per coin against the exact probabilities and
//! must match the kernel byte-for-byte (`tests/sampler_kernel.rs` proves
//! it across graph families, thread counts, footprint modes, and
//! interruption points); conditional replay of `ExactTrace` coin traces
//! reuses an old trace's coins and draws the rest exactly where a fresh
//! sample would. The legacy per-graph oracle ([`prr::LegacyPrrSource`])
//! and the online replay oracle built on it draw scalar coins.
//!
//! * **Packed lane lifecycle**: [`graph::DiGraph::in_edge_soa`] builds
//!   one 8-byte record per in-edge — the head and the 16-bit coin
//!   thresholds `floor(p·2¹⁶)` of `p'` and `p` — in CSR in-edge order. The
//!   kernel settles a coin by comparing `bits >> 48` of the drawn `u64`
//!   with the record and reads the exact probabilities from the graph's
//!   CSR only on a 16-bit tie ([`graph::coin_at_least`]), so its verdicts
//!   are the scalar oracle's. Offsets and exact probabilities are read
//!   from the graph itself, never copied. Sources build the lane **once
//!   per generator**, and every pool build or online mutation epoch
//!   constructs a fresh generator (`online::maintain` rebuilds sources
//!   per epoch), which is what keeps the lane coherent with the evolving
//!   graph — there is no incremental lane update to get wrong.
//! * **Stream order**: every coin source consumes exactly one `u64` per
//!   coin, in the search's read order, so kernel and scalar pools share
//!   the chunk-seeding determinism contract (and the two can interleave
//!   freely, sample by sample).
//! * **Scratch reuse rules**: all per-sample state — the epoch-stamped
//!   per-node `{stamp, local-id}` table (the only per-graph-node array),
//!   the sample-local search state (`X` status, in-edge blocks, live
//!   out-chains, walk stamps, distances), the BFS deque, edge/seed lists
//!   and the compression core arrays — lives in thread-local scratch,
//!   valid for one sample (stamp == round) and reused across samples
//!   without clearing. Steady-state sampling performs no heap allocation
//!   and no hashing; phase I emits *sample-local* node ids directly, so
//!   phase II skips its global→local relabeling pass, and the PRR-Boost-LB
//!   critical set is read off the search's own `X` statuses and
//!   distances.
//!
//! `benches/sampling.rs` tracks the kernel-vs-scalar ratio per graph
//! family; `BENCH_prr.json` records `samples_per_sec_kernel`,
//! `kernel_speedup` and the phase-I work counters
//! (`phase1_nodes_per_sample`, `phase1_coins_per_sample`) at the standard
//! 60k-node scale. The two coin sources differ only in what a coin
//! costs, so the kernel's edge over the scalar oracle is modest (≈1.1×).
//!
//! # Online maintenance
//!
//! Sampling dominates the pipeline (minutes) while selection is
//! milliseconds, so a service over a *changing* network must not rebuild
//! the pool per change. The [`online`] subsystem — driven through
//! [`engine::Engine::apply_mutations`] — keeps a pool live under edge
//! mutations:
//!
//! * **Mutation epochs** ([`online::mutation::MutationLog`]): probability
//!   updates, insertions and removals batch into numbered epochs; epoch 0
//!   is the initial build.
//! * **Epoch seeding** ([`rrset::sketch::epoch_stream_seed`]): refresh
//!   chunks of epoch `e` are seeded from `(base_seed, e, chunk_index)` —
//!   the determinism contract extends to mutation histories, so a
//!   maintained pool is bit-identical for any thread count.
//! * **Staleness rules** ([`online::maintain::Staleness`], selected via
//!   [`engine::EngineBuilder::staleness`]): `Approximate` (default)
//!   marks a stored sample stale iff a mutated edge's endpoint appears
//!   in its node table — zero memory overhead, but samples whose
//!   phase-I footprint was compressed away, and empty samples, are
//!   never refreshed (documented under-detection). The exact rules
//!   retain each sample's *edge-space footprint* ([`prr::footprint`]) —
//!   the set of nodes whose in-edge lists the sampler enumerated — for
//!   stored **and** empty samples, so a mutation of edge `(u, v)`
//!   invalidates exactly the samples whose generation queried `v`'s
//!   in-edge slot. Two tiers trade footprint memory against verdict
//!   precision: `ExactCompressed` interns delta-varint footprints
//!   (exact verdicts); `ExactHybrid { bloom_above }` keeps small
//!   footprints compressed and fingerprints only the heavy tail (never
//!   misses, may over-refresh). `ExactTrace` additionally retains phase-I coin outcomes and
//!   **replays** invalidated samples — reusing coins on unmutated
//!   in-edge slots, redrawing only mutated ones — so the maintained
//!   pool is distribution-identical to a fresh pool over the mutated
//!   graph. The memory trade is footprint bytes vs exactness
//!   ([`engine::SolveStats::footprint_bytes`], `BENCH_online.json`'s
//!   `footprint_overhead`).
//! * **Tombstone lifecycle** ([`prr::arena::PrrArena`]): stale samples,
//!   found by one scan over the live entries (node tables or retained
//!   footprints, by rule), are tombstoned in place — stored graphs in
//!   the arena, empty samples in the footprint column — and exactly
//!   that share is resampled, keeping the estimator denominator
//!   constant. Compaction is canonicalizing, so the maintained arena
//!   (footprint columns included) stays byte-equal to a from-scratch
//!   replay under the same rule
//!   ([`online::maintain::rebuild_from_history`], the equivalence
//!   oracle; `tests/online_pool.rs` asserts it property-wise, the
//!   exact mode's recorded drift is zero by construction, and
//!   `exp_online` tracks speedup, drift and footprint overhead in
//!   `BENCH_online.json`). Under the redraw-mode rules refreshed slots
//!   are unconditioned fresh draws (see the `kboost-online` crate docs
//!   for the conditioning caveat that implies); `ExactTrace`'s
//!   conditional replay closes it.
//!
//! # Serving & snapshot rotation
//!
//! One `&mut Engine` serializes every read behind every mutation epoch;
//! a service with real traffic cannot. [`engine::Engine::serving`]
//! decouples the two clocks through [`serve`]: the maintainer publishes
//! an immutable [`serve::PoolSnapshot`] — epoch stamp, graph, seeds,
//! pool, all by value — after **every committed epoch**, through a
//! vendored double-buffer pointer swap ([`serve::SnapSwap`]; `arc-swap`
//! is unavailable offline). Query threads clone the
//! [`serve::SnapshotService`] handle and answer `Δ̂`/`µ̂`/
//! `evaluate_many` on pinned snapshots, lock-free, while the next epoch
//! samples and commits off to the side.
//!
//! The contract, enforced by `tests/serve.rs` and `exp_service`:
//!
//! * **Epoch pinning**: [`serve::SnapshotService::pin`] returns an
//!   `Arc` of the latest *committed* epoch. Every query through one pin
//!   is answered by one frozen pool — byte-identical to a pinned oracle
//!   of that epoch for the pin's whole lifetime, no matter how many
//!   epochs commit concurrently. Readers wanting the head re-pin per
//!   query (an atomic load plus an `Arc` clone).
//! * **Publish ordering**: there is one publisher (the maintainer), so
//!   published epochs are strictly increasing, and the swap's
//!   release/acquire ordering means a reader that observes epoch
//!   `e + 1` observes it fully built — no torn reads. A rolled-back
//!   epoch publishes nothing: readers keep seeing the pre-epoch
//!   snapshot, which is exactly the state the maintainer rolled back
//!   to.
//! * **Epoch retirement**: a snapshot is retired when its last pin
//!   drops — reclamation is `Arc`, not the publisher's concern. The
//!   publisher never waits on readers of the *current* epoch; it waits
//!   only for stragglers still cloning out of the slot being recycled
//!   (a window of one `Arc` clone).
//! * **Batched evaluation**: `PoolSnapshot::evaluate_many` scores
//!   hundreds of candidate boost sets in one arena traversal (per-node
//!   candidate bitsets; traversal only for candidates holding one of a
//!   graph's boost-edge heads) and is **bit-for-bit** equal to the
//!   per-set `Engine::evaluate` loop, which is retained as the
//!   equivalence oracle.
//!
//! `BENCH_service.json` records sustained queries/sec under mutation
//! churn, snapshot-publish latency, and epoch-lag percentiles — all
//! read back from the obs histograms the lifecycle itself feeds.
//!
//! # Observability
//!
//! [`obs`] is a vendored, zero-dependency metrics layer (no `metrics`
//! or `tracing` crates offline): one [`obs::Recorder`] trait behind an
//! [`obs::Obs`] handle, with lock-cheap counters and gauges,
//! fixed-bucket log-scaled histograms with nearest-rank percentile
//! readout, RAII span timers for nested stage timing, and a bounded
//! structured-event sink exportable as JSON lines. Attach a sink with
//! [`engine::EngineBuilder::recorder`] and read it back with
//! [`engine::Engine::metrics`]; four hot lifecycles feed it:
//!
//! * **solve** — `engine.solve.{build,convert,select,total}_secs`
//!   stage histograms, `engine.budget_tick` events at sampling stage
//!   boundaries, and the honest `engine.achieved_epsilon` gauge;
//! * **sampler** — per chunk: `sampler.chunk_secs`,
//!   `sampler.chunk_samples_per_sec`, and the
//!   `sampler.{chunks,samples}` counters;
//! * **online epochs** — `online.{epochs,invalidated,resampled,
//!   compactions,rollbacks}` counters, `online.epoch.{apply,refresh}_secs`
//!   spans, `online.epoch_commit` / `online.rollback` (with cause)
//!   events;
//! * **serving** — the `serve.publish_secs` latency histogram (snapshot
//!   clone + pointer swap), the `serve.epoch_lag` histogram fed by
//!   [`serve::SnapshotService::record_query`], the `serve.live_pins`
//!   gauge, and `serve.{pins,publishes,queries}` counters.
//!
//! The contract, enforced by `tests/obs.rs`:
//!
//! * **Zero perturbation**: instrumentation reads clocks and bumps
//!   atomics — it **never consumes randomness**. A full lifecycle
//!   (build, solve, mutation epochs, serving) under an attached
//!   [`obs::MetricsRecorder`] is **byte-identical** to the no-op run,
//!   at any thread count (property-tested at 1 and 7 threads over
//!   random churn histories, arenas compared bitwise).
//! * **Zero cost detached**: without a recorder each instrumentation
//!   point is one predicted-not-taken branch on an `Option` — no clock
//!   reads, no allocation, nothing per *sample* ever (hot loops record
//!   per chunk or per stage only).
//! * **Honest percentiles**: histogram readout is nearest-rank — exact
//!   over the retained raw reservoir, bucket-lower-bound (≤ 12.5 % low)
//!   beyond it — and every summary carries its sample count, because a
//!   p90 over 4 publishes *is* the max and the JSON should say so.
//!
//! # Latency contract & transactional epochs
//!
//! A serving deployment needs two guarantees the batch pipeline above
//! does not give by itself: an answer **by a deadline**, and epochs that
//! **cannot poison** the pool. Both live behind the engine:
//!
//! * **Bounded solves** ([`engine::Engine::solve_within`]): a
//!   composable [`engine::Budget`] — wall-clock deadline, sample cap,
//!   cooperative [`engine::CancelFlag`], optional progress observer
//!   ([`engine::SolveProgress`]: samples so far, running `Δ̂`,
//!   certificate width, and — at stage boundaries — the **current-best
//!   boost set** of a greedy pass over the samples so far, a streaming
//!   improving solution) — is polled at every chunk boundary of the pool
//!   build. Sampling stops cooperatively, selection runs on the partial
//!   pool (always a valid chunk prefix), and the solution reports the
//!   accuracy those samples honestly certify
//!   ([`engine::SolveStats::achieved_epsilon`], by inverting the IMM
//!   sample bound) plus an
//!   [`interrupted`](engine::SolveStats::interrupted) flag.
//!   `solve_within` under [`engine::Budget::unlimited`] is
//!   **bit-identical** to [`engine::Engine::solve`]; a pure sample cap
//!   stops at a deterministic chunk, so even partial pools are
//!   thread-count invariant. `BENCH_prr.json`'s `deadline_curve` tracks
//!   what ε each budget buys.
//! * **Transactional epochs**: mutation batches are validated at
//!   ingress (out-of-universe endpoint, self-loop →
//!   [`engine::KboostError::Mutation`], never a panic, nothing
//!   applied), and an epoch refresh that is cancelled, misses its
//!   budget, or panics rolls the pool back to its **byte-identical**
//!   pre-epoch state ([`engine::KboostError::Interrupted`]) — the same
//!   batch retries verbatim and converges to exactly what an
//!   uninterrupted apply would have produced. `tests/online_pool.rs`
//!   proves it by fault injection: cancellations and panics at random
//!   chunk boundaries over random mutation histories, with arena
//!   byte-equality and retry convergence to the replay oracle.

pub use kboost_baselines as baselines;
pub use kboost_core as core;
pub use kboost_datasets as datasets;
pub use kboost_diffusion as diffusion;
pub use kboost_engine as engine;
pub use kboost_graph as graph;
pub use kboost_obs as obs;
pub use kboost_online as online;
pub use kboost_prr as prr;
pub use kboost_rrset as rrset;
pub use kboost_serve as serve;
pub use kboost_tree as tree;
