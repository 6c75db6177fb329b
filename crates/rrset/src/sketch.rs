//! The sketch abstraction and a parallel, shard-accumulating sketch pool.
//!
//! A *sketch* is one random draw of a coverage set `C ⊆ V` such that for a
//! monotone set function `F` being maximized, `F(B) = n · E[I(B ∩ C ≠ ∅)]`.
//! RR-sets realize `F = σ` (influence spread); PRR-graph critical sets
//! realize `F = µ` (the paper's submodular lower bound of the boost).
//!
//! Sketches may be *empty* (e.g. a hopeless or activated PRR-graph): they
//! still count toward the number of samples (the estimator's denominator)
//! but can never be covered.
//!
//! Beyond the cover, a generator may retain arbitrary per-sample data by
//! appending it to a per-chunk [`SketchShard`] — PRR-Boost builds compact
//! arena shards of compressed PRR-graphs this way, in place, with no
//! per-sample heap payloads. Cover-only sources (plain RR-sets, the
//! PRR-Boost-LB critical sets) use the unit shard `()` and pay nothing.
//!
//! Sampling is parallel *and* deterministic: see the [`SketchPool`]
//! determinism contract — pool contents depend only on the base seed and
//! the sequence of targets, never on the thread count.

use kboost_graph::NodeId;
use kboost_obs::Obs;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::terminator::{SampleProgress, Terminator, Unlimited};

/// Per-chunk storage that a [`SketchGenerator`] appends retained sample
/// data into, merged across chunks in deterministic chunk order. The
/// `Default` value is the empty shard.
///
/// Implementations must make [`absorb`](Self::absorb) order-preserving:
/// `a.absorb(b)` appends `b`'s contents *after* `a`'s, so that merging
/// chunk shards in chunk index order yields the same result as generating
/// every sample sequentially into one shard. This is what keeps shard
/// contents thread-count invariant.
pub trait SketchShard: Send + Default {
    /// Appends `later`'s contents after this shard's own.
    fn absorb(&mut self, later: Self);
}

/// The trivial shard for cover-only sketch sources: retains nothing.
impl SketchShard for () {
    fn absorb(&mut self, (): Self) {}
}

/// Per-sample retention as a plain vector — the legacy per-graph storage
/// model, kept as the equivalence oracle for shard-built pools.
impl<T: Send> SketchShard for Vec<T> {
    fn absorb(&mut self, mut later: Self) {
        self.append(&mut later);
    }
}

/// A source of independent random sketches.
///
/// Implementations must be `Sync`: the pool samples from multiple threads,
/// each with its own RNG and its own shard.
pub trait SketchGenerator: Sync {
    /// Per-chunk retained storage; `()` for cover-only sources.
    type Shard: SketchShard;

    /// Universe size `n`: the estimator is `n · (covered / total)`.
    fn universe(&self) -> usize;

    /// Number of candidate nodes eligible for selection; used for the
    /// `ln C(candidates, k)` term of the IMM bounds. Defaults to `n`.
    fn num_candidates(&self) -> usize {
        self.universe()
    }

    /// Draws one sketch, appending any retained data to `shard`, and
    /// returns its cover. An empty cover means the sketch is uncoverable:
    /// it is counted (the estimator's denominator) and contributes nothing
    /// to the pool's cover list — but it MAY still append retained data
    /// (e.g. the PRR pipeline stores cover-less boostable graphs, and its
    /// empty-sample footprint column covers every sample), as long as the
    /// shard keeps its chunk-order merge semantics. Consumers that need a
    /// storage-based empty count must derive it from the shard, not from
    /// [`SketchPool::empty_samples`] (which counts cover-less sketches).
    fn generate(&self, rng: &mut SmallRng, shard: &mut Self::Shard) -> Vec<NodeId>;
}

/// Adapter exposing any sketch source as *cover-only*: per-sample retained
/// data is generated into a transient default shard and dropped, so a pool
/// sampling through the adapter retains no payload bytes while drawing the
/// **same covers from the same randomness** as the wrapped source.
///
/// Used by SSA's validation pool, which only ever evaluates covers — the
/// generation CPU is unchanged, but the validation side no longer holds a
/// second arena it never reads.
pub struct CoverOnly<'a, G>(pub &'a G);

impl<G: SketchGenerator> SketchGenerator for CoverOnly<'_, G> {
    type Shard = ();

    fn universe(&self) -> usize {
        self.0.universe()
    }

    fn num_candidates(&self) -> usize {
        self.0.num_candidates()
    }

    fn generate(&self, rng: &mut SmallRng, (): &mut ()) -> Vec<NodeId> {
        let mut discard = G::Shard::default();
        self.0.generate(rng, &mut discard)
    }
}

/// Number of samples per work chunk. Small enough to load-balance across
/// threads, large enough to amortize scheduling; the pool's contents are
/// the concatenation of per-chunk results in chunk order, so this constant
/// is part of the determinism contract (changing it reshuffles streams).
/// Public because chunk geometry is part of the latency contract too:
/// staged extensions whose intermediate targets are multiples of the
/// chunk size are bit-identical to a one-shot extension, which is how
/// `solve_within` streams progress without perturbing results.
pub const CHUNK_SIZE: u64 = 256;

/// Outcome of [`SketchPool::extend_to_within`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtendStatus {
    /// The pool reached the requested target.
    Completed,
    /// The terminator stopped the extension early; the pool holds a
    /// contiguous chunk prefix of what the full extension would have
    /// produced.
    Interrupted,
}

/// A pool of sampled sketches, extended in deterministic parallel chunks.
///
/// # Determinism contract
///
/// Sampling work is split into fixed-size chunks; chunk `c` (a global
/// counter across all [`extend_to`](Self::extend_to) calls) is generated by
/// an RNG seeded from `(base_seed, c)` alone. Worker threads *pull* chunks
/// from a shared counter, and both the covers and the retained shards are
/// merged in chunk order — so for a fixed `base_seed` and sequence of
/// targets, the pool's contents (covers *and* shard bytes) are identical
/// for **any** thread count (the same contract
/// `kboost_diffusion::monte_carlo` provides for simulation runs).
pub struct SketchPool<S> {
    covers: Vec<Vec<NodeId>>,
    shard: S,
    /// Total number of samples drawn, including empty sketches.
    total: u64,
    /// Number of empty (uncoverable) sketches drawn.
    empties: u64,
    base_seed: u64,
    chunks_issued: u64,
    threads: usize,
    obs: Obs,
}

/// Result of one generated chunk: `(covers, shard, empty_count)`.
type ChunkResult<S> = (Vec<Vec<NodeId>>, S, u64);

/// Derives the RNG seed of global chunk `chunk` (SplitMix64-style mixing,
/// so consecutive chunk indices yield decorrelated streams).
#[inline]
fn chunk_seed(base_seed: u64, chunk: u64) -> u64 {
    let mut z = base_seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the sampling-stream seed of refresh `epoch` from a pool's base
/// seed — the online-maintenance extension of the determinism contract:
/// chunk RNGs are seeded from `(base_seed, epoch, global_chunk_index)`,
/// with the chunk counter restarting at 0 each epoch.
///
/// Epoch 0 **is** the base seed, so offline pools (which never advance the
/// epoch) keep their historical streams bit-for-bit; later epochs get a
/// SplitMix64-mixed stream decorrelated from the initial build and from
/// each other.
#[inline]
pub fn epoch_stream_seed(base_seed: u64, epoch: u64) -> u64 {
    if epoch == 0 {
        return base_seed;
    }
    let mut z = base_seed
        .rotate_left(23)
        .wrapping_add(epoch.wrapping_mul(0xA076_1D64_78BD_642F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<S: SketchShard> SketchPool<S> {
    /// Creates an empty pool. `base_seed` fixes the randomness of all
    /// future sampling; `threads` sets the parallel fan-out.
    pub fn new(base_seed: u64, threads: usize) -> Self {
        SketchPool {
            covers: Vec::new(),
            shard: S::default(),
            total: 0,
            empties: 0,
            base_seed,
            chunks_issued: 0,
            threads: threads.max(1),
            obs: Obs::noop(),
        }
    }

    /// Attaches an observability handle: each generated chunk records its
    /// duration (`sampler.chunk_secs`), throughput
    /// (`sampler.chunk_samples_per_sec`) and the `sampler.chunks` /
    /// `sampler.samples` counters. A detached handle (the default)
    /// records nothing and reads no clock.
    ///
    /// Instrumentation consumes no randomness: pool contents under any
    /// recorder are bit-identical to the no-op run.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Creates an empty pool whose chunk seeds derive from
    /// `(base_seed, epoch, global_chunk_index)` — one fresh pool per
    /// refresh epoch is how the online maintainer resamples invalidated
    /// graphs (see [`epoch_stream_seed`]). `with_epoch(s, 0, t)` is
    /// exactly `new(s, t)`.
    pub fn with_epoch(base_seed: u64, epoch: u64, threads: usize) -> Self {
        Self::new(epoch_stream_seed(base_seed, epoch), threads)
    }

    /// Total number of samples drawn (empty included).
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Number of empty sketches drawn.
    pub fn empty_samples(&self) -> u64 {
        self.empties
    }

    /// The coverage sets of the coverable sketches.
    pub fn covers(&self) -> &[Vec<NodeId>] {
        &self.covers
    }

    /// The merged retained shard (chunk shards absorbed in chunk order).
    pub fn shard(&self) -> &S {
        &self.shard
    }

    /// Extends the pool until `total_samples() >= target`.
    ///
    /// The shortfall is split into [`CHUNK_SIZE`] chunks seeded from
    /// `(base_seed, global_chunk_index)`; workers pull chunks from a shared
    /// counter and each builds its own covers and shard, which are merged
    /// in chunk order — so the pool contents depend only on `base_seed` and
    /// the sequence of targets, not on the thread count or the OS
    /// scheduler.
    pub fn extend_to<G>(&mut self, generator: &G, target: u64)
    where
        G: SketchGenerator<Shard = S>,
    {
        let status = self.extend_to_within(generator, target, &Unlimited);
        debug_assert_eq!(status, ExtendStatus::Completed);
    }

    /// [`extend_to`](Self::extend_to) under a cooperative stop condition,
    /// polled once per chunk *before* the chunk is claimed.
    ///
    /// On an early stop the pool holds a **contiguous chunk prefix** of
    /// the full extension (claimed chunks always complete; should a
    /// timing-dependent terminator leave a gap, the trailing chunks past
    /// it are discarded), and the chunk counter rewinds to the end of
    /// that prefix — so a later `extend_to` call resumes the stream
    /// exactly where the interrupted run left off, and an
    /// interrupted-then-resumed pool is bit-identical to an uninterrupted
    /// one. With [`Unlimited`] this *is* `extend_to`.
    ///
    /// Deterministic terminators (verdicts depending only on
    /// [`SampleProgress`]) stop after a thread-count-invariant chunk
    /// count; see the [`terminator`](crate::terminator) module docs.
    pub fn extend_to_within<G, T>(&mut self, generator: &G, target: u64, term: &T) -> ExtendStatus
    where
        G: SketchGenerator<Shard = S>,
        T: Terminator + ?Sized,
    {
        if self.total >= target {
            return ExtendStatus::Completed;
        }
        let need = target - self.total;
        let num_chunks = need.div_ceil(CHUNK_SIZE);
        let last_quota = need - (num_chunks - 1) * CHUNK_SIZE;
        let first_chunk = self.chunks_issued;
        let base_seed = self.base_seed;
        let base_total = self.total;

        // Progress if sampling stops before local chunk `c`: all
        // lower-indexed chunks of this extension are full-sized (only the
        // final chunk can be short, and stopping before it means it never
        // ran).
        let progress_at = |c: u64| SampleProgress {
            samples: base_total + c * CHUNK_SIZE,
            chunk: first_chunk + c,
        };

        let obs = self.obs.clone();
        let generate_chunk = move |c: u64| -> ChunkResult<S> {
            let quota = if c + 1 == num_chunks {
                last_quota
            } else {
                CHUNK_SIZE
            };
            // Chunk timing only reads the clock when a recorder is
            // attached; the no-op path costs one branch per 256 samples.
            let timer = obs.is_enabled().then(std::time::Instant::now);
            let mut rng = SmallRng::seed_from_u64(chunk_seed(base_seed, first_chunk + c));
            let mut covers = Vec::new();
            let mut shard = S::default();
            let mut empties = 0u64;
            for _ in 0..quota {
                let cover = generator.generate(&mut rng, &mut shard);
                if cover.is_empty() {
                    empties += 1;
                } else {
                    covers.push(cover);
                }
            }
            if let Some(start) = timer {
                let secs = start.elapsed().as_secs_f64();
                obs.observe("sampler.chunk_secs", secs);
                if secs > 0.0 {
                    obs.observe("sampler.chunk_samples_per_sec", quota as f64 / secs);
                }
                obs.counter_add("sampler.chunks", 1);
                obs.counter_add("sampler.samples", quota);
            }
            (covers, shard, empties)
        };

        let workers = self.threads.min(num_chunks as usize);
        if workers <= 1 {
            let mut completed = 0u64;
            for c in 0..num_chunks {
                if term.should_stop(&progress_at(c)) {
                    break;
                }
                self.merge(generate_chunk(c));
                completed += 1;
            }
            self.chunks_issued = first_chunk + completed;
            return if completed == num_chunks {
                ExtendStatus::Completed
            } else {
                ExtendStatus::Interrupted
            };
        }

        // Workers pull chunk indices from one counter. The calling thread
        // is one of them, so an extension spawns `workers - 1` threads and
        // never sleeps waiting for a chunk it could have sampled itself.
        let next = std::sync::atomic::AtomicU64::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let c = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if c >= num_chunks || term.should_stop(&progress_at(c)) {
                    return done;
                }
                done.push((c, generate_chunk(c)));
            }
        };
        let mut results: Vec<(u64, ChunkResult<S>)> = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut results = work();
            for h in helpers {
                results.extend(h.join().expect("sampling worker panicked"));
            }
            results
        });
        results.sort_unstable_by_key(|&(c, _)| c);
        // Merge the contiguous prefix only. A timing-dependent stop can
        // strand a completed chunk past a gap (a worker holding chunk `c`
        // observed the stop after another worker generated `c + 1`);
        // deterministic terminators never gap, so nothing is discarded on
        // their runs.
        let mut completed = 0u64;
        for (c, chunk) in results {
            if c != completed {
                break;
            }
            self.merge(chunk);
            completed += 1;
        }
        self.chunks_issued = first_chunk + completed;
        if completed == num_chunks {
            ExtendStatus::Completed
        } else {
            ExtendStatus::Interrupted
        }
    }

    fn merge(&mut self, (covers, shard, empties): ChunkResult<S>) {
        self.total += covers.len() as u64 + empties;
        self.empties += empties;
        self.covers.extend(covers);
        self.shard.absorb(shard);
    }

    /// Consumes the pool, returning
    /// `(covers, shard, total_samples, empty_samples)` — used to turn the
    /// merged shard into a `PrrPool` arena without any copy stage.
    pub fn into_parts(self) -> (Vec<Vec<NodeId>>, S, u64, u64) {
        (self.covers, self.shard, self.total, self.empties)
    }

    /// Estimated objective value of set `B`:
    /// `n/total · |{sketches covered by B}|`.
    pub fn estimate(&self, universe: usize, b: &[NodeId]) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut member = vec![false; universe];
        for &v in b {
            member[v.index()] = true;
        }
        let covered = self
            .covers
            .iter()
            .filter(|c| c.iter().any(|v| member[v.index()]))
            .count();
        universe as f64 * covered as f64 / self.total as f64
    }

    /// Approximate heap bytes used by the stored coverage sets.
    pub fn cover_memory_bytes(&self) -> usize {
        self.covers
            .iter()
            .map(|c| {
                c.capacity() * std::mem::size_of::<NodeId>() + std::mem::size_of::<Vec<NodeId>>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A degenerate generator: always covers node 0, shard counts calls.
    struct Always;

    impl SketchGenerator for Always {
        type Shard = Vec<()>;
        fn universe(&self) -> usize {
            10
        }
        fn generate(&self, _rng: &mut SmallRng, shard: &mut Vec<()>) -> Vec<NodeId> {
            shard.push(());
            vec![NodeId(0)]
        }
    }

    /// Covers node 0 with probability 1/2, otherwise empty.
    struct Half;

    impl SketchGenerator for Half {
        type Shard = ();
        fn universe(&self) -> usize {
            10
        }
        fn generate(&self, rng: &mut SmallRng, (): &mut ()) -> Vec<NodeId> {
            use rand::Rng;
            if rng.random_bool(0.5) {
                vec![NodeId(0)]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn extend_reaches_target() {
        let mut pool = SketchPool::new(1, 4);
        pool.extend_to(&Always, 100);
        assert!(pool.total_samples() >= 100);
        assert_eq!(pool.covers().len() as u64, pool.total_samples());
        assert_eq!(pool.shard().len() as u64, pool.total_samples());
        pool.extend_to(&Always, 50); // no-op: already past target
        let t = pool.total_samples();
        pool.extend_to(&Always, t); // no-op
        assert_eq!(pool.total_samples(), t);
    }

    #[test]
    fn empties_counted() {
        let mut pool: SketchPool<()> = SketchPool::new(2, 2);
        pool.extend_to(&Half, 4000);
        let frac = pool.empty_samples() as f64 / pool.total_samples() as f64;
        assert!((frac - 0.5).abs() < 0.05, "empty fraction {frac}");
        // Estimate of the objective for B = {0}: n * P[cover] ≈ 10 * 0.5.
        let est = pool.estimate(10, &[NodeId(0)]);
        assert!((est - 5.0).abs() < 0.5, "estimate {est}");
        assert_eq!(pool.estimate(10, &[NodeId(3)]), 0.0);
    }

    #[test]
    fn deterministic_given_seed_and_threads() {
        let mut a: SketchPool<()> = SketchPool::new(7, 3);
        a.extend_to(&Half, 500);
        let mut b: SketchPool<()> = SketchPool::new(7, 3);
        b.extend_to(&Half, 500);
        assert_eq!(a.total_samples(), b.total_samples());
        assert_eq!(a.empty_samples(), b.empty_samples());
    }

    /// Covers a pseudo-random node per draw so cover *contents* and the
    /// retained shard (not just counts) are compared across thread counts.
    struct RandomNode;

    impl SketchGenerator for RandomNode {
        type Shard = Vec<u32>;
        fn universe(&self) -> usize {
            64
        }
        fn generate(&self, rng: &mut SmallRng, shard: &mut Vec<u32>) -> Vec<NodeId> {
            use rand::Rng;
            if rng.random_bool(0.25) {
                return Vec::new();
            }
            let v = rng.random_range(0..64u32);
            shard.push(v);
            vec![NodeId(v)]
        }
    }

    #[test]
    fn pool_contents_invariant_to_thread_count() {
        let mut reference = SketchPool::new(99, 1);
        // Two extensions: chunk indexing must survive incremental growth.
        reference.extend_to(&RandomNode, 700);
        reference.extend_to(&RandomNode, 2_000);
        for threads in [2usize, 3, 7, 16] {
            let mut pool = SketchPool::new(99, threads);
            pool.extend_to(&RandomNode, 700);
            pool.extend_to(&RandomNode, 2_000);
            assert_eq!(pool.total_samples(), reference.total_samples());
            assert_eq!(pool.empty_samples(), reference.empty_samples());
            assert_eq!(
                pool.covers(),
                reference.covers(),
                "covers differ at {threads} threads"
            );
            assert_eq!(
                pool.shard(),
                reference.shard(),
                "shards differ at {threads} threads"
            );
        }
    }

    #[test]
    fn zero_samples_estimate_is_zero() {
        let pool: SketchPool<()> = SketchPool::new(1, 2);
        assert_eq!(pool.estimate(10, &[NodeId(0)]), 0.0);
    }

    #[test]
    fn epoch_zero_is_the_base_stream() {
        assert_eq!(epoch_stream_seed(42, 0), 42);
        let mut a: SketchPool<Vec<u32>> = SketchPool::new(42, 2);
        a.extend_to(&RandomNode, 600);
        let mut b: SketchPool<Vec<u32>> = SketchPool::with_epoch(42, 0, 2);
        b.extend_to(&RandomNode, 600);
        assert_eq!(a.covers(), b.covers());
        assert_eq!(a.shard(), b.shard());
    }

    #[test]
    fn epochs_decorrelate_streams_deterministically() {
        let seeds: Vec<u64> = (0..4).map(|e| epoch_stream_seed(42, e)).collect();
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "epochs {i} and {j} collide");
            }
        }
        // Same (seed, epoch) → same stream, across thread counts.
        let mut a: SketchPool<Vec<u32>> = SketchPool::with_epoch(7, 3, 1);
        a.extend_to(&RandomNode, 600);
        let mut b: SketchPool<Vec<u32>> = SketchPool::with_epoch(7, 3, 5);
        b.extend_to(&RandomNode, 600);
        assert_eq!(a.covers(), b.covers());
        assert_eq!(a.shard(), b.shard());
        // A different epoch draws a different stream.
        let mut c: SketchPool<Vec<u32>> = SketchPool::with_epoch(7, 4, 1);
        c.extend_to(&RandomNode, 600);
        assert_ne!(a.covers(), c.covers());
    }

    #[test]
    fn interrupted_then_resumed_equals_one_shot() {
        use crate::terminator::{SampleBudget, StopAtChunk};
        for threads in [1usize, 4] {
            let mut reference: SketchPool<Vec<u32>> = SketchPool::new(55, threads);
            reference.extend_to(&RandomNode, 3_000);

            let mut pool: SketchPool<Vec<u32>> = SketchPool::new(55, threads);
            let status = pool.extend_to_within(&RandomNode, 3_000, &StopAtChunk(4));
            assert_eq!(status, ExtendStatus::Interrupted);
            assert_eq!(pool.total_samples(), 4 * CHUNK_SIZE);
            // Partial content is a prefix of the reference stream.
            assert_eq!(
                pool.shard().as_slice(),
                &reference.shard()[..pool.shard().len()],
                "{threads} threads"
            );
            // Resuming reaches the target and reproduces the one-shot run.
            let status = pool.extend_to_within(&RandomNode, 3_000, &Unlimited);
            assert_eq!(status, ExtendStatus::Completed);
            assert_eq!(pool.total_samples(), reference.total_samples());
            assert_eq!(pool.covers(), reference.covers());
            assert_eq!(pool.shard(), reference.shard());

            // A deterministic sample budget stops at the covering chunk
            // boundary, identically at every thread count.
            let mut budgeted: SketchPool<Vec<u32>> = SketchPool::new(55, threads);
            let status = budgeted.extend_to_within(&RandomNode, 3_000, &SampleBudget(1_000));
            assert_eq!(status, ExtendStatus::Interrupted);
            assert_eq!(
                budgeted.total_samples(),
                1_000u64.div_ceil(CHUNK_SIZE) * CHUNK_SIZE
            );
            assert_eq!(
                budgeted.shard().as_slice(),
                &reference.shard()[..budgeted.shard().len()]
            );
        }
    }

    #[test]
    fn chunk_aligned_staging_is_bit_identical() {
        // The staging idiom `solve_within` relies on: growing a pool in
        // chunk-aligned stages equals the one-shot extension exactly.
        let mut reference: SketchPool<Vec<u32>> = SketchPool::new(77, 3);
        reference.extend_to(&RandomNode, 2_500);
        let mut staged: SketchPool<Vec<u32>> = SketchPool::new(77, 3);
        let mut target = 0u64;
        while staged.total_samples() < 2_500 {
            target = (target + 3 * CHUNK_SIZE).min(2_500);
            staged.extend_to(&RandomNode, target);
        }
        assert_eq!(staged.covers(), reference.covers());
        assert_eq!(staged.shard(), reference.shard());
    }

    #[test]
    fn worker_panic_propagates_out_of_the_scope() {
        use crate::terminator::PanicAt;
        for threads in [1usize, 4] {
            let mut pool: SketchPool<Vec<u32>> = SketchPool::new(3, threads);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.extend_to_within(&RandomNode, 2_000, &PanicAt(2))
            }));
            assert!(outcome.is_err(), "injected panic must unwind");
        }
    }

    #[test]
    fn cover_only_adapter_matches_wrapped_covers() {
        let mut full: SketchPool<Vec<u32>> = SketchPool::new(13, 3);
        full.extend_to(&RandomNode, 900);
        let mut lean: SketchPool<()> = SketchPool::new(13, 3);
        lean.extend_to(&CoverOnly(&RandomNode), 900);
        assert_eq!(full.covers(), lean.covers());
        assert_eq!(full.total_samples(), lean.total_samples());
        assert_eq!(full.empty_samples(), lean.empty_samples());
        assert!(!full.shard().is_empty(), "wrapped source retains data");
    }
}
