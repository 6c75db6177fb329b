//! The retained PRR-graph pool with `Δ̂` / `µ̂` estimators.
//!
//! Boostable PRR-graphs live in a flat [`PrrArena`] (single shared arrays,
//! no per-graph allocation) that the sampling workers build incrementally
//! as [`PrrArenaShard`]s — converting a finished sketch pool into a
//! `PrrPool` is a move, not a copy. Both estimators sweep the arena with a
//! deterministic parallel fan-out: the arena is split into contiguous
//! graph ranges, each worker counts hits with its own scratch, and the
//! per-range counts are summed — so estimates are exact counts,
//! independent of the thread count.

use kboost_diffusion::sim::BoostMask;
use kboost_graph::NodeId;
use kboost_prr::{
    FootprintMode, LegacySample, PrrArena, PrrArenaShard, PrrEvalScratch, PrrGraphView,
};
use kboost_rrset::sketch::SketchPool;

/// Reusable workspace for [`PrrPool::evaluate_many_with`].
///
/// Holds the inverted candidate-membership bitsets plus one hit-count
/// accumulator set per estimator worker. Grown on first use, fully
/// overwritten on every call (so reuse can never leak state between
/// batches), and reusable across pools and batch shapes. `Default` is
/// the empty workspace.
#[derive(Default)]
pub struct EvalManyScratch {
    /// node → bitset of the candidates containing it (`n · ⌈C/64⌉` words).
    membership: Vec<u64>,
    /// Per-worker accumulators; index = worker slot in the fan-out.
    workers: Vec<EvalWorkerScratch>,
}

/// One estimator worker's slice of [`EvalManyScratch`].
#[derive(Default)]
struct EvalWorkerScratch {
    delta: Vec<u64>,
    mu: Vec<u64>,
    rel: Vec<u64>,
    prr: PrrEvalScratch,
}

/// A pool of sampled PRR-graphs for a fixed `(G, S, k)`.
///
/// Provides the two estimators of Section IV:
/// `Δ̂_R(B) = n/|R| · Σ f_R(B)` and `µ̂_R(B) = n/|R| · Σ f⁻_R(B)`.
///
/// `Clone` is a flat-array copy of the arena plus the counters — what
/// the serving subsystem (`kboost-serve`) pays to freeze an immutable
/// epoch snapshot while the maintainer keeps mutating its own pool.
#[derive(Clone)]
pub struct PrrPool {
    arena: PrrArena,
    n: usize,
    total: u64,
    empties: u64,
    threads: usize,
}

impl PrrPool {
    /// Converts a finished sketch pool into an arena-backed PRR pool.
    ///
    /// The pool's merged sampling shard *is* the arena — this constructor
    /// moves it, there is no copy stage. `n` is the host-graph node count;
    /// `threads` bounds the parallel fan-out of
    /// [`delta_hat`](Self::delta_hat) / [`mu_hat`](Self::mu_hat). The
    /// sketch covers are dropped — critical sets are stored once, in the
    /// arena.
    pub fn new(inner: SketchPool<PrrArenaShard>, n: usize, threads: usize) -> Self {
        let (_covers, shard, total, _cover_empties) = inner.into_parts();
        let arena = PrrArena::from_shard(shard);
        // The sketch pool counts *cover-less* samples; the pool's empty
        // count means *not stored* (activated / hopeless). Cover-less
        // boostable graphs are stored with an empty cover, so derive
        // empties from storage.
        let empties = total - arena.len() as u64;
        PrrPool {
            arena,
            n,
            total,
            empties,
            threads: threads.max(1),
        }
    }

    /// Test-only equivalence oracle: builds the pool by copying the
    /// legacy per-graph payloads of a footprint-free
    /// [`LegacyPrrSource::new`](kboost_prr::LegacyPrrSource::new) pool
    /// into the arena one by one (the pre-shard pipeline). Kept so tests
    /// can assert the shard path is byte-equal; do not use outside
    /// tests/benches.
    pub fn from_legacy(inner: SketchPool<Vec<LegacySample>>, n: usize, threads: usize) -> Self {
        let (_covers, samples, total, _cover_empties) = inner.into_parts();
        let arena = LegacySample::arena(&samples, FootprintMode::Off);
        let empties = total - arena.len() as u64;
        PrrPool {
            arena,
            n,
            total,
            empties,
            threads: threads.max(1),
        }
    }

    /// Assembles a pool from an already-built arena and its sample
    /// counters — the constructor the online maintenance subsystem (and
    /// its rebuild oracle) uses when the arena was not produced by a
    /// single sampling pass.
    pub fn from_raw_parts(
        arena: PrrArena,
        n: usize,
        total: u64,
        empties: u64,
        threads: usize,
    ) -> Self {
        PrrPool {
            arena,
            n,
            total,
            empties,
            threads: threads.max(1),
        }
    }

    /// Mutable access to the arena for online maintenance: tombstoning
    /// stale graphs, absorbing refresh shards, compacting. Callers must
    /// keep the sample counters in sync via
    /// [`record_refresh`](Self::record_refresh).
    pub fn arena_mut(&mut self) -> &mut PrrArena {
        &mut self.arena
    }

    /// Records one refresh step of the online maintainer: `invalidated`
    /// samples were debited — of which `invalidated_empty` were empty
    /// samples (only detectable under exact staleness, where their
    /// footprints are retained) and the rest tombstoned stored graphs —
    /// and `drawn` fresh samples, `drawn_empties` of them empty, were
    /// absorbed in their place. With `drawn == invalidated` the
    /// denominator is unchanged and the estimators stay unbiased over the
    /// refreshed slots.
    pub fn record_refresh(
        &mut self,
        invalidated: u64,
        invalidated_empty: u64,
        drawn: u64,
        drawn_empties: u64,
    ) {
        debug_assert!(self.total >= invalidated);
        debug_assert!(self.empties >= invalidated_empty);
        self.total = self.total - invalidated + drawn;
        self.empties = self.empties - invalidated_empty + drawn_empties;
    }

    /// Host-graph node count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total samples drawn, including non-boostable graphs.
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Samples that produced no boostable graph (activated or hopeless).
    pub fn empty_samples(&self) -> u64 {
        self.empties
    }

    /// The flat storage of the boostable PRR-graphs.
    pub fn arena(&self) -> &PrrArena {
        &self.arena
    }

    /// The stored boostable PRR-graphs — **all** of them, tombstoned
    /// included; online consumers should pair this with
    /// [`arena()`](Self::arena)`.is_live(i)`.
    pub fn graphs(&self) -> impl Iterator<Item = PrrGraphView<'_>> {
        self.arena.iter()
    }

    /// Number of stored *live* boostable graphs (tombstoned graphs from
    /// online maintenance are excluded).
    pub fn num_boostable(&self) -> usize {
        self.arena.num_live()
    }

    /// Counts live stored graphs satisfying `hit`, fanning out over
    /// contiguous arena ranges. Deterministic: addition over disjoint
    /// exact counts. Tombstoned graphs never count.
    fn count_hits<F>(&self, hit: F) -> u64
    where
        F: Fn(PrrGraphView<'_>, &mut PrrEvalScratch) -> bool + Sync,
    {
        let num_graphs = self.arena.len();
        let count_range = |range: std::ops::Range<usize>| -> u64 {
            let mut scratch = PrrEvalScratch::default();
            range
                .filter(|&i| self.arena.is_live(i) && hit(self.arena.graph(i), &mut scratch))
                .count() as u64
        };
        let workers = self.threads.min(num_graphs.max(1));
        if workers <= 1 || num_graphs < 1024 {
            return count_range(0..num_graphs);
        }
        let per = num_graphs.div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = (per * w).min(num_graphs);
                    let hi = (lo + per).min(num_graphs);
                    let count_range = &count_range;
                    scope.spawn(move || count_range(lo..hi))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("estimator worker panicked"))
                .sum()
        })
    }

    /// `Δ̂(B)`: the unbiased PRR estimate of the boost of influence.
    pub fn delta_hat(&self, boost: &[NodeId]) -> f64 {
        let mask = BoostMask::from_nodes(self.n, boost);
        let hits = self.count_hits(|g, scratch| g.f(&mask, scratch));
        self.n as f64 * hits as f64 / self.total.max(1) as f64
    }

    /// `µ̂(B)`: the lower-bound estimate via critical sets.
    pub fn mu_hat(&self, boost: &[NodeId]) -> f64 {
        let mask = BoostMask::from_nodes(self.n, boost);
        let hits = self.count_hits(|g, _| g.critical().iter().any(|&v| mask.contains(v)));
        self.n as f64 * hits as f64 / self.total.max(1) as f64
    }

    /// Scores a whole batch of candidate boost sets in **one traversal
    /// of the arena**, returning `(Δ̂, µ̂)` per candidate — bit-for-bit
    /// equal to calling [`delta_hat`](Self::delta_hat) /
    /// [`mu_hat`](Self::mu_hat) per set, at a fraction of the cost.
    ///
    /// The kernel inverts the batch into per-node candidate bitsets
    /// (`⌈C/64⌉` words per node). Per stored graph it then unions the
    /// bitsets of the graph's *boost-edge heads* — the only nodes whose
    /// boosting can change `f_R` — and runs the forward evaluation only
    /// for the candidates in that union: for every other candidate
    /// `f_R(B) = f_R(∅) = 0`, since a stored graph is by definition
    /// *boostable* (root not live-reachable). `µ̂` needs no traversal at
    /// all: a candidate µ-hits a graph iff its bitset intersects the
    /// union over the graph's critical set. Real candidate sets are
    /// small against `n`, so most graphs are settled by the two bitset
    /// unions alone.
    ///
    /// The parallel fan-out mirrors [`delta_hat`](Self::delta_hat):
    /// contiguous arena ranges, per-range exact hit counts summed in
    /// range order — deterministic for any thread count.
    pub fn evaluate_many(&self, candidates: &[Vec<NodeId>]) -> Vec<(f64, f64)> {
        self.evaluate_many_with(candidates, &mut EvalManyScratch::default())
    }

    /// [`evaluate_many`](Self::evaluate_many) with a caller-owned
    /// workspace: the membership bitsets and every worker's hit
    /// accumulators live in `scratch` and are reused across calls, so a
    /// query worker scoring batches in a loop performs no steady-state
    /// heap allocation beyond the returned result vector. Results are
    /// bit-for-bit identical to the allocating entry point — the
    /// workspace is fully overwritten before use.
    pub fn evaluate_many_with(
        &self,
        candidates: &[Vec<NodeId>],
        scratch: &mut EvalManyScratch,
    ) -> Vec<(f64, f64)> {
        let c = candidates.len();
        if c == 0 {
            return Vec::new();
        }
        let words = c.div_ceil(64);
        let num_graphs = self.arena.len();
        let fan_out = self.threads.min(num_graphs.max(1));
        let workers = if fan_out <= 1 || num_graphs < 1024 {
            1
        } else {
            fan_out
        };
        let EvalManyScratch {
            membership,
            workers: worker_scratch,
        } = scratch;
        // node → bitset of the candidates containing it.
        membership.clear();
        membership.resize(self.n * words, 0);
        for (ci, set) in candidates.iter().enumerate() {
            for &v in set {
                membership[v.index() * words + ci / 64] |= 1u64 << (ci % 64);
            }
        }
        if worker_scratch.len() < workers {
            worker_scratch.resize_with(workers, EvalWorkerScratch::default);
        }
        let membership = &*membership;
        let eval_range = |range: std::ops::Range<usize>, ws: &mut EvalWorkerScratch| {
            ws.delta.clear();
            ws.delta.resize(c, 0);
            ws.mu.clear();
            ws.mu.resize(c, 0);
            ws.rel.clear();
            ws.rel.resize(words, 0);
            for i in range {
                if !self.arena.is_live(i) {
                    continue;
                }
                let g = self.arena.graph(i);
                // µ̂: a candidate hits iff it intersects the critical set.
                ws.rel.iter_mut().for_each(|w| *w = 0);
                for &v in g.critical() {
                    let base = v.index() * words;
                    for (w, r) in ws.rel.iter_mut().enumerate() {
                        *r |= membership[base + w];
                    }
                }
                for (w, &r) in ws.rel.iter().enumerate() {
                    let mut bits = r;
                    while bits != 0 {
                        ws.mu[w * 64 + bits.trailing_zeros() as usize] += 1;
                        bits &= bits - 1;
                    }
                }
                // Δ̂: evaluate f_R only for candidates holding at least
                // one of this graph's boost-edge heads.
                ws.rel.iter_mut().for_each(|w| *w = 0);
                g.for_each_boost_head(|v| {
                    let base = v.index() * words;
                    for (w, r) in ws.rel.iter_mut().enumerate() {
                        *r |= membership[base + w];
                    }
                });
                for (w, &r) in ws.rel.iter().enumerate() {
                    let mut bits = r;
                    while bits != 0 {
                        let ci = w * 64 + bits.trailing_zeros() as usize;
                        let hit = g.f_by(
                            |v| membership[v.index() * words + ci / 64] >> (ci % 64) & 1 == 1,
                            &mut ws.prr,
                        );
                        ws.delta[ci] += hit as u64;
                        bits &= bits - 1;
                    }
                }
            }
        };
        if workers <= 1 {
            eval_range(0..num_graphs, &mut worker_scratch[0]);
        } else {
            let per = num_graphs.div_ceil(workers);
            std::thread::scope(|scope| {
                for (w, ws) in worker_scratch.iter_mut().take(workers).enumerate() {
                    let lo = (per * w).min(num_graphs);
                    let hi = (lo + per).min(num_graphs);
                    let eval_range = &eval_range;
                    scope.spawn(move || eval_range(lo..hi, ws));
                }
            });
        }
        // Fold the per-worker exact hit counts into worker 0 — integer
        // sums over disjoint ranges, so the result is independent of both
        // fold order and thread count.
        let (acc, rest) = worker_scratch.split_at_mut(1);
        let acc = &mut acc[0];
        for ws in rest.iter().take(workers - 1) {
            for ci in 0..c {
                acc.delta[ci] += ws.delta[ci];
                acc.mu[ci] += ws.mu[ci];
            }
        }
        (0..c)
            .map(|ci| {
                (
                    self.n as f64 * acc.delta[ci] as f64 / self.total.max(1) as f64,
                    self.n as f64 * acc.mu[ci] as f64 / self.total.max(1) as f64,
                )
            })
            .collect()
    }

    /// Mean number of edges per live stored graph before and after
    /// compression: `(avg_uncompressed, avg_compressed)` — the paper's
    /// compression-ratio numerator and denominator (Tables 2–3).
    pub fn compression_stats(&self) -> (f64, f64) {
        let count = self.arena.num_live() as u64;
        if count == 0 {
            return (0.0, 0.0);
        }
        let (mut total_unc, mut total_cmp) = (0u64, 0u64);
        for i in 0..self.arena.len() {
            if self.arena.is_live(i) {
                let g = self.arena.graph(i);
                total_unc += g.uncompressed_edges() as u64;
                total_cmp += g.num_edges() as u64;
            }
        }
        (
            total_unc as f64 / count as f64,
            total_cmp as f64 / count as f64,
        )
    }

    /// Bytes used by the flat arena (graphs and critical sets).
    pub fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kboost_graph::{GraphBuilder, NodeId};
    use kboost_prr::PrrFullSource;

    fn figure1_pool(threads: usize) -> PrrPool {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
        let g = b.build().unwrap();
        let source = PrrFullSource::new(&g, &[NodeId(0)], 2);
        let mut sketches: SketchPool<PrrArenaShard> = SketchPool::new(11, threads);
        sketches.extend_to(&source, 60_000);
        PrrPool::new(sketches, 3, threads)
    }

    #[test]
    fn estimators_agree_across_thread_counts() {
        let a = figure1_pool(1);
        let b = figure1_pool(4);
        assert_eq!(a.total_samples(), b.total_samples());
        assert_eq!(a.num_boostable(), b.num_boostable());
        for set in [vec![NodeId(1)], vec![NodeId(2)], vec![NodeId(1), NodeId(2)]] {
            assert_eq!(a.delta_hat(&set), b.delta_hat(&set));
            assert_eq!(a.mu_hat(&set), b.mu_hat(&set));
        }
    }

    #[test]
    fn estimators_skip_tombstoned_graphs() {
        // Tombstoning every graph whose critical set contains node 1 must
        // change Δ̂/µ̂ exactly as if those graphs were never stored — while
        // the denominator (total samples) stays put.
        let mut pool = figure1_pool(2);
        let total = pool.total_samples();
        let stale: Vec<usize> = (0..pool.arena().len())
            .filter(|&i| pool.arena().graph(i).critical().contains(&NodeId(1)))
            .collect();
        assert!(!stale.is_empty(), "degenerate pool");
        assert!(pool.mu_hat(&[NodeId(1)]) > 0.0);
        for &i in &stale {
            pool.arena_mut().tombstone(i);
        }
        assert_eq!(pool.total_samples(), total);
        assert_eq!(pool.num_boostable(), pool.arena().num_live());
        // No surviving graph has node 1 in its critical set, so µ̂({1})
        // must drop to exactly zero while the denominator stays put.
        assert_eq!(pool.mu_hat(&[NodeId(1)]), 0.0);
        let (unc, cmp) = pool.compression_stats();
        if pool.num_boostable() > 0 {
            assert!(unc > 0.0 && cmp >= 0.0);
        } else {
            assert_eq!((unc, cmp), (0.0, 0.0));
        }
    }

    #[test]
    fn record_refresh_keeps_denominator_in_sync() {
        let pool = figure1_pool(1);
        let (total, empties) = (pool.total_samples(), pool.empty_samples());
        let arena = pool.arena().compacted();
        let mut rebuilt = PrrPool::from_raw_parts(arena, 3, total, empties, 2);
        assert_eq!(rebuilt.total_samples(), total);
        assert_eq!(
            rebuilt.delta_hat(&[NodeId(1)]),
            pool.delta_hat(&[NodeId(1)])
        );
        rebuilt.record_refresh(10, 0, 10, 4);
        assert_eq!(rebuilt.total_samples(), total);
        assert_eq!(rebuilt.empty_samples(), empties + 4);
        // Exact staleness also debits refreshed empty samples.
        rebuilt.record_refresh(6, 2, 6, 1);
        assert_eq!(rebuilt.total_samples(), total);
        assert_eq!(rebuilt.empty_samples(), empties + 4 - 2 + 1);
    }

    #[test]
    fn evaluate_many_matches_per_set_oracle() {
        let pool = figure1_pool(2);
        let candidates: Vec<Vec<NodeId>> = vec![
            vec![],
            vec![NodeId(1)],
            vec![NodeId(2)],
            vec![NodeId(1), NodeId(2)],
            vec![NodeId(2), NodeId(1)],
            vec![NodeId(0)],
        ];
        let batch = pool.evaluate_many(&candidates);
        assert_eq!(batch.len(), candidates.len());
        for (set, &(d, m)) in candidates.iter().zip(&batch) {
            assert_eq!(d, pool.delta_hat(set), "Δ̂ mismatch for {set:?}");
            assert_eq!(m, pool.mu_hat(set), "µ̂ mismatch for {set:?}");
        }
        assert!(pool.evaluate_many(&[]).is_empty());
        // A batch wider than one bitset word exercises the multi-word
        // union paths.
        let wide: Vec<Vec<NodeId>> = (0..130)
            .map(|i| vec![NodeId(i % 3), NodeId((i + 1) % 3)])
            .collect();
        for (set, (d, m)) in wide.iter().zip(pool.evaluate_many(&wide)) {
            assert_eq!(d, pool.delta_hat(set));
            assert_eq!(m, pool.mu_hat(set));
        }
    }

    #[test]
    fn stats_and_memory_populated() {
        let pool = figure1_pool(2);
        assert!(pool.num_boostable() > 0);
        assert!(pool.empty_samples() > 0);
        let (unc, cmp) = pool.compression_stats();
        assert!(unc > 0.0 && cmp > 0.0);
        assert!(pool.memory_bytes() > 0);
        // µ̂ ≤ Δ̂ for any set (lower bound).
        let set = [NodeId(1)];
        assert!(pool.mu_hat(&set) <= pool.delta_hat(&set) + 1e-12);
    }
}
