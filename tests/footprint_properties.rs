//! Property suites for the footprint storage tiers and the staleness
//! queries built on them:
//!
//! * **Round-trip / byte-canonicalization** — on arbitrary footprint
//!   sets, every decodable column tier (compressed, trace) decodes back
//!   to exactly what was pushed; compressed storage never spends more
//!   bytes than a sorted `u32` column of the same entries (beyond the
//!   interner's per-entry bookkeeping); and a column assembled
//!   through the full arena lifecycle — shard pushes, chunk-order
//!   `absorb`, tombstoning, order-preserving compaction — is
//!   **byte-equal** to a column freshly pushed with only the survivors,
//!   in every mode (interning re-canonicalizes on compaction, so
//!   storage history never leaks into the bytes).
//! * **Staleness-query agreement** — over ER, preferential-attachment
//!   and set-cover-gadget pools, every decodable exact tier answers
//!   `stale_graphs` / `stale_empty_samples` identically to a ground truth
//!   computed from plain footprint lists (the legacy oracle source, no
//!   column code), the hybrid tier answers with supersets (never-miss),
//!   and every answer is invariant between 1 and 7 worker threads.

use kboost::graph::generators::{
    erdos_renyi, preferential_attachment, set_cover_gadget, SetCoverInstance,
};
use kboost::graph::probability::ProbabilityModel;
use kboost::graph::{DiGraph, EdgeProbs, NodeId};
use kboost::online::{MaintainerOptions, Mutation, PoolMaintainer, Staleness};
use kboost::prr::{FootprintColumn, FootprintMode, FootprintQuery, LegacyPrrSource, LegacySample};
use kboost::rrset::sketch::SketchPool;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Node universe of the column properties.
const N: usize = 64;

/// Every storage mode a column can run in (Off excluded: it stores
/// nothing and has nothing to round-trip). `bloom_above: 0` fingerprints
/// every non-empty footprint.
const MODES: [FootprintMode; 4] = [
    FootprintMode::Compressed,
    FootprintMode::Hybrid { bloom_above: 0 },
    FootprintMode::Hybrid { bloom_above: 4 },
    FootprintMode::Trace,
];

/// Strategy: a batch of canonical (sorted, deduplicated) footprints over
/// `0..N`, lengths 0..=16.
fn footprints() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..N as u32, 0..17).prop_map(|v| {
            let set: std::collections::BTreeSet<u32> = v.into_iter().collect();
            set.into_iter().collect::<Vec<u32>>()
        }),
        1..24,
    )
}

/// A deterministic per-entry trace blob (content is opaque to the
/// column; it must survive absorb/compact byte-for-byte).
fn fake_trace(i: usize, nodes: &[u32]) -> Vec<u8> {
    let mut t = vec![i as u8, nodes.len() as u8];
    t.extend(nodes.iter().map(|&v| v as u8));
    t
}

/// Bytes a sorted `u32` column holding `entries` would occupy:
/// `count + 1` offsets plus every node (nothing when empty).
fn sorted_bytes(entries: &[Vec<u32>]) -> usize {
    if entries.is_empty() {
        return 0;
    }
    let nodes: usize = entries.iter().map(Vec::len).sum();
    (nodes + entries.len() + 1) * std::mem::size_of::<u32>()
}

/// Builds a column of `mode` holding `entries`, traces attached in trace
/// mode.
fn build_column(mode: FootprintMode, entries: &[Vec<u32>]) -> FootprintColumn {
    let mut col = FootprintColumn::new(mode);
    for (i, nodes) in entries.iter().enumerate() {
        if mode.retains_trace() {
            col.push_with_trace(nodes, &fake_trace(i, nodes));
        } else {
            col.push(nodes);
        }
    }
    col
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decodable tiers round-trip exactly; compressed storage never
    /// exceeds sorted storage; trace sidecars come back verbatim.
    #[test]
    fn decodable_columns_round_trip_and_compress(entries in footprints()) {
        for mode in [FootprintMode::Compressed, FootprintMode::Trace] {
            let col = build_column(mode, &entries);
            prop_assert_eq!(col.count(), entries.len());
            for (i, nodes) in entries.iter().enumerate() {
                let mut decoded = Vec::new();
                col.for_each_node(i, |v| decoded.push(v));
                prop_assert_eq!(&decoded, nodes, "round-trip failed in {:?}", mode);
                if mode.retains_trace() {
                    prop_assert_eq!(col.trace(i), &fake_trace(i, nodes)[..]);
                }
            }
        }
        // The column charges a fixed bookkeeping cost per footprint
        // (entry offset, length prefix, interner slots for long blobs), so
        // on tiny all-unique batches compressed storage may trail sorted
        // by that constant — but never by more.  The strict payload win
        // at realistic scale is `compression_wins_at_scale` below.
        let compressed = build_column(FootprintMode::Compressed, &entries);
        prop_assert!(
            compressed.memory_bytes() <= sorted_bytes(&entries) + 36 * entries.len() + 16,
            "compressed ({}) exceeds sorted ({}) by more than per-entry bookkeeping",
            compressed.memory_bytes(),
            sorted_bytes(&entries)
        );
    }

    /// The full storage lifecycle is byte-canonical in every mode: a
    /// column built as `push* ; absorb(shard) ; compacted(keep)` equals
    /// the column freshly pushed with only the kept entries — offsets,
    /// payload bytes, interned blobs, trace sidecars and all.
    #[test]
    fn absorb_then_compact_is_byte_canonical(
        entries in footprints(),
        split in 0usize..24,
        keep_seed in 0u64..1_000,
    ) {
        let split = split.min(entries.len());
        let mut rng = SmallRng::seed_from_u64(keep_seed);
        let keep: Vec<bool> = (0..entries.len()).map(|_| rng.random::<f64>() < 0.6).collect();
        for mode in MODES {
            // Main column absorbs a later shard (chunk-order merge)...
            let mut col = build_column(mode, &entries[..split]);
            let later = {
                let mut shard = FootprintColumn::new(mode);
                for (i, nodes) in entries.iter().enumerate().skip(split) {
                    if mode.retains_trace() {
                        shard.push_with_trace(nodes, &fake_trace(i, nodes));
                    } else {
                        shard.push(nodes);
                    }
                }
                shard
            };
            col.absorb(&later);
            // ...then compacts to the kept subset.
            let compacted = col.compacted(|i| keep[i]);

            // Reference: push exactly the survivors into a fresh column,
            // preserving their original trace blobs.
            let mut reference = FootprintColumn::new(mode);
            for (i, nodes) in entries.iter().enumerate() {
                if keep[i] {
                    if mode.retains_trace() {
                        reference.push_with_trace(nodes, &fake_trace(i, nodes));
                    } else {
                        reference.push(nodes);
                    }
                }
            }
            prop_assert!(
                compacted == reference,
                "absorb+compact not byte-canonical in {:?}", mode
            );
        }
    }

    /// Query agreement at the raw-column level: on every entry, the
    /// decodable tiers' `matches` verdict equals the ground-truth
    /// intersection test, and the fingerprint tiers never answer `false`
    /// when the truth is `true` (never-miss).
    #[test]
    fn column_queries_agree_with_ground_truth(
        entries in footprints(),
        heads in proptest::collection::vec(0u32..N as u32, 1..6),
    ) {
        let heads: Vec<u32> = {
            let set: std::collections::BTreeSet<u32> = heads.into_iter().collect();
            set.into_iter().collect()
        };
        for mode in MODES {
            let col = build_column(mode, &entries);
            let q = col.query(&heads, N);
            for (i, nodes) in entries.iter().enumerate() {
                let truth = nodes.iter().any(|v| heads.contains(v));
                let got = col.matches(&q, i);
                if mode.is_decodable() {
                    prop_assert_eq!(got, truth, "exact tier {:?} wrong on entry {}", mode, i);
                } else {
                    prop_assert!(got || !truth, "{:?} missed a stale entry", mode);
                }
                // The raw (column-free) verdict the replay oracle uses
                // must agree with the column's own.
                let raw_q = FootprintQuery::new(mode, &heads, N);
                prop_assert_eq!(
                    FootprintColumn::raw_matches(mode, nodes, &raw_q),
                    got,
                    "raw_matches diverged from column matches in {:?}", mode
                );
            }
        }
    }
}

/// At PRR-pool scale footprints repeat heavily (many samples share the
/// same compressed frontier), and interning long blobs turns that
/// repetition into a strict byte win over sorted storage.
#[test]
fn compression_wins_at_scale() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE);
    let unique: Vec<Vec<u32>> = (0..96)
        .map(|_| {
            let len = rng.random_range(12usize..32);
            let mut set = std::collections::BTreeSet::new();
            while set.len() < len {
                set.insert(rng.random_range(0..N as u32));
            }
            set.into_iter().collect()
        })
        .collect();
    let entries: Vec<Vec<u32>> = (0..1500)
        .map(|_| unique[rng.random_range(0..unique.len())].clone())
        .collect();
    let compressed = build_column(FootprintMode::Compressed, &entries);
    assert!(
        compressed.memory_bytes() < sorted_bytes(&entries) / 4,
        "interned column ({}) should be far below sorted ({}) at scale",
        compressed.memory_bytes(),
        sorted_bytes(&entries)
    );
}

/// The three pool families the staleness-query agreement runs over.
fn pool_graphs() -> Vec<(&'static str, DiGraph)> {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    let er = erdos_renyi(24, 90, ProbabilityModel::Constant(0.3), 2.0, &mut rng);
    let pa = preferential_attachment(24, 3, 0.3, ProbabilityModel::Constant(0.25), 2.0, &mut rng);
    let gadget = set_cover_gadget(&SetCoverInstance {
        num_elements: 6,
        subsets: vec![
            vec![0, 1, 2],
            vec![2, 3],
            vec![3, 4, 5],
            vec![0, 5],
            vec![1, 4],
        ],
    });
    vec![("er", er), ("pa", pa), ("gadget", gadget)]
}

/// A probe batch touching a few random heads of `g` (existing edges and
/// one fresh insertion), for staleness dry runs.
fn probe_batch(g: &DiGraph, seed: u64) -> Vec<Mutation> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
    let mut batch = Vec::new();
    for _ in 0..3 {
        let (u, v) = edges[rng.random_range(0..edges.len())];
        if rng.random::<bool>() {
            batch.push(Mutation::Remove { from: u, to: v });
        } else {
            batch.push(Mutation::Upsert {
                from: u,
                to: v,
                probs: EdgeProbs::new(0.1, 0.5).unwrap(),
            });
        }
    }
    let n = g.num_nodes() as u32;
    let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
    if u != v {
        batch.push(Mutation::Upsert {
            from: NodeId(u),
            to: NodeId(v),
            probs: EdgeProbs::new(0.2, 0.4).unwrap(),
        });
    }
    batch
}

/// Staleness dry runs agree across storage tiers and thread counts on
/// every pool family: decodable exact tiers equal the ground truth
/// exactly, fingerprint tiers return supersets, and no answer depends on
/// the worker count. The truth intersects plain `Vec<u32>` footprints
/// drawn by the legacy oracle source from the same seed with the batch's
/// edge heads: a stored sample's index is its rank among stored samples,
/// an empty sample's its rank among empty ones.
#[test]
fn staleness_queries_agree_across_modes_and_threads() {
    const SAMPLES: u64 = 800;
    const BASE_SEED: u64 = 0xBEEF;
    let exact_tiers = [Staleness::ExactCompressed, Staleness::ExactTrace];
    let fingerprint_tiers = [
        Staleness::ExactHybrid { bloom_above: 0 },
        Staleness::ExactHybrid { bloom_above: 4 },
    ];
    for (name, g) in pool_graphs() {
        let opts = |staleness: Staleness, threads: usize| MaintainerOptions {
            target_samples: SAMPLES,
            k: 2,
            threads,
            base_seed: BASE_SEED,
            compact_threshold: 0.25,
            staleness,
        };
        let build = |staleness: Staleness, threads: usize| {
            PoolMaintainer::build(g.clone(), vec![NodeId(0)], opts(staleness, threads)).unwrap()
        };
        let mut legacy: SketchPool<Vec<LegacySample>> = SketchPool::new(BASE_SEED, 1);
        legacy.extend_to(
            &LegacyPrrSource::with_footprints(&g, &[NodeId(0)], 2, FootprintMode::Compressed),
            SAMPLES,
        );
        let (_, samples, _, _) = legacy.into_parts();
        let (mut stored, mut empty): (Vec<&[u32]>, Vec<&[u32]>) = (Vec::new(), Vec::new());
        for sample in &samples {
            match sample {
                LegacySample::Stored { footprint, .. } => stored.push(footprint),
                LegacySample::Empty { footprint, .. } => empty.push(footprint),
            }
        }
        for batch_seed in [1u64, 7, 42] {
            let batch = probe_batch(&g, batch_seed);
            let heads: Vec<u32> = batch.iter().map(|m| m.endpoints().1 .0).collect();
            let stale = |footprints: &[&[u32]]| -> Vec<u32> {
                (0..footprints.len() as u32)
                    .filter(|&i| footprints[i as usize].iter().any(|v| heads.contains(v)))
                    .collect()
            };
            let want = (stale(&stored), stale(&empty));
            assert!(
                !want.0.is_empty() || !want.1.is_empty(),
                "{name}: degenerate probe batch {batch_seed}"
            );
            for staleness in exact_tiers {
                for threads in [1usize, 7] {
                    let m = build(staleness, threads);
                    assert_eq!(
                        (m.stale_graphs(&batch), m.stale_empty_samples(&batch)),
                        want,
                        "{name}: {staleness:?}@{threads}t diverged from the footprint truth"
                    );
                }
            }
            for staleness in fingerprint_tiers {
                for threads in [1usize, 7] {
                    let m = build(staleness, threads);
                    let got = (m.stale_graphs(&batch), m.stale_empty_samples(&batch));
                    let superset = |sup: &[u32], sub: &[u32]| {
                        let s: std::collections::HashSet<u32> = sup.iter().copied().collect();
                        sub.iter().all(|i| s.contains(i))
                    };
                    assert!(
                        superset(&got.0, &want.0) && superset(&got.1, &want.1),
                        "{name}: {staleness:?}@{threads}t missed a stale sample"
                    );
                    // Fingerprint verdicts are deterministic, so the 1-
                    // and 7-thread answers must also be identical.
                    let again = build(staleness, 1);
                    assert_eq!(
                        got,
                        (
                            again.stale_graphs(&batch),
                            again.stale_empty_samples(&batch)
                        ),
                        "{name}: {staleness:?} thread-variant answer"
                    );
                }
            }
        }
    }
}
