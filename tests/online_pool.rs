//! The online maintenance subsystem's equivalence and determinism
//! contracts, end to end:
//!
//! * after **any** mutation sequence, under **every** staleness rule
//!   (approximate node tables; exact compressed and hybrid footprints;
//!   trace-retention conditional replay), the
//!   incrementally maintained pool's compacted arena
//!   is **byte-equal** to the naive replay oracle
//!   (`rebuild_from_history`: legacy per-graph payloads, verdicts on raw
//!   footprints and node tables, eager filtering — no tombstones, no
//!   arena columns), its `Δ̂` / `µ̂` estimates agree exactly, and the
//!   greedy selection picks the identical set;
//! * the maintainer's staleness scans (`stale_graphs` /
//!   `stale_empty_samples`) answer dry runs byte-equal to brute-force
//!   scans of the live node tables and decoded footprints, across
//!   tombstones, compactions and absorbed refreshes;
//! * the maintained pool is **thread-count invariant**: 1 worker and 7
//!   workers produce the bit-identical arena (tombstones included) and
//!   identical epoch reports;
//! * exact mode closes the approximate rule's under-detection: the
//!   zero-drift regression pins `incremental == rebuild` down to the
//!   estimates and selection, and the companion test pins that the
//!   approximate rule still under-detects (and that the gap is visible
//!   through the exact machinery);
//! * SSA's validation pool retains covers only — the arena bytes the old
//!   shard-typed validation pool would have held are measured and
//!   asserted gone;
//! * **fault injection**: epochs whose refresh is cancelled or panics at
//!   a randomly chosen chunk boundary roll back to the byte-identical
//!   pre-epoch arena, the identical batch retried afterwards converges
//!   to the `rebuild_from_history` oracle, and deterministic faults are
//!   thread-count invariant.

use kboost::graph::generators::{erdos_renyi, set_cover_gadget, SetCoverInstance};
use kboost::graph::probability::ProbabilityModel;
use kboost::graph::{DiGraph, EdgeProbs, NodeId};
use kboost::online::{
    rebuild_from_history, EpochBatch, InterruptCause, MaintainerOptions, OnlineError,
    PoolMaintainer, Staleness,
};
use kboost::prr::greedy_delta_selection;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every staleness rule, as proptest draws them: the node-table
/// heuristic, the exact footprint tiers (the hybrid one at two
/// thresholds; `bloom_above: 0` fingerprints every non-empty footprint),
/// and the trace-retention tier whose refresh is a conditional replay
/// instead of a redraw.
const STALENESS_MODES: [Staleness; 5] = [
    Staleness::Approximate,
    Staleness::ExactCompressed,
    Staleness::ExactHybrid { bloom_above: 0 },
    Staleness::ExactHybrid { bloom_above: 4 },
    Staleness::ExactTrace,
];

fn er_graph(n: usize, m: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    erdos_renyi(n, m, ProbabilityModel::Constant(0.3), 2.0, &mut rng)
}

fn gadget() -> DiGraph {
    set_cover_gadget(&SetCoverInstance {
        num_elements: 6,
        subsets: vec![
            vec![0, 1, 2],
            vec![2, 3],
            vec![3, 4, 5],
            vec![0, 5],
            vec![1, 4],
        ],
    })
}

/// Draws a random mutation history over `g`'s node universe: probability
/// updates and removals of random existing edges, insertions of random
/// non-self-loop pairs.
fn random_history(g: &DiGraph, epochs: usize, rng: &mut SmallRng) -> Vec<EpochBatch> {
    let n = g.num_nodes() as u32;
    let mut log = kboost::online::MutationLog::new();
    let mut history = Vec::with_capacity(epochs);
    let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
    for _ in 0..epochs {
        for _ in 0..rng.random_range(0..4usize) {
            match rng.random_range(0..3u32) {
                0 if !edges.is_empty() => {
                    // Probability update of an existing edge.
                    let (u, v) = edges[rng.random_range(0..edges.len())];
                    let p: f64 = rng.random_range(0.0..0.5);
                    let pb: f64 = p + rng.random_range(0.0..0.5);
                    log.set_probs(u, v, EdgeProbs::new(p, pb).unwrap());
                }
                1 if !edges.is_empty() => {
                    let (u, v) = edges[rng.random_range(0..edges.len())];
                    log.remove_edge(u, v);
                }
                _ => {
                    let u = rng.random_range(0..n);
                    let v = rng.random_range(0..n);
                    if u != v {
                        let p: f64 = rng.random_range(0.0..0.4);
                        log.insert_edge(
                            NodeId(u),
                            NodeId(v),
                            EdgeProbs::new(p, (p * 2.0).min(1.0)).unwrap(),
                        );
                    }
                }
            }
        }
        history.push(log.seal_epoch());
    }
    history
}

/// Runs the incremental maintainer over `history` and asserts it matches
/// the from-scratch replay oracle at the final epoch: byte-equal live
/// arena, equal counters, equal estimates, equal greedy selection.
fn assert_incremental_matches_rebuild(
    g0: &DiGraph,
    seeds: &[NodeId],
    opts: MaintainerOptions,
    history: &[EpochBatch],
) -> PoolMaintainer {
    let mut m = PoolMaintainer::build(g0.clone(), seeds.to_vec(), opts).unwrap();
    for batch in history {
        let report = m.apply_epoch(batch).unwrap();
        assert_eq!(report.invalidated, report.drawn_stored + report.drawn_empty);
        if !opts.staleness.is_exact() {
            assert_eq!(report.invalidated_empty, 0);
        }
    }
    assert_eq!(m.pool().total_samples(), opts.target_samples);

    let (g_oracle, oracle) = rebuild_from_history(g0, seeds, &opts, history);
    assert_eq!(g_oracle.num_edges(), m.graph().num_edges());
    assert_eq!(oracle.total_samples(), m.pool().total_samples());
    assert_eq!(oracle.empty_samples(), m.pool().empty_samples());
    assert_eq!(oracle.num_boostable(), m.pool().num_boostable());
    assert!(
        m.pool().arena().compacted() == *oracle.arena(),
        "incremental live arena diverged from the replay rebuild \
         (threshold {}, {} epochs)",
        opts.compact_threshold,
        history.len()
    );
    for set in [
        vec![NodeId(1)],
        vec![NodeId(2), NodeId(3)],
        (0..g0.num_nodes() as u32).map(NodeId).take(4).collect(),
    ] {
        assert_eq!(m.pool().delta_hat(&set), oracle.delta_hat(&set));
        assert_eq!(m.pool().mu_hat(&set), oracle.mu_hat(&set));
    }
    let k = opts.k;
    assert_eq!(
        m.select(k),
        greedy_delta_selection(oracle.arena(), g0.num_nodes(), k, opts.threads),
        "greedy selection diverged from the rebuild oracle"
    );
    m
}

#[test]
fn maintained_pool_thread_invariant_bytes_and_reports() {
    let g = er_graph(60, 300, 5);
    let seeds = [NodeId(0), NodeId(1)];
    let mut rng = SmallRng::seed_from_u64(0xD15EA5E);
    let history = random_history(&g, 4, &mut rng);
    for staleness in STALENESS_MODES {
        let opts = |threads: usize| MaintainerOptions {
            target_samples: 6_000,
            k: 3,
            threads,
            base_seed: 0xA11CE,
            compact_threshold: 0.2,
            staleness,
        };

        let mut reference = PoolMaintainer::build(g.clone(), seeds.to_vec(), opts(1)).unwrap();
        let reference_reports: Vec<_> = history
            .iter()
            .map(|b| reference.apply_epoch(b).unwrap())
            .collect();
        assert!(
            reference_reports.iter().any(|r| r.invalidated > 0),
            "degenerate history: nothing ever invalidated ({staleness:?})"
        );

        for threads in [2usize, 7] {
            let mut m = PoolMaintainer::build(g.clone(), seeds.to_vec(), opts(threads)).unwrap();
            let reports: Vec<_> = history.iter().map(|b| m.apply_epoch(b).unwrap()).collect();
            assert_eq!(
                reports, reference_reports,
                "reports differ at {threads} threads ({staleness:?})"
            );
            assert!(
                m.pool().arena() == reference.pool().arena(),
                "arena bytes (tombstones included) differ at {threads} threads ({staleness:?})"
            );
            assert_eq!(m.pool().total_samples(), reference.pool().total_samples());
            assert_eq!(m.select(3), reference.select(3));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Incremental maintenance ≡ from-scratch replay on random ER pools,
    /// across budgets, thread counts, compaction thresholds and mutation
    /// histories.
    #[test]
    fn incremental_matches_rebuild_on_er(
        graph_seed in 0u64..5_000,
        mutation_seed in 0u64..5_000,
        pool_seed in 0u64..5_000,
        k in 1usize..4,
        threads in 1usize..8,
        epochs in 1usize..4,
        threshold in 0u32..3,
        staleness in 0..STALENESS_MODES.len(),
    ) {
        let g = er_graph(14, 40, graph_seed);
        let mut rng = SmallRng::seed_from_u64(mutation_seed);
        let history = random_history(&g, epochs, &mut rng);
        let opts = MaintainerOptions {
            target_samples: 600,
            k,
            threads,
            base_seed: pool_seed,
            compact_threshold: [0.0, 0.3, 1.0][threshold as usize],
            staleness: STALENESS_MODES[staleness],
        };
        assert_incremental_matches_rebuild(&g, &[NodeId(0)], opts, &history);
    }

    /// Same equivalence on the set-cover gadget (deep PRR-graphs with
    /// large critical sets).
    #[test]
    fn incremental_matches_rebuild_on_gadget(
        mutation_seed in 0u64..5_000,
        pool_seed in 0u64..5_000,
        k in 1usize..4,
        threads in 1usize..5,
        epochs in 1usize..3,
        staleness in 0..STALENESS_MODES.len(),
    ) {
        let g = gadget();
        let mut rng = SmallRng::seed_from_u64(mutation_seed);
        let history = random_history(&g, epochs, &mut rng);
        let opts = MaintainerOptions {
            target_samples: 800,
            k,
            threads,
            base_seed: pool_seed,
            compact_threshold: 0.25,
            staleness: STALENESS_MODES[staleness],
        };
        assert_incremental_matches_rebuild(&g, &[NodeId(0)], opts, &history);
    }
}

#[test]
fn ssa_validation_pool_no_longer_retains_an_arena() {
    use kboost::prr::{PrrArenaShard, PrrFullSource};
    use kboost::rrset::sketch::SketchPool;
    use kboost::rrset::ssa::{run_ssa, SsaParams};

    let g = er_graph(40, 200, 9);
    let source = PrrFullSource::new(&g, &[NodeId(0)], 2);
    let params = SsaParams {
        k: 2,
        epsilon: 0.4,
        initial: 1_000,
        max_sketches: 40_000,
        threads: 2,
        seed: 77,
    };
    let run = run_ssa(&source, &params);
    assert!(run.validation.total_samples() > 0);

    // Reconstruct what the old shard-typed validation pool retained: an
    // arena it never evaluated a single graph from. Those bytes must be
    // real (the counterfactual is non-trivial) and no longer held — the
    // validation pool's shard is the unit shard, covers are all it keeps.
    // Pool contents depend on the *sequence* of targets, so replay SSA's
    // doubling schedule rather than one big extend.
    let mut old_style: SketchPool<PrrArenaShard> =
        SketchPool::new(params.seed ^ 0xDEAD_BEEF, params.threads);
    let mut target = params.initial.max(16);
    for _ in 0..run.epochs {
        old_style.extend_to(&source, target);
        target *= 2;
    }
    assert_eq!(old_style.total_samples(), run.validation.total_samples());
    assert_eq!(old_style.covers(), run.validation.covers());
    let arena_bytes = old_style.shard().memory_bytes();
    assert!(
        arena_bytes > 0,
        "counterfactual arena is empty — degenerate test"
    );
    let old_retained = old_style.cover_memory_bytes() + arena_bytes;
    let new_retained = run.validation.cover_memory_bytes();
    assert!(
        new_retained < old_retained,
        "retained validation memory did not drop: {new_retained} vs {old_retained}"
    );
}

/// The approximate rule's `stale_graphs` scan (tombstoned graphs
/// skipped, compaction renumbering the rest) answers byte-equal to a
/// brute-force scan of every live graph's node table — at every point
/// of a mutation history, for probe batches it has never applied.
#[test]
fn stale_graphs_cached_index_matches_fresh_scan() {
    use kboost::online::Mutation;

    // Brute-force staleness: scan every live graph's whole node table.
    fn fresh_scan(m: &PoolMaintainer, mutations: &[Mutation]) -> Vec<u32> {
        let n = m.graph().num_nodes();
        let mut touched = vec![false; n];
        for mu in mutations {
            let (u, v) = mu.endpoints();
            touched[u.index()] = true;
            touched[v.index()] = true;
        }
        let arena = m.pool().arena();
        (0..arena.len() as u32)
            .filter(|&gi| {
                if !arena.is_live(gi as usize) {
                    return false;
                }
                let view = arena.graph(gi as usize);
                (0..view.num_nodes() as u32)
                    .any(|l| view.global_of(l).is_some_and(|g| touched[g.index()]))
            })
            .collect()
    }

    let g = er_graph(30, 140, 13);
    let seeds = [NodeId(0)];
    let mut rng = SmallRng::seed_from_u64(0x1DE7_5EED);
    // Exercise both compaction regimes: eager (the arena is renumbered
    // every epoch) and never (tombstones and refreshed graphs pile up).
    for threshold in [0.0, 1.0] {
        let opts = MaintainerOptions {
            target_samples: 3_000,
            k: 2,
            threads: 2,
            base_seed: 0xCAB,
            compact_threshold: threshold,
            staleness: Staleness::Approximate,
        };
        let mut m = PoolMaintainer::build(g.clone(), seeds.to_vec(), opts).unwrap();
        let history = random_history(&g, 5, &mut rng);
        // Probe batches the maintainer never applies — pure dry runs.
        let probes: Vec<Vec<Mutation>> = vec![
            vec![],
            vec![Mutation::Remove {
                from: NodeId(1),
                to: NodeId(2),
            }],
            (0..6u32)
                .map(|v| Mutation::Remove {
                    from: NodeId(v),
                    to: NodeId(v + 1),
                })
                .collect(),
        ];
        let mut compacted_any = false;
        let mut tombstoned_any = false;
        for batch in &history {
            for probe in &probes {
                assert_eq!(
                    m.stale_graphs(probe),
                    fresh_scan(&m, probe),
                    "node-table scan diverged (threshold {threshold}, epoch {})",
                    m.epoch()
                );
            }
            let report = m.apply_epoch(batch).unwrap();
            compacted_any |= report.compacted;
            tombstoned_any |= report.dead_graphs > 0 || report.invalidated > 0;
            for probe in &probes {
                assert_eq!(
                    m.stale_graphs(probe),
                    fresh_scan(&m, probe),
                    "node-table scan diverged after epoch {} (threshold {threshold})",
                    m.epoch()
                );
            }
        }
        // The history must have exercised the interesting transitions.
        assert!(tombstoned_any, "degenerate history: nothing invalidated");
        if threshold == 0.0 {
            assert!(compacted_any, "eager threshold never compacted");
        }
    }
}

/// Exact-mode zero-drift regression: over random mutation histories the
/// exact incremental pool equals `rebuild_from_history` **exactly** —
/// not just byte-equal live arenas, but bit-identical `Δ̂`/`µ̂` on probe
/// sets and the identical greedy selection, with drift computed the way
/// `exp_online` records it and asserted to be exactly `0.0`.
#[test]
fn exact_mode_zero_drift_over_random_histories() {
    for (graph_seed, pool_seed, mutation_seed) in [(3u64, 11u64, 7u64), (21, 5, 40), (64, 9, 2)] {
        let g = er_graph(30, 120, graph_seed);
        let mut rng = SmallRng::seed_from_u64(mutation_seed);
        let history = random_history(&g, 5, &mut rng);
        let opts = MaintainerOptions {
            target_samples: 4_000,
            k: 3,
            threads: 2,
            base_seed: pool_seed,
            compact_threshold: 0.25,
            staleness: Staleness::ExactCompressed,
        };
        let mut m = PoolMaintainer::build(g.clone(), vec![NodeId(0)], opts).unwrap();
        for batch in &history {
            m.apply_epoch(batch).unwrap();
        }
        let (_g, rebuilt) = rebuild_from_history(&g, &[NodeId(0)], &opts, &history);
        let probes: Vec<Vec<NodeId>> = vec![
            vec![NodeId(1)],
            vec![NodeId(5), NodeId(9)],
            (1..=3u32).map(NodeId).collect(),
        ];
        for probe in &probes {
            let drift = (m.pool().delta_hat(probe) - rebuilt.delta_hat(probe)).abs();
            assert_eq!(drift, 0.0, "Δ̂ drift on probe {probe:?} (seed {graph_seed})");
            let mu_drift = (m.pool().mu_hat(probe) - rebuilt.mu_hat(probe)).abs();
            assert_eq!(mu_drift, 0.0, "µ̂ drift on probe {probe:?}");
        }
        assert_eq!(
            m.select(3),
            greedy_delta_selection(rebuilt.arena(), g.num_nodes(), 3, opts.threads)
        );
        assert_eq!(m.pool().total_samples(), rebuilt.total_samples());
        assert_eq!(m.pool().empty_samples(), rebuilt.empty_samples());
    }
}

/// Companion regression: the approximate rule's under-detection is still
/// present, detected, and reported. Seed → x (live) → root (boost-only)
/// compresses `x` out of every stored node table, so removing the live
/// edge is invisible to the approximate rule — its report says nothing
/// was invalidated and its `Δ̂` keeps paying out on an unreachable root,
/// while the exact-mode maintainer (and its replay oracle) refresh to
/// the truth.
#[test]
fn approximate_under_detection_is_detected_and_reported() {
    use kboost::graph::GraphBuilder;
    use kboost::online::MutationLog;

    let graph = || {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.0, 1.0).unwrap();
        b.build().unwrap()
    };
    let opts = |staleness: Staleness| MaintainerOptions {
        target_samples: 1_200,
        k: 1,
        threads: 2,
        base_seed: 0xFACE,
        compact_threshold: 0.25,
        staleness,
    };
    let mut log = MutationLog::new();
    log.remove_edge(NodeId(0), NodeId(1));
    let batch = log.seal_epoch();

    let mut approx =
        PoolMaintainer::build(graph(), vec![NodeId(0)], opts(Staleness::Approximate)).unwrap();
    let report = approx.apply_epoch(&batch).unwrap();
    assert_eq!(report.invalidated, 0, "approximate rule must miss this");
    let stale_delta = approx.pool().delta_hat(&[NodeId(2)]);
    assert!(stale_delta > 0.0, "stale pool keeps paying out");

    for staleness in [
        Staleness::ExactCompressed,
        Staleness::ExactHybrid { bloom_above: 0 },
    ] {
        let mut exact = PoolMaintainer::build(graph(), vec![NodeId(0)], opts(staleness)).unwrap();
        let report = exact.apply_epoch(&batch).unwrap();
        assert!(report.invalidated > 0, "{staleness:?} must detect");
        assert!(
            report.invalidated_empty > 0,
            "{staleness:?} refreshes empties"
        );
        assert_eq!(exact.pool().delta_hat(&[NodeId(2)]), 0.0, "exact truth");

        // The drift of the approximate pool is real and measurable
        // against the exact replay — the number `exp_online` records.
        let o = opts(staleness);
        let (_g, rebuilt) =
            rebuild_from_history(&graph(), &[NodeId(0)], &o, std::slice::from_ref(&batch));
        let drift = (stale_delta - rebuilt.delta_hat(&[NodeId(2)])).abs();
        assert!(
            drift > 0.0,
            "under-detection must show as drift vs the exact rebuild"
        );
    }
}

/// The footprint-exactness invariant at the sample level: if a sample's
/// footprint avoids a mutation's head, regenerating it from the same RNG
/// seed over the *mutated* graph reproduces the sample bit for bit — the
/// retained sample *is* what resampling would have produced, which is
/// precisely why exact staleness may keep it. Checked for removals,
/// probability updates and insertions over many random graphs and seeds.
#[test]
fn footprint_soundness_unaffected_samples_reproduce_bitwise() {
    use kboost::online::{apply_mutations, Mutation};
    use kboost::prr::{PrrArena, PrrGenerator, PrrOutcome};

    let mut checked = 0usize;
    for graph_seed in 0..12u64 {
        let g = er_graph(12, 30, 1000 + graph_seed);
        let generator = PrrGenerator::new(&g, &[NodeId(0)], 2);
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        for sample_seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(sample_seed * 7 + 3);
            let mut fp = Vec::new();
            let outcome = generator.sample_with_footprint(&mut rng, &mut fp);

            // One mutation of each kind whose head the footprint avoids.
            let mut candidates: Vec<Mutation> = Vec::new();
            if let Some(&(u, v)) = edges.iter().find(|(_, v)| !fp.contains(&v.0)) {
                candidates.push(Mutation::Remove { from: u, to: v });
                candidates.push(Mutation::Upsert {
                    from: u,
                    to: v,
                    probs: EdgeProbs::new(0.45, 0.95).unwrap(),
                });
            }
            if let Some(v) = (0..12u32).find(|v| !fp.contains(v) && *v != 3) {
                candidates.push(Mutation::Upsert {
                    from: NodeId(3),
                    to: NodeId(v),
                    probs: EdgeProbs::new(0.3, 0.6).unwrap(),
                });
            }
            for mutation in candidates {
                if mutation.endpoints().0 == mutation.endpoints().1 {
                    continue;
                }
                let g2 = apply_mutations(&g, std::slice::from_ref(&mutation)).unwrap();
                let generator2 = PrrGenerator::new(&g2, &[NodeId(0)], 2);
                let mut rng2 = SmallRng::seed_from_u64(sample_seed * 7 + 3);
                let mut fp2 = Vec::new();
                let outcome2 = generator2.sample_with_footprint(&mut rng2, &mut fp2);
                assert_eq!(fp, fp2, "footprint changed (graph {graph_seed})");
                match (&outcome, &outcome2) {
                    (PrrOutcome::Activated, PrrOutcome::Activated)
                    | (PrrOutcome::Hopeless, PrrOutcome::Hopeless) => {}
                    (PrrOutcome::Boostable(a), PrrOutcome::Boostable(b)) => {
                        assert!(
                            PrrArena::from_graphs([a.clone()])
                                == PrrArena::from_graphs([b.clone()]),
                            "stored bytes changed under an unqueried mutation \
                             (graph {graph_seed}, sample {sample_seed})"
                        );
                    }
                    _ => panic!(
                        "outcome class changed under an unqueried mutation \
                         (graph {graph_seed}, sample {sample_seed})"
                    ),
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 300, "degenerate: only {checked} pairs checked");
}

/// A mutation touching only nodes absent from every retained sample's
/// staleness trace is a documented no-op, not an error: the epoch
/// applies, nothing is invalidated or resampled, and the pool bytes are
/// untouched. (Out-of-range endpoints are the typed-error case —
/// `tests/engine_api.rs::engine_rejects_out_of_range_mutation_endpoints`.)
#[test]
fn mutation_on_untouched_nodes_invalidates_nothing() {
    use kboost::graph::GraphBuilder;
    use kboost::online::MutationLog;

    // Nodes 4 and 5 are disconnected from the seeded component, so no
    // sample's node table retains them; under the approximate rule even
    // their footprints are invisible.
    let mut b = GraphBuilder::new(6);
    b.add_edge(NodeId(0), NodeId(1), 0.4, 0.8).unwrap();
    b.add_edge(NodeId(1), NodeId(2), 0.3, 0.6).unwrap();
    let g = b.build().unwrap();
    let opts = MaintainerOptions {
        target_samples: 800,
        k: 2,
        threads: 2,
        base_seed: 0x10,
        compact_threshold: 0.25,
        staleness: Staleness::Approximate,
    };
    let mut m = PoolMaintainer::build(g, vec![NodeId(0)], opts).unwrap();
    let before = m.pool().arena().compacted();
    let (total, empties) = (m.pool().total_samples(), m.pool().empty_samples());

    let mut log = MutationLog::new();
    log.insert_edge(NodeId(4), NodeId(5), EdgeProbs::new(0.2, 0.4).unwrap());
    assert!(m.stale_graphs(log.pending()).is_empty());
    let report = m.apply_epoch(&log.seal_epoch()).unwrap();
    assert_eq!(report.invalidated, 0);
    assert_eq!(report.drawn_stored + report.drawn_empty, 0);
    assert!(m.pool().arena().compacted() == before, "pool bytes changed");
    assert_eq!(m.pool().total_samples(), total);
    assert_eq!(m.pool().empty_samples(), empties);
    // The new edge exists in the maintained graph regardless.
    assert!(m.graph().has_edge(NodeId(4), NodeId(5)));
}

/// The exact rules' staleness scans (stored graphs *and* empty samples)
/// answer byte-equal to brute-force decodes of the retained footprints —
/// at every point of a mutation history, for probe batches the
/// maintainer never applies, across compaction regimes, for the
/// redrawing compressed tier and for the trace tier once replayed
/// samples have been absorbed.
#[test]
fn exact_stale_sets_match_fresh_footprint_scans() {
    use kboost::online::Mutation;
    use kboost::prr::FootprintColumn;

    fn fresh_scans(m: &PoolMaintainer, mutations: &[Mutation]) -> (Vec<u32>, Vec<u32>) {
        if mutations.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let mut head_hit = vec![false; m.graph().num_nodes()];
        for mu in mutations {
            head_hit[mu.endpoints().1.index()] = true;
        }
        let arena = m.pool().arena();
        let hit = |col: &FootprintColumn, i: u32| {
            let mut any = false;
            col.for_each_node(i as usize, |v| any |= head_hit[v as usize]);
            any
        };
        let graphs = (0..arena.len() as u32)
            .filter(|&gi| arena.is_live(gi as usize) && hit(arena.footprints(), gi))
            .collect();
        let empties = (0..arena.num_empty_footprints() as u32)
            .filter(|&ei| arena.empty_is_live(ei as usize) && hit(arena.empty_footprints(), ei))
            .collect();
        (graphs, empties)
    }

    let g = er_graph(30, 140, 17);
    let mut rng = SmallRng::seed_from_u64(0xF00D_5EED);
    for threshold in [0.0, 1.0] {
        let history = random_history(&g, 5, &mut rng);
        let probes: Vec<Vec<Mutation>> = vec![
            vec![],
            vec![Mutation::Remove {
                from: NodeId(1),
                to: NodeId(2),
            }],
            (0..6u32)
                .map(|v| Mutation::Remove {
                    from: NodeId(v),
                    to: NodeId(v + 1),
                })
                .collect(),
        ];
        for staleness in [Staleness::ExactCompressed, Staleness::ExactTrace] {
            let opts = MaintainerOptions {
                target_samples: 2_500,
                k: 2,
                threads: 2,
                base_seed: 0xBEE,
                compact_threshold: threshold,
                staleness,
            };
            let mut m = PoolMaintainer::build(g.clone(), vec![NodeId(0)], opts).unwrap();
            for batch in &history {
                for probe in &probes {
                    let (graphs, empties) = fresh_scans(&m, probe);
                    assert_eq!(
                        m.stale_graphs(probe),
                        graphs,
                        "{staleness:?}: graph scan diverged"
                    );
                    assert_eq!(
                        m.stale_empty_samples(probe),
                        empties,
                        "{staleness:?}: empty scan diverged"
                    );
                }
                m.apply_epoch(batch).unwrap();
                for probe in &probes {
                    let (graphs, empties) = fresh_scans(&m, probe);
                    assert_eq!(
                        m.stale_graphs(probe),
                        graphs,
                        "{staleness:?}: graph scan diverged post-epoch"
                    );
                    assert_eq!(
                        m.stale_empty_samples(probe),
                        empties,
                        "{staleness:?}: empty scan diverged post-epoch"
                    );
                }
            }
        }
    }
}

/// Applies `history` while injecting one fault per epoch (cancellation
/// or contained panic at chunk boundary `fault_chunk` of the refresh),
/// asserting the transactional contract at every step, then retrying
/// each interrupted epoch to completion. Returns the maintainer.
fn apply_history_with_faults(
    g: &DiGraph,
    opts: MaintainerOptions,
    history: &[EpochBatch],
    fault_chunk: u64,
    panic_instead: bool,
) -> PoolMaintainer {
    use kboost::rrset::terminator::{PanicAt, StopAtChunk};

    let mut m = PoolMaintainer::build(g.clone(), vec![NodeId(0)], opts).unwrap();
    for batch in history {
        let arena_before = m.pool().arena().clone();
        let epoch_before = m.epoch();
        let edges_before = m.graph().num_edges();
        let res = if panic_instead {
            m.apply_epoch_within(batch, &PanicAt(fault_chunk))
        } else {
            m.apply_epoch_within(batch, &StopAtChunk(fault_chunk))
        };
        match res {
            // The refresh finished (or was empty) before the fault chunk
            // was reached — a genuine commit.
            Ok(_) => assert_eq!(m.epoch(), epoch_before + 1),
            Err(OnlineError::Interrupted { epoch, cause }) => {
                assert_eq!(epoch, epoch_before + 1);
                assert_eq!(
                    cause,
                    if panic_instead {
                        InterruptCause::Panicked
                    } else {
                        InterruptCause::Cancelled
                    }
                );
                // Rollback: graph, epoch counter, and arena bytes are
                // exactly the pre-epoch state.
                assert_eq!(m.epoch(), epoch_before);
                assert_eq!(m.graph().num_edges(), edges_before);
                assert!(
                    *m.pool().arena() == arena_before,
                    "rollback left the arena not byte-identical"
                );
                // The identical batch retried verbatim must commit.
                m.apply_epoch(batch).unwrap();
                assert_eq!(m.epoch(), epoch_before + 1);
            }
            Err(e) => panic!("unexpected error from faulted epoch: {e}"),
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The transactional-epoch contract under randomly injected faults:
    /// over random graphs, mutation histories, staleness rules and
    /// thread counts, an epoch cancelled or panicked at a random chunk
    /// boundary rolls back byte-identically, and the post-fault retries
    /// converge to exactly the `rebuild_from_history` oracle — faults
    /// leave no trace in the final bytes, estimates, or selection.
    #[test]
    fn faulted_epochs_roll_back_and_retries_match_rebuild(
        graph_seed in 0u64..5_000,
        mutation_seed in 0u64..5_000,
        pool_seed in 0u64..5_000,
        threads in 1usize..8,
        epochs in 1usize..4,
        staleness in 0..STALENESS_MODES.len(),
        fault_chunk in 0u64..3,
        panic_instead in (0u32..2).prop_map(|b| b == 1),
    ) {
        let g = er_graph(14, 40, graph_seed);
        let mut rng = SmallRng::seed_from_u64(mutation_seed);
        let history = random_history(&g, epochs, &mut rng);
        let opts = MaintainerOptions {
            target_samples: 600,
            k: 2,
            threads,
            base_seed: pool_seed,
            compact_threshold: 0.3,
            staleness: STALENESS_MODES[staleness],
        };
        let m = apply_history_with_faults(&g, opts, &history, fault_chunk, panic_instead);

        let (g_oracle, oracle) = rebuild_from_history(&g, &[NodeId(0)], &opts, &history);
        prop_assert_eq!(g_oracle.num_edges(), m.graph().num_edges());
        prop_assert_eq!(oracle.total_samples(), m.pool().total_samples());
        prop_assert_eq!(oracle.empty_samples(), m.pool().empty_samples());
        prop_assert!(
            m.pool().arena().compacted() == *oracle.arena(),
            "post-fault pool diverged from the never-faulted replay oracle"
        );
        for set in [vec![NodeId(1)], vec![NodeId(2), NodeId(3)]] {
            prop_assert_eq!(m.pool().delta_hat(&set), oracle.delta_hat(&set));
            prop_assert_eq!(m.pool().mu_hat(&set), oracle.mu_hat(&set));
        }
        prop_assert_eq!(
            m.select(2),
            greedy_delta_selection(oracle.arena(), g.num_nodes(), 2, opts.threads)
        );
    }
}

/// Deterministic faults (chunk-count cancellation) interrupt at the same
/// point regardless of worker count, so the whole faulted-then-retried
/// history is bit-identical between 1 and 7 threads.
#[test]
fn deterministic_faults_are_thread_invariant() {
    let g = er_graph(30, 140, 23);
    let mut rng = SmallRng::seed_from_u64(0xFA_017);
    let history = random_history(&g, 4, &mut rng);
    for staleness in STALENESS_MODES {
        let run = |threads: usize| {
            let opts = MaintainerOptions {
                target_samples: 3_000,
                k: 2,
                threads,
                base_seed: 0xFA_117,
                compact_threshold: 0.25,
                staleness,
            };
            apply_history_with_faults(&g, opts, &history, 0, false)
        };
        let reference = run(1);
        let wide = run(7);
        assert!(
            wide.pool().arena() == reference.pool().arena(),
            "faulted history not thread-invariant ({staleness:?})"
        );
        assert_eq!(
            wide.pool().total_samples(),
            reference.pool().total_samples()
        );
        assert_eq!(wide.select(2), reference.select(2));
    }
}
