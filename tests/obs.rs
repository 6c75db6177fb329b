//! The observability layer's zero-perturbation contract: attaching a
//! recording sink must not change a single byte of what the engine
//! computes.
//!
//! Instrumentation reads clocks and bumps atomics — it never consumes
//! randomness — so a full lifecycle (pool build, solve, mutation
//! epochs, serving) under an attached [`MetricsRecorder`] is
//! **bit-identical** to the same lifecycle with the default no-op
//! recorder, at any thread count. The property test replays random
//! churn histories through both and compares selections, estimates,
//! epoch reports and the final arenas bitwise, at 1 and 7 maintainer
//! threads; it also asserts the recorder genuinely saw the lifecycle
//! (non-zero solve/sampler/epoch/publish metrics), so the equality is
//! not vacuous.

use std::sync::Arc;

use kboost::engine::{
    Algorithm, EdgeProbs, Engine, EngineBuilder, EpochBatch, EpochReport, MetricsRecorder,
    MutationLog, NodeId, Recorder, Sampling, Staleness,
};
use kboost::graph::generators::erdos_renyi;
use kboost::graph::probability::{boost_probability, ProbabilityModel};
use kboost::graph::DiGraph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 120;
const SAMPLES: u64 = 5_000;

fn graph(seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    erdos_renyi(NODES, 600, ProbabilityModel::Constant(0.25), 2.0, &mut rng)
}

/// Deterministic churn: per epoch, probability re-draws on random
/// existing edges.
fn history(g: &DiGraph, epochs: usize, churn: usize, seed: u64) -> Vec<EpochBatch> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges: Vec<_> = g.edges().collect();
    let mut log = MutationLog::new();
    (0..epochs)
        .map(|_| {
            for _ in 0..churn {
                let (u, v, _) = edges[rng.random_range(0..edges.len())];
                let p: f64 = rng.random_range(0.02..0.3);
                log.set_probs(u, v, EdgeProbs::new(p, boost_probability(p, 2.0)).unwrap());
            }
            log.seal_epoch()
        })
        .collect()
}

fn build_engine(g: &DiGraph, threads: usize, recorder: Option<Arc<MetricsRecorder>>) -> Engine {
    let mut builder = EngineBuilder::new(g.clone())
        .seeds([NodeId(0), NodeId(1), NodeId(2)])
        .k(4)
        .threads(threads)
        .seed(0xB0057)
        .sampling(Sampling::Fixed { samples: SAMPLES });
    if let Some(recorder) = recorder {
        builder = builder.recorder(recorder);
    }
    builder.build().expect("valid engine configuration")
}

/// Everything the lifecycle computed, captured bitwise.
struct Lifecycle {
    boost_set: Vec<NodeId>,
    delta_bits: u64,
    mu_bits: u64,
    reports: Vec<EpochReport>,
    final_answers: Vec<(f64, f64)>,
    engine: Engine,
}

/// One full lifecycle: build + solve, attach serving, apply the whole
/// history, score a probe batch on the final pool.
fn run_lifecycle(
    g: &DiGraph,
    batches: &[EpochBatch],
    threads: usize,
    recorder: Option<Arc<MetricsRecorder>>,
) -> Lifecycle {
    let mut engine = build_engine(g, threads, recorder);
    let solution = engine.solve(&Algorithm::Sandwich).expect("solve");
    let _service = engine.serving().expect("online mode");
    let reports: Vec<EpochReport> = batches
        .iter()
        .map(|b| engine.apply_mutations(b).expect("contiguous epoch"))
        .collect();
    let probes: Vec<Vec<NodeId>> = (0..NODES as u32)
        .step_by(7)
        .map(|v| vec![NodeId(v), NodeId((v + 13) % NODES as u32)])
        .collect();
    let final_answers = engine.evaluate_many(&probes).expect("pool built");
    Lifecycle {
        boost_set: solution.boost_set,
        delta_bits: solution.delta_hat.unwrap().to_bits(),
        mu_bits: solution.mu_hat.unwrap().to_bits(),
        reports,
        final_answers,
        engine,
    }
}

fn assert_identical(recorded: &Lifecycle, noop: &Lifecycle, threads: usize) {
    assert_eq!(
        recorded.boost_set, noop.boost_set,
        "selection changed under recording at {threads} threads"
    );
    assert_eq!(recorded.delta_bits, noop.delta_bits);
    assert_eq!(recorded.mu_bits, noop.mu_bits);
    assert_eq!(recorded.reports.len(), noop.reports.len());
    for (r, o) in recorded.reports.iter().zip(&noop.reports) {
        assert_eq!(
            (r.invalidated, r.drawn_stored, r.drawn_empty, r.compacted),
            (o.invalidated, o.drawn_stored, o.drawn_empty, o.compacted),
            "epoch {} report changed under recording at {threads} threads",
            r.epoch
        );
    }
    assert_eq!(
        recorded.final_answers, noop.final_answers,
        "final-pool answers changed under recording at {threads} threads"
    );
}

/// The arenas themselves — not just answers derived from them — are
/// byte-equal with and without a recorder attached.
fn assert_arenas_equal(a: &mut Lifecycle, b: &mut Lifecycle, threads: usize) {
    let snap_a = a.engine.snapshot().expect("online mode");
    let snap_b = b.engine.snapshot().expect("online mode");
    assert!(
        snap_a.pool().arena() == snap_b.pool().arena(),
        "arena bytes changed under recording at {threads} threads"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Solve + mutation history with a recording sink attached is
    /// byte-identical to the no-op run, at 1 and 7 threads — and the
    /// 1-thread and 7-thread recorded runs agree with each other (the
    /// determinism contract holds *through* the instrumentation).
    #[test]
    fn recorded_lifecycle_is_byte_identical_to_noop(
        graph_seed in 0u64..1_000,
        churn_seed in 0u64..1_000,
        epochs in 1usize..4,
        churn in 5usize..30,
    ) {
        let g = graph(graph_seed);
        let batches = history(&g, epochs, churn, churn_seed);

        let mut runs = Vec::new();
        for threads in [1usize, 7] {
            let recorder = Arc::new(MetricsRecorder::new());
            let mut recorded =
                run_lifecycle(&g, &batches, threads, Some(recorder.clone()));
            let mut noop = run_lifecycle(&g, &batches, threads, None);
            assert_identical(&recorded, &noop, threads);
            assert_arenas_equal(&mut recorded, &mut noop, threads);

            // Not vacuous: the recorder really watched the lifecycle.
            let metrics = recorder.snapshot();
            prop_assert_eq!(metrics.counter("engine.solves"), Some(1));
            prop_assert!(metrics.counter("sampler.chunks").unwrap_or(0) >= 1);
            prop_assert_eq!(metrics.counter("online.epochs"), Some(epochs as u64));
            prop_assert!(metrics
                .histogram("serve.publish_secs")
                .is_some_and(|h| h.count == epochs as u64));
            // The no-op side recorded nothing at all.
            prop_assert!(noop.engine.metrics().counters.is_empty());

            runs.push(recorded);
        }
        let (mut one, mut seven) = {
            let mut it = runs.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        assert_identical(&one, &seven, 7);
        assert_arenas_equal(&mut one, &mut seven, 7);
    }
}

/// IMM sampling reports to the recorder too: a recorded Sandwich solve
/// under IMM counts exactly the samples its pool holds, and stays
/// byte-identical to the same solve with the no-op recorder.
#[test]
fn recorded_imm_solve_counts_its_samples_and_is_byte_identical() {
    let g = graph(7);
    let imm_engine = |recorder: Option<Arc<MetricsRecorder>>| {
        let mut builder = EngineBuilder::new(g.clone())
            .seeds([NodeId(0), NodeId(1), NodeId(2)])
            .k(4)
            .threads(3)
            .seed(0xB0057)
            .max_sketches(20_000)
            .sampling(Sampling::Imm);
        if let Some(recorder) = recorder {
            builder = builder.recorder(recorder);
        }
        builder.build().expect("valid engine configuration")
    };
    let recorder = Arc::new(MetricsRecorder::new());
    let mut recorded = imm_engine(Some(recorder.clone()));
    let mut noop = imm_engine(None);
    let (a, b) = (
        recorded.solve(&Algorithm::Sandwich).expect("solve"),
        noop.solve(&Algorithm::Sandwich).expect("solve"),
    );

    let metrics = recorder.snapshot();
    assert!(a.stats.total_samples > 0);
    assert_eq!(
        metrics.counter("sampler.samples"),
        Some(a.stats.total_samples)
    );
    assert!(noop.metrics().counters.is_empty());

    assert_eq!(a.boost_set, b.boost_set);
    assert_eq!(
        a.delta_hat.unwrap().to_bits(),
        b.delta_hat.unwrap().to_bits()
    );
    assert_eq!(a.mu_hat.unwrap().to_bits(), b.mu_hat.unwrap().to_bits());
    assert_eq!(a.stats.total_samples, b.stats.total_samples);
    assert!(
        recorded.pool().expect("pool built").arena() == noop.pool().expect("pool built").arena(),
        "arena bytes changed under recording"
    );
}

/// `online.invalidated_bloom` counts the refreshes a hybrid fingerprint
/// caused. Under `ExactHybrid { bloom_above: 0 }` every non-empty
/// footprint is a fingerprint (an empty one can never be stale), so the
/// counter equals `online.invalidated`; under `ExactCompressed` no
/// verdict comes from a fingerprint. Counting perturbs nothing: the
/// recorded pool is byte-identical to the no-op run.
#[test]
fn fingerprint_invalidations_are_counted_without_perturbing_the_pool() {
    let g = graph(11);
    let batches = history(&g, 2, 20, 5);
    let run = |staleness: Staleness, recorder: Option<Arc<MetricsRecorder>>| {
        let mut builder = EngineBuilder::new(g.clone())
            .seeds([NodeId(0), NodeId(1), NodeId(2)])
            .k(4)
            .threads(2)
            .seed(0xB0057)
            .sampling(Sampling::Fixed { samples: SAMPLES })
            .staleness(staleness);
        if let Some(recorder) = recorder {
            builder = builder.recorder(recorder);
        }
        let mut engine = builder.build().expect("valid engine configuration");
        for batch in &batches {
            engine.apply_mutations(batch).expect("contiguous epoch");
        }
        engine
    };

    let hybrid = Staleness::ExactHybrid { bloom_above: 0 };
    let recorder = Arc::new(MetricsRecorder::new());
    let mut recorded = run(hybrid, Some(recorder.clone()));
    let metrics = recorder.snapshot();
    let invalidated = metrics.counter("online.invalidated").unwrap_or(0);
    assert!(invalidated > 0, "the history must invalidate something");
    assert_eq!(
        metrics.counter("online.invalidated_bloom"),
        Some(invalidated)
    );
    let mut noop = run(hybrid, None);
    assert!(
        recorded.pool().expect("pool built").arena() == noop.pool().expect("pool built").arena(),
        "arena bytes changed under recording"
    );

    let recorder = Arc::new(MetricsRecorder::new());
    run(Staleness::ExactCompressed, Some(recorder.clone()));
    let metrics = recorder.snapshot();
    assert!(metrics.counter("online.invalidated").unwrap_or(0) > 0);
    assert_eq!(metrics.counter("online.invalidated_bloom").unwrap_or(0), 0);
}
