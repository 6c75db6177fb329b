//! A boost-recommendation *service* under real concurrency: N query
//! workers answering batched evaluations over pinned pool snapshots
//! while a mutation feeder commits epochs underneath them.
//!
//! The engine's serving cell ([`Engine::serving`]) decouples the two
//! clocks of a production deployment. The maintainer publishes an
//! immutable epoch snapshot after every committed mutation epoch
//! (pointer swap, never an in-place mutation of published state); query
//! threads pin a snapshot per batch and answer `Δ̂`/`µ̂`/`evaluate_many`
//! lock-free. This harness demonstrates the whole contract live:
//!
//! * query workers keep answering while epochs commit — no reader ever
//!   waits on refresh sampling;
//! * answers from a pinned epoch are **byte-identical** to that epoch's
//!   frozen oracle, no matter how many epochs commit meanwhile;
//! * `evaluate_many` (one arena traversal for a whole candidate batch)
//!   matches the per-set `Engine::evaluate` oracle bit-for-bit;
//! * a malformed batch is still a typed rejection, and the service keeps
//!   serving the last committed epoch;
//! * the attached [`MetricsRecorder`] sees the whole lifecycle — solve
//!   stages, sampler chunks, epoch commits, publishes, pins, lag —
//!   without perturbing a single sampled byte, and
//!   [`Engine::metrics`](kboost::engine::Engine::metrics) reads it back
//!   at the end. Set `KBOOST_OBS_JSONL=/path/to/file` to also dump the
//!   full export as JSON lines.
//!
//! Run with: `cargo run --release --example boost_service`
//!
//! [`Engine::serving`]: kboost::engine::Engine::serving
//! [`MetricsRecorder`]: kboost::obs::MetricsRecorder

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use kboost::core::EvalManyScratch;
use kboost::engine::{
    Algorithm, EdgeProbs, EngineBuilder, KboostError, MutationLog, NodeId, Sampling,
};
use kboost::graph::generators::preferential_attachment;
use kboost::graph::probability::{boost_probability, ProbabilityModel};
use kboost::obs::MetricsRecorder;
use kboost::rrset::seeds::select_random_nodes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const QUERY_WORKERS: usize = 3;
const EPOCHS: u64 = 3;

fn main() {
    let mut rng = SmallRng::seed_from_u64(99);
    let g = preferential_attachment(
        3_000,
        4,
        0.15,
        ProbabilityModel::LogNormal {
            mu: -1.93,
            sigma: 1.0,
            cap: 1.0,
        },
        2.0,
        &mut rng,
    );
    let seeds = select_random_nodes(&g, 20, &[], 7);
    println!(
        "service over n = {}, m = {} ({} seeds)",
        g.num_nodes(),
        g.num_edges(),
        seeds.len()
    );

    // Online mode (fixed-size sampling) is what makes a serving cell
    // possible: the maintainer owns the pool and publishes a snapshot per
    // committed epoch.
    let recorder = Arc::new(MetricsRecorder::new());
    let mut engine = EngineBuilder::new(g.clone())
        .seeds(seeds)
        .k(20)
        .threads(2)
        .seed(42)
        .sampling(Sampling::Fixed { samples: 20_000 })
        .recorder(recorder.clone())
        .build()
        .expect("valid engine configuration");

    let first = engine.solve(&Algorithm::PrrBoost).expect("solve");
    println!(
        "[epoch 0] pool: {} samples ({} boostable, built in {:.2}s); Δ̂ = {:.2}",
        first.stats.total_samples,
        first.stats.boostable,
        first.stats.build_secs,
        first.delta_hat.unwrap(),
    );

    // Candidate batches a recommendation tier would score: perturbations
    // around the solved set plus random probes.
    let mut probe_rng = SmallRng::seed_from_u64(0xFACADE);
    let n = engine.graph().num_nodes() as u32;
    let candidates: Vec<Vec<NodeId>> = (0..96)
        .map(|i| {
            let mut set = first.boost_set.clone();
            set.truncate(12);
            for _ in 0..(i % 5) + 1 {
                set[(probe_rng.random_range(0..12u32)) as usize] =
                    NodeId(probe_rng.random_range(0..n));
            }
            set
        })
        .collect();

    // The serving cell: cloned into every query worker. The per-set
    // evaluate loop is the oracle the batched path must match.
    let service = engine.serving().expect("online mode serves snapshots");
    let oracle: Vec<(f64, f64)> = candidates
        .iter()
        .map(|c| engine.evaluate(c).expect("pool built"))
        .collect();
    assert_eq!(
        engine.evaluate_many(&candidates).expect("pool built"),
        oracle,
        "evaluate_many must match the per-set oracle bit-for-bit"
    );

    // Pin epoch 0 now; after all epochs commit this pin must still
    // answer byte-identically.
    let pinned_epoch0 = service.pin();
    let pinned_answers = pinned_epoch0.evaluate_many(&candidates);
    assert_eq!(pinned_answers, oracle);

    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    std::thread::scope(|s| {
        // N query workers: pin per batch, score the whole candidate
        // batch, and verify self-consistency of the pinned epoch.
        for w in 0..QUERY_WORKERS {
            let service = service.clone();
            let (stop, queries, candidates) = (&stop, &queries, &candidates);
            s.spawn(move || {
                let mut served = 0u64;
                let mut last_epoch = 0u64;
                // One reusable workspace per worker — the batched kernel
                // allocates nothing per call.
                let mut scratch = EvalManyScratch::default();
                while !stop.load(Ordering::Relaxed) {
                    let snap = service.pin();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "published epochs must be monotone"
                    );
                    last_epoch = snap.epoch();
                    let batch = snap.evaluate_many_with(candidates, &mut scratch);
                    // Same pin ⇒ same frozen pool ⇒ identical answers,
                    // scratch or allocating path.
                    assert_eq!(snap.evaluate_many(candidates), batch);
                    service.record_query(&snap, batch.len() as u64);
                    served += batch.len() as u64;
                }
                queries.fetch_add(served, Ordering::Relaxed);
                let _ = w;
            });
        }

        // The mutation feeder: the engine handle stays on this thread
        // and commits epochs while the workers above keep serving.
        let mut log = MutationLog::new();
        let mut churn_rng = SmallRng::seed_from_u64(0xC0FFEE);
        let edges: Vec<(NodeId, NodeId, EdgeProbs)> = engine.graph().edges().collect();
        for _ in 0..EPOCHS {
            for _ in 0..40 {
                let (u, v, _) = edges[churn_rng.random_range(0..edges.len())];
                let p: f64 = churn_rng.random_range(0.01..0.3);
                log.set_probs(u, v, EdgeProbs::new(p, boost_probability(p, 2.0)).unwrap());
            }
            let batch = log.seal_epoch();
            let report = engine.apply_mutations(&batch).expect("contiguous epoch");
            println!(
                "[epoch {}] {} mutations invalidated {} samples, {} redrawn{}; published",
                report.epoch,
                batch.mutations.len(),
                report.invalidated,
                report.drawn_stored + report.drawn_empty,
                if report.compacted { ", compacted" } else { "" },
            );
        }

        // A malformed batch is rejected at ingress; the service keeps
        // serving the last committed epoch.
        let mut bad = MutationLog::new();
        bad.remove_edge(NodeId(1_000_000), NodeId(0));
        let mut bad_batch = bad.seal_epoch();
        bad_batch.epoch = engine.epoch() + 1;
        match engine.apply_mutations(&bad_batch) {
            Err(KboostError::Mutation(e)) => println!("[fault] malformed batch rejected: {e}"),
            other => panic!("expected a typed rejection, got {other:?}"),
        }
        assert_eq!(service.pin().epoch(), EPOCHS);

        stop.store(true, Ordering::Relaxed);
    });

    // The epoch-0 pin survived every publish untouched: byte-identical
    // answers after three committed epochs and a rejected batch.
    assert_eq!(pinned_epoch0.epoch(), 0);
    assert_eq!(pinned_epoch0.evaluate_many(&candidates), pinned_answers);

    // The head snapshot reflects the final epoch and matches the
    // engine's own (maintained-pool) answers exactly.
    let head = service.pin();
    let head_batch = head.evaluate_many(&candidates);
    let head_oracle: Vec<(f64, f64)> = candidates
        .iter()
        .map(|c| engine.evaluate(c).expect("pool built"))
        .collect();
    assert_eq!(head_batch, head_oracle, "head snapshot drifted from pool");

    let stats = service.stats();
    println!(
        "\nOK: {} queries served across {} workers while {} epochs published \
         (head epoch {}); epoch-0 pin stayed byte-identical throughout.",
        queries.load(Ordering::Relaxed),
        QUERY_WORKERS,
        stats.publishes,
        stats.epoch,
    );

    // The recorder watched the whole lifecycle without consuming any
    // randomness — every assertion above held with it attached.
    let metrics = engine.metrics();
    println!("\nfinal metrics snapshot (Engine::metrics):");
    println!(
        "  solves = {}, sampler chunks = {}, samples drawn = {}",
        metrics.counter("engine.solves").unwrap_or(0),
        metrics.counter("sampler.chunks").unwrap_or(0),
        metrics.counter("sampler.samples").unwrap_or(0),
    );
    println!(
        "  epochs committed = {}, invalidated = {}, resampled = {}, rollbacks = {}",
        metrics.counter("online.epochs").unwrap_or(0),
        metrics.counter("online.invalidated").unwrap_or(0),
        metrics.counter("online.resampled").unwrap_or(0),
        metrics.counter("online.rollbacks").unwrap_or(0),
    );
    println!(
        "  publishes = {}, pins = {}, queries = {}",
        metrics.counter("serve.publishes").unwrap_or(0),
        metrics.counter("serve.pins").unwrap_or(0),
        metrics.counter("serve.queries").unwrap_or(0),
    );
    if let Some(publish) = metrics.histogram("serve.publish_secs") {
        println!(
            "  publish latency: p50 {:.2} ms, p90 {:.2} ms, max {:.2} ms (n={})",
            publish.p50 * 1e3,
            publish.p90 * 1e3,
            publish.max * 1e3,
            publish.count,
        );
    }
    if let Some(lag) = metrics.histogram("serve.epoch_lag") {
        println!(
            "  epoch lag: p50 {:.1}, p90 {:.1}, max {:.1} epochs (n={})",
            lag.p50, lag.p90, lag.max, lag.count,
        );
    }
    assert!(metrics.counter("engine.solves").unwrap_or(0) >= 1);
    assert!(metrics.counter("sampler.chunks").unwrap_or(0) >= 1);
    assert_eq!(metrics.counter("online.epochs"), Some(EPOCHS));
    assert!(metrics
        .histogram("serve.publish_secs")
        .is_some_and(|h| h.count == EPOCHS));
    assert!(metrics
        .histogram("serve.epoch_lag")
        .is_some_and(|h| h.count > 0));

    // Optional machine-readable export for CI and offline analysis.
    if let Ok(path) = std::env::var("KBOOST_OBS_JSONL") {
        std::fs::write(&path, recorder.to_json_lines()).expect("write JSONL export");
        println!("wrote metrics export to {path}");
    }
}
