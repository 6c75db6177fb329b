//! Kernel ≡ scalar-oracle equivalence for the data-oriented phase-I
//! sampling kernel, end to end through the pool machinery:
//!
//! * a pool sampled through the batched-draw kernel
//!   ([`PrrFullSource::new`]/[`with_footprints`]) is **byte-equal** —
//!   covers, arena storage arrays, and footprint columns — to one sampled
//!   through the scalar oracle ([`PrrFullSource::scalar_oracle`]) with the
//!   same `(base_seed, target)`, across graph families (ER, preferential
//!   attachment, the set-cover gadget), thread counts, footprint modes,
//!   and terminator interruption points;
//! * [`PrrLbSource`] covers agree between kernel and scalar oracle;
//! * an interrupted-then-resumed kernel extension equals the
//!   uninterrupted pool (chunk-prefix contract survives the kernel's
//!   scratch reuse).
//!
//! [`with_footprints`]: PrrFullSource::with_footprints

use kboost::graph::generators::{
    erdos_renyi, preferential_attachment, set_cover_gadget, SetCoverInstance,
};
use kboost::graph::probability::ProbabilityModel;
use kboost::graph::{DiGraph, NodeId};
use kboost::prr::{FootprintMode, PrrArena, PrrArenaShard, PrrFullSource, PrrLbSource};
use kboost::rrset::sketch::{ExtendStatus, SketchPool};
use kboost::rrset::terminator::{StopAtChunk, Unlimited};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[derive(Clone, Copy, Debug)]
enum Family {
    Er,
    Pa,
    Gadget,
}

fn build_graph(family: Family, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    match family {
        Family::Er => erdos_renyi(16, 50, ProbabilityModel::Constant(0.3), 2.0, &mut rng),
        Family::Pa => {
            preferential_attachment(18, 2, 0.3, ProbabilityModel::Trivalency, 2.0, &mut rng)
        }
        Family::Gadget => set_cover_gadget(&SetCoverInstance {
            num_elements: 6,
            subsets: vec![
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5],
                vec![0, 5],
                vec![1, 4],
            ],
        }),
    }
}

/// Builds the same pool twice — kernel and scalar oracle — under an
/// optional interrupting terminator, and asserts cover and byte equality.
#[allow(clippy::too_many_arguments)]
fn assert_kernel_matches_scalar(
    g: &DiGraph,
    seeds: &[NodeId],
    k: usize,
    pool_seed: u64,
    threads: usize,
    target: u64,
    mode: FootprintMode,
    stop_at: Option<u64>,
) {
    let kernel_src = PrrFullSource::with_footprints(g, seeds, k, mode);
    let scalar_src = PrrFullSource::scalar_oracle(g, seeds, k, mode);

    let mut kernel_pool: SketchPool<PrrArenaShard> = SketchPool::new(pool_seed, threads);
    let mut scalar_pool: SketchPool<PrrArenaShard> = SketchPool::new(pool_seed, threads);
    let (ks, ss) = match stop_at {
        Some(c) => (
            kernel_pool.extend_to_within(&kernel_src, target, &StopAtChunk(c)),
            scalar_pool.extend_to_within(&scalar_src, target, &StopAtChunk(c)),
        ),
        None => (
            kernel_pool.extend_to_within(&kernel_src, target, &Unlimited),
            scalar_pool.extend_to_within(&scalar_src, target, &Unlimited),
        ),
    };
    assert_eq!(ks, ss, "extension status diverged");
    assert_eq!(kernel_pool.total_samples(), scalar_pool.total_samples());
    assert_eq!(kernel_pool.empty_samples(), scalar_pool.empty_samples());
    assert_eq!(
        kernel_pool.covers(),
        scalar_pool.covers(),
        "covers diverged"
    );

    let (_, kernel_shard, _, _) = kernel_pool.into_parts();
    let (_, scalar_shard, _, _) = scalar_pool.into_parts();
    // Arena equality compares every raw storage array, footprint columns
    // (entries, dictionaries, fingerprints) included.
    assert!(
        PrrArena::from_shard(kernel_shard) == PrrArena::from_shard(scalar_shard),
        "kernel arena diverged from scalar arena \
         (seed {pool_seed}, k {k}, {threads} threads, mode {mode:?}, stop {stop_at:?})"
    );
}

#[test]
fn interrupted_then_resumed_kernel_pool_equals_uninterrupted() {
    let g = build_graph(Family::Er, 11);
    let source = PrrFullSource::with_footprints(&g, &[NodeId(0)], 3, FootprintMode::Compressed);

    let mut straight: SketchPool<PrrArenaShard> = SketchPool::new(0xBEEF, 3);
    assert_eq!(
        straight.extend_to_within(&source, 4_000, &Unlimited),
        ExtendStatus::Completed
    );

    let mut resumed: SketchPool<PrrArenaShard> = SketchPool::new(0xBEEF, 3);
    assert_eq!(
        resumed.extend_to_within(&source, 4_000, &StopAtChunk(5)),
        ExtendStatus::Interrupted
    );
    assert!(resumed.total_samples() < 4_000);
    assert_eq!(
        resumed.extend_to_within(&source, 4_000, &Unlimited),
        ExtendStatus::Completed
    );

    assert_eq!(straight.total_samples(), resumed.total_samples());
    assert_eq!(straight.covers(), resumed.covers());
    let (_, straight_shard, _, _) = straight.into_parts();
    let (_, resumed_shard, _, _) = resumed.into_parts();
    assert!(
        PrrArena::from_shard(straight_shard) == PrrArena::from_shard(resumed_shard),
        "resumed pool diverged from uninterrupted pool"
    );
}

#[test]
fn lb_covers_match_scalar_oracle() {
    for family in [Family::Er, Family::Pa, Family::Gadget] {
        let g = build_graph(family, 7);
        let kernel_src = PrrLbSource::new(&g, &[NodeId(0)], 2);
        let scalar_src = PrrLbSource::scalar_oracle(&g, &[NodeId(0)], 2);
        for threads in [1usize, 7] {
            let mut kernel_pool: SketchPool<()> = SketchPool::new(99, threads);
            kernel_pool.extend_to(&kernel_src, 3_000);
            let mut scalar_pool: SketchPool<()> = SketchPool::new(99, threads);
            scalar_pool.extend_to(&scalar_src, 3_000);
            assert_eq!(kernel_pool.total_samples(), scalar_pool.total_samples());
            assert_eq!(
                kernel_pool.covers(),
                scalar_pool.covers(),
                "LB covers diverged ({family:?}, {threads} threads)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kernel ≡ scalar across graph families, thread counts, footprint
    /// modes, and random interruption points.
    #[test]
    fn kernel_matches_scalar_everywhere(
        family_ix in 0usize..3,
        graph_seed in 0u64..5_000,
        pool_seed in 0u64..5_000,
        k in 1usize..4,
        threads_ix in 0usize..2,
        mode_ix in 0usize..3,
        stop_raw in 0u64..6,
    ) {
        let family = [Family::Er, Family::Pa, Family::Gadget][family_ix];
        let mode = [
            FootprintMode::Off,
            FootprintMode::Compressed,
            FootprintMode::Hybrid { bloom_above: 4 },
        ][mode_ix];
        let threads = [1usize, 7][threads_ix];
        // 0 ⇒ run to completion; otherwise interrupt at chunk `stop_raw`.
        let stop = (stop_raw > 0).then_some(stop_raw);
        let g = build_graph(family, graph_seed);
        assert_kernel_matches_scalar(
            &g, &[NodeId(0)], k, pool_seed, threads, 1_500, mode, stop,
        );
    }
}
