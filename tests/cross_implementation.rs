//! Cross-crate integration: every EMST implementation in the workspace must
//! produce a minimum spanning tree with the same weight multiset on every
//! dataset archetype, every backend, and both metrics.

use emst::core::brute::brute_force_emst;
use emst::core::edge::{verify_spanning_tree, weight_multiset};
use emst::core::{Edge, EdgeSelection, EmstConfig, SingleTreeBoruvka};
use emst::datasets::Kind;
use emst::exec::{ChaosSerial, ExecSpace, GpuSim, Serial, Threads};
use emst::geometry::Point;
use emst::kdtree::{bentley_friedman_emst, dual_tree_emst};
use emst::shard::emst_sharded;
use emst::wspd::wspd_emst;
use proptest::prelude::*;

/// The shard counts the sharded solver is cross-checked at everywhere.
const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

fn check_all_impls<const D: usize>(points: &[Point<D>], label: &str) {
    let n = points.len();
    let reference = SingleTreeBoruvka::new(points).run(&Serial, &EmstConfig::default());
    verify_spanning_tree(n, &reference.edges).unwrap_or_else(|e| panic!("{label}: {e}"));
    let ref_multiset = weight_multiset(&reference.edges);

    // Single-tree on every backend and both edge-selection strategies.
    for selection in [EdgeSelection::Locked, EdgeSelection::Atomic64] {
        let cfg = EmstConfig { edge_selection: selection, ..Default::default() };
        let threads = SingleTreeBoruvka::new(points).run(&Threads, &cfg);
        assert_eq!(weight_multiset(&threads.edges), ref_multiset, "{label} threads {selection:?}");
        let gpu = SingleTreeBoruvka::new(points).run(&GpuSim::new(), &cfg);
        assert_eq!(weight_multiset(&gpu.edges), ref_multiset, "{label} gpusim {selection:?}");
    }

    // Both baselines.
    let dual = dual_tree_emst(points);
    verify_spanning_tree(n, &dual.edges).unwrap();
    assert_eq!(weight_multiset(&dual.edges), ref_multiset, "{label} dual-tree");
    for parallel in [false, true] {
        let wspd = wspd_emst(points, parallel);
        verify_spanning_tree(n, &wspd.edges).unwrap();
        assert_eq!(weight_multiset(&wspd.edges), ref_multiset, "{label} wspd({parallel})");
    }
}

#[test]
fn all_archetypes_2d_agree_across_implementations() {
    for kind in Kind::ALL {
        let points: Vec<Point<2>> = kind.generate(700, 0x2D);
        check_all_impls(&points, &format!("{kind:?}/2D"));
    }
}

#[test]
fn all_archetypes_3d_agree_across_implementations() {
    for kind in Kind::ALL {
        let points: Vec<Point<3>> = kind.generate(500, 0x3D);
        check_all_impls(&points, &format!("{kind:?}/3D"));
    }
}

#[test]
fn small_inputs_match_brute_force_everywhere() {
    for kind in [Kind::Uniform, Kind::HaccLike, Kind::GeoLifeLike] {
        for n in [2usize, 3, 5, 17, 64] {
            let points: Vec<Point<2>> = kind.generate(n, n as u64);
            let brute = weight_multiset(&brute_force_emst(&points));
            let single = SingleTreeBoruvka::new(&points).run(&Serial, &EmstConfig::default());
            assert_eq!(weight_multiset(&single.edges), brute, "{kind:?} n={n} single");
            assert_eq!(
                weight_multiset(&dual_tree_emst(&points).edges),
                brute,
                "{kind:?} n={n} dual"
            );
            assert_eq!(
                weight_multiset(&wspd_emst(&points, false).edges),
                brute,
                "{kind:?} n={n} wspd"
            );
            assert_eq!(
                weight_multiset(&bentley_friedman_emst(&points)),
                brute,
                "{kind:?} n={n} bf"
            );
        }
    }
}

#[test]
fn subsampled_dataset_remains_consistent() {
    // The Fig. 7 methodology: subsample, then solve.
    let parent: Vec<Point<3>> = Kind::HaccLike.generate(5_000, 77);
    for m in [50usize, 500, 2_000] {
        let sub = emst::datasets::sample_preserving_distribution(&parent, m, 9);
        check_all_impls(&sub, &format!("hacc-subsample-{m}"));
    }
}

/// Acceptance: for every generator at n = 2000 in 2D and 3D, the sharded
/// solver's weight multiset equals the monolithic single-tree solve for
/// K ∈ {1, 2, 7, 16}.
fn check_sharded_matches_monolithic<const D: usize>(points: &[Point<D>], label: &str) {
    let mono = SingleTreeBoruvka::new(points).run(&Threads, &EmstConfig::default());
    let reference = weight_multiset(&mono.edges);
    for k in SHARD_COUNTS {
        let sharded = emst_sharded(points, k);
        verify_spanning_tree(points.len(), &sharded.edges)
            .unwrap_or_else(|e| panic!("{label} K={k}: {e}"));
        assert_eq!(weight_multiset(&sharded.edges), reference, "{label} K={k}");
        assert_eq!(sharded.stats.shard_sizes.iter().sum::<usize>(), points.len());
    }
}

#[test]
fn sharded_matches_monolithic_on_all_generators_2d() {
    for kind in Kind::ALL {
        let points: Vec<Point<2>> = kind.generate(2000, 0x5A);
        check_sharded_matches_monolithic(&points, &format!("{kind:?}/2D"));
    }
}

#[test]
fn sharded_matches_monolithic_on_all_generators_3d() {
    for kind in Kind::ALL {
        let points: Vec<Point<3>> = kind.generate(2000, 0x5B);
        check_sharded_matches_monolithic(&points, &format!("{kind:?}/3D"));
    }
}

#[test]
fn sharded_handles_shards_smaller_than_the_leaf_size() {
    // More shards than points: most shards are empty, the rest hold a
    // single point, and every local solve degenerates to "no edges".
    for n in [2usize, 3, 5, 9] {
        let points: Vec<Point<2>> = Kind::Uniform.generate(n, n as u64);
        let brute = weight_multiset(&brute_force_emst(&points));
        for k in SHARD_COUNTS {
            let sharded = emst_sharded(&points, k);
            verify_spanning_tree(n, &sharded.edges).unwrap();
            assert_eq!(weight_multiset(&sharded.edges), brute, "n={n} K={k}");
        }
    }
}

#[test]
fn sharded_handles_all_duplicate_points_in_one_shard() {
    let points = vec![Point::new([0.125f32, -0.25]); 50];
    for k in SHARD_COUNTS {
        let sharded = emst_sharded(&points, k);
        verify_spanning_tree(50, &sharded.edges).unwrap();
        assert_eq!(sharded.total_weight, 0.0, "K={k}");
        if k > 1 {
            // Identical Morton codes cannot straddle a shard cut.
            assert_eq!(sharded.stats.shard_sizes.iter().filter(|&&s| s > 0).count(), 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sharded_emst_equals_single_tree_and_brute_force(
        n in 2usize..120,
        seed in 0u64..10_000,
        k in prop::sample::select(SHARD_COUNTS.to_vec()),
    ) {
        let points: Vec<Point<2>> = Kind::Uniform.generate(n, seed);
        let sharded = emst_sharded(&points, k);
        prop_assert!(verify_spanning_tree(n, &sharded.edges).is_ok());
        let multiset = weight_multiset(&sharded.edges);
        let mono = SingleTreeBoruvka::new(&points).run(&Serial, &EmstConfig::default());
        prop_assert_eq!(&multiset, &weight_multiset(&mono.edges));
        prop_assert_eq!(&multiset, &weight_multiset(&brute_force_emst(&points)));
    }

    #[test]
    fn sharded_emst_on_clustered_integer_points(
        n in 2usize..80,
        seed in 0u64..1000,
        k in prop::sample::select(SHARD_COUNTS.to_vec()),
    ) {
        // Tiny integer range: heavy duplicate and tie pressure, including
        // shards below the leaf size and duplicate runs pinned to a single
        // shard by the Morton-range cut snapping.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([
                rng.random_range(0i32..4) as f32,
                rng.random_range(0i32..4) as f32,
            ]))
            .collect();
        let sharded = emst_sharded(&points, k);
        prop_assert!(verify_spanning_tree(n, &sharded.edges).is_ok());
        prop_assert_eq!(
            weight_multiset(&sharded.edges),
            weight_multiset(&brute_force_emst(&points))
        );
    }
}

#[test]
fn total_weights_match_in_f64_too() {
    let points: Vec<Point<2>> = Kind::Normal.generate(3_000, 5);
    let a = SingleTreeBoruvka::new(&points).run(&Threads, &EmstConfig::default()).total_weight;
    let b = wspd_emst(&points, true).total_weight;
    let c = dual_tree_emst(&points).total_weight;
    assert!((a - b).abs() < 1e-6 * a);
    assert!((a - c).abs() < 1e-6 * a);
}

/// Runs the default configuration on `space` and returns the edge list in
/// canonical order.
fn sorted_edges<S: ExecSpace>(points: &[Point<2>], space: &S) -> Vec<Edge> {
    let mut edges = SingleTreeBoruvka::new(points).run(space, &EmstConfig::default()).edges;
    edges.sort_by_key(Edge::key);
    edges
}

/// Every backend must produce a *bit-identical* tree (not just an equal
/// weight multiset): each query's hit is the minimum over the same
/// candidate set under the same `(distance, rank)` order, so every chosen
/// edge — endpoints and weight bits — must coincide, including on the
/// order-shuffling `ChaosSerial`.
#[test]
fn stack_and_stackless_trees_are_bit_identical_on_all_backends() {
    for kind in [Kind::Uniform, Kind::VisualVar, Kind::GeoLifeLike] {
        let points: Vec<Point<2>> = kind.generate(800, 0x5B);
        let reference = sorted_edges(&points, &Threads);
        assert_eq!(sorted_edges(&points, &ChaosSerial::new(3)), reference, "{kind:?} chaos");
        assert_eq!(sorted_edges(&points, &Serial), reference, "{kind:?} serial");
        assert_eq!(sorted_edges(&points, &GpuSim::new()), reference, "{kind:?} gpusim");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under duplicate/tie pressure (integer grids plus repeated blocks)
    /// and with the component-skip predicate active (default config), the
    /// trees must agree bit-for-bit across Serial, Threads, GpuSim and the
    /// order-shuffling ChaosSerial backends.
    #[test]
    fn traversals_bit_identical_under_tie_pressure_on_every_backend(
        n in 2usize..120,
        seed in 0u64..400,
        duplicates in 0usize..3,
        chaos_seed in 0u64..8,
    ) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([
                rng.random_range(0i32..7) as f32,
                rng.random_range(0i32..7) as f32,
            ]))
            .collect();
        for _ in 0..duplicates {
            let p = points[0];
            points.extend(std::iter::repeat_n(p, 5));
        }
        let reference = sorted_edges(&points, &Threads);
        prop_assert_eq!(&sorted_edges(&points, &ChaosSerial::new(chaos_seed)), &reference);
        prop_assert_eq!(&sorted_edges(&points, &Serial), &reference);
        prop_assert_eq!(&sorted_edges(&points, &GpuSim::new()), &reference);
    }
}
