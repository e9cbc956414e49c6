//! The brute-force oracle property: on any small point cloud, the paper's
//! single-tree Borůvka EMST must produce exactly the same multiset of edge
//! weights as the O(n²) reference in `emst::core::brute` — plus the
//! degenerate inputs (empty, singleton, pair, all-duplicate, collinear)
//! where the right answer is known in closed form.
//!
//! Weight multisets (not edge sets) are compared because the EMST is only
//! unique up to ties; the `(weight, min, max)` tie-breaking makes the edge
//! set deterministic per implementation but not across implementations.

use emst::core::brute::brute_force_emst;
use emst::core::edge::{verify_spanning_tree, weight_multiset};
use emst::core::{EmstConfig, SingleTreeBoruvka};
use emst::datasets::Kind;
use emst::exec::{Serial, Threads};
use emst::geometry::Point;
use proptest::prelude::*;

fn single_tree_multiset<const D: usize>(points: &[Point<D>]) -> Vec<u32> {
    let r = SingleTreeBoruvka::new(points).run(&Threads, &EmstConfig::default());
    verify_spanning_tree(points.len(), &r.edges).expect("result must be a spanning tree");
    weight_multiset(&r.edges)
}

fn oracle_multiset<const D: usize>(points: &[Point<D>]) -> Vec<u32> {
    weight_multiset(&brute_force_emst(points))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_brute_force_on_random_2d_clouds(
        n in 2usize..=256,
        seed in 0u64..10_000,
        kind in prop::sample::select(vec![Kind::Uniform, Kind::Normal, Kind::VisualVar]),
    ) {
        let pts = kind.generate::<2>(n, seed);
        prop_assert_eq!(single_tree_multiset(&pts), oracle_multiset(&pts));
    }

    #[test]
    fn matches_brute_force_on_random_3d_clouds(
        n in 2usize..=256,
        seed in 0u64..10_000,
        kind in prop::sample::select(vec![Kind::Uniform, Kind::HaccLike, Kind::NgsimLike]),
    ) {
        let pts = kind.generate::<3>(n, seed);
        prop_assert_eq!(single_tree_multiset(&pts), oracle_multiset(&pts));
    }
}

#[test]
fn empty_and_singleton_inputs_yield_empty_trees() {
    for n in [0usize, 1] {
        let pts: Vec<Point<2>> = Kind::Uniform.generate(n, 1);
        assert_eq!(pts.len(), n);
        let r = SingleTreeBoruvka::new(&pts).run(&Serial, &EmstConfig::default());
        assert!(r.edges.is_empty());
        assert_eq!(r.total_weight, 0.0);
        assert!(brute_force_emst(&pts).is_empty());
    }
}

#[test]
fn two_points_yield_the_connecting_edge() {
    let pts = [Point::new([0.0f32, 0.0]), Point::new([3.0, 4.0])];
    let r = SingleTreeBoruvka::new(&pts).run(&Serial, &EmstConfig::default());
    assert_eq!(r.edges.len(), 1);
    let e = r.edges[0];
    assert_eq!((e.u, e.v), (0, 1));
    assert_eq!(e.weight_sq, 25.0);
    assert_eq!(r.total_weight, 5.0);
}

#[test]
fn all_duplicate_points_yield_a_zero_weight_tree() {
    let pts = vec![Point::new([0.25f32, -1.5, 7.0]); 9];
    let r = SingleTreeBoruvka::new(&pts).run(&Threads, &EmstConfig::default());
    assert_eq!(r.edges.len(), 8);
    assert!(r.edges.iter().all(|e| e.weight_sq == 0.0));
    assert_eq!(r.total_weight, 0.0);
    assert_eq!(weight_multiset(&r.edges), oracle_multiset(&pts));
}

#[test]
fn collinear_points_chain_along_the_line() {
    // Points on a line: the EMST is the sorted chain, so the total weight is
    // exactly the span. Use power-of-two coordinates to keep f32 exact.
    let xs = [8.0f32, 0.5, 4.0, 1.0, 2.0, 0.25];
    let pts: Vec<Point<2>> = xs.iter().map(|&x| Point::new([x, 0.0])).collect();
    let r = SingleTreeBoruvka::new(&pts).run(&Serial, &EmstConfig::default());
    assert_eq!(r.edges.len(), pts.len() - 1);
    assert_eq!(r.total_weight, 8.0 - 0.25);
    assert_eq!(weight_multiset(&r.edges), oracle_multiset(&pts));
}
