//! Core distances: per-point k-th-nearest-neighbour distances.
//!
//! The `T_core` phase of the paper's Fig. 9. One k-NN query per point over
//! the shared BVH, each maintaining a bounded per-thread max-heap — the
//! structure whose thread divergence the paper blames for the GPU cost
//! growth with `k_pts` (§4.5).

use emst_bvh::Bvh;
use emst_exec::{ExecSpace, SyncUnsafeSlice};
use emst_geometry::{Point, Scalar};

/// Builds a BVH and computes squared core distances (original index order).
pub fn core_distances_sq<S: ExecSpace, const D: usize>(
    space: &S,
    points: &[Point<D>],
    k_pts: usize,
) -> Vec<Scalar> {
    if points.is_empty() {
        return vec![];
    }
    let bvh = Bvh::build(space, points);
    core_distances_sq_on(space, &bvh, k_pts)
}

/// Computes squared core distances over an existing BVH (original index
/// order). `k_pts` counts the point itself; it is clamped to `n`.
pub fn core_distances_sq_on<S: ExecSpace, const D: usize>(
    space: &S,
    bvh: &Bvh<D>,
    k_pts: usize,
) -> Vec<Scalar> {
    core_distances_sq_instrumented(space, bvh, k_pts, &emst_exec::Counters::new())
}

/// [`core_distances_sq_on`] recording its work into `counters`, including a
/// per-candidate heap-maintenance charge (`⌈log₂(k+1)⌉` sift steps per
/// offer) — the per-thread priority-queue cost the paper identifies as the
/// dominant GPU term of `T_core` (§4.5).
pub fn core_distances_sq_instrumented<S: ExecSpace, const D: usize>(
    space: &S,
    bvh: &Bvh<D>,
    k_pts: usize,
    counters: &emst_exec::Counters,
) -> Vec<Scalar> {
    assert!(k_pts >= 1, "k_pts includes the point itself and must be >= 1");
    let n = bvh.num_leaves();
    let k = k_pts.min(n);
    let mut out = vec![0.0; n];
    if k == 1 {
        // The nearest neighbour of a point including itself is itself.
        return out;
    }
    let heap_depth = (usize::BITS - k.leading_zeros()) as u64;
    {
        let out_s = SyncUnsafeSlice::new(&mut out);
        let stats = space.parallel_reduce(
            n,
            emst_bvh::TraversalStats::default(),
            |rank| {
                let mut st = emst_bvh::TraversalStats::default();
                let neighbors = bvh.k_nearest_with_stats(bvh.leaf_point(rank as u32), k, &mut st);
                let core = neighbors.last().expect("k >= 1").1;
                let orig = bvh.point_index(rank as u32) as usize;
                // SAFETY: `orig` is a permutation of 0..n — one writer per slot.
                unsafe { out_s.write(orig, core) };
                st
            },
            emst_bvh::TraversalStats::merged,
        );
        counters.add_queries(n as u64);
        counters.add(&stats.work());
        // Every candidate offer costs up to one heap sift.
        counters.add_heap_ops(stats.leaves * heap_depth);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_exec::{Serial, Threads};
    use emst_geometry::brute_force_core_distances_sq;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.random_range(0.0f32..1.0), rng.random_range(0.0f32..1.0)]))
            .collect()
    }

    #[test]
    fn matches_brute_force_for_various_k() {
        let pts = random_points(200, 3);
        for k in [1usize, 2, 3, 8, 50, 200, 500] {
            let got = core_distances_sq(&Serial, &pts, k);
            let expect = brute_force_core_distances_sq(&pts, k);
            assert_eq!(got, expect, "k={k}");
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let pts = random_points(500, 9);
        assert_eq!(core_distances_sq(&Serial, &pts, 6), core_distances_sq(&Threads, &pts, 6));
    }

    #[test]
    fn duplicates_have_zero_core_distance_for_small_k() {
        let mut pts = vec![Point::new([0.5f32, 0.5]); 4];
        pts.push(Point::new([2.0, 2.0]));
        let core = core_distances_sq(&Serial, &pts, 3);
        // The four duplicates have >= 3 coincident points.
        for c in &core[..4] {
            assert_eq!(*c, 0.0);
        }
        assert!(core[4] > 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn core_distances_match_brute_force(
            n in 1usize..120, seed in 0u64..500, k in 1usize..10
        ) {
            let pts = random_points(n, seed);
            prop_assert_eq!(
                core_distances_sq(&Serial, &pts, k),
                brute_force_core_distances_sq(&pts, k)
            );
        }
    }
}
