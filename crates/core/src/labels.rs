//! `reduceLabels`: bottom-up propagation of component labels into the tree.
//!
//! Paper §3, Optimization 1 (and Fig. 4): before the nearest-neighbour
//! kernel of each Borůvka iteration, every internal BVH node is labeled with
//! its subtree's component when all leaves below it belong to one component,
//! or with [`INVALID_LABEL`] otherwise. Traversals then skip subtrees whose
//! label equals the query's component — the paper's key pruning device for
//! late iterations, when components are large.
//!
//! The kernel reuses the Apetrei construction pattern: one climbing thread
//! per leaf, an atomic flag per internal node; the first arriver dies, the
//! second (which can see both children's labels thanks to the `AcqRel`
//! flag) combines them and continues upward.
//!
//! Label placement and the wide traversal: `node_labels` stays indexed by
//! *binary* node id even though the walker runs on the 4-wide collapse —
//! every wide lane carries the binary id of the subtree it collapsed from,
//! so the binary tree's labels drive the wide walk through one skip
//! closure. Two properties of the reduction are load-bearing for that:
//! labels are **downward-closed** (a uniformly-labelled subtree has
//! uniformly-labelled children, so consulting only the collapse's
//! even-depth nodes skips exactly the same leaves), and a leaf node's
//! label equals `labels[rank]` (so the walker may leave leaf lanes to the
//! callback's same-component check). See [`emst_bvh::Bvh::nearest`].

use std::sync::atomic::{AtomicU32, Ordering};

use emst_bvh::Bvh;
use emst_exec::{ExecSpace, SyncUnsafeSlice};

/// Label of internal nodes whose leaves span multiple components.
pub const INVALID_LABEL: u32 = u32::MAX;

/// Propagates `labels` (indexed by Morton rank) to all `2n − 1` nodes of the
/// tree. `node_labels` must have `bvh.num_nodes()` entries; `flags` must
/// have `bvh.num_internal()` entries (they are reset here).
pub fn reduce_labels<S: ExecSpace, const D: usize>(
    space: &S,
    bvh: &Bvh<D>,
    labels: &[u32],
    node_labels: &mut [u32],
    flags: &[AtomicU32],
) {
    let n = bvh.num_leaves();
    debug_assert_eq!(labels.len(), n);
    debug_assert_eq!(node_labels.len(), bvh.num_nodes());
    debug_assert_eq!(flags.len(), bvh.num_internal());

    space.parallel_for(flags.len(), |i| flags[i].store(0, Ordering::Relaxed));

    let out = SyncUnsafeSlice::new(node_labels);
    space.parallel_for(n, |i| {
        let leaf = bvh.leaf_id(i as u32);
        // SAFETY: each leaf slot has exactly one writer (this thread), and
        // readers synchronize through the parent flag below.
        unsafe { out.write(leaf as usize, labels[i]) };
        let mut node = bvh.parent(leaf);
        while node != emst_bvh::INVALID_NODE {
            // First arriver dies; its leaf/subtree label write above is
            // released to the survivor by the AcqRel exchange.
            if flags[node as usize].fetch_add(1, Ordering::AcqRel) == 0 {
                break;
            }
            // SAFETY: both children were written before their climbing
            // threads incremented this node's flag.
            let left = unsafe { *out.get(bvh.left_child(node) as usize) };
            let right = unsafe { *out.get(bvh.right_child(node) as usize) };
            let combined = if left == right { left } else { INVALID_LABEL };
            // SAFETY: only the surviving thread writes this node.
            unsafe { out.write(node as usize, combined) };
            node = bvh.parent(node);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_exec::{Serial, Threads};
    use emst_geometry::Point;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.random_range(0.0f32..1.0), rng.random_range(0.0f32..1.0)]))
            .collect()
    }

    /// Reference: recursively recompute what every internal label must be.
    fn check_reduced<const D: usize>(bvh: &Bvh<D>, labels: &[u32], node_labels: &[u32]) {
        fn subtree_label<const D: usize>(bvh: &Bvh<D>, labels: &[u32], node: u32) -> Option<u32> {
            if bvh.is_leaf(node) {
                return Some(labels[bvh.leaf_rank(node) as usize]);
            }
            let l = subtree_label(bvh, labels, bvh.left_child(node));
            let r = subtree_label(bvh, labels, bvh.right_child(node));
            match (l, r) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            }
        }
        for node in 0..bvh.num_nodes() as u32 {
            let expect = subtree_label(bvh, labels, node).unwrap_or(INVALID_LABEL);
            assert_eq!(node_labels[node as usize], expect, "node {node}");
        }
    }

    fn run_case(n: usize, seed: u64, num_components: u32) {
        let pts = random_points(n, seed);
        let bvh = Bvh::build(&Serial, &pts);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..num_components)).collect();
        let mut node_labels = vec![0u32; bvh.num_nodes()];
        let flags: Vec<AtomicU32> = (0..bvh.num_internal()).map(|_| AtomicU32::new(7)).collect(); // stale flags
        reduce_labels(&Threads, &bvh, &labels, &mut node_labels, &flags);
        check_reduced(&bvh, &labels, &node_labels);
    }

    #[test]
    fn all_same_component_labels_whole_tree() {
        let pts = random_points(100, 1);
        let bvh = Bvh::build(&Serial, &pts);
        let labels = vec![3u32; 100];
        let mut node_labels = vec![0u32; bvh.num_nodes()];
        let flags: Vec<AtomicU32> = (0..bvh.num_internal()).map(|_| AtomicU32::new(0)).collect();
        reduce_labels(&Serial, &bvh, &labels, &mut node_labels, &flags);
        assert!(node_labels.iter().all(|&l| l == 3));
    }

    #[test]
    fn distinct_labels_invalidate_all_internal_nodes() {
        let pts = random_points(64, 2);
        let bvh = Bvh::build(&Serial, &pts);
        let labels: Vec<u32> = (0..64).collect();
        let mut node_labels = vec![0u32; bvh.num_nodes()];
        let flags: Vec<AtomicU32> = (0..bvh.num_internal()).map(|_| AtomicU32::new(0)).collect();
        reduce_labels(&Serial, &bvh, &labels, &mut node_labels, &flags);
        for node in 0..bvh.num_internal() as u32 {
            assert_eq!(node_labels[node as usize], INVALID_LABEL);
        }
        check_reduced(&bvh, &labels, &node_labels);
    }

    #[test]
    fn single_leaf_tree_reduces() {
        let bvh = Bvh::build(&Serial, &[Point::new([0.5f32, 0.5])]);
        let labels = vec![9u32];
        let mut node_labels = vec![0u32; 1];
        reduce_labels(&Serial, &bvh, &labels, &mut node_labels, &[]);
        assert_eq!(node_labels, vec![9]);
    }

    #[test]
    fn mixed_components_match_reference_serial_and_parallel() {
        run_case(500, 42, 7);
        run_case(1000, 43, 2);
        run_case(333, 44, 100);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn reduced_labels_match_reference(
            n in 1usize..150, seed in 0u64..300, comps in 1u32..10
        ) {
            run_case(n, seed, comps);
        }
    }
}
