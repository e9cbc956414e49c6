//! Morton-range sharded EMST — the scale-out layer over the single-tree
//! algorithm.
//!
//! The paper's algorithm is bounded by one device's memory. This crate
//! decomposes the problem across `K` *shards*:
//!
//! 1. **Plan** ([`ShardPlan`]) — points are cut into `K` spatially coherent
//!    shards by Morton-code range splitting (the same Z-order machinery the
//!    BVH construction uses), with cuts snapped so identical codes never
//!    straddle a shard boundary;
//! 2. **Local solve** — each shard's EMST is computed by the existing
//!    [`emst_core::SingleTreeBoruvka`] on any [`emst_exec::ExecSpace`];
//!    shards run concurrently on the vendored rayon;
//! 3. **Merge** — shards are connected by Borůvka rounds over candidate
//!    boundary edges: each component's shortest outgoing edge is the
//!    minimum of its local-MST candidate edges and constrained
//!    nearest-neighbour queries against the *other* shards' BVHs. Local
//!    candidates give interior points tight traversal radii, so only the
//!    shard-boundary region does real cross-shard work (see
//!    `merge` module docs for the exactness argument).
//!
//! The result's edge-weight multiset is **guaranteed equal to the
//! monolithic solve**: discarding non-MST intra-shard edges is justified by
//! the cycle property, and the merge computes the exact MST of what
//! remains under the paper's `(weight, min, max)` total edge order.
//!
//! For inputs too large to hold in memory, [`emst_sharded_csv`] streams
//! shards from CSV through [`emst_datasets::io`] so points are never fully
//! resident (see the [`stream`] module).
//!
//! ```
//! use emst_datasets::Kind;
//! use emst_shard::emst_sharded;
//!
//! let pts = Kind::Uniform.generate::<2>(500, 42);
//! let result = emst_sharded(&pts, 4);
//! assert_eq!(result.edges.len(), 499);
//! assert_eq!(result.stats.shard_sizes.iter().sum::<usize>(), 500);
//! ```

// The spill writer indexes point coordinates by dimension; clippy's
// iterator suggestion does not apply cleanly there.
#![allow(clippy::needless_range_loop)]

pub mod artifacts;
mod merge;
pub mod plan;
pub mod stream;

pub use artifacts::{ShardArtifacts, UpdateReport, ARTIFACT_MAGIC};
pub use merge::{MergeDeadlineExceeded, MergeRoundDetail, MergeScratch};
pub use plan::ShardPlan;
pub use stream::{emst_sharded_csv, StreamConfig};

use emst_core::Edge;
use emst_exec::counters::CounterSnapshot;
use emst_exec::{ExecSpace, PhaseTimings, Threads};
use emst_geometry::Point;

/// Configuration of a sharded solve. Every per-shard single-tree solve
/// runs with [`emst_core::EmstConfig::default`].
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of Morton-range shards (clamped to at least 1).
    pub shards: usize,
}

impl ShardConfig {
    /// Default configuration with `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self { shards }
    }
}

/// Observability of a sharded run: per-shard sizes, boundary-candidate
/// counts and merge-round counts, plus the aggregated [`emst_exec`]
/// counters and wall-clock phase timings.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Point count per shard (empty shards included).
    pub shard_sizes: Vec<usize>,
    /// Borůvka iterations of each non-empty shard's local solve.
    pub local_iterations: Vec<u32>,
    /// Cross-shard queries that reached at least one leaf of another
    /// shard's BVH — the effective boundary-region candidate count.
    pub boundary_candidates: u64,
    /// Borůvka rounds of the cross-shard merge.
    pub merge_rounds: u32,
    /// Per-round merge breakdown (wall-clock, queries fired, boundary
    /// candidates, traversal deltas), in execution order. Empty only when
    /// the merge ran zero rounds (`n < 2`).
    pub round_details: Vec<MergeRoundDetail>,
    /// Peak number of points resident at once (only meaningful for the
    /// out-of-core path; equals `n` for in-memory solves).
    pub peak_resident: usize,
    /// Wall-clock phase timings: `"plan"`, `"local"`, `"merge"` and
    /// `merge.*` sub-phases.
    pub timings: PhaseTimings,
    /// Aggregated algorithmic work (local solves + merge traversals).
    pub work: CounterSnapshot,
}

/// Output of a sharded EMST computation.
#[derive(Clone, Debug)]
pub struct ShardedResult {
    /// The `n − 1` tree edges (original point indices, `u < v`).
    pub edges: Vec<Edge>,
    /// Sum of (non-squared) edge weights, accumulated in `f64`.
    pub total_weight: f64,
    /// Run statistics.
    pub stats: ShardStats,
}

impl ShardedResult {
    fn empty() -> Self {
        Self { edges: vec![], total_weight: 0.0, stats: ShardStats::default() }
    }
}

/// Computes the EMST of `points` over `shards` Morton-range shards on the
/// [`Threads`] backend with default configuration.
pub fn emst_sharded<const D: usize>(points: &[Point<D>], shards: usize) -> ShardedResult {
    emst_sharded_with(&Threads, points, &ShardConfig::new(shards))
}

/// Computes the sharded EMST with an explicit execution space and
/// configuration. The edge-weight multiset equals the monolithic
/// [`emst_core::SingleTreeBoruvka`] solve for every `K`.
///
/// This is exactly [`ShardArtifacts::build`] followed by
/// [`ShardArtifacts::merge`] with the stats of both phases stitched
/// together — the one-shot form of the resident-artifact flow the serving
/// layer keeps warm.
pub fn emst_sharded_with<S: ExecSpace, const D: usize>(
    space: &S,
    points: &[Point<D>],
    config: &ShardConfig,
) -> ShardedResult {
    let n = points.len();
    if n < 2 {
        return ShardedResult::empty();
    }
    let artifacts = ShardArtifacts::build(space, points, config);
    let mut result =
        artifacts.merge(space, &mut MergeScratch::new(), None).expect("no deadline was set");
    let mut timings = artifacts.build_timings().clone();
    timings.absorb(&result.stats.timings);
    result.stats.timings = timings;
    result.stats.work = artifacts.build_work() + result.stats.work;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_core::brute::brute_force_emst;
    use emst_core::edge::{verify_spanning_tree, weight_multiset};
    use emst_core::{EmstConfig, SingleTreeBoruvka};
    use emst_exec::{GpuSim, Serial};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points_2d(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.random_range(-1.0f32..1.0), rng.random_range(-1.0f32..1.0)]))
            .collect()
    }

    fn check_matches_monolithic(pts: &[Point<2>], k: usize) {
        let sharded = emst_sharded(pts, k);
        verify_spanning_tree(pts.len(), &sharded.edges).unwrap();
        let mono = SingleTreeBoruvka::new(pts).run(&Serial, &EmstConfig::default());
        assert_eq!(
            weight_multiset(&sharded.edges),
            weight_multiset(&mono.edges),
            "k={k} n={}",
            pts.len()
        );
    }

    #[test]
    fn matches_monolithic_across_shard_counts() {
        let pts = random_points_2d(800, 13);
        for k in [1usize, 2, 3, 7, 16] {
            check_matches_monolithic(&pts, k);
        }
    }

    #[test]
    fn matches_brute_force_on_small_inputs() {
        for n in [2usize, 3, 5, 17, 50] {
            let pts = random_points_2d(n, n as u64);
            for k in [1usize, 2, 7, 16] {
                let sharded = emst_sharded(&pts, k);
                verify_spanning_tree(n, &sharded.edges).unwrap();
                let brute = brute_force_emst(&pts);
                assert_eq!(weight_multiset(&sharded.edges), weight_multiset(&brute), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn all_duplicates_collapse_into_one_shard_and_still_solve() {
        let pts = vec![Point::new([0.5f32, -0.5]); 40];
        let sharded = emst_sharded(&pts, 7);
        verify_spanning_tree(40, &sharded.edges).unwrap();
        assert_eq!(sharded.total_weight, 0.0);
        assert_eq!(sharded.stats.shard_sizes.iter().filter(|&&s| s > 0).count(), 1);
    }

    #[test]
    fn trivial_sizes() {
        assert!(emst_sharded::<2>(&[], 4).edges.is_empty());
        assert!(emst_sharded(&[Point::new([1.0f32, 2.0])], 4).edges.is_empty());
        let two = [Point::new([0.0f32, 0.0]), Point::new([3.0, 4.0])];
        let r = emst_sharded(&two, 4);
        assert_eq!(r.edges, vec![Edge::new(0, 1, 25.0)]);
        assert_eq!(r.total_weight, 5.0);
    }

    #[test]
    fn grid_with_massive_ties_matches_monolithic() {
        let pts: Vec<Point<2>> =
            (0..15).flat_map(|x| (0..15).map(move |y| Point::new([x as f32, y as f32]))).collect();
        for k in [2usize, 7, 16] {
            check_matches_monolithic(&pts, k);
        }
    }

    #[test]
    fn backends_agree() {
        let pts = random_points_2d(600, 29);
        let reference = emst_sharded(&pts, 5);
        let cfg = ShardConfig::new(5);
        let a = emst_sharded_with(&Serial, &pts, &cfg);
        let b = emst_sharded_with(&GpuSim::new(), &pts, &cfg);
        assert_eq!(weight_multiset(&a.edges), weight_multiset(&reference.edges));
        assert_eq!(weight_multiset(&b.edges), weight_multiset(&reference.edges));
    }

    #[test]
    fn stats_are_populated() {
        let pts = random_points_2d(1000, 31);
        let r = emst_sharded(&pts, 4);
        assert_eq!(r.stats.shard_sizes.len(), 4);
        assert_eq!(r.stats.shard_sizes.iter().sum::<usize>(), 1000);
        assert_eq!(r.stats.local_iterations.len(), 4);
        assert!(r.stats.merge_rounds >= 1);
        assert!(r.stats.boundary_candidates > 0);
        assert_eq!(r.stats.peak_resident, 1000);
        assert!(r.stats.timings.get("plan") > 0.0);
        assert!(r.stats.timings.get("local") > 0.0);
        assert!(r.stats.timings.get("merge") > 0.0);
        assert!(r.stats.work.queries > 0);
        assert!(r.stats.work.node_visits > 0);
    }

    #[test]
    fn interior_points_are_radius_pruned() {
        // Boundary candidates must be a small fraction of all cross-shard
        // queries: the local-MST radii prune interior points at the root.
        let pts = random_points_2d(2000, 37);
        let r = emst_sharded(&pts, 4);
        let total_queries = r.stats.work.queries;
        assert!(
            r.stats.boundary_candidates * 3 < total_queries,
            "boundary {} of {total_queries} queries",
            r.stats.boundary_candidates
        );
    }
}
