//! Per-query nearest-neighbour traversal (Algorithm 2 of the paper).
//!
//! Each query is executed by a single thread, in the bulk-synchronous style
//! of ArborX: the caller launches one `parallel_for` over queries and each
//! work item calls [`Bvh::nearest`] (or [`Bvh::nearest_floor`]) — a
//! stackless rope/escape-pointer walk over the 4-wide collapsed
//! [`crate::WideBvh`] whose per-thread state is a single node index, the
//! GPU-faithful form ArborX itself moved to.
//!
//! The walker takes the hooks the single-tree Borůvka algorithm uses: a
//! `skip` predicate implementing the paper's Optimization 1 (bypassing
//! subtrees whose leaves all share the query's component, keyed by *binary*
//! node id) and a `leaf` callback applying the metric (Euclidean or
//! mutual-reachability). Its result is the minimum over the accepted
//! candidates under the `(distance, rank)` order; the wide tree's
//! vectorized leaf-lane distances reproduce [`Point::squared_distance`]
//! exactly (see `wide.rs`), so that minimum is bit-identical to a brute
//! force over the same candidates.

use emst_geometry::{Point, Scalar};

use crate::build::Bvh;
use crate::node::{NodeId, INVALID_NODE};

/// Hints the cache to pull `p` in: the walker issues this for the rope
/// target while lane arithmetic is still in flight, hiding the latency
/// of the dependent index chase. Prefetches never fault, so a sentinel
/// (out-of-range) address is fine.
#[inline(always)]
#[allow(unused_variables)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it performs no memory access.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as above — a hint, not an access.
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags))
    };
}

/// Per-query work statistics, accumulated locally (no atomics on the hot
/// path) and flushed to [`emst_exec::Counters`] by the caller.
///
/// All counters are `u64`: a single query over a large adversarial cloud
/// (and the per-run aggregates the ablation tests assert on) can exceed
/// 32 bits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraversalStats {
    /// Internal (binary) or collapsed (wide) nodes examined.
    pub nodes: u64,
    /// Leaves tested as candidates.
    pub leaves: u64,
    /// Point-to-point distance computations.
    pub distances: u64,
    /// Subtrees skipped by the caller's predicate (Optimization 1).
    pub skipped: u64,
    /// Escape-pointer follows.
    pub rope_hops: u64,
    /// Minimum squared distance among subtrees/leaves pruned **by the
    /// radius**: boxes and leaves beyond it, and leaves the `leaf` callback
    /// accepted at a metric value beyond it (predicate-skipped subtrees and
    /// callback-rejected leaves do not contribute). After a query that
    /// accepted nothing, every candidate the callback would ever admit lies
    /// at least this far away in its metric — a durable lower bound the
    /// sharded merge and the Borůvka kernel use to never repeat a
    /// provably-empty query (`+inf` when nothing was radius-pruned).
    /// Tracked only by [`Bvh::nearest_floor`].
    pub pruned_min_sq: Scalar,
}

impl Default for TraversalStats {
    fn default() -> Self {
        Self {
            nodes: 0,
            leaves: 0,
            distances: 0,
            skipped: 0,
            rope_hops: 0,
            pruned_min_sq: Scalar::INFINITY,
        }
    }
}

impl TraversalStats {
    /// Component-wise sum (min for the pruning floor) — the reduction the
    /// bulk launches use.
    #[inline]
    pub fn merged(self, other: Self) -> Self {
        Self {
            nodes: self.nodes + other.nodes,
            leaves: self.leaves + other.leaves,
            distances: self.distances + other.distances,
            skipped: self.skipped + other.skipped,
            rope_hops: self.rope_hops + other.rope_hops,
            pruned_min_sq: self.pruned_min_sq.min(other.pruned_min_sq),
        }
    }
}

/// Result of a nearest-neighbour query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NearestHit {
    /// Morton rank of the winning leaf.
    pub rank: u32,
    /// Squared metric distance to it.
    pub dist_sq: Scalar,
}

impl<const D: usize> Bvh<D> {
    /// Single-threaded nearest-neighbour traversal: a stackless rope walk
    /// over the 4-wide collapse ([`crate::WideBvh`]).
    ///
    /// - `query`: the query point;
    /// - `radius_sq`: initial squared cutoff radius (candidates beyond it are
    ///   ignored) — the component upper bound of Optimization 2, or
    ///   `f32::INFINITY` for an unconstrained search;
    /// - `skip`: called with a *binary* node id before its subtree is
    ///   entered; returning `true` prunes the whole subtree (Optimization 1);
    /// - `leaf`: called with `(morton rank, squared Euclidean distance)` of
    ///   a candidate leaf; returns the squared *metric* distance, or `None`
    ///   to reject the candidate (e.g. "same point" or "same component").
    ///
    /// Returns the best accepted hit at distance **at most** `radius_sq`.
    /// Ties between equidistant leaves resolve to the smallest Morton rank.
    /// Both properties are load-bearing for the EMST: Borůvka's algorithm
    /// only converges under a strict total order on edges (§2 of the paper,
    /// "tie-breaking resolution"), which the caller derives from
    /// `(distance, min rank, max rank)` — so the traversal must neither drop
    /// an equidistant smaller-rank candidate nor miss a candidate that
    /// exactly attains the component upper bound. Node pruning is therefore
    /// strictly-greater-than.
    ///
    /// The per-thread state is a single node index:
    ///
    /// - on arrival at a node, the four child-lane boxes are tested by one
    ///   fixed-width (auto-vectorized) loop; a leaf lane's box is its point,
    ///   so the lane distance doubles as the candidate distance;
    /// - the walker then descends to its first live internal lane, or
    ///   follows the rope (`escape`) out of the subtree.
    ///
    /// Two contract points follow from the collapse (both hold for
    /// component labels, where predicate and callback derive from the same
    /// per-rank label array):
    ///
    /// - `skip` must be downward-closed — skipping a node implies its
    ///   descendants would be skipped too — because the collapse only
    ///   consults it at even binary depths;
    /// - leaf candidates are *not* passed to `skip`; the `leaf` callback
    ///   must itself reject any leaf the predicate would exclude (as the
    ///   Borůvka same-component check does).
    #[inline]
    pub fn nearest<FSkip, FLeaf>(
        &self,
        query: &Point<D>,
        radius_sq: Scalar,
        skip: FSkip,
        leaf: FLeaf,
        stats: &mut TraversalStats,
    ) -> Option<NearestHit>
    where
        FSkip: FnMut(NodeId) -> bool,
        FLeaf: FnMut(u32, Scalar) -> Option<Scalar>,
    {
        self.nearest_impl::<false, FSkip, FLeaf>(query, radius_sq, skip, leaf, stats)
    }

    /// [`Bvh::nearest`] that additionally reports the radius-pruned
    /// frontier minimum in [`TraversalStats::pruned_min_sq`]. Identical
    /// results; the tracking `min`s are monomorphized out of the plain
    /// [`Bvh::nearest`] path, so only callers that want the floor (the
    /// Borůvka kernel and the sharded merge) pay for it.
    #[inline]
    pub fn nearest_floor<FSkip, FLeaf>(
        &self,
        query: &Point<D>,
        radius_sq: Scalar,
        skip: FSkip,
        leaf: FLeaf,
        stats: &mut TraversalStats,
    ) -> Option<NearestHit>
    where
        FSkip: FnMut(NodeId) -> bool,
        FLeaf: FnMut(u32, Scalar) -> Option<Scalar>,
    {
        self.nearest_impl::<true, FSkip, FLeaf>(query, radius_sq, skip, leaf, stats)
    }

    /// The walk behind [`Bvh::nearest`] and [`Bvh::nearest_floor`], with the
    /// pruning-floor tracking compiled in (`TRACK = true`) or out.
    fn nearest_impl<const TRACK: bool, FSkip, FLeaf>(
        &self,
        query: &Point<D>,
        mut radius_sq: Scalar,
        mut skip: FSkip,
        mut leaf: FLeaf,
        stats: &mut TraversalStats,
    ) -> Option<NearestHit>
    where
        FSkip: FnMut(NodeId) -> bool,
        FLeaf: FnMut(u32, Scalar) -> Option<Scalar>,
    {
        let mut best: Option<NearestHit> = None;
        if skip(self.root()) {
            stats.skipped += 1;
            return None;
        }
        let nodes = self.wide().nodes();
        let mut cur = 0u32;
        // Set on rope arrivals only: a descend target was box- and
        // label-checked by its parent an instant ago, but a rope leads
        // through *every* later sibling — including ones whose box already
        // failed, or got out-pruned by a since-shrunken radius — so those
        // entries re-validate against the node's own leading fields and
        // usually bail without touching the lane block.
        let mut via_rope = false;
        while cur != INVALID_NODE {
            // SAFETY: `cur` is 0 or came from a `child`/`escape` slot;
            // `WideBvh::collapse` only stores in-range indices there (the
            // build-time invariant `WideBvh::validate` checks).
            let node = unsafe { nodes.get_unchecked(cur as usize) };
            // Start pulling the rope target in before we know whether we
            // need it — the drag chain through out-pruned siblings is a
            // dependent pointer chase and this is what hides it.
            prefetch(nodes.as_ptr().wrapping_add(node.escape as usize));
            stats.nodes += 1;
            if via_rope {
                let sd = node.self_distance_sq(query);
                if sd > radius_sq {
                    if TRACK {
                        stats.pruned_min_sq = stats.pruned_min_sq.min(sd);
                    }
                    stats.rope_hops += 1;
                    cur = node.escape;
                    continue;
                }
                if skip(node.self_bin) {
                    stats.skipped += 1;
                    stats.rope_hops += 1;
                    cur = node.escape;
                    continue;
                }
                via_rope = false;
            }
            let d = node.lane_distances_sq(query);
            let mut descend = INVALID_NODE;
            for (k, &dk) in d.iter().enumerate() {
                // Strict-greater pruning: a lane exactly at the radius can
                // still hold an equidistant smaller-rank tie candidate.
                // Empty lanes carry `+inf` and die on the distance test,
                // except under an infinite radius — caught by the occupancy
                // test. When tracking, occupancy is checked first so empty
                // lanes cannot feed the pruning floor.
                if TRACK {
                    if (node.occupied >> k) & 1 == 0 {
                        continue;
                    }
                    if dk > radius_sq {
                        stats.pruned_min_sq = stats.pruned_min_sq.min(dk);
                        continue;
                    }
                } else if dk > radius_sq || (node.occupied >> k) & 1 == 0 {
                    continue;
                }
                if node.lane_is_leaf(k) {
                    let rank = node.lane_rank(k);
                    stats.leaves += 1;
                    stats.distances += 1;
                    // The lane distance of a degenerate box *is* the
                    // Euclidean squared distance to the point.
                    if let Some(m) = leaf(rank, dk) {
                        if m < radius_sq {
                            radius_sq = m;
                            best = Some(NearestHit { rank, dist_sq: m });
                        } else if m == radius_sq {
                            // Tie: keep the smallest rank for determinism.
                            match best {
                                Some(b) if rank >= b.rank => {}
                                _ => best = Some(NearestHit { rank, dist_sq: m }),
                            }
                        } else if TRACK {
                            // Within the Euclidean radius but beyond it in
                            // the metric: as much a pruned candidate as a
                            // box beyond the radius.
                            stats.pruned_min_sq = stats.pruned_min_sq.min(m);
                        }
                    }
                } else if descend == INVALID_NODE {
                    // First live internal lane; later live lanes are
                    // reached through the ropes of this lane's subtree.
                    if skip(node.bin[k]) {
                        stats.skipped += 1;
                    } else {
                        descend = node.child[k];
                    }
                }
            }
            if descend != INVALID_NODE {
                cur = descend;
            } else {
                stats.rope_hops += 1;
                cur = node.escape;
                via_rope = true;
            }
        }
        best
    }

    /// Nearest neighbour of `query` among all points except `exclude_rank`
    /// (pass `u32::MAX` to exclude nothing). Euclidean metric.
    pub fn nearest_neighbor(&self, query: &Point<D>, exclude_rank: u32) -> Option<NearestHit> {
        let mut stats = TraversalStats::default();
        self.nearest(
            query,
            Scalar::INFINITY,
            |_| false,
            |rank, e| (rank != exclude_rank).then_some(e),
            &mut stats,
        )
    }

    /// The `k` nearest neighbours of `query` (including any leaf equal to
    /// the query point), as `(rank, squared distance)` sorted ascending,
    /// ties by rank.
    ///
    /// This powers the HDBSCAN* core-distance computation (§4.5), where the
    /// paper notes per-thread priority queues are the main GPU cost.
    pub fn k_nearest(&self, query: &Point<D>, k: usize) -> Vec<(u32, Scalar)> {
        let mut stats = TraversalStats::default();
        self.k_nearest_with_stats(query, k, &mut stats)
    }

    /// [`Self::k_nearest`] with traversal statistics, so callers can feed
    /// the work (including the per-thread heap maintenance) into the device
    /// model.
    pub fn k_nearest_with_stats(
        &self,
        query: &Point<D>,
        k: usize,
        stats: &mut TraversalStats,
    ) -> Vec<(u32, Scalar)> {
        if k == 0 {
            return vec![];
        }
        let mut heap = KnnHeap::new(k);
        // The kept k-set is independent of the traversal order, because a
        // candidate pruned at some radius is strictly farther than the final
        // k-th distance.
        self.nearest(
            query,
            Scalar::INFINITY,
            |_| false,
            |rank, e| {
                heap.offer(rank, e);
                // The traversal radius is the current k-th distance.
                Some(heap.bound())
            },
            stats,
        );
        heap.into_sorted()
    }
}

/// A bounded max-heap over `(rank, squared distance)` keeping the `k`
/// smallest candidates — the per-thread priority queue of the k-NN kernel.
///
/// Ordering treats ties in distance by rank so results are deterministic.
#[derive(Clone, Debug)]
pub struct KnnHeap {
    k: usize,
    /// Max-heap: `heap[0]` is the current worst kept candidate.
    heap: Vec<(Scalar, u32)>,
}

impl KnnHeap {
    /// Creates a heap keeping the `k` best candidates.
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        Self { k, heap: Vec::with_capacity(k) }
    }

    #[inline]
    fn worse(a: (Scalar, u32), b: (Scalar, u32)) -> bool {
        a.0 > b.0 || (a.0 == b.0 && a.1 > b.1)
    }

    /// Offers a candidate.
    #[inline]
    pub fn offer(&mut self, rank: u32, dist_sq: Scalar) {
        let cand = (dist_sq, rank);
        if self.heap.len() < self.k {
            self.heap.push(cand);
            // Sift up.
            let mut i = self.heap.len() - 1;
            while i > 0 {
                let p = (i - 1) / 2;
                if Self::worse(self.heap[i], self.heap[p]) {
                    self.heap.swap(i, p);
                    i = p;
                } else {
                    break;
                }
            }
        } else if Self::worse(self.heap[0], cand) {
            self.heap[0] = cand;
            // Sift down.
            let mut i = 0usize;
            loop {
                let l = 2 * i + 1;
                let r = 2 * i + 2;
                let mut m = i;
                if l < self.heap.len() && Self::worse(self.heap[l], self.heap[m]) {
                    m = l;
                }
                if r < self.heap.len() && Self::worse(self.heap[r], self.heap[m]) {
                    m = r;
                }
                if m == i {
                    break;
                }
                self.heap.swap(i, m);
                i = m;
            }
        }
    }

    /// Current pruning bound: the worst kept distance once full, `+inf`
    /// before that.
    #[inline]
    pub fn bound(&self) -> Scalar {
        if self.heap.len() < self.k {
            Scalar::INFINITY
        } else {
            self.heap[0].0
        }
    }

    /// Number of kept candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no candidate was offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Extracts the kept candidates sorted by `(distance, rank)` ascending.
    pub fn into_sorted(self) -> Vec<(u32, Scalar)> {
        let mut v: Vec<(u32, Scalar)> = self.heap.into_iter().map(|(d, r)| (r, d)).collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_exec::Serial;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points_2d(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.random_range(-1.0f32..1.0), rng.random_range(-1.0f32..1.0)]))
            .collect()
    }

    fn brute_nn(points: &[Point<2>], q: &Point<2>, exclude: usize) -> (usize, f32) {
        points
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != exclude)
            .map(|(i, p)| (i, q.squared_distance(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .unwrap()
    }

    #[test]
    fn nearest_neighbor_matches_brute_force() {
        let pts = random_points_2d(500, 21);
        let bvh = Bvh::build(&Serial, &pts);
        for i in 0..pts.len() {
            let rank = bvh.morton_order().iter().position(|&o| o == i as u32).unwrap() as u32;
            let hit = bvh.nearest_neighbor(&pts[i], rank).unwrap();
            let (_, bd) = brute_nn(&pts, &pts[i], i);
            assert_eq!(hit.dist_sq, bd, "query {i}");
        }
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let pts = random_points_2d(300, 5);
        let bvh = Bvh::build(&Serial, &pts);
        for &k in &[1usize, 2, 5, 16, 300, 1000] {
            let q = Point::new([0.1, -0.2]);
            let got = bvh.k_nearest(&q, k);
            let mut all: Vec<f32> = pts.iter().map(|p| q.squared_distance(p)).collect();
            all.sort_by(f32::total_cmp);
            let kk = k.min(pts.len());
            assert_eq!(got.len(), kk);
            for (j, &(_, d)) in got.iter().enumerate() {
                assert_eq!(d, all[j], "k={k} j={j}");
            }
            // sorted ascending
            assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn skip_predicate_prunes_everything() {
        let pts = random_points_2d(50, 2);
        let bvh = Bvh::build(&Serial, &pts);
        let mut stats = TraversalStats::default();
        let hit = bvh.nearest(
            &Point::new([0.0, 0.0]),
            f32::INFINITY,
            |_| true,
            |_, e| Some(e),
            &mut stats,
        );
        assert!(hit.is_none());
        assert_eq!(stats.leaves, 0);
    }

    #[test]
    fn initial_radius_prunes_far_candidates() {
        let pts = vec![Point::new([0.0f32, 0.0]), Point::new([10.0, 0.0])];
        let bvh = Bvh::build(&Serial, &pts);
        let mut stats = TraversalStats::default();
        // radius² = 1: nothing within
        let hit = bvh.nearest(&Point::new([5.0, 0.0]), 1.0, |_| false, |_, e| Some(e), &mut stats);
        assert!(hit.is_none());
    }

    #[test]
    fn single_point_tree_queries() {
        let pts = vec![Point::new([1.0f32, 1.0])];
        let bvh = Bvh::build(&Serial, &pts);
        let hit = bvh.nearest_neighbor(&Point::new([0.0, 0.0]), u32::MAX).unwrap();
        assert_eq!(hit.dist_sq, 2.0);
        assert!(bvh.nearest_neighbor(&Point::new([0.0, 0.0]), 0).is_none());
        assert_eq!(bvh.k_nearest(&Point::new([0.0, 0.0]), 3).len(), 1);
    }

    #[test]
    fn stats_count_work() {
        let pts = random_points_2d(1000, 33);
        let bvh = Bvh::build(&Serial, &pts);
        let mut stats = TraversalStats::default();
        bvh.nearest(&Point::new([0.0, 0.0]), f32::INFINITY, |_| false, |_, e| Some(e), &mut stats);
        assert!(stats.nodes > 0);
        assert!(stats.leaves > 0);
        assert!(stats.distances >= stats.leaves);
        // Pruning must avoid the vast majority of the 1000 leaves.
        assert!(stats.leaves < 200, "leaves visited: {}", stats.leaves);
    }

    #[test]
    fn knn_heap_keeps_k_smallest_with_ties_by_rank() {
        let mut h = KnnHeap::new(3);
        assert!(h.is_empty());
        for (r, d) in [(5u32, 2.0f32), (1, 1.0), (2, 1.0), (9, 0.5), (7, 1.0)] {
            h.offer(r, d);
        }
        let got = h.into_sorted();
        // kept: 0.5@9, 1.0@1, 1.0@2 (1.0@7 loses the rank tie-break)
        assert_eq!(got, vec![(9, 0.5), (1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn knn_heap_bound_is_inf_until_full() {
        let mut h = KnnHeap::new(2);
        assert_eq!(h.bound(), f32::INFINITY);
        h.offer(0, 3.0);
        assert_eq!(h.bound(), f32::INFINITY);
        h.offer(1, 1.0);
        assert_eq!(h.bound(), 3.0);
        h.offer(2, 0.5);
        assert_eq!(h.bound(), 1.0);
        assert_eq!(h.len(), 2);
    }

    /// Reference subtree labels for a synthetic component assignment —
    /// the downward-closed predicate family the walker must honour.
    fn subtree_labels(bvh: &Bvh<2>, labels: &[u32]) -> Vec<u32> {
        fn go(bvh: &Bvh<2>, labels: &[u32], node: u32, out: &mut [u32]) -> u32 {
            let l = if bvh.is_leaf(node) {
                labels[bvh.leaf_rank(node) as usize]
            } else {
                let a = go(bvh, labels, bvh.left_child(node), out);
                let b = go(bvh, labels, bvh.right_child(node), out);
                if a == b {
                    a
                } else {
                    u32::MAX
                }
            };
            out[node as usize] = l;
            l
        }
        let mut out = vec![u32::MAX; bvh.num_nodes()];
        go(bvh, labels, bvh.root(), &mut out);
        out
    }

    /// Runs the walker from every leaf with the component-skip predicate
    /// active and asserts a bit-identical hit to the brute-force
    /// `(distance, rank)` minimum over the other components' leaves within
    /// the (inclusive) radius.
    fn assert_nearest_is_brute_force_minimum(pts: &[Point<2>], labels: &[u32], radius_sq: f32) {
        let bvh = Bvh::build(&Serial, pts);
        let node_labels = subtree_labels(&bvh, labels);
        for i in 0..pts.len() {
            let comp = labels[i];
            let q = bvh.leaf_point(i as u32);
            let mut st = TraversalStats::default();
            let got = bvh.nearest(
                q,
                radius_sq,
                |node| node_labels[node as usize] == comp,
                |rank, e| (labels[rank as usize] != comp).then_some(e),
                &mut st,
            );
            let expect = (0..pts.len() as u32)
                .filter(|&r| labels[r as usize] != comp)
                .map(|r| NearestHit { rank: r, dist_sq: q.squared_distance(bvh.leaf_point(r)) })
                .filter(|h| h.dist_sq <= radius_sq)
                .min_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.rank.cmp(&b.rank)));
            assert_eq!(got, expect, "query rank {i}");
        }
    }

    /// Integer grid plus a duplicate block, so every distance ties: the
    /// walker's hit is the brute-force minimum at both radii.
    #[test]
    fn stack_and_stackless_agree_under_tie_pressure() {
        // Integer grid: every distance ties; plus duplicate blocks.
        let mut pts: Vec<Point<2>> =
            (0..8).flat_map(|x| (0..8).map(move |y| Point::new([x as f32, y as f32]))).collect();
        pts.extend(std::iter::repeat_n(Point::new([3.0, 3.0]), 9));
        let labels: Vec<u32> = (0..pts.len() as u32).map(|r| r % 5).collect();
        assert_nearest_is_brute_force_minimum(&pts, &labels, f32::INFINITY);
        assert_nearest_is_brute_force_minimum(&pts, &labels, 1.0);
    }

    #[test]
    fn floor_counts_leaves_beyond_the_radius_in_the_metric() {
        // Every leaf passes the Euclidean test (e <= 8 < 9) but its metric
        // value e + 10 lies beyond the radius, so the query finds nothing.
        // The floor must still bound those leaves: it is their minimum.
        let pts = random_points_2d(64, 4);
        let q = Point::new([0.0, 0.0]);
        for n in [64, 1] {
            let bvh = Bvh::build(&Serial, &pts[..n]);
            let expect =
                pts[..n].iter().map(|p| q.squared_distance(p) + 10.0).fold(f32::INFINITY, f32::min);
            let mut st = TraversalStats::default();
            let hit = bvh.nearest_floor(&q, 9.0, |_| false, |_, e| Some(e + 10.0), &mut st);
            assert!(hit.is_none(), "n={n}");
            assert_eq!(st.pruned_min_sq, expect, "n={n}");
        }
    }

    #[test]
    fn stackless_counts_rope_hops() {
        let pts = random_points_2d(1000, 12);
        let bvh = Bvh::build(&Serial, &pts);
        let mut st = TraversalStats::default();
        bvh.nearest(&Point::new([0.1, 0.2]), f32::INFINITY, |_| false, |_, e| Some(e), &mut st);
        assert!(st.rope_hops > 0);
        assert!(st.nodes > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random or tie-heavy clouds: the walker's hit is the brute-force
        /// minimum.
        #[test]
        fn stack_vs_stackless_bit_identical_hits(
            n in 1usize..150,
            seed in 0u64..500,
            comps in 1u32..8,
            duplicates in 0usize..3,
            grid in 0u8..2,
        ) {
            // Duplicate/tie pressure: random or integer-grid points plus
            // repeated blocks, random component labels, component-skip
            // predicate active.
            let mut pts = if grid == 1 {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..n).map(|_| Point::new([
                    rng.random_range(0i32..5) as f32,
                    rng.random_range(0i32..5) as f32,
                ])).collect()
            } else {
                random_points_2d(n, seed)
            };
            for _ in 0..duplicates {
                let p = pts[0];
                pts.extend(std::iter::repeat_n(p, 4));
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
            let labels: Vec<u32> = (0..pts.len()).map(|_| rng.random_range(0..comps)).collect();
            assert_nearest_is_brute_force_minimum(&pts, &labels, f32::INFINITY);
        }

        #[test]
        fn nn_equals_brute_force_on_random_sets(
            n in 2usize..150, seed in 0u64..500, qx in -1.5f32..1.5, qy in -1.5f32..1.5
        ) {
            let pts = random_points_2d(n, seed);
            let bvh = Bvh::build(&Serial, &pts);
            let q = Point::new([qx, qy]);
            let hit = bvh.nearest_neighbor(&q, u32::MAX).unwrap();
            let bd = pts.iter().map(|p| q.squared_distance(p)).fold(f32::INFINITY, f32::min);
            prop_assert_eq!(hit.dist_sq, bd);
        }

        #[test]
        fn knn_equals_brute_force_on_random_sets(
            n in 1usize..100, seed in 0u64..200, k in 1usize..20
        ) {
            let pts = random_points_2d(n, seed);
            let bvh = Bvh::build(&Serial, &pts);
            let q = Point::new([0.0, 0.0]);
            let got = bvh.k_nearest(&q, k);
            let mut all: Vec<f32> = pts.iter().map(|p| q.squared_distance(p)).collect();
            all.sort_by(f32::total_cmp);
            prop_assert_eq!(got.len(), k.min(n));
            for (j, &(_, d)) in got.iter().enumerate() {
                prop_assert_eq!(d, all[j]);
            }
        }

    }
}
