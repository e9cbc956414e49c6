//! 4-wide collapsed hierarchy with rope/escape pointers — the storage
//! behind the stackless traversal.
//!
//! The binary radix tree of [`Bvh`] is pointer-light but traversal-heavy:
//! every step loads two child ids, then two bounding boxes from a separate
//! array, and a walk over it keeps a stack per query. GPUs (and cache-bound
//! CPUs) prefer the opposite trade, which ArborX adopted for its own tree and
//! the MBVH literature formalizes:
//!
//! - **collapse** the binary tree two levels at a time, so one node holds
//!   up to four child subtrees (the grandchildren of a binary node, with
//!   leaf children passing through). Half the tree levels disappear, and
//!   the four child boxes are tested by fixed-width loops the compiler
//!   auto-vectorizes;
//! - store each node as one **contiguous block** — transposed child corners
//!   (`lo[dim][lane]` / `hi[dim][lane]`), child references, the binary
//!   subtree id of every lane (for the Borůvka component-skip predicate),
//!   and the rope — so a visit touches adjacent cache lines only;
//! - link nodes with **rope/escape pointers** computed at build time:
//!   `escape` is the preorder successor outside the node's subtree. A
//!   traversal then needs no stack at all — it either descends to its first
//!   live child or follows the rope, which is exactly the per-thread state
//!   (one index) a GPU traversal can afford.
//!
//! A leaf lane's "box" is the degenerate box of its point, so the
//! vectorized lane test *is* the point-distance computation — bit-identical
//! to [`emst_geometry::Point::squared_distance`] (same per-dimension
//! accumulation order), which is what makes the walker's
//! [`crate::NearestHit`]s byte-for-byte equal to a brute-force minimum.

use emst_geometry::{Point, Scalar};

use crate::build::Bvh;
use crate::node::{NodeId, INVALID_NODE};

/// Number of child lanes per wide node.
pub const WIDTH: usize = 4;

/// Lane marker: no child in this lane.
pub const EMPTY_LANE: u32 = u32::MAX;

/// High bit of a lane reference: set when the lane is a leaf (low bits hold
/// the Morton rank), clear when it indexes another wide node.
const LEAF_BIT: u32 = 1 << 31;

/// One collapsed node: up to four child subtrees stored
/// structure-of-arrays within the node (AoSoA), plus the rope.
///
/// `repr(C, align(64))`: the transposed lane corners lead the struct so
/// the fixed-width distance loops read cache-line-aligned 16-byte groups,
/// and the scalar tail lands together on the following line — everything a
/// rope arrival needs to re-validate against the node's own box (its lane
/// box was tested by the parent before the radius shrank, or *failed*
/// there, since static ropes chain through every sibling) and bail without
/// touching the lane block.
#[derive(Clone, Debug, PartialEq)]
#[repr(C, align(64))]
pub struct WideNode<const D: usize> {
    /// Transposed child-box lower corners: `lo[d][lane]`. Empty lanes hold
    /// `+inf`, so their lane distance evaluates to `+inf` for free.
    pub lo: [[Scalar; WIDTH]; D],
    /// Transposed child-box upper corners (empty lanes hold `-inf`).
    pub hi: [[Scalar; WIDTH]; D],
    /// Lower corner of the node's own bounding box.
    pub self_lo: [Scalar; D],
    /// Upper corner of the node's own bounding box.
    pub self_hi: [Scalar; D],
    /// Binary-tree node id this wide node collapsed from (skip predicate).
    pub self_bin: NodeId,
    /// Rope: the next wide node in preorder that is *not* below this one
    /// (`INVALID_NODE` for "traversal over").
    pub escape: u32,
    /// Bit `k` set when lane `k` is occupied (empty lanes hold `±inf`
    /// corners, so they also price themselves out of the distance test).
    pub occupied: u32,
    /// Lane references: [`EMPTY_LANE`], a leaf (high bit + Morton rank) or
    /// the index of a child wide node.
    pub child: [u32; WIDTH],
    /// Binary-tree node id of each lane's subtree root (`INVALID_NODE` for
    /// empty lanes) — what the component-skip predicate is keyed on.
    pub bin: [NodeId; WIDTH],
}

impl<const D: usize> WideNode<D> {
    fn empty() -> Self {
        Self {
            self_lo: [Scalar::INFINITY; D],
            self_hi: [Scalar::NEG_INFINITY; D],
            self_bin: INVALID_NODE,
            escape: INVALID_NODE,
            occupied: 0,
            child: [EMPTY_LANE; WIDTH],
            bin: [INVALID_NODE; WIDTH],
            lo: [[Scalar::INFINITY; WIDTH]; D],
            hi: [[Scalar::NEG_INFINITY; WIDTH]; D],
        }
    }

    /// Squared distance from `q` to the node's own bounding box.
    #[inline]
    pub fn self_distance_sq(&self, q: &Point<D>) -> Scalar {
        let mut acc = 0.0;
        for d in 0..D {
            let gap = (self.self_lo[d] - q[d]).max(q[d] - self.self_hi[d]).max(0.0);
            acc += gap * gap;
        }
        acc
    }

    /// True when the lane holds a leaf.
    #[inline]
    pub fn lane_is_leaf(&self, lane: usize) -> bool {
        self.child[lane] & LEAF_BIT != 0
    }

    /// Morton rank of a leaf lane.
    #[inline]
    pub fn lane_rank(&self, lane: usize) -> u32 {
        debug_assert!(self.lane_is_leaf(lane));
        self.child[lane] & !LEAF_BIT
    }

    /// Squared distances from `q` to all four lane boxes at once.
    ///
    /// Written as fixed-width loops over the transposed corners so the
    /// compiler lowers them to SIMD lanes; empty lanes come out as `+inf`.
    /// For a leaf lane (degenerate box) the result equals
    /// `q.squared_distance(point)` bit-for-bit: the per-dimension gap is
    /// `|q_d − p_d|`, whose square and ascending-dimension accumulation
    /// match [`Point::squared_distance`] exactly.
    #[inline]
    pub fn lane_distances_sq(&self, q: &Point<D>) -> [Scalar; WIDTH] {
        let mut acc = [0.0 as Scalar; WIDTH];
        for d in 0..D {
            let qd = q[d];
            let lo = &self.lo[d];
            let hi = &self.hi[d];
            for k in 0..WIDTH {
                let gap = (lo[k] - qd).max(qd - hi[k]).max(0.0);
                acc[k] += gap * gap;
            }
        }
        acc
    }
}

/// The 4-wide rope-linked collapse of a [`Bvh`], nodes in preorder
/// (node 0 is the root; a node's first descendant is `w + 1`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WideBvh<const D: usize> {
    nodes: Vec<WideNode<D>>,
}

impl<const D: usize> WideBvh<D> {
    /// Collapses the binary hierarchy. Deterministic: the wide tree is a
    /// pure function of the binary structure, so all backends build
    /// identical ropes.
    ///
    /// Runs eagerly (and serially) inside every [`Bvh`] construction — a
    /// deliberate trade: the collapse backs the walker of every workload
    /// (EMST kernel, k-NN, shard merge), it is a small sort-dominated
    /// fraction of the timed `tree` phase, and building it here keeps the
    /// cost visible to the phase timings instead of leaking into the first
    /// query.
    pub fn collapse(bvh: &Bvh<D>) -> Self {
        // Preorder DFS; parents are created before their children, so
        // escape resolution below can run as one ascending pass.
        struct Pending {
            bin: NodeId,
            parent: u32,
            slot: usize,
        }
        let mut nodes: Vec<WideNode<D>> = Vec::with_capacity(bvh.num_leaves() / 2 + 1);
        let mut stack = vec![Pending { bin: bvh.root(), parent: u32::MAX, slot: 0 }];
        let mut lanes = [INVALID_NODE; WIDTH];
        while let Some(p) = stack.pop() {
            let id = nodes.len() as u32;
            if p.parent != u32::MAX {
                nodes[p.parent as usize].child[p.slot] = id;
            }
            let num_lanes = lanes_of(bvh, p.bin, &mut lanes);
            let mut node = WideNode::empty();
            let self_bb = bvh.node_aabb(p.bin);
            for d in 0..D {
                node.self_lo[d] = self_bb.min[d];
                node.self_hi[d] = self_bb.max[d];
            }
            node.self_bin = p.bin;
            for (k, &lane_bin) in lanes[..num_lanes].iter().enumerate() {
                let bb = bvh.node_aabb(lane_bin);
                for d in 0..D {
                    node.lo[d][k] = bb.min[d];
                    node.hi[d][k] = bb.max[d];
                }
                node.bin[k] = lane_bin;
                node.occupied |= 1 << k;
                if bvh.is_leaf(lane_bin) {
                    node.child[k] = LEAF_BIT | bvh.leaf_rank(lane_bin);
                }
            }
            nodes.push(node);
            for (k, &lane_bin) in lanes[..num_lanes].iter().enumerate().rev() {
                if !bvh.is_leaf(lane_bin) {
                    stack.push(Pending { bin: lane_bin, parent: id, slot: k });
                }
            }
        }

        // Ropes: a node's internal lanes chain to each other in lane order;
        // the last one escapes to wherever the node itself escapes.
        for w in 0..nodes.len() {
            let escape = nodes[w].escape;
            let mut prev: Option<u32> = None;
            for k in 0..WIDTH {
                let c = nodes[w].child[k];
                if c == EMPTY_LANE || c & LEAF_BIT != 0 {
                    continue;
                }
                if let Some(p) = prev {
                    nodes[p as usize].escape = c;
                }
                prev = Some(c);
            }
            if let Some(p) = prev {
                nodes[p as usize].escape = escape;
            }
        }
        Self { nodes }
    }

    /// All collapsed nodes, in preorder.
    #[inline]
    pub fn nodes(&self) -> &[WideNode<D>] {
        &self.nodes
    }

    /// Number of collapsed nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Heap bytes held by the collapsed node array — the wide tree's share
    /// of [`crate::Bvh::resident_bytes`]. Like the binary hierarchy, the
    /// collapse is deterministic, so a cache that spills a shard to disk
    /// needs to persist only the points to reload an identical handle.
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<WideNode<D>>()
    }

    /// Structural invariants, cross-checked against the binary tree `bvh`
    /// this collapse was built from; used by tests and `Bvh::validate`.
    pub fn validate(&self, bvh: &Bvh<D>) -> Result<(), String> {
        let mut seen_leaves = vec![false; bvh.num_leaves()];
        let mut entered = vec![false; self.nodes.len()];
        // Follow preorder: every node must be reachable as some lane (or be
        // the root), every leaf rank must appear exactly once, lane boxes
        // must match the binary node's box.
        for (w, node) in self.nodes.iter().enumerate() {
            if node.escape != INVALID_NODE && node.escape as usize >= self.nodes.len() {
                return Err(format!("wide node {w} escape out of range"));
            }
            if node.self_bin == INVALID_NODE {
                return Err(format!("wide node {w} has no binary id"));
            }
            let self_bb = bvh.node_aabb(node.self_bin);
            for d in 0..D {
                if node.self_lo[d] != self_bb.min[d] || node.self_hi[d] != self_bb.max[d] {
                    return Err(format!("wide node {w} self box mismatch"));
                }
            }
            for k in 0..WIDTH {
                let c = node.child[k];
                if (node.occupied >> k) & 1 != u32::from(c != EMPTY_LANE) {
                    return Err(format!("wide node {w} occupied mask wrong at lane {k}"));
                }
                if c == EMPTY_LANE {
                    if node.bin[k] != INVALID_NODE {
                        return Err(format!("wide node {w} lane {k} empty but has a bin id"));
                    }
                    continue;
                }
                let bin = node.bin[k];
                let bb = bvh.node_aabb(bin);
                for d in 0..D {
                    if node.lo[d][k] != bb.min[d] || node.hi[d][k] != bb.max[d] {
                        return Err(format!("wide node {w} lane {k} box mismatch"));
                    }
                }
                if c & LEAF_BIT != 0 {
                    let rank = (c & !LEAF_BIT) as usize;
                    if !bvh.is_leaf(bin) || bvh.leaf_rank(bin) as usize != rank {
                        return Err(format!("wide node {w} lane {k} leaf/bin mismatch"));
                    }
                    if seen_leaves[rank] {
                        return Err(format!("leaf rank {rank} in two wide lanes"));
                    }
                    seen_leaves[rank] = true;
                } else {
                    if bvh.is_leaf(bin) {
                        return Err(format!("wide node {w} lane {k} internal ref to a leaf"));
                    }
                    if entered[c as usize] {
                        return Err(format!("wide node {c} referenced twice"));
                    }
                    entered[c as usize] = true;
                }
            }
        }
        if !seen_leaves.iter().all(|&s| s) {
            return Err("not every leaf rank appears in a wide lane".into());
        }
        if let Some(w) = (1..self.nodes.len()).find(|&w| !entered[w]) {
            return Err(format!("wide node {w} unreachable"));
        }
        Ok(())
    }
}

/// Writes the lane subtree roots of binary node `bin` into `lanes` and
/// returns how many there are: the grandchildren of `bin`, with leaf
/// children passing through (and the node itself when it is a leaf, which
/// only the single-point tree's root can be).
fn lanes_of<const D: usize>(bvh: &Bvh<D>, bin: NodeId, lanes: &mut [NodeId; WIDTH]) -> usize {
    if bvh.is_leaf(bin) {
        lanes[0] = bin;
        return 1;
    }
    let mut cnt = 0;
    for c in bvh.children_of(bin) {
        if bvh.is_leaf(c) {
            lanes[cnt] = c;
            cnt += 1;
        } else {
            for g in bvh.children_of(c) {
                lanes[cnt] = g;
                cnt += 1;
            }
        }
    }
    cnt
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_exec::{Serial, Threads};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points_2d(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.random_range(-1.0f32..1.0), rng.random_range(-1.0f32..1.0)]))
            .collect()
    }

    #[test]
    fn single_point_collapse_is_one_leaf_lane() {
        let bvh = Bvh::build(&Serial, &[Point::new([1.0f32, 2.0])]);
        let wide = bvh.wide();
        assert_eq!(wide.num_nodes(), 1);
        let root = &wide.nodes()[0];
        assert!(root.lane_is_leaf(0));
        assert_eq!(root.lane_rank(0), 0);
        assert_eq!(root.child[1], EMPTY_LANE);
        assert_eq!(root.escape, INVALID_NODE);
        wide.validate(&bvh).unwrap();
    }

    #[test]
    fn two_and_three_point_trees_collapse_into_the_root() {
        for n in [2usize, 3] {
            let bvh = Bvh::build(&Serial, &random_points_2d(n, n as u64));
            assert_eq!(bvh.wide().num_nodes(), 1, "n={n}");
            bvh.wide().validate(&bvh).unwrap();
        }
    }

    #[test]
    fn collapse_roughly_halves_depth_worth_of_nodes() {
        let bvh = Bvh::build(&Serial, &random_points_2d(4096, 9));
        let wide = bvh.wide();
        wide.validate(&bvh).unwrap();
        // A 4-ary collapse of a ~balanced binary tree keeps roughly half of
        // the internal nodes (a third in the perfect-tree limit).
        assert!(wide.num_nodes() * 3 < bvh.num_internal() * 2);
    }

    #[test]
    fn lane_distances_match_scalar_boxes_and_points() {
        let pts = random_points_2d(500, 4);
        let bvh = Bvh::build(&Serial, &pts);
        let queries = random_points_2d(20, 5);
        for q in &queries {
            for node in bvh.wide().nodes() {
                let d = node.lane_distances_sq(q);
                for (k, &dk) in d.iter().enumerate() {
                    if node.child[k] == EMPTY_LANE {
                        assert_eq!(dk, Scalar::INFINITY);
                    } else {
                        let expect = bvh.node_distance_sq(node.bin[k], q);
                        assert_eq!(dk, expect, "lane {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn rebuild_from_same_points_is_bit_identical_across_backends() {
        // The resident-shard cache relies on this: evicting a shard spills
        // only its points, and re-admission rebuilds the exact same handle.
        let pts = random_points_2d(700, 12);
        let a = Bvh::build(&Serial, &pts);
        let b = Bvh::build(&Threads, &pts);
        assert_eq!(a.wide(), b.wide());
        assert_eq!(a.morton_order(), b.morton_order());
        assert!(a.resident_bytes() > 0);
        assert_eq!(a.resident_bytes(), b.resident_bytes());
        assert!(a.wide().resident_bytes() <= a.resident_bytes());
    }

    #[test]
    fn ropes_cover_every_node_exactly_once() {
        // A radius-infinite rope walk that never descends-early must visit
        // each wide node exactly once: descend to the first internal lane,
        // escape when there is none.
        let bvh = Bvh::build(&Threads, &random_points_2d(1000, 6));
        let wide = bvh.wide();
        let mut visited = vec![false; wide.num_nodes()];
        let mut cur = 0u32;
        let mut steps = 0usize;
        while cur != INVALID_NODE {
            assert!(!visited[cur as usize], "node {cur} visited twice");
            visited[cur as usize] = true;
            steps += 1;
            assert!(steps <= wide.num_nodes(), "rope walk does not terminate");
            let node = &wide.nodes()[cur as usize];
            let descend =
                (0..WIDTH).map(|k| node.child[k]).find(|&c| c != EMPTY_LANE && c & LEAF_BIT == 0);
            cur = descend.unwrap_or(node.escape);
        }
        assert!(visited.iter().all(|&v| v), "rope walk misses nodes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn collapse_validates_on_random_and_duplicate_heavy_sets(
            n in 1usize..200, seed in 0u64..500, duplicates in 0usize..3
        ) {
            let mut pts = random_points_2d(n, seed);
            for _ in 0..duplicates {
                let p = pts[0];
                pts.extend(std::iter::repeat_n(p, 7));
            }
            let bvh = Bvh::build(&Threads, &pts);
            prop_assert!(bvh.wide().validate(&bvh).is_ok(), "{:?}", bvh.wide().validate(&bvh));
        }
    }
}
