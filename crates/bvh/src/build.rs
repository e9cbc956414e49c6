//! Fully parallel bottom-up LBVH construction (Apetrei 2014).
//!
//! The hierarchy over the Morton-sorted leaves is the Cartesian tree of the
//! *boundary deltas*: boundary `i` (between sorted leaves `i` and `i+1`)
//! carries the comparable value
//!
//! ```text
//! delta(i) = (code[i] ^ code[i+1],  i ^ (i+1),  i)
//! ```
//!
//! compared lexicographically. A larger XOR means a shorter common prefix,
//! so the maximum delta in a range is where the range splits. The index-XOR
//! component is Karras's duplicate-key fix (it keeps runs of identical
//! Morton codes balanced instead of degenerating into chains), and the
//! trailing position makes the order strict, which the bottom-up
//! construction requires for consistency.
//!
//! Every leaf starts one climbing thread. A node with range `[f, l]` attaches
//! to internal node `l` as a left child when `delta(l) < delta(f-1)`, and to
//! `f-1` as a right child otherwise. The first thread to reach an internal
//! node records its half of the range and dies; the second (synchronized by
//! an `AcqRel` flag) merges the bounding boxes and keeps climbing — the same
//! kernel shape the paper reuses for `reduceLabels`.

use std::sync::atomic::{AtomicU32, Ordering};

use emst_exec::{ExecSpace, SyncUnsafeSlice};
use emst_geometry::{Aabb, Point, Scalar};
use emst_morton::MortonEncoder;

use crate::node::{Layout, NodeId, INVALID_NODE};
use crate::wide::WideBvh;

/// A linear bounding volume hierarchy over a point set.
///
/// See the crate docs for the id layout: internal nodes are `0..n-1`, leaves
/// are `n-1..2n-1` in Morton order.
///
/// Storage is structure-of-arrays: one contiguous `children` array (both
/// child ids of a node share a slot, so a traversal step is one load), one
/// contiguous `bounds` array, and one `parent` array — no per-node
/// allocations. Construction also collapses the binary hierarchy into the
/// 4-wide rope-linked [`WideBvh`] that backs the stackless traversal
/// ([`Bvh::nearest`]).
#[derive(Clone, Debug)]
pub struct Bvh<const D: usize> {
    pub(crate) layout: Layout,
    pub(crate) scene: Aabb<D>,
    /// Points permuted into Morton order (leaf rank -> point).
    pub(crate) leaf_points: Vec<Point<D>>,
    /// Morton rank -> original point index.
    pub(crate) order: Vec<u32>,
    /// Both children of each internal node (`[left, right]`).
    pub(crate) children: Vec<[NodeId; 2]>,
    /// Parent of every node (`INVALID_NODE` for the root).
    pub(crate) parent: Vec<NodeId>,
    /// Bounding boxes of the internal nodes.
    pub(crate) bounds: Vec<Aabb<D>>,
    /// The 4-wide collapsed form with rope/escape pointers.
    pub(crate) wide: WideBvh<D>,
    pub(crate) root: NodeId,
}

/// Z-curve resolution of the construction.
///
/// `Bits128` is the paper's §4.1 proposal for pathologically dense datasets
/// (GeoLife): when many points collapse onto one 64-bit Morton cell, the
/// hierarchy degenerates into heavily overlapping nodes; doubling the curve
/// resolution restores spatial discrimination.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MortonResolution {
    /// 64-bit codes: 32 bits/dim in 2D, 21 bits/dim in 3D (ArborX default).
    #[default]
    Bits64,
    /// 128-bit codes: 64 bits/dim in 2D, 42 bits/dim in 3D.
    Bits128,
}

/// Comparable boundary delta; see the module docs.
type Delta<C> = (C, u32, u32);

#[inline]
fn delta<C: MortonKey>(codes: &[C], i: isize) -> Delta<C> {
    let n_bounds = codes.len() as isize - 1;
    if i < 0 || i >= n_bounds {
        return (C::MAX, u32::MAX, u32::MAX);
    }
    let i = i as usize;
    (codes[i].xor(codes[i + 1]), (i as u32) ^ (i as u32 + 1), i as u32)
}

/// Abstraction over the two Morton code widths used by the construction.
pub trait MortonKey: Copy + Ord + Send + Sync + Default {
    /// The maximum key (sentinel for out-of-range boundaries).
    const MAX: Self;
    /// Bitwise XOR (numeric comparison of XORs orders by common prefix).
    fn xor(self, other: Self) -> Self;
}

impl MortonKey for u64 {
    const MAX: Self = u64::MAX;
    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
}

impl MortonKey for u128 {
    const MAX: Self = u128::MAX;
    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
}

impl<const D: usize> Bvh<D> {
    /// Builds the hierarchy on the given execution space with the default
    /// 64-bit Z-curve.
    ///
    /// Panics on an empty input (an EMST of zero points is ill-posed; the
    /// higher-level APIs check for this and return empty results instead).
    pub fn build<S: ExecSpace>(space: &S, points: &[Point<D>]) -> Self {
        Self::build_with_resolution(space, points, MortonResolution::Bits64)
    }

    /// Builds the hierarchy with an explicit Z-curve resolution.
    pub fn build_with_resolution<S: ExecSpace>(
        space: &S,
        points: &[Point<D>],
        resolution: MortonResolution,
    ) -> Self {
        let n = points.len();
        assert!(n > 0, "cannot build a BVH over zero points");

        // Scene bounding box (parallel reduction, as in ArborX).
        let scene = space.parallel_reduce(
            n,
            Aabb::empty(),
            |i| Aabb::from_point(points[i]),
            |a, b| a.union(&b),
        );
        let encoder = MortonEncoder::new(&scene);

        match resolution {
            MortonResolution::Bits64 => {
                let mut pairs: Vec<(u64, u32)> = vec![(0, 0); n];
                {
                    let out = SyncUnsafeSlice::new(&mut pairs);
                    space.parallel_for(n, |i| {
                        // SAFETY: one writer per index, read after the kernel.
                        unsafe { out.write(i, (encoder.encode_u64(&points[i]), i as u32)) };
                    });
                }
                space.sort_pairs(&mut pairs);
                Self::from_sorted(space, points, scene, &pairs)
            }
            MortonResolution::Bits128 => {
                let mut pairs: Vec<(u128, u32)> = vec![(0, 0); n];
                {
                    let out = SyncUnsafeSlice::new(&mut pairs);
                    space.parallel_for(n, |i| {
                        // SAFETY: one writer per index, read after the kernel.
                        unsafe { out.write(i, (encoder.encode_u128(&points[i]), i as u32)) };
                    });
                }
                space.sort_pairs_u128(&mut pairs);
                Self::from_sorted(space, points, scene, &pairs)
            }
        }
    }

    /// Shared construction tail: gather the sorted order and build the
    /// radix hierarchy bottom-up.
    fn from_sorted<S: ExecSpace, C: MortonKey>(
        space: &S,
        points: &[Point<D>],
        scene: Aabb<D>,
        pairs: &[(C, u32)],
    ) -> Self {
        let n = points.len();
        let mut order = vec![0u32; n];
        let mut leaf_points = vec![Point::origin(); n];
        let mut codes = vec![C::default(); n];
        {
            let order_s = SyncUnsafeSlice::new(&mut order);
            let pts_s = SyncUnsafeSlice::new(&mut leaf_points);
            let codes_s = SyncUnsafeSlice::new(&mut codes);
            space.parallel_for(n, |i| {
                let (code, idx) = pairs[i];
                // SAFETY: one writer per index, read only after the kernel.
                unsafe {
                    order_s.write(i, idx);
                    pts_s.write(i, points[idx as usize]);
                    codes_s.write(i, code);
                }
            });
        }

        let layout = Layout { n };
        if n == 1 {
            let mut bvh = Self {
                layout,
                scene,
                leaf_points,
                order,
                children: vec![],
                parent: vec![INVALID_NODE],
                bounds: vec![],
                wide: WideBvh::default(),
                root: 0,
            };
            bvh.wide = WideBvh::collapse(&bvh);
            return bvh;
        }

        let ni = n - 1;
        let flags: Vec<AtomicU32> = (0..ni).map(|_| AtomicU32::new(0)).collect();
        let children: Vec<[AtomicU32; 2]> =
            (0..ni).map(|_| [AtomicU32::new(INVALID_NODE), AtomicU32::new(INVALID_NODE)]).collect();
        let range_first: Vec<AtomicU32> = (0..ni).map(|_| AtomicU32::new(0)).collect();
        let range_last: Vec<AtomicU32> = (0..ni).map(|_| AtomicU32::new(0)).collect();
        let parent: Vec<AtomicU32> =
            (0..layout.node_count()).map(|_| AtomicU32::new(INVALID_NODE)).collect();
        let root = AtomicU32::new(INVALID_NODE);
        let mut internal_aabbs = vec![Aabb::empty(); ni];
        {
            let aabbs = SyncUnsafeSlice::new(&mut internal_aabbs);
            let codes = &codes;
            let leaf_points = &leaf_points;
            space.parallel_for(n, |i| {
                let mut node = layout.leaf_id(i as u32);
                let mut f = i;
                let mut l = i;
                let mut bb = Aabb::from_point(leaf_points[i]);
                loop {
                    if f == 0 && l == n - 1 {
                        root.store(node, Ordering::Relaxed);
                        break;
                    }
                    // Attach to the nearer boundary with the smaller delta.
                    let go_left_child = l < n - 1
                        && (f == 0 || delta(codes, l as isize) < delta(codes, f as isize - 1));
                    let p = if go_left_child { l } else { f - 1 };
                    if go_left_child {
                        children[p][0].store(node, Ordering::Relaxed);
                        range_first[p].store(f as u32, Ordering::Relaxed);
                    } else {
                        children[p][1].store(node, Ordering::Relaxed);
                        range_last[p].store(l as u32, Ordering::Relaxed);
                    }
                    parent[node as usize].store(p as u32, Ordering::Relaxed);
                    // First arriver dies; the release half of AcqRel makes our
                    // writes visible to the survivor's acquire.
                    if flags[p].fetch_add(1, Ordering::AcqRel) == 0 {
                        break;
                    }
                    // Survivor: the full range and both children are visible.
                    f = range_first[p].load(Ordering::Relaxed) as usize;
                    l = range_last[p].load(Ordering::Relaxed) as usize;
                    let sibling = if go_left_child {
                        children[p][1].load(Ordering::Relaxed)
                    } else {
                        children[p][0].load(Ordering::Relaxed)
                    };
                    let sibling_bb = if layout.is_leaf(sibling) {
                        Aabb::from_point(leaf_points[layout.leaf_rank(sibling) as usize])
                    } else {
                        // SAFETY: the sibling subtree finished before its
                        // climbing thread linked `sibling` into `p`, which
                        // happened before its fetch_add we synchronized with.
                        *unsafe { aabbs.get(sibling as usize) }
                    };
                    bb = bb.union(&sibling_bb);
                    // SAFETY: exactly one survivor writes node `p`, and every
                    // reader synchronizes through a later flag.
                    unsafe { aabbs.write(p, bb) };
                    node = p as u32;
                }
            });
        }

        let unwrap =
            |v: Vec<AtomicU32>| -> Vec<u32> { v.into_iter().map(AtomicU32::into_inner).collect() };
        let mut bvh = Self {
            layout,
            scene,
            leaf_points,
            order,
            children: children.into_iter().map(|[l, r]| [l.into_inner(), r.into_inner()]).collect(),
            parent: unwrap(parent),
            bounds: internal_aabbs,
            wide: WideBvh::default(),
            root: root.into_inner(),
        };
        bvh.wide = WideBvh::collapse(&bvh);
        bvh
    }

    /// Number of leaves (== number of points).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.layout.n
    }

    /// Number of internal nodes (`n − 1`).
    #[inline]
    pub fn num_internal(&self) -> usize {
        self.layout.internal_count()
    }

    /// Total node count (`2n − 1`).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.layout.node_count()
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The scene bounding box.
    #[inline]
    pub fn scene(&self) -> &Aabb<D> {
        &self.scene
    }

    /// True when `id` is a leaf.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.layout.is_leaf(id)
    }

    /// Morton rank of a leaf node.
    #[inline]
    pub fn leaf_rank(&self, id: NodeId) -> u32 {
        self.layout.leaf_rank(id)
    }

    /// Leaf node id of a Morton rank.
    #[inline]
    pub fn leaf_id(&self, rank: u32) -> NodeId {
        self.layout.leaf_id(rank)
    }

    /// Original point index of a Morton rank.
    #[inline]
    pub fn point_index(&self, rank: u32) -> u32 {
        self.order[rank as usize]
    }

    /// Morton-order permutation (rank -> original point index).
    #[inline]
    pub fn morton_order(&self) -> &[u32] {
        &self.order
    }

    /// The point at a Morton rank.
    #[inline]
    pub fn leaf_point(&self, rank: u32) -> &Point<D> {
        &self.leaf_points[rank as usize]
    }

    /// All points in Morton order.
    #[inline]
    pub fn leaf_points(&self) -> &[Point<D>] {
        &self.leaf_points
    }

    /// Both children of an internal node (`[left, right]`) — one load from
    /// the structure-of-arrays storage.
    #[inline]
    pub fn children_of(&self, internal: NodeId) -> [NodeId; 2] {
        self.children[internal as usize]
    }

    /// Left child of an internal node.
    #[inline]
    pub fn left_child(&self, internal: NodeId) -> NodeId {
        self.children[internal as usize][0]
    }

    /// Right child of an internal node.
    #[inline]
    pub fn right_child(&self, internal: NodeId) -> NodeId {
        self.children[internal as usize][1]
    }

    /// The 4-wide rope-linked collapse of the hierarchy, built once at
    /// construction time — the storage behind [`Bvh::nearest`].
    #[inline]
    pub fn wide(&self) -> &WideBvh<D> {
        &self.wide
    }

    /// Heap bytes held by the hierarchy (binary SoA arrays plus the wide
    /// collapse) — what a resident-shard cache charges against its
    /// admission budget.
    ///
    /// The tree is a **deterministic pure function of the point sequence**:
    /// rebuilding from the same points yields byte-identical storage on any
    /// backend (sorting ties break by index, the radix hierarchy is unique
    /// for a code sequence, and [`WideBvh::collapse`] is serial preorder).
    /// A cache can therefore persist just the points — e.g. the sharded
    /// spill-file format — and reload the handle exactly, instead of
    /// serializing node arrays.
    pub fn resident_bytes(&self) -> usize {
        self.leaf_points.len() * std::mem::size_of::<Point<D>>()
            + self.order.len() * std::mem::size_of::<u32>()
            + self.children.len() * std::mem::size_of::<[NodeId; 2]>()
            + self.parent.len() * std::mem::size_of::<NodeId>()
            + self.bounds.len() * std::mem::size_of::<Aabb<D>>()
            + self.wide.resident_bytes()
    }

    /// Parent of a node (`INVALID_NODE` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> NodeId {
        self.parent[id as usize]
    }

    /// Parent array over all `2n − 1` nodes — the input of the paper's
    /// bottom-up `reduceLabels` kernel.
    #[inline]
    pub fn parents(&self) -> &[NodeId] {
        &self.parent
    }

    /// Bounding box of any node (degenerate box for leaves).
    #[inline]
    pub fn node_aabb(&self, id: NodeId) -> Aabb<D> {
        if self.is_leaf(id) {
            Aabb::from_point(self.leaf_points[self.leaf_rank(id) as usize])
        } else {
            self.bounds[id as usize]
        }
    }

    /// Squared Euclidean distance from `q` to a node's bounding volume.
    #[inline]
    pub fn node_distance_sq(&self, id: NodeId, q: &Point<D>) -> Scalar {
        if self.is_leaf(id) {
            q.squared_distance(&self.leaf_points[self.leaf_rank(id) as usize])
        } else {
            self.bounds[id as usize].squared_distance_to_point(q)
        }
    }

    /// Exhaustively checks the structural invariants; used by tests.
    ///
    /// Verifies that: the root covers everything; each internal node has two
    /// children whose parent links point back; every leaf is reachable
    /// exactly once; internal bounding boxes tightly contain their subtree.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_leaves();
        if n == 1 {
            return if self.root == 0 && self.parent == vec![INVALID_NODE] {
                self.wide.validate(self)
            } else {
                Err("bad single-leaf tree".into())
            };
        }
        if self.is_leaf(self.root) {
            return Err("root must be internal for n > 1".into());
        }
        if self.parent(self.root) != INVALID_NODE {
            return Err("root must have no parent".into());
        }
        let mut seen_leaves = vec![false; n];
        let mut stack = vec![self.root];
        let mut visited_internal = 0usize;
        while let Some(id) = stack.pop() {
            if self.is_leaf(id) {
                let rank = self.leaf_rank(id) as usize;
                if seen_leaves[rank] {
                    return Err(format!("leaf rank {rank} reached twice"));
                }
                seen_leaves[rank] = true;
                continue;
            }
            visited_internal += 1;
            let bb = self.node_aabb(id);
            for child in [self.left_child(id), self.right_child(id)] {
                if child == INVALID_NODE {
                    return Err(format!("internal node {id} missing a child"));
                }
                if self.parent(child) != id {
                    return Err(format!("child {child} does not link back to {id}"));
                }
                if !bb.contains_box(&self.node_aabb(child)) {
                    return Err(format!("node {id} box does not contain child {child}"));
                }
                stack.push(child);
            }
            // Tightness: the box is exactly the union of the children's.
            let union =
                self.node_aabb(self.left_child(id)).union(&self.node_aabb(self.right_child(id)));
            if union != bb {
                return Err(format!("node {id} box is not the union of its children"));
            }
        }
        if visited_internal != self.num_internal() {
            return Err(format!(
                "visited {visited_internal} internal nodes, expected {}",
                self.num_internal()
            ));
        }
        if !seen_leaves.iter().all(|&s| s) {
            return Err("not all leaves reachable from the root".into());
        }
        self.wide.validate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_exec::{GpuSim, Serial, Threads};
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
    fn single_point_tree_is_one_leaf() {
        let bvh = Bvh::build(&Serial, &[Point::new([1.0f32, 2.0])]);
        assert_eq!(bvh.num_nodes(), 1);
        assert!(bvh.is_leaf(bvh.root()));
        bvh.validate().unwrap();
    }

    #[test]
    fn two_points_form_root_with_two_leaves() {
        let bvh = Bvh::build(&Serial, &[Point::new([0.0f32, 0.0]), Point::new([1.0, 1.0])]);
        assert_eq!(bvh.num_nodes(), 3);
        assert_eq!(bvh.root(), 0);
        bvh.validate().unwrap();
        let bb = bvh.node_aabb(bvh.root());
        assert_eq!(bb.min, Point::new([0.0, 0.0]));
        assert_eq!(bb.max, Point::new([1.0, 1.0]));
    }

    #[test]
    fn all_duplicate_points_build_a_balanced_tree() {
        // Identical Morton codes: the index-XOR tie-break must keep the tree
        // shallow instead of a length-n chain.
        let pts = vec![Point::new([0.5f32, 0.5]); 1024];
        let bvh = Bvh::build(&Serial, &pts);
        bvh.validate().unwrap();
        // Measure depth.
        let mut max_depth = 0usize;
        let mut stack = vec![(bvh.root(), 0usize)];
        while let Some((id, d)) = stack.pop() {
            max_depth = max_depth.max(d);
            if !bvh.is_leaf(id) {
                stack.push((bvh.left_child(id), d + 1));
                stack.push((bvh.right_child(id), d + 1));
            }
        }
        assert!(max_depth <= 16, "duplicate points degenerated: depth {max_depth}");
    }

    #[test]
    fn collinear_points_validate() {
        let pts: Vec<Point<2>> = (0..257).map(|i| Point::new([i as f32, 0.0])).collect();
        let bvh = Bvh::build(&Serial, &pts);
        bvh.validate().unwrap();
    }

    #[test]
    fn serial_threads_gpusim_agree_on_structure_roots() {
        let pts = random_points_2d(2000, 7);
        let a = Bvh::build(&Serial, &pts);
        let b = Bvh::build(&Threads, &pts);
        let c = Bvh::build(&GpuSim::new(), &pts);
        // Construction is deterministic given the sorted order, which is
        // deterministic by the (code, index) sort key.
        assert_eq!(a.morton_order(), b.morton_order());
        assert_eq!(a.morton_order(), c.morton_order());
        assert_eq!(a.root(), b.root());
        assert_eq!(a.parents(), c.parents());
        a.validate().unwrap();
        b.validate().unwrap();
        c.validate().unwrap();
    }

    #[test]
    fn three_dimensional_build_validates() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<Point<3>> = (0..500)
            .map(|_| {
                Point::new([
                    rng.random_range(0.0f32..1.0),
                    rng.random_range(0.0f32..1.0),
                    rng.random_range(0.0f32..1.0),
                ])
            })
            .collect();
        Bvh::build(&Threads, &pts).validate().unwrap();
    }

    #[test]
    fn morton_order_is_a_permutation_of_inputs() {
        let pts = random_points_2d(333, 11);
        let bvh = Bvh::build(&Serial, &pts);
        let mut order: Vec<u32> = bvh.morton_order().to_vec();
        order.sort_unstable();
        assert!(order.iter().enumerate().all(|(i, &o)| i as u32 == o));
        for rank in 0..pts.len() as u32 {
            assert_eq!(*bvh.leaf_point(rank), pts[bvh.point_index(rank) as usize]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_trees_validate(
            n in 1usize..200,
            seed in 0u64..1000,
            duplicates in 0usize..3
        ) {
            let mut pts = random_points_2d(n, seed);
            // Inject duplicate blocks to stress the tie-breaking.
            for _ in 0..duplicates {
                let p = pts[0];
                pts.extend(std::iter::repeat_n(p, 5));
            }
            let bvh = Bvh::build(&Threads, &pts);
            prop_assert!(bvh.validate().is_ok(), "{:?}", bvh.validate());
        }

        #[test]
        fn grid_trees_validate(w in 1usize..20, h in 1usize..20) {
            // Integer grids create massive Morton-code tie structure.
            let pts: Vec<Point<2>> = (0..w)
                .flat_map(|x| (0..h).map(move |y| Point::new([x as f32, y as f32])))
                .collect();
            let bvh = Bvh::build(&Serial, &pts);
            prop_assert!(bvh.validate().is_ok());
        }
    }
}
