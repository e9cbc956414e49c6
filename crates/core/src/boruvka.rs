//! The single-tree Borůvka EMST driver (paper Fig. 3 and Algorithm 2).
//!
//! # Carrying per-point answers across iterations
//!
//! A point's *eligible set* — the points outside its component — only
//! shrinks from one iteration to the next, because components only merge.
//! `find_edges` therefore keeps, per point, its last answer in
//! [`BoruvkaScratch`] and issues a traversal only when that answer cannot
//! decide the new one. The per-point state is `(rank, dist)`:
//!
//! - **A hit** (`rank` set): `rank` was the exact `(metric distance,
//!   rank)` minimum over the whole eligible set when it was found. The walk
//!   accepts everything at or below its radius and the hit lies within it,
//!   so anything smaller would have been found. While `rank` stays in
//!   another component it is still the minimum over the smaller set, so
//!   the iteration's answer is that hit when `dist <= radius` and `None`
//!   otherwise — exactly what a fresh walk would return.
//! - **A floor** (`rank` empty, or the hit has since joined the point's
//!   component): `dist` is a lower bound on the metric distance to every
//!   eligible point. That stays true as the set shrinks. A hit that joined
//!   the component leaves its distance as the floor. A walk that found
//!   nothing leaves [`TraversalStats::pruned_min_sq`]
//!   (via [`Bvh::nearest_floor`]): every eligible leaf it did not test lies
//!   in a box beyond that value, and every leaf it tested was either
//!   same-component — which it stays — or beyond the radius in the metric.
//!   Those metric-rejected leaves must feed the floor too: for
//!   mutual reachability a leaf can pass the Euclidean test and still lie
//!   beyond the radius, and dropping it would leave a floor above a point
//!   a later, larger radius must find. A query stopped by
//!   [`Metric::squared_bound`] leaves that bound, which the trait
//!   guarantees for every target.
//!
//! The walk is skipped only when `floor > radius`, strictly: the walker
//! accepts a candidate exactly at the radius, so an equal floor decides
//! nothing. The state is reset at the start of every run, so nothing from
//! an earlier cloud reaches iteration 1. Both edge selections and every
//! backend read the same state, and every skip returns what the walk would
//! have returned, so the edges stay bit-identical.

use std::sync::atomic::AtomicU32;

use parking_lot::Mutex;

use emst_bvh::{Bvh, MortonResolution, NearestHit, TraversalStats};
use emst_exec::atomic::pack_dist_payload;
use emst_exec::counters::CounterSnapshot;
use emst_exec::{AtomicF32Min, AtomicU64Min, Counters, ExecSpace, PhaseTimings, SyncUnsafeSlice};
use emst_geometry::{nonneg_f32_to_ordered_bits, Euclidean, Metric, Point, Scalar};

use crate::edge::{total_weight, Edge};
use crate::labels::{reduce_labels, INVALID_LABEL};

/// How the per-component shortest outgoing edge is reduced across threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeSelection {
    /// One `parking_lot::Mutex<Candidate>` per component, compared under the
    /// full `(weight, min, max)` edge order. Readable reference
    /// implementation; locks are fine on CPUs but would serialize a GPU.
    Locked,
    /// The GPU-faithful lock-free scheme: a packed 64-bit atomic-min per
    /// component holding `(distance bits ‖ min endpoint)`, followed by a
    /// deterministic source-resolution pass. This mirrors what a device
    /// implementation does with `atomicMin` on 64-bit words.
    Atomic64,
}

/// Configuration of the single-tree Borůvka run. The two boolean toggles
/// correspond exactly to the paper's Optimization 1 and Optimization 2 and
/// exist for the ablation study; production use keeps both on.
#[derive(Clone, Copy, Debug)]
pub struct EmstConfig {
    /// Edge-selection strategy (see [`EdgeSelection`]).
    pub edge_selection: EdgeSelection,
    /// Optimization 1: skip subtrees fully contained in the query's
    /// component (requires the per-iteration `reduceLabels` pass).
    pub subtree_skipping: bool,
    /// Optimization 2: initialize traversal cutoff radii from Z-curve
    /// neighbour pairs.
    pub upper_bounds: bool,
    /// Z-curve resolution of the BVH construction. `Bits128` is the paper's
    /// §4.1 remedy for extremely dense datasets (GeoLife) whose hot spots
    /// are under-resolved by 64-bit codes.
    pub morton_resolution: MortonResolution,
}

impl Default for EmstConfig {
    fn default() -> Self {
        Self {
            edge_selection: EdgeSelection::Atomic64,
            subtree_skipping: true,
            upper_bounds: true,
            morton_resolution: MortonResolution::Bits64,
        }
    }
}

/// Output of an EMST computation.
#[derive(Clone, Debug)]
pub struct EmstResult {
    /// The `n − 1` tree edges (original point indices, `u < v`).
    pub edges: Vec<Edge>,
    /// Sum of (non-squared) edge weights, accumulated in `f64`.
    pub total_weight: f64,
    /// Number of Borůvka iterations executed.
    pub iterations: u32,
    /// Wall-clock phase timings: `"tree"`, `"mst"` and `mst.*` sub-phases.
    pub timings: PhaseTimings,
    /// Algorithmic work of the whole run (tree construction + iterations).
    pub work: CounterSnapshot,
    /// Work attributable to tree construction only.
    pub work_tree: CounterSnapshot,
    /// Kernel launches/items during construction (instrumented backends).
    pub launches_tree: (u64, u64),
    /// Kernel launches/items during the Borůvka loop.
    pub launches_mst: (u64, u64),
}

impl EmstResult {
    fn empty() -> Self {
        Self {
            edges: vec![],
            total_weight: 0.0,
            iterations: 0,
            timings: PhaseTimings::new(),
            work: CounterSnapshot::default(),
            work_tree: CounterSnapshot::default(),
            launches_tree: (0, 0),
            launches_mst: (0, 0),
        }
    }

    /// Work attributable to the Borůvka loop only.
    pub fn work_mst(&self) -> CounterSnapshot {
        self.work.since(&self.work_tree)
    }
}

/// Per-component candidate edge in Morton-rank space, `a < b`.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    dist_sq: Scalar,
    a: u32,
    b: u32,
}

impl Candidate {
    const NONE: Candidate = Candidate { dist_sq: Scalar::INFINITY, a: u32::MAX, b: u32::MAX };

    #[inline]
    fn key(&self) -> (u32, u32, u32) {
        (nonneg_f32_to_ordered_bits(self.dist_sq), self.a, self.b)
    }

    #[inline]
    fn is_none(&self) -> bool {
        self.a == u32::MAX
    }
}

/// The single-tree Borůvka EMST solver.
///
/// ```
/// use emst_core::{EmstConfig, SingleTreeBoruvka};
/// use emst_exec::Serial;
/// use emst_geometry::Point;
///
/// let points = vec![
///     Point::new([0.0f32, 0.0]),
///     Point::new([1.0, 0.0]),
///     Point::new([5.0, 0.0]),
/// ];
/// let result = SingleTreeBoruvka::new(&points).run(&Serial, &EmstConfig::default());
/// assert_eq!(result.edges.len(), 2);
/// assert_eq!(result.total_weight, 5.0);
/// ```
pub struct SingleTreeBoruvka<'a, const D: usize> {
    points: &'a [Point<D>],
}

impl<'a, const D: usize> SingleTreeBoruvka<'a, D> {
    /// Creates a solver over `points` (borrowed; nothing is copied until
    /// [`Self::run`]).
    ///
    /// Precondition: every coordinate passes
    /// [`emst_geometry::is_valid_coordinate`] (finite, at most 1e18 in
    /// magnitude), so every squared distance is finite. The solver does not
    /// check: a NaN never compares and can stall a Borůvka round, and an
    /// overflowing distance gives a wrong tree. The `emst_datasets` readers
    /// and the serving protocol enforce the bound on outside input.
    pub fn new(points: &'a [Point<D>]) -> Self {
        Self { points }
    }

    /// Computes the Euclidean MST.
    pub fn run<S: ExecSpace>(&self, space: &S, config: &EmstConfig) -> EmstResult {
        self.run_with_metric(space, config, &Euclidean)
    }

    /// [`Self::run`] drawing working memory from a caller-held
    /// [`BoruvkaScratch`] — the repeated-solve form (per-shard, per-query).
    pub fn run_scratch<S: ExecSpace>(
        &self,
        space: &S,
        config: &EmstConfig,
        scratch: &mut BoruvkaScratch,
    ) -> EmstResult {
        self.run_with_metric_scratch(space, config, &Euclidean, scratch)
    }

    /// Computes the MST under an arbitrary [`Metric`] (indexed by original
    /// point indices) — e.g. mutual reachability for HDBSCAN* (paper §4.5).
    pub fn run_with_metric<S: ExecSpace, M: Metric>(
        &self,
        space: &S,
        config: &EmstConfig,
        metric: &M,
    ) -> EmstResult {
        self.run_with_metric_scratch(space, config, metric, &mut BoruvkaScratch::new())
    }

    /// [`Self::run_with_metric`] with a caller-held [`BoruvkaScratch`].
    pub fn run_with_metric_scratch<S: ExecSpace, M: Metric>(
        &self,
        space: &S,
        config: &EmstConfig,
        metric: &M,
        scratch: &mut BoruvkaScratch,
    ) -> EmstResult {
        self.solve(space, config, metric, scratch).0
    }

    /// [`Self::run_scratch`] that also hands back the BVH the solve built
    /// over `points` (`None` below two points, where nothing is built), for
    /// callers that keep the tree instead of building the same one again.
    pub fn run_scratch_keeping_tree<S: ExecSpace>(
        &self,
        space: &S,
        config: &EmstConfig,
        scratch: &mut BoruvkaScratch,
    ) -> (EmstResult, Option<Bvh<D>>) {
        self.solve(space, config, &Euclidean, scratch)
    }

    /// The one solve behind every `run*` method: the result and the tree
    /// it built (`None` below two points).
    fn solve<S: ExecSpace, M: Metric>(
        &self,
        space: &S,
        config: &EmstConfig,
        metric: &M,
        scratch: &mut BoruvkaScratch,
    ) -> (EmstResult, Option<Bvh<D>>) {
        let n = self.points.len();
        if n < 2 {
            return (EmstResult::empty(), None);
        }
        let mut timings = PhaseTimings::new();
        let counters = Counters::new();

        let launches0 = kernel_snapshot(space);
        let bvh = timings.time("tree", || {
            Bvh::build_with_resolution(space, self.points, config.morton_resolution)
        });
        // Structured-memory traffic of construction: codes in/out of the
        // sort, point gather, hierarchy writes.
        let point_bytes = std::mem::size_of::<Point<D>>() as u64;
        let aabb_bytes = 2 * point_bytes;
        let logn = (usize::BITS - n.leading_zeros()) as u64;
        counters.add_bytes(n as u64 * (12 * logn + 2 * point_bytes + 2 * aabb_bytes + 16));
        let work_tree = counters.snapshot();
        let launches1 = kernel_snapshot(space);

        let mst_start = std::time::Instant::now();
        let (edges, iterations) =
            run_boruvka_scratch(space, &bvh, metric, config, &counters, &mut timings, scratch);
        timings.record("mst", mst_start.elapsed().as_secs_f64());
        let launches2 = kernel_snapshot(space);

        debug_assert_eq!(edges.len(), n - 1);
        let result = EmstResult {
            total_weight: total_weight(&edges),
            edges,
            iterations,
            timings,
            work: counters.snapshot(),
            work_tree,
            launches_tree: delta(launches0, launches1),
            launches_mst: delta(launches1, launches2),
        };
        (result, Some(bvh))
    }
}

fn kernel_snapshot<S: ExecSpace>(space: &S) -> (u64, u64) {
    space.kernel_stats().map_or((0, 0), |s| (s.launches(), s.items()))
}

fn delta(a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
    (b.0 - a.0, b.1 - a.1)
}

/// Reusable allocation pool for [`run_boruvka_scratch`].
///
/// One Borůvka run needs a dozen `O(n)`/`O(nodes)` working arrays (labels,
/// node labels, climb flags, upper bounds, per-component reduction slots…).
/// Allocating them per call is invisible for one monolithic solve but adds
/// up when the solver is invoked in a loop — the sharded per-shard solves,
/// HDBSCAN*'s EMST pass after core distances, and any serving layer that
/// answers repeated queries. Callers keep one scratch alive and every run
/// only grows it; nothing is freed between runs.
#[derive(Default)]
pub struct BoruvkaScratch {
    labels: Vec<u32>,
    node_labels: Vec<u32>,
    flags: Vec<AtomicU32>,
    upper: Vec<AtomicF32Min>,
    locked_best: Vec<Mutex<Candidate>>,
    /// Per-point carry-over state (see the module docs): the last hit, or
    /// with `rank == u32::MAX` a distance floor in `dist_sq`.
    carry: Vec<NearestHit>,
    comp_key: Vec<AtomicU64Min>,
    comp_pair: Vec<AtomicU64Min>,
    comp_edge: Vec<Candidate>,
    next_arr: Vec<u32>,
    emit_mark: Vec<usize>,
    emit_pos: Vec<usize>,
}

impl BoruvkaScratch {
    /// An empty pool; arrays grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows every array the configured run will touch and (re)initializes
    /// the ones whose starting state matters. Stale contents from earlier
    /// runs are harmless everywhere else: each iteration rewrites its slots
    /// before reading them.
    fn prepare(&mut self, n: usize, num_nodes: usize, num_internal: usize, config: &EmstConfig) {
        self.labels.clear();
        self.labels.extend(0..n as u32);
        // No hit yet, and the trivial floor: squared distances are >= 0.
        self.carry.clear();
        self.carry.resize(n, NearestHit { rank: u32::MAX, dist_sq: 0.0 });
        if config.subtree_skipping {
            self.node_labels.resize(num_nodes, INVALID_LABEL);
            if self.flags.len() < num_internal {
                self.flags.resize_with(num_internal, || AtomicU32::new(0));
            }
        }
        if config.upper_bounds && self.upper.len() < n {
            self.upper.resize_with(n, AtomicF32Min::new_inf);
        }
        match config.edge_selection {
            EdgeSelection::Locked => {
                if self.locked_best.len() < n {
                    self.locked_best.resize_with(n, || Mutex::new(Candidate::NONE));
                }
                // Defensive: a prior panicked run could have left winners.
                for slot in &self.locked_best[..n] {
                    *slot.lock() = Candidate::NONE;
                }
            }
            EdgeSelection::Atomic64 => {
                if self.comp_key.len() < n {
                    self.comp_key.resize_with(n, AtomicU64Min::new_max);
                }
                if self.comp_pair.len() < n {
                    self.comp_pair.resize_with(n, AtomicU64Min::new_max);
                }
            }
        }
        self.comp_edge.resize(n, Candidate::NONE);
        self.next_arr.resize(n, u32::MAX);
        self.emit_mark.resize(n, 0);
        self.emit_pos.resize(n, 0);
    }
}

/// The Borůvka loop over a pre-built BVH. Exposed for callers that reuse the
/// tree (HDBSCAN* builds it once for core distances and the MST). Allocates
/// a fresh [`BoruvkaScratch`]; loop callers should hold one and use
/// [`run_boruvka_scratch`].
pub fn run_boruvka<S: ExecSpace, M: Metric, const D: usize>(
    space: &S,
    bvh: &Bvh<D>,
    metric: &M,
    config: &EmstConfig,
    counters: &Counters,
    timings: &mut PhaseTimings,
) -> (Vec<Edge>, u32) {
    run_boruvka_scratch(space, bvh, metric, config, counters, timings, &mut BoruvkaScratch::new())
}

/// [`run_boruvka`] drawing its working arrays from a caller-held
/// [`BoruvkaScratch`], so repeated solves (per-shard, per-query) stop paying
/// per-call allocation.
#[allow(clippy::too_many_arguments)]
pub fn run_boruvka_scratch<S: ExecSpace, M: Metric, const D: usize>(
    space: &S,
    bvh: &Bvh<D>,
    metric: &M,
    config: &EmstConfig,
    counters: &Counters,
    timings: &mut PhaseTimings,
    scratch: &mut BoruvkaScratch,
) -> (Vec<Edge>, u32) {
    let n = bvh.num_leaves();
    debug_assert!(n >= 2);
    let point_bytes = std::mem::size_of::<Point<D>>() as u64;

    scratch.prepare(n, bvh.num_nodes(), bvh.num_internal(), config);
    let BoruvkaScratch {
        // Component labels per Morton rank; every point starts as its own
        // component, labelled by its own rank (paper Fig. 3 initialization).
        labels,
        node_labels,
        flags,
        upper,
        locked_best,
        carry,
        comp_key,
        comp_pair,
        comp_edge,
        next_arr,
        emit_mark,
        emit_pos,
    } = scratch;
    let upper = &*upper;
    let use_bounds = config.upper_bounds;
    // A component's traversal cutoff: its Optimization 2 bound, or `+inf`.
    let radius_of =
        |comp: u32| if use_bounds { upper[comp as usize].load() } else { Scalar::INFINITY };

    let mut edges: Vec<Edge> = Vec::with_capacity(n - 1);
    let mut num_components = n;
    let mut iterations = 0u32;

    while num_components > 1 {
        iterations += 1;
        counters.add_iterations(1);
        assert!(
            iterations as usize <= usize::BITS as usize * 2,
            "Borůvka failed to converge — tie-breaking invariant violated"
        );

        // Phase 1: propagate labels into internal nodes (Optimization 1).
        if config.subtree_skipping {
            timings.time("mst.reduce_labels", || {
                reduce_labels(space, bvh, labels, node_labels, &flags[..bvh.num_internal()]);
            });
            counters.add_bytes(bvh.num_nodes() as u64 * 8);
        }

        // Phase 2: per-component upper bounds from Z-curve neighbours
        // (Optimization 2).
        if use_bounds {
            timings.time("mst.upper_bounds", || {
                space.parallel_for(n, |i| upper[i].store(Scalar::INFINITY));
                let labels = &*labels;
                space.parallel_for(n - 1, |i| {
                    let (li, lj) = (labels[i], labels[i + 1]);
                    if li != lj {
                        let e =
                            bvh.leaf_point(i as u32).squared_distance(bvh.leaf_point(i as u32 + 1));
                        let u = bvh.point_index(i as u32);
                        let v = bvh.point_index(i as u32 + 1);
                        let w = metric.squared_distance(u, v, e);
                        upper[li as usize].fetch_min(w);
                        upper[lj as usize].fetch_min(w);
                    }
                });
            });
            counters.add_distance_computations(n as u64 - 1);
            counters.add_bytes(n as u64 * (8 + point_bytes));
        }

        // Phase 3: the constrained nearest-neighbour kernel (Algorithm 2)
        // plus the per-component reduction of the shortest outgoing edge.
        // Each point's answer is decided by its carried state when it can
        // be (module docs); only the rest walk the tree.
        timings.time("mst.find_edges", || {
            let labels = &*labels;
            let node_labels = &*node_labels;
            let carry_s = SyncUnsafeSlice::new(carry);
            let subtree_skipping = config.subtree_skipping;
            let locked_best = &*locked_best;

            let (stats, queries) = space.parallel_reduce(
                n,
                (TraversalStats::default(), 0u64),
                |i| {
                    let comp = labels[i];
                    let radius = radius_of(comp);
                    let mut st = TraversalStats::default();
                    let mut walked = 0u64;
                    // SAFETY: slot `i` is read and written only by this
                    // work item; the selection reads it after the kernel.
                    let last = unsafe { *carry_s.get(i) };
                    let hit = if last.rank != u32::MAX && labels[last.rank as usize] != comp {
                        // Still cross-component, so still the exact minimum.
                        (last.dist_sq <= radius).then_some(last)
                    } else {
                        // `last.dist_sq` is a floor: a pruned minimum, or a
                        // hit that has since joined this component.
                        let (hit, floor) = if last.dist_sq > radius {
                            (None, last.dist_sq)
                        } else {
                            let u_orig = bvh.point_index(i as u32);
                            // Metric-specific early exit: if even the
                            // query's own lower bound (e.g. its core
                            // distance) exceeds the component bound, no
                            // candidate can win.
                            let bound = metric.squared_bound(u_orig, 0.0);
                            if bound > radius {
                                (None, bound)
                            } else {
                                walked = 1;
                                let hit = bvh.nearest_floor(
                                    bvh.leaf_point(i as u32),
                                    radius,
                                    |node| subtree_skipping && node_labels[node as usize] == comp,
                                    |rank, e| {
                                        if labels[rank as usize] == comp {
                                            return None;
                                        }
                                        let v_orig = bvh.point_index(rank);
                                        Some(metric.squared_distance(u_orig, v_orig, e))
                                    },
                                    &mut st,
                                );
                                (hit, st.pruned_min_sq)
                            }
                        };
                        let next = hit.unwrap_or(NearestHit { rank: u32::MAX, dist_sq: floor });
                        // SAFETY: as above.
                        unsafe { carry_s.write(i, next) };
                        hit
                    };
                    if let (EdgeSelection::Locked, Some(h)) = (config.edge_selection, hit) {
                        let cand = Candidate {
                            dist_sq: h.dist_sq,
                            a: (i as u32).min(h.rank),
                            b: (i as u32).max(h.rank),
                        };
                        let mut best = locked_best[comp as usize].lock();
                        if cand.key() < best.key() {
                            *best = cand;
                        }
                    }
                    (st, walked)
                },
                |a, b| (a.0.merged(b.0), a.1 + b.1),
            );
            counters.add_queries(queries);
            counters.add_node_visits(stats.nodes);
            counters.add_rope_hops(stats.rope_hops);
            counters.add_leaf_visits(stats.leaves);
            counters.add_distance_computations(stats.distances);
            counters.add_subtrees_skipped(stats.skipped);
        });

        // Normalize the winning edge of every component into `comp_edge`.
        timings.time("mst.select", || {
            let labels = &*labels;
            let comp_edge_s = SyncUnsafeSlice::new(comp_edge);
            match config.edge_selection {
                EdgeSelection::Locked => {
                    space.parallel_for(n, |i| {
                        if labels[i] == i as u32 {
                            let best = *locked_best[i].lock();
                            // SAFETY: one writer per slot.
                            unsafe { comp_edge_s.write(i, best) };
                        }
                    });
                    space.parallel_for(n, |i| *locked_best[i].lock() = Candidate::NONE);
                }
                EdgeSelection::Atomic64 => {
                    let carry = &*carry;
                    // This iteration's hit of point `i`: its carried hit
                    // unless parked beyond the component's radius (module
                    // docs) — or none, when the slot holds a floor.
                    let hit = |i: usize| {
                        let h = carry[i];
                        (h.rank != u32::MAX && h.dist_sq <= radius_of(labels[i])).then_some(h)
                    };
                    // Pass A: per-component minimum of (distance, min rank).
                    space.parallel_for(n, |i| comp_key[i].store(u64::MAX));
                    space.parallel_for(n, |i| {
                        let Some(h) = hit(i) else { return };
                        let key = pack_dist_payload(h.dist_sq, (i as u32).min(h.rank));
                        comp_key[labels[i] as usize].fetch_min(key);
                    });
                    // Pass B: deterministic winner among key ties — the
                    // smallest (source, target) pair.
                    space.parallel_for(n, |i| comp_pair[i].store(u64::MAX));
                    space.parallel_for(n, |i| {
                        let Some(h) = hit(i) else { return };
                        let comp = labels[i] as usize;
                        let key = pack_dist_payload(h.dist_sq, (i as u32).min(h.rank));
                        if key == comp_key[comp].load() {
                            comp_pair[comp].fetch_min(((i as u64) << 32) | h.rank as u64);
                        }
                    });
                    space.parallel_for(n, |i| {
                        if labels[i] != i as u32 {
                            return;
                        }
                        let pair = comp_pair[i].load();
                        let cand = if pair == u64::MAX {
                            Candidate::NONE
                        } else {
                            let src = (pair >> 32) as u32;
                            let dst = pair as u32;
                            Candidate {
                                dist_sq: carry[src as usize].dist_sq,
                                a: src.min(dst),
                                b: src.max(dst),
                            }
                        };
                        // SAFETY: one writer per slot.
                        unsafe { comp_edge_s.write(i, cand) };
                    });
                }
            }
        });

        // Phase 4: merge components along the found edges (§3 of the paper).
        timings.time("mst.merge", || {
            let labels_ref = &*labels;
            let comp_edge = &*comp_edge;
            // next[c]: the component this component's shortest edge leads to.
            {
                let next_s = SyncUnsafeSlice::new(next_arr);
                space.parallel_for(n, |i| {
                    let v = if labels_ref[i] == i as u32 {
                        let e = comp_edge[i];
                        debug_assert!(!e.is_none(), "component {i} found no outgoing edge");
                        let tgt = if labels_ref[e.a as usize] == i as u32 { e.b } else { e.a };
                        labels_ref[tgt as usize]
                    } else {
                        u32::MAX
                    };
                    // SAFETY: one writer per slot.
                    unsafe { next_s.write(i, v) };
                });
            }
            let next_arr = &*next_arr;

            // Decide which components emit their edge: every component emits
            // unless it is the larger-rank member of a mutual pair (whose
            // partner chose the identical undirected edge — see §2
            // tie-breaking: the pair's keys are equal, hence the edges are
            // the same).
            let emits = |i: usize| -> bool {
                if labels_ref[i] != i as u32 {
                    return false;
                }
                let b = next_arr[i] as usize;
                let mutual = next_arr[b] == i as u32;
                !(mutual && (b as u32) < i as u32)
            };
            {
                let mark_s = SyncUnsafeSlice::new(emit_mark);
                space.parallel_for(n, |i| {
                    // SAFETY: one writer per slot.
                    unsafe { mark_s.write(i, emits(i) as usize) };
                });
            }
            emit_pos.copy_from_slice(emit_mark);
            let added = space.parallel_scan_exclusive(emit_pos);
            let start = edges.len();
            edges.resize(start + added, Edge { u: 0, v: 0, weight_sq: 0.0 });
            {
                let out = SyncUnsafeSlice::new(&mut edges[start..]);
                let emit_pos = &*emit_pos;
                let emit_mark = &*emit_mark;
                space.parallel_for(n, |i| {
                    if emit_mark[i] == 0 {
                        return;
                    }
                    let e = comp_edge[i];
                    let u = bvh.point_index(e.a);
                    let v = bvh.point_index(e.b);
                    // SAFETY: scan positions are unique per emitting slot.
                    unsafe { out.write(emit_pos[i], Edge::new(u, v, e.dist_sq)) };
                });
            }

            // Relabel every point to the smaller representative of its
            // chain's terminal pair.
            {
                let labels_s = SyncUnsafeSlice::new(labels);
                space.parallel_for(n, |i| {
                    // SAFETY: each thread reads and writes only slot `i`;
                    // chain-following goes through `next_arr`, never labels.
                    let mut c = unsafe { *labels_s.get(i) };
                    loop {
                        let nx = next_arr[c as usize];
                        if next_arr[nx as usize] == c {
                            // SAFETY: one writer per slot.
                            unsafe { labels_s.write(i, c.min(nx)) };
                            break;
                        }
                        c = nx;
                    }
                });
            }
            counters.add_bytes(n as u64 * 24);
        });

        let labels = &*labels;
        num_components =
            space.parallel_reduce(n, 0usize, |i| (labels[i] == i as u32) as usize, |a, b| a + b);
    }

    (edges, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{brute_force_emst, brute_force_mst};
    use crate::edge::{verify_spanning_tree, weight_multiset};
    use emst_exec::{GpuSim, Serial, Threads};
    use emst_geometry::{brute_force_core_distances_sq, MutualReachability};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points_2d(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.random_range(-1.0f32..1.0), rng.random_range(-1.0f32..1.0)]))
            .collect()
    }

    fn random_points_3d(n: usize, seed: u64) -> Vec<Point<3>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new([
                    rng.random_range(-1.0f32..1.0),
                    rng.random_range(-1.0f32..1.0),
                    rng.random_range(-1.0f32..1.0),
                ])
            })
            .collect()
    }

    fn check_against_brute_force_2d(pts: &[Point<2>], config: &EmstConfig) {
        let result = SingleTreeBoruvka::new(pts).run(&Serial, config);
        verify_spanning_tree(pts.len(), &result.edges).unwrap();
        let brute = brute_force_emst(pts);
        assert_eq!(
            weight_multiset(&result.edges),
            weight_multiset(&brute),
            "weight multiset mismatch for n={} cfg={config:?}",
            pts.len()
        );
    }

    #[test]
    fn trivial_sizes() {
        let cfg = EmstConfig::default();
        assert!(SingleTreeBoruvka::<2>::new(&[]).run(&Serial, &cfg).edges.is_empty());
        let one = [Point::new([1.0f32, 1.0])];
        assert!(SingleTreeBoruvka::new(&one).run(&Serial, &cfg).edges.is_empty());
        let two = [Point::new([0.0f32, 0.0]), Point::new([3.0, 4.0])];
        let r = SingleTreeBoruvka::new(&two).run(&Serial, &cfg);
        assert_eq!(r.edges, vec![Edge::new(0, 1, 25.0)]);
        assert_eq!(r.total_weight, 5.0);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn matches_brute_force_on_random_2d() {
        for seed in 0..5 {
            let pts = random_points_2d(200, seed);
            check_against_brute_force_2d(&pts, &EmstConfig::default());
        }
    }

    #[test]
    fn matches_brute_force_on_random_3d() {
        for seed in 0..3 {
            let pts = random_points_3d(150, seed + 100);
            let result = SingleTreeBoruvka::new(&pts).run(&Serial, &EmstConfig::default());
            verify_spanning_tree(pts.len(), &result.edges).unwrap();
            let brute = brute_force_emst(&pts);
            assert_eq!(weight_multiset(&result.edges), weight_multiset(&brute));
        }
    }

    #[test]
    fn grid_with_massive_ties_matches_brute_force() {
        // Integer grid: every nearest-neighbour distance ties. This is the
        // adversarial case for Borůvka convergence (§2 tie-breaking).
        let pts: Vec<Point<2>> =
            (0..12).flat_map(|x| (0..12).map(move |y| Point::new([x as f32, y as f32]))).collect();
        for selection in [EdgeSelection::Locked, EdgeSelection::Atomic64] {
            let cfg = EmstConfig { edge_selection: selection, ..EmstConfig::default() };
            check_against_brute_force_2d(&pts, &cfg);
        }
    }

    #[test]
    fn duplicate_points_converge() {
        let mut pts = random_points_2d(50, 5);
        let dup = pts[7];
        pts.extend(std::iter::repeat_n(dup, 20));
        for selection in [EdgeSelection::Locked, EdgeSelection::Atomic64] {
            let cfg = EmstConfig { edge_selection: selection, ..EmstConfig::default() };
            check_against_brute_force_2d(&pts, &cfg);
        }
    }

    #[test]
    fn collinear_points_match() {
        let pts: Vec<Point<2>> = (0..64).map(|i| Point::new([i as f32, 0.0])).collect();
        check_against_brute_force_2d(&pts, &EmstConfig::default());
    }

    #[test]
    fn both_selection_strategies_agree_exactly() {
        let pts = random_points_2d(500, 17);
        let locked = SingleTreeBoruvka::new(&pts).run(
            &Threads,
            &EmstConfig { edge_selection: EdgeSelection::Locked, ..Default::default() },
        );
        let atomic = SingleTreeBoruvka::new(&pts).run(
            &Threads,
            &EmstConfig { edge_selection: EdgeSelection::Atomic64, ..Default::default() },
        );
        let mut a = locked.edges.clone();
        let mut b = atomic.edges.clone();
        a.sort_by_key(Edge::key);
        b.sort_by_key(Edge::key);
        assert_eq!(a, b);
    }

    #[test]
    fn kernels_are_execution_order_independent() {
        // GPUs run work items in arbitrary order; ChaosSerial shuffles the
        // iteration order deterministically to flush out accidental order
        // dependence in the kernels (non-commutative atomics, hidden
        // read-after-write hazards between work items).
        use emst_exec::ChaosSerial;
        let pts = random_points_2d(600, 77);
        let reference = SingleTreeBoruvka::new(&pts).run(&Serial, &EmstConfig::default());
        for seed in 0..6 {
            for selection in [EdgeSelection::Locked, EdgeSelection::Atomic64] {
                let cfg = EmstConfig { edge_selection: selection, ..Default::default() };
                let chaotic = SingleTreeBoruvka::new(&pts).run(&ChaosSerial::new(seed), &cfg);
                assert_eq!(
                    weight_multiset(&chaotic.edges),
                    weight_multiset(&reference.edges),
                    "seed {seed} {selection:?}"
                );
                assert_eq!(chaotic.total_weight, reference.total_weight);
            }
        }
    }

    #[test]
    fn all_backends_agree() {
        let pts = random_points_2d(400, 23);
        let cfg = EmstConfig::default();
        let s = SingleTreeBoruvka::new(&pts).run(&Serial, &cfg);
        let t = SingleTreeBoruvka::new(&pts).run(&Threads, &cfg);
        let g = SingleTreeBoruvka::new(&pts).run(&GpuSim::new(), &cfg);
        assert_eq!(weight_multiset(&s.edges), weight_multiset(&t.edges));
        assert_eq!(weight_multiset(&s.edges), weight_multiset(&g.edges));
        assert_eq!(s.total_weight, t.total_weight);
    }

    #[test]
    fn ablation_configs_remain_correct() {
        let pts = random_points_2d(150, 31);
        for skipping in [false, true] {
            for bounds in [false, true] {
                let cfg = EmstConfig {
                    subtree_skipping: skipping,
                    upper_bounds: bounds,
                    ..Default::default()
                };
                check_against_brute_force_2d(&pts, &cfg);
            }
        }
    }

    #[test]
    fn optimizations_reduce_work() {
        let pts = random_points_2d(2000, 41);
        let run = |skipping, bounds| {
            SingleTreeBoruvka::new(&pts)
                .run(
                    &Serial,
                    &EmstConfig {
                        subtree_skipping: skipping,
                        upper_bounds: bounds,
                        ..Default::default()
                    },
                )
                .work
                .distance_computations
        };
        let naive = run(false, false);
        let full = run(true, true);
        assert!(
            full < naive / 2,
            "optimizations should cut distance computations: naive={naive} full={full}"
        );
    }

    #[test]
    fn mutual_reachability_matches_brute_force() {
        for k in [1usize, 2, 4, 8] {
            let pts = random_points_2d(120, 57 + k as u64);
            let core = brute_force_core_distances_sq(&pts, k);
            let metric = MutualReachability::new(&core);
            let result = SingleTreeBoruvka::new(&pts).run_with_metric(
                &Serial,
                &EmstConfig::default(),
                &metric,
            );
            verify_spanning_tree(pts.len(), &result.edges).unwrap();
            let brute = brute_force_mst(&pts, &metric);
            assert_eq!(weight_multiset(&result.edges), weight_multiset(&brute), "k_pts={k}");
        }
    }

    #[test]
    fn mutual_reachability_k1_equals_euclidean() {
        let pts = random_points_2d(80, 71);
        let core = brute_force_core_distances_sq(&pts, 1);
        let metric = MutualReachability::new(&core);
        let mrd =
            SingleTreeBoruvka::new(&pts).run_with_metric(&Serial, &EmstConfig::default(), &metric);
        let euc = SingleTreeBoruvka::new(&pts).run(&Serial, &EmstConfig::default());
        assert_eq!(weight_multiset(&mrd.edges), weight_multiset(&euc.edges));
    }

    #[test]
    fn scratch_reuse_across_sizes_and_configs_stays_correct() {
        // One pool through shrinking/growing inputs and both selections —
        // stale contents must never leak into a result.
        let mut scratch = BoruvkaScratch::new();
        for (n, seed) in [(300usize, 1u64), (40, 2), (180, 3)] {
            let pts = random_points_2d(n, seed);
            let brute = weight_multiset(&brute_force_emst(&pts));
            for selection in [EdgeSelection::Locked, EdgeSelection::Atomic64] {
                let cfg = EmstConfig { edge_selection: selection, ..Default::default() };
                let r = SingleTreeBoruvka::new(&pts).run_scratch(&Threads, &cfg, &mut scratch);
                verify_spanning_tree(n, &r.edges).unwrap();
                assert_eq!(weight_multiset(&r.edges), brute, "n={n} {selection:?}");
            }
        }
    }

    #[test]
    fn iteration_count_is_logarithmic() {
        let pts = random_points_2d(4096, 83);
        let r = SingleTreeBoruvka::new(&pts).run(&Threads, &EmstConfig::default());
        // Theoretical bound is ceil(log2 n) = 12; chains usually do better.
        assert!(r.iterations <= 12, "iterations = {}", r.iterations);
        assert!(r.iterations >= 3);
    }

    #[test]
    fn timings_and_work_are_populated() {
        let pts = random_points_2d(1000, 97);
        let gpu = GpuSim::new();
        let r = SingleTreeBoruvka::new(&pts).run(&gpu, &EmstConfig::default());
        assert!(r.timings.get("tree") > 0.0);
        assert!(r.timings.get("mst") > 0.0);
        assert!(r.work.node_visits > 0);
        assert!(r.work.queries >= 1000);
        assert!(r.launches_tree.0 > 0);
        assert!(r.launches_mst.0 > r.launches_tree.0);
        assert!(r.work_mst().node_visits == r.work.node_visits);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn emst_equals_brute_force_weight_multiset(
            n in 2usize..120,
            seed in 0u64..10_000,
            selection in prop::sample::select(vec![EdgeSelection::Locked, EdgeSelection::Atomic64]),
        ) {
            let pts = random_points_2d(n, seed);
            let cfg = EmstConfig { edge_selection: selection, ..Default::default() };
            let result = SingleTreeBoruvka::new(&pts).run(&Threads, &cfg);
            prop_assert!(verify_spanning_tree(n, &result.edges).is_ok());
            let brute = brute_force_emst(&pts);
            prop_assert_eq!(weight_multiset(&result.edges), weight_multiset(&brute));
        }

        #[test]
        fn emst_on_clustered_integer_points(
            n in 2usize..80, seed in 0u64..1000
        ) {
            // Integer coordinates in a tiny range: heavy duplicate and tie
            // pressure.
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<Point<2>> = (0..n)
                .map(|_| Point::new([
                    rng.random_range(0i32..6) as f32,
                    rng.random_range(0i32..6) as f32,
                ]))
                .collect();
            let result = SingleTreeBoruvka::new(&pts).run(&Serial, &EmstConfig::default());
            prop_assert!(verify_spanning_tree(n, &result.edges).is_ok());
            let brute = brute_force_emst(&pts);
            prop_assert_eq!(weight_multiset(&result.edges), weight_multiset(&brute));
        }

        #[test]
        fn mrd_emst_equals_brute_force(
            n in 2usize..60, seed in 0u64..500, k in 1usize..6
        ) {
            let pts = random_points_2d(n, seed);
            let core = brute_force_core_distances_sq(&pts, k);
            let metric = MutualReachability::new(&core);
            let result = SingleTreeBoruvka::new(&pts)
                .run_with_metric(&Serial, &EmstConfig::default(), &metric);
            prop_assert!(verify_spanning_tree(n, &result.edges).is_ok());
            let brute = brute_force_mst(&pts, &metric);
            prop_assert_eq!(weight_multiset(&result.edges), weight_multiset(&brute));
        }
    }

    proptest! {
        // A floor that drops metric-rejected leaves breaks about one case
        // in a hundred of this shape: run enough cases to meet one.
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn mrd_emst_on_clustered_points_equals_brute_force(
            n in 2usize..150,
            seed in 0u64..10_000,
            k in 1usize..9,
            clusters in 1usize..6,
            selection in prop::sample::select(vec![EdgeSelection::Locked, EdgeSelection::Atomic64]),
        ) {
            // Clusters of very different sizes and spreads put points with
            // large core distances right next to dense ones: leaves that
            // pass the Euclidean test but lie beyond the radius in the
            // metric, which carried floors must account for.
            let mut rng = StdRng::seed_from_u64(seed);
            let centers: Vec<([f32; 2], f32)> = (0..clusters)
                .map(|_| {
                    let c = [rng.random_range(-1.0f32..1.0), rng.random_range(-1.0f32..1.0)];
                    (c, 0.3f32.powi(rng.random_range(1i32..5)))
                })
                .collect();
            let pts: Vec<Point<2>> = (0..n)
                .map(|i| {
                    let (c, spread) = centers[(i * i + i / 7) % clusters];
                    Point::new([
                        c[0] + spread * rng.random_range(-1.0f32..1.0),
                        c[1] + spread * rng.random_range(-1.0f32..1.0),
                    ])
                })
                .collect();
            let core = brute_force_core_distances_sq(&pts, k);
            let metric = MutualReachability::new(&core);
            let cfg = EmstConfig { edge_selection: selection, ..Default::default() };
            let result = SingleTreeBoruvka::new(&pts).run_with_metric(&Serial, &cfg, &metric);
            prop_assert!(verify_spanning_tree(n, &result.edges).is_ok());
            let brute = brute_force_mst(&pts, &metric);
            prop_assert_eq!(weight_multiset(&result.edges), weight_multiset(&brute));
        }
    }
}
