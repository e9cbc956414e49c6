//! The cacheable half of a sharded solve.
//!
//! A sharded EMST run has two phases with very different lifetimes:
//!
//! - the **build** — Morton planning, per-shard single-tree solves, and
//!   per-shard BVH construction — depends only on `(points, K)` and is by
//!   far the expensive part;
//! - the **merge** — cross-shard Borůvka over the boundary region — is
//!   cheap (mostly root-pruned box tests) but depends on what the caller
//!   asks (full cloud vs. a subset).
//!
//! [`ShardArtifacts`] reifies the build phase as a value: the plan, every
//! non-empty shard's BVH (with its 4-wide rope-linked collapse), its local
//! MST edges, and the build-work accounting. The artifacts are immutable —
//! the two merge calls, [`ShardArtifacts::merge`] (the full cloud) and
//! [`ShardArtifacts::merge_subset`], only *borrow* them — so a long-lived
//! service can keep them resident and answer repeated queries by
//! re-running nothing but the merge. This is the object the `emst_serve`
//! cache holds under its `(input digest, K)` key. Both calls take their
//! scratch from the caller and an optional deadline.
//!
//! ```
//! use emst_datasets::Kind;
//! use emst_exec::Threads;
//! use emst_shard::{MergeScratch, ShardArtifacts, ShardConfig};
//!
//! let pts = Kind::Uniform.generate::<2>(600, 9);
//! let artifacts = ShardArtifacts::build(&Threads, &pts, &ShardConfig::new(4));
//! // Merge-only queries: no plan, no local solves, no tree builds.
//! let mut scratch = MergeScratch::new();
//! let a = artifacts.merge(&Threads, &mut scratch, None).unwrap();
//! let b = artifacts.merge(&Threads, &mut scratch, None).unwrap();
//! assert_eq!(a.edges, b.edges); // deterministic, bit-identical
//! assert_eq!(a.edges.len(), 599);
//! ```
//!
//! # Subset queries
//!
//! [`ShardArtifacts::merge_subset`] computes the exact EMST of a *subset*
//! of the ingested points while reusing as much of the build as possible.
//! The subset inherits the resident plan's partition; per shard:
//!
//! - **fully covered** (every point of the shard is in the subset): the
//!   cached BVH and local MST are reused verbatim — only the vertex
//!   numbering is remapped;
//! - **partially covered**: that shard's members are re-solved locally
//!   (they form a sub-shard of the induced partition, so the cycle-property
//!   argument applies unchanged — see the `merge` module docs);
//! - **untouched**: skipped entirely.
//!
//! Morton-contiguous subsets (spatial range queries) therefore touch the
//! local phase only at their two boundary shards.

use std::io;
use std::time::Instant;

use emst_bvh::{Bvh, TraversalStats};
use emst_core::edge::total_weight;
use emst_core::{BoruvkaScratch, Edge, EmstConfig, SingleTreeBoruvka};
use emst_datasets::io::{BlobReader, BlobWriter, ByteReader, ByteWriter};
use emst_exec::counters::CounterSnapshot;
use emst_exec::{Counters, ExecSpace, PhaseTimings};
use emst_geometry::{Aabb, Point, Scalar};
use emst_morton::MortonEncoder;
use rayon::prelude::*;

use crate::merge::{
    cross_shard_boruvka, seed_hints, CrossBounds, Inherit, MergeDeadlineExceeded, MergeShard,
    MergeShardView,
};
use crate::plan::ShardPlan;
use crate::{MergeScratch, ShardConfig, ShardStats, ShardedResult};

/// One non-empty shard's resident state: its BVH (`vertex_of_rank` maps
/// Morton ranks to original point indices) and its local MST edges.
struct LocalArtifact<const D: usize> {
    /// Index of this shard in the plan (empty shards have no artifact).
    shard: usize,
    /// The merge-resident BVH + rank-to-vertex map.
    merge: MergeShard<D>,
    /// Local MST edges in original point indices — the merge seeds.
    seeds: Vec<Edge>,
}

/// The EMST of one shard's `points` (its members, in `ids` order) with edges
/// mapped to the caller's vertex `ids`, and the BVH the solve built:
/// `(tree, edges, iterations, work)`. Fewer than two points solve nothing,
/// build no tree and report zero work.
pub(crate) fn local_mst<S: ExecSpace, const D: usize>(
    space: &S,
    points: &[Point<D>],
    ids: &[u32],
    scratch: &mut BoruvkaScratch,
) -> (Option<Bvh<D>>, Vec<Edge>, u32, CounterSnapshot) {
    let (r, tree) = SingleTreeBoruvka::new(points).run_scratch_keeping_tree(
        space,
        &EmstConfig::default(),
        scratch,
    );
    let edges =
        r.edges.iter().map(|e| Edge::new(ids[e.u as usize], ids[e.v as usize], e.weight_sq));
    (tree, edges.collect(), r.iterations, r.work)
}

/// [`local_mst`] with its tree kept as the shard's merge-resident BVH:
/// `(merge shard, seeds, iterations, work)`. A one-point shard, where the
/// solve builds nothing, gets its tree built here.
fn solve_local<S: ExecSpace, const D: usize>(
    space: &S,
    points: &[Point<D>],
    ids: &[u32],
    scratch: &mut BoruvkaScratch,
) -> (MergeShard<D>, Vec<Edge>, u32, CounterSnapshot) {
    let (tree, seeds, iterations, work) = local_mst(space, points, ids, scratch);
    let merge = match tree {
        Some(bvh) => MergeShard::from_bvh(bvh, ids),
        None => MergeShard::build(space, points, ids),
    };
    (merge, seeds, iterations, work)
}

/// The resident product of a sharded build: plan + per-shard BVHs + local
/// MSTs, ready to answer repeated merge-only queries. See the module docs.
pub struct ShardArtifacts<const D: usize> {
    plan: ShardPlan,
    locals: Vec<LocalArtifact<D>>,
    n: usize,
    shard_sizes: Vec<usize>,
    local_iterations: Vec<u32>,
    build_work: CounterSnapshot,
    build_timings: PhaseTimings,
    /// Label-independent merge bounds (vertex→shard maps, pristine
    /// per-(vertex, shard) entry distances and round 1's candidates),
    /// precomputed so every merge starts from a memcpy.
    bounds: CrossBounds,
    /// All local MST edges flattened in shard order — the full-cloud merge
    /// seeds, cached so warm queries skip the per-call gather.
    flat_seeds: Vec<Edge>,
}

impl<const D: usize> ShardArtifacts<D> {
    /// Runs the build phase: plan the Morton ranges, solve every non-empty
    /// shard's local EMST, and build the merge-resident BVHs. Shards run
    /// concurrently on the rayon pool.
    pub fn build<S: ExecSpace>(space: &S, points: &[Point<D>], config: &ShardConfig) -> Self {
        let n = points.len();
        let mut timings = PhaseTimings::new();
        let plan = timings.time("plan", || ShardPlan::new(points, config.shards));
        let shard_sizes = plan.shard_sizes();

        // Gather each non-empty shard's points and original indices.
        let inputs: Vec<(usize, Vec<u32>, Vec<Point<D>>)> = (0..plan.num_shards())
            .filter(|&s| !plan.shard_indices(s).is_empty())
            .map(|s| {
                let ids = plan.shard_indices(s).to_vec();
                let pts = ids.iter().map(|&i| points[i as usize]).collect();
                (s, ids, pts)
            })
            .collect();

        // Concurrent shards cannot share scratch; each brings its own.
        let locals: Vec<(LocalArtifact<D>, u32, CounterSnapshot)> = timings.time("local", || {
            inputs
                .into_par_iter()
                .map(|(shard, ids, pts)| {
                    let (merge, seeds, iterations, work) =
                        solve_local(space, &pts, &ids, &mut BoruvkaScratch::new());
                    (LocalArtifact { shard, merge, seeds }, iterations, work)
                })
                .collect()
        });

        let local_iterations: Vec<u32> = locals.iter().map(|(_, it, _)| *it).collect();
        let build_work = locals.iter().fold(CounterSnapshot::default(), |acc, (_, _, w)| acc + *w);
        let locals: Vec<LocalArtifact<D>> = locals.into_iter().map(|(l, _, _)| l).collect();
        let flat_seeds: Vec<Edge> = locals.iter().flat_map(|l| l.seeds.iter().copied()).collect();
        let bounds = timings.time("plan", || {
            let views: Vec<MergeShardView<'_, D>> = locals.iter().map(|l| l.merge.view()).collect();
            CrossBounds::compute(space, &views, n, None, Some(&seed_hints(&flat_seeds, n)))
        });
        Self {
            plan,
            locals,
            n,
            shard_sizes,
            local_iterations,
            build_work,
            build_timings: timings,
            bounds,
            flat_seeds,
        }
    }

    /// Number of ingested points.
    pub fn num_points(&self) -> usize {
        self.n
    }

    /// The Morton-range plan the build partitioned on.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Point counts per shard (empty shards included).
    pub fn shard_sizes(&self) -> &[usize] {
        &self.shard_sizes
    }

    /// Borůvka iterations of each non-empty shard's local solve.
    pub fn local_iterations(&self) -> &[u32] {
        &self.local_iterations
    }

    /// Algorithmic work spent by the build phase (the local solves).
    pub fn build_work(&self) -> CounterSnapshot {
        self.build_work
    }

    /// Wall-clock timings of the build phase (`"plan"`, `"local"`).
    pub fn build_timings(&self) -> &PhaseTimings {
        &self.build_timings
    }

    /// Heap bytes held resident by the artifacts (BVHs, rank maps, seeds,
    /// plan, precomputed merge bounds and round-1 candidates) — what a
    /// serving cache charges against its budget.
    pub fn resident_bytes(&self) -> usize {
        let per_local = |l: &LocalArtifact<D>| {
            l.merge.bvh.resident_bytes()
                + l.merge.vertex_of_rank.len() * std::mem::size_of::<u32>()
                + l.seeds.len() * std::mem::size_of::<Edge>()
        };
        self.plan.resident_bytes()
            + self.bounds.resident_bytes()
            + self.locals.iter().map(per_local).sum::<usize>()
    }

    /// Runs the merge phase over the full cloud: the exact EMST, computed
    /// without re-planning, re-solving, or rebuilding anything.
    ///
    /// Every per-merge allocation is drawn from `scratch`, so a long-lived
    /// server's warm repeat queries allocate nothing; the scratch carries
    /// no semantic state between calls. The merge starts from the cached
    /// bounds, which already hold round 1's answers, so its first round
    /// fires no query and every merge of these artifacts does the same
    /// work. `deadline` is checked at every merge-round boundary; on
    /// [`MergeDeadlineExceeded`] no partial result escapes, and the
    /// scratch is exactly as reusable as before the call. With no deadline
    /// the call cannot fail.
    ///
    /// The returned [`ShardStats`] covers **only this merge** (its `work`
    /// has `iterations == 0` since no Borůvka *solve* ran — the warm-query
    /// signature the serving tests assert); callers wanting the cold-solve
    /// view combine it with [`Self::build_work`]/[`Self::build_timings`] as
    /// [`crate::emst_sharded_with`] does.
    pub fn merge<S: ExecSpace>(
        &self,
        space: &S,
        scratch: &mut MergeScratch,
        deadline: Option<Instant>,
    ) -> Result<ShardedResult, MergeDeadlineExceeded> {
        let mut timings = PhaseTimings::new();
        let counters = Counters::new();
        let mut result = ShardedResult {
            edges: vec![],
            total_weight: 0.0,
            stats: ShardStats {
                shard_sizes: self.shard_sizes.clone(),
                local_iterations: self.local_iterations.clone(),
                peak_resident: self.n,
                ..ShardStats::default()
            },
        };
        if self.n < 2 {
            return Ok(result);
        }
        let views: Vec<MergeShardView<'_, D>> =
            self.locals.iter().map(|l| l.merge.view()).collect();
        let mst_start = std::time::Instant::now();
        let outcome = cross_shard_boruvka(
            space,
            &views,
            self.n,
            &self.flat_seeds,
            &counters,
            &mut timings,
            Some(&self.bounds),
            deadline,
            scratch,
        )?;
        timings.record("merge", mst_start.elapsed().as_secs_f64());
        debug_assert_eq!(outcome.edges.len(), self.n - 1);

        result.total_weight = total_weight(&outcome.edges);
        result.edges = outcome.edges;
        result.stats.boundary_candidates = outcome.boundary_candidates;
        result.stats.merge_rounds = outcome.rounds;
        result.stats.round_details = outcome.round_details;
        result.stats.timings = timings;
        result.stats.work = counters.snapshot();
        Ok(result)
    }

    /// Exact EMST of a **subset** of the ingested points, reusing the
    /// resident build wherever the subset covers a shard completely (see
    /// the module docs for the partition argument).
    ///
    /// `points` must be the cloud the artifacts were built from (the
    /// serving layer guards this with its content digest), and `subset`
    /// holds distinct original point indices. Returned edges use original
    /// indices; `stats.shard_sizes` reports the subset's per-shard counts
    /// and `stats.local_iterations` only the partially-covered shards that
    /// had to re-solve.
    ///
    /// `deadline` is checked at every merge-round boundary (the local
    /// re-solve phase of partially covered shards runs to completion first
    /// — it is bounded by the build cost, which the caller already
    /// accepted); with no deadline the call cannot fail.
    ///
    /// # Panics
    /// On out-of-range or duplicate subset indices.
    pub fn merge_subset<S: ExecSpace>(
        &self,
        space: &S,
        points: &[Point<D>],
        subset: &[u32],
        scratch: &mut BoruvkaScratch,
        deadline: Option<Instant>,
    ) -> Result<ShardedResult, MergeDeadlineExceeded> {
        assert_eq!(points.len(), self.n, "points are not the ingested cloud");
        let m = subset.len();
        let mut timings = PhaseTimings::new();
        let counters = Counters::new();

        // Renumber the subset to contiguous vertex ids 0..m.
        let mut new_id = vec![u32::MAX; self.n];
        for (j, &orig) in subset.iter().enumerate() {
            assert!((orig as usize) < self.n, "subset index {orig} out of range");
            assert_eq!(new_id[orig as usize], u32::MAX, "duplicate subset index {orig}");
            new_id[orig as usize] = j as u32;
        }

        // Per touched shard: reuse or re-solve.
        enum SubShard<'a, const D2: usize> {
            /// Fully covered: the cached BVH with a renumbered rank map.
            Reused { local: &'a LocalArtifact<D2>, vor: Vec<u32> },
            /// Partially covered: a fresh sub-shard over the members only.
            Fresh(MergeShard<D2>),
        }
        let mut shard_sizes = vec![0usize; self.plan.num_shards()];
        let mut local_iterations = vec![];
        let mut local_work = CounterSnapshot::default();
        let mut seeds: Vec<Edge> = vec![];
        let mut subs: Vec<SubShard<'_, D>> = vec![];
        timings.time("local", || {
            for local in &self.locals {
                let ids = self.plan.shard_indices(local.shard);
                let members: Vec<u32> =
                    ids.iter().copied().filter(|&i| new_id[i as usize] != u32::MAX).collect();
                shard_sizes[local.shard] = members.len();
                if members.is_empty() {
                    continue;
                }
                if members.len() == ids.len() {
                    let vor = local
                        .merge
                        .vertex_of_rank
                        .iter()
                        .map(|&orig| new_id[orig as usize])
                        .collect();
                    seeds.extend(local.seeds.iter().map(|e| {
                        Edge::new(new_id[e.u as usize], new_id[e.v as usize], e.weight_sq)
                    }));
                    subs.push(SubShard::Reused { local, vor });
                } else {
                    let pts: Vec<Point<D>> = members.iter().map(|&i| points[i as usize]).collect();
                    let vids: Vec<u32> = members.iter().map(|&i| new_id[i as usize]).collect();
                    let (merge, local_seeds, iterations, work) =
                        solve_local(space, &pts, &vids, scratch);
                    if pts.len() >= 2 {
                        local_iterations.push(iterations);
                    }
                    local_work += work;
                    seeds.extend(local_seeds);
                    subs.push(SubShard::Fresh(merge));
                }
            }
        });

        let mut result = ShardedResult {
            edges: vec![],
            total_weight: 0.0,
            stats: ShardStats {
                shard_sizes,
                local_iterations,
                peak_resident: self.n,
                ..ShardStats::default()
            },
        };
        if m < 2 {
            result.stats.timings = timings;
            return Ok(result);
        }

        let views: Vec<MergeShardView<'_, D>> = subs
            .iter()
            .map(|s| match s {
                SubShard::Reused { local, vor } => {
                    MergeShardView { bvh: &local.merge.bvh, vertex_of_rank: vor }
                }
                SubShard::Fresh(ms) => ms.view(),
            })
            .collect();
        let mst_start = std::time::Instant::now();
        let outcome = cross_shard_boruvka(
            space,
            &views,
            m,
            &seeds,
            &counters,
            &mut timings,
            // Subset views renumber vertices, so the cached full-cloud
            // bounds do not apply.
            None,
            deadline,
            &mut MergeScratch::new(),
        )?;
        timings.record("merge", mst_start.elapsed().as_secs_f64());
        debug_assert_eq!(outcome.edges.len(), m - 1);

        // Map vertex ids back to original point indices.
        let edges: Vec<Edge> = outcome
            .edges
            .iter()
            .map(|e| Edge::new(subset[e.u as usize], subset[e.v as usize], e.weight_sq))
            .collect();
        result.total_weight = total_weight(&edges);
        result.edges = edges;
        result.stats.boundary_candidates = outcome.boundary_candidates;
        result.stats.merge_rounds = outcome.rounds;
        result.stats.round_details = outcome.round_details;
        result.stats.timings = timings;
        result.stats.work = local_work + counters.snapshot();
        Ok(result)
    }

    /// Derives the artifacts of a *mutated* cloud from these artifacts,
    /// re-solving only the shards the mutation touched.
    ///
    /// `old_points` is the cloud these artifacts were built from and
    /// `new_points` the mutated cloud; `parent_of[v]` gives child vertex
    /// `v`'s id in the parent cloud (`u32::MAX` for an inserted point —
    /// surviving points must keep their coordinates). Each inserted point
    /// is routed to the non-empty shard whose Morton range covers its code
    /// (under the parent scene box, clamped like the plan's own encoder);
    /// any deterministic assignment yields the *exact* EMST — the cycle
    /// property discards intra-shard non-MST edges regardless of which
    /// partition produced them, so the child's edge-weight multiset is
    /// bit-identical to a from-scratch solve even though its plan need not
    /// equal one.
    ///
    /// Per shard: **clean** (no member inserted or deleted) reuses the BVH
    /// and local MST verbatim with renumbered vertex ids, and its
    /// per-`(vertex, shard)` entry bounds are inherited — label-independent
    /// geometric facts about the unchanged point set; **dirty** re-solves
    /// locally and recomputes its bounds column (plus every inserted
    /// vertex's full row). Round 1's candidates are never inherited — a
    /// parent candidate edge may name a deleted point — so the child's
    /// bounds probe every shard, clean or dirty, whose bound falls within
    /// the vertex's round-1 radius, exactly as a build does, and the
    /// child's first merge starts with round 1 answered.
    ///
    /// When the mutation changes the set of non-empty shards (a shard
    /// drained, or inserts landed where nothing lived) the incremental
    /// path cannot keep the parent's shard-column layout and the update
    /// falls back to a full [`Self::build`], reported honestly in the
    /// [`UpdateReport`].
    ///
    /// `deadline` is checked before each dirty-shard re-solve (and before
    /// a fallback rebuild), so a slow update gives up at phase granularity
    /// with nothing observable leaked — the parent artifacts are untouched
    /// either way.
    ///
    /// # Panics
    /// On `parent_of` inconsistencies (out-of-range or duplicate parent
    /// ids) or when `old_points` is not the ingested cloud.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_update<S: ExecSpace>(
        &self,
        space: &S,
        old_points: &[Point<D>],
        new_points: &[Point<D>],
        parent_of: &[u32],
        config: &ShardConfig,
        scratch: &mut BoruvkaScratch,
        deadline: Option<Instant>,
    ) -> Result<(Self, UpdateReport), MergeDeadlineExceeded> {
        assert_eq!(old_points.len(), self.n, "old_points are not the ingested cloud");
        assert_eq!(parent_of.len(), new_points.len(), "parent_of must map every new point");
        let n_new = new_points.len();
        let k = self.plan.num_shards();
        let mut timings = PhaseTimings::new();

        // Invert the parent map and collect the inserted child ids.
        let mut child_of = vec![u32::MAX; self.n];
        let mut inserted: Vec<u32> = vec![];
        for (v, &p) in parent_of.iter().enumerate() {
            if p == u32::MAX {
                inserted.push(v as u32);
            } else {
                assert!((p as usize) < self.n, "parent_of id {p} out of range");
                assert_eq!(child_of[p as usize], u32::MAX, "duplicate parent_of id {p}");
                debug_assert_eq!(
                    new_points[v], old_points[p as usize],
                    "surviving point {v} moved — model a move as delete + insert"
                );
                child_of[p as usize] = v as u32;
            }
        }

        // Child membership per shard: survivors in parent order, then the
        // routed inserts in (Morton code, child id) order — deterministic,
        // so two derivations of the same mutation agree bit-for-bit.
        let (members, dirty_shard) = timings.time("plan", || {
            let mut members: Vec<Vec<u32>> = vec![vec![]; k];
            let mut dirty_shard = vec![false; k];
            for (s, dirty) in dirty_shard.iter_mut().enumerate() {
                let kept = &mut members[s];
                for &p in self.plan.shard_indices(s) {
                    let c = child_of[p as usize];
                    if c != u32::MAX {
                        kept.push(c);
                    } else {
                        *dirty = true;
                    }
                }
            }
            if !inserted.is_empty() {
                let scene = Aabb::from_points(old_points);
                let enc = MortonEncoder::new(&scene);
                let max_code: Vec<Option<u64>> = (0..k)
                    .map(|s| {
                        self.plan
                            .shard_indices(s)
                            .iter()
                            .map(|&p| enc.encode_u64(&old_points[p as usize]))
                            .max()
                    })
                    .collect();
                let route = |code: u64| -> usize {
                    let mut last = 0;
                    for (s, m) in max_code.iter().enumerate() {
                        if let Some(m) = m {
                            last = s;
                            if code <= *m {
                                return s;
                            }
                        }
                    }
                    last
                };
                let mut routed: Vec<(u64, u32, usize)> = inserted
                    .iter()
                    .map(|&c| {
                        let code = enc.encode_u64(&new_points[c as usize]);
                        (code, c, route(code))
                    })
                    .collect();
                routed.sort_unstable();
                for &(_, c, s) in &routed {
                    members[s].push(c);
                    dirty_shard[s] = true;
                }
            }
            (members, dirty_shard)
        });

        // The incremental path keeps the parent's local-column layout
        // (bounds stride, serialization shape), which requires
        // the set of non-empty shards to be unchanged. Otherwise: honest
        // full rebuild.
        if (0..k).any(|s| self.plan.shard_indices(s).is_empty() != members[s].is_empty()) {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(MergeDeadlineExceeded);
                }
            }
            let rebuilt = Self::build(space, new_points, config);
            let dirty_shards = (0..rebuilt.plan.num_shards())
                .filter(|&s| !rebuilt.plan.shard_indices(s).is_empty())
                .collect();
            return Ok((
                rebuilt,
                UpdateReport { dirty_shards, reused_shards: 0, full_rebuild: true },
            ));
        }

        let mut order: Vec<u32> = Vec::with_capacity(n_new);
        let mut cut = Vec::with_capacity(k + 1);
        cut.push(0);
        for m in &members {
            order.extend_from_slice(m);
            cut.push(order.len());
        }
        let plan = ShardPlan::from_parts(order, cut);
        let shard_sizes = plan.shard_sizes();

        let mut local_iterations = Vec::with_capacity(self.locals.len());
        let mut build_work = CounterSnapshot::default();
        let mut locals: Vec<LocalArtifact<D>> = Vec::with_capacity(self.locals.len());
        let mut dirty_local = Vec::with_capacity(self.locals.len());
        let mut dirty_shards = vec![];
        let mut reused_shards = 0usize;
        timings.time("local", || -> Result<(), MergeDeadlineExceeded> {
            for (li, local) in self.locals.iter().enumerate() {
                let s = local.shard;
                if !dirty_shard[s] {
                    let vertex_of_rank =
                        local.merge.vertex_of_rank.iter().map(|&p| child_of[p as usize]).collect();
                    let seeds = local
                        .seeds
                        .iter()
                        .map(|e| {
                            Edge::new(child_of[e.u as usize], child_of[e.v as usize], e.weight_sq)
                        })
                        .collect();
                    let merge = MergeShard { bvh: local.merge.bvh.clone(), vertex_of_rank };
                    locals.push(LocalArtifact { shard: s, merge, seeds });
                    local_iterations.push(self.local_iterations[li]);
                    dirty_local.push(false);
                    reused_shards += 1;
                    continue;
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(MergeDeadlineExceeded);
                    }
                }
                let ids = &members[s];
                let pts: Vec<Point<D>> = ids.iter().map(|&c| new_points[c as usize]).collect();
                let (merge, seeds, iterations, work) = solve_local(space, &pts, ids, scratch);
                build_work += work;
                local_iterations.push(iterations);
                locals.push(LocalArtifact { shard: s, merge, seeds });
                dirty_local.push(true);
                dirty_shards.push(s);
            }
            Ok(())
        })?;

        let flat_seeds: Vec<Edge> = locals.iter().flat_map(|l| l.seeds.iter().copied()).collect();
        let bounds = timings.time("plan", || {
            let views: Vec<MergeShardView<'_, D>> = locals.iter().map(|l| l.merge.view()).collect();
            let inherit = Inherit { bounds: &self.bounds, parent_of, dirty: &dirty_local };
            let radius = seed_hints(&flat_seeds, n_new);
            CrossBounds::compute(space, &views, n_new, Some(inherit), Some(&radius))
        });
        Ok((
            Self {
                plan,
                locals,
                n: n_new,
                shard_sizes,
                local_iterations,
                build_work,
                build_timings: timings,
                bounds,
                flat_seeds,
            },
            UpdateReport { dirty_shards, reused_shards, full_rebuild: false },
        ))
    }

    /// The `k` nearest ingested points to `query` as `(original index,
    /// squared distance)`, sorted ascending by `(distance, index)` —
    /// answered from the resident per-shard BVHs (each shard returns its
    /// local top-`k`; the global top-`k` is their merge). The distance
    /// multiset is exact; when several points tie *at the cut-off distance
    /// within one shard*, which of them is reported follows that shard's
    /// Morton-rank order. Traversal work accumulates into `stats`.
    pub fn k_nearest(
        &self,
        query: &Point<D>,
        k: usize,
        stats: &mut TraversalStats,
    ) -> Vec<(u32, Scalar)> {
        let mut all: Vec<(u32, Scalar)> = vec![];
        for l in &self.locals {
            let mut st = TraversalStats::default();
            for (rank, d) in l.merge.bvh.k_nearest_with_stats(query, k, &mut st) {
                all.push((l.merge.vertex_of_rank[rank as usize], d));
            }
            *stats = stats.merged(st);
        }
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Appends the durable binary encoding of these artifacts to `out` —
    /// the plan, every local's seeds and the precomputed merge bounds
    /// (floors, then round 1's candidates as sparse `(vertex, weight, a,
    /// b)` entries), framed as checksummed sections (magic `EMSTART3`).
    ///
    /// Only state that cannot be derived from the rest and the points is
    /// stored. The per-shard BVHs are not: a tree is a deterministic
    /// function of its shard's points, and [`Self::deserialize`] rebuilds
    /// it for less than decoding and checksumming its node arrays would
    /// cost. `vertex_of_rank`, the vertex→shard maps, each vertex's
    /// `reach` (its row's minimum floor), `shard_sizes` and `flat_seeds`
    /// are likewise recomputed. Build-time accounting
    /// (`build_work`, `build_timings`) is deliberately **not** persisted —
    /// a restore runs no Borůvka solve, and reporting zeros is the honest
    /// signature the serving stats rely on.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        let mut blob = BlobWriter::new(ARTIFACT_MAGIC);
        let mut plan = ByteWriter::new();
        plan.u64(self.n as u64);
        plan.u64(self.plan.num_shards() as u64);
        for &o in self.plan.order() {
            plan.u32(o);
        }
        for &b in self.plan.cut_bounds() {
            plan.u64(b as u64);
        }
        blob.section(b"PLAN", &plan.into_vec());

        let mut locs = ByteWriter::new();
        locs.u64(self.locals.len() as u64);
        for (l, &iters) in self.locals.iter().zip(&self.local_iterations) {
            locs.u32(l.shard as u32);
            locs.u32(iters);
            locs.u64(l.seeds.len() as u64);
            for e in &l.seeds {
                locs.u32(e.u);
                locs.u32(e.v);
                locs.f32(e.weight_sq);
            }
        }
        blob.section(b"LOCS", &locs.into_vec());

        let b = &self.bounds;
        let mut bnds = ByteWriter::new();
        for &d in &b.cross_dist {
            bnds.f32(d);
        }
        let cands: Vec<usize> = (0..self.n).filter(|&v| b.cand_a[v] != u32::MAX).collect();
        bnds.u64(cands.len() as u64);
        for v in cands {
            bnds.u32(v as u32);
            bnds.f32(b.cand_d[v]);
            bnds.u32(b.cand_a[v]);
            bnds.u32(b.cand_b[v]);
        }
        blob.section(b"BNDS", &bnds.into_vec());
        out.extend_from_slice(&blob.finish());
    }

    /// Decodes a blob written by [`Self::serialize_into`] for the cloud
    /// `points`, re-deriving all the redundant state: each shard's BVH is
    /// rebuilt on `space` from its points in plan order — the same
    /// deterministic build the local solve ran, so merges, subsets and
    /// k-NN over the result are bit-identical to the artifacts that were
    /// serialized. Every length, id range and structural invariant is
    /// validated before any tree is built — corrupt or foreign bytes, or a
    /// plan whose point count differs from `points.len()`, yield an
    /// `InvalidData` error (the serving layer's cue to fall back to the
    /// full rebuild), never a panic or wrong artifacts downstream.
    ///
    /// The caller is responsible for `points` being the cloud the blob was
    /// serialized from; the serving layer guarantees this by storing
    /// artifact bytes inside the same digest-named spill file as the
    /// points themselves and verifying the points' digest first.
    pub fn deserialize<S: ExecSpace>(
        space: &S,
        bytes: &[u8],
        points: &[Point<D>],
    ) -> io::Result<Self> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut blob = BlobReader::open(bytes, ARTIFACT_MAGIC)?;

        let plan_bytes = blob.section(b"PLAN")?;
        let mut r = ByteReader::new(plan_bytes);
        let n = r.len_capped(plan_bytes.len() / 4, "artifact plan: implausible point count")?;
        if n != points.len() {
            return Err(bad("artifact plan: point count differs from the cloud"));
        }
        let k = r.len_capped(plan_bytes.len() / 8, "artifact plan: implausible shard count")?;
        if k == 0 {
            return Err(bad("artifact plan: zero shards"));
        }
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for _ in 0..n {
            let o = r.u32()?;
            if o as usize >= n || std::mem::replace(&mut seen[o as usize], true) {
                return Err(bad("artifact plan: order is not a permutation"));
            }
            order.push(o);
        }
        let mut cut_bounds = Vec::with_capacity(k + 1);
        for _ in 0..=k {
            cut_bounds.push(r.u64()? as usize);
        }
        r.done()?;
        if cut_bounds[0] != 0 || cut_bounds[k] != n || cut_bounds.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad("artifact plan: cut table is not monotone over 0..n"));
        }
        let plan = ShardPlan::from_parts(order, cut_bounds);
        let shard_sizes = plan.shard_sizes();

        let locs_bytes = blob.section(b"LOCS")?;
        let mut r = ByteReader::new(locs_bytes);
        let num_locals = r.len_capped(k, "artifact locals: more locals than shards")?;
        let mut decoded: Vec<(usize, Vec<Edge>)> = Vec::with_capacity(num_locals);
        let mut local_iterations = Vec::with_capacity(num_locals);
        for _ in 0..num_locals {
            let shard = r.u32()? as usize;
            if shard >= k || shard_sizes[shard] == 0 {
                return Err(bad("artifact locals: local for an empty or out-of-range shard"));
            }
            if decoded.iter().any(|&(s, _)| s == shard) {
                return Err(bad("artifact locals: duplicate shard"));
            }
            local_iterations.push(r.u32()?);
            let num_seeds = r.len_capped(shard_sizes[shard], "artifact locals: seed count")?;
            let mut seeds = Vec::with_capacity(num_seeds);
            for _ in 0..num_seeds {
                let u = r.u32()?;
                let v = r.u32()?;
                let w = r.f32()?;
                if u as usize >= n || v as usize >= n {
                    return Err(bad("artifact locals: seed endpoint out of range"));
                }
                seeds.push(Edge::new(u, v, w));
            }
            decoded.push((shard, seeds));
        }
        r.done()?;
        if decoded.len() != (0..k).filter(|&s| shard_sizes[s] > 0).count() {
            return Err(bad("artifact locals: missing a non-empty shard's local"));
        }

        let bnds_bytes = blob.section(b"BNDS")?;
        blob.done()?;
        let stride = decoded.len();
        let floors = n.checked_mul(stride).ok_or_else(|| bad("artifact bounds: size overflow"))?;
        let mut r = ByteReader::new(bnds_bytes);
        let cross_dist = (0..floors).map(|_| r.f32()).collect::<io::Result<Vec<Scalar>>>()?;
        let num_cands = r.len_capped(n, "artifact bounds: more candidates than vertices")?;
        let mut cand_d = vec![Scalar::INFINITY; n];
        let mut cand_a = vec![u32::MAX; n];
        let mut cand_b = vec![u32::MAX; n];
        for _ in 0..num_cands {
            let v = r.u32()? as usize;
            let (w, a, b) = (r.f32()?, r.u32()?, r.u32()?);
            if v >= n || cand_a[v] != u32::MAX {
                return Err(bad("artifact bounds: candidate vertex out of range or repeated"));
            }
            if a >= b || b as usize >= n {
                return Err(bad("artifact bounds: candidate endpoints out of range or unordered"));
            }
            (cand_d[v], cand_a[v], cand_b[v]) = (w, a, b);
        }
        r.done()?;
        let reach = (0..n)
            .map(|v| {
                cross_dist[v * stride..][..stride].iter().fold(Scalar::INFINITY, |m, &d| m.min(d))
            })
            .collect();

        // Every byte is verified: rebuild the trees. The plan is a
        // permutation and every non-empty shard has exactly one local, so
        // the rank maps cover every vertex once.
        let locals: Vec<LocalArtifact<D>> = decoded
            .into_iter()
            .map(|(shard, seeds)| {
                let ids = plan.shard_indices(shard);
                let pts: Vec<Point<D>> = ids.iter().map(|&i| points[i as usize]).collect();
                LocalArtifact { shard, merge: MergeShard::build(space, &pts, ids), seeds }
            })
            .collect();
        // shard_of / rank_of are derived from the rank maps (local index,
        // not plan shard index — mirroring CrossBounds::compute, which the
        // merge's cross_dist indexing depends on).
        let mut shard_of = vec![0u32; n];
        let mut rank_of = vec![0u32; n];
        for (s, l) in locals.iter().enumerate() {
            for (rank, &v) in l.merge.vertex_of_rank.iter().enumerate() {
                shard_of[v as usize] = s as u32;
                rank_of[v as usize] = rank as u32;
            }
        }
        let bounds = CrossBounds { shard_of, rank_of, cross_dist, reach, cand_d, cand_a, cand_b };
        let flat_seeds = locals.iter().flat_map(|l| l.seeds.iter().copied()).collect();

        Ok(Self {
            plan,
            locals,
            n,
            shard_sizes,
            local_iterations,
            build_work: CounterSnapshot::default(),
            build_timings: PhaseTimings::new(),
            bounds,
            flat_seeds,
        })
    }
}

/// What [`ShardArtifacts::apply_update`] did to derive the child artifacts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Plan-shard indices whose local solve re-ran (insert/delete landed
    /// there). On a full rebuild: every non-empty shard of the new plan.
    pub dirty_shards: Vec<usize>,
    /// Non-empty shards whose BVH + local MST were reused verbatim.
    pub reused_shards: usize,
    /// The mutation changed the set of non-empty shards, so the update
    /// fell back to a full build instead of staying incremental.
    pub full_rebuild: bool,
}

/// Magic of the serialized-artifact blob ([`ShardArtifacts::serialize_into`]).
pub const ARTIFACT_MAGIC: &[u8; 8] = b"EMSTART3";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emst_sharded;
    use emst_core::brute::brute_force_emst;
    use emst_core::edge::{verify_spanning_tree, weight_multiset};
    use emst_exec::{Serial, Threads};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points_2d(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.random_range(-1.0f32..1.0), rng.random_range(-1.0f32..1.0)]))
            .collect()
    }

    /// Every stored field of `bvh` as raw bits (coordinates through
    /// `to_bits`, so `-0.0` and `0.0` differ): root, scene box, leaf
    /// points, Morton order, children, parents, internal boxes and the
    /// wide nodes.
    fn tree_bits<const D: usize>(bvh: &Bvh<D>) -> [Vec<u32>; 8] {
        fn coords<'a, const D: usize>(ps: impl IntoIterator<Item = &'a Point<D>>) -> Vec<u32> {
            ps.into_iter().flat_map(|p| p.coords.map(f32::to_bits)).collect()
        }
        let internal = 0..bvh.num_internal() as u32;
        let boxes: Vec<Aabb<D>> = internal.clone().map(|id| bvh.node_aabb(id)).collect();
        let mut wide = vec![];
        for w in bvh.wide().nodes() {
            let corners = w.lo.iter().chain(&w.hi).flatten().chain(&w.self_lo).chain(&w.self_hi);
            wide.extend(corners.map(|c| c.to_bits()));
            wide.extend([w.self_bin, w.escape, w.occupied]);
            wide.extend(w.child.iter().chain(&w.bin));
        }
        [
            vec![bvh.root()],
            coords([&bvh.scene().min, &bvh.scene().max]),
            coords(bvh.leaf_points()),
            bvh.morton_order().to_vec(),
            internal.flat_map(|id| bvh.children_of(id)).collect(),
            bvh.parents().to_vec(),
            coords(boxes.iter().flat_map(|b| [&b.min, &b.max])),
            wide,
        ]
    }

    /// Serializes `artifacts`, restores them against their cloud `points`
    /// on `Threads`, and checks that the restore holds the same trees bit
    /// for bit, merges to the same edges and re-serializes to the same
    /// bytes. Returns the restored artifacts.
    fn assert_restores_bit_identically(
        artifacts: &ShardArtifacts<2>,
        points: &[Point<2>],
    ) -> ShardArtifacts<2> {
        let mut blob = vec![];
        artifacts.serialize_into(&mut blob);
        let restored = ShardArtifacts::<2>::deserialize(&Threads, &blob, points).unwrap();
        // The bounds come back bit for bit: floors and candidates as
        // stored, `reach` re-derived from the floors.
        let bits = |b: &CrossBounds| {
            let f = |xs: &[Scalar]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            [f(&b.cross_dist), f(&b.reach), f(&b.cand_d), b.cand_a.clone(), b.cand_b.clone()]
        };
        assert_eq!(bits(&restored.bounds), bits(&artifacts.bounds));
        assert_eq!(restored.locals.len(), artifacts.locals.len());
        for (a, b) in artifacts.locals.iter().zip(&restored.locals) {
            assert_eq!(a.shard, b.shard);
            assert_eq!(tree_bits(&a.merge.bvh), tree_bits(&b.merge.bvh), "shard {}", a.shard);
            assert_eq!(a.merge.vertex_of_rank, b.merge.vertex_of_rank);
        }
        assert_eq!(
            restored.merge(&Serial, &mut MergeScratch::new(), None).unwrap().edges,
            artifacts.merge(&Serial, &mut MergeScratch::new(), None).unwrap().edges
        );
        let mut blob2 = vec![];
        restored.serialize_into(&mut blob2);
        assert_eq!(blob, blob2);
        restored
    }

    #[test]
    fn repeated_merges_are_bit_identical_and_do_no_build_work() {
        let pts = random_points_2d(900, 3);
        let artifacts = ShardArtifacts::build(&Threads, &pts, &ShardConfig::new(5));
        assert!(artifacts.build_work().iterations > 0);
        assert!(artifacts.resident_bytes() > 0);
        let cold = emst_sharded(&pts, 5);
        let a = artifacts.merge(&Threads, &mut MergeScratch::new(), None).unwrap();
        let b = artifacts.merge(&Threads, &mut MergeScratch::new(), None).unwrap();
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.edges, cold.edges);
        // Merge-only stats: traversal queries happened, but no Borůvka
        // solve iterations and no tree-phase work.
        assert!(a.stats.work.queries > 0);
        assert_eq!(a.stats.work.iterations, 0);
        assert_eq!(a.stats.timings.get("plan"), 0.0);
        assert_eq!(a.stats.timings.get("local"), 0.0);
        assert!(a.stats.timings.get("merge") > 0.0);
    }

    #[test]
    fn subset_merge_matches_brute_force_on_the_subset() {
        let pts = random_points_2d(400, 7);
        let artifacts = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(6));
        let mut scratch = BoruvkaScratch::new();
        let mut rng = StdRng::seed_from_u64(11);
        for take in [2usize, 17, 120, 399, 400] {
            // Random distinct subset of `take` indices.
            let mut all: Vec<u32> = (0..400).collect();
            for i in 0..take {
                let j = rng.random_range(i..400);
                all.swap(i, j);
            }
            let subset = &all[..take];
            let r = artifacts.merge_subset(&Serial, &pts, subset, &mut scratch, None).unwrap();
            assert_eq!(r.edges.len(), take - 1);
            // Edges use original ids; verify over the compacted numbering.
            let compact: std::collections::HashMap<u32, u32> =
                subset.iter().enumerate().map(|(j, &o)| (o, j as u32)).collect();
            let compacted: Vec<Edge> = r
                .edges
                .iter()
                .map(|e| Edge::new(compact[&e.u], compact[&e.v], e.weight_sq))
                .collect();
            verify_spanning_tree(take, &compacted).unwrap();
            let sub_pts: Vec<Point<2>> = subset.iter().map(|&i| pts[i as usize]).collect();
            let brute = brute_force_emst(&sub_pts);
            assert_eq!(weight_multiset(&r.edges), weight_multiset(&brute), "take={take}");
        }
    }

    #[test]
    fn morton_contiguous_subset_reuses_interior_shards() {
        // A subset aligned to the plan's own order covers interior shards
        // completely, so only the boundary shards re-solve.
        let pts = random_points_2d(1000, 13);
        let artifacts = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(8));
        let plan = artifacts.plan();
        // Everything except the first half of shard 0: shards 1..8 are
        // fully covered, shard 0 partially.
        let mut subset: Vec<u32> = vec![];
        let first = plan.shard_indices(0);
        subset.extend(first.iter().skip(first.len() / 2));
        for s in 1..plan.num_shards() {
            subset.extend(plan.shard_indices(s));
        }
        let mut scratch = BoruvkaScratch::new();
        let r = artifacts.merge_subset(&Serial, &pts, &subset, &mut scratch, None).unwrap();
        // Only shard 0 re-ran a local solve.
        assert_eq!(r.stats.local_iterations.len(), 1);
        let sub_pts: Vec<Point<2>> = subset.iter().map(|&i| pts[i as usize]).collect();
        let brute = brute_force_emst(&sub_pts);
        assert_eq!(weight_multiset(&r.edges), weight_multiset(&brute));
    }

    #[test]
    fn trivial_subsets() {
        let pts = random_points_2d(50, 1);
        let artifacts = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(4));
        let mut scratch = BoruvkaScratch::new();
        assert!(artifacts
            .merge_subset(&Serial, &pts, &[], &mut scratch, None)
            .unwrap()
            .edges
            .is_empty());
        assert!(artifacts
            .merge_subset(&Serial, &pts, &[7], &mut scratch, None)
            .unwrap()
            .edges
            .is_empty());
        let two = artifacts.merge_subset(&Serial, &pts, &[3, 41], &mut scratch, None).unwrap();
        assert_eq!(two.edges.len(), 1);
        assert_eq!(two.edges[0], Edge::new(3, 41, pts[3].squared_distance(&pts[41])));
    }

    #[test]
    #[should_panic(expected = "duplicate subset index")]
    fn duplicate_subset_indices_panic() {
        let pts = random_points_2d(20, 2);
        let artifacts = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(2));
        let _ = artifacts.merge_subset(&Serial, &pts, &[1, 2, 1], &mut BoruvkaScratch::new(), None);
    }

    #[test]
    fn serialized_artifacts_restore_to_bit_identical_merges() {
        let pts = random_points_2d(700, 21);
        let built = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(6));
        let mut blob = vec![];
        built.serialize_into(&mut blob);
        // The blob holds the plan, the seeds and the bounds, and no tree
        // bytes: magic, three framed sections (tag, length, checksum),
        // then PLAN (n, K, order, K + 1 cuts), LOCS (count, then shard,
        // iterations, seed count and 12-byte seeds per local) and BNDS
        // (one f32 per vertex and local, then a count and one 16-byte
        // entry per vertex with a round-1 candidate).
        let (n, k, locals) = (pts.len(), built.plan().num_shards(), built.locals.len());
        let seeds: usize = built.locals.iter().map(|l| l.seeds.len()).sum();
        let cands = built.bounds.cand_a.iter().filter(|&&a| a != u32::MAX).count();
        assert!(cands > 0, "the build must answer round 1 for some vertex");
        let plan = 8 + 8 + 4 * n + 8 * (k + 1);
        let locs = 8 + 16 * locals + 12 * seeds;
        let bnds = 4 * n * locals + 8 + 16 * cands;
        assert_eq!(blob.len(), 8 + 3 * (4 + 8 + 8) + plan + locs + bnds);
        // Restoring on another backend rebuilds every shard tree bit for
        // bit (and checks the rest of the round trip).
        let restored = assert_restores_bit_identically(&built, &pts);

        // Restored state mirrors the build, minus the build accounting.
        assert_eq!(restored.num_points(), built.num_points());
        assert_eq!(restored.shard_sizes(), built.shard_sizes());
        assert_eq!(restored.local_iterations(), built.local_iterations());
        assert_eq!(restored.resident_bytes(), built.resident_bytes());
        assert_eq!(restored.build_work().iterations, 0);

        // Full-cloud merge, subset merge, and knn are all bit-identical.
        let a = built.merge(&Serial, &mut MergeScratch::new(), None).unwrap();
        let b = restored.merge(&Serial, &mut MergeScratch::new(), None).unwrap();
        assert_eq!(a.edges, b.edges);
        let subset: Vec<u32> = (0..700).step_by(3).collect();
        let mut scratch = BoruvkaScratch::new();
        let sa = built.merge_subset(&Serial, &pts, &subset, &mut scratch, None).unwrap();
        let sb = restored.merge_subset(&Serial, &pts, &subset, &mut scratch, None).unwrap();
        assert_eq!(sa.edges, sb.edges);
        let mut st = TraversalStats::default();
        assert_eq!(built.k_nearest(&pts[17], 5, &mut st), restored.k_nearest(&pts[17], 5, &mut st));
        // The restored bounds carry round 1's answers: merges over them,
        // on one reused scratch, fire no round-1 query and stay
        // bit-identical.
        let mut ms = MergeScratch::new();
        for _ in 0..2 {
            let c = restored.merge(&Serial, &mut ms, None).unwrap();
            assert_eq!(a.edges, c.edges);
            assert_eq!(c.stats.round_details[0].queries, 0);
        }

        // Re-serializing the restored artifacts reproduces the same bytes.
        let mut blob2 = vec![];
        restored.serialize_into(&mut blob2);
        assert_eq!(blob, blob2);
    }

    #[test]
    fn corrupt_artifact_blobs_are_errors_not_panics() {
        let pts = random_points_2d(120, 23);
        let built = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(3));
        let mut blob = vec![];
        built.serialize_into(&mut blob);
        let decode = |bytes: &[u8], points: &[Point<2>]| {
            ShardArtifacts::<2>::deserialize(&Serial, bytes, points)
        };
        assert!(decode(&[], &pts).is_err());
        for cut in [7usize, 12, blob.len() / 2, blob.len() - 1] {
            assert!(decode(&blob[..cut], &pts).is_err(), "cut={cut}");
        }
        // A flipped byte anywhere is caught (section checksums), including
        // deep inside the seeds and the bounds.
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..40 {
            let i = rng.random_range(0..blob.len());
            let mut bad = blob.clone();
            bad[i] ^= 0x20;
            if bad == blob {
                continue;
            }
            assert!(decode(&bad, &pts).is_err(), "flip at {i}");
        }
        // A cloud of the wrong size cannot have its trees rebuilt from the
        // plan: an error, not a panic.
        for wrong in [&pts[..119], &random_points_2d(121, 23)[..]] {
            let err = decode(&blob, wrong).err().expect("wrong-size cloud must not decode");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // Well-framed bounds whose candidates break the format are refused
        // too: re-frame BNDS with one candidate field edited — a vertex or
        // an endpoint out of range, unordered endpoints, a repeated vertex.
        let mut r = BlobReader::open(&blob, ARTIFACT_MAGIC).unwrap();
        let [plan, locs, bnds] = [b"PLAN", b"LOCS", b"BNDS"].map(|t| r.section(t).unwrap());
        assert!(built.bounds.cand_a.iter().filter(|&&a| a != u32::MAX).count() >= 2);
        let first = 4 * pts.len() * built.locals.len() + 8;
        let vertex = bnds[first..first + 4].to_vec();
        for (at, field) in [
            (first, u32::MAX.to_le_bytes().to_vec()),
            (first + 12, u32::MAX.to_le_bytes().to_vec()),
            (first + 8, u32::MAX.to_le_bytes().to_vec()),
            (first + 16, vertex),
        ] {
            let mut edited = bnds.to_vec();
            edited[at..at + 4].copy_from_slice(&field);
            let mut w = BlobWriter::new(ARTIFACT_MAGIC);
            w.section(b"PLAN", plan);
            w.section(b"LOCS", locs);
            w.section(b"BNDS", &edited);
            let err = decode(&w.finish(), &pts).err().expect("a bad candidate must not decode");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "edit at {at}");
        }
    }

    #[test]
    fn expired_deadline_returns_error_and_leaves_state_reusable() {
        let pts = random_points_2d(500, 29);
        let artifacts = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(4));
        let mut scratch = MergeScratch::new();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = artifacts.merge(&Serial, &mut scratch, Some(past));
        assert_eq!(err.unwrap_err(), MergeDeadlineExceeded);
        let mut bs = BoruvkaScratch::new();
        let sub: Vec<u32> = (0..100).collect();
        let err = artifacts.merge_subset(&Serial, &pts, &sub, &mut bs, Some(past));
        assert_eq!(err.unwrap_err(), MergeDeadlineExceeded);
        // A generous deadline succeeds, bit-identically, with the same
        // scratch the failed attempts touched.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let ok = artifacts.merge(&Serial, &mut scratch, Some(far)).unwrap();
        assert_eq!(
            ok.edges,
            artifacts.merge(&Serial, &mut MergeScratch::new(), None).unwrap().edges
        );
    }

    /// Appends `extra` fresh points to `pts`, returning the child cloud and
    /// its `parent_of` map (identity for survivors, `MAX` for inserts).
    fn with_inserts(pts: &[Point<2>], extra: &[Point<2>]) -> (Vec<Point<2>>, Vec<u32>) {
        let mut np = pts.to_vec();
        np.extend_from_slice(extra);
        let mut parent_of: Vec<u32> = (0..pts.len() as u32).collect();
        parent_of.extend(std::iter::repeat_n(u32::MAX, extra.len()));
        (np, parent_of)
    }

    /// Removes the points at `del` (distinct parent ids) from `pts`,
    /// returning the compacted child cloud and its `parent_of` map.
    fn with_deletes(pts: &[Point<2>], del: &[u32]) -> (Vec<Point<2>>, Vec<u32>) {
        let dead: std::collections::HashSet<u32> = del.iter().copied().collect();
        let mut np = vec![];
        let mut parent_of = vec![];
        for (i, p) in pts.iter().enumerate() {
            if !dead.contains(&(i as u32)) {
                np.push(*p);
                parent_of.push(i as u32);
            }
        }
        (np, parent_of)
    }

    #[test]
    fn incremental_insert_matches_from_scratch_and_reuses_clean_shards() {
        let pts = random_points_2d(400, 31);
        let parent = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(6));
        // A tight cluster of inserts lands in few shards.
        let extra: Vec<Point<2>> =
            (0..8).map(|i| Point::new([0.31 + i as f32 * 1e-3, 0.52])).collect();
        let (np, parent_of) = with_inserts(&pts, &extra);
        let mut scratch = BoruvkaScratch::new();
        let (child, report) = parent
            .apply_update(&Serial, &pts, &np, &parent_of, &ShardConfig::new(6), &mut scratch, None)
            .unwrap();
        assert!(!report.full_rebuild);
        assert!(report.reused_shards >= 4, "cluster inserts must keep most shards clean");
        assert_eq!(report.dirty_shards.len() + report.reused_shards, 6);
        let r = child.merge(&Serial, &mut MergeScratch::new(), None).unwrap();
        assert_eq!(weight_multiset(&r.edges), weight_multiset(&brute_force_emst(&np)));
        // The child is a first-class artifact: restored against its own
        // points, it rebuilds the trees it reused and re-solved bit for
        // bit and merges to the same edges, like any built one.
        let restored = assert_restores_bit_identically(&child, &np);
        assert_eq!(restored.merge(&Serial, &mut MergeScratch::new(), None).unwrap().edges, r.edges);
        // So is a grandchild, whose clean shards carry trees two updates
        // old: delete a few of the parent's points from the child.
        let (np2, parent_of2) = with_deletes(&np, &[5, 90, 211]);
        let (grandchild, report) = child
            .apply_update(&Serial, &np, &np2, &parent_of2, &ShardConfig::new(6), &mut scratch, None)
            .unwrap();
        assert!(!report.full_rebuild && report.reused_shards > 0);
        assert_restores_bit_identically(&grandchild, &np2);
    }

    #[test]
    fn incremental_delete_matches_from_scratch() {
        let pts = random_points_2d(300, 37);
        let parent = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(5));
        // Delete a handful of spatially close members (all from one shard)
        // plus one arbitrary id.
        let victim_shard: Vec<u32> =
            parent.plan().shard_indices(2).iter().take(3).copied().collect();
        let mut del = victim_shard;
        del.push(7);
        let (np, parent_of) = with_deletes(&pts, &del);
        let mut scratch = BoruvkaScratch::new();
        let (child, report) = parent
            .apply_update(&Serial, &pts, &np, &parent_of, &ShardConfig::new(5), &mut scratch, None)
            .unwrap();
        assert!(!report.full_rebuild);
        assert!(!report.dirty_shards.is_empty() && report.reused_shards > 0);
        let r = child.merge(&Serial, &mut MergeScratch::new(), None).unwrap();
        assert_eq!(r.edges.len(), np.len() - 1);
        assert_eq!(weight_multiset(&r.edges), weight_multiset(&brute_force_emst(&np)));
        // A delete child restores against its own points bit for bit.
        assert_restores_bit_identically(&child, &np);
    }

    /// An insert child's bounds answer round 1 like a build's: its first
    /// merge fires no round-1 query, the candidates found through the
    /// inherited clean columns equal those of bounds computed afresh over
    /// the same shards, and the answer matches brute force and a
    /// from-scratch build.
    #[test]
    fn insert_child_first_merge_fires_no_round_one_query() {
        let pts = random_points_2d(350, 41);
        let cfg = ShardConfig::new(4);
        let parent = ShardArtifacts::build(&Serial, &pts, &cfg);
        let extra = vec![Point::new([0.05f32, -0.4]), Point::new([-0.6f32, 0.33])];
        let (np, parent_of) = with_inserts(&pts, &extra);
        let mut scratch = BoruvkaScratch::new();
        let (child, report) =
            parent.apply_update(&Serial, &pts, &np, &parent_of, &cfg, &mut scratch, None).unwrap();
        assert!(!report.full_rebuild && report.reused_shards > 0, "no clean column to inherit");
        let first = child.merge(&Serial, &mut MergeScratch::new(), None).unwrap();
        assert_eq!(first.stats.round_details[0].queries, 0, "round 1 fired a query");
        let views: Vec<MergeShardView<'_, 2>> =
            child.locals.iter().map(|l| l.merge.view()).collect();
        let radius = seed_hints(&child.flat_seeds, np.len());
        let fresh = CrossBounds::compute(&Serial, &views, np.len(), None, Some(&radius));
        assert!(child.bounds.cand_a.iter().any(|&a| a != u32::MAX));
        assert_eq!(child.bounds.cand_a, fresh.cand_a);
        assert_eq!(child.bounds.cand_b, fresh.cand_b);
        let d = |b: &CrossBounds| b.cand_d.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(d(&child.bounds), d(&fresh));
        let rebuilt = ShardArtifacts::build(&Serial, &np, &cfg);
        let rebuilt = rebuilt.merge(&Serial, &mut MergeScratch::new(), None).unwrap();
        assert_eq!(weight_multiset(&first.edges), weight_multiset(&brute_force_emst(&np)));
        assert_eq!(weight_multiset(&first.edges), weight_multiset(&rebuilt.edges));
    }

    #[test]
    fn draining_a_shard_falls_back_to_full_rebuild() {
        let pts = random_points_2d(200, 43);
        let parent = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(4));
        let del: Vec<u32> = parent.plan().shard_indices(1).to_vec();
        assert!(!del.is_empty());
        let (np, parent_of) = with_deletes(&pts, &del);
        let mut scratch = BoruvkaScratch::new();
        let (child, report) = parent
            .apply_update(&Serial, &pts, &np, &parent_of, &ShardConfig::new(4), &mut scratch, None)
            .unwrap();
        assert!(report.full_rebuild);
        assert_eq!(report.reused_shards, 0);
        let r = child.merge(&Serial, &mut MergeScratch::new(), None).unwrap();
        assert_eq!(weight_multiset(&r.edges), weight_multiset(&brute_force_emst(&np)));
    }

    #[test]
    fn expired_deadline_aborts_update_and_leaves_parent_reusable() {
        let pts = random_points_2d(250, 47);
        let parent = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(4));
        let (np, parent_of) = with_inserts(&pts, &[Point::new([0.1f32, 0.1])]);
        let mut scratch = BoruvkaScratch::new();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = parent.apply_update(
            &Serial,
            &pts,
            &np,
            &parent_of,
            &ShardConfig::new(4),
            &mut scratch,
            Some(past),
        );
        assert!(matches!(err, Err(MergeDeadlineExceeded)));
        // The parent is untouched and a generous deadline succeeds.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let (child, _) = parent
            .apply_update(
                &Serial,
                &pts,
                &np,
                &parent_of,
                &ShardConfig::new(4),
                &mut scratch,
                Some(far),
            )
            .unwrap();
        let r = child.merge(&Serial, &mut MergeScratch::new(), None).unwrap();
        assert_eq!(weight_multiset(&r.edges), weight_multiset(&brute_force_emst(&np)));
        assert_eq!(
            parent.merge(&Serial, &mut MergeScratch::new(), None).unwrap().edges.len(),
            pts.len() - 1
        );
    }

    #[test]
    fn solved_shards_keep_the_tree_a_fresh_build_makes() {
        fn check<S: ExecSpace>(space: &S, pts: &[Point<2>], ids: &[u32]) {
            let (kept, seeds, iterations, _) =
                solve_local(space, pts, ids, &mut BoruvkaScratch::new());
            let fresh = MergeShard::build(space, pts, ids);
            assert_eq!(
                tree_bits(&kept.bvh),
                tree_bits(&fresh.bvh),
                "the solver's tree is the merge tree"
            );
            assert_eq!(kept.vertex_of_rank, fresh.vertex_of_rank);
            assert_eq!(seeds.len(), pts.len() - 1);
            assert!(iterations > 0);
        }
        let pts = random_points_2d(700, 41);
        let ids: Vec<u32> = (0..pts.len() as u32).map(|i| 3 * i + 1).collect();
        check(&Serial, &pts, &ids);
        check(&Threads, &pts, &ids);
        // A one-point shard solves nothing and still gets its tree.
        let (one, seeds, iterations, work) =
            solve_local(&Serial, &pts[..1], &ids[..1], &mut BoruvkaScratch::new());
        assert_eq!(one.vertex_of_rank, vec![ids[0]]);
        assert!(seeds.is_empty());
        assert_eq!((iterations, work), (0, CounterSnapshot::default()));
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let pts = random_points_2d(300, 17);
        let artifacts = ShardArtifacts::build(&Serial, &pts, &ShardConfig::new(5));
        let queries = random_points_2d(20, 18);
        let mut stats = TraversalStats::default();
        for q in &queries {
            for k in [1usize, 4, 9] {
                let got = artifacts.k_nearest(q, k, &mut stats);
                let mut expect: Vec<(u32, Scalar)> = pts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i as u32, q.squared_distance(p)))
                    .collect();
                expect.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                expect.truncate(k);
                assert_eq!(got, expect, "k={k}");
            }
        }
        assert!(stats.nodes > 0);
    }
}
