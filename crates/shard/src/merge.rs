//! The cross-shard Borůvka merge.
//!
//! Given a set of resident shards (each a BVH over its points) plus a list
//! of *seed* candidate edges, this engine computes the exact minimum
//! spanning tree of the graph
//!
//! ```text
//! H  =  seeds  ∪  { every edge between points of different shards }
//! ```
//!
//! by Borůvka rounds from singleton components. Each round, a component's
//! shortest outgoing edge is the minimum — under the strict total order
//! `(weight, min endpoint, max endpoint)` — of
//!
//! - the seed edges leaving it (scanned directly), and
//! - its shortest cross-shard edge, found by one constrained
//!   nearest-neighbour traversal per point against every *other* shard's
//!   BVH (the same [`Bvh::nearest_floor`] kernel as the monolithic
//!   algorithm, with the component-skip predicate of the paper's
//!   Optimization 1 maintained per shard by [`reduce_labels`]).
//!
//! Why this is exact for the sharded EMST: by the cycle property, an
//! intra-shard edge discarded by that shard's local MST is the heaviest
//! edge of an intra-shard cycle and therefore in no MST of the full point
//! set; so `MST(complete graph) ⊆ (local MST edges) ∪ (cross-shard
//! edges) = H`, and `MST(H) = MST(complete graph)`. Seeding with the local
//! MST edges also gives every interior point a tight traversal radius, so
//! cross-shard queries are root-pruned everywhere except near shard
//! boundaries — the "boundary region" of the queries emerges from the
//! radius bound rather than from an explicit margin.
//!
//! The per-point query tracks its best candidate under the *global* edge
//! order inside the leaf callback (the traversal's own tie-breaking is by
//! Morton rank within one shard, which is meaningless across shards), so
//! every component selects the true total-order minimum and the merged
//! edge set is the unique MST of `H` — no cycle can form, and the
//! union–find merge step never has to discard a chosen edge.
//!
//! # Why warm repeat queries are cheap
//!
//! A naive round fires `n · (K−1)` traversals; this engine prunes almost
//! all of them with four facts that only ever *strengthen* as components
//! merge, so every skip is provably work the walker would have discarded:
//!
//! - **Entry bounds** ([`CrossBounds`], cached in the artifacts): a
//!   per-`(vertex, shard)` lower bound on the cross distance — skip the
//!   shard while the component radius is below it, with one compare.
//! - **Round 1, answered at build time**: the cached bounds also hold each
//!   vertex's minimum cross-shard edge within its round-1 radius (its
//!   lightest seed edge), found by the same radius-capped probes that
//!   sharpen the entry bounds. In round 1 every component is a singleton,
//!   so that edge and every probe's floor are pure geometry, the same for
//!   every merge of the cloud; the merge starts from them and its first
//!   round fires no query.
//! - **Durable floors**: a query that accepts nothing raises that bound to
//!   the walker's radius-pruned frontier minimum
//!   (`TraversalStats::pruned_min_sq`) — every abandoned leaf lies beyond
//!   it, and every label-skipped leaf is same-component *forever* — so a
//!   provably-empty query is never repeated.
//! - **Persistent candidates**: a found candidate that is still
//!   cross-component is still its vertex's minimum outgoing cross edge
//!   (the candidate set only shrinks), so the vertex skips querying
//!   entirely; the stored edge is re-offered to both sides each round.
//!
//! Only ranks whose vertex changed component re-reduce their node-label
//! path (full parallel reduction when at least half a shard changed), and
//! the union/winner bookkeeping walks the representative list, not all of
//! `n`. None of this changes a single selected edge — the serving tests
//! assert warm answers bit-identical to cold solves across backends.

use std::sync::atomic::AtomicU32;

use emst_bvh::{Bvh, TraversalStats};
use emst_core::labels::{reduce_labels, INVALID_LABEL};
use emst_core::{Edge, UnionFind};
use emst_exec::atomic::{pack_dist_payload, unpack_dist_payload};
use emst_exec::{AtomicU64Min, Counters, ExecSpace, PhaseTimings, SyncUnsafeSlice};
use emst_geometry::{nonneg_f32_to_ordered_bits, Point, Scalar};

/// A merge gave up because its per-query deadline passed.
///
/// Raised only at round boundaries — a round that has started runs to
/// completion, so the partially-built working state (scratch, labels, DSU)
/// is internally consistent and simply discarded; nothing observable leaks
/// into the caller's caches. The serving layer maps this to
/// `ServeError::DeadlineExceeded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeDeadlineExceeded;

impl std::fmt::Display for MergeDeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("merge deadline exceeded at a round boundary")
    }
}

impl std::error::Error for MergeDeadlineExceeded {}

/// A shard resident in memory for the merge: its BVH plus the caller's
/// vertex id for every Morton rank. Vertex ids must be unique across all
/// shards and contiguous in `0..n_vertices`.
pub(crate) struct MergeShard<const D: usize> {
    pub bvh: Bvh<D>,
    pub vertex_of_rank: Vec<u32>,
}

impl<const D: usize> MergeShard<D> {
    /// Builds a resident shard from points and their vertex ids (parallel
    /// arrays; `vertices[i]` is the id of `points[i]`).
    pub fn build<S: ExecSpace>(space: &S, points: &[Point<D>], vertices: &[u32]) -> Self {
        debug_assert_eq!(points.len(), vertices.len());
        Self::from_bvh(Bvh::build(space, points), vertices)
    }

    /// A resident shard over an already built `bvh` (`vertices[i]` is the
    /// id of the tree's input point `i`).
    pub fn from_bvh(bvh: Bvh<D>, vertices: &[u32]) -> Self {
        debug_assert_eq!(bvh.num_leaves(), vertices.len());
        let vertex_of_rank =
            (0..bvh.num_leaves() as u32).map(|r| vertices[bvh.point_index(r) as usize]).collect();
        Self { bvh, vertex_of_rank }
    }

    /// Borrowed view of this shard for a merge run.
    pub fn view(&self) -> MergeShardView<'_, D> {
        MergeShardView { bvh: &self.bvh, vertex_of_rank: &self.vertex_of_rank }
    }
}

/// A borrowed shard handed to [`cross_shard_boruvka`]. The merge never
/// mutates a shard, so cached shards (the serving layer's resident
/// artifacts) can be lent to any number of sequential merges — possibly
/// with a *fresh* `vertex_of_rank` when the same BVH serves a query whose
/// vertex numbering differs (subset queries renumber to `0..m`).
pub(crate) struct MergeShardView<'a, const D: usize> {
    pub bvh: &'a Bvh<D>,
    pub vertex_of_rank: &'a [u32],
}

/// Outcome of a merge.
pub(crate) struct MergeOutcome {
    /// The `n_vertices − 1` MST edges of `H`, in vertex ids.
    pub edges: Vec<Edge>,
    /// Borůvka rounds executed.
    pub rounds: u32,
    /// Cross-shard queries that actually tested at least one leaf (i.e.
    /// were not pruned at the other shard's root) — the effective boundary
    /// candidate count.
    pub boundary_candidates: u64,
    /// Per-round breakdown, in execution order (one entry per round).
    pub round_details: Vec<MergeRoundDetail>,
}

/// The work profile of one cross-shard Borůvka round: wall-clock time of
/// the whole round (labels + seeds + query + select + union) plus the
/// query phase's traversal deltas. Always collected — a merge runs a
/// handful of rounds, so the record is a few hundred bytes — and surfaced
/// through `ShardStats::round_details` so the serving layer's per-query
/// traces can show where a warm merge spent its time.
#[derive(Clone, Copy, Debug)]
pub struct MergeRoundDetail {
    /// 1-based round number.
    pub round: u32,
    /// Wall-clock seconds of the round.
    pub secs: f64,
    /// Cross-shard nearest-neighbour queries actually fired this round
    /// (after the reach/candidate skips).
    pub queries: u64,
    /// Queries that tested at least one leaf (boundary candidates).
    pub boundary: u64,
    /// Merged traversal statistics of the round's query phase.
    pub stats: TraversalStats,
}

/// Per-query accumulation for the reduction: traversal work plus the count
/// of queries that reached a leaf.
#[derive(Clone, Copy, Default)]
struct QueryWork {
    stats: TraversalStats,
    queries: u64,
    boundary: u64,
}

impl QueryWork {
    fn combine(a: Self, b: Self) -> Self {
        Self {
            stats: a.stats.merged(b.stats),
            queries: a.queries + b.queries,
            boundary: a.boundary + b.boundary,
        }
    }
}

/// Label-independent per-cloud state the merge consumes: vertex → (shard,
/// Morton rank) maps, the pristine per-`(vertex, shard)` entry bounds and,
/// when computed with round-1 radii, round 1's answers. A pure function of
/// the shard geometry (and the seeds that set those radii), so
/// [`crate::ShardArtifacts`] computes it once at build time and every
/// merge starts from a memcpy instead of recomputing `n·K` box distances
/// and re-running round 1's queries.
///
/// The bound is the min distance to the other shard's depth-4 node
/// frontier (≤ 16 boxes) rather than its scene box: Morton-range scene
/// boxes overlap heavily, so the scene distance alone lets shallow no-op
/// entries through, while every leaf lies inside some frontier box (a
/// leaf's point distance is termwise >= a containing box's clamped
/// distance, and the walker prunes strictly beyond the radius) and so
/// can never be closer than this bound.
pub(crate) struct CrossBounds {
    /// Owning shard per vertex id.
    pub shard_of: Vec<u32>,
    /// Morton rank inside the owning shard per vertex id.
    pub rank_of: Vec<u32>,
    /// `cross_dist[v * K + s]`: lower bound on `v`'s distance to any point
    /// of shard `s` (`+inf` at `s == home`).
    pub cross_dist: Vec<Scalar>,
    /// Per-vertex min of `cross_dist` over the other shards.
    pub reach: Vec<Scalar>,
    /// Round 1's answers, in vertex order: one entry per vertex whose
    /// minimum outgoing cross-shard edge lies within its round-1 radius
    /// (about 1% of vertices on clustered clouds).
    pub cands: Vec<Candidate>,
}

/// A vertex's round-1 candidate: its minimum outgoing cross-shard edge
/// `(a, b)`, `a < b`, of squared weight `weight`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Candidate {
    pub vertex: u32,
    pub weight: Scalar,
    pub a: u32,
    pub b: u32,
}

/// A mutated cloud's parent facts for [`CrossBounds::compute`]:
/// `parent_of[v]` is child vertex `v`'s parent id (`u32::MAX` for an
/// inserted point) and `dirty[s]` marks the local columns whose shard's
/// point set changed.
#[derive(Clone, Copy)]
pub(crate) struct Inherit<'a> {
    pub bounds: &'a CrossBounds,
    pub parent_of: &'a [u32],
    pub dirty: &'a [bool],
}

/// Collects the depth-4 node frontier of every shard's BVH (≤ 16 boxes
/// each) — the geometry the pristine entry bounds are measured against.
fn frontiers<const D: usize>(shards: &[MergeShardView<'_, D>]) -> Vec<Vec<u32>> {
    fn gather<const D: usize>(bvh: &Bvh<D>, node: u32, depth: u32, out: &mut Vec<u32>) {
        if depth == 0 || bvh.is_leaf(node) {
            out.push(node);
        } else {
            gather(bvh, bvh.left_child(node), depth - 1, out);
            gather(bvh, bvh.right_child(node), depth - 1, out);
        }
    }
    shards
        .iter()
        .map(|shard| {
            let mut frontier = vec![];
            gather(shard.bvh, shard.bvh.root(), 4, &mut frontier);
            frontier
        })
        .collect()
}

/// Each vertex's round-1 merge radius: its min incident seed weight
/// (`+inf` for a vertex no seed touches).
pub(crate) fn seed_hints(seeds: &[Edge], n_vertices: usize) -> Vec<Scalar> {
    let mut hint = vec![Scalar::INFINITY; n_vertices];
    for e in seeds {
        hint[e.u as usize] = hint[e.u as usize].min(e.weight_sq);
        hint[e.v as usize] = hint[e.v as usize].min(e.weight_sq);
    }
    hint
}

/// The best cross edge seen so far from one vertex: its `(ordered weight
/// bits, min endpoint, max endpoint)` key — the merge's global edge order
/// — and its squared weight.
type BestEdge = Option<((u32, u32, u32), Scalar)>;

/// A radius-capped nearest probe from vertex `v` at `q` into `shard`:
/// returns the exact nearest-point distance when one lies within `radius`,
/// else the walker's pruned floor — either way a lower bound on `v`'s
/// distance to every point of `shard` — and folds every point it accepts
/// into `best`, the way the merge's query phase tracks its candidate.
fn probe<const D: usize>(
    shard: &MergeShardView<'_, D>,
    q: &Point<D>,
    v: u32,
    radius: Scalar,
    best: &mut BestEdge,
) -> Scalar {
    let mut st = TraversalStats::default();
    let vor = shard.vertex_of_rank;
    let hit = shard.bvh.nearest_floor(
        q,
        radius,
        |_| false,
        |rank, e| {
            let x = vor[rank as usize];
            let key = (nonneg_f32_to_ordered_bits(e), v.min(x), v.max(x));
            if best.is_none_or(|(b, _)| key < b) {
                *best = Some((key, e));
            }
            Some(e)
        },
        &mut st,
    );
    match hit {
        Some(h) => h.dist_sq,
        None => st.pruned_min_sq,
    }
}

impl CrossBounds {
    /// Derives the vertex → (shard, rank) maps from the rank maps.
    pub(crate) fn maps<const D: usize>(
        shards: &[MergeShardView<'_, D>],
        n_vertices: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut shard_of = vec![0u32; n_vertices];
        let mut rank_of = vec![0u32; n_vertices];
        for (s, shard) in shards.iter().enumerate() {
            for (rank, &v) in shard.vertex_of_rank.iter().enumerate() {
                shard_of[v as usize] = s as u32;
                rank_of[v as usize] = rank as u32;
            }
        }
        (shard_of, rank_of)
    }

    /// Computes the maps and pristine bounds for `shards`.
    ///
    /// `radius` (per vertex id) runs the merge's round 1 here, once:
    /// wherever a vertex's bound falls at or below its radius — i.e.
    /// wherever round 1 would otherwise fire a query — a nearest probe
    /// capped at that radius replaces the bound with the exact
    /// nearest-point distance, or with the probe's own pruned floor when
    /// nothing lies within it, and the lightest cross edge any probe of
    /// the vertex accepts (under the `(weight, min, max)` order) becomes
    /// its candidate. Callers pass each vertex's min incident seed weight,
    /// which is its round-1 radius. In round 1 every component is a
    /// singleton, so no same-component skip can fire: each probe's floor
    /// is a fact about the point set alone and the candidate is the
    /// vertex's global minimum cross-shard edge, exactly what round 1 of
    /// any merge over these shards would derive. Every shard is probed at
    /// the full radius (the merge's own loop shrinks it as candidates
    /// appear), which leaves the stronger floors. Without `radius` no
    /// vertex has a candidate and the merge runs round 1 itself.
    ///
    /// `inherit` carries a *mutated* cloud's still-valid parent facts, so
    /// only what the mutation invalidated is recomputed. An entry `(v, s)`
    /// is a lower bound on `v`'s distance to shard `s`'s points — a pure
    /// function of `v`'s position and `s`'s geometry — so for a surviving
    /// vertex (position unchanged) and a clean shard (point set unchanged)
    /// the parent entry still holds, and stands in for the frontier bound
    /// before the probe. Dirty columns and inserted vertices' full rows
    /// start from the frontier bound as without `inherit`. Candidates are
    /// never inherited (a parent candidate may name a deleted point); the
    /// probes find the child's.
    pub fn compute<S: ExecSpace, const D: usize>(
        space: &S,
        shards: &[MergeShardView<'_, D>],
        n_vertices: usize,
        inherit: Option<Inherit<'_>>,
        radius: Option<&[Scalar]>,
    ) -> Self {
        let stride = shards.len();
        if let Some(i) = &inherit {
            debug_assert_eq!(i.parent_of.len(), n_vertices);
            debug_assert_eq!(i.dirty.len(), stride);
            debug_assert_eq!(i.bounds.cross_dist.len() % stride.max(1), 0, "parent stride differs");
        }
        let (shard_of, rank_of) = Self::maps(shards, n_vertices);
        let frontiers = frontiers(shards);
        let mut reach = vec![Scalar::INFINITY; n_vertices];
        let mut cross_dist = vec![Scalar::INFINITY; n_vertices * stride];
        let mut found: Vec<Option<Candidate>> = vec![None; n_vertices];
        {
            let reach_s = SyncUnsafeSlice::new(reach.as_mut_slice());
            let cross_s = SyncUnsafeSlice::new(cross_dist.as_mut_slice());
            let found_s = SyncUnsafeSlice::new(found.as_mut_slice());
            let (shard_of, rank_of, frontiers) = (&shard_of, &rank_of, &frontiers);
            space.parallel_for(n_vertices, |v| {
                let home = shard_of[v] as usize;
                let q = shards[home].bvh.leaf_point(rank_of[v]);
                // A surviving vertex's parent row; inserted vertices have none.
                let parent_row = inherit
                    .filter(|i| i.parent_of[v] != u32::MAX)
                    .map(|i| (i, i.parent_of[v] as usize * stride));
                let mut best: BestEdge = None;
                let mut r = Scalar::INFINITY;
                for (s, shard) in shards.iter().enumerate() {
                    let mut d = match parent_row {
                        _ if s == home => Scalar::INFINITY,
                        Some((i, row)) if !i.dirty[s] => i.bounds.cross_dist[row + s],
                        _ => frontiers[s]
                            .iter()
                            .map(|&id| shard.bvh.node_distance_sq(id, q))
                            .fold(Scalar::INFINITY, Scalar::min),
                    };
                    if let Some(radius) = radius.map(|h| h[v]).filter(|&h| s != home && d <= h) {
                        d = d.max(probe(shard, q, v as u32, radius, &mut best));
                    }
                    // SAFETY: one writer per slot.
                    unsafe { cross_s.write(v * stride + s, d) };
                    r = r.min(d);
                }
                // SAFETY: one writer per slot.
                unsafe { reach_s.write(v, r) };
                if let Some(((_, a, b), weight)) = best {
                    // SAFETY: one writer per slot.
                    unsafe { found_s.write(v, Some(Candidate { vertex: v as u32, weight, a, b })) };
                }
            });
        }
        let cands = found.iter().flatten().copied().collect();
        Self { shard_of, rank_of, cross_dist, reach, cands }
    }

    /// Heap bytes the bounds hold resident.
    pub fn resident_bytes(&self) -> usize {
        (self.shard_of.len() + self.rank_of.len()) * std::mem::size_of::<u32>()
            + (self.cross_dist.len() + self.reach.len()) * std::mem::size_of::<Scalar>()
            + self.cands.len() * std::mem::size_of::<Candidate>()
    }
}

/// Reusable allocation pool of the cross-shard merge: every per-merge
/// array, sized on first use and recycled across calls. A long-lived
/// server (`emst_serve`) keeps one per resident cloud so warm repeat
/// queries allocate nothing.
#[derive(Default)]
pub struct MergeScratch {
    reach: Vec<Scalar>,
    cross_dist: Vec<Scalar>,
    rank_labels: Vec<Vec<u32>>,
    node_labels: Vec<Vec<u32>>,
    flags: Vec<Vec<AtomicU32>>,
    labels: Vec<u32>,
    dsu: UnionFind,
    comp_key: Vec<AtomicU64Min>,
    comp_pair: Vec<AtomicU64Min>,
    upper: Vec<Scalar>,
    cand_w: Vec<Scalar>,
    cand_lo: Vec<u32>,
    cand_hi: Vec<u32>,
    min_of_root: Vec<u32>,
    relabel: Vec<u32>,
    reps: Vec<u32>,
    changed_ranks: Vec<Vec<u32>>,
    live_seeds: Vec<Edge>,
}

impl MergeScratch {
    /// An empty pool; arrays are sized by the first merge that uses it.
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)sizes and resets everything a merge over `shards` needs.
    fn ensure<const D: usize>(&mut self, shards: &[MergeShardView<'_, D>], n_vertices: usize) {
        let n = n_vertices;
        self.labels.clear();
        self.labels.extend(0..n as u32);
        self.reps.clear();
        self.reps.extend(0..n as u32);
        self.relabel.resize(n, u32::MAX);
        // Every merge round resets the root slots it touched, so a reused
        // pool is already all-MAX; only a (re)size needs the fill.
        if self.min_of_root.len() != n {
            self.min_of_root.clear();
            self.min_of_root.resize(n, u32::MAX);
        }
        self.upper.resize(n, Scalar::INFINITY);
        if self.comp_key.len() < n {
            self.comp_key.resize_with(n, AtomicU64Min::new_max);
            self.comp_pair.resize_with(n, AtomicU64Min::new_max);
        }
        self.dsu.reset(n);
        self.rank_labels.resize_with(shards.len(), Vec::new);
        self.node_labels.resize_with(shards.len(), Vec::new);
        self.flags.resize_with(shards.len(), Vec::new);
        self.changed_ranks.resize_with(shards.len(), Vec::new);
        for (s, shard) in shards.iter().enumerate() {
            let ns = shard.bvh.num_leaves();
            self.rank_labels[s].resize(ns, 0);
            self.node_labels[s].resize(shard.bvh.num_nodes(), INVALID_LABEL);
            self.flags[s].truncate(shard.bvh.num_internal());
            self.flags[s].resize_with(shard.bvh.num_internal(), || AtomicU32::new(0));
            self.changed_ranks[s].clear();
        }
        self.live_seeds.clear();
    }
}

/// Runs the cross-shard Borůvka merge over `shards` (all non-empty) with
/// candidate `seeds`, returning the MST of `H` (see module docs).
///
/// `bounds` carries the precomputed [`CrossBounds`] when the caller has
/// them cached (the resident-artifact paths); `None` recomputes them here,
/// without round-1 answers. The merge starts its working floors and
/// candidates from the bounds, so cached bounds that carry round 1's
/// answers let round 1 fire no query; the selected edges are bit-identical
/// either way (every skip is provably work the walker would have
/// discarded). `scratch` is the caller's allocation pool — reused across
/// calls, never carrying semantic state between them.
///
/// Panics if `H` is disconnected, which cannot happen for the two callers:
/// local-MST seeds connect each shard internally and the cross-shard edge
/// set connects the shards to each other (any two shards induce a complete
/// bipartite graph).
#[allow(clippy::too_many_arguments)]
pub(crate) fn cross_shard_boruvka<S: ExecSpace, const D: usize>(
    space: &S,
    shards: &[MergeShardView<'_, D>],
    n_vertices: usize,
    seeds: &[Edge],
    counters: &Counters,
    timings: &mut PhaseTimings,
    bounds: Option<&CrossBounds>,
    deadline: Option<std::time::Instant>,
    scratch: &mut MergeScratch,
) -> Result<MergeOutcome, MergeDeadlineExceeded> {
    debug_assert!(shards.iter().all(|s| s.bvh.num_leaves() > 0));
    debug_assert_eq!(
        shards.iter().map(|s| s.bvh.num_leaves()).sum::<usize>(),
        n_vertices,
        "shards must partition the vertex set"
    );
    if n_vertices < 2 {
        return Ok(MergeOutcome {
            edges: vec![],
            rounds: 0,
            boundary_candidates: 0,
            round_details: vec![],
        });
    }

    let stride = shards.len();
    scratch.ensure(shards, n_vertices);
    let computed;
    let bounds = match bounds {
        Some(b) => b,
        None => {
            computed = CrossBounds::compute(space, shards, n_vertices, None, None);
            &computed
        }
    };
    let MergeScratch {
        reach,
        cross_dist,
        rank_labels,
        node_labels,
        flags,
        labels,
        dsu,
        comp_key,
        comp_pair,
        upper,
        cand_w,
        cand_lo,
        cand_hi,
        min_of_root,
        relabel,
        reps,
        changed_ranks,
        live_seeds,
    } = scratch;
    // Working copies: the query rounds tighten `cross_dist`/`reach` with
    // durable floors learned from failed queries and replace candidates as
    // components merge, so the cached bounds stay untouched. Each vertex's
    // candidate is dense here (`cand_lo[v] == u32::MAX`: none yet), filled
    // from round 1's sparse answers.
    let (shard_of, rank_of) = (&bounds.shard_of, &bounds.rank_of);
    debug_assert_eq!(bounds.cross_dist.len(), n_vertices * stride, "bounds for another sharding");
    reach.clone_from(&bounds.reach);
    cross_dist.clone_from(&bounds.cross_dist);
    cand_w.clear();
    cand_w.resize(n_vertices, Scalar::INFINITY);
    cand_lo.clear();
    cand_lo.resize(n_vertices, u32::MAX);
    cand_hi.clear();
    cand_hi.resize(n_vertices, u32::MAX);
    for c in &bounds.cands {
        let v = c.vertex as usize;
        (cand_w[v], cand_lo[v], cand_hi[v]) = (c.weight, c.a, c.b);
    }
    live_seeds.extend_from_slice(seeds);

    let mut edges: Vec<Edge> = Vec::with_capacity(n_vertices - 1);
    let mut rounds = 0u32;
    let mut boundary_candidates = 0u64;
    let mut round_details: Vec<MergeRoundDetail> = vec![];
    let mut num_components = n_vertices;

    while num_components > 1 {
        let round_start = std::time::Instant::now();
        // The deadline is honoured at round granularity: a check here keeps
        // the hot inner kernels free of clock reads, and a round that has
        // begun always completes, so giving up never leaves the scratch in a
        // half-written state.
        if let Some(d) = deadline {
            if round_start >= d {
                return Err(MergeDeadlineExceeded);
            }
        }
        rounds += 1;
        assert!(
            rounds as usize <= usize::BITS as usize * 2,
            "cross-shard merge failed to converge"
        );

        // Phase 1: refresh node labels so traversals can skip subtrees
        // fully inside the query's component. Only ranks whose vertex
        // changed component last round need work: when many changed, the
        // full parallel reduction is cheapest; when few did (late rounds),
        // each changed leaf climbs toward the root recombining its
        // ancestors from their (current) children and stops at the first
        // unchanged node — exact either way, O(changes · height) instead
        // of O(nodes).
        timings.time("merge.labels", || {
            for (s, shard) in shards.iter().enumerate() {
                let bvh = shard.bvh;
                let ns = bvh.num_leaves();
                let changed = &mut changed_ranks[s];
                // Round 1 starts from a clean pool: everything needs its
                // first reduction regardless of the (empty) change list.
                let full = rounds == 1 || changed.len() >= ns / 2;
                if !full && changed.is_empty() {
                    continue;
                }
                if full {
                    {
                        let out = SyncUnsafeSlice::new(rank_labels[s].as_mut_slice());
                        let labels = &labels;
                        let vertex_of_rank = &shard.vertex_of_rank;
                        space.parallel_for(ns, |r| {
                            // SAFETY: one writer per slot, read after the
                            // kernel.
                            unsafe { out.write(r, labels[vertex_of_rank[r] as usize]) };
                        });
                    }
                    reduce_labels(space, bvh, &rank_labels[s], &mut node_labels[s], &flags[s]);
                    counters.add_bytes(bvh.num_nodes() as u64 * 8);
                } else {
                    let nl = &mut node_labels[s];
                    for &rank in changed.iter() {
                        let label = labels[shard.vertex_of_rank[rank as usize] as usize];
                        rank_labels[s][rank as usize] = label;
                        let leaf = bvh.leaf_id(rank);
                        nl[leaf as usize] = label;
                        if ns == 1 {
                            continue;
                        }
                        let mut node = bvh.parent(leaf);
                        while node != emst_bvh::INVALID_NODE {
                            let l = nl[bvh.left_child(node) as usize];
                            let r = nl[bvh.right_child(node) as usize];
                            let combined = if l == r { l } else { INVALID_LABEL };
                            if nl[node as usize] == combined {
                                break;
                            }
                            nl[node as usize] = combined;
                            node = bvh.parent(node);
                        }
                    }
                    counters.add_bytes(changed.len() as u64 * 8);
                }
                changed.clear();
            }
        });

        // Phase 2: reset per-round component minima and offer the seed
        // edges plus every vertex's still-cross candidate from earlier
        // rounds (the analogue of the paper's Optimization 2 upper bounds:
        // local-MST candidate edges and remembered cross edges in place of
        // Z-curve neighbour pairs). Components therefore enter phase 3 with
        // a tight traversal radius even after their seed edges die off.
        timings.time("merge.seeds", || {
            // Component minima are only ever indexed by canonical labels,
            // so resetting walks the representative list, not all of `n`.
            for &r in reps.iter() {
                comp_key[r as usize].store(u64::MAX);
            }
            let labels = &labels;
            let live_seeds = &live_seeds;
            space.parallel_for(live_seeds.len(), |i| {
                let e = live_seeds[i];
                let (lu, lv) = (labels[e.u as usize], labels[e.v as usize]);
                if lu != lv {
                    let key = pack_dist_payload(e.weight_sq, e.u);
                    comp_key[lu as usize].fetch_min(key);
                    comp_key[lv as usize].fetch_min(key);
                }
            });
            let (cand_w, cand_lo, cand_hi) = (&cand_w, &cand_lo, &cand_hi);
            space.parallel_for(n_vertices, |v| {
                let a = cand_lo[v];
                if a == u32::MAX {
                    return;
                }
                let b = cand_hi[v];
                let (la, lb) = (labels[a as usize], labels[b as usize]);
                if la != lb {
                    let key = pack_dist_payload(cand_w[v], a);
                    comp_key[la as usize].fetch_min(key);
                    comp_key[lb as usize].fetch_min(key);
                }
            });
            for &r in reps.iter() {
                let key = comp_key[r as usize].load();
                upper[r as usize] =
                    if key == u64::MAX { Scalar::INFINITY } else { unpack_dist_payload(key).0 };
            }
        });

        // Phase 3: one constrained nearest-neighbour query per point per
        // *other* shard, tracking the best candidate under the global
        // `(weight, min, max)` order inside the leaf callback.
        let work = timings.time("merge.query", || {
            let labels = &labels;
            let node_labels = &node_labels;
            let upper = &upper;
            let shard_of = &shard_of;
            let rank_of = &rank_of;
            let cand_w_s = SyncUnsafeSlice::new(cand_w.as_mut_slice());
            let cand_lo_s = SyncUnsafeSlice::new(cand_lo.as_mut_slice());
            let cand_hi_s = SyncUnsafeSlice::new(cand_hi.as_mut_slice());
            let reach_s = SyncUnsafeSlice::new(reach.as_mut_slice());
            let cross_s = SyncUnsafeSlice::new(cross_dist.as_mut_slice());
            space.parallel_reduce(
                n_vertices,
                QueryWork::default(),
                |v| {
                    let c = labels[v];
                    // Persistent-candidate skip: a still-cross candidate
                    // from an earlier round is provably still `v`'s minimum
                    // outgoing cross edge — components only merge, so the
                    // candidate set only shrinks, and anything better in
                    // the `(weight, min, max)` order was already
                    // same-component when the candidate was found. It is
                    // offered to both sides in phases 2 and 4, so the fresh
                    // query could only re-find it.
                    // SAFETY: slot `v` is only touched by this thread.
                    let a = unsafe { *cand_lo_s.get(v) };
                    if a != u32::MAX
                        && labels[a as usize] != labels[unsafe { *cand_hi_s.get(v) } as usize]
                    {
                        return QueryWork::default();
                    }
                    // No cross candidate can be accepted below the reach
                    // bound (the walker accepts `dist <= radius` and prunes
                    // strictly beyond), so this skip is exactly the set of
                    // queries that would have been pruned at every root.
                    // SAFETY (all slice accesses below): slot `v` / row
                    // `v * stride ..` is only touched by this thread.
                    if unsafe { *reach_s.get(v) } > upper[c as usize] {
                        return QueryWork::default();
                    }
                    let home = shard_of[v] as usize;
                    let query = shards[home].bvh.leaf_point(rank_of[v]);
                    let mut radius = upper[c as usize];
                    let mut best: Option<(u32, u32, u32)> = None; // (w bits, a, b)
                    let mut best_d = Scalar::INFINITY;
                    let mut work = QueryWork::default();
                    for (s, shard) in shards.iter().enumerate() {
                        if s == home || unsafe { *cross_s.get(v * stride + s) } > radius {
                            continue;
                        }
                        let nl = &node_labels[s];
                        if nl[shard.bvh.root() as usize] == c {
                            // The walker's own root skip, hoisted: the
                            // whole shard is inside `v`'s component — and
                            // will stay there, so the floor is permanent.
                            unsafe { cross_s.write(v * stride + s, Scalar::INFINITY) };
                            continue;
                        }
                        let mut saw_cross = false;
                        let mut st = TraversalStats::default();
                        let vor = &shard.vertex_of_rank;
                        shard.bvh.nearest_floor(
                            query,
                            radius,
                            |node| nl[node as usize] == c,
                            |rank, e| {
                                let x = vor[rank as usize];
                                if labels[x as usize] == c {
                                    return None;
                                }
                                saw_cross = true;
                                let key = (
                                    nonneg_f32_to_ordered_bits(e),
                                    (v as u32).min(x),
                                    (v as u32).max(x),
                                );
                                if best.is_none_or(|b| key < b) {
                                    best = Some(key);
                                    best_d = e;
                                }
                                Some(e)
                            },
                            &mut st,
                        );
                        if !saw_cross {
                            // A failed query is a durable fact: every leaf
                            // of `s` the walker abandoned lies beyond the
                            // radius-pruned frontier, and every leaf it
                            // label-skipped is same-component forever. So
                            // the walker's pruning floor bounds `v`'s
                            // nearest cross point in `s` for all later
                            // rounds — raise the per-shard floor and never
                            // repeat a provably-empty query (`+inf` when
                            // the whole shard is same-component).
                            unsafe { cross_s.write(v * stride + s, st.pruned_min_sq) };
                        }
                        work.queries += 1;
                        work.stats = work.stats.merged(st);
                        if st.leaves > 0 {
                            work.boundary += 1;
                        }
                        radius = radius.min(best_d);
                    }
                    let row_min = (0..stride)
                        .filter(|&s| s != home)
                        .map(|s| unsafe { *cross_s.get(v * stride + s) })
                        .fold(Scalar::INFINITY, Scalar::min);
                    unsafe { reach_s.write(v, row_min) };
                    if let Some((_, a, b)) = best {
                        // SAFETY: one writer per slot `v`.
                        unsafe {
                            cand_w_s.write(v, best_d);
                            cand_lo_s.write(v, a);
                            cand_hi_s.write(v, b);
                        }
                        comp_key[c as usize].fetch_min(pack_dist_payload(best_d, a));
                    }
                    work
                },
                QueryWork::combine,
            )
        });
        boundary_candidates += work.boundary;
        counters.add_queries(work.queries);
        counters.add(&work.stats.work());

        // Phase 4: resolve each component's winner. Among candidates that
        // attain `comp_key = (weight, min endpoint)`, the smallest packed
        // `(min, max)` pair wins — completing the total order.
        timings.time("merge.select", || {
            let labels = &labels;
            let live_seeds = &live_seeds;
            // As with `comp_key`: only canonical labels are indexed.
            for &r in reps.iter() {
                comp_pair[r as usize].store(u64::MAX);
            }
            space.parallel_for(live_seeds.len(), |i| {
                let e = live_seeds[i];
                let (lu, lv) = (labels[e.u as usize], labels[e.v as usize]);
                if lu == lv {
                    return;
                }
                let key = pack_dist_payload(e.weight_sq, e.u);
                let pair = ((e.u as u64) << 32) | e.v as u64;
                if key == comp_key[lu as usize].load() {
                    comp_pair[lu as usize].fetch_min(pair);
                }
                if key == comp_key[lv as usize].load() {
                    comp_pair[lv as usize].fetch_min(pair);
                }
            });
            let (cand_w, cand_lo, cand_hi) = (&cand_w, &cand_lo, &cand_hi);
            space.parallel_for(n_vertices, |v| {
                let a = cand_lo[v];
                if a == u32::MAX {
                    return;
                }
                // Stale (now intra-component) candidates must not compete:
                // a coincidental `(weight, min endpoint)` match would let a
                // dead pair shadow the true winner.
                let b = cand_hi[v];
                let (la, lb) = (labels[a as usize], labels[b as usize]);
                if la == lb {
                    return;
                }
                let key = pack_dist_payload(cand_w[v], a);
                let pair = ((a as u64) << 32) | b as u64;
                if key == comp_key[la as usize].load() {
                    comp_pair[la as usize].fetch_min(pair);
                }
                if key == comp_key[lb as usize].load() {
                    comp_pair[lb as usize].fetch_min(pair);
                }
            });
        });

        // Phase 5: merge along the chosen edges and relabel canonically.
        // Union/bookkeeping walks the representative list — O(components),
        // not O(n) — and only the final relabel scan touches every vertex,
        // collecting the changed ranks that drive next round's incremental
        // label update.
        timings.time("merge.union", || {
            for &r in reps.iter() {
                let v = r as usize;
                let pair = comp_pair[v].load();
                assert_ne!(pair, u64::MAX, "component {v} found no outgoing edge");
                let (a, b) = ((pair >> 32) as u32, pair as u32);
                let w = unpack_dist_payload(comp_key[v].load()).0;
                if dsu.union(a as usize, b as usize) {
                    edges.push(Edge::new(a, b, w));
                }
            }
            // New canonical label of each merged set = the smallest old
            // representative in it (components only grow, so canonical
            // labels only decrease). `min_of_root` is keyed by DSU root,
            // `relabel` by old representative.
            for &r in reps.iter() {
                let root = dsu.find(r as usize);
                min_of_root[root] = min_of_root[root].min(r);
            }
            let mut new_reps = Vec::with_capacity(reps.len() / 2 + 1);
            for &r in reps.iter() {
                let new = min_of_root[dsu.find(r as usize)];
                relabel[r as usize] = new;
                if new == r {
                    new_reps.push(r);
                }
            }
            // Reset only the root slots this round touched.
            for &r in reps.iter() {
                min_of_root[dsu.find(r as usize)] = u32::MAX;
            }
            *reps = new_reps;
            for v in 0..n_vertices {
                let old = labels[v];
                let new = relabel[old as usize];
                if old != new {
                    labels[v] = new;
                    changed_ranks[shard_of[v] as usize].push(rank_of[v]);
                }
            }
            live_seeds.retain(|e| labels[e.u as usize] != labels[e.v as usize]);
            counters.add_bytes(n_vertices as u64 * 12);
        });

        num_components = reps.len();
        round_details.push(MergeRoundDetail {
            round: rounds,
            secs: round_start.elapsed().as_secs_f64(),
            queries: work.queries,
            boundary: work.boundary,
            stats: work.stats,
        });
    }

    assert_eq!(edges.len(), n_vertices - 1, "merge did not produce a spanning tree");
    Ok(MergeOutcome { edges, rounds, boundary_candidates, round_details })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_core::brute::brute_force_emst;
    use emst_core::edge::{verify_spanning_tree, weight_multiset};
    use emst_exec::Serial;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points_2d(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.random_range(-1.0f32..1.0), rng.random_range(-1.0f32..1.0)]))
            .collect()
    }

    /// Two shards, no seeds: the engine computes the spanning tree of the
    /// complete bipartite cross graph, verified against a brute-force
    /// bipartite Borůvka oracle's weight multiset.
    #[test]
    fn bipartite_merge_matches_brute_force() {
        let pts = random_points_2d(60, 5);
        let (a, b) = pts.split_at(25);
        let va: Vec<u32> = (0..25).collect();
        let vb: Vec<u32> = (25..60).collect();
        let shards = [MergeShard::build(&Serial, a, &va), MergeShard::build(&Serial, b, &vb)];
        let views: Vec<_> = shards.iter().map(MergeShard::view).collect();
        let counters = Counters::new();
        let mut timings = PhaseTimings::new();
        let out = cross_shard_boruvka(
            &Serial,
            &views,
            60,
            &[],
            &counters,
            &mut timings,
            None,
            None,
            &mut MergeScratch::new(),
        )
        .unwrap();
        assert_eq!(out.edges.len(), 59);
        verify_spanning_tree(60, &out.edges).unwrap();
        // One detail record per round, rounds numbered from 1, and the
        // per-round boundary counts must sum to the outcome's total.
        assert_eq!(out.round_details.len() as u32, out.rounds);
        assert!(out
            .round_details
            .iter()
            .enumerate()
            .all(|(i, d)| d.round == i as u32 + 1 && d.secs >= 0.0));
        assert_eq!(
            out.round_details.iter().map(|d| d.boundary).sum::<u64>(),
            out.boundary_candidates
        );

        // Oracle: Kruskal over all cross edges only.
        let mut cross: Vec<Edge> = vec![];
        for u in 0..25u32 {
            for v in 25..60u32 {
                cross.push(Edge::new(u, v, pts[u as usize].squared_distance(&pts[v as usize])));
            }
        }
        let g = emst_graph::WeightedGraph::new(60, cross.iter().map(|e| (e.u, e.v, e.weight_sq)));
        let oracle = emst_graph::kruskal(&g);
        assert_eq!(weight_multiset(&out.edges), weight_multiset(&oracle));
    }

    /// One shard plus its local MST as seeds: the merge must reproduce the
    /// EMST exactly (no cross queries are possible).
    #[test]
    fn single_shard_merge_reassembles_local_mst() {
        let pts = random_points_2d(120, 7);
        let vertices: Vec<u32> = (0..120).collect();
        let seeds = brute_force_emst(&pts);
        let shards = [MergeShard::build(&Serial, &pts, &vertices)];
        let views: Vec<_> = shards.iter().map(MergeShard::view).collect();
        let counters = Counters::new();
        let mut timings = PhaseTimings::new();
        let out = cross_shard_boruvka(
            &Serial,
            &views,
            120,
            &seeds,
            &counters,
            &mut timings,
            None,
            None,
            &mut MergeScratch::new(),
        )
        .unwrap();
        verify_spanning_tree(120, &out.edges).unwrap();
        assert_eq!(weight_multiset(&out.edges), weight_multiset(&seeds));
        assert_eq!(out.boundary_candidates, 0);
    }

    /// Bounds computed with round-1 radii carry round 1's answers: every
    /// candidate is its vertex's lightest cross-shard edge within its
    /// radius, a merge started from them fires no round-1 query, and its
    /// edges are bit-identical to a merge over plain frontier bounds,
    /// which runs round 1 itself.
    #[test]
    fn round_one_bounds_hold_candidates_and_merge_bit_identically() {
        let pts = random_points_2d(90, 13);
        let (a, b) = pts.split_at(40);
        let va: Vec<u32> = (0..40).collect();
        let vb: Vec<u32> = (40..90).collect();
        let shards = [MergeShard::build(&Serial, a, &va), MergeShard::build(&Serial, b, &vb)];
        let views: Vec<_> = shards.iter().map(MergeShard::view).collect();
        // Local-MST seeds give every vertex a finite round-1 radius.
        let mut seeds = brute_force_emst(a);
        seeds
            .extend(brute_force_emst(b).iter().map(|e| Edge::new(e.u + 40, e.v + 40, e.weight_sq)));
        let radius = seed_hints(&seeds, 90);
        let plain = CrossBounds::compute(&Serial, &views, 90, None, None);
        let answered = CrossBounds::compute(&Serial, &views, 90, None, Some(&radius));
        assert!(plain.cands.is_empty());
        assert!(!answered.cands.is_empty(), "round 1 must find candidates");
        assert!(answered.cands.windows(2).all(|w| w[0].vertex < w[1].vertex), "vertex order");
        for v in 0..90u32 {
            let home = answered.shard_of[v as usize];
            // Brute force: the lightest cross edge within the radius.
            let lightest = (0..90u32)
                .filter(|&x| answered.shard_of[x as usize] != home)
                .map(|x| (pts[v as usize].squared_distance(&pts[x as usize]), v.min(x), v.max(x)))
                .filter(|&(d, _, _)| d <= radius[v as usize])
                .min_by_key(|&(d, a, b)| (d.to_bits(), a, b));
            let got = answered.cands.iter().find(|c| c.vertex == v);
            let got = got.map(|c| (c.weight.to_bits(), c.a, c.b));
            assert_eq!(got, lightest.map(|(d, a, b)| (d.to_bits(), a, b)), "vertex {v}");
        }
        // The probes only ever sharpen the frontier bounds.
        assert!(answered.cross_dist.iter().zip(&plain.cross_dist).all(|(r, p)| r >= p));

        let counters = Counters::new();
        let mut scratch = MergeScratch::new();
        let mut run = |bounds: &CrossBounds| {
            let mut timings = PhaseTimings::new();
            let seeds = &seeds;
            cross_shard_boruvka(
                &Serial,
                &views,
                90,
                seeds,
                &counters,
                &mut timings,
                Some(bounds),
                None,
                &mut scratch,
            )
            .unwrap()
        };
        let baseline = run(&plain);
        assert!(baseline.round_details[0].queries > 0);
        for _ in 0..2 {
            let answered_run = run(&answered);
            assert_eq!(answered_run.edges, baseline.edges, "round-1 answers must not change bits");
            assert_eq!(answered_run.round_details[0].queries, 0, "round 1 fired a query");
        }
    }

    #[test]
    fn trivial_sizes() {
        let pts = [Point::new([0.0f32, 0.0])];
        let shards = [MergeShard::build(&Serial, &pts, &[0])];
        let views: Vec<_> = shards.iter().map(MergeShard::view).collect();
        let counters = Counters::new();
        let mut timings = PhaseTimings::new();
        let out = cross_shard_boruvka(
            &Serial,
            &views,
            1,
            &[],
            &counters,
            &mut timings,
            None,
            None,
            &mut MergeScratch::new(),
        )
        .unwrap();
        assert!(out.edges.is_empty());
        assert_eq!(out.rounds, 0);
    }
}
