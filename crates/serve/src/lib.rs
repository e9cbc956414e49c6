//! Long-lived EMST serving — resident shard artifacts behind a keyed cache.
//!
//! Every other entry point in this workspace is a *batch* solve: points in,
//! tree out, state gone. A service answering heavy repeated traffic wants
//! the opposite: ingest a cloud **once**, keep its expensive intermediate
//! state resident, and answer each query with only query-proportional work.
//! [`ServeEngine`] is that engine. Per resident cloud it holds exactly the
//! state the sharded solver would otherwise rebuild per call —
//!
//! - the Morton-range [`emst_shard::ShardPlan`],
//! - every shard's BVH (with its 4-wide rope-linked collapse) and local
//!   MST, and the cross-shard merge's entry bounds with round 1's answers,
//!   bundled as [`emst_shard::ShardArtifacts`] —
//!
//! keyed by [`CloudKey`]: the **content digest** of the points paired with
//! the shard count (see [`spill`] for the keying scheme). Admission is
//! bounded by [`ServeConfig::max_resident`]; over budget, the
//! least-recently-used cloud is **evicted to the sharded spill-file
//! format** and can be transparently reloaded (and rebuilt — the build is
//! deterministic, so reloaded answers are bit-identical) on its next query.
//!
//! Queries against a resident cloud skip the local phase entirely:
//!
//! - [`ServeEngine::emst`] re-runs only the cross-shard merge (the
//!   response's [`QueryResponse::build_work`] is zero on a hit, and its
//!   `query_work` shows merge-only traversal stats);
//! - [`ServeEngine::emst_subset`] re-merges only the touched shards,
//!   re-solving just the partially-covered ones
//!   ([`emst_shard::ShardArtifacts::merge_subset`]);
//! - [`ServeEngine::k_nearest`] answers from the resident per-shard BVHs;
//! - [`ServeEngine::hdbscan`] reuses a warm scratch pool via
//!   [`emst_hdbscan::Hdbscan::fit_scratch`].
//!
//! # The execution API
//!
//! Every verb — the four queries, cloud loading, stats, and the mutation
//! pair — is one [`ServeRequest`] executed by [`ServeEngine::execute`],
//! which applies the guard surface (admission control, per-query
//! deadline, panic isolation) uniformly. The named methods ([`emst`],
//! [`emst_by_key`], …) are thin wrappers that build the request and
//! unwrap the matching [`ServeResponse`] arm. The wire protocol has one
//! parser, [`net::respond`], which dispatches through the same `execute`
//! and serves both TCP connections and the `emst-cli serve` stdin
//! session, so in-process, stdin and network traffic are one code path.
//!
//! [`emst`]: ServeEngine::emst
//! [`emst_by_key`]: ServeEngine::emst_by_key
//!
//! # Incremental updates
//!
//! [`ServeRequest::Insert`] / [`ServeRequest::Delete`] mutate a resident
//! cloud *incrementally*: each changed point routes to its Morton shard
//! under the parent's plan, only the dirty shards re-solve
//! ([`emst_shard::ShardArtifacts::apply_update`]), clean shards keep
//! their BVHs, local MSTs and merge entry bounds (the bounds are
//! label-independent geometry, so surviving rows transfer verbatim), and
//! the exact cross-shard merge re-runs. The mutated cloud is a **new**
//! [`CloudKey`] (content digest changes) admitted alongside the parent,
//! so cache/spill/fault semantics are unchanged — the parent stays
//! servable and the edge-weight multiset of the child is bit-identical
//! to a from-scratch solve.
//!
//! # Concurrency
//!
//! Every query method takes `&self`: the engine is [`Sync`] and N threads
//! may query the same or different clouds simultaneously, with answers
//! bit-identical to a single-threaded engine. The split:
//!
//! - **Shared, read-mostly**: the resident list (`RwLock<Vec<Arc<_>>>`;
//!   queries take the read lock just long enough to clone an `Arc`,
//!   admission/eviction takes the write lock).
//! - **Shared, immutable**: each resident's points and artifacts. A
//!   resident never changes after admission — its artifacts already hold
//!   round 1 of every merge — so queries read it through the `Arc` with
//!   no lock at all.
//! - **Per-thread**: Borůvka/merge scratch pools, checked out of a
//!   bounded free list per query and returned by an RAII guard on drop
//!   (also on the panic path), so warm queries still allocate nothing.
//! - **Single-flight builds**: concurrent requests for the same
//!   non-resident [`CloudKey`] coalesce on one build, reload or mutation
//!   child — one leader fills it (outside all locks), the rest park on the
//!   key's flight (the crate's one single-flight rendezvous, which the
//!   wire's query coalescing shares) and re-check, each at most until its
//!   own query deadline. The leader itself re-checks residency *after*
//!   winning its lease (double-checked locking): a thread that read "not
//!   resident", stalled, and won the next lease after the prior leader
//!   landed must serve the landed resident, not rebuild and admit a
//!   duplicate. Points, keys and mutation children all resolve through one
//!   private resolver, so this protocol exists once.
//!
//! All atomics (stats, LRU ticks) use relaxed ordering on purpose: they
//! are advisory counters and recency hints, and every correctness-bearing
//! handoff (artifacts, resident list) goes through a
//! mutex/rwlock acquire-release pair. Each [`ServeStats`] field is one
//! counter cell, which the metrics registry exports as
//! `emst_serve_cache_events_total{event=…}` when observability is on.
//!
//! ```
//! use emst_datasets::Kind;
//! use emst_exec::Threads;
//! use emst_serve::{CacheOutcome, ServeConfig, ServeEngine};
//!
//! let pts = Kind::Uniform.generate::<2>(800, 42);
//! let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(4, 2));
//!
//! let cold = engine.emst(&pts); // miss: plan + local solves + merge
//! assert_eq!(cold.outcome, CacheOutcome::Miss);
//! assert!(cold.build_work.iterations > 0);
//!
//! let warm = engine.emst(&pts); // hit: merge only, bit-identical edges
//! assert_eq!(warm.outcome, CacheOutcome::Hit);
//! assert!(warm.build_work.is_zero());
//! assert_eq!(warm.edges, cold.edges);
//!
//! // Mutating one coordinate changes the digest: no stale answers.
//! let mut other = pts.clone();
//! other[0][0] += 1.0;
//! assert_eq!(engine.emst(&other).outcome, CacheOutcome::Miss);
//! ```

pub mod fault;
mod flight;
pub mod net;
pub mod spill;

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emst_bvh::TraversalStats;
use emst_core::{BoruvkaScratch, Edge};
use emst_exec::counters::CounterSnapshot;
use emst_exec::{ExecSpace, PhaseTimings};
use emst_geometry::{Point, Scalar};
use emst_hdbscan::{Hdbscan, HdbscanResult};
use emst_obs::{Counter, Gauge, Histogram, QueryTrace, Registry, SpanRecord, TraceRing};
use emst_shard::{MergeScratch, ShardArtifacts, ShardConfig, UpdateReport};
use flight::{Flights, Join};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};

pub use fault::{FaultKind, FaultPlan, FaultSite};
pub use net::{NetConfig, NetReply, NetSession, ServeServer};
pub use spill::{digest_points, CloudKey};

/// Configuration of a serving engine.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Morton-range shards per resident cloud (clamped to at least 1).
    pub shards: usize,
    /// Admission budget: maximum number of simultaneously resident clouds
    /// (clamped to at least 1). The least-recently-used cloud is spilled
    /// when a new one needs the slot.
    pub max_resident: usize,
    /// Directory for eviction spill files. `None` (the default) derives a
    /// process-unique directory under the system temp dir, removed when
    /// the engine is dropped; a caller-provided directory is left alone.
    pub spill_dir: Option<PathBuf>,
    /// Record lock-free metrics and per-query traces (on by default; see
    /// [`ServeEngine::metrics_prometheus`] and
    /// [`ServeEngine::recent_traces`]). Off removes every instrumentation
    /// probe from the query paths — the uninstrumented baseline the
    /// benchmark's overhead measurement compares against.
    pub observability: bool,
    /// Secondary spill directory. When every retry against the primary
    /// spill dir fails, the write relocates here before the cloud is
    /// declared non-durable; reloads probe both directories. `None` (the
    /// default) disables relocation.
    pub fallback_spill_dir: Option<PathBuf>,
    /// Persist serialized artifacts (plan, local MSTs, cross bounds)
    /// alongside the points in spill files, so a reload is a
    /// checksum-verified read plus a rebuild of each shard's BVH from its
    /// points instead of a rebuild with every local solve. On by default;
    /// a corrupt or absent artifact section always degrades to the
    /// deterministic rebuild, never to wrong bits.
    pub spill_artifacts: bool,
    /// Retries per spill-write attempt *per directory*, with exponential
    /// backoff (1 ms base, doubling, capped at 20 ms). `0` means one
    /// attempt and no retry.
    pub spill_retries: u32,
    /// Per-query wall-clock budget for the fallible (`execute` /
    /// `*_by_key`) EMST paths. Checked at merge-round boundaries, before
    /// each dirty-shard re-solve and while parked behind another query's
    /// fill of the same key: an over-budget query returns
    /// [`ServeError::DeadlineExceeded`] instead of a late answer. `None`
    /// (the default) disables deadlines.
    pub deadline: Option<Duration>,
    /// Admission control for the fallible query paths: more than this many
    /// in-flight guarded queries sheds the excess with
    /// [`ServeError::Overloaded`] instead of queueing. `0` (the default)
    /// disables shedding.
    pub max_in_flight: usize,
    /// Deterministic fault injection applied to every spill write/read
    /// (see [`fault`]). `None` (the default) runs clean; production
    /// configs leave this unset — it exists for chaos tests and the CLI's
    /// `--fault-plan`.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl ServeConfig {
    /// Default configuration with `shards` shards and a residency budget.
    pub fn new(shards: usize, max_resident: usize) -> Self {
        Self {
            shards,
            max_resident,
            spill_dir: None,
            observability: true,
            fallback_spill_dir: None,
            spill_artifacts: true,
            spill_retries: 3,
            deadline: None,
            max_in_flight: 0,
            fault_plan: None,
        }
    }
}

/// How the cache answered a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The cloud was resident: no build work at all.
    Hit,
    /// The cloud was unknown: ingested (plan + local solves) on this call.
    Miss,
    /// The cloud had been evicted: points reloaded from its (verified)
    /// spill file, artifacts restored from the spilled blob — or rebuilt
    /// deterministically when the blob is absent or corrupt. Either way
    /// the answers are bit-identical to the original build.
    Reloaded,
}

impl CacheOutcome {
    /// Lower-case name, as traces and the CLI report it.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Reloaded => "reload",
        }
    }
}

/// Lifetime cache statistics of an engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries answered from resident artifacts.
    pub hits: u64,
    /// Queries that ingested a new cloud.
    pub misses: u64,
    /// Queries that reloaded an evicted cloud from its spill file.
    pub reloads: u64,
    /// Clouds evicted to spill files.
    pub evictions: u64,
    /// Eviction spill writes that failed (the cloud is dropped from
    /// durability: a later by-key query answers `UnknownKey`, never wrong
    /// data — but the loss is now counted and logged instead of silent).
    pub spill_failures: u64,
    /// Verified 64-bit digest collisions: admissions where a resident
    /// cloud shared the digest but not the bytes, forcing a salted key.
    pub digest_collisions: u64,
    /// Queries that parked on another thread's in-flight build of the
    /// same key instead of rebuilding it (single-flight coalescing); each
    /// also counts as a hit once the build lands.
    pub coalesced: u64,
    /// Spill-write attempts retried after a failure (backoff included).
    pub spill_retries: u64,
    /// Spill writes that relocated to the fallback directory after the
    /// primary directory's retries were exhausted.
    pub spill_relocations: u64,
    /// Reload reads rejected by verification — framing/section-checksum
    /// failures and key-digest mismatches. Every one of these is a
    /// would-have-been-wrong-bits event turned into a typed error.
    pub checksum_failures: u64,
    /// Reloads answered by restoring verified artifact bytes from the
    /// spill file (no local solve ran; only the shard trees were rebuilt).
    pub artifact_restores: u64,
    /// Reloads that fell back to the deterministic rebuild because the
    /// spill carried no intact artifact section.
    /// `artifact_restores + artifact_rebuilds == reloads` always.
    pub artifact_rebuilds: u64,
    /// Guarded queries that ran over their deadline budget and returned
    /// [`ServeError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Guarded queries shed by admission control
    /// ([`ServeError::Overloaded`]).
    pub shed: u64,
    /// Guarded queries that panicked and were isolated to a
    /// [`ServeError::QueryPanic`] instead of unwinding the caller.
    pub query_panics: u64,
    /// Network requests that rode another identical in-flight request's
    /// execution instead of running themselves: same [`CloudKey`], same
    /// verb, same arguments, concurrent — all receive the one result's
    /// bytes (see [`net`]). Distinct from [`ServeStats::coalesced`], which
    /// counts single-flight *build* coalescing inside the engine.
    pub query_coalesced: u64,
    /// Incremental point insertions that derived and admitted (or hit) a
    /// child cloud ([`ServeRequest::Insert`]).
    pub inserts: u64,
    /// Incremental point deletions that derived and admitted (or hit) a
    /// child cloud ([`ServeRequest::Delete`]).
    pub deletes: u64,
}

impl ServeStats {
    /// Every stat as a `(name, value)` pair, in declaration order.
    ///
    /// The destructuring is deliberately exhaustive (no `..`): adding a
    /// field to [`ServeStats`] without extending this list is a compile
    /// error, so consumers that iterate the names — the CLI `stats`
    /// command, the metrics exporters — can never silently miss one.
    pub fn named_fields(&self) -> [(&'static str, u64); 18] {
        let ServeStats {
            hits,
            misses,
            reloads,
            evictions,
            spill_failures,
            digest_collisions,
            coalesced,
            spill_retries,
            spill_relocations,
            checksum_failures,
            artifact_restores,
            artifact_rebuilds,
            deadline_exceeded,
            shed,
            query_panics,
            query_coalesced,
            inserts,
            deletes,
        } = *self;
        [
            ("hits", hits),
            ("misses", misses),
            ("reloads", reloads),
            ("evictions", evictions),
            ("spill_failures", spill_failures),
            ("digest_collisions", digest_collisions),
            ("coalesced", coalesced),
            ("spill_retries", spill_retries),
            ("spill_relocations", spill_relocations),
            ("checksum_failures", checksum_failures),
            ("artifact_restores", artifact_restores),
            ("artifact_rebuilds", artifact_rebuilds),
            ("deadline_exceeded", deadline_exceeded),
            ("shed", shed),
            ("query_panics", query_panics),
            ("query_coalesced", query_coalesced),
            ("inserts", inserts),
            ("deletes", deletes),
        ]
    }
}

/// Errors of the handle-based (`*_by_key`) query paths.
#[derive(Debug)]
pub enum ServeError {
    /// The key is neither resident nor spilled — the cloud was never
    /// ingested (or its spill file was removed).
    UnknownKey(CloudKey),
    /// The spill file exists but cannot be read back.
    Spill(std::io::Error),
    /// The spill file's contents no longer digest to the key — on-disk
    /// corruption; the engine refuses to serve wrong bits.
    DigestMismatch(CloudKey),
    /// The query ran past its [`ServeConfig::deadline`] budget and
    /// returned instead of a late answer. Detected at a merge-round
    /// boundary, before a dirty-shard re-solve, or while parked behind
    /// another query's fill of the same key.
    DeadlineExceeded(CloudKey),
    /// Shed by admission control: [`ServeConfig::max_in_flight`] guarded
    /// queries were already running. Graceful degradation — retry later.
    Overloaded,
    /// The query panicked; the panic was contained to this query (scratch
    /// returned to the pool, no engine state poisoned) and its payload is
    /// carried here instead of unwinding the caller.
    QueryPanic(String),
    /// The request itself is malformed — an out-of-range or duplicate
    /// delete id, a mutation that would leave fewer than two points.
    /// Rejected before any engine state changes.
    InvalidRequest(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownKey(k) => write!(f, "unknown cloud {k}"),
            ServeError::Spill(e) => write!(f, "spill file unreadable: {e}"),
            ServeError::DigestMismatch(k) => write!(f, "spill file for {k} fails its digest"),
            ServeError::DeadlineExceeded(k) => write!(f, "query deadline exceeded on cloud {k}"),
            ServeError::Overloaded => write!(f, "shed by admission control: too many in-flight"),
            ServeError::QueryPanic(msg) => write!(f, "query panicked: {msg}"),
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Response of an EMST (full or subset) query.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The tree edges, in original point indices.
    pub edges: Vec<Edge>,
    /// Sum of (non-squared) edge weights.
    pub total_weight: f64,
    /// How the cache answered.
    pub outcome: CacheOutcome,
    /// The queried cloud's key.
    pub key: CloudKey,
    /// Work spent building artifacts **on this call** — zero on a cache
    /// hit (the warm-query signature: the local phase did not run).
    pub build_work: CounterSnapshot,
    /// Work spent answering the query itself (merge traversals, and for
    /// subset queries any partial re-solves).
    pub query_work: CounterSnapshot,
    /// Wall-clock phases of this call (`plan`/`local` only when the cloud
    /// was built or rebuilt, `merge`/`merge.*` always).
    pub timings: PhaseTimings,
    /// Heap bytes the cloud's resident artifacts occupy.
    pub resident_bytes: usize,
}

/// Response of a k-nearest-neighbour query.
#[derive(Clone, Debug)]
pub struct KnnResponse {
    /// `(original point index, squared distance)`, ascending; see
    /// [`emst_shard::ShardArtifacts::k_nearest`] for the tie rule.
    pub neighbors: Vec<(u32, Scalar)>,
    /// How the cache answered.
    pub outcome: CacheOutcome,
    /// The queried cloud's key.
    pub key: CloudKey,
    /// Work spent building artifacts on this call (zero on a hit).
    pub build_work: CounterSnapshot,
    /// Traversal work of the k-NN itself.
    pub query_work: CounterSnapshot,
}

/// Response of an HDBSCAN* query.
#[derive(Debug)]
pub struct HdbscanResponse {
    /// The full clustering output.
    pub result: HdbscanResult,
    /// How the cache answered.
    pub outcome: CacheOutcome,
    /// The queried cloud's key.
    pub key: CloudKey,
}

/// How a request names its cloud: by sending the points (resolved by
/// content digest, ingesting on a miss) or by a [`CloudKey`] handle from
/// an earlier response (reloading from spill on demand).
#[derive(Clone, Copy, Debug)]
pub enum CloudRef<'a, const D: usize> {
    /// The full point cloud; digested and admitted if not yet resident.
    /// Every coordinate must pass [`emst_geometry::is_valid_coordinate`]
    /// (finite, at most 1e18 in magnitude); the engine does not check.
    Points(&'a [Point<D>]),
    /// A previously minted key; errors with [`ServeError::UnknownKey`]
    /// when neither resident nor spilled.
    Key(CloudKey),
}

/// One typed serving request — the single argument of
/// [`ServeEngine::execute`], covering every verb the engine speaks.
/// The named convenience methods and the wire protocol ([`net::respond`],
/// behind both TCP and the `emst-cli serve` stdin session) build exactly
/// these values, so behavior can never diverge per entry point.
///
/// Precondition: points passed in-process — [`CloudRef::Points`] and the
/// `Load`/`Insert` point lists — must have every coordinate pass
/// [`emst_geometry::is_valid_coordinate`]. The engine trusts its caller:
/// a NaN or infinite coordinate can stall a solve or give a wrong tree.
/// The wire parser and the `emst_datasets` readers enforce the bound for
/// outside input.
#[derive(Debug)]
pub enum ServeRequest<'a, const D: usize> {
    /// Full EMST of the cloud (warm path: merge only).
    Emst {
        /// The cloud to solve.
        cloud: CloudRef<'a, D>,
    },
    /// Exact EMST of a subset of the cloud's points (distinct original
    /// indices), re-merging only the touched shards.
    Subset {
        /// The cloud to solve within.
        cloud: CloudRef<'a, D>,
        /// Distinct original point indices of the subset.
        subset: &'a [u32],
    },
    /// The `k` nearest ingested points to `query`.
    KNearest {
        /// The cloud to search.
        cloud: CloudRef<'a, D>,
        /// The query position.
        query: Point<D>,
        /// Number of neighbours.
        k: usize,
    },
    /// HDBSCAN* clustering of the cloud.
    Hdbscan {
        /// The cloud to cluster.
        cloud: CloudRef<'a, D>,
        /// Clustering parameters.
        params: Hdbscan,
    },
    /// Incremental insertion: append `points` to the cloud, delta-solve
    /// only the Morton shards they land in, and admit the result as a new
    /// cloud (the parent stays resident and servable).
    Insert {
        /// The parent cloud to extend.
        cloud: CloudRef<'a, D>,
        /// Points to append (their indices continue the parent's).
        points: &'a [Point<D>],
    },
    /// Incremental deletion: remove the points at `ids` (parent-cloud
    /// indices; survivors are compacted in order), delta-solve only the
    /// shards that lost points, and admit the result as a new cloud.
    Delete {
        /// The parent cloud to shrink.
        cloud: CloudRef<'a, D>,
        /// Distinct in-range parent point indices to remove.
        ids: &'a [u32],
    },
    /// Ingest a cloud (build + admit artifacts) without running a query.
    Load {
        /// The cloud to admit.
        points: &'a [Point<D>],
    },
    /// Lifetime cache statistics and residency accounting.
    Stats,
}

/// One typed serving response — each [`ServeRequest`] verb returns its
/// matching arm.
#[derive(Debug)]
pub enum ServeResponse<const D: usize> {
    /// Answer of [`ServeRequest::Emst`].
    Emst(QueryResponse),
    /// Answer of [`ServeRequest::Subset`].
    Subset(QueryResponse),
    /// Answer of [`ServeRequest::KNearest`].
    KNearest(KnnResponse),
    /// Answer of [`ServeRequest::Hdbscan`].
    Hdbscan(HdbscanResponse),
    /// Answer of [`ServeRequest::Insert`] / [`ServeRequest::Delete`].
    Mutated(MutateResponse<D>),
    /// Answer of [`ServeRequest::Load`].
    Loaded {
        /// The admitted cloud's key.
        key: CloudKey,
    },
    /// Answer of [`ServeRequest::Stats`].
    Stats(StatsResponse),
}

/// Response of an incremental mutation: the child cloud's identity, the
/// post-mutation point set, how much of the parent's work was reused,
/// and a full EMST answer over the child (which gives callers a check
/// digest in the same round trip).
#[derive(Clone, Debug)]
pub struct MutateResponse<const D: usize> {
    /// Key of the mutated (child) cloud — use it for follow-up queries.
    pub key: CloudKey,
    /// The child cloud's points (parent order, survivors compacted,
    /// inserts appended) — what a session should now consider "the"
    /// cloud.
    pub points: Vec<Point<D>>,
    /// Point count of the child cloud.
    pub n: usize,
    /// Plan-shard indices whose local solve re-ran. Empty when the child
    /// was already resident (a repeated identical mutation hits).
    pub dirty_shards: Vec<usize>,
    /// Non-empty shards whose BVH + local MST transferred verbatim.
    pub reused_shards: usize,
    /// The mutation changed the set of non-empty shards and fell back to
    /// a full (still deterministic) rebuild.
    pub full_rebuild: bool,
    /// Full EMST of the child cloud, merge-exact (edge-weight multiset
    /// bit-identical to a from-scratch solve of the same points).
    pub update: QueryResponse,
}

/// Response of [`ServeRequest::Stats`].
#[derive(Clone, Debug)]
pub struct StatsResponse {
    /// Number of currently resident clouds.
    pub resident: usize,
    /// Total heap bytes of resident artifacts.
    pub resident_bytes: usize,
    /// Lifetime cache statistics.
    pub stats: ServeStats,
}

/// Internal shape of the two mutation verbs once argument validation has
/// produced the child point set.
enum Mutation<'a, const D: usize> {
    Insert(&'a [Point<D>]),
    Delete(&'a [u32]),
}

impl<const D: usize> Mutation<'_, D> {
    fn verb(&self) -> &'static str {
        match self {
            Mutation::Insert(_) => "insert",
            Mutation::Delete(_) => "delete",
        }
    }
}

/// One resident cloud. `key`, `points` and `artifacts` are immutable for
/// the resident's whole life (any thread may read them through the `Arc`,
/// with no lock); `last_used` is a recency hint.
struct Resident<const D: usize> {
    key: CloudKey,
    points: Vec<Point<D>>,
    artifacts: ShardArtifacts<D>,
    /// Tick of the last query that touched this resident. Ticks come from
    /// one `fetch_add` clock, so they are unique engine-wide (ties are
    /// impossible) and the LRU minimum is unambiguous. `fetch_max` keeps
    /// the slot exact under concurrent touches.
    last_used: AtomicU64,
}

/// Per-thread mutable query state, checked out of the engine's free pool
/// for the duration of one query.
struct QueryScratch {
    boruvka: BoruvkaScratch,
    merge: MergeScratch,
}

impl QueryScratch {
    fn new() -> Self {
        Self { boruvka: BoruvkaScratch::new(), merge: MergeScratch::new() }
    }
}

/// Upper bound on pooled scratch sets. The pool otherwise grows to the
/// peak query concurrency ever seen and each entry retains merge arrays
/// sized to the largest cloud it served, so it must not grow without
/// bound.
const MAX_POOLED_SCRATCH: usize = 32;

/// A checked-out [`QueryScratch`] that returns itself to the pool on drop
/// — including on the unwind path, so a panicking merge (a convergence
/// assert) cannot permanently leak its scratch.
struct ScratchGuard<'a> {
    pool: &'a Mutex<Vec<QueryScratch>>,
    scratch: Option<QueryScratch>,
}

impl std::ops::Deref for ScratchGuard<'_> {
    type Target = QueryScratch;
    fn deref(&self) -> &QueryScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut QueryScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        let mut pool = self.pool.lock();
        if pool.len() < MAX_POOLED_SCRATCH {
            pool.push(self.scratch.take().expect("scratch present until drop"));
        }
    }
}

/// Lifetime counters, one per [`ServeStats`] field. With observability on
/// each cell *is* the registry's `emst_serve_cache_events_total{event=…}`
/// counter, so [`ServeEngine::stats`] and the exposition read the same
/// atomics; with it off the cells are unregistered. Every event is one
/// relaxed `inc` — see the module docs on ordering.
struct StatCells {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    reloads: Arc<Counter>,
    evictions: Arc<Counter>,
    spill_failures: Arc<Counter>,
    digest_collisions: Arc<Counter>,
    coalesced: Arc<Counter>,
    spill_retries: Arc<Counter>,
    spill_relocations: Arc<Counter>,
    checksum_failures: Arc<Counter>,
    artifact_restores: Arc<Counter>,
    artifact_rebuilds: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    shed: Arc<Counter>,
    query_panics: Arc<Counter>,
    query_coalesced: Arc<Counter>,
    inserts: Arc<Counter>,
    deletes: Arc<Counter>,
}

impl StatCells {
    fn new(registry: Option<&Registry>) -> Self {
        let event = |e: &str| match registry {
            Some(r) => r.counter(&format!("emst_serve_cache_events_total{{event=\"{e}\"}}")),
            None => Arc::default(),
        };
        Self {
            hits: event("hit"),
            misses: event("miss"),
            reloads: event("reload"),
            evictions: event("eviction"),
            spill_failures: event("spill_failure"),
            digest_collisions: event("digest_collision"),
            coalesced: event("coalesced"),
            spill_retries: event("spill_retry"),
            spill_relocations: event("spill_relocation"),
            checksum_failures: event("checksum_failure"),
            artifact_restores: event("artifact_restore"),
            artifact_rebuilds: event("artifact_rebuild"),
            deadline_exceeded: event("deadline_exceeded"),
            shed: event("shed"),
            query_panics: event("query_panic"),
            query_coalesced: event("query_coalesced"),
            inserts: event("insert"),
            deletes: event("delete"),
        }
    }

    fn snapshot(&self) -> ServeStats {
        ServeStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            reloads: self.reloads.get(),
            evictions: self.evictions.get(),
            spill_failures: self.spill_failures.get(),
            digest_collisions: self.digest_collisions.get(),
            coalesced: self.coalesced.get(),
            spill_retries: self.spill_retries.get(),
            spill_relocations: self.spill_relocations.get(),
            checksum_failures: self.checksum_failures.get(),
            artifact_restores: self.artifact_restores.get(),
            artifact_rebuilds: self.artifact_rebuilds.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            shed: self.shed.get(),
            query_panics: self.query_panics.get(),
            query_coalesced: self.query_coalesced.get(),
            inserts: self.inserts.get(),
            deletes: self.deletes.get(),
        }
    }
}

/// Capacity of the per-engine trace ring: enough to inspect a recent
/// burst of queries, bounded so a long-serving engine cannot grow.
const TRACE_CAPACITY: usize = 256;

/// The engine's observability bundle: a metrics [`Registry`] with every
/// handle pre-resolved (recording on the query path is relaxed-atomic,
/// never a name lookup), and the bounded ring of per-query traces. Built
/// once per engine when [`ServeConfig::observability`] is on. The cache
/// events are not here: their registry handles are the engine's
/// [`StatCells`].
struct ServeObs {
    registry: Registry,
    traces: TraceRing,
    /// Per-op-kind latency, `emst_serve_op_seconds{op="…"}`.
    op_emst: Arc<Histogram>,
    op_subset: Arc<Histogram>,
    op_knn: Arc<Histogram>,
    op_hdbscan: Arc<Histogram>,
    op_insert: Arc<Histogram>,
    op_delete: Arc<Histogram>,
    op_ingest: Arc<Histogram>,
    /// Algorithmic work per [`CounterSnapshot`] field,
    /// `emst_serve_work_total{counter="…"}`, in `named_fields` order.
    work: [Arc<Counter>; 9],
    scratch_checkouts: Arc<Counter>,
    scratch_pool_size: Arc<Gauge>,
    resident_clouds: Arc<Gauge>,
    resident_bytes: Arc<Gauge>,
    /// Acquisition waits on the shared locks,
    /// `emst_serve_lock_wait_seconds{lock="…"}`.
    lock_residents_read: Arc<Histogram>,
    lock_residents_write: Arc<Histogram>,
    lease_wait: Arc<Histogram>,
    spill_write: Arc<Histogram>,
    eviction: Arc<Histogram>,
    /// Reload-path latencies split by how the artifacts came back,
    /// `emst_serve_reload_seconds{path="restore"|"rebuild"}` — the seam
    /// the benchmark's artifact-restore-vs-rebuild comparison reads.
    reload_restore: Arc<Histogram>,
    reload_rebuild: Arc<Histogram>,
}

impl ServeObs {
    fn new() -> Self {
        let registry = Registry::new();
        let op = |o: &str| registry.histogram(&format!("emst_serve_op_seconds{{op=\"{o}\"}}"));
        let lock =
            |l: &str| registry.histogram(&format!("emst_serve_lock_wait_seconds{{lock=\"{l}\"}}"));
        let work = CounterSnapshot::default().named_fields().map(|(name, _)| {
            registry.counter(&format!("emst_serve_work_total{{counter=\"{name}\"}}"))
        });
        Self {
            traces: TraceRing::new(TRACE_CAPACITY),
            op_emst: op("emst"),
            op_subset: op("subset"),
            op_knn: op("knn"),
            op_hdbscan: op("hdbscan"),
            op_insert: op("insert"),
            op_delete: op("delete"),
            op_ingest: op("ingest"),
            work,
            scratch_checkouts: registry.counter("emst_serve_scratch_checkouts_total"),
            scratch_pool_size: registry.gauge("emst_serve_scratch_pool_size"),
            resident_clouds: registry.gauge("emst_serve_resident_clouds"),
            resident_bytes: registry.gauge("emst_serve_resident_bytes"),
            lock_residents_read: lock("residents.read"),
            lock_residents_write: lock("residents.write"),
            lease_wait: registry.histogram("emst_serve_lease_wait_seconds"),
            spill_write: registry.histogram("emst_serve_spill_write_seconds"),
            eviction: registry.histogram("emst_serve_eviction_seconds"),
            reload_restore: registry.histogram("emst_serve_reload_seconds{path=\"restore\"}"),
            reload_rebuild: registry.histogram("emst_serve_reload_seconds{path=\"rebuild\"}"),
            registry,
        }
    }

    fn op_histogram(&self, op: &str) -> &Histogram {
        match op {
            "emst" => &self.op_emst,
            "subset" => &self.op_subset,
            "knn" => &self.op_knn,
            "hdbscan" => &self.op_hdbscan,
            "insert" => &self.op_insert,
            "delete" => &self.op_delete,
            _ => &self.op_ingest,
        }
    }
}

/// The serving engine. See the crate docs — in particular the
/// "Concurrency" section for what is shared and what is per-thread.
pub struct ServeEngine<S: ExecSpace, const D: usize> {
    space: S,
    config: ServeConfig,
    residents: RwLock<Vec<Arc<Resident<D>>>>,
    /// Monotone recency clock; `fetch_add` hands every caller a distinct
    /// tick, so two residents can never tie on `last_used`.
    clock: AtomicU64,
    stats: StatCells,
    scratch_pool: Mutex<Vec<QueryScratch>>,
    builds: Flights<CloudKey, ()>,
    spill_dir: PathBuf,
    /// Whether `spill_dir` is engine-owned (removed on drop).
    owns_spill_dir: bool,
    /// In-flight guarded queries, for [`ServeConfig::max_in_flight`].
    in_flight: AtomicU64,
    /// Metrics + traces; `None` when [`ServeConfig::observability`] is
    /// off, which compiles every probe down to a branch on a `None`.
    obs: Option<ServeObs>,
}

/// Outcome of one pass over the resident list for a cloud, by verified
/// `(digest, K)` content or by key.
enum Lookup<const D: usize> {
    /// The landed resident (for content lookups, one whose points
    /// verified equal byte-for-byte).
    Hit(Arc<Resident<D>>),
    /// Nothing resident; admit under this key (for content lookups, salted
    /// past any colliding residents).
    Vacant(CloudKey),
}

/// A resolved cloud: the resident, how the cache answered, and the build
/// work and timings spent on this call (zero on a hit).
type Resolved<const D: usize> = (Arc<Resident<D>>, CacheOutcome, CounterSnapshot, PhaseTimings);

impl<S: ExecSpace, const D: usize> ServeEngine<S, D> {
    /// Creates an engine on `space`. Nothing is resident yet; clouds are
    /// admitted by their first query (or [`Self::ingest`]).
    pub fn new(space: S, config: ServeConfig) -> Self {
        let (spill_dir, owns) = match &config.spill_dir {
            Some(dir) => (dir.clone(), false),
            None => {
                static COUNTER: AtomicU64 = AtomicU64::new(0);
                let unique = COUNTER.fetch_add(1, Relaxed);
                let dir = std::env::temp_dir()
                    .join(format!("emst-serve-{}-{unique}", std::process::id()));
                (dir, true)
            }
        };
        let obs = config.observability.then(ServeObs::new);
        Self {
            space,
            config,
            residents: RwLock::new(vec![]),
            clock: AtomicU64::new(0),
            stats: StatCells::new(obs.as_ref().map(|o| &o.registry)),
            scratch_pool: Mutex::new(vec![]),
            builds: Flights::new(()),
            spill_dir,
            owns_spill_dir: owns,
            in_flight: AtomicU64::new(0),
            obs,
        }
    }

    /// The key `points` would be served under (content digest + `K`).
    pub fn key(&self, points: &[Point<D>]) -> CloudKey {
        CloudKey::minted(digest_points(points), self.num_shards())
    }

    /// Lifetime cache statistics: a snapshot of the same cells
    /// [`Self::metrics_prometheus`] exports as
    /// `emst_serve_cache_events_total{event=…}`.
    pub fn stats(&self) -> ServeStats {
        self.stats.snapshot()
    }

    /// Whether this engine records metrics and traces
    /// ([`ServeConfig::observability`]).
    pub fn observability_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// The engine's metrics registry, for callers that want to register
    /// their own counters (e.g. the CLI's metrics-file failure counter)
    /// into the same exposition. `None` when observability is off.
    pub fn obs_registry(&self) -> Option<&Registry> {
        self.obs.as_ref().map(|o| &o.registry)
    }

    /// Prometheus-style text exposition of every engine metric (per-op
    /// latency histograms with p50/p95/p99, cache events, work counters,
    /// lock waits, pool/resident gauges). Empty when observability is off.
    pub fn metrics_prometheus(&self) -> String {
        match &self.obs {
            Some(obs) => {
                self.refresh_gauges(obs);
                obs.registry.render_prometheus()
            }
            None => String::new(),
        }
    }

    /// The same metrics as a JSON document (counters, gauges, histogram
    /// summaries). `{}` when observability is off.
    pub fn metrics_json(&self) -> String {
        match &self.obs {
            Some(obs) => {
                self.refresh_gauges(obs);
                obs.registry.render_json()
            }
            None => "{}\n".to_string(),
        }
    }

    /// The `n` most recent per-query traces, newest first. Empty when
    /// observability is off.
    pub fn recent_traces(&self, n: usize) -> Vec<QueryTrace> {
        self.obs.as_ref().map(|o| o.traces.recent(n)).unwrap_or_default()
    }

    /// Gauges are sampled at export time (their values are cheap reads of
    /// engine state, not events) so an exposition is always current.
    fn refresh_gauges(&self, obs: &ServeObs) {
        obs.resident_clouds.set(self.num_resident() as u64);
        obs.resident_bytes.set(self.resident_bytes() as u64);
        obs.scratch_pool_size.set(self.scratch_pool.lock().len() as u64);
    }

    /// Runs `f` against the observability bundle when it exists — the
    /// single gate every instrumentation probe sits behind.
    #[inline]
    fn obs_event(&self, f: impl FnOnce(&ServeObs)) {
        if let Some(obs) = &self.obs {
            f(obs);
        }
    }

    /// A timestamp only when observability is on, so the off path never
    /// pays for a clock read.
    #[inline]
    fn obs_now(&self) -> Option<Instant> {
        self.obs.as_ref().map(|_| Instant::now())
    }

    /// Counts one network-level same-key query coalescing event: a request
    /// that received an identical in-flight request's result bytes instead
    /// of executing (see [`net`]).
    pub(crate) fn count_query_coalesced(&self) {
        self.stats.query_coalesced.inc();
    }

    /// Counts (and logs) one detected-corruption event — the accounting
    /// behind the "never wrong bits" guarantee: every rejected read shows
    /// up here instead of in an answer.
    fn count_checksum_failure(&self, key: CloudKey, what: &str) {
        self.stats.checksum_failures.inc();
        emst_obs::log::warn(
            "emst-serve",
            "spill verification failed",
            &[("key", &key.to_string()), ("detail", what)],
        );
    }

    /// Bridges a query's algorithmic work report into the per-counter
    /// metrics family.
    fn record_work(&self, work: &CounterSnapshot) {
        if let Some(obs) = &self.obs {
            for ((_, v), c) in work.named_fields().iter().zip(obs.work.iter()) {
                c.add(*v);
            }
        }
    }

    /// Records the finished query's latency and pushes its trace.
    fn finish_trace(
        &self,
        op: &'static str,
        key: CloudKey,
        outcome: CacheOutcome,
        start: Option<Instant>,
        spans: Vec<SpanRecord>,
    ) {
        if let (Some(obs), Some(start)) = (&self.obs, start) {
            let total = start.elapsed();
            obs.op_histogram(op).record(total);
            obs.traces.push(QueryTrace {
                seq: 0,
                op,
                key: key.to_string(),
                outcome: outcome.as_str(),
                total_s: total.as_secs_f64(),
                spans,
            });
        }
    }

    /// Number of currently resident clouds.
    pub fn num_resident(&self) -> usize {
        self.residents.read().len()
    }

    /// Keys of the resident clouds, most recently used first. The sort is
    /// over at most `max_resident` snapshot pairs, and unique ticks (see
    /// `clock`) make the order total — no tie to break arbitrarily.
    pub fn resident_keys(&self) -> Vec<CloudKey> {
        let mut v: Vec<(u64, CloudKey)> =
            self.residents.read().iter().map(|r| (r.last_used.load(Relaxed), r.key)).collect();
        v.sort_by_key(|&(used, _)| std::cmp::Reverse(used));
        v.into_iter().map(|(_, k)| k).collect()
    }

    /// Total heap bytes of all resident state (the artifacts).
    pub fn resident_bytes(&self) -> usize {
        self.residents.read().iter().map(|r| r.artifacts.resident_bytes()).sum()
    }

    fn num_shards(&self) -> usize {
        self.config.shards.max(1)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Relaxed) + 1
    }

    fn touch(&self, r: &Resident<D>) {
        // `fetch_max`, not `store`: two racing touches keep the later
        // tick, so recency stays exact under concurrency.
        r.last_used.fetch_max(self.tick(), Relaxed);
    }

    fn shard_config(&self) -> ShardConfig {
        ShardConfig::new(self.num_shards())
    }

    fn checkout(&self) -> ScratchGuard<'_> {
        let (scratch, pooled) = {
            let mut pool = self.scratch_pool.lock();
            (pool.pop(), pool.len())
        };
        let scratch = scratch.unwrap_or_else(QueryScratch::new);
        self.obs_event(|o| {
            o.scratch_checkouts.inc();
            o.scratch_pool_size.set(pooled as u64);
        });
        ScratchGuard { pool: &self.scratch_pool, scratch: Some(scratch) }
    }

    /// Read-locks the resident list for a query's resolution, recording
    /// the wait as `emst_serve_lock_wait_seconds{lock="residents.read"}`.
    fn read_residents(&self) -> RwLockReadGuard<'_, Vec<Arc<Resident<D>>>> {
        let wait = self.obs_now();
        let residents = self.residents.read();
        if let (Some(obs), Some(wait)) = (&self.obs, wait) {
            obs.lock_residents_read.record(wait.elapsed());
        }
        residents
    }

    /// One verified scan of the resident list for `(digest, K)`: a content
    /// match is a hit; otherwise the vacant key's salt skips past every
    /// colliding resident so two distinct clouds never alias.
    fn lookup(&self, digest: u64, points: &[Point<D>]) -> Lookup<D> {
        let shards = self.num_shards();
        let mut salt = 0u32;
        for r in self.read_residents().iter() {
            if r.key.digest != digest || r.key.shards != shards {
                continue;
            }
            // Digest equality is necessary but not sufficient: verify the
            // bytes (cheap at resident scale next to one merge round).
            if spill::same_bits(&r.points, points) {
                self.touch(r);
                return Lookup::Hit(Arc::clone(r));
            }
            salt = salt.max(r.key.salt + 1);
        }
        Lookup::Vacant(CloudKey { digest, shards, salt })
    }

    /// Extends `key.salt` past any spill file owned by a *different*
    /// cloud, so salts stay durable across eviction: without the probe, a
    /// distinct colliding cloud admitted after the original was spilled
    /// would claim salt 0, and its own eviction would overwrite the
    /// original's spill file — which a later by-key reload would then pass
    /// off as the original (a true collision shares the digest, so the
    /// reload digest check cannot catch it). A verified spill whose points
    /// equal `points` is this cloud's own earlier eviction: its salt is
    /// reused. Only a verified spill holding different points proves
    /// another owner (a relocated one in the fallback directory as firmly
    /// as a primary one): a spill that stays corrupt or unreadable through
    /// the lookup's retry ladder proves nothing, so it is logged and the
    /// salt kept, and a transient read fault cannot re-key a cloud.
    fn durable_salt(&self, mut key: CloudKey, points: &[Point<D>]) -> CloudKey {
        // Bounded so a pathological run of distinct colliding clouds
        // cannot loop forever.
        for _ in 0..1024 {
            match self.find_spill(key) {
                Ok(existing) if !spill::same_bits(&existing.points, points) => key.salt += 1,
                Ok(_) | Err(ServeError::UnknownKey(_)) => return key,
                Err(e) => {
                    emst_obs::log::warn(
                        "emst-serve",
                        "unreadable spill proves no other owner, keeping the salt",
                        &[("key", &key.to_string()), ("error", &e.to_string())],
                    );
                    return key;
                }
            }
        }
        key
    }

    /// The one verified spill lookup, behind both the salt probe and
    /// [`Self::reload`]: reads `key`'s spill from the primary directory,
    /// then the fallback, each on the write ladder's schedule
    /// ([`ServeConfig::spill_retries`] retries, see [`backoff`]), and
    /// returns the first copy whose points digest to `key.digest`. Every
    /// read attempt that fails verification is counted in
    /// `checksum_failures`; a missing file is not retried. Without a
    /// verified copy it errs with `DigestMismatch` when any attempt failed
    /// verification, else `Spill` when any read failed, else `UnknownKey`.
    fn find_spill(&self, key: CloudKey) -> Result<spill::SpillContents<D>, ServeError> {
        let mut corrupt = false;
        let mut io_err = None;
        for dir in self.spill_dirs() {
            for attempt in 0..=u64::from(self.config.spill_retries) {
                if attempt > 0 {
                    backoff(attempt);
                }
                match spill::read_spill::<D>(dir, key, self.fault_plan()) {
                    Ok(None) => break,
                    Ok(Some(c)) if digest_points(&c.points) == key.digest => return Ok(c),
                    Ok(Some(_)) => {
                        self.count_checksum_failure(key, "points digest mismatch");
                        corrupt = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                        self.count_checksum_failure(key, "spill frame corrupt");
                        corrupt = true;
                    }
                    Err(e) => io_err = Some(e),
                }
            }
        }
        Err(match io_err {
            _ if corrupt => ServeError::DigestMismatch(key),
            Some(e) => ServeError::Spill(e),
            None => ServeError::UnknownKey(key),
        })
    }

    /// Spill directories in probe/write order: primary, then fallback.
    fn spill_dirs(&self) -> impl Iterator<Item = &Path> {
        std::iter::once(self.spill_dir.as_path()).chain(self.config.fallback_spill_dir.as_deref())
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.config.fault_plan.as_deref()
    }

    /// Durable spill write: capped-exponential-backoff retries
    /// ([`ServeConfig::spill_retries`]; 1 ms base, doubling, ≤ 20 ms per
    /// sleep) against the primary directory, then the same ladder against
    /// the fallback directory. Errs only when every attempt in every
    /// directory failed — the caller then counts the durability loss.
    fn write_spill_durable(
        &self,
        key: CloudKey,
        points: &[Point<D>],
        artifacts: Option<&[u8]>,
    ) -> std::io::Result<()> {
        let attempts = u64::from(self.config.spill_retries) + 1;
        let mut last_err = None;
        for (which, dir) in self.spill_dirs().enumerate() {
            for attempt in 0..attempts {
                if attempt > 0 {
                    self.stats.spill_retries.inc();
                    backoff(attempt);
                }
                match spill::write_spill(dir, key, points, artifacts, self.fault_plan()) {
                    Ok(()) => {
                        if which > 0 {
                            self.stats.spill_relocations.inc();
                            emst_obs::log::warn(
                                "emst-serve",
                                "spill relocated to fallback dir",
                                &[("key", &key.to_string()), ("dir", &dir.display().to_string())],
                            );
                        }
                        return Ok(());
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        Err(last_err.expect("at least one write attempt ran"))
    }

    /// Builds artifacts for `points` (outside all engine locks) and admits
    /// the resident, evicting LRU clouds first when over budget.
    fn build_and_admit(
        &self,
        key: CloudKey,
        points: Vec<Point<D>>,
        spans: &mut Vec<SpanRecord>,
    ) -> (Arc<Resident<D>>, CounterSnapshot, PhaseTimings) {
        let built = self.obs_now();
        let artifacts = ShardArtifacts::build(&self.space, &points, &self.shard_config());
        let build_work = artifacts.build_work();
        let build_timings = artifacts.build_timings().clone();
        if let Some(built) = built {
            spans.push(SpanRecord {
                name: "build",
                secs: built.elapsed().as_secs_f64(),
                fields: vec![
                    ("points", points.len() as u64),
                    ("iterations", build_work.iterations),
                    ("distances", build_work.distance_computations),
                ],
            });
        }
        (self.admit(key, points, artifacts, spans), build_work, build_timings)
    }

    /// Admits already-built (or restored) artifacts as a resident,
    /// evicting LRU clouds first when over budget.
    fn admit(
        &self,
        key: CloudKey,
        points: Vec<Point<D>>,
        artifacts: ShardArtifacts<D>,
        spans: &mut Vec<SpanRecord>,
    ) -> Arc<Resident<D>> {
        let resident =
            Arc::new(Resident { key, points, artifacts, last_used: AtomicU64::new(self.tick()) });
        let mut victims = Vec::new();
        {
            let wait = self.obs_now();
            let mut residents = self.residents.write();
            if let (Some(obs), Some(wait)) = (&self.obs, wait) {
                obs.lock_residents_write.record(wait.elapsed());
            }
            let budget = self.config.max_resident.max(1);
            while residents.len() >= budget {
                let lru = residents
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.last_used.load(Relaxed))
                    .map(|(i, _)| i)
                    .expect("residents is non-empty");
                let victim = residents.swap_remove(lru);
                // Single-flight means at most one build per key is ever in
                // flight, and the leader re-checks residency after winning
                // its lease — so a key is only ever admitted while no
                // resident holds it, and an eviction racing a re-admission
                // of the same key cannot pick the key being admitted.
                assert_ne!(victim.key, key, "evicting the key being admitted");
                victims.push(victim);
            }
            residents.push(Arc::clone(&resident));
            let count = residents.len() as u64;
            self.obs_event(|o| o.resident_clouds.set(count));
        }
        // Spill writes (disk I/O, potentially many MB) happen outside the
        // residents lock — the victim `Arc`s keep the points alive, and
        // stalling every concurrent query on a file write would defeat the
        // read-mostly design. The window where a victim is neither
        // resident nor spilled only costs a transient `UnknownKey` on its
        // key, never wrong data.
        for victim in victims {
            let evicted = self.obs_now();
            let artifact_bytes = self.config.spill_artifacts.then(|| {
                let mut bytes = Vec::new();
                victim.artifacts.serialize_into(&mut bytes);
                bytes
            });
            let written =
                self.write_spill_durable(victim.key, &victim.points, artifact_bytes.as_deref());
            if let (Some(obs), Some(evicted)) = (&self.obs, evicted) {
                obs.spill_write.record(evicted.elapsed());
            }
            if let Err(e) = written {
                // A failed write only costs a later `UnknownKey`, never
                // wrong data — but it must not be silent.
                self.stats.spill_failures.inc();
                emst_obs::log::warn(
                    "emst-serve",
                    "spill write failed",
                    &[("key", &victim.key.to_string()), ("error", &e.to_string())],
                );
            }
            self.stats.evictions.inc();
            if let (Some(obs), Some(evicted)) = (&self.obs, evicted) {
                let secs = evicted.elapsed().as_secs_f64();
                obs.eviction.record_secs(secs);
                spans.push(SpanRecord {
                    name: "spill",
                    secs,
                    fields: vec![("points", victim.points.len() as u64)],
                });
            }
        }
        resident
    }

    /// Resolves either cloud naming to a resident: points by content
    /// digest (admitting on a miss), a key via residency + spill reload.
    /// `digest`, when the caller already holds it, is the
    /// [`digest_points`] of the `Points` cloud and spares hashing it again
    /// (and the `digest` span); a `Key` ignores it. A follower of another
    /// thread's in-flight build or reload waits at most until `deadline`.
    fn resolve_cloud(
        &self,
        cloud: CloudRef<'_, D>,
        digest: Option<u64>,
        deadline: Option<Instant>,
        spans: &mut Vec<SpanRecord>,
    ) -> Result<Resolved<D>, ServeError> {
        match cloud {
            CloudRef::Points(points) => {
                let digest = digest.unwrap_or_else(|| {
                    let digested = self.obs_now();
                    let digest = digest_points(points);
                    if let Some(digested) = digested {
                        spans.push(SpanRecord {
                            name: "digest",
                            secs: digested.elapsed().as_secs_f64(),
                            fields: vec![("points", points.len() as u64)],
                        });
                    }
                    digest
                });
                self.resolve_digest_traced(digest, points, deadline, spans)
            }
            CloudRef::Key(key) => self.resolve_key(key, deadline, spans),
        }
    }

    /// [`Self::resolve_digest_traced`] untraced and without a deadline —
    /// the seam the collision tests use to alias two distinct clouds.
    /// `points` digest to `digest` on this thread from here on
    /// ([`spill::forge_digest`]), so the spill lookup verifies their
    /// spills as it would a true collision's.
    #[cfg(test)]
    fn resolve_digest(&self, digest: u64, points: &[Point<D>]) -> Resolved<D> {
        spill::forge_digest(points, digest);
        self.resolve_digest_traced(digest, points, None, &mut Vec::new())
            .expect("a follower without a deadline cannot time out")
    }

    /// Resolves `points` under `digest`: a verified resident hits, a
    /// vacancy builds and admits.
    fn resolve_digest_traced(
        &self,
        digest: u64,
        points: &[Point<D>],
        deadline: Option<Instant>,
        spans: &mut Vec<SpanRecord>,
    ) -> Result<Resolved<D>, ServeError> {
        let find = || self.lookup(digest, points);
        self.single_flight(find, deadline, spans, |key, spans| {
            let key = self.miss_key(key, points);
            let (r, work, timings) = self.build_and_admit(key, points.to_vec(), spans);
            Ok((r, CacheOutcome::Miss, work, timings))
        })
    }

    /// Resolves a key to a resident, reloading its spill on demand.
    fn resolve_key(
        &self,
        key: CloudKey,
        deadline: Option<Instant>,
        spans: &mut Vec<SpanRecord>,
    ) -> Result<Resolved<D>, ServeError> {
        // This engine's artifacts are always built with its own shard
        // count, so a key carrying any other `K` (say, minted by an engine
        // with a different config against a shared spill directory) can
        // never be served here — rebuilding would silently register a
        // `config.shards` partition under the foreign key.
        if key.shards != self.num_shards() {
            return Err(ServeError::UnknownKey(key));
        }
        let find = || match self.read_residents().iter().find(|r| r.key == key) {
            Some(r) => {
                self.touch(r);
                Lookup::Hit(Arc::clone(r))
            }
            None => Lookup::Vacant(key),
        };
        self.single_flight(find, deadline, spans, |key, spans| self.reload(key, spans))
    }

    /// The one single-flight resolver behind every cloud resolution —
    /// points, keys and mutation children. `find` is one pass over the
    /// residents: the landed cloud, or the vacant key to admit it under.
    /// Concurrent resolutions of one vacant key coalesce on one flight:
    /// the leader runs `fill` (outside all locks) while the rest park and
    /// then re-run `find`. A follower parks at most until `deadline`, then
    /// returns [`ServeError::DeadlineExceeded`] without waiting out the
    /// leader. Hit and `coalesced` counting, lease-wait timing and the
    /// `lease.wait` span live here and nowhere else.
    fn single_flight(
        &self,
        find: impl Fn() -> Lookup<D>,
        deadline: Option<Instant>,
        spans: &mut Vec<SpanRecord>,
        fill: impl FnOnce(CloudKey, &mut Vec<SpanRecord>) -> Result<Resolved<D>, ServeError>,
    ) -> Result<Resolved<D>, ServeError> {
        let mut waited = false;
        let resident = loop {
            let key = match find() {
                Lookup::Hit(r) => break r,
                Lookup::Vacant(key) => key,
            };
            let parked = self.obs_now();
            match self.builds.join(key, deadline) {
                Join::Follow(landed) => {
                    if let (Some(obs), Some(parked)) = (&self.obs, parked) {
                        let d = parked.elapsed();
                        obs.lease_wait.record(d);
                        spans.push(SpanRecord::new("lease.wait", d.as_secs_f64()));
                    }
                    if landed.is_none() {
                        return Err(self.deadline_exceeded(key));
                    }
                    waited = true;
                }
                // Double-check under the lease: between our `find` and
                // winning the flight, the previous leader may have landed
                // this very key and dropped its flight. Without the
                // re-check the late winner would fill and admit a
                // duplicate resident — or, under salted keys, admit a
                // *distinct* cloud at an already-taken salt.
                Join::Lead(_lease) => match find() {
                    Lookup::Hit(r) => break r,
                    // A colliding resident landed meanwhile and moved the
                    // free salt: drop this lease (releasing any followers
                    // to re-check) and retry with fresh keys.
                    Lookup::Vacant(fresh) if fresh != key => {}
                    // A failing fill drops the lease too, releasing any
                    // followers to retry (and fail) for themselves.
                    Lookup::Vacant(_) => return fill(key, spans),
                },
            }
        };
        self.stats.hits.inc();
        if waited {
            self.stats.coalesced.inc();
        }
        Ok((resident, CacheOutcome::Hit, CounterSnapshot::default(), PhaseTimings::new()))
    }

    /// The salt-and-count step of a fill that admits a new cloud: settles
    /// `key`'s durable salt and counts the miss — and, when the cloud had
    /// to be salted, the verified digest collision.
    fn miss_key(&self, key: CloudKey, points: &[Point<D>]) -> CloudKey {
        let key = self.durable_salt(key, points);
        self.stats.misses.inc();
        if key.salt != 0 {
            self.stats.digest_collisions.inc();
            emst_obs::log::warn(
                "emst-serve",
                "verified digest collision, admitting under salted key",
                &[("key", &key.to_string()), ("salt", &key.salt.to_string())],
            );
        }
        key
    }

    /// Reloads the evicted `key` down the degradation ladder: verified
    /// spill lookup ([`Self::find_spill`]: primary, then fallback, each
    /// with retries) → artifact restore → deterministic rebuild → typed
    /// error. Corruption at any rung is *detected* (section checksums, key
    /// digest), counted, and degrades to the next rung — never decoded
    /// into wrong bits.
    fn reload(
        &self,
        key: CloudKey,
        spans: &mut Vec<SpanRecord>,
    ) -> Result<Resolved<D>, ServeError> {
        let reload_started = self.obs_now();
        let contents = self.find_spill(key)?;
        self.stats.reloads.inc();
        if contents.artifact_corrupt {
            self.count_checksum_failure(key, "artifact section corrupt");
        }
        // Artifact restore is best-effort: the blob decodes with full
        // structural validation against the verified points (its plan must
        // cover exactly them) before the shard trees are rebuilt from
        // those points. Anything short of that rebuilds — same bits, more
        // work.
        let restored = contents
            .artifacts
            .as_deref()
            .map(|bytes| ShardArtifacts::<D>::deserialize(&self.space, bytes, &contents.points));
        let restored = match restored {
            Some(Ok(a)) => Some(a),
            Some(Err(_)) => {
                self.count_checksum_failure(key, "artifact blob invalid");
                None
            }
            None => None,
        };
        let (r, work, timings) = match restored {
            Some(artifacts) => {
                self.stats.artifact_restores.inc();
                let r = self.admit(key, contents.points, artifacts, spans);
                if let (Some(obs), Some(t)) = (&self.obs, reload_started) {
                    obs.reload_restore.record(t.elapsed());
                }
                (r, CounterSnapshot::default(), PhaseTimings::new())
            }
            None => {
                self.stats.artifact_rebuilds.inc();
                let out = self.build_and_admit(key, contents.points, spans);
                if let (Some(obs), Some(t)) = (&self.obs, reload_started) {
                    obs.reload_rebuild.record(t.elapsed());
                }
                out
            }
        };
        Ok((r, CacheOutcome::Reloaded, work, timings))
    }

    /// Counts one over-budget query and names the error it returns.
    fn deadline_exceeded(&self, key: CloudKey) -> ServeError {
        self.stats.deadline_exceeded.inc();
        ServeError::DeadlineExceeded(key)
    }

    fn answer_emst_deadline(
        &self,
        r: &Resident<D>,
        outcome: CacheOutcome,
        build_work: CounterSnapshot,
        build_timings: PhaseTimings,
        spans: &mut Vec<SpanRecord>,
        deadline: Option<Instant>,
    ) -> Result<QueryResponse, ServeError> {
        // The resident is read-only: the merge borrows its artifacts and
        // writes only the checked-out scratch, which the guard returns to
        // the pool on drop, also when the deadline passes mid-merge.
        let mut scratch = self.checkout();
        let merged = r
            .artifacts
            .merge(&self.space, &mut scratch.merge, deadline)
            .map_err(|_| self.deadline_exceeded(r.key))?;
        if self.obs.is_some() {
            for d in &merged.stats.round_details {
                spans.push(SpanRecord {
                    name: "merge.round",
                    secs: d.secs,
                    fields: vec![
                        ("round", u64::from(d.round)),
                        ("queries", d.queries),
                        ("boundary", d.boundary),
                        ("nodes", d.stats.nodes),
                        ("leaves", d.stats.leaves),
                        ("distances", d.stats.distances),
                        ("skipped", d.stats.skipped),
                        ("rope_hops", d.stats.rope_hops),
                    ],
                });
            }
        }
        let mut timings = build_timings;
        timings.absorb(&merged.stats.timings);
        Ok(QueryResponse {
            edges: merged.edges,
            total_weight: merged.total_weight,
            outcome,
            key: r.key,
            build_work,
            query_work: merged.stats.work,
            timings,
            resident_bytes: r.artifacts.resident_bytes(),
        })
    }

    #[allow(clippy::too_many_arguments)] // internal answer path; the args are one resolve result
    fn answer_subset(
        &self,
        r: &Resident<D>,
        subset: &[u32],
        outcome: CacheOutcome,
        build_work: CounterSnapshot,
        build_timings: PhaseTimings,
        spans: &mut Vec<SpanRecord>,
        deadline: Option<Instant>,
    ) -> Result<QueryResponse, ServeError> {
        let mut scratch = self.checkout();
        let solved = self.obs_now();
        // The resident copy is the authoritative cloud (it digested equal).
        let sub = r
            .artifacts
            .merge_subset(&self.space, &r.points, subset, &mut scratch.boruvka, deadline)
            .map_err(|_| self.deadline_exceeded(r.key))?;
        if let Some(solved) = solved {
            spans.push(SpanRecord {
                name: "subset.solve",
                secs: solved.elapsed().as_secs_f64(),
                fields: vec![("subset", subset.len() as u64)],
            });
        }
        let mut timings = build_timings;
        timings.absorb(&sub.stats.timings);
        let resp = QueryResponse {
            edges: sub.edges,
            total_weight: sub.total_weight,
            outcome,
            key: r.key,
            build_work,
            query_work: sub.stats.work,
            timings,
            resident_bytes: r.artifacts.resident_bytes(),
        };
        self.record_work(&(resp.build_work + resp.query_work));
        Ok(resp)
    }

    // ------------------------------------------------------------------
    // The execution API
    //
    // `execute` is the one entry point every fallible verb flows
    // through — the `*_by_key` wrappers, `insert`/`delete` and the wire
    // protocol (TCP and stdin alike) all build a `ServeRequest` and call
    // it (the wire through `execute_digested`, which `execute` wraps, to
    // hand over the session's digest). (The legacy infallible positional wrappers run the same
    // `dispatch_guarded` table with the guards off — see the wrapper
    // block.) `Load`/`Stats` run unguarded (`Stats`
    // is a lock-free snapshot; `Load` is the explicit admission path —
    // shedding or deadline-aborting an ingest is an operator capacity
    // decision, not a per-query guard). Every other verb runs under
    // [`Self::run_guarded`]: admission control
    // ([`ServeConfig::max_in_flight`] → `Overloaded`), the per-query
    // deadline ([`ServeConfig::deadline`] → `DeadlineExceeded`, checked
    // at merge-round boundaries and before each dirty-shard re-solve),
    // and panic isolation (a panicking query returns `QueryPanic`; RAII
    // guards return scratch to the pool and release single-flight leases
    // on the unwind path, so the engine stays fully servable).
    // ------------------------------------------------------------------

    /// Executes one typed [`ServeRequest`] — the single code path behind
    /// every named method and [`net::respond`] (which passes its
    /// session's digest through the crate-private twin of this method).
    ///
    /// Query and mutation verbs run under the uniform guard surface
    /// (admission control, deadline, panic isolation — see
    /// [`ServeError`]); [`ServeRequest::Load`] and [`ServeRequest::Stats`]
    /// execute unguarded. Each verb returns its matching
    /// [`ServeResponse`] arm.
    pub fn execute(&self, req: ServeRequest<'_, D>) -> Result<ServeResponse<D>, ServeError> {
        self.execute_digested(req, None)
    }

    /// [`Self::execute`] for a caller that already holds `digest`, the
    /// [`digest_points`] of `req`'s [`CloudRef::Points`] cloud: the
    /// resolve (a mutation's parent resolve too) uses it instead of
    /// hashing the points again. `None` digests as `execute` does, and
    /// `Load` always digests its points. Crate-private because a digest of
    /// other points would admit a duplicate resident under a salted key
    /// (never wrong bits: `lookup` verifies the bytes); the wire session
    /// passes only the digest of its own current cloud.
    pub(crate) fn execute_digested(
        &self,
        req: ServeRequest<'_, D>,
        digest: Option<u64>,
    ) -> Result<ServeResponse<D>, ServeError> {
        match req {
            ServeRequest::Load { points } => {
                let started = self.obs_now();
                let mut spans = Vec::new();
                let (r, outcome, build_work, _) =
                    self.resolve_cloud(CloudRef::Points(points), None, None, &mut spans)?;
                self.record_work(&build_work);
                self.finish_trace("ingest", r.key, outcome, started, spans);
                Ok(ServeResponse::Loaded { key: r.key })
            }
            ServeRequest::Stats => Ok(ServeResponse::Stats(StatsResponse {
                resident: self.num_resident(),
                resident_bytes: self.resident_bytes(),
                stats: self.stats(),
            })),
            req => self.run_guarded(|deadline| self.dispatch_guarded(req, digest, deadline)),
        }
    }

    /// The query/mutation dispatch table shared by the guarded
    /// [`Self::execute`] path (which mints the deadline and holds the
    /// admission slot) and the legacy unguarded positional wrappers
    /// (which pass `deadline: None` and skip the gate — an infallible
    /// signature cannot report an honest shed). `digest` is
    /// [`Self::execute_digested`]'s.
    fn dispatch_guarded(
        &self,
        req: ServeRequest<'_, D>,
        digest: Option<u64>,
        deadline: Option<Instant>,
    ) -> Result<ServeResponse<D>, ServeError> {
        match req {
            ServeRequest::Emst { cloud } => {
                let started = self.obs_now();
                let mut spans = Vec::new();
                let (r, outcome, build_work, build_timings) =
                    self.resolve_cloud(cloud, digest, deadline, &mut spans)?;
                let resp = self.answer_emst_deadline(
                    &r,
                    outcome,
                    build_work,
                    build_timings,
                    &mut spans,
                    deadline,
                )?;
                self.record_work(&(resp.build_work + resp.query_work));
                self.finish_trace("emst", resp.key, outcome, started, spans);
                Ok(ServeResponse::Emst(resp))
            }
            ServeRequest::Subset { cloud, subset } => {
                let started = self.obs_now();
                let mut spans = Vec::new();
                let (r, outcome, build_work, build_timings) =
                    self.resolve_cloud(cloud, digest, deadline, &mut spans)?;
                let resp = self.answer_subset(
                    &r,
                    subset,
                    outcome,
                    build_work,
                    build_timings,
                    &mut spans,
                    deadline,
                )?;
                self.finish_trace("subset", resp.key, outcome, started, spans);
                Ok(ServeResponse::Subset(resp))
            }
            // k-NN has no merge rounds and HDBSCAN*'s fit is one
            // uninterruptible pass: for both, the deadline only gates
            // admission-to-start.
            ServeRequest::KNearest { cloud, query, k } => {
                let started = self.obs_now();
                let mut spans = Vec::new();
                let (r, outcome, build_work, _) =
                    self.resolve_cloud(cloud, digest, deadline, &mut spans)?;
                let mut stats = TraversalStats::default();
                let neighbors = r.artifacts.k_nearest(&query, k, &mut stats);
                let resp = KnnResponse {
                    neighbors,
                    outcome,
                    key: r.key,
                    build_work,
                    query_work: CounterSnapshot { queries: 1, ..stats.work() },
                };
                self.record_work(&(resp.build_work + resp.query_work));
                self.finish_trace("knn", resp.key, outcome, started, spans);
                Ok(ServeResponse::KNearest(resp))
            }
            ServeRequest::Hdbscan { cloud, params } => {
                let started = self.obs_now();
                let mut spans = Vec::new();
                let (r, outcome, build_work, _) =
                    self.resolve_cloud(cloud, digest, deadline, &mut spans)?;
                let mut scratch = self.checkout();
                let result = params.fit_scratch(&self.space, &r.points, &mut scratch.boruvka);
                self.record_work(&build_work);
                self.finish_trace("hdbscan", r.key, outcome, started, spans);
                Ok(ServeResponse::Hdbscan(HdbscanResponse { result, outcome, key: r.key }))
            }
            ServeRequest::Insert { cloud, points } => {
                self.answer_mutation(cloud, digest, Mutation::Insert(points), deadline)
            }
            ServeRequest::Delete { cloud, ids } => {
                self.answer_mutation(cloud, digest, Mutation::Delete(ids), deadline)
            }
            ServeRequest::Load { .. } | ServeRequest::Stats => {
                unreachable!("handled unguarded in execute")
            }
        }
    }

    /// The incremental mutation path. Resolves the parent, validates the
    /// mutation into a child point set + `parent_of` map, then resolves
    /// the child under single-flight: a hit (repeated identical mutation)
    /// serves the landed child; a vacancy derives child artifacts from
    /// the parent via [`emst_shard::ShardArtifacts::apply_update`] —
    /// re-solving only dirty shards, inheriting clean shards' BVHs/local
    /// MSTs and entry bounds — and admits it as a new resident. Finishes
    /// with a full (deadline-checked) EMST of the child, which hands the
    /// caller edges + check digest in the same round trip.
    fn answer_mutation(
        &self,
        cloud: CloudRef<'_, D>,
        digest: Option<u64>,
        mutation: Mutation<'_, D>,
        deadline: Option<Instant>,
    ) -> Result<ServeResponse<D>, ServeError> {
        let started = self.obs_now();
        let verb = mutation.verb();
        let mut spans = Vec::new();
        let (parent, _, _, _) = self.resolve_cloud(cloud, digest, deadline, &mut spans)?;
        let (new_points, parent_of) = match &mutation {
            Mutation::Insert(extra) => {
                let mut pts = Vec::with_capacity(parent.points.len() + extra.len());
                pts.extend_from_slice(&parent.points);
                pts.extend_from_slice(extra);
                let mut parent_of: Vec<u32> = (0..parent.points.len() as u32).collect();
                parent_of.resize(pts.len(), u32::MAX);
                (pts, parent_of)
            }
            Mutation::Delete(ids) => {
                let n = parent.points.len();
                let mut del = vec![false; n];
                for &id in *ids {
                    let slot = del.get_mut(id as usize).ok_or_else(|| {
                        ServeError::InvalidRequest(format!(
                            "delete id {id} out of range for cloud of {n} points"
                        ))
                    })?;
                    if *slot {
                        return Err(ServeError::InvalidRequest(format!(
                            "duplicate delete id {id}"
                        )));
                    }
                    *slot = true;
                }
                let mut pts = Vec::with_capacity(n - ids.len());
                let mut parent_of = Vec::with_capacity(n - ids.len());
                for (i, p) in parent.points.iter().enumerate() {
                    if !del[i] {
                        pts.push(*p);
                        parent_of.push(i as u32);
                    }
                }
                (pts, parent_of)
            }
        };
        if new_points.len() < 2 {
            return Err(ServeError::InvalidRequest(format!(
                "mutation leaves {} point(s); a servable cloud needs at least 2",
                new_points.len()
            )));
        }
        // The child resolves like any cloud, with the build replaced by
        // the incremental derivation; a hit derives nothing.
        let child_digest = digest_points(&new_points);
        let mut report = UpdateReport::default();
        let find = || self.lookup(child_digest, &new_points);
        let fill = |key, spans: &mut Vec<SpanRecord>| {
            let key = self.miss_key(key, &new_points);
            let derived = self.obs_now();
            let (artifacts, derived_report) = parent
                .artifacts
                .apply_update(
                    &self.space,
                    &parent.points,
                    &new_points,
                    &parent_of,
                    &self.shard_config(),
                    &mut self.checkout().boruvka,
                    deadline,
                )
                .map_err(|_| self.deadline_exceeded(parent.key))?;
            report = derived_report;
            let build_work = artifacts.build_work();
            let build_timings = artifacts.build_timings().clone();
            if let Some(derived) = derived {
                spans.push(SpanRecord {
                    name: "update",
                    secs: derived.elapsed().as_secs_f64(),
                    fields: vec![
                        ("points", new_points.len() as u64),
                        ("dirty", report.dirty_shards.len() as u64),
                        ("reused", report.reused_shards as u64),
                        ("rebuild", u64::from(report.full_rebuild)),
                    ],
                });
            }
            let child = self.admit(key, new_points.clone(), artifacts, spans);
            Ok((child, CacheOutcome::Miss, build_work, build_timings))
        };
        let (child, outcome, build_work, build_timings) =
            self.single_flight(find, deadline, &mut spans, fill)?;
        let update = self.answer_emst_deadline(
            &child,
            outcome,
            build_work,
            build_timings,
            &mut spans,
            deadline,
        )?;
        self.record_work(&(update.build_work + update.query_work));
        match &mutation {
            Mutation::Insert(_) => self.stats.inserts.inc(),
            Mutation::Delete(_) => self.stats.deletes.inc(),
        }
        self.finish_trace(verb, child.key, outcome, started, spans);
        Ok(ServeResponse::Mutated(MutateResponse {
            key: child.key,
            n: new_points.len(),
            points: new_points,
            dirty_shards: report.dirty_shards,
            reused_shards: report.reused_shards,
            full_rebuild: report.full_rebuild,
            update,
        }))
    }

    /// Admission + deadline + panic isolation around a query body.
    fn run_guarded<T>(
        &self,
        f: impl FnOnce(Option<Instant>) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let _gate = self.admission_gate()?;
        let deadline = self.config.deadline.map(|d| Instant::now() + d);
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(deadline))) {
            Ok(result) => result,
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                self.stats.query_panics.inc();
                emst_obs::log::warn(
                    "emst-serve",
                    "query panicked; isolated to an error",
                    &[("panic", &msg)],
                );
                Err(ServeError::QueryPanic(msg))
            }
        }
    }

    /// Claims an in-flight slot, shedding with [`ServeError::Overloaded`]
    /// past [`ServeConfig::max_in_flight`]. The token is claimed *before*
    /// the bound check (fetch_add, then compare), so two racing arrivals
    /// at the last slot can both be shed but can never both be admitted.
    fn admission_gate(&self) -> Result<Option<InFlightGuard<'_>>, ServeError> {
        let max = self.config.max_in_flight;
        if max == 0 {
            return Ok(None);
        }
        let prev = self.in_flight.fetch_add(1, Relaxed);
        let guard = InFlightGuard(&self.in_flight);
        if prev >= max as u64 {
            drop(guard);
            self.stats.shed.inc();
            return Err(ServeError::Overloaded);
        }
        Ok(Some(guard))
    }

    // WRAPPERS OVER EXECUTE -----------------------------------------------
    //
    // Every named method below is a one-line wrapper: build the
    // `ServeRequest`, run it through the `execute` dispatch table, unwrap
    // the matching `ServeResponse` arm. No query logic lives here. The
    // fallible surface (`*_by_key`, `insert`/`delete`) calls
    // [`Self::execute`] and inherits its full guard surface. The
    // infallible positional signatures run the same dispatch *unguarded*
    // — no admission gate, no deadline — because an infallible signature
    // cannot report an honest shed; they surface the remaining errors
    // (invalid requests) by panicking with the `Display`, preserving the
    // historical panic contracts.

    /// Ingests `points` (builds and admits artifacts) without running a
    /// query, returning the key future queries can use. Re-ingesting a
    /// resident cloud is a no-op hit. Wrapper over
    /// [`ServeRequest::Load`] via [`Self::execute`].
    pub fn ingest(&self, points: &[Point<D>]) -> CloudKey {
        match self.execute(ServeRequest::Load { points }) {
            Ok(ServeResponse::Loaded { key }) => key,
            other => unreachable!("Load is infallible and returns Loaded: {other:?}"),
        }
    }

    /// Full EMST of `points`. Warm path (the cloud is resident): merge
    /// only — no plan, no local solves, no tree builds; the edges are
    /// bit-identical to the cold solve because both are the same
    /// deterministic merge over the same artifacts. Unguarded wrapper
    /// over [`ServeRequest::Emst`]: no admission gate, no deadline — use
    /// [`Self::execute`] or [`Self::emst_by_key`] for the guarded surface.
    pub fn emst(&self, points: &[Point<D>]) -> QueryResponse {
        let req = ServeRequest::Emst { cloud: CloudRef::Points(points) };
        match self.dispatch_guarded(req, None, None) {
            Ok(ServeResponse::Emst(r)) => r,
            Ok(other) => unreachable!("Emst returns Emst: {other:?}"),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::emst`] by key: serves a previously ingested cloud without
    /// resending its points, transparently reloading from the spill file
    /// if the cloud was evicted. Wrapper over [`ServeRequest::Emst`] via
    /// [`Self::execute`].
    pub fn emst_by_key(&self, key: CloudKey) -> Result<QueryResponse, ServeError> {
        match self.execute(ServeRequest::Emst { cloud: CloudRef::Key(key) })? {
            ServeResponse::Emst(r) => Ok(r),
            other => unreachable!("Emst returns Emst: {other:?}"),
        }
    }

    /// Exact EMST of a subset of `points` (distinct original indices),
    /// re-merging only the touched shards; fully-covered shards reuse
    /// their resident BVH + local MST (see
    /// [`emst_shard::ShardArtifacts::merge_subset`]). Unguarded wrapper
    /// over [`ServeRequest::Subset`] (no gate, no deadline) — use
    /// [`Self::execute`] or [`Self::emst_subset_by_key`] for the guarded
    /// surface.
    ///
    /// # Panics
    /// On out-of-range or duplicate subset indices.
    pub fn emst_subset(&self, points: &[Point<D>], subset: &[u32]) -> QueryResponse {
        let req = ServeRequest::Subset { cloud: CloudRef::Points(points), subset };
        match self.dispatch_guarded(req, None, None) {
            Ok(ServeResponse::Subset(r)) => r,
            Ok(other) => unreachable!("Subset returns Subset: {other:?}"),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::emst_subset`] by key: subset EMST of a previously ingested
    /// cloud, reloading from spill on demand. Wrapper over
    /// [`ServeRequest::Subset`] via [`Self::execute`].
    pub fn emst_subset_by_key(
        &self,
        key: CloudKey,
        subset: &[u32],
    ) -> Result<QueryResponse, ServeError> {
        match self.execute(ServeRequest::Subset { cloud: CloudRef::Key(key), subset })? {
            ServeResponse::Subset(r) => Ok(r),
            other => unreachable!("Subset returns Subset: {other:?}"),
        }
    }

    /// The `k` nearest ingested points to `query`, answered from the
    /// resident per-shard BVHs. Unguarded wrapper over
    /// [`ServeRequest::KNearest`] (no gate, no deadline) — use
    /// [`Self::execute`] or [`Self::k_nearest_by_key`] for the guarded
    /// surface.
    pub fn k_nearest(&self, points: &[Point<D>], query: &Point<D>, k: usize) -> KnnResponse {
        let req = ServeRequest::KNearest { cloud: CloudRef::Points(points), query: *query, k };
        match self.dispatch_guarded(req, None, None) {
            Ok(ServeResponse::KNearest(r)) => r,
            Ok(other) => unreachable!("KNearest returns KNearest: {other:?}"),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::k_nearest`] by key, reloading from spill on demand.
    /// Wrapper over [`ServeRequest::KNearest`] via [`Self::execute`].
    pub fn k_nearest_by_key(
        &self,
        key: CloudKey,
        query: &Point<D>,
        k: usize,
    ) -> Result<KnnResponse, ServeError> {
        let req = ServeRequest::KNearest { cloud: CloudRef::Key(key), query: *query, k };
        match self.execute(req)? {
            ServeResponse::KNearest(r) => Ok(r),
            other => unreachable!("KNearest returns KNearest: {other:?}"),
        }
    }

    /// HDBSCAN* clustering of `points`, drawing the EMST pass's working
    /// arrays from a warm scratch pool ([`Hdbscan::fit_scratch`]).
    /// Unguarded wrapper over [`ServeRequest::Hdbscan`] (no gate, no
    /// deadline) — use [`Self::execute`] or [`Self::hdbscan_by_key`] for
    /// the guarded surface.
    pub fn hdbscan(&self, points: &[Point<D>], params: Hdbscan) -> HdbscanResponse {
        let req = ServeRequest::Hdbscan { cloud: CloudRef::Points(points), params };
        match self.dispatch_guarded(req, None, None) {
            Ok(ServeResponse::Hdbscan(r)) => r,
            Ok(other) => unreachable!("Hdbscan returns Hdbscan: {other:?}"),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::hdbscan`] by key, reloading from spill on demand. Wrapper
    /// over [`ServeRequest::Hdbscan`] via [`Self::execute`].
    pub fn hdbscan_by_key(
        &self,
        key: CloudKey,
        params: Hdbscan,
    ) -> Result<HdbscanResponse, ServeError> {
        match self.execute(ServeRequest::Hdbscan { cloud: CloudRef::Key(key), params })? {
            ServeResponse::Hdbscan(r) => Ok(r),
            other => unreachable!("Hdbscan returns Hdbscan: {other:?}"),
        }
    }

    /// Incrementally inserts `points` into the cloud at `key`, deriving
    /// and admitting the mutated cloud as a new resident (the parent
    /// stays servable). Wrapper over [`ServeRequest::Insert`] via
    /// [`Self::execute`].
    pub fn insert(
        &self,
        key: CloudKey,
        points: &[Point<D>],
    ) -> Result<MutateResponse<D>, ServeError> {
        match self.execute(ServeRequest::Insert { cloud: CloudRef::Key(key), points })? {
            ServeResponse::Mutated(r) => Ok(r),
            other => unreachable!("Insert returns Mutated: {other:?}"),
        }
    }

    /// Incrementally deletes the parent-cloud indices `ids` from the
    /// cloud at `key`, deriving and admitting the mutated cloud as a new
    /// resident (the parent stays servable). Wrapper over
    /// [`ServeRequest::Delete`] via [`Self::execute`].
    pub fn delete(&self, key: CloudKey, ids: &[u32]) -> Result<MutateResponse<D>, ServeError> {
        match self.execute(ServeRequest::Delete { cloud: CloudRef::Key(key), ids })? {
            ServeResponse::Mutated(r) => Ok(r),
            other => unreachable!("Delete returns Mutated: {other:?}"),
        }
    }
}

/// Releases an in-flight admission slot on drop — including on the
/// unwind path of a panicking query.
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Relaxed);
    }
}

/// The sleep before retry `attempt` (from 1) of a spill read or write:
/// 1 ms, doubling, at most 20 ms.
fn backoff(attempt: u64) {
    std::thread::sleep(Duration::from_millis((1u64 << (attempt - 1).min(5)).min(20)));
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl<S: ExecSpace, const D: usize> Drop for ServeEngine<S, D> {
    fn drop(&mut self) {
        if self.owns_spill_dir {
            std::fs::remove_dir_all(&self.spill_dir).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_exec::{Serial, Threads};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points_2d(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.random_range(-1.0f32..1.0), rng.random_range(-1.0f32..1.0)]))
            .collect()
    }

    /// The engine is shareable across threads by reference (the tentpole
    /// property behind every `&self` query).
    #[test]
    fn engine_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<ServeEngine<Serial, 2>>();
        assert_sync::<ServeEngine<Threads, 3>>();
    }

    #[test]
    fn warm_queries_skip_the_local_phase_and_match_exactly() {
        let pts = random_points_2d(700, 1);
        let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(4, 2));
        let cold = engine.emst(&pts);
        assert_eq!(cold.outcome, CacheOutcome::Miss);
        assert!(cold.build_work.iterations > 0);
        assert!(cold.timings.get("local") > 0.0);
        let warm = engine.emst(&pts);
        assert_eq!(warm.outcome, CacheOutcome::Hit);
        assert!(warm.build_work.is_zero());
        assert_eq!(warm.timings.get("plan"), 0.0);
        assert_eq!(warm.timings.get("local"), 0.0);
        assert!(warm.timings.get("merge") > 0.0);
        // Merge-only traversal stats: no solve iterations ran.
        assert_eq!(warm.query_work.iterations, 0);
        assert_eq!(warm.edges, cold.edges);
        // The resident never changes after admission: every warm merge
        // starts from the same cached round-1 answers and does the same
        // work.
        let warmer = engine.emst(&pts);
        assert_eq!(warmer.edges, cold.edges);
        assert_eq!(warmer.query_work.queries, warm.query_work.queries);
        assert_eq!(engine.stats(), ServeStats { hits: 2, misses: 1, ..Default::default() });
    }

    #[test]
    fn lru_eviction_spills_and_reloads_bit_identically() {
        let a = random_points_2d(300, 2);
        let b = random_points_2d(300, 3);
        let c = random_points_2d(300, 4);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 2));
        let ra = engine.emst(&a);
        let key_a = ra.key;
        engine.emst(&b);
        engine.emst(&c); // budget 2: evicts `a` (LRU)
        assert_eq!(engine.num_resident(), 2);
        assert_eq!(engine.stats().evictions, 1);
        let back = engine.emst_by_key(key_a).unwrap();
        assert_eq!(back.outcome, CacheOutcome::Reloaded);
        assert_eq!(back.edges, ra.edges);
        assert_eq!(engine.stats().reloads, 1);
    }

    #[test]
    fn unknown_key_is_an_error() {
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(2, 1));
        let missing = CloudKey { digest: 0xdead, shards: 2, salt: 0 };
        assert!(matches!(engine.emst_by_key(missing), Err(ServeError::UnknownKey(_))));
    }

    #[test]
    fn foreign_shard_count_keys_are_rejected() {
        // A key minted under a different K (e.g. by another engine sharing
        // a spill directory) must not be rebuilt with this engine's K and
        // registered under the foreign key.
        let pts = random_points_2d(200, 9);
        let dir = std::env::temp_dir().join(format!("emst-serve-k-test-{}", std::process::id()));
        let mut cfg8 = ServeConfig::new(8, 1);
        cfg8.spill_dir = Some(dir.clone());
        let e8 = ServeEngine::<_, 2>::new(Serial, cfg8);
        let key8 = e8.ingest(&pts);
        e8.emst(&random_points_2d(200, 10)); // evicts the first cloud to disk

        let mut cfg4 = ServeConfig::new(4, 1);
        cfg4.spill_dir = Some(dir.clone());
        let e4 = ServeEngine::<_, 2>::new(Serial, cfg4);
        assert!(matches!(e4.emst_by_key(key8), Err(ServeError::UnknownKey(k)) if k == key8));
        assert_eq!(e4.num_resident(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_then_query_by_key_is_warm() {
        let pts = random_points_2d(400, 5);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 2));
        let key = engine.ingest(&pts);
        let r = engine.emst_by_key(key).unwrap();
        assert_eq!(r.outcome, CacheOutcome::Hit);
        assert!(r.build_work.is_zero());
        assert_eq!(r.edges.len(), 399);
    }

    #[test]
    fn resident_accounting_reports_bytes_and_keys() {
        let pts = random_points_2d(500, 6);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 2));
        let key = engine.ingest(&pts);
        assert_eq!(engine.num_resident(), 1);
        assert_eq!(engine.resident_keys(), vec![key]);
        assert!(engine.resident_bytes() > 0);
        let r = engine.emst(&pts);
        assert!(r.resident_bytes > 0);
        assert!(r.resident_bytes <= engine.resident_bytes());
    }

    /// Satellite bugfix: eviction spill failures must be counted and must
    /// not corrupt the cache (the evicted cloud just loses durability).
    /// The spill dir nests under a regular *file*, so `create_dir_all`
    /// fails even when running as root (mode bits would not).
    #[test]
    fn spill_write_failures_are_counted_not_silent() {
        let blocker =
            std::env::temp_dir().join(format!("emst-serve-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut cfg = ServeConfig::new(3, 1);
        cfg.spill_dir = Some(blocker.join("spills"));
        let engine = ServeEngine::<_, 2>::new(Serial, cfg);

        let a = random_points_2d(200, 12);
        let b = random_points_2d(200, 13);
        let key_a = engine.ingest(&a);
        engine.emst(&b); // budget 1: evicts `a`, spill write must fail
        let stats = engine.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.spill_failures, 1);
        // The cloud lost durability — by-key now honestly errors (here the
        // unreadable dir surfaces as a spill I/O error; with a writable dir
        // that lost the file it would be `UnknownKey`) instead of serving
        // wrong or stale data…
        assert!(matches!(
            engine.emst_by_key(key_a),
            Err(ServeError::Spill(_) | ServeError::UnknownKey(_))
        ));
        // …but re-presenting the points still re-ingests and answers.
        assert_eq!(engine.emst(&a).outcome, CacheOutcome::Miss);
        assert_stats_match_metrics(&engine);
        std::fs::remove_file(&blocker).ok();
    }

    /// Satellite bugfix: a 64-bit digest collision must not alias two
    /// clouds onto one answer. Forced through the digest seam: both clouds
    /// resolve under the same digest, the second gets a salted key, and
    /// each keeps serving its own bits.
    #[test]
    fn verified_digest_collisions_get_salted_keys() {
        let a = random_points_2d(150, 20);
        let b = random_points_2d(150, 21);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 4));

        let (ra, oa, _, _) = engine.resolve_digest(0x42, &a);
        assert_eq!(oa, CacheOutcome::Miss);
        assert_eq!(ra.key, CloudKey { digest: 0x42, shards: 3, salt: 0 });

        // Same digest, different bytes: verified mismatch, salted admit.
        let (rb, ob, _, _) = engine.resolve_digest(0x42, &b);
        assert_eq!(ob, CacheOutcome::Miss);
        assert_eq!(rb.key, CloudKey { digest: 0x42, shards: 3, salt: 1 });
        assert_eq!(engine.stats().digest_collisions, 1);
        assert_eq!(format!("{}", rb.key), "0000000000000042/K3/s1");

        // Both clouds stay resident and each re-resolves to its own entry.
        let (ra2, oa2, _, _) = engine.resolve_digest(0x42, &a);
        let (rb2, ob2, _, _) = engine.resolve_digest(0x42, &b);
        assert_eq!((oa2, ob2), (CacheOutcome::Hit, CacheOutcome::Hit));
        assert_eq!(ra2.key.salt, 0);
        assert_eq!(rb2.key.salt, 1);
        assert_eq!(ra2.points, a);
        assert_eq!(rb2.points, b);
        // The hits did not mint new collisions.
        assert_eq!(engine.stats().digest_collisions, 1);

        // And the answers served under the colliding digest differ — the
        // aliasing bug would have returned `a`'s tree for `b`.
        let ea = self::answer(&engine, &ra2);
        let eb = self::answer(&engine, &rb2);
        assert_ne!(ea, eb);
        assert_stats_match_metrics(&engine);
    }

    /// A cloud holding a NaN is verified by its bits, like its digest: it
    /// hits its own resident instead of logging a collision with itself
    /// and admitting a salted copy on every query. (One point: solving
    /// larger non-finite clouds trips the kernels' debug assertions.)
    #[test]
    fn nan_bearing_cloud_hits_its_own_resident() {
        let pts = [Point::new([f32::NAN, 0.5])];
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(2, 4));
        assert_eq!(engine.emst(&pts).outcome, CacheOutcome::Miss);
        assert_eq!(engine.emst(&pts).outcome, CacheOutcome::Hit);
        assert_eq!(engine.resident_keys().len(), 1);
        assert_eq!(engine.stats().digest_collisions, 0);
    }

    fn answer(engine: &ServeEngine<Serial, 2>, r: &Resident<2>) -> Vec<Edge> {
        engine
            .answer_emst_deadline(
                r,
                CacheOutcome::Hit,
                CounterSnapshot::default(),
                PhaseTimings::new(),
                &mut vec![],
                None,
            )
            .expect("no deadline was set")
            .edges
    }

    /// Every [`ServeStats`] field equals its exported
    /// `emst_serve_cache_events_total{event="…"}` sample: the stats and the
    /// metric family are one set of cells, not two bookkeepings that agree.
    fn assert_stats_match_metrics<S: ExecSpace>(engine: &ServeEngine<S, 2>) {
        const EVENTS: [(&str, &str); 18] = [
            ("hits", "hit"),
            ("misses", "miss"),
            ("reloads", "reload"),
            ("evictions", "eviction"),
            ("spill_failures", "spill_failure"),
            ("digest_collisions", "digest_collision"),
            ("coalesced", "coalesced"),
            ("spill_retries", "spill_retry"),
            ("spill_relocations", "spill_relocation"),
            ("checksum_failures", "checksum_failure"),
            ("artifact_restores", "artifact_restore"),
            ("artifact_rebuilds", "artifact_rebuild"),
            ("deadline_exceeded", "deadline_exceeded"),
            ("shed", "shed"),
            ("query_panics", "query_panic"),
            ("query_coalesced", "query_coalesced"),
            ("inserts", "insert"),
            ("deletes", "delete"),
        ];
        let text = engine.metrics_prometheus();
        for (field, value) in engine.stats().named_fields() {
            let (_, event) =
                EVENTS.iter().find(|(f, _)| *f == field).expect("every stat has an event");
            let prefix = format!("emst_serve_cache_events_total{{event=\"{event}\"}} ");
            let sample = text
                .lines()
                .find_map(|line| line.strip_prefix(prefix.as_str()))
                .unwrap_or_else(|| panic!("no {prefix}sample in:\n{text}"));
            assert_eq!(sample.parse::<u64>().unwrap(), value, "stat {field} vs event {event}");
        }
    }

    /// Satellite: the recency clock hands out unique ticks under
    /// contention — ties are impossible, so the LRU victim is unambiguous.
    #[test]
    fn clock_ticks_are_unique_across_threads() {
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(2, 1));
        let per_thread = 2000;
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = &engine;
                    s.spawn(move || (0..per_thread).map(|_| engine.tick()).collect::<Vec<u64>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        all.sort_unstable();
        let len = all.len();
        all.dedup();
        assert_eq!(all.len(), len, "duplicate recency tick observed");
    }

    /// Tentpole: concurrent misses for one key coalesce on a single build.
    #[test]
    fn concurrent_same_cloud_queries_single_flight() {
        let pts = random_points_2d(800, 30);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 2));
        let edges: Vec<Vec<Edge>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let (engine, pts) = (&engine, &pts);
                    s.spawn(move || engine.emst(pts).edges)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for e in &edges[1..] {
            assert_eq!(e, &edges[0]);
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, 1, "exactly one thread may build");
        assert_eq!(stats.hits, 5, "everyone else must hit the landed build");
        assert_eq!(engine.num_resident(), 1);
        assert_stats_match_metrics(&engine);
    }

    /// Regression stress for the lookup→join TOCTOU: a thread that
    /// read "not resident", stalled, and won a lease after the prior
    /// leader landed must re-check and serve the landed resident. Without
    /// the double-check, the late winner re-admits the key — at budget 1
    /// the duplicate becomes the LRU victim of its own admission and trips
    /// the `assert_ne!` eviction guard (panicking the thread), and under
    /// salted keys a *distinct* cloud can land on a taken salt. Colliding
    /// digests + a tiny budget churn admissions to maximize the window.
    #[test]
    fn racing_admissions_never_duplicate_residents() {
        let a = random_points_2d(120, 50);
        let b = random_points_2d(120, 51);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(2, 1));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let (engine, a, b) = (&engine, &a, &b);
                s.spawn(move || {
                    for r in 0..20 {
                        let pts = if (t + r) % 2 == 0 { a } else { b };
                        let (resident, _, _, _) = engine.resolve_digest(0x99, pts);
                        // Never the colliding cloud's data.
                        assert_eq!(&resident.points, pts, "thread {t} round {r}");
                    }
                });
            }
        });
        assert_eq!(engine.num_resident(), 1, "budget must hold after the churn");
        let stats = engine.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 20);
    }

    /// Satellite bugfix hardening: collision salts are durable across
    /// eviction. A distinct cloud under an already-spilled digest must not
    /// claim the spilled cloud's salt — its own eviction would overwrite
    /// that spill file, and a later by-key reload would pass the digest
    /// check (a true collision shares the digest) and silently serve the
    /// wrong cloud's points.
    #[test]
    fn evicted_collision_spills_keep_distinct_salts() {
        let a = random_points_2d(150, 40);
        let b = random_points_2d(150, 41);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 1));
        let k0 = CloudKey { digest: 0x7, shards: 3, salt: 0 };
        let k1 = CloudKey { digest: 0x7, shards: 3, salt: 1 };

        let (ra, _, _, _) = engine.resolve_digest(0x7, &a);
        assert_eq!(ra.key, k0);
        drop(ra);
        engine.resolve_digest(0x8, &random_points_2d(150, 42)); // budget 1: spills `a` at salt 0

        // `a` is no longer resident, so the resident scan alone would hand
        // `b` salt 0 — the spill probe must skip past `a`'s file.
        let (rb, ob, _, _) = engine.resolve_digest(0x7, &b);
        assert_eq!(ob, CacheOutcome::Miss);
        assert_eq!(rb.key, k1, "salt must skip a foreign spill");
        assert_eq!(engine.stats().digest_collisions, 1);
        drop(rb);
        engine.resolve_digest(0x9, &random_points_2d(150, 43)); // spills `b` at salt 1

        // Both spill files coexist, each holding its own cloud's points.
        assert_eq!(spill::read_spill::<2>(&engine.spill_dir, k0, None).unwrap().unwrap().points, a);
        assert_eq!(spill::read_spill::<2>(&engine.spill_dir, k1, None).unwrap().unwrap().points, b);

        // Re-presenting an evicted cloud reuses its own spill slot rather
        // than leaking a fresh salt per eviction cycle.
        let (ra2, oa2, _, _) = engine.resolve_digest(0x7, &a);
        assert_eq!(oa2, CacheOutcome::Miss);
        assert_eq!(ra2.key, k0);
        let (rb2, _, _, _) = engine.resolve_digest(0x7, &b);
        assert_eq!(rb2.key, k1);
    }

    /// The scratch pool is bounded and panic-safe: guards check their
    /// scratch back in on drop — including on the unwind path, so a
    /// panicking merge cannot permanently leak scratch — and check-in
    /// past the cap discards instead of growing without bound.
    #[test]
    fn scratch_pool_is_bounded_and_panic_safe() {
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(2, 1));
        {
            let guards: Vec<_> = (0..MAX_POOLED_SCRATCH + 5).map(|_| engine.checkout()).collect();
            drop(guards);
        }
        assert_eq!(engine.scratch_pool.lock().len(), MAX_POOLED_SCRATCH);

        engine.scratch_pool.lock().clear();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.checkout();
            panic!("query panicked mid-merge");
        }));
        std::panic::set_hook(prev);
        assert!(caught.is_err());
        assert_eq!(engine.scratch_pool.lock().len(), 1, "unwound scratch must return");
    }

    /// Tentpole: queries populate the per-op histograms, cache-event
    /// counters, work counters and the trace ring, and the exposition
    /// carries quantile lines for the op family.
    #[test]
    fn queries_populate_metrics_and_traces() {
        let pts = random_points_2d(600, 60);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 2));
        assert!(engine.observability_enabled());
        engine.emst(&pts); // miss
        engine.emst(&pts); // hit
        engine.k_nearest(&pts, &pts[0], 3);

        let text = engine.metrics_prometheus();
        assert!(text.contains("emst_serve_op_seconds_count{op=\"emst\"} 2"), "{text}");
        assert!(text.contains("emst_serve_op_seconds_p50{op=\"emst\"}"));
        assert!(text.contains("emst_serve_op_seconds_p99{op=\"emst\"}"));
        assert!(text.contains("emst_serve_op_seconds_count{op=\"knn\"} 1"));
        assert!(text.contains("emst_serve_cache_events_total{event=\"hit\"} 2"));
        assert!(text.contains("emst_serve_cache_events_total{event=\"miss\"} 1"));
        assert!(text.contains("emst_serve_scratch_checkouts_total 2"));
        assert!(text.contains("emst_serve_resident_clouds 1"));
        // Work counters bridge the exec counter snapshot field-for-field.
        assert!(text.contains("emst_serve_work_total{counter=\"distance_computations\"}"));
        assert!(text.contains("emst_serve_work_total{counter=\"heap_ops\"}"));

        let json = engine.metrics_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("p99_s"));

        // Newest-first traces: knn, then the warm emst with its merge
        // rounds, then the cold emst with its build span.
        let traces = engine.recent_traces(10);
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].op, "knn");
        assert_eq!(traces[1].op, "emst");
        assert_eq!(traces[1].outcome, "hit");
        assert!(traces[1].spans.iter().any(|s| s.name == "digest"));
        let round = traces[1]
            .spans
            .iter()
            .find(|s| s.name == "merge.round")
            .expect("warm emst records merge rounds");
        assert_eq!(round.field("round"), Some(1));
        assert!(round.field("queries").is_some());
        assert!(round.field("distances").is_some());
        assert_eq!(traces[2].outcome, "miss");
        assert!(traces[2].spans.iter().any(|s| s.name == "build"));
        assert_stats_match_metrics(&engine);
    }

    /// The observability switch really removes the probes: answers stay
    /// bit-identical, exporters return empty documents.
    #[test]
    fn observability_off_serves_identically_with_empty_exporters() {
        let pts = random_points_2d(500, 61);
        let on = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 2));
        let mut cfg = ServeConfig::new(4, 2);
        cfg.observability = false;
        let off = ServeEngine::<_, 2>::new(Serial, cfg);
        assert!(!off.observability_enabled());

        let (a, b) = (on.emst(&pts), off.emst(&pts));
        assert_eq!(a.edges, b.edges);
        let (a, b) = (on.emst(&pts), off.emst(&pts));
        assert_eq!(a.edges, b.edges);

        assert_eq!(off.metrics_prometheus(), "");
        assert_eq!(off.metrics_json(), "{}\n");
        assert!(off.recent_traces(5).is_empty());
        // ServeStats are part of the serving contract, not observability:
        // both engines count identically.
        assert_eq!(on.stats(), off.stats());
    }

    /// `ServeStats::named_fields` is the reflection seam the CLI `stats`
    /// command prints from; it must cover every field exactly once.
    #[test]
    fn serve_stats_named_fields_cover_every_field() {
        let stats = ServeStats {
            hits: 1,
            misses: 2,
            reloads: 3,
            evictions: 4,
            spill_failures: 5,
            digest_collisions: 6,
            coalesced: 7,
            spill_retries: 8,
            spill_relocations: 9,
            checksum_failures: 10,
            artifact_restores: 11,
            artifact_rebuilds: 12,
            deadline_exceeded: 13,
            shed: 14,
            query_panics: 15,
            query_coalesced: 16,
            inserts: 17,
            deletes: 18,
        };
        let fields = stats.named_fields();
        assert_eq!(fields.len(), 18);
        let sum: u64 = fields.iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, (1..=18).sum(), "every field value appears exactly once");
        assert!(fields.iter().any(|&(n, v)| n == "digest_collisions" && v == 6));
        assert!(fields.iter().any(|&(n, v)| n == "coalesced" && v == 7));
        assert!(fields.iter().any(|&(n, v)| n == "checksum_failures" && v == 10));
        assert!(fields.iter().any(|&(n, v)| n == "query_panics" && v == 15));
        assert!(fields.iter().any(|&(n, v)| n == "query_coalesced" && v == 16));
    }

    /// An evicted cloud reloads by *restoring* its serialized artifacts —
    /// no local solve runs, and the answers are bit-identical.
    #[test]
    fn reload_restores_artifacts_without_rebuilding() {
        let a = random_points_2d(400, 70);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 1));
        let cold = engine.emst(&a);
        engine.emst(&random_points_2d(400, 71)); // budget 1: evicts `a`
        let back = engine.emst_by_key(cold.key).unwrap();
        assert_eq!(back.outcome, CacheOutcome::Reloaded);
        assert_eq!(back.edges, cold.edges);
        assert_eq!(back.total_weight, cold.total_weight);
        // Restored, not rebuilt: zero build work, zero local-phase time.
        assert!(back.build_work.is_zero());
        assert_eq!(back.timings.get("local"), 0.0);
        let stats = engine.stats();
        assert_eq!(stats.reloads, 1);
        assert_eq!(stats.artifact_restores, 1);
        assert_eq!(stats.artifact_rebuilds, 0);
        assert_eq!(stats.checksum_failures, 0);
        let text = engine.metrics_prometheus();
        assert!(text.contains("emst_serve_reload_seconds_count{path=\"restore\"} 1"), "{text}");
        assert!(text.contains("emst_serve_cache_events_total{event=\"artifact_restore\"} 1"));
        assert_stats_match_metrics(&engine);
    }

    /// With artifact persistence off, reloads fall back to the
    /// deterministic rebuild — same bits, counted as a rebuild.
    #[test]
    fn reload_without_artifacts_rebuilds_bit_identically() {
        let a = random_points_2d(400, 72);
        let mut cfg = ServeConfig::new(3, 1);
        cfg.spill_artifacts = false;
        let engine = ServeEngine::<_, 2>::new(Serial, cfg);
        let cold = engine.emst(&a);
        engine.emst(&random_points_2d(400, 73));
        let back = engine.emst_by_key(cold.key).unwrap();
        assert_eq!(back.outcome, CacheOutcome::Reloaded);
        assert_eq!(back.edges, cold.edges);
        assert!(back.build_work.iterations > 0, "the rebuild really ran");
        let stats = engine.stats();
        assert_eq!((stats.artifact_restores, stats.artifact_rebuilds), (0, 1));
        assert_eq!(stats.artifact_restores + stats.artifact_rebuilds, stats.reloads);
        assert_stats_match_metrics(&engine);
    }

    /// Satellite: a corrupted spill file is a typed error on every query
    /// path — emst, subset, knn, hdbscan — never wrong edges. Truncation,
    /// a flipped byte, and a wrong-length file all land in
    /// `DigestMismatch` (detected corruption) with `checksum_failures`
    /// counted; re-presenting the points recovers.
    #[test]
    fn corrupted_spills_error_on_every_query_path() {
        let a = random_points_2d(300, 74);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 1));
        let cold = engine.emst(&a);
        let key = cold.key;
        engine.emst(&random_points_2d(300, 75)); // evicts `a`
        let path = spill::spill_path(&engine.spill_dir, key);
        let pristine = std::fs::read(&path).unwrap();

        // 300 2-D points: the PNTS payload spans bytes 72..2472, so a cut
        // at 500 and a flip at 100 both damage the *points*, which must be
        // a hard error (a flip in the trailing ARTS blob only degrades).
        let corruptions: [(&str, Vec<u8>); 3] = [
            ("truncated", pristine[..500].to_vec()),
            ("flipped byte", {
                let mut v = pristine.clone();
                v[100] ^= 0x20;
                v
            }),
            ("wrong length", {
                let mut v = pristine.clone();
                v.extend_from_slice(b"extra");
                v
            }),
        ];
        for (what, bytes) in &corruptions {
            std::fs::write(&path, bytes).unwrap();
            assert!(
                matches!(
                    engine.emst_by_key(key),
                    Err(ServeError::DigestMismatch(_) | ServeError::Spill(_))
                ),
                "emst: {what}"
            );
            assert!(
                matches!(
                    engine.emst_subset_by_key(key, &[0, 1, 2]),
                    Err(ServeError::DigestMismatch(_) | ServeError::Spill(_))
                ),
                "subset: {what}"
            );
            assert!(
                matches!(
                    engine.k_nearest_by_key(key, &Point::new([0.0, 0.0]), 3),
                    Err(ServeError::DigestMismatch(_) | ServeError::Spill(_))
                ),
                "knn: {what}"
            );
            assert!(
                matches!(
                    engine.hdbscan_by_key(key, Hdbscan::default()),
                    Err(ServeError::DigestMismatch(_) | ServeError::Spill(_))
                ),
                "hdbscan: {what}"
            );
        }
        let stats = engine.stats();
        assert!(stats.checksum_failures >= 12, "every rejection counted: {stats:?}");
        assert_eq!(stats.reloads, 0, "nothing corrupt was ever admitted");

        // Recovery: the pristine bytes serve again, bit-identically.
        std::fs::write(&path, &pristine).unwrap();
        let back = engine.emst_by_key(key).unwrap();
        assert_eq!(back.edges, cold.edges);
        // And re-presenting the points always works, even with the spill
        // corrupted again.
        std::fs::write(&path, &corruptions[0].1).unwrap();
        assert_eq!(engine.emst(&a).edges, cold.edges);
        assert_stats_match_metrics(&engine);
    }

    /// Corruption confined to the artifact section only *degrades*: the
    /// reload still answers (bit-identically) via rebuild, with the
    /// failure counted.
    #[test]
    fn corrupt_artifact_section_degrades_to_rebuild() {
        let a = random_points_2d(300, 76);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 1));
        let cold = engine.emst(&a);
        engine.emst(&random_points_2d(300, 77)); // evicts `a`
        let path = spill::spill_path(&engine.spill_dir, cold.key);
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 20] ^= 0x40; // inside the trailing ARTS payload/checksum
        std::fs::write(&path, &bytes).unwrap();
        let back = engine.emst_by_key(cold.key).unwrap();
        assert_eq!(back.outcome, CacheOutcome::Reloaded);
        assert_eq!(back.edges, cold.edges);
        let stats = engine.stats();
        assert_eq!(stats.artifact_rebuilds, 1);
        assert_eq!(stats.artifact_restores, 0);
        assert!(stats.checksum_failures >= 1);
    }

    /// Tentpole: spill writes retry with backoff and relocate to the
    /// fallback directory; the cloud stays durable and reloads from there.
    #[test]
    fn spill_relocates_to_fallback_dir_and_reloads() {
        let blocker =
            std::env::temp_dir().join(format!("emst-serve-reloc-blocker-{}", std::process::id()));
        let fallback =
            std::env::temp_dir().join(format!("emst-serve-reloc-fallback-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut cfg = ServeConfig::new(3, 1);
        cfg.spill_dir = Some(blocker.join("spills")); // every primary write fails
        cfg.fallback_spill_dir = Some(fallback.clone());
        cfg.spill_retries = 2;
        let engine = ServeEngine::<_, 2>::new(Serial, cfg);

        let a = random_points_2d(250, 78);
        let cold = engine.emst(&a);
        engine.emst(&random_points_2d(250, 79)); // evicts `a`
        let stats = engine.stats();
        assert_eq!(stats.spill_failures, 0, "the fallback saved durability");
        assert_eq!(stats.spill_relocations, 1);
        assert_eq!(stats.spill_retries, 2, "primary retried before relocating");
        assert!(spill::spill_path(&fallback, cold.key).exists());

        let back = engine.emst_by_key(cold.key).unwrap();
        assert_eq!(back.outcome, CacheOutcome::Reloaded);
        assert_eq!(back.edges, cold.edges);
        assert_eq!(engine.stats().artifact_restores, 1);
        assert_stats_match_metrics(&engine);
        std::fs::remove_file(&blocker).ok();
        std::fs::remove_dir_all(&fallback).ok();
    }

    /// Tentpole: an expired deadline is an honest `DeadlineExceeded` at a
    /// merge-round boundary — and the engine (scratch, residency)
    /// stays fully servable afterwards.
    #[test]
    fn deadline_exceeded_is_honest_and_recoverable() {
        let a = random_points_2d(500, 80);
        let mut cfg = ServeConfig::new(3, 2);
        cfg.deadline = Some(Duration::ZERO); // every guarded merge is late
        let engine = ServeEngine::<_, 2>::new(Serial, cfg);
        let key = engine.ingest(&a);
        let req = ServeRequest::Emst { cloud: CloudRef::Points(&a) };
        assert!(matches!(engine.execute(req), Err(ServeError::DeadlineExceeded(k)) if k == key));
        assert!(matches!(engine.emst_by_key(key), Err(ServeError::DeadlineExceeded(_))));
        assert!(matches!(
            engine.emst_subset_by_key(key, &(0..100).collect::<Vec<_>>()),
            Err(ServeError::DeadlineExceeded(_))
        ));
        assert_eq!(engine.stats().deadline_exceeded, 3);
        // The infallible positional wrapper shares the dispatch table but
        // not the guards: it cannot report an honest shed, so it takes no
        // deadline and answers exactly even under a zero budget.
        let positional = engine.emst(&a);
        assert_eq!(positional.key, key);
        assert_eq!(engine.stats().deadline_exceeded, 3);
        // k-NN has no merge rounds: even guarded it answers.
        assert!(engine.k_nearest_by_key(key, &a[0], 3).is_ok());
        assert_eq!(engine.scratch_pool.lock().len(), 1, "no scratch leaked past the deadline");
        assert_stats_match_metrics(&engine);
    }

    /// Tentpole: admission control sheds excess in-flight queries with
    /// `Overloaded` instead of queueing them.
    #[test]
    fn admission_control_sheds_over_the_in_flight_cap() {
        let a = random_points_2d(200, 81);
        let mut cfg = ServeConfig::new(2, 2);
        cfg.max_in_flight = 1;
        let engine = ServeEngine::<_, 2>::new(Serial, cfg);
        let key = engine.ingest(&a);
        let gate = engine.admission_gate().unwrap(); // occupy the only slot
        assert!(matches!(engine.emst_by_key(key), Err(ServeError::Overloaded)));
        let req = ServeRequest::Emst { cloud: CloudRef::Points(&a) };
        assert!(matches!(engine.execute(req), Err(ServeError::Overloaded)));
        assert_eq!(engine.stats().shed, 2);
        drop(gate); // slot freed: queries admit again
        assert!(engine.emst_by_key(key).is_ok());
        assert_eq!(engine.stats().shed, 2);
        assert_eq!(engine.in_flight.load(Relaxed), 0, "every token released");
        assert_stats_match_metrics(&engine);
    }

    /// Tentpole: a panicking query is isolated to `QueryPanic` — the
    /// caller's thread survives, scratch returns to the pool, and the
    /// engine keeps serving — on `Threads` too, whose kernels run on the
    /// shared worker pool (a panic raised on a pool worker is re-raised on
    /// the launching thread; the pool's own tests pin that).
    #[test]
    fn query_panics_are_isolated_to_errors() {
        fn check<S: ExecSpace>(space: S) {
            let a = random_points_2d(200, 82);
            let engine = ServeEngine::<_, 2>::new(space, ServeConfig::new(2, 2));
            let key = engine.ingest(&a);
            let before = engine.emst_by_key(key).unwrap();
            // Silence the expected panic: an out-of-range subset index
            // panics inside the merge machinery.
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let result = engine.emst_subset_by_key(key, &[0, 9999]);
            std::panic::set_hook(prev);
            match result {
                Err(ServeError::QueryPanic(msg)) => {
                    assert!(msg.contains("out of range"), "payload carried through: {msg}")
                }
                other => panic!("expected QueryPanic, got {other:?}"),
            }
            assert_eq!(engine.stats().query_panics, 1);
            assert_eq!(engine.in_flight.load(Relaxed), 0);
            // Still serving, bit-identically, on the same resident.
            let ok = engine.emst_by_key(key).unwrap();
            assert_eq!(ok.outcome, CacheOutcome::Hit);
            assert_eq!(ok.edges.len(), 199);
            assert_eq!(ok.edges, before.edges);
            assert_stats_match_metrics(&engine);
        }
        check(Serial);
        check(Threads);
    }

    /// Injected read faults surface as typed errors (or clean retries on
    /// re-presentation), and the fault plan's decisions are live.
    #[test]
    fn fault_plan_wired_through_the_engine() {
        let a = random_points_2d(250, 83);
        let plan = Arc::new(FaultPlan::new(11).with_rule(FaultSite::Read, FaultKind::BitFlip, 1.0));
        let mut cfg = ServeConfig::new(3, 1);
        cfg.fault_plan = Some(Arc::clone(&plan));
        let engine = ServeEngine::<_, 2>::new(Serial, cfg);
        let cold = engine.emst(&a);
        engine.emst(&random_points_2d(250, 84)); // evicts `a` (write is clean)
                                                 // Every reload read has one bit flipped somewhere in the image.
                                                 // Wherever it lands the outcome must be *honest*: a typed error
                                                 // (header/points damage) or a bit-identical answer via rebuild
                                                 // (artifact-blob damage) — never wrong edges.
        match engine.emst_by_key(cold.key) {
            Ok(resp) => {
                assert_eq!(resp.edges, cold.edges);
                assert_eq!(engine.stats().artifact_rebuilds, 1);
            }
            Err(e) => assert!(
                matches!(e, ServeError::DigestMismatch(_) | ServeError::Spill(_)),
                "unexpected error: {e}"
            ),
        }
        assert!(plan.injected() > 0, "the plan really fired");
        assert!(engine.stats().checksum_failures >= 1, "the flip was detected and counted");
        // Re-presenting the points always recovers, whatever the read path
        // is doing.
        assert_eq!(engine.emst(&a).edges, cold.edges);
    }

    /// A spill that stays unreadable through the retry ladder proves no
    /// other owner: re-presenting the evicted cloud keeps its key instead
    /// of counting a digest collision and admitting a salted copy.
    #[test]
    fn unreadable_own_spill_keeps_the_cloud_key() {
        let a = random_points_2d(250, 85);
        let plan = Arc::new(FaultPlan::new(11).with_rule(FaultSite::Read, FaultKind::BitFlip, 1.0));
        let mut cfg = ServeConfig::new(3, 1);
        cfg.fault_plan = Some(Arc::clone(&plan));
        // Points-only spills: every flipped bit lands in a checksummed
        // section, so every read of `a`'s spill errs.
        cfg.spill_artifacts = false;
        let engine = ServeEngine::<_, 2>::new(Serial, cfg);
        let cold = engine.emst(&a);
        engine.emst(&random_points_2d(250, 86)); // evicts `a` (writes are clean)
        let again = engine.emst(&a);
        assert!(plan.injected() > 0, "the probe read was faulted");
        assert_eq!(again.key, cold.key);
        assert_eq!(again.edges, cold.edges);
        assert_eq!(engine.stats().digest_collisions, 0);
        assert!(engine.stats().checksum_failures >= 1, "every rejected probe read is counted");
    }

    /// A transient read fault on a by-key reload is retried, as on a salt
    /// probe: the reload's first read gets an injected EIO, the retry
    /// reads clean, and the reload answers bit-identically.
    #[test]
    fn transient_read_fault_on_reload_is_retried() {
        let rule = |seed| FaultPlan::new(seed).with_rule(FaultSite::Read, FaultKind::Eio, 0.5);
        let seed = (0..)
            .find(|&seed| {
                let plan = rule(seed);
                plan.decide(FaultSite::Read).is_some() && plan.decide(FaultSite::Read).is_none()
            })
            .unwrap();
        let plan = Arc::new(rule(seed));
        let mut cfg = ServeConfig::new(3, 1);
        cfg.fault_plan = Some(Arc::clone(&plan));
        let engine = ServeEngine::<_, 2>::new(Serial, cfg);
        let a = random_points_2d(250, 87);
        let cold = engine.emst(&a);
        // Evicting `a`: the salt probes found no spill file, so no read
        // was decided yet.
        engine.emst(&random_points_2d(250, 88));
        assert_eq!(plan.injected(), 0);
        let back = engine.emst_by_key(cold.key).unwrap();
        assert_eq!(plan.injected(), 1, "the reload's first read was faulted");
        assert_eq!(back.outcome, CacheOutcome::Reloaded);
        assert_eq!(back.edges, cold.edges);
        assert_eq!(back.total_weight, cold.total_weight);
        assert_eq!(engine.stats().reloads, 1);
        assert_stats_match_metrics(&engine);
    }

    /// Evictions record spill-write durations and eviction events in the
    /// metrics, and the admitting query's trace carries the spill span.
    #[test]
    fn evictions_show_up_in_metrics_and_traces() {
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 1));
        engine.emst(&random_points_2d(200, 62));
        engine.emst(&random_points_2d(200, 63)); // budget 1: evicts the first
        let text = engine.metrics_prometheus();
        assert!(text.contains("emst_serve_cache_events_total{event=\"eviction\"} 1"), "{text}");
        assert!(text.contains("emst_serve_spill_write_seconds_count 1"));
        assert!(text.contains("emst_serve_eviction_seconds_count 1"));
        let traces = engine.recent_traces(1);
        assert!(traces[0].spans.iter().any(|s| s.name == "spill"));
    }

    /// Tentpole: `insert` delta-solves — the child cloud answers with an
    /// edge-weight multiset bit-identical to a from-scratch solve of the
    /// same points, most shards transfer verbatim, and the parent stays
    /// resident and servable.
    #[test]
    fn insert_delta_solves_and_matches_from_scratch() {
        use emst_core::edge::weight_multiset;
        let pts = random_points_2d(500, 90);
        let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(6, 4));
        let parent_key = engine.ingest(&pts);
        let parent_edges = engine.emst_by_key(parent_key).unwrap().edges;

        // Clustered inserts: all land near one point, dirtying few shards.
        let extra: Vec<Point<2>> =
            (0..6).map(|i| Point::new([pts[17][0] + 1e-4 * i as f32, pts[17][1]])).collect();
        let resp = engine.insert(parent_key, &extra).unwrap();
        assert_eq!(resp.n, 506);
        assert_ne!(resp.key, parent_key, "mutation mints a new content key");
        assert!(!resp.full_rebuild);
        assert!(!resp.dirty_shards.is_empty());
        assert!(resp.reused_shards >= 4, "clustered inserts reuse most shards");
        assert_eq!(resp.update.edges.len(), 505);
        assert_eq!(resp.points.len(), 506);

        // Bit-identical weight multiset vs a from-scratch solve.
        let fresh = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(6, 4));
        let scratch_solve = fresh.emst(&resp.points);
        assert_eq!(
            weight_multiset(&resp.update.edges),
            weight_multiset(&scratch_solve.edges),
            "incremental child must match from-scratch"
        );

        // The parent is still resident and still answers identically.
        assert_eq!(engine.emst_by_key(parent_key).unwrap().edges, parent_edges);
        let stats = engine.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.deletes, 0);
        // Follow-up queries on the child key are warm hits.
        let warm = engine.emst_by_key(resp.key).unwrap();
        assert_eq!(warm.outcome, CacheOutcome::Hit);
        assert_eq!(warm.edges, resp.update.edges);
        assert_stats_match_metrics(&engine);
    }

    /// Tentpole: `delete` compacts survivors, delta-solves only the
    /// shards that lost points, and matches a from-scratch solve.
    #[test]
    fn delete_delta_solves_and_matches_from_scratch() {
        use emst_core::edge::weight_multiset;
        let pts = random_points_2d(500, 91);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(6, 4));
        let key = engine.ingest(&pts);
        let resp = engine.delete(key, &[3, 499, 250]).unwrap();
        assert_eq!(resp.n, 497);
        assert_eq!(resp.points.len(), 497);
        assert_eq!(resp.update.edges.len(), 496);
        let fresh = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(6, 4));
        assert_eq!(
            weight_multiset(&resp.update.edges),
            weight_multiset(&fresh.emst(&resp.points).edges),
        );
        assert_eq!(engine.stats().deletes, 1);
        // Mutation ops populate their own latency histograms.
        let text = engine.metrics_prometheus();
        assert!(text.contains("emst_serve_op_seconds_count{op=\"delete\"} 1"), "{text}");
        assert_stats_match_metrics(&engine);
    }

    /// Malformed mutations are typed `InvalidRequest` errors, rejected
    /// before any engine state changes.
    #[test]
    fn invalid_mutations_are_typed_errors() {
        let pts = random_points_2d(100, 92);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 2));
        let key = engine.ingest(&pts);
        assert!(matches!(
            engine.delete(key, &[100]),
            Err(ServeError::InvalidRequest(msg)) if msg.contains("out of range")
        ));
        assert!(matches!(
            engine.delete(key, &[5, 5]),
            Err(ServeError::InvalidRequest(msg)) if msg.contains("duplicate")
        ));
        let all: Vec<u32> = (0..99).collect();
        assert!(matches!(
            engine.delete(key, &all),
            Err(ServeError::InvalidRequest(msg)) if msg.contains("at least 2")
        ));
        // Unknown parent keys surface exactly like any by-key query.
        let missing = CloudKey { digest: 0xbeef, shards: 3, salt: 0 };
        assert!(matches!(engine.insert(missing, &pts[..1]), Err(ServeError::UnknownKey(_))));
        assert_eq!(engine.num_resident(), 1, "failed mutations admit nothing");
        let stats = engine.stats();
        assert_eq!((stats.inserts, stats.deletes), (0, 0));
    }

    /// A repeated identical mutation resolves to the already-admitted
    /// child — a cache hit with no re-derivation.
    #[test]
    fn repeated_identical_mutation_hits_the_child() {
        let pts = random_points_2d(300, 93);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 4));
        let key = engine.ingest(&pts);
        let extra = [Point::new([0.123f32, -0.456]), Point::new([0.124f32, -0.457])];
        let first = engine.insert(key, &extra).unwrap();
        assert_eq!(first.update.outcome, CacheOutcome::Miss);
        let second = engine.insert(key, &extra).unwrap();
        assert_eq!(second.key, first.key);
        assert_eq!(second.update.outcome, CacheOutcome::Hit);
        assert!(second.dirty_shards.is_empty(), "a hit re-derives nothing");
        assert_eq!(second.update.edges, first.update.edges);
        assert_eq!(engine.stats().inserts, 2);
    }

    /// `execute` speaks `Load` and `Stats` directly (the wire path).
    #[test]
    fn execute_load_and_stats_roundtrip() {
        let pts = random_points_2d(200, 94);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 2));
        let key = match engine.execute(ServeRequest::Load { points: &pts }) {
            Ok(ServeResponse::Loaded { key }) => key,
            other => panic!("expected Loaded, got {other:?}"),
        };
        assert_eq!(key, engine.key(&pts));
        match engine.execute(ServeRequest::Stats) {
            Ok(ServeResponse::Stats(s)) => {
                assert_eq!(s.resident, 1);
                assert!(s.resident_bytes > 0);
                assert_eq!(s.stats.misses, 1);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    /// A single-flight follower parks at most until its own deadline. The
    /// leader of an evicted cloud's reload sits in a 1.5 s spill-read
    /// stall; a second query for the same key on a 100 ms budget must err
    /// promptly instead of waiting out the leader.
    #[test]
    fn single_flight_follower_honors_its_deadline() {
        let mut cfg = ServeConfig::new(3, 1);
        cfg.deadline = Some(Duration::from_millis(100));
        cfg.fault_plan = Some(Arc::new(FaultPlan::parse("seed=1;read=stall:1500@1.0").unwrap()));
        let engine = ServeEngine::<_, 2>::new(Serial, cfg);
        let key = engine.ingest(&random_points_2d(2000, 95));
        engine.ingest(&random_points_2d(2000, 96)); // budget 1: evicts the first cloud
        std::thread::scope(|s| {
            let leader = s.spawn(|| engine.emst_by_key(key));
            // Follow once the leader holds the reload's lease, not after a
            // guessed sleep.
            while !engine.builds.is_open(&key) {
                assert!(!leader.is_finished(), "the leader returned before leasing the reload");
                std::thread::yield_now();
            }
            let started = Instant::now();
            let followed = engine.emst_by_key(key);
            let waited = started.elapsed();
            let err = followed.expect_err("the follower must give up");
            assert!(matches!(err, ServeError::DeadlineExceeded(k) if k == key), "{err:?}");
            // No merge ran: the message names the expiry, not a phase.
            assert_eq!(err.to_string(), format!("query deadline exceeded on cloud {key}"));
            assert!(waited < Duration::from_millis(1000), "follower waited {waited:?}");
            // The leader's own reload takes no deadline; whatever it
            // answers, it must finish.
            leader.join().unwrap().ok();
        });
        assert!(engine.stats().deadline_exceeded >= 1);
        assert_stats_match_metrics(&engine);
    }

    /// A by-key hit times its resident-list read lock like a by-points
    /// lookup does.
    #[test]
    fn by_key_hits_record_the_residents_read_lock_wait() {
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(3, 2));
        let key = engine.ingest(&random_points_2d(300, 98));
        let count = || {
            let text = engine.metrics_prometheus();
            let prefix = "emst_serve_lock_wait_seconds_count{lock=\"residents.read\"} ";
            text.lines()
                .find_map(|line| line.strip_prefix(prefix))
                .map_or(0, |v| v.parse::<u64>().unwrap())
        };
        let before = count();
        assert_eq!(engine.emst_by_key(key).unwrap().outcome, CacheOutcome::Hit);
        assert!(count() > before, "a by-key hit recorded no residents.read wait");
    }

    /// Concurrent identical mutations of one parent coalesce on a single
    /// child derivation: every reply names the same child with
    /// bit-identical edges, and the child was derived exactly once.
    #[test]
    fn concurrent_identical_mutations_share_one_child_build() {
        let pts = random_points_2d(600, 97);
        let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 4));
        let key = engine.ingest(&pts);
        let misses = engine.stats().misses;
        let extra = [Point::new([0.25f32, -0.5]), Point::new([0.26f32, -0.51])];
        // Released together, so the inserts overlap instead of queueing
        // behind thread start-up.
        let start = std::sync::Barrier::new(6);
        let replies: Vec<MutateResponse<2>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        engine.insert(key, &extra).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &replies[1..] {
            assert_eq!(r.key, replies[0].key);
            assert_eq!(r.update.edges, replies[0].update.edges);
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, misses + 1, "exactly one thread may derive the child");
        assert_eq!(engine.num_resident(), 2);
        assert_eq!(stats.inserts, 6);
        assert_stats_match_metrics(&engine);
    }
}
