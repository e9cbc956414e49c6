//! Serving: warm-cache repeated queries against a resident cloud.
//!
//! ```text
//! cargo run --release --example serving [n] [shards]
//! ```
//!
//! Ingests a cosmology-like cloud into a [`emst::serve::ServeEngine`] and
//! answers the same full-EMST query twice: cold (plan + per-shard local
//! solves + BVH builds + cross-shard merge) and warm (merge only — the
//! resident artifacts make the local phase free). Then it shows the other
//! query shapes riding the same resident state: a subset EMST, k-NN, and
//! an HDBSCAN* parameter sweep on the warm scratch pool.

use std::time::Instant;

use emst::exec::Threads;
use emst::geometry::Point;
use emst::hdbscan::Hdbscan;
use emst::serve::{CacheOutcome, ServeConfig, ServeEngine};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(100_000);
    let shards: usize = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(4);

    let points = emst::datasets::Kind::HaccLike.generate::<2>(n, 7);
    let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 2));

    // Cold: the first query pays the full build (what every request would
    // cost without the cache).
    let t = Instant::now();
    let cold = engine.emst(&points);
    let cold_s = t.elapsed().as_secs_f64();
    assert_eq!(cold.outcome, CacheOutcome::Miss);
    println!(
        "cold  query: {cold_s:.4} s  (plan {:.4} s + local {:.4} s + merge {:.4} s), \
         weight {:.6}",
        cold.timings.get("plan"),
        cold.timings.get("local"),
        cold.timings.get("merge"),
        cold.total_weight,
    );

    // Warm: the cloud is resident, so the repeat query is merge-only and
    // the answer is bit-identical.
    let t = Instant::now();
    let warm = engine.emst(&points);
    let warm_s = t.elapsed().as_secs_f64();
    assert_eq!(warm.outcome, CacheOutcome::Hit);
    assert!(warm.build_work.is_zero(), "warm query must skip the local phase");
    assert_eq!(warm.edges, cold.edges, "warm answer must be bit-identical");
    println!(
        "warm  query: {warm_s:.4} s  (merge only, zero build work)   speedup {:.1}x",
        cold_s / warm_s
    );

    // Subset EMST over the middle half: fully-covered shards reuse their
    // resident BVH + local MST, only the boundary shards re-solve.
    let subset: Vec<u32> = (n as u32 / 4..3 * n as u32 / 4).collect();
    let t = Instant::now();
    let sub = engine.emst_subset(&points, &subset);
    println!(
        "subset query: {:.4} s  ({} of {n} points; boundary re-solves {:.4} s, merge {:.4} s)",
        t.elapsed().as_secs_f64(),
        subset.len(),
        sub.timings.get("local"),
        sub.timings.get("merge"),
    );

    // k-NN from the resident per-shard BVHs.
    let q = Point::new([0.5f32, 0.5]);
    let knn = engine.k_nearest(&points, &q, 5);
    let ids: Vec<u32> = knn.neighbors.iter().map(|(i, _)| *i).collect();
    println!(
        "knn   query: nearest 5 to {q:?} -> {ids:?} ({} node visits)",
        knn.query_work.node_visits
    );

    // HDBSCAN* sweeps reuse the cloud's warm Borůvka scratch pool.
    for min_cluster_size in [20, 50] {
        let t = Instant::now();
        let r = engine.hdbscan(&points, Hdbscan { k_pts: 5, min_cluster_size });
        println!(
            "hdbscan(mcs={min_cluster_size}): {:.4} s, {} clusters",
            t.elapsed().as_secs_f64(),
            r.result.num_clusters
        );
    }

    let stats = engine.stats();
    println!(
        "engine stats: {} hits, {} misses, {} resident cloud(s), {:.1} MiB resident",
        stats.hits,
        stats.misses,
        engine.num_resident(),
        engine.resident_bytes() as f64 / (1024.0 * 1024.0),
    );
}
