//! Concurrent serving: N threads sharing one engine by reference.
//!
//! ```text
//! cargo run --release --example concurrent_serving [n] [threads]
//! ```
//!
//! Every query method of [`emst::serve::ServeEngine`] takes `&self`, so a
//! warm engine can be hammered from plain scoped threads — no channels, no
//! per-thread engines, no external executor. This example pre-warms one
//! cloud, then drives mixed traffic (full EMST, subset, k-NN) from
//! `threads` workers at once and checks three things:
//!
//! - every concurrent answer is bit-identical to the single-threaded one
//!   (residents are immutable after admission, so no interleaving can
//!   change an answer);
//! - exactly one build ran, no matter how many threads raced the first
//!   miss (single-flight coalescing);
//! - aggregate warm throughput, which scales with physical cores — on a
//!   single-CPU host the threads interleave and ~1x is expected.

use std::time::Instant;

use emst::exec::Serial;
use emst::geometry::Point;
use emst::serve::{ServeConfig, ServeEngine};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(50_000);
    let threads: usize = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(4);
    let queries_per_thread = 4;

    let points = emst::datasets::Kind::HaccLike.generate::<2>(n, 7);
    // Serial backend per query: the worker threads are the parallelism.
    let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 2));
    let subset: Vec<u32> = (n as u32 / 4..3 * n as u32 / 4).collect();
    let probe = Point::new([0.5f32, 0.5]);

    // Single-threaded reference answers (also warms the cache, so the
    // timed section below measures pure warm traffic).
    let reference = engine.emst(&points);
    let reference_sub = engine.emst_subset(&points, &subset);
    let reference_knn = engine.k_nearest(&points, &probe, 5);

    let t = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..threads {
            let (engine, points, subset, reference, reference_sub, reference_knn) =
                (&engine, &points, &subset, &reference, &reference_sub, &reference_knn);
            s.spawn(move || {
                for round in 0..queries_per_thread {
                    match (worker + round) % 3 {
                        0 => {
                            let q = engine.emst(points);
                            assert_eq!(q.edges, reference.edges, "concurrent EMST must be exact");
                        }
                        1 => {
                            let q = engine.emst_subset(points, subset);
                            assert_eq!(q.edges, reference_sub.edges);
                        }
                        _ => {
                            let q = engine.k_nearest(points, &probe, 5);
                            assert_eq!(q.neighbors, reference_knn.neighbors);
                        }
                    }
                }
            });
        }
    });
    let secs = t.elapsed().as_secs_f64();
    let total = threads * queries_per_thread;

    let stats = engine.stats();
    let cpus = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!(
        "{total} warm queries from {threads} threads in {secs:.3} s \
         ({:.1} queries/s on {cpus} CPU core(s))",
        total as f64 / secs,
    );
    println!(
        "engine stats: {} hits, {} misses (exactly one build), {} coalesced, \
         {} digest collisions, {} spill failures",
        stats.hits, stats.misses, stats.coalesced, stats.digest_collisions, stats.spill_failures,
    );
    assert_eq!(stats.misses, 1, "single-flight: only the first miss builds");
    println!("every concurrent answer was bit-identical to the single-threaded reference");
}
