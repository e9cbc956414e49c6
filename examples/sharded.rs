//! Scaling out: the Morton-range sharded EMST and its out-of-core path.
//!
//! ```text
//! cargo run --release --example sharded [n] [shards]
//! ```
//!
//! Runs the monolithic single-tree solve and the sharded solver on the same
//! cosmology-like cloud, shows they agree exactly, and then re-solves the
//! same points by streaming them from a CSV file with a residency cap —
//! demonstrating that the input never needs to be fully in memory.

use emst::core::{EmstConfig, SingleTreeBoruvka};
use emst::datasets::{save_csv, Kind};
use emst::exec::Threads;
use emst::shard::{emst_sharded, emst_sharded_csv, StreamConfig};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(50_000);
    let shards: usize = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(8);

    let points = Kind::HaccLike.generate::<3>(n, 7);

    // Baseline: the paper's monolithic single-tree solve.
    let mono = SingleTreeBoruvka::new(&points).run(&Threads, &EmstConfig::default());
    println!("monolithic:   weight {:.6} ({} edges)", mono.total_weight, mono.edges.len());

    // Sharded: K local solves in parallel + cross-shard Borůvka merge.
    let sharded = emst_sharded(&points, shards);
    println!(
        "sharded K={shards}: weight {:.6} ({} edges)",
        sharded.total_weight,
        sharded.edges.len()
    );
    assert_weights_match(sharded.total_weight, mono.total_weight);
    let s = &sharded.stats;
    println!(
        "  shard sizes {:?}\n  merge rounds {}, boundary candidates {} ({:.2}% of cross queries)",
        s.shard_sizes,
        s.merge_rounds,
        s.boundary_candidates,
        100.0 * s.boundary_candidates as f64 / s.work.queries.max(1) as f64,
    );
    println!(
        "  plan {:.1} ms, local {:.1} ms, merge {:.1} ms",
        s.timings.get("plan") * 1e3,
        s.timings.get("local") * 1e3,
        s.timings.get("merge") * 1e3,
    );

    // Out-of-core: stream the same cloud from CSV with a residency cap of
    // a quarter of the input; shards are derived from the cap.
    let mut path = std::env::temp_dir();
    path.push(format!("emst-sharded-example-{}.csv", std::process::id()));
    save_csv(&path, &points).expect("write CSV");
    let cap = (n / 4).max(2);
    let streamed = emst_sharded_csv::<_, 3>(&Threads, &path, &StreamConfig::new(0, cap))
        .expect("streamed solve");
    std::fs::remove_file(&path).ok();
    println!(
        "out-of-core:  weight {:.6} via {} shards, peak resident {} of {n} points (cap {cap})",
        streamed.total_weight,
        streamed.stats.shard_sizes.len(),
        streamed.stats.peak_resident,
    );
    assert_weights_match(streamed.total_weight, mono.total_weight);
    println!("all three solves agree.");
}

/// The edge-weight multisets are identical, but `total_weight` sums them in
/// edge order, so the f64 accumulations may differ in the last few ulps.
fn assert_weights_match(a: f64, b: f64) {
    assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "weights diverged: {a} vs {b}");
}
