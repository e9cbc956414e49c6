//! HDBSCAN* clustering on variable-density data (the paper's §4.5 workload,
//! taken all the way to cluster labels).
//!
//! ```text
//! cargo run --release --example clustering_hdbscan [n] [k_pts] [min_cluster_size]
//! ```

use emst::datasets::Kind;
use emst::exec::Threads;
use emst::geometry::Point;
use emst::hdbscan::{Hdbscan, NOISE};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(50_000);
    let k_pts: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(8);
    let min_cluster_size: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(50);

    let points: Vec<Point<2>> = Kind::VisualVar.generate(n, 99);
    println!("clustering {n} variable-density points (k_pts={k_pts}, mcs={min_cluster_size})");

    let result = Hdbscan { k_pts, min_cluster_size }.fit(&Threads, &points);

    println!("phases:");
    for (name, secs) in result.timings.iter() {
        println!("  {name:<18} {:8.1} ms", secs * 1e3);
    }

    let noise = result.labels.iter().filter(|&&l| l == NOISE).count();
    println!(
        "found {} clusters; {noise} noise points ({:.1}%)",
        result.num_clusters,
        100.0 * noise as f64 / n as f64
    );

    // Cluster census.
    let mut sizes = vec![0usize; result.num_clusters];
    for &l in &result.labels {
        if l != NOISE {
            sizes[l as usize] += 1;
        }
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("largest clusters: {:?}", &sizes[..sizes.len().min(10)]);

    // The mutual-reachability MST is available too (e.g. for plotting).
    println!(
        "MRD-MST: {} edges, total weight {:.4}",
        result.mst.len(),
        emst::core::edge::total_weight(&result.mst)
    );
}
