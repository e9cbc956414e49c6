//! Cosmology workload: MST statistics of a HACC-like particle snapshot.
//!
//! The paper's motivating application (§1) is analysing cosmological
//! simulation output; MST statistics are an established probe of the cosmic
//! web (Naidoo et al. 2020). This example computes the EMST of a halo-rich
//! synthetic snapshot and reports the classic MST summary statistics:
//! edge-length distribution and the long-edge "filament" fraction.
//!
//! ```text
//! cargo run --release --example cosmology [n]
//! ```

use emst::core::{EmstConfig, SingleTreeBoruvka};
use emst::datasets::Kind;
use emst::exec::Threads;
use emst::geometry::Point;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(200_000);
    let points: Vec<Point<3>> = Kind::HaccLike.generate(n, 7);
    println!("generated {n} HACC-like particles");

    let result = SingleTreeBoruvka::new(&points).run(&Threads, &EmstConfig::default());
    println!(
        "EMST computed in {:.2} s ({:.2} MFeatures/s), {} iterations",
        result.timings.total(),
        (n * 3) as f64 / result.timings.total() / 1e6,
        result.iterations
    );

    // Edge-length distribution (the cosmology statistic).
    let mut lengths: Vec<f32> = result.edges.iter().map(|e| e.weight()).collect();
    lengths.sort_by(f32::total_cmp);
    let pct = |p: f64| lengths[((lengths.len() - 1) as f64 * p) as usize];
    println!("edge length percentiles:");
    for (label, p) in
        [("5%", 0.05), ("25%", 0.25), ("50%", 0.50), ("75%", 0.75), ("95%", 0.95), ("99%", 0.99)]
    {
        println!("  {label:>4}: {:.6}", pct(p));
    }
    let mean: f64 = lengths.iter().map(|&l| l as f64).sum::<f64>() / lengths.len() as f64;
    println!("  mean: {mean:.6}");

    // Long edges connect halos (inter-cluster "filaments"); short edges live
    // inside halos. The knee of the distribution separates the two regimes.
    let threshold = 4.0 * pct(0.5);
    let long_edges = lengths.iter().filter(|&&l| l > threshold).count();
    println!(
        "{long_edges} edges ({:.2}%) longer than 4x the median — inter-halo connections",
        100.0 * long_edges as f64 / lengths.len() as f64
    );

    // Halo proxy count: cutting the long edges decomposes the MST into
    // clusters (exactly how MST-based cluster finders work).
    println!("cutting them decomposes the snapshot into {} groups", long_edges + 1);
}
