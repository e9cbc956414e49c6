//! Trajectory connectivity: EMST of NGSIM-like highway GPS points.
//!
//! Vehicle-trajectory datasets are a core workload in the paper's
//! evaluation (NGSIM, PortoTaxi). The EMST of such data reveals road
//! connectivity: within-corridor edges are short, and the handful of long
//! edges are exactly the gaps between distinct corridors.
//!
//! ```text
//! cargo run --release --example trajectory [n]
//! ```

use emst::core::{EmstConfig, SingleTreeBoruvka};
use emst::datasets::Kind;
use emst::exec::Threads;
use emst::geometry::Point;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(150_000);
    let points: Vec<Point<2>> = Kind::NgsimLike.generate(n, 2024);
    println!("{n} NGSIM-like trajectory points across 3 highway corridors");

    let result = SingleTreeBoruvka::new(&points).run(&Threads, &EmstConfig::default());
    println!(
        "EMST: {:.2} s, {:.2} MFeatures/s",
        result.timings.total(),
        (2 * n) as f64 / result.timings.total() / 1e6
    );

    // The corridors are separated by >1 unit; intra-corridor point spacing
    // is orders of magnitude smaller. Count the bridge edges.
    let mut lengths: Vec<f32> = result.edges.iter().map(|e| e.weight()).collect();
    lengths.sort_by(f32::total_cmp);
    let median = lengths[lengths.len() / 2];
    let bridges: Vec<&emst::core::Edge> =
        result.edges.iter().filter(|e| e.weight() > 0.5).collect();
    println!("median edge length: {median:.5}");
    println!("corridor-bridging edges (length > 0.5): {}", bridges.len());
    for b in &bridges {
        println!("  bridge: {:.3} units between points {} and {}", b.weight(), b.u, b.v);
    }
    // Three corridors need exactly two bridges.
    assert_eq!(bridges.len(), 2, "three corridors must be joined by two long edges");
    println!("=> the EMST recovered the 3-corridor structure (2 bridges)");
}
