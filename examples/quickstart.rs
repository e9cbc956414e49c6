//! Quickstart: compute a Euclidean minimum spanning tree.
//!
//! ```text
//! cargo run --release --example quickstart [n]
//! ```

use emst::core::{EmstConfig, SingleTreeBoruvka};
use emst::datasets::Kind;
use emst::exec::Threads;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(100_000);

    // 1. Get some points (any `&[Point<D>]` works; here: a seeded uniform
    //    cloud in the unit square).
    let points = Kind::Uniform.generate::<2>(n, 42);

    // 2. Run the single-tree Borůvka EMST. Pick an execution space:
    //    `Serial`, `Threads` (rayon) or `GpuSim` (instrumented).
    let result = SingleTreeBoruvka::new(&points).run(&Threads, &EmstConfig::default());

    // 3. Use the tree.
    println!("points:          {n}");
    println!("edges:           {}", result.edges.len());
    println!("total weight:    {:.6}", result.total_weight);
    println!("iterations:      {}", result.iterations);
    println!(
        "build/solve:     {:.1} ms / {:.1} ms",
        result.timings.get("tree") * 1e3,
        result.timings.get("mst") * 1e3
    );
    let longest =
        result.edges.iter().max_by(|a, b| a.weight_sq.total_cmp(&b.weight_sq)).expect("n >= 2");
    println!(
        "longest edge:    {:.6} (between points {} and {})",
        longest.weight(),
        longest.u,
        longest.v
    );

    // Sanity: the result is a spanning tree.
    emst::core::verify_spanning_tree(n, &result.edges).expect("valid spanning tree");
}
