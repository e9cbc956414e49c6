//! Tree-structure study (the paper's §3 design choice): the same single-tree
//! Borůvka algorithm over the linear BVH (the paper's choice) vs a k-d tree,
//! plus the Bentley–Friedman 1978 strawman the paper's introduction
//! motivates against.
//!
//! Expectation: BVH and kd-tree are within a small factor of each other
//! (the algorithm is tree-agnostic); Bentley–Friedman loses badly because
//! its per-point queries repeat work across Prim steps — the "excessive
//! number of distance calculations" of §1.

use emst_bench::*;
use emst_core::{EmstConfig, SingleTreeBoruvka};
use emst_datasets::Kind;
use emst_exec::Serial;
use emst_geometry::Point;
use emst_kdtree::{bentley_friedman_emst, kd_single_tree_emst};

fn main() {
    let scale = bench_scale();
    let n = bench_n_override().unwrap_or((60_000.0 * scale * 5.0) as usize);
    println!("# Tree structures: single-tree Borůvka over BVH vs k-d tree (n = {n}, sequential)");
    println!();
    println!("{:<16} {:>14} {:>14} {:>18}", "dataset", "BVH", "k-d tree", "Bentley-Friedman");
    for (name, kind) in [
        ("Uniform-2D", Kind::Uniform),
        ("Normal-2D", Kind::Normal),
        ("Hacc-like-2D", Kind::HaccLike),
        ("Ngsim-like-2D", Kind::NgsimLike),
    ] {
        let points: Vec<Point<2>> = kind.generate(n, 0x7EE);
        let (_, t_bvh) =
            time_it(|| SingleTreeBoruvka::new(&points).run(&Serial, &EmstConfig::default()));
        let (_, t_kd) = time_it(|| kd_single_tree_emst(&points));
        // Bentley-Friedman is quadratic-ish in bad cases; cap its input.
        let m = n.min(30_000);
        let (_, t_bf_raw) = time_it(|| bentley_friedman_emst(&points[..m]));
        let t_bf = t_bf_raw * (n as f64 / m as f64); // linear extrapolation (optimistic)
        println!("{:<16} {:>12.3} s {:>12.3} s {:>15.3} s*", name, t_bvh, t_kd, t_bf);
    }
    println!();
    println!("# * Bentley-Friedman extrapolated linearly from n = min(n, 30000) — optimistic.");
}
