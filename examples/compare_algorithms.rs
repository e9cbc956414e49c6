//! Runs all three EMST algorithms of the paper's evaluation on the same
//! input and verifies they agree — then prints their times and work counts.
//!
//! ```text
//! cargo run --release --example compare_algorithms [n]
//! ```

use emst::core::edge::weight_multiset;
use emst::core::{EmstConfig, SingleTreeBoruvka};
use emst::datasets::Kind;
use emst::exec::{Serial, Threads};
use emst::geometry::Point;
use emst::kdtree::dual_tree_emst;
use emst::wspd::wspd_emst;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(100_000);
    let points: Vec<Point<2>> = Kind::Normal.generate(n, 3);
    println!("n = {n} 2D normal points\n");

    let t0 = std::time::Instant::now();
    let single = SingleTreeBoruvka::new(&points).run(&Threads, &EmstConfig::default());
    let t_single = t0.elapsed().as_secs_f64();
    println!(
        "single-tree Borůvka (this paper):  {:8.3} s   weight {:.4}   {} iterations, {} distance computations",
        t_single, single.total_weight, single.iterations, single.work.distance_computations
    );

    let t0 = std::time::Instant::now();
    let wspd = wspd_emst(&points, true);
    let t_wspd = t0.elapsed().as_secs_f64();
    println!(
        "WSPD GeoFilterKruskal (MemoGFK):   {:8.3} s   weight {:.4}   {}/{} BCPs computed, {} distance computations",
        t_wspd, wspd.total_weight, wspd.bcps_computed, wspd.num_pairs, wspd.distance_computations
    );

    let t0 = std::time::Instant::now();
    let dual = dual_tree_emst(&points);
    let t_dual = t0.elapsed().as_secs_f64();
    println!(
        "dual-tree Borůvka (MLPACK):        {:8.3} s   weight {:.4}   {} iterations, {} distance computations",
        t_dual, dual.total_weight, dual.iterations, dual.distance_computations
    );

    // All three must produce minimum spanning trees: identical weight
    // multisets (tie-breaking may pick different edges of equal weight).
    assert_eq!(weight_multiset(&single.edges), weight_multiset(&wspd.edges));
    assert_eq!(weight_multiset(&single.edges), weight_multiset(&dual.edges));
    println!("\nall three trees agree (identical weight multisets)");

    // Bonus: the 1978 Bentley–Friedman reference on a subsample.
    let m = n.min(20_000);
    let sub = &points[..m];
    let t0 = std::time::Instant::now();
    let bf = emst::kdtree::bentley_friedman_emst(sub);
    let ref_run = SingleTreeBoruvka::new(sub).run(&Serial, &EmstConfig::default());
    assert_eq!(weight_multiset(&bf), weight_multiset(&ref_run.edges));
    println!(
        "Bentley-Friedman 1978 (n = {m}):    {:8.3} s   (agrees too)",
        t0.elapsed().as_secs_f64()
    );
}
