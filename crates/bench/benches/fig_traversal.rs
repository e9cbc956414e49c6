//! Traversal ablation (ours): the seed per-query-stack walker vs the
//! stackless rope traversal over the 4-wide SoA tree, on the `Threads`
//! backend, across the three dataset archetypes of the hot-path study —
//! uniform, clustered (variable-density), and GeoLife-style dense — at
//! three decades of n.
//!
//! The paper's traversal (Algorithm 2) is stack-based; ArborX itself later
//! moved to rope-linked stackless traversal, and this bench quantifies why:
//! no per-query 1 KiB stack, half the tree levels (4-wide collapse), and
//! vectorized child-box tests. The acceptance bar for the refactor is a
//! ≥ 1.3× median speedup of the `mst.find_edges` phase.
//!
//! Pass `--json <path>` (after `--`) to also write the measured grid as an
//! `emst-bench-snapshot/1` JSON (see `docs/bench-snapshot.md`). `cargo
//! bench` runs this binary in `crates/bench`, so a relative path lands
//! there. `perf_snapshot` is the richer entry point for committed
//! `BENCH_*.json` files.

use emst_bench::snapshot::{grid, measure_traversal_cell, Snapshot, TRAVERSAL_GENERATORS};
use emst_bench::{bench_n_override, bench_scale};

fn main() {
    let scale = bench_scale();
    let sizes: Vec<usize> = match bench_n_override() {
        Some(n) => vec![n],
        None => [10_000usize, 100_000, 1_000_000]
            .iter()
            .map(|&n| ((n as f64 * scale * 5.0) as usize).max(1_000))
            .collect(),
    };
    let repeats = 3;

    let cells = grid(&TRAVERSAL_GENERATORS, &sizes, |g, kind, n| {
        [measure_traversal_cell(g, kind, n, repeats)]
    });
    let mut speedups: Vec<f64> = cells.iter().map(|c| c.num("speedup_find_edges")).collect();
    let mut snap = Snapshot { repeats, sections: vec![] };
    let title =
        format!("Traversal ablation: stack vs stackless/SoA (Threads backend, {repeats} repeats)");
    snap.section("traversal", &title, cells);
    speedups.sort_by(f64::total_cmp);
    let median = speedups[speedups.len() / 2];
    println!();
    println!("median find_edges speedup = {median:.2}x (target >= 1.30x)");

    if let Some(pos) = std::env::args().position(|a| a == "--json") {
        if let Some(path) = std::env::args().nth(pos + 1) {
            snap.write(std::path::Path::new(&path)).expect("write JSON");
            eprintln!("wrote {path}");
        }
    }
}
