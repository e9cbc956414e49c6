//! Figure 6: parallel performance (MFeatures/sec) across the twelve
//! datasets: MemoGFK multithreaded, ArborX multithreaded, and ArborX on the
//! two modeled devices.
//!
//! Paper shape to reproduce: ArborX on the A100 is 4–24× the multithreaded
//! MemoGFK (45–270 MFeat/s); the MI250X single GCD tracks the A100
//! qualitatively at ~0.6–0.7×; RoadNetwork3D underperforms on the device
//! because it is too small to saturate it; best case is Hacc37M, worst is
//! GeoLife24M3D.

use emst_bench::*;
use emst_datasets::PaperDataset;
use emst_exec::DeviceModel;

fn main() {
    let scale = bench_scale();
    let a100 = DeviceModel::a100_like();
    let mi = DeviceModel::mi250x_gcd_like();
    println!("# Figure 6: parallel EMST performance (MFeatures/sec)");
    println!("# scale = {scale}; device columns are modeled (crates/exec/src/device.rs)");
    println!();
    println!(
        "{:<16} {:>8} {:>4} {:>12} {:>12} {:>14} {:>16}",
        "dataset", "n", "dim", "MemoGFK(MT)", "ArborX(MT)", "ArborX(A100~)", "ArborX(MI250X~)"
    );
    let mut speedups: Vec<f64> = vec![];
    for ds in PaperDataset::FIGURE56 {
        let n = bench_n_override().unwrap_or(ds.scaled_size(scale));
        let cloud = ds.generate(n, 0xF16);
        let gfk = wspd_rate(&cloud, true);
        let arborx_mt = single_tree_rate_threads(&cloud);
        let arborx_a100 = single_tree_rate_modeled(&cloud, &a100);
        let arborx_mi = single_tree_rate_modeled(&cloud, &mi);
        speedups.push(arborx_a100 / gfk);
        println!(
            "{:<16} {:>8} {:>4} {:>12.2} {:>12.2} {:>14.2} {:>16.2}",
            ds.name(),
            n,
            cloud.dim(),
            gfk,
            arborx_mt,
            arborx_a100,
            arborx_mi
        );
    }
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().copied().fold(0.0, f64::max);
    println!();
    println!("# A100-model over MemoGFK(MT): {min:.1}x - {max:.1}x  (paper: 4x - 24x)");
    println!("# paper (Fig. 6): MemoGFK(MT) 6-16, ArborX(MT) 1-17, A100 45-270, MI250X 21-180");
}
