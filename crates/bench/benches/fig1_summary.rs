//! Figure 1: performance summary (MFeatures/sec) for the dual-tree
//! (MLPACK-like), WSPD (MemoGFK-like) and single-tree (this work)
//! approaches on the HACC-like 3D cosmology dataset, across the three
//! platforms: Sequential, Multithreaded, and GPU (modeled).
//!
//! Paper values for Hacc37M: Sequential — MLPACK 0.2, MemoGFK 0.7,
//! ArborX 0.8; Multithreaded — MemoGFK 16.3, ArborX 17.1; GPU — ArborX
//! 270.7 (A100) and 180.3 (MI250X single GCD).

use emst_bench::*;
use emst_datasets::PaperDataset;
use emst_exec::DeviceModel;

fn main() {
    let scale = bench_scale();
    let n = bench_n_override().unwrap_or(PaperDataset::Hacc37M.scaled_size(scale));
    let cloud = PaperDataset::Hacc37M.generate(n, 37);
    assert_agreement(&cloud);

    println!("# Figure 1: EMST performance summary on Hacc37M-like data");
    println!("# n = {n} points, d = {}, rates in MFeatures/sec", cloud.dim());
    println!("# (GPU rows are modeled from counted work; see crates/exec/src/device.rs)");
    println!();
    println!("{:<36} {:>12}", "configuration", "MFeat/s");

    let seq_mlpack = dual_tree_rate(&cloud);
    println!("{:<36} {:>12.3}", "Sequential  MLPACK-like (dual-tree)", seq_mlpack);
    let seq_gfk = wspd_rate(&cloud, false);
    println!("{:<36} {:>12.3}", "Sequential  MemoGFK-like (WSPD)", seq_gfk);
    let seq_arborx = single_tree_rate_serial(&cloud);
    println!("{:<36} {:>12.3}", "Sequential  ArborX-like (this work)", seq_arborx);

    let mt_gfk = wspd_rate(&cloud, true);
    println!("{:<36} {:>12.3}", "Multithread MemoGFK-like (WSPD)", mt_gfk);
    let mt_arborx = single_tree_rate_threads(&cloud);
    println!("{:<36} {:>12.3}", "Multithread ArborX-like (this work)", mt_arborx);

    let gpu_a100 = single_tree_rate_modeled(&cloud, &DeviceModel::a100_like());
    println!("{:<36} {:>12.3}", "GPU-model   ArborX-like (A100-like)", gpu_a100);
    let gpu_mi = single_tree_rate_modeled(&cloud, &DeviceModel::mi250x_gcd_like());
    println!("{:<36} {:>12.3}", "GPU-model   ArborX-like (MI250X-GCD)", gpu_mi);

    println!();
    println!("# shape checks (paper: GPU 4-24x over best MT; MT ArborX within 0.5-2x of MemoGFK;");
    println!("#               MI250X-GCD ~0.6-0.7x of A100)");
    println!("gpu_over_best_mt      = {:.2}x", gpu_a100 / mt_gfk.max(mt_arborx));
    println!("arborx_mt_vs_memogfk  = {:.2}x", mt_arborx / mt_gfk);
    println!("mi250x_vs_a100        = {:.2}x", gpu_mi / gpu_a100);
}
