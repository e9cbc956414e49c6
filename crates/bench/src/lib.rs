//! Shared machinery for the figure-regeneration benches.
//!
//! Every figure of the paper's evaluation (§4) has one `harness = false`
//! bench target in `benches/` that prints the figure's rows. Sizes are
//! scaled down from the paper's 10⁷–10⁸ points to bench scale
//! (10⁴–10⁵ by default); override with:
//!
//! - `EMST_BENCH_SCALE` — multiplies every dataset size (default 0.2);
//! - `EMST_BENCH_N` — fixes all dataset sizes to an absolute point count.
//!
//! GPU rows are **modeled**, not measured: the run executes on the
//! instrumented [`GpuSim`] backend and an analytic [`DeviceModel`] converts
//! counted work into device time (see the `emst_exec::device` module docs
//! for the model and its calibration, and README's "Benches" section).

pub mod snapshot;

use std::io::{self, Write};

use emst_core::{EmstConfig, SingleTreeBoruvka};
use emst_datasets::PointCloud;
use emst_exec::{DeviceModel, ExecSpace, GpuSim, Serial, Threads};
use emst_geometry::Point;

/// Runs a bench binary's `body` against a locked stdout, flushed at the
/// end. A failed write (a reader that closed the pipe early, say) comes
/// back as `stdout: <error>` for the binary to report and exit on, where
/// `println!` would panic.
pub fn to_stdout<T>(body: impl FnOnce(&mut dyn Write) -> io::Result<T>) -> Result<T, String> {
    let mut out = io::stdout().lock();
    body(&mut out).and_then(|t| out.flush().map(|()| t)).map_err(|e| format!("stdout: {e}"))
}

/// The dataset scale factor (`EMST_BENCH_SCALE`, default 0.2).
pub fn bench_scale() -> f64 {
    std::env::var("EMST_BENCH_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(0.2)
}

/// Absolute dataset size override (`EMST_BENCH_N`).
pub fn bench_n_override() -> Option<usize> {
    std::env::var("EMST_BENCH_N").ok().and_then(|v| v.parse().ok())
}

/// The paper's rate metric: millions of features (`n × d`) per second.
pub fn mfeatures_per_sec(features: usize, seconds: f64) -> f64 {
    features as f64 / seconds / 1e6
}

/// Applies `f2`/`f3` to a dimension-erased cloud.
pub fn with_cloud<R>(
    cloud: &PointCloud,
    f2: impl FnOnce(&[Point<2>]) -> R,
    f3: impl FnOnce(&[Point<3>]) -> R,
) -> R {
    match cloud {
        PointCloud::D2(v) => f2(v),
        PointCloud::D3(v) => f3(v),
    }
}

/// Wall-clock seconds of a single-tree EMST run (`(total, tree, mst)`).
pub fn single_tree_wall<S: ExecSpace, const D: usize>(
    points: &[Point<D>],
    space: &S,
) -> (f64, f64, f64) {
    let r = SingleTreeBoruvka::new(points).run(space, &EmstConfig::default());
    let tree = r.timings.get("tree");
    let mst = r.timings.get("mst");
    (tree + mst, tree, mst)
}

/// Modeled device seconds of a single-tree EMST run (`(total, tree, mst)`).
///
/// Executes the identical kernels on the host ([`GpuSim`]), then prices the
/// recorded launches/visits/distances/bytes with the device model.
pub fn single_tree_modeled<const D: usize>(
    points: &[Point<D>],
    model: &DeviceModel,
) -> (f64, f64, f64) {
    let gpu = GpuSim::new();
    let r = SingleTreeBoruvka::new(points).run(&gpu, &EmstConfig::default());
    let tree = model.time(r.launches_tree.0, r.launches_tree.1, &r.work_tree).total_s();
    let mst = model.time(r.launches_mst.0, r.launches_mst.1, &r.work_mst()).total_s();
    (tree + mst, tree, mst)
}

/// Single-tree EMST rate for an erased cloud on a wall-clock backend.
pub fn single_tree_rate_wall<S: ExecSpace>(cloud: &PointCloud, space: &S) -> f64 {
    let secs =
        with_cloud(cloud, |p| single_tree_wall(p, space).0, |p| single_tree_wall(p, space).0);
    mfeatures_per_sec(cloud.features(), secs)
}

/// Single-tree EMST rate for an erased cloud under a device model.
pub fn single_tree_rate_modeled(cloud: &PointCloud, model: &DeviceModel) -> f64 {
    let secs =
        with_cloud(cloud, |p| single_tree_modeled(p, model).0, |p| single_tree_modeled(p, model).0);
    mfeatures_per_sec(cloud.features(), secs)
}

/// MemoGFK-like rate for an erased cloud.
pub fn wspd_rate(cloud: &PointCloud, parallel: bool) -> f64 {
    let secs =
        with_cloud(cloud, |p| wspd_total_secs(p, parallel), |p| wspd_total_secs(p, parallel));
    mfeatures_per_sec(cloud.features(), secs)
}

/// Total seconds of a MemoGFK-like run.
pub fn wspd_total_secs<const D: usize>(points: &[Point<D>], parallel: bool) -> f64 {
    let r = emst_wspd::wspd_emst(points, parallel);
    r.timings.total()
}

/// MLPACK-like (dual-tree, sequential) rate for an erased cloud.
pub fn dual_tree_rate(cloud: &PointCloud) -> f64 {
    let secs = with_cloud(
        cloud,
        |p| emst_kdtree::dual_tree_emst(p).timings.total(),
        |p| emst_kdtree::dual_tree_emst(p).timings.total(),
    );
    mfeatures_per_sec(cloud.features(), secs)
}

/// Cross-checks that all three implementations agree on the MST weight for
/// the given cloud (cheap insurance that the benches measure the same
/// problem). Panics on mismatch.
pub fn assert_agreement(cloud: &PointCloud) {
    fn check<const D: usize>(points: &[Point<D>]) {
        let a = SingleTreeBoruvka::new(points).run(&Threads, &EmstConfig::default()).total_weight;
        let b = emst_wspd::wspd_emst(points, true).total_weight;
        let rel = ((a - b) / a.max(1e-30)).abs();
        assert!(rel < 1e-5, "single-tree {a} vs wspd {b}");
    }
    with_cloud(cloud, check::<2>, check::<3>);
}

/// Convenience: run something and return seconds.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Serial single-tree rate (used by Fig. 1/5).
pub fn single_tree_rate_serial(cloud: &PointCloud) -> f64 {
    single_tree_rate_wall(cloud, &Serial)
}

/// Threads single-tree rate (used by Fig. 1/6). On a single-threaded rayon
/// pool this degrades to the Serial backend — fork/join overhead without
/// parallelism would only add noise (OpenMP with one thread behaves the
/// same way).
pub fn single_tree_rate_threads(cloud: &PointCloud) -> f64 {
    if rayon::current_num_threads() > 1 {
        single_tree_rate_wall(cloud, &Threads)
    } else {
        single_tree_rate_wall(cloud, &Serial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_datasets::PaperDataset;

    #[test]
    fn rates_are_positive_and_agree() {
        let cloud = PaperDataset::Hacc37M.generate(3000, 1);
        assert_agreement(&cloud);
        assert!(single_tree_rate_serial(&cloud) > 0.0);
        assert!(wspd_rate(&cloud, false) > 0.0);
        assert!(dual_tree_rate(&cloud) > 0.0);
        let model = DeviceModel::a100_like();
        assert!(single_tree_rate_modeled(&cloud, &model) > 0.0);
    }

    #[test]
    fn mfeatures_math() {
        assert_eq!(mfeatures_per_sec(3_000_000, 1.0), 3.0);
        assert_eq!(mfeatures_per_sec(1_000_000, 0.5), 2.0);
    }
}
