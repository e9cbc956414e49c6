//! `solve-hacc`: repeated cold monolithic solves of one HACC-like cloud,
//! plus the kernel layers (`emst_bvh`, `emst_core`, `emst_exec`) that the
//! traced runs of this and the mutation workload report.

use std::hint::black_box;
use std::time::Instant;

use emst_bvh::Bvh;
use emst_core::boruvka::run_boruvka_scratch;
use emst_core::{verify_spanning_tree, BoruvkaScratch, EmstConfig, SingleTreeBoruvka};
use emst_datasets::Kind;
use emst_exec::{Counters, PhaseTimings, Serial, Threads};
use emst_geometry::{Euclidean, Point};

use crate::stats::{median, parts_add_up, quantile, ratio};
use crate::{cold_setups, peak_rss_mb, Options, Report};

/// Points in the solve-hacc cloud.
pub const N: usize = 1_000_000;

/// Relative total-weight agreement demanded of the dual-tree oracle.
const WEIGHT_TOLERANCE: f64 = 1e-6;

/// How far `bvh.build_s + core.boruvka_s` may stray from the median
/// end-to-end solve time before the traced run fails.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

/// Traced decompositions of the solve-hacc cloud per run (medians are
/// reported).
const TRACE_REPS: usize = 3;

/// Solves and traced decompositions of the dirty-shard-sized cloud.
const SMALL_REPS: usize = 15;

/// One cold solve, checked as a spanning tree. Returns its total weight.
fn solve_checked(points: &[Point<3>]) -> Result<f64, String> {
    let r = SingleTreeBoruvka::new(points).run(&Threads, &EmstConfig::default());
    verify_spanning_tree(points.len(), &r.edges)?;
    Ok(r.total_weight)
}

/// Set-up, timed: input generation and the first checked solve. Returns
/// the cloud, the solve's total weight and the seconds.
pub fn set_up(seed: u64) -> Result<(Vec<Point<3>>, f64, f64), String> {
    let started = Instant::now();
    let points = crate::rng::dataset(Kind::HaccLike, N, seed);
    let weight = solve_checked(&points)?;
    Ok((points, weight, started.elapsed().as_secs_f64()))
}

pub fn run(opts: &Options) -> Result<Report, String> {
    // Every total weight is checked against the oracle after the window.
    let (points, weight, setup_s) = set_up(opts.seed)?;
    let mut weights = vec![weight];
    let mut setups = vec![setup_s];

    // Steady state: cold solves until the window closes.
    let mut solve_s = Vec::new();
    let window = Instant::now();
    while window.elapsed() < opts.seconds {
        let started = Instant::now();
        let r = SingleTreeBoruvka::new(black_box(&points)).run(&Threads, &EmstConfig::default());
        solve_s.push(started.elapsed().as_secs_f64());
        verify_spanning_tree(points.len(), &r.edges)?;
        weights.push(r.total_weight);
    }
    let rss = peak_rss_mb();
    if !opts.trace {
        for (secs, weight) in cold_setups(opts)? {
            setups.push(secs);
            weights.push(weight.parse().map_err(|_| format!("set-up weight {weight:?}"))?);
        }
    }

    // Oracle: the dual-tree EMST once, outside every timed region.
    let oracle = emst_kdtree::dual_tree_emst(&points).total_weight;
    let correct = weights.iter().all(|w| ((w - oracle) / oracle).abs() < WEIGHT_TOLERANCE);
    if !correct {
        eprintln!("solve-hacc: weights {weights:?} disagree with the dual-tree oracle {oracle}");
    }

    let mut report = Report {
        correct,
        attempted: solve_s.len() as u64,
        failed: u64::from(!correct) * solve_s.len() as u64,
        ..Report::default()
    };
    report.provenance = vec![
        ("kind", "HaccLike 3D".into()),
        ("n", N.to_string()),
        ("backend", "Threads".into()),
        ("solves", solve_s.len().to_string()),
        ("setups", setups.len().to_string()),
    ];
    let solve_median = median(&solve_s).expect("at least one solve");
    if opts.trace {
        let whole = kernel_layers(&points, TRACE_REPS, &mut report)?;
        let parts = [report.metrics["bvh.build_s"], report.metrics["core.boruvka_s"]];
        if !parts_add_up(&parts, whole, LAYER_SUM_TOLERANCE) {
            eprintln!("solve-hacc: layers {parts:?} s do not add up to the solve {whole} s");
            report.correct = false;
        }
        report.provenance.push(("traced_solve_median_s", whole.to_string()));
        let serial = time_solve(&Serial, &points);
        report.set("exec.serial_speedup", serial / whole);
        let small = small_cloud(opts.seed);
        let times: Vec<f64> = (0..SMALL_REPS).map(|_| time_solve(&Threads, &small)).collect();
        report.set("exec.small_solve_ms", median(&times).expect("reps ran") * 1e3);
    } else {
        report.set("setup_s", median(&setups).expect("setups ran"));
        report.set("peak_rss_mb", rss);
        report.set("ops_per_s", solve_s.len() as f64 / solve_s.iter().sum::<f64>());
        report.set("emst_p50_ms", solve_median * 1e3);
        report.set("emst_p75_ms", quantile(&solve_s, 0.75).expect("solves ran") * 1e3);
    }
    Ok(report)
}

fn time_solve<S: emst_exec::ExecSpace>(space: &S, points: &[Point<3>]) -> f64 {
    let started = Instant::now();
    black_box(SingleTreeBoruvka::new(black_box(points)).run(space, &EmstConfig::default()));
    started.elapsed().as_secs_f64()
}

/// Times the two layers of a cold solve separately — `Bvh` construction,
/// then the Borůvka loop over it — and reads the loop's phase timings and
/// work counters. Each repetition first times one whole cold solve, so the
/// parts and the whole are measured under the same conditions; returns
/// the whole solve's median seconds.
pub fn kernel_layers(points: &[Point<3>], reps: usize, report: &mut Report) -> Result<f64, String> {
    let config = EmstConfig::default();
    let (mut whole, mut build, mut boruvka) = (Vec::new(), Vec::new(), Vec::new());
    let mut phases: Vec<PhaseTimings> = Vec::new();
    let mut work = None;
    let mut iterations = 0;
    for _ in 0..reps {
        whole.push(time_solve(&Threads, points));
        let started = Instant::now();
        let bvh = Bvh::build_with_resolution(&Threads, points, config.morton_resolution);
        build.push(started.elapsed().as_secs_f64());
        let counters = Counters::new();
        let mut timings = PhaseTimings::new();
        let started = Instant::now();
        let (edges, iters) = run_boruvka_scratch(
            &Threads,
            &bvh,
            &Euclidean,
            &config,
            &counters,
            &mut timings,
            // Fresh working memory, as every cold solve allocates it.
            &mut BoruvkaScratch::new(),
        );
        boruvka.push(started.elapsed().as_secs_f64());
        if edges.len() + 1 != points.len() {
            return Err(format!("traced Borůvka returned {} edges", edges.len()));
        }
        phases.push(timings);
        work = Some(counters.snapshot());
        iterations = iters;
    }
    let work = work.expect("traced at least once");
    let build_s = median(&build).expect("reps ran");
    let boruvka_s = median(&boruvka).expect("reps ran");
    let phase = |name: &str| median(&phases.iter().map(|t| t.get(name)).collect::<Vec<_>>());
    let find_edges_s = phase("mst.find_edges").expect("reps ran");

    report.set("bvh.build_s", build_s);
    report.set("core.boruvka_s", boruvka_s);
    report.set("core.find_edges_s", find_edges_s);
    report.set("core.reduce_labels_s", phase("mst.reduce_labels").expect("reps ran"));
    report.set("core.upper_bounds_s", phase("mst.upper_bounds").expect("reps ran"));
    report.set("core.select_s", phase("mst.select").expect("reps ran"));
    report.set("core.merge_s", phase("mst.merge").expect("reps ran"));
    report.set("core.iterations", f64::from(iterations));
    report.set("core.queries", work.queries as f64);
    report.set("core.distance_computations", work.distance_computations as f64);
    report.set("core.node_visits", work.node_visits as f64);
    report.set("core.leaf_visits", work.leaf_visits as f64);
    report.set("core.subtrees_skipped", work.subtrees_skipped as f64);
    report.set("core.rope_hops", work.rope_hops as f64);
    report
        .set("core.dist_per_query", ratio(work.distance_computations as f64, work.queries as f64));
    report.set(
        "core.non_find_edges_per_iter_ms",
        ratio(boruvka_s - find_edges_s, f64::from(iterations)) * 1e3,
    );
    Ok(median(&whole).expect("reps ran"))
}

/// A GeoLife-like cloud the size of one dirty shard of serve-mutate: its
/// Threads solve time, `exec.small_solve_ms`, is the launch-overhead
/// indicator.
fn small_cloud(seed: u64) -> Vec<Point<3>> {
    crate::rng::dataset(Kind::GeoLifeLike, crate::serve::DIRTY_SHARD_POINTS, seed)
}

/// The kernel layers at dirty-shard size, with the small solve's time.
pub fn small_cloud_layers(seed: u64, report: &mut Report) -> Result<(), String> {
    let whole = kernel_layers(&small_cloud(seed), SMALL_REPS, report)?;
    report.set("exec.small_solve_ms", whole * 1e3);
    Ok(())
}
