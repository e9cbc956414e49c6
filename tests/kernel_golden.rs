//! Bit-identity wall for the single-tree Borůvka kernel.
//!
//! The digests below were recorded from the kernel as it stood before
//! per-point answers were carried across iterations and before the
//! threaded reductions were folded per worker. Every backend, edge
//! selection and metric must keep reproducing them, including
//! through a scratch pool whose last solve was a larger, different cloud
//! (so no carried state can leak into iteration 1).

use emst::core::{BoruvkaScratch, Edge, EdgeSelection, EmstConfig, SingleTreeBoruvka};
use emst::datasets::Kind;
use emst::exec::{ChaosSerial, GpuSim, Serial, Threads};
use emst::geometry::{Euclidean, Metric, MutualReachability, Point};
use emst::hdbscan::core_distances_sq;

const N: usize = 2000;
const SEED: u64 = 2022;

/// `(kind, dimension, [Euclidean, MRD k = 2, MRD k = 5])` edge digests.
const GOLDEN: &[(Kind, usize, [u64; 3])] = &[
    (Kind::Uniform, 2, [0xe9fb4746fc62404a, 0xe9fb4746fc62404a, 0x46ba75f129938111]),
    (Kind::Normal, 2, [0xd5283c59761a8934, 0xd5283c59761a8934, 0xfcc5f64d0cedec1c]),
    (Kind::VisualVar, 2, [0x6777b69d5212ff3a, 0x6777b69d5212ff3a, 0x168fb1faa0dd96ca]),
    (Kind::HaccLike, 2, [0xb789f9b75bf434aa, 0xb789f9b75bf434aa, 0x3d20a0812e5ad36b]),
    (Kind::GeoLifeLike, 2, [0x1a3a346c72d10fbc, 0x1a3a346c72d10fbc, 0x6efb4595044768fb]),
    (Kind::NgsimLike, 2, [0xcaa5531b5ea53c9e, 0xcaa5531b5ea53c9e, 0x37a22a391c75ade5]),
    (Kind::PortoTaxiLike, 2, [0xa822965117468ede, 0xa822965117468ede, 0x0e64139eb5843b56]),
    (Kind::RoadNetworkLike, 2, [0x955e22b7c310be09, 0x955e22b7c310be09, 0x4f35bc0a294eb623]),
    (Kind::Uniform, 3, [0xa742cd378d31a102, 0xa742cd378d31a102, 0x37d9db3727c4cd81]),
    (Kind::Normal, 3, [0x91a40243618f999d, 0x91a40243618f999d, 0xd42a317cbf22b434]),
    (Kind::VisualVar, 3, [0x40598a97a14d958e, 0x40598a97a14d958e, 0xad2203af5147b646]),
    (Kind::HaccLike, 3, [0xadfaa10fdb888b58, 0xadfaa10fdb888b58, 0x856a3f5b0ce31d6b]),
    (Kind::GeoLifeLike, 3, [0x578d452ecef37061, 0x578d452ecef37061, 0x0301b8aea58a7d5a]),
    (Kind::NgsimLike, 3, [0x1e710d3ea6d96764, 0x1e710d3ea6d96764, 0xfe8c1c458571627b]),
    (Kind::PortoTaxiLike, 3, [0xd4fc737c4eedc99c, 0xd4fc737c4eedc99c, 0xc825194ebc9ee41f]),
    (Kind::RoadNetworkLike, 3, [0xf04b59f92eac1137, 0xf04b59f92eac1137, 0xbb430be3a1f2b1c2]),
];

/// FNV-1a over the edge list sorted by endpoints: both endpoints and the
/// bits of the squared weight of every edge.
fn digest(edges: &[Edge]) -> u64 {
    let mut sorted = edges.to_vec();
    sorted.sort_by_key(|e| (e.u, e.v));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in &sorted {
        let bytes = [e.u.to_le_bytes(), e.v.to_le_bytes(), e.weight_sq.to_bits().to_le_bytes()];
        for byte in bytes.into_iter().flatten() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digests of every backend × selection combination for one
/// cloud and metric; the first entry is a fresh default solve.
fn all_digests<const D: usize, M: Metric>(
    points: &[Point<D>],
    primer: &[Point<D>],
    metric: &M,
) -> Vec<(String, u64)> {
    let solver = SingleTreeBoruvka::new(points);
    let fresh = solver.run_with_metric(&Serial, &EmstConfig::default(), metric);
    let mut out = vec![("fresh".to_string(), digest(&fresh.edges))];
    let mut scratch = BoruvkaScratch::new();
    SingleTreeBoruvka::new(primer).run_scratch(&Threads, &EmstConfig::default(), &mut scratch);
    for edge_selection in [EdgeSelection::Locked, EdgeSelection::Atomic64] {
        let cfg = EmstConfig { edge_selection, ..Default::default() };
        let mut record = |backend: &str, edges: &[Edge]| {
            out.push((format!("{backend} {edge_selection:?}"), digest(edges)));
        };
        let s = solver.run_with_metric_scratch(&Serial, &cfg, metric, &mut scratch);
        record("Serial", &s.edges);
        let t = solver.run_with_metric_scratch(&Threads, &cfg, metric, &mut scratch);
        record("Threads", &t.edges);
        let g = solver.run_with_metric_scratch(&GpuSim::new(), &cfg, metric, &mut scratch);
        record("GpuSim", &g.edges);
        let c = solver.run_with_metric_scratch(&ChaosSerial::new(7), &cfg, metric, &mut scratch);
        record("ChaosSerial", &c.edges);
    }
    out
}

/// Checks every kind in dimension `D` against [`GOLDEN`].
fn check_dimension<const D: usize>() {
    let mut failures = vec![];
    for (idx, &kind) in Kind::ALL.iter().enumerate() {
        let points = kind.generate::<D>(N, SEED);
        // A larger cloud of the next kind in `Kind::ALL` solved just
        // before, through the same scratch pool.
        let other = Kind::ALL[(idx + 1) % Kind::ALL.len()];
        let primer = other.generate::<D>(3 * N / 2, SEED + 1);
        let core2 = core_distances_sq(&Serial, &points, 2);
        let core5 = core_distances_sq(&Serial, &points, 5);
        let digests = [
            all_digests(&points, &primer, &Euclidean),
            all_digests(&points, &primer, &MutualReachability::new(&core2)),
            all_digests(&points, &primer, &MutualReachability::new(&core5)),
        ];
        let expected = GOLDEN.iter().find(|g| g.0 == kind && g.1 == D).map(|g| g.2);
        for (m, runs) in digests.iter().enumerate() {
            for (label, got) in runs {
                if expected.map(|e| e[m]) != Some(*got) {
                    failures.push(format!("{kind:?} {D}D metric {m} {label}: {got:#x}"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "digest mismatches:\n{}", failures.join("\n"));
}

#[test]
fn golden_digests_2d() {
    check_dimension::<2>();
}

#[test]
fn golden_digests_3d() {
    check_dimension::<3>();
}
