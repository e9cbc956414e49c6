//! Renders the EMST and the HDBSCAN* clustering of a 2D dataset as an SVG —
//! the classic "minimum spanning tree of the data" picture (e.g. the
//! paper's Fig. 2, at scale).
//!
//! ```text
//! cargo run --release --example visualize [n] [output.svg]
//! ```

use std::fmt::Write as _;

use emst::core::{EmstConfig, SingleTreeBoruvka};
use emst::datasets::Kind;
use emst::exec::Threads;
use emst::geometry::{Aabb, Point};
use emst::hdbscan::{Hdbscan, NOISE};

const PALETTE: [&str; 10] = [
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0", "#f032e6", "#bcf60c",
    "#fabebe", "#008080",
];

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(4_000);
    let output = args.next().unwrap_or_else(|| "emst.svg".to_string());

    let points: Vec<Point<2>> = Kind::VisualVar.generate(n, 7);
    let emst = SingleTreeBoruvka::new(&points).run(&Threads, &EmstConfig::default());
    let clusters = Hdbscan { k_pts: 6, min_cluster_size: (n / 100).max(8) }.fit(&Threads, &points);
    eprintln!("n = {n}: EMST weight {:.4}, {} clusters", emst.total_weight, clusters.num_clusters);

    // Map the scene into a 1000x1000 canvas with a margin.
    let bb = Aabb::from_points(&points);
    let span = bb.longest_extent().max(f32::MIN_POSITIVE);
    let sx = |p: &Point<2>| 20.0 + (p[0] - bb.min[0]) / span * 960.0;
    let sy = |p: &Point<2>| 20.0 + (p[1] - bb.min[1]) / span * 960.0;

    let mut svg = String::new();
    let height = 40.0 + (bb.max[1] - bb.min[1]) / span * 960.0;
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="{height:.0}" viewBox="0 0 1000 {height:.0}">"#
    );
    let _ = writeln!(svg, r#"<rect width="100%" height="100%" fill="white"/>"#);

    // Edges first (under the points). Long inter-cluster edges get dashed.
    let mut lengths: Vec<f32> = emst.edges.iter().map(|e| e.weight()).collect();
    lengths.sort_by(f32::total_cmp);
    let long = lengths[(lengths.len() as f32 * 0.98) as usize % lengths.len()];
    for e in &emst.edges {
        let (a, b) = (&points[e.u as usize], &points[e.v as usize]);
        let dashed = if e.weight() > long { r#" stroke-dasharray="4 3""# } else { "" };
        let _ = writeln!(
            svg,
            r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#bbb" stroke-width="0.6"{dashed}/>"##,
            sx(a),
            sy(a),
            sx(b),
            sy(b)
        );
    }
    // Points, colored by cluster.
    for (i, p) in points.iter().enumerate() {
        let label = clusters.labels[i];
        let (color, r) = if label == NOISE {
            ("#999999", 0.8)
        } else {
            (PALETTE[label as usize % PALETTE.len()], 1.4)
        };
        let _ = writeln!(
            svg,
            r#"<circle cx="{:.1}" cy="{:.1}" r="{r}" fill="{color}"/>"#,
            sx(p),
            sy(p)
        );
    }
    let _ = writeln!(svg, "</svg>");

    std::fs::write(&output, svg).expect("write SVG");
    eprintln!("wrote {output}");
}
