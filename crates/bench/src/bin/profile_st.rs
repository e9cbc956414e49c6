//! Quick phase/counter profile of the single-tree EMST vs the dual-tree
//! baseline on one dataset. Usage:
//!
//! ```text
//! cargo run --release -p emst_bench --bin profile_st [kind] [n]
//! ```
//!
//! `kind` is a [`Kind::name`] ∈ {uniform, normal, visualvar, hacc,
//! geolife, ngsim, porto, road} (default hacc), `n` a point count (default
//! 300000). 3D points. An unknown kind, a malformed `n` or a third
//! argument exits with status 2 and a message naming it; a failed write
//! to stdout (a reader that closed the pipe) exits with status 1 and one
//! `profile_st: stdout: …` line on stderr.

use std::io::{self, Write};
use std::process::{exit, ExitCode};

use emst_bench::to_stdout;
use emst_core::{EmstConfig, SingleTreeBoruvka};
use emst_datasets::Kind;
use emst_exec::Serial;
use emst_geometry::Point;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |message: String| -> ! {
        eprintln!("profile_st: {message}\nusage: profile_st [kind] [n]");
        exit(2)
    };
    if args.len() > 2 {
        fail(format!("unexpected argument {:?}", args[2]));
    }
    let name = args.first().map_or("hacc", String::as_str);
    let kind = Kind::parse(name).unwrap_or_else(|| {
        let names: Vec<&str> = Kind::ALL.iter().map(Kind::name).collect();
        fail(format!("unknown kind {name:?} (expected one of {})", names.join(", ")))
    });
    let n: usize = match args.get(1) {
        Some(v) => v.parse().unwrap_or_else(|_| fail(format!("invalid n {v:?}"))),
        None => 300_000,
    };
    match to_stdout(|out| profile(out, kind, n)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("profile_st: {e}");
            ExitCode::FAILURE
        }
    }
}

fn profile(out: &mut dyn Write, kind: Kind, n: usize) -> io::Result<()> {
    let points: Vec<Point<3>> = kind.generate(n, 0xF);
    let r = SingleTreeBoruvka::new(&points).run(&Serial, &EmstConfig::default());
    writeln!(out, "single-tree ({kind:?}, n = {n}):")?;
    for (name, secs) in r.timings.iter() {
        writeln!(out, "  {name:<22} {secs:.3}s")?;
    }
    writeln!(out, "  iterations: {}", r.iterations)?;
    let w = r.work;
    writeln!(
        out,
        "  dist {} nodes {} leaves {} skipped {} queries {}",
        w.distance_computations, w.node_visits, w.leaf_visits, w.subtrees_skipped, w.queries
    )?;
    let d = emst_kdtree::dual_tree_emst(&points);
    writeln!(
        out,
        "dual-tree: tree {:.3}s mst {:.3}s dist {}",
        d.timings.get("tree"),
        d.timings.get("mst"),
        d.distance_computations
    )?;
    assert!((r.total_weight - d.total_weight).abs() / r.total_weight < 1e-6);
    Ok(())
}
