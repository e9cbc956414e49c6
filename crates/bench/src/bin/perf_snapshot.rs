//! `perf_snapshot` — the machine-readable perf harness.
//!
//! Runs the fig1-style summary plus every ablation grid and writes the
//! result as `emst-bench-snapshot/2` JSON (schema in
//! `docs/bench-snapshot.md`), so every PR can commit a `BENCH_*.json` for
//! future PRs to regress against.
//!
//! ```text
//! perf_snapshot [--json BENCH_PR6.json] [--summary-n 100000] [--repeats 3]
//!               [--serving-sizes 10000,100000] [--serving-shards 2,4]
//!               [--concurrent-workers 1,2,4] [--concurrent-queries 8]
//!               [--net-clients 8] [--net-requests 32]
//!               [--incremental-shards 16]
//! ```
//!
//! Without `--json` the tables are printed only; a failed write to stdout
//! (a reader that closed the pipe) exits with status 1 and one
//! `perf_snapshot: stdout: …` line on stderr. CI runs this at tiny
//! sizes as a schema/harness smoke test and uploads the JSON artifact.
//! `--concurrent-workers` drives the shared-engine warm-throughput grid
//! (the first count is the scaling baseline, so keep `1` first); its
//! cells record the host's CPU count, because throughput scaling cannot
//! exceed the cores actually available to the harness.
//!
//! The observability-overhead grid (instrumentation on vs off on warm
//! queries, budget ≤5%) reuses `--serving-sizes`, the last
//! `--serving-shards` entry and `--repeats` — no extra flags. So does the
//! fault-tolerance reload grid (artifact restore vs deterministic rebuild
//! of an evicted cloud, faults disabled), and the network serving grid
//! (warm wire latency vs in-process, plus a `--net-clients`-wide same-key
//! coalescing storm; every wire reply is byte-verified).
//!
//! The incremental-update grid (1% clustered insert delta-solved against
//! a resident engine vs a cold rebuild of the same mutated cloud, weight
//! multisets asserted bit-identical) reuses `--serving-sizes` and
//! `--repeats` but takes its own `--incremental-shards` count: the
//! update's advantage scales with the fraction of shards left clean
//! (the exact cross-shard merge is paid by both paths and dominates the
//! update, so coarse shardings cap the speedup), so it is measured at a
//! finer sharding than the cold/warm grid's sweep.

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use emst_bench::snapshot::{
    grid, measure_fault_tolerance, measure_incremental, measure_observability,
    measure_serving_cell, measure_serving_concurrent, measure_serving_network, measure_summary,
    Snapshot, SERVING_GENERATORS,
};
use emst_bench::to_stdout;

struct Args {
    json: Option<PathBuf>,
    serving_sizes: Vec<usize>,
    serving_shards: Vec<usize>,
    concurrent_workers: Vec<usize>,
    concurrent_queries: usize,
    net_clients: usize,
    net_requests: usize,
    incremental_shards: usize,
    summary_n: usize,
    repeats: usize,
}

fn parse_args() -> Result<Args, String> {
    let list = |v: String, what: &str| -> Result<Vec<usize>, String> {
        v.split(',').map(|s| s.trim().parse().map_err(|_| format!("bad {what} {s:?}"))).collect()
    };
    let mut args = Args {
        json: None,
        serving_sizes: vec![10_000, 100_000],
        serving_shards: vec![2, 4],
        concurrent_workers: vec![1, 2, 4],
        concurrent_queries: 8,
        net_clients: 8,
        net_requests: 32,
        incremental_shards: 16,
        summary_n: 50_000,
        repeats: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let mut value = || it.next().ok_or(format!("{key} needs a value"));
        let count = |v: String| v.parse::<usize>().map_err(|_| format!("bad {key}"));
        match key.as_str() {
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--serving-sizes" => args.serving_sizes = list(value()?, "size")?,
            "--serving-shards" => args.serving_shards = list(value()?, "shard count")?,
            "--concurrent-workers" => args.concurrent_workers = list(value()?, "worker count")?,
            "--concurrent-queries" => args.concurrent_queries = count(value()?)?,
            "--net-clients" => args.net_clients = count(value()?)?,
            "--net-requests" => args.net_requests = count(value()?)?,
            "--incremental-shards" => args.incremental_shards = count(value()?)?,
            "--summary-n" => args.summary_n = count(value()?)?,
            "--repeats" => args.repeats = count(value()?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.repeats == 0 {
        return Err("--repeats must be non-zero".into());
    }
    if args.serving_shards.is_empty() || args.serving_shards.contains(&0) {
        return Err("--serving-shards must be non-empty positive counts".into());
    }
    if args.concurrent_workers.is_empty()
        || args.concurrent_workers.contains(&0)
        || args.concurrent_queries == 0
    {
        return Err("--concurrent-workers and --concurrent-queries must be positive".into());
    }
    if args.net_clients == 0 || args.net_requests == 0 {
        return Err("--net-clients and --net-requests must be positive".into());
    }
    if args.incremental_shards == 0 {
        return Err("--incremental-shards must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perf_snapshot [--json out.json] [--summary-n n] \
                 [--repeats r] [--serving-sizes n1,n2,...] [--serving-shards k] \
                 [--concurrent-workers w1,w2,...] [--concurrent-queries q] \
                 [--net-clients c] [--net-requests q] [--incremental-shards k]"
            );
            return ExitCode::FAILURE;
        }
    };
    let snap = match to_stdout(|out| run(out, &args)) {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("perf_snapshot: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.json {
        if let Err(e) = snap.write(path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Measures every section, writing each table to `out` as it completes.
fn run(out: &mut dyn Write, args: &Args) -> io::Result<Snapshot> {
    let repeats = args.repeats;
    let sizes = &args.serving_sizes;
    // The serving grids past the cold/warm sweep run at its last count.
    let shards = *args.serving_shards.last().expect("checked non-empty");
    let mut snap = Snapshot { repeats, sections: vec![] };

    writeln!(out, "# perf_snapshot: summary n = {}, repeats = {repeats}", args.summary_n)?;
    snap.section(out, "summary", "fig1-style summary", measure_summary(args.summary_n, repeats))?;
    snap.section(
        out,
        "serving",
        &format!(
            "serving ablation (cold vs warm full-EMST query, K in {:?}, Threads backend)",
            args.serving_shards
        ),
        args.serving_shards
            .iter()
            .flat_map(|&k| {
                grid(&SERVING_GENERATORS, sizes, |g, kind, n| {
                    [measure_serving_cell(g, kind, n, k, repeats)]
                })
            })
            .collect(),
    )?;
    snap.section(
        out,
        "serving_concurrent",
        &format!(
            "concurrent serving (warm throughput, shared engine, Serial per query, workers {:?})",
            args.concurrent_workers
        ),
        grid(&SERVING_GENERATORS, sizes, |g, kind, n| {
            let workers = &args.concurrent_workers;
            measure_serving_concurrent(g, kind, n, shards, workers, args.concurrent_queries)
        }),
    )?;
    snap.section(
        out,
        "observability",
        "observability overhead (warm query, instrumentation on vs off, budget <= 5%)",
        grid(&SERVING_GENERATORS, sizes, |g, kind, n| {
            [measure_observability(g, kind, n, shards, repeats)]
        }),
    )?;
    snap.section(
        out,
        "fault_tolerance",
        "fault tolerance (reload of an evicted cloud: artifact restore vs rebuild)",
        grid(&SERVING_GENERATORS, sizes, |g, kind, n| {
            [measure_fault_tolerance(g, kind, n, shards, repeats)]
        }),
    )?;
    snap.section(
        out,
        "serving_network",
        &format!(
            "network serving (warm wire latency vs in-process, {} clients storm)",
            args.net_clients
        ),
        grid(&SERVING_GENERATORS, sizes, |g, kind, n| {
            [measure_serving_network(g, kind, n, shards, args.net_clients, args.net_requests)]
        }),
    )?;
    snap.section(
        out,
        "incremental",
        &format!(
            "incremental updates (1% clustered insert delta-solve vs cold rebuild, K = {})",
            args.incremental_shards
        ),
        grid(&SERVING_GENERATORS, sizes, |g, kind, n| {
            [measure_incremental(g, kind, n, args.incremental_shards, repeats)]
        }),
    )?;
    Ok(snap)
}
