//! `emst-cli` — command-line access to the library.
//!
//! ```text
//! emst-cli generate --kind hacc --n 10000 --dim 3 --seed 1 --output pts.csv
//! emst-cli emst     --input pts.csv --dim 3 --output mst.csv [--algorithm single-tree]
//! emst-cli emst     --input pts.csv --shards 8 [--max-resident 1000000]
//! emst-cli hdbscan  --input pts.csv --dim 3 --k 5 --min-cluster-size 20 --output labels.csv
//! emst-cli serve    --input pts.csv --shards 8 --max-resident 4   # then requests on stdin
//! ```
//!
//! Arguments are `--key value` pairs. Each command accepts exactly the
//! flags its usage block lists: an unknown flag, like a malformed value
//! (e.g. a non-numeric `--n`), aborts with an error message naming it and
//! a non-zero exit code. The MST output is CSV rows `u,v,weight`; HDBSCAN
//! output is one label per line (`-1` = noise).
//!
//! `serve` starts the long-lived engine (`emst::serve`): the cloud's shard
//! artifacts stay resident between queries, so repeated `emst` requests
//! are answered by the cross-shard merge alone. Stdin speaks the wire
//! protocol of `docs/serving-protocol.md` byte for byte: each line is one
//! more session answered by `emst::serve::net::respond`, exactly as a TCP
//! connection's line is, so every line (blank, junk and over-long ones
//! included) gets one `ok …`/`err …` reply on stdout. `--listen <addr>`
//! serves the same engine over TCP as well; `quit` or EOF on stdin shuts
//! the listener down gracefully.
//!
//! Serve diagnostics go through the `emst::obs` structured logger —
//! `--log-format json` turns them into machine-parseable JSON lines — and
//! `--metrics-file <path>` keeps a Prometheus-style exposition of the
//! engine's metrics current on disk (rewritten after each stdin line and
//! at exit; write failures are logged and counted, never fatal).
//!
//! Fault tolerance: `--spill-dir`/`--fallback-spill-dir` choose where
//! evicted clouds are persisted (both are probed for writability at
//! startup, so a dead disk fails the launch, not the first eviction),
//! `--spill-retries` bounds the write retry-with-backoff, `--deadline-ms`
//! gives every query a wall-clock budget (late queries return an error
//! instead of a late answer), `--max-in-flight` sheds excess concurrent
//! queries instead of queueing them, and
//! `--fault-plan "seed=42;write=eio@0.5;read=bitflip@0.25"` injects
//! deterministic storage faults for chaos drills.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use emst::core::{EmstConfig, SingleTreeBoruvka};
use emst::datasets::{self, Kind};
use emst::exec::{ExecSpace, GpuSim, Serial, Threads};
use emst::geometry::Point;
use emst::hdbscan::Hdbscan;
use emst::serve::fault::faulted_write;
use emst::serve::net::{self, next_line, respond, ReadEvent};
use emst::serve::{
    FaultPlan, FaultSite, NetConfig, NetReply, NetSession, ServeConfig, ServeEngine, ServeServer,
};
use emst::shard::{emst_sharded_csv, emst_sharded_with, ShardConfig, ShardStats, StreamConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  emst-cli generate --kind <uniform|normal|visualvar|hacc|geolife|ngsim|porto|road>
                    --n <count> [--dim 2|3] [--seed <u64>] --output <points.csv>
  emst-cli emst     --input <points.csv> [--dim 2|3] [--output <mst.csv>]
                    [--algorithm single-tree|kd-single-tree|dual-tree|wspd]
                    [--backend serial|threads|gpusim]
                    [--shards <K>] [--max-resident <points>]
  emst-cli hdbscan  --input <points.csv> [--dim 2|3] [--k <k_pts>]
                    [--min-cluster-size <m>] [--output <labels.csv>]
  emst-cli serve    --input <points.csv> [--dim 2|3] [--shards <K>]
                    [--max-resident <clouds>] [--backend serial|threads|gpusim]
                    [--log-format text|json] [--metrics-file <metrics.prom>]
                    [--spill-dir <dir>] [--fallback-spill-dir <dir>]
                    [--spill-retries <N>] [--deadline-ms <ms>]
                    [--max-in-flight <N>] [--fault-plan <spec>]
                    [--listen <addr>] [--net-workers <N>] [--max-pending <M>]
                    stdin speaks the line protocol of docs/serving-protocol.md,
                    one `ok …`/`err …` reply per line: ping | emst |
                    subset <lo>..<hi> | knn <k> <x> <y> [<z>] |
                    hdbscan <k_pts> <min_cluster_size> | insert <x> <y> [<z>] … |
                    delete <id> … | load <points.csv> | stats | metrics [json] |
                    trace [n] | quit
                    --listen serves the same protocol over TCP as well;
                    `quit`/EOF on stdin shuts the listener down gracefully"
    );
    ExitCode::FAILURE
}

/// The flags each command accepts: exactly those its usage block lists.
/// `None` for an unknown command.
fn flags_of(command: &str) -> Option<&'static str> {
    Some(match command {
        "generate" => "kind n dim seed output",
        "emst" => "input dim output algorithm backend shards max-resident",
        "hdbscan" => "input dim k min-cluster-size output",
        "serve" => {
            "input dim shards max-resident backend log-format metrics-file spill-dir \
             fallback-spill-dir spill-retries deadline-ms max-in-flight fault-plan listen \
             net-workers max-pending"
        }
        _ => return None,
    })
}

/// Parses `command`'s `--key value` pairs. A key outside the command's
/// flags is an error naming both, never silently ignored.
fn parse_args(command: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let flags = flags_of(command).ok_or(format!(
        "unknown command {command:?} (expected generate, emst, hdbscan or serve; run with no \
         arguments for usage)"
    ))?;
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key =
            arg.strip_prefix("--").ok_or(format!("expected --<flag> <value>, got {arg:?}"))?;
        if !flags.split_whitespace().any(|flag| flag == key) {
            return Err(format!(
                "unknown flag --{key} for {command} (run with no arguments for usage)"
            ));
        }
        let value = it.next().ok_or(format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

/// Parses an optional `--key value` argument strictly: a present but
/// malformed value is an error, never a silent default.
fn parse_opt<T: FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid --{key} value {v:?}")),
    }
}

/// Parses a required `--key value` argument strictly.
fn parse_req<T: FromStr>(opts: &HashMap<String, String>, key: &str) -> Result<T, String> {
    let v = opts.get(key).ok_or(format!("--{key} is required"))?;
    v.parse().map_err(|_| format!("invalid --{key} value {v:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    match parse_args(command, rest).and_then(|opts| run(command, &opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str, opts: &HashMap<String, String>) -> Result<(), String> {
    let dim: usize = parse_opt(opts, "dim", 2)?;
    if dim != 2 && dim != 3 {
        return Err("--dim must be 2 or 3".into());
    }
    match (command, dim) {
        ("generate", 2) => generate::<2>(opts),
        ("generate", 3) => generate::<3>(opts),
        ("emst", 2) => run_emst::<2>(opts),
        ("emst", 3) => run_emst::<3>(opts),
        ("hdbscan", 2) => run_hdbscan::<2>(opts),
        ("hdbscan", 3) => run_hdbscan::<3>(opts),
        ("serve", 2) => run_serve::<2>(opts),
        ("serve", 3) => run_serve::<3>(opts),
        _ => unreachable!("parse_args admits only the four commands"),
    }
}

fn generate<const D: usize>(opts: &HashMap<String, String>) -> Result<(), String> {
    let name = opts.get("kind").ok_or("--kind is required")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown --kind {name:?}"))?;
    let n: usize = parse_req(opts, "n")?;
    let seed: u64 = parse_opt(opts, "seed", 0)?;
    let output = opts.get("output").ok_or("--output is required")?;
    let points: Vec<Point<D>> = kind.generate(n, seed);
    datasets::save_csv(Path::new(output), &points).map_err(|e| e.to_string())?;
    eprintln!("wrote {n} points to {output}");
    Ok(())
}

fn load_points<const D: usize>(opts: &HashMap<String, String>) -> Result<Vec<Point<D>>, String> {
    let input = opts.get("input").ok_or("--input is required")?;
    net::load_points::<D>(input, None)
}

fn print_shard_stats(stats: &ShardStats) {
    let nonempty = stats.shard_sizes.iter().filter(|&&s| s > 0).count();
    let largest = stats.shard_sizes.iter().max().copied().unwrap_or(0);
    eprintln!(
        "shards: {} ({nonempty} non-empty, largest {largest}), merge rounds {}, boundary \
         candidates {}, peak resident {}",
        stats.shard_sizes.len(),
        stats.merge_rounds,
        stats.boundary_candidates,
        stats.peak_resident,
    );
    // Top-level phases only: the in-memory path records plan/local/merge,
    // the streamed path scan/histogram/route/local/pairs/assemble; the
    // merge engine's `merge.*` sub-phases stay out of the summary line.
    let phases: Vec<String> = stats
        .timings
        .iter()
        .filter(|(name, _)| !name.contains('.'))
        .map(|(name, secs)| format!("{name} {secs:.3} s"))
        .collect();
    if !phases.is_empty() {
        eprintln!("phases: {}", phases.join(", "));
    }
}

fn run_emst<const D: usize>(opts: &HashMap<String, String>) -> Result<(), String> {
    let algorithm = opts.get("algorithm").map(String::as_str).unwrap_or("single-tree");
    let backend = opts.get("backend").map(String::as_str).unwrap_or("threads");
    let shards: usize = parse_opt(opts, "shards", 0)?;
    let max_resident: usize = parse_opt(opts, "max-resident", 0)?;
    if (shards > 0 || max_resident > 0) && algorithm != "single-tree" {
        return Err(format!("--shards requires --algorithm single-tree, got {algorithm}"));
    }

    // The out-of-core path streams the CSV directly instead of loading it.
    if max_resident > 0 {
        let input = opts.get("input").ok_or("--input is required")?;
        if input.ends_with(".xyz") {
            return Err("--max-resident streams CSV input only".into());
        }
        let cfg = StreamConfig::new(shards, max_resident);
        let start = std::time::Instant::now();
        let result = match backend {
            "serial" => emst_sharded_csv::<_, D>(&Serial, Path::new(input), &cfg),
            "threads" => emst_sharded_csv::<_, D>(&Threads, Path::new(input), &cfg),
            "gpusim" => emst_sharded_csv::<_, D>(&GpuSim::new(), Path::new(input), &cfg),
            other => return Err(format!("unknown --backend {other}")),
        }
        .map_err(|e| format!("{input}: {e}"))?;
        let n = result.stats.shard_sizes.iter().sum::<usize>();
        if n == 0 {
            return Err(format!("{input}: no points"));
        }
        print_shard_stats(&result.stats);
        return report_and_write(opts, n, D, result.edges, start.elapsed().as_secs_f64());
    }

    let points = load_points::<D>(opts)?;
    let n = points.len();
    let start = std::time::Instant::now();
    let edges = match algorithm {
        "single-tree" if shards > 0 => {
            let run_sharded = |space: &dyn ObjectSafeRun<D>| space.sharded(&points, shards);
            let result = match backend {
                "serial" => run_sharded(&Serial),
                "threads" => run_sharded(&Threads),
                "gpusim" => run_sharded(&GpuSim::new()),
                other => return Err(format!("unknown --backend {other}")),
            };
            print_shard_stats(&result.stats);
            result.edges
        }
        "single-tree" => {
            let cfg = EmstConfig::default();
            match backend {
                "serial" => SingleTreeBoruvka::new(&points).run(&Serial, &cfg).edges,
                "threads" => SingleTreeBoruvka::new(&points).run(&Threads, &cfg).edges,
                "gpusim" => SingleTreeBoruvka::new(&points).run(&GpuSim::new(), &cfg).edges,
                other => return Err(format!("unknown --backend {other}")),
            }
        }
        "kd-single-tree" => emst::kdtree::kd_single_tree_emst(&points).edges,
        "dual-tree" => emst::kdtree::dual_tree_emst(&points).edges,
        "wspd" => emst::wspd::wspd_emst(&points, backend != "serial").edges,
        other => return Err(format!("unknown --algorithm {other}")),
    };
    let secs = start.elapsed().as_secs_f64();
    emst::core::verify_spanning_tree(n, &edges).map_err(|e| e.to_string())?;
    report_and_write(opts, n, D, edges, secs)
}

/// Object-safe shim so the sharded run can dispatch over backends chosen at
/// runtime without monomorphizing the match arms three times.
trait ObjectSafeRun<const D: usize> {
    fn sharded(&self, points: &[Point<D>], shards: usize) -> emst::shard::ShardedResult;
}

impl<S: ExecSpace, const D: usize> ObjectSafeRun<D> for S {
    fn sharded(&self, points: &[Point<D>], shards: usize) -> emst::shard::ShardedResult {
        emst_sharded_with(self, points, &ShardConfig::new(shards))
    }
}

fn report_and_write(
    opts: &HashMap<String, String>,
    n: usize,
    dim: usize,
    edges: Vec<emst::core::Edge>,
    secs: f64,
) -> Result<(), String> {
    let weight = emst::core::edge::total_weight(&edges);
    eprintln!(
        "{n} points -> {} edges, weight {weight:.6}, {secs:.3} s ({:.2} MFeatures/s)",
        edges.len(),
        (n * dim) as f64 / secs / 1e6
    );
    if let Some(output) = opts.get("output") {
        write_edges(Path::new(output), &edges)?;
        eprintln!("wrote MST to {output}");
    }
    Ok(())
}

/// The `serve` subcommand: start a [`ServeEngine`], ingest `--input`, then
/// answer stdin lines until EOF/`quit`. Flag errors abort; request errors
/// are `err …` replies (a server should not die on one bad request).
fn run_serve<const D: usize>(opts: &HashMap<String, String>) -> Result<(), String> {
    let shards: usize = parse_opt(opts, "shards", 4)?;
    let max_resident: usize = parse_opt(opts, "max-resident", 4)?;
    let backend = opts.get("backend").map(String::as_str).unwrap_or("threads");
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if max_resident == 0 {
        return Err("--max-resident must be at least 1".into());
    }
    let log_format = opts.get("log-format").map(String::as_str).unwrap_or("text");
    let log_format = emst::obs::log::Format::parse(log_format)
        .ok_or(format!("invalid --log-format value {log_format:?} (expected text or json)"))?;
    emst::obs::log::set_format(log_format);
    let metrics_file = opts.get("metrics-file").map(PathBuf::from);
    let spill_dir = opts.get("spill-dir").map(PathBuf::from);
    let fallback_spill_dir = opts.get("fallback-spill-dir").map(PathBuf::from);
    let spill_retries: u32 = parse_opt(opts, "spill-retries", 3)?;
    let deadline_ms: u64 = parse_opt(opts, "deadline-ms", 0)?;
    let max_in_flight: usize = parse_opt(opts, "max-in-flight", 0)?;
    let fault_plan = match opts.get("fault-plan") {
        None => None,
        Some(spec) => Some(Arc::new(
            FaultPlan::parse(spec).map_err(|e| format!("invalid --fault-plan: {e}"))?,
        )),
    };
    let listen = opts.get("listen").cloned();
    let net_workers: usize = parse_opt(opts, "net-workers", 4)?;
    let max_pending: usize = parse_opt(opts, "max-pending", 64)?;
    if net_workers == 0 {
        return Err("--net-workers must be at least 1".into());
    }
    if max_pending == 0 {
        return Err("--max-pending must be at least 1".into());
    }
    // Probe every spill destination now: an unwritable disk must fail the
    // launch with a clear message, not the first eviction mid-serve.
    if let Some(dir) = &spill_dir {
        validate_spill_dir("spill-dir", dir)?;
    }
    if let Some(dir) = &fallback_spill_dir {
        validate_spill_dir("fallback-spill-dir", dir)?;
    }
    let input = opts.get("input").ok_or("--input is required")?;
    let points = net::load_points::<D>(input, fault_plan.as_deref())?;
    let mut config = ServeConfig::new(shards, max_resident);
    config.spill_dir = spill_dir;
    config.fallback_spill_dir = fallback_spill_dir;
    config.spill_retries = spill_retries;
    config.deadline = (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms));
    config.max_in_flight = max_in_flight;
    config.fault_plan = fault_plan.clone();
    let session = ServeSession {
        metrics: metrics_file.as_deref(),
        plan: fault_plan.as_deref(),
        listen: listen.as_deref(),
        net: NetConfig { workers: net_workers, max_pending },
    };
    match backend {
        "serial" => serve_entry(Serial, config, points, &session),
        "threads" => serve_entry(Threads, config, points, &session),
        "gpusim" => serve_entry(GpuSim::new(), config, points, &session),
        other => Err(format!("unknown --backend {other}")),
    }
}

/// Everything `serve` needs besides the engine itself: the metrics sink,
/// the fault plan (for metrics writes) and the optional network front-end.
struct ServeSession<'a> {
    metrics: Option<&'a Path>,
    plan: Option<&'a FaultPlan>,
    listen: Option<&'a str>,
    net: NetConfig,
}

/// Starts the engine and serves stdin, plus TCP clients when `--listen` is
/// set; stdin `quit`/EOF then shuts the server down gracefully (in-flight
/// requests drain).
fn serve_entry<S: ExecSpace + Send + Sync + 'static, const D: usize>(
    space: S,
    config: ServeConfig,
    points: Vec<Point<D>>,
    session: &ServeSession<'_>,
) -> Result<(), String> {
    let engine = Arc::new(ServeEngine::<S, D>::new(space, config));
    let cloud = Arc::new(points);
    let key = engine.ingest(&cloud);
    let server = match session.listen {
        None => None,
        Some(addr) => Some(
            ServeServer::bind(Arc::clone(&engine), Arc::clone(&cloud), addr, session.net)
                .map_err(|e| format!("--listen {addr}: {e}"))?,
        ),
    };
    let mut fields = vec![("points", cloud.len().to_string()), ("key", key.to_string())];
    if let Some(server) = &server {
        // The bound address goes to stdout so scripts driving `--listen
        // 127.0.0.1:0` can discover the ephemeral port.
        println!("listening {}", server.local_addr());
        fields.push(("addr", server.local_addr().to_string()));
        fields.push(("net_workers", session.net.workers.to_string()));
        fields.push(("max_pending", session.net.max_pending.to_string()));
    }
    let fields: Vec<(&str, &str)> = fields.iter().map(|(k, v)| (*k, v.as_str())).collect();
    emst::obs::log::info("emst-cli", "serving (requests on stdin; `quit` to exit)", &fields);
    let result = serve_stdin(&engine, NetSession::new(cloud), session);
    if let Some(server) = server {
        server.shutdown();
    }
    if let Some(path) = session.metrics {
        write_metrics_file(&engine, path, session.plan);
    }
    result
}

/// Answers stdin as one more wire session: lines are read by the wire's own
/// [`next_line`] and answered by [`respond`], so each line gets the bytes
/// the same line gets over TCP, until `quit`, an over-long line or EOF.
fn serve_stdin<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    mut net: NetSession<D>,
    session: &ServeSession<'_>,
) -> Result<(), String> {
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    let mut buf = Vec::new();
    // Stdin never times out, so the wire's shutdown poll never fires.
    let shutdown = AtomicBool::new(false);
    loop {
        let reply = match next_line(&mut stdin, &mut buf, &shutdown) {
            Ok(ReadEvent::Line(line)) => respond(engine, &mut net, &line),
            Ok(ReadEvent::TooLong) => NetReply::line_too_long(),
            Ok(ReadEvent::Eof | ReadEvent::Shutdown) => return Ok(()),
            Err(e) => return Err(format!("stdin: {e}")),
        };
        stdout
            .write_all(reply.bytes())
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("stdout: {e}"))?;
        if let Some(path) = session.metrics {
            write_metrics_file(engine, path, session.plan);
        }
        if reply.close {
            return Ok(());
        }
    }
}

/// Checks that `dir` exists (creating it if needed) and takes writes, so
/// spill durability is established before the engine starts serving.
fn validate_spill_dir(flag: &str, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("--{flag} {}: cannot create directory: {e}", dir.display()))?;
    let probe = dir.join(format!(".emst-writable-probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("--{flag} {} is not writable: {e}", dir.display()))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// Rewrites the `--metrics-file` exposition; failures are logged and
/// counted, never fatal (a full disk must not take the serving loop
/// down). The write goes through the fault plan's metrics site, so chaos
/// drills cover this path too.
fn write_metrics_file<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    path: &Path,
    plan: Option<&FaultPlan>,
) {
    let payload = engine.metrics_prometheus();
    if let Err(e) = faulted_write(plan, FaultSite::MetricsWrite, path, payload.as_bytes()) {
        if let Some(registry) = engine.obs_registry() {
            registry.counter("emst_cli_metrics_file_write_failures_total").inc();
        }
        emst::obs::log::warn(
            "emst-cli",
            "metrics file write failed",
            &[("path", &path.display().to_string()), ("error", &e.to_string())],
        );
    }
}

fn write_edges(path: &Path, edges: &[emst::core::Edge]) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| e.to_string())?);
    for e in edges {
        writeln!(out, "{},{},{:?}", e.u, e.v, e.weight()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn run_hdbscan<const D: usize>(opts: &HashMap<String, String>) -> Result<(), String> {
    let k_pts: usize = parse_opt(opts, "k", 5)?;
    let min_cluster_size: usize = parse_opt(opts, "min-cluster-size", 5)?;
    let points = load_points::<D>(opts)?;
    let result = Hdbscan { k_pts, min_cluster_size }.fit(&Threads, &points);
    let noise = result.labels.iter().filter(|&&l| l == emst::hdbscan::NOISE).count();
    eprintln!("{} points -> {} clusters, {noise} noise", points.len(), result.num_clusters);
    if let Some(output) = opts.get("output") {
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(output).map_err(|e| e.to_string())?);
        for &l in &result.labels {
            writeln!(out, "{l}").map_err(|e| e.to_string())?;
        }
        eprintln!("wrote labels to {output}");
    }
    Ok(())
}
