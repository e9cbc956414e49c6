//! The repository benchmark. One command runs one named workload against
//! the public APIs, verifies every answer and prints every metric by name
//! and unit:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-hacc|serve-read|serve-mutate --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the same
//! inputs through each layer's public functions and reports the per-layer
//! metrics instead. A provenance line (host, compiler, commit, seed,
//! workload shape, sample counts) precedes the result, which is the last
//! line of standard output. See `perfbench/README.md` for the workloads and
//! the per-layer → end-to-end map.

mod rng;
mod serve;
mod solve;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("emst_p50_ms", "ms"),
    ("emst_p75_ms", "ms"),
];

/// Per-layer metrics of the traced run. A layer that is not on a
/// workload's path reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bvh.build_s", "s"),
    ("core.boruvka_s", "s"),
    ("core.find_edges_s", "s"),
    ("core.reduce_labels_s", "s"),
    ("core.upper_bounds_s", "s"),
    ("core.select_s", "s"),
    ("core.merge_s", "s"),
    ("core.iterations", "count"),
    ("core.queries", "count"),
    ("core.distance_computations", "count"),
    ("core.node_visits", "count"),
    ("core.leaf_visits", "count"),
    ("core.subtrees_skipped", "count"),
    ("core.rope_hops", "count"),
    ("core.dist_per_query", "ratio"),
    ("core.non_find_edges_per_iter_ms", "ms"),
    ("exec.serial_speedup", "ratio"),
    ("exec.small_solve_ms", "ms"),
    ("shard.build_s", "s"),
    ("shard.plan_s", "s"),
    ("shard.local_s", "s"),
    ("shard.merge_ms.emst", "ms"),
    ("shard.merge_ms.subset", "ms"),
    ("shard.merge_query_ms.emst", "ms"),
    ("shard.merge_distance_computations.emst", "count"),
    ("shard.update_local_ms.insert", "ms"),
    ("shard.update_local_ms.delete", "ms"),
    ("shard.update_plan_ms.insert", "ms"),
    ("shard.update_plan_ms.delete", "ms"),
    ("shard.update_merge_ms.insert", "ms"),
    ("shard.update_merge_ms.delete", "ms"),
    ("shard.dirty_per_update", "count"),
    ("shard.reuse_ratio", "ratio"),
    ("shard.full_rebuilds", "count"),
    ("serve.execute_ms.emst", "ms"),
    ("serve.execute_ms.subset", "ms"),
    ("serve.execute_ms.knn", "ms"),
    ("serve.execute_ms.insert", "ms"),
    ("serve.execute_ms.delete", "ms"),
    ("serve.digest_ms", "ms"),
    ("serve.overhead_ms.emst", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.spill_failures", "count"),
    ("net.coalesced_ratio", "ratio"),
    ("net.respond_ms.emst", "ms"),
    ("net.respond_ms.subset", "ms"),
    ("net.respond_ms.knn", "ms"),
    ("net.respond_ms.insert", "ms"),
    ("net.respond_ms.delete", "ms"),
    ("net.protocol_ms.emst", "ms"),
    ("net.protocol_ms.subset", "ms"),
    ("net.protocol_ms.knn", "ms"),
    ("net.protocol_ms.insert", "ms"),
    ("net.protocol_ms.delete", "ms"),
    ("net.transport_ms.emst", "ms"),
    ("net.transport_ms.subset", "ms"),
    ("net.transport_ms.knn", "ms"),
    ("net.transport_ms.insert", "ms"),
    ("net.transport_ms.delete", "ms"),
    ("net.wire_p50_ms.emst", "ms"),
    ("net.wire_p50_ms.subset", "ms"),
    ("net.wire_p50_ms.knn", "ms"),
    ("net.wire_p50_ms.insert", "ms"),
    ("net.wire_p50_ms.delete", "ms"),
    ("net.wire_p90_ms.emst", "ms"),
    ("net.wire_p90_ms.subset", "ms"),
    ("net.wire_p99_ms.knn", "ms"),
    ("net.wire_p90_ms.insert", "ms"),
    ("net.wire_p90_ms.delete", "ms"),
];

/// Set-ups per untraced run; `setup_s` is their median. The run's own
/// set-up is the first; each of the others runs in a fresh process of
/// this benchmark (see [`cold_setups`]), so every set-up is the first of
/// its process and pays the first-solve effects.
const SETUPS: usize = 3;

/// Command-line options.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// `--setup-only 1`: set up once, print `<seconds> <first answer>` and
    /// exit. The benchmark starts itself this way for [`cold_setups`].
    pub setup_only: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Every answer checked out.
    pub correct: bool,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// `err` replies plus operations that failed outright.
    pub failed: u64,
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload shape and sample counts for the provenance line.
    pub provenance: Vec<(&'static str, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

fn parse_options() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("--{k} is required"));
    let seconds: f64 =
        get("seconds")?.parse().map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let flag = |k: &str, value: &str| match value {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("--{k} must be 0 or 1, got {other:?}")),
    };
    Ok(Options {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?,
        seconds: Duration::from_secs_f64(seconds),
        trace: flag("trace", get("trace")?)?,
        setup_only: flag("setup-only", flags.get("setup-only").map_or("0", String::as_str))?,
    })
}

/// The other `SETUPS - 1` set-ups of a run, one after another, each in a
/// fresh process of this benchmark started with `--setup-only 1`, so
/// none finds a thread pool or heap that this process warmed. Returns
/// each one's seconds and first answer, which the caller verifies.
pub fn cold_setups(opts: &Options) -> Result<Vec<(f64, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (seed, seconds) = (opts.seed.to_string(), opts.seconds.as_secs_f64().to_string());
    let args = ["--workload", &opts.workload, "--seed", &seed, "--seconds", &seconds];
    (1..SETUPS)
        .map(|_| {
            let out = Command::new(&exe)
                .args(args)
                .args(["--trace", "0", "--setup-only", "1"])
                .output()
                .map_err(|e| format!("set-up process: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout
                .lines()
                .last()
                .and_then(|l| l.split_once(' '))
                .and_then(|(secs, answer)| Some((secs.parse().ok()?, answer.to_string())));
            match parsed {
                Some(setup) if out.status.success() => Ok(setup),
                _ => Err(format!(
                    "set-up process failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

/// `--setup-only 1`: one set-up of the workload and its first answer.
fn setup_only(opts: &Options) -> Result<(f64, String), String> {
    match opts.workload.as_str() {
        "solve-hacc" => {
            solve::set_up(opts.seed).map(|(_, weight, secs)| (secs, format!("{weight:?}")))
        }
        "serve-read" => serve::set_up_alone(serve::Mix::Read, opts.seed),
        "serve-mutate" => serve::set_up_alone(serve::Mix::Mutate, opts.seed),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance_line(opts: &Options, report: &Report) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("workload", json_string(&opts.workload)),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.as_secs_f64().to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("cpus", cpus.to_string()),
        ("rustc", json_string(&command_line("rustc", &["-V"]))),
        ("git_sha", json_string(&command_line("git", &["rev-parse", "HEAD"]))),
    ];
    fields.extend(report.provenance.iter().map(|(k, v)| (*k, json_string(v))));
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {v}", json_string(k))).collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// A metric that is missing or not finite makes the run incorrect.
fn result_line(report: &mut Report, table: &[(&'static str, &'static str)], trace: bool) -> String {
    let mut body = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => {
                eprintln!("metric {name} was not measured");
                report.correct = false;
                0.0
            }
        };
        if !value.is_finite() {
            eprintln!("metric {name} is not finite: {value}");
            report.correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.setup_only {
        return match setup_only(&opts) {
            Ok((secs, answer)) => {
                println!("{secs:?} {answer}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let outcome = match opts.workload.as_str() {
        "solve-hacc" => solve::run(&opts),
        "serve-read" => serve::run(&opts, serve::Mix::Read),
        "serve-mutate" => serve::run(&opts, serve::Mix::Mutate),
        other => {
            Err(format!("unknown workload {other:?} (solve-hacc | serve-read | serve-mutate)"))
        }
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    println!("{}", provenance_line(&opts, &report));
    let line = result_line(&mut report, table, opts.trace);
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these tables.
    #[test]
    fn metric_tables_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"unit\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "extra metrics in BENCHMARK.json");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_zero_fills_off_path_layers() {
        let mut report = Report { correct: true, attempted: 3, ..Report::default() };
        report.set("bvh.build_s", 0.25);
        let line = result_line(&mut report, PER_LAYER, true);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"bvh.build_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"core.boruvka_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(report.correct);

        let mut missing = Report { correct: true, ..Report::default() };
        result_line(&mut missing, END_TO_END, false);
        assert!(!missing.correct, "an unmeasured end-to-end metric fails the run");
        let mut nan = Report { correct: true, ..Report::default() };
        for &(name, _) in END_TO_END {
            nan.set(name, f64::NAN);
        }
        result_line(&mut nan, END_TO_END, false);
        assert!(!nan.correct);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
