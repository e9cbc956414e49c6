//! End-to-end tests of the `emst-cli` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_emst-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("emst-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn generate_then_emst_pipeline() {
    let pts = tmp("pipeline-points.csv");
    let mst = tmp("pipeline-mst.csv");
    let status = bin()
        .args(["generate", "--kind", "hacc", "--n", "500", "--dim", "3"])
        .args(["--seed", "7", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());

    let out = bin()
        .args(["emst", "--input", pts.to_str().unwrap(), "--dim", "3"])
        .args(["--output", mst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let edges = std::fs::read_to_string(&mst).unwrap();
    assert_eq!(edges.lines().count(), 499);
    // each line is u,v,weight
    let first = edges.lines().next().unwrap();
    assert_eq!(first.split(',').count(), 3);

    std::fs::remove_file(&pts).ok();
    std::fs::remove_file(&mst).ok();
}

#[test]
fn all_algorithms_report_the_same_weight() {
    let pts = tmp("algos-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "normal", "--n", "400", "--dim", "2"])
        .args(["--seed", "3", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    let weight_of = |algo: &str| -> String {
        let out = bin()
            .args(["emst", "--input", pts.to_str().unwrap(), "--algorithm", algo])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo}: {}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        let needle = "weight ";
        let at = stderr.find(needle).unwrap() + needle.len();
        stderr[at..].split(',').next().unwrap().trim().to_string()
    };
    let w = weight_of("single-tree");
    assert_eq!(w, weight_of("dual-tree"));
    assert_eq!(w, weight_of("wspd"));
    assert_eq!(w, weight_of("kd-single-tree"));
    std::fs::remove_file(&pts).ok();
}

#[test]
fn hdbscan_writes_one_label_per_point() {
    let pts = tmp("hdb-points.csv");
    let labels = tmp("hdb-labels.csv");
    assert!(bin()
        .args(["generate", "--kind", "visualvar", "--n", "600", "--dim", "2"])
        .args(["--seed", "5", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["hdbscan", "--input", pts.to_str().unwrap(), "--k", "6"])
        .args(["--min-cluster-size", "20", "--output", labels.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let content = std::fs::read_to_string(&labels).unwrap();
    assert_eq!(content.lines().count(), 600);
    assert!(content.lines().all(|l| l.parse::<i32>().is_ok()));
    std::fs::remove_file(&pts).ok();
    std::fs::remove_file(&labels).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    assert!(!bin().status().unwrap().success());
    assert!(!bin().args(["frobnicate"]).status().unwrap().success());
    assert!(!bin().args(["emst", "--input", "/no/such/file.csv"]).status().unwrap().success());
    assert!(!bin()
        .args(["generate", "--kind", "nonsense", "--n", "10", "--output", "/dev/null"])
        .status()
        .unwrap()
        .success());
}

/// Runs the binary expecting failure; returns stderr for message checks.
fn expect_error(args: &[&str]) -> String {
    let out = bin().args(args).output().unwrap();
    assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
    String::from_utf8_lossy(&out.stderr).to_string()
}

#[test]
fn malformed_numeric_arguments_error_instead_of_defaulting() {
    let stderr = expect_error(&["emst", "--input", "x.csv", "--dim", "banana"]);
    assert!(stderr.contains("invalid --dim"), "stderr: {stderr}");
    let stderr = expect_error(&["generate", "--kind", "uniform", "--n", "ten", "--output", "x"]);
    assert!(stderr.contains("invalid --n"), "stderr: {stderr}");
    let stderr = expect_error(&[
        "generate", "--kind", "uniform", "--n", "5", "--seed", "x", "--output", "x",
    ]);
    assert!(stderr.contains("invalid --seed"), "stderr: {stderr}");
    let stderr = expect_error(&["emst", "--input", "x.csv", "--shards", "-3"]);
    assert!(stderr.contains("invalid --shards"), "stderr: {stderr}");
    let stderr = expect_error(&["hdbscan", "--input", "x.csv", "--k", "2.5"]);
    assert!(stderr.contains("invalid --k"), "stderr: {stderr}");
    // A misspelled or removed flag is an error naming it and the command.
    let stderr = expect_error(&["emst", "--input", "x.csv", "--shardz", "4"]);
    assert!(stderr.contains("unknown flag --shardz for emst"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", "x.csv", "--workers", "2"]);
    assert!(stderr.contains("unknown flag --workers for serve"), "stderr: {stderr}");
    let stderr = expect_error(&["emst", "--input", "x.csv", "--traversal", "stack"]);
    assert!(stderr.contains("unknown flag --traversal for emst"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", "x.csv", "--traversal", "stack"]);
    assert!(stderr.contains("unknown flag --traversal for serve"), "stderr: {stderr}");
    let stderr = expect_error(&["generate", "--kind", "nonsense", "--n", "10", "--output", "x"]);
    assert!(stderr.contains("unknown --kind \"nonsense\""), "stderr: {stderr}");
    let stderr = expect_error(&["generate", "--n", "10", "--output", "x"]);
    assert!(stderr.contains("--kind is required"), "stderr: {stderr}");
}

/// Every `--kind` name reaches its own generator: the file `generate`
/// writes reads back as exactly `Kind::generate`'s points.
#[test]
fn generate_writes_every_kind_bit_identically() {
    use emst::datasets::Kind;
    use emst::serve::net::load_points;

    for kind in Kind::ALL {
        let path = tmp(&format!("kind-{}.csv", kind.name()));
        let out = bin()
            .args(["generate", "--kind", kind.name(), "--n", "300", "--dim", "3"])
            .args(["--seed", "11", "--output", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{kind:?}: {}", String::from_utf8_lossy(&out.stderr));
        let written = load_points::<3>(path.to_str().unwrap(), None).unwrap();
        assert_eq!(written, kind.generate::<3>(300, 11), "{kind:?}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn unreadable_input_reports_path_and_fails() {
    // A directory is unreadable as a point file and must produce a clean
    // error naming the path, not a panic.
    let dir = tmp("unreadable-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let out = bin().args(["emst", "--input", dir.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
    assert!(stderr.contains(dir.to_str().unwrap()), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn sharded_and_streamed_runs_match_the_monolithic_weight() {
    let pts = tmp("shard-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "hacc", "--n", "800", "--dim", "2"])
        .args(["--seed", "11", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    let weight_of = |extra: &[&str]| -> String {
        let out =
            bin().args(["emst", "--input", pts.to_str().unwrap()]).args(extra).output().unwrap();
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        let needle = "weight ";
        let at = stderr.find(needle).unwrap() + needle.len();
        stderr[at..].split(',').next().unwrap().trim().to_string()
    };
    let mono = weight_of(&[]);
    assert_eq!(mono, weight_of(&["--shards", "4"]));
    assert_eq!(mono, weight_of(&["--shards", "7", "--backend", "serial"]));
    assert_eq!(mono, weight_of(&["--shards", "3", "--max-resident", "400"]));
    std::fs::remove_file(&pts).ok();
}

#[test]
fn streamed_run_rejects_empty_input_like_the_in_memory_path() {
    let pts = tmp("stream-empty.csv");
    std::fs::write(&pts, "x,y\n").unwrap(); // header only: zero points
    let out = bin()
        .args(["emst", "--input", pts.to_str().unwrap(), "--shards", "2"])
        .args(["--max-resident", "100"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no points"), "stderr: {stderr}");
    std::fs::remove_file(&pts).ok();
}

#[test]
fn sharded_run_reports_shard_stats() {
    let pts = tmp("shard-stats-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "500", "--dim", "2"])
        .args(["--seed", "2", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out =
        bin().args(["emst", "--input", pts.to_str().unwrap(), "--shards", "4"]).output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("shards: 4"), "stderr: {stderr}");
    assert!(stderr.contains("merge rounds"), "stderr: {stderr}");
    std::fs::remove_file(&pts).ok();
}

#[test]
fn usage_mentions_every_command_and_flag() {
    // The usage text is the CLI's contract; a flag that exists but is not
    // documented here (or vice versa) is a bug this test pins down.
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr).to_string();
    for command in ["generate", "emst", "hdbscan", "serve"] {
        assert!(usage.contains(command), "usage misses command {command}: {usage}");
    }
    for flag in [
        "--kind",
        "--n",
        "--dim",
        "--seed",
        "--output",
        "--input",
        "--algorithm",
        "--backend",
        "--shards",
        "--max-resident",
        "--k",
        "--min-cluster-size",
        "--log-format",
        "--metrics-file",
        "--spill-dir",
        "--fallback-spill-dir",
        "--spill-retries",
        "--deadline-ms",
        "--max-in-flight",
        "--fault-plan",
        "--listen",
        "--net-workers",
        "--max-pending",
    ] {
        assert!(usage.contains(flag), "usage misses flag {flag}: {usage}");
    }
    // `generate`'s `--kind` list names every generator kind, in order.
    let kinds = usage.split("--kind <").nth(1).and_then(|rest| rest.split('>').next());
    let names = emst::datasets::Kind::ALL.map(|kind| kind.name()).join("|");
    assert_eq!(kinds, Some(names.as_str()), "usage: {usage}");
    // And the serve protocol's verbs are spelled out.
    for verb in ["subset", "knn", "stats", "metrics", "trace", "insert", "delete", "quit"] {
        assert!(usage.contains(verb), "usage misses serve verb {verb}: {usage}");
    }
}

/// Pipes `commands` into `emst-cli serve` over `input` and returns stdout.
fn serve_session(input: &std::path::Path, extra: &[&str], commands: &str) -> String {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = bin()
        .args(["serve", "--input", input.to_str().unwrap()])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(commands.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn serve_answers_repeated_queries_from_the_cache() {
    let pts = tmp("serve-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "700", "--dim", "2"])
        .args(["--seed", "9", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    let commands = "emst\nemst\nsubset 100..600\nknn 2 0.5 0.5\nhdbscan 5 20\nstats\nquit\n";
    let stdout = serve_session(&pts, &["--shards", "4", "--max-resident", "2"], commands);

    // Both full queries hit the resident artifacts (ingest ran at startup)
    // and, carrying no wall-clock fields, are byte-identical.
    let emst_lines: Vec<&str> =
        stdout.lines().filter(|l| l.starts_with("ok emst cache=hit n=700 edges=699 ")).collect();
    assert_eq!(emst_lines.len(), 2, "stdout: {stdout}");
    assert_eq!(emst_lines[0], emst_lines[1]);
    assert!(stdout.contains("ok subset cache=hit m=500 edges=499"), "stdout: {stdout}");
    assert!(stdout.contains("ok knn cache=hit k=2 "), "stdout: {stdout}");
    assert!(stdout.contains("ok hdbscan cache=hit"), "stdout: {stdout}");
    assert!(stdout.contains("ok stats resident=1"), "stdout: {stdout}");
    assert!(stdout.contains(" misses=1 "), "stdout: {stdout}");
    assert!(stdout.ends_with("ok bye\n"), "stdout: {stdout}");
    std::fs::remove_file(&pts).ok();
}

/// Stdin is one more wire session: piping a script into `emst-cli serve`
/// prints exactly the bytes `respond` returns for the same lines on an
/// in-process engine built like the CLI's (`--shards 4`, default
/// `--max-resident 4`, Threads) — blank, unknown, refused and invalid
/// UTF-8 lines included.
#[test]
fn serve_stdin_transcript_equals_the_respond_oracle_byte_for_byte() {
    use emst::serve::net::{load_points, respond};
    use emst::serve::{NetSession, ServeConfig, ServeEngine};
    use std::io::Write as _;
    use std::process::Stdio;
    use std::sync::Arc;

    let pts = tmp("transcript-points.csv");
    let other = tmp("transcript-other.csv");
    for (path, kind, n, seed) in [(&pts, "uniform", "400", "51"), (&other, "hacc", "300", "52")] {
        assert!(bin()
            .args(["generate", "--kind", kind, "--n", n, "--dim", "2"])
            .args(["--seed", seed, "--output", path.to_str().unwrap()])
            .status()
            .unwrap()
            .success());
    }
    let load = format!("load {}", other.to_str().unwrap());
    let lines: Vec<&[u8]> = vec![
        b"ping",
        b"emst",
        b"subset 40..360",
        b"knn 3 0.5 0.5",
        b"hdbscan 5 20",
        b"insert 0.31 0.64 0.22 0.18",
        b"emst",
        b"delete 0 7 150",
        b"emst",
        load.as_bytes(),
        b"emst",
        b"stats",
        b"",
        b"frobnicate",
        b"emst out.csv",
        b"\xff\xfe junk",
        b"quit",
    ];
    let script: Vec<u8> = lines.iter().flat_map(|l| l.iter().chain(b"\n")).copied().collect();

    let mut child = bin()
        .args(["serve", "--input", pts.to_str().unwrap(), "--shards", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(&script).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));

    // The oracle reads the cloud through the loader the CLI itself uses.
    let cloud = Arc::new(load_points::<2>(pts.to_str().unwrap(), None).unwrap());
    let engine = ServeEngine::<_, 2>::new(emst::exec::Threads, ServeConfig::new(4, 4));
    engine.ingest(&cloud);
    let mut session = NetSession::new(cloud);
    let expected: String = lines
        .iter()
        .map(|l| respond(&engine, &mut session, &String::from_utf8_lossy(l)).text)
        .collect();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
    // The oracle itself exercised what the script is for.
    let replies: Vec<&str> = expected.lines().collect();
    assert_eq!(replies.len(), lines.len(), "{expected}");
    assert!(replies[10].starts_with("ok emst cache=hit n=300 "), "{expected}");
    assert!(replies[13].starts_with("err unknown command \"frobnicate\""), "{expected}");
    assert_eq!(replies[14], "err emst takes no arguments over the wire");
    assert!(replies[15].starts_with("err unknown command \"\u{fffd}\u{fffd}\""), "{expected}");
    assert_eq!(replies[16], "ok bye");
    std::fs::remove_file(&pts).ok();
    std::fs::remove_file(&other).ok();
}

/// One NaN coordinate once hung every solve path; now each input path
/// refuses the file promptly with an error naming `file:line`.
#[test]
fn nan_coordinate_fails_fast_naming_file_and_line() {
    use std::io::Read as _;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let pts = tmp("nan-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "300", "--dim", "2"])
        .args(["--seed", "3", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let mut text = std::fs::read_to_string(&pts).unwrap();
    text.push_str("NaN,0.5\n");
    std::fs::write(&pts, text).unwrap();
    let path = pts.to_str().unwrap();
    for args in [
        &["emst", "--input", path][..],
        &["emst", "--input", path, "--shards", "2"],
        &["emst", "--input", path, "--shards", "2", "--max-resident", "100"],
        &["serve", "--input", path],
    ] {
        let mut child = bin()
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if Instant::now() > deadline {
                child.kill().ok();
                panic!("{args:?} still running after 60 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
        assert!(!status.success(), "{args:?} accepted a NaN coordinate");
        assert!(stderr.contains(&format!("{path}:301: coordinate \"NaN\"")), "{stderr}");
    }
    std::fs::remove_file(&pts).ok();
}

#[test]
fn serve_rejects_bad_commands_without_dying() {
    let pts = tmp("serve-robust-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "100", "--dim", "2"])
        .args(["--seed", "4", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let stdout = serve_session(
        &pts,
        &[],
        "frobnicate\nsubset 90..300\nknn five 0 0\nhdbscan 0 1\nemst\nquit\n",
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "one reply per line: {stdout}");
    assert!(lines[0].starts_with("err unknown command \"frobnicate\""), "stdout: {stdout}");
    assert_eq!(lines[1], "err subset 90..300 out of range for 100 points");
    assert_eq!(lines[2], "err invalid <k> \"five\"");
    assert_eq!(lines[3], "err hdbscan needs k_pts >= 1 and min_cluster_size >= 2");
    // The engine survived all of it and still answered.
    assert!(lines[4].starts_with("ok emst cache=hit n=100 edges=99 "), "stdout: {stdout}");
    assert_eq!(lines[5], "ok bye");
    std::fs::remove_file(&pts).ok();
}

#[test]
fn serve_mutates_the_session_cloud_in_place() {
    let pts = tmp("serve-mutate-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "200", "--dim", "2"])
        .args(["--seed", "31", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // insert two points, query the mutated cloud, delete three ids, then
    // exercise the error taxonomy: engine-layer rejection (duplicate id)
    // and parse-layer rejection (odd coordinate count) both leave the
    // session alive and the cloud untouched.
    let stdout = serve_session(
        &pts,
        &["--shards", "4"],
        "insert 0.31 0.64 0.22 0.18\nemst\ndelete 0 7 150\ndelete 0 0\ninsert 0.5\nemst\nquit\n",
    );
    let insert_line = stdout
        .lines()
        .find(|l| l.starts_with("ok insert key="))
        .unwrap_or_else(|| panic!("no insert reply: {stdout}"));
    assert!(insert_line.contains(" n=202 "), "stdout: {stdout}");
    assert!(insert_line.contains(" dirty="), "stdout: {stdout}");
    assert!(insert_line.contains(" reused="), "stdout: {stdout}");
    assert!(insert_line.contains(" edges=201 "), "stdout: {stdout}");
    // The session now serves the mutated cloud: the emst between the
    // mutations sees 202 points, the one after the failed mutations 199.
    assert!(stdout.contains("ok emst cache=hit n=202 edges=201"), "stdout: {stdout}");
    let delete_line = stdout
        .lines()
        .find(|l| l.starts_with("ok delete key="))
        .unwrap_or_else(|| panic!("no delete reply: {stdout}"));
    assert!(delete_line.contains(" n=199 "), "stdout: {stdout}");
    assert!(delete_line.contains(" edges=198 "), "stdout: {stdout}");
    assert!(stdout.contains("\nerr invalid request: duplicate delete id 0\n"), "stdout: {stdout}");
    assert!(stdout.contains("\nerr insert needs coordinates in groups of 2\n"), "stdout: {stdout}");
    assert!(stdout.contains("ok emst cache=hit n=199 edges=198"), "stdout: {stdout}");
    std::fs::remove_file(&pts).ok();
}

#[test]
fn serve_strict_argument_errors() {
    // Flag validation precedes input loading, so the path need not exist.
    let stderr = expect_error(&["serve", "--input", "x.csv", "--shards", "banana"]);
    assert!(stderr.contains("invalid --shards"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", "x.csv", "--shards", "0"]);
    assert!(stderr.contains("--shards must be at least 1"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", "x.csv", "--max-resident", "0"]);
    assert!(stderr.contains("--max-resident must be at least 1"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", "x.csv", "--max-resident", "-2"]);
    assert!(stderr.contains("invalid --max-resident"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", "x.csv", "--log-format", "yaml"]);
    assert!(stderr.contains("invalid --log-format"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--shards", "2"]);
    assert!(stderr.contains("--input is required"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", "/no/such/file.csv"]);
    assert!(stderr.contains("/no/such/file.csv"), "stderr: {stderr}");
}

#[test]
fn serve_validates_spill_dirs_at_startup() {
    // An unwritable spill destination must fail the *launch* with a clear
    // message naming the flag — not the first eviction mid-serve. A file
    // in the way makes the path impossible to create as a directory.
    let blocker = tmp("serve-spilldir-blocker");
    std::fs::write(&blocker, b"in the way").unwrap();
    let under_file = blocker.join("spills");
    let stderr =
        expect_error(&["serve", "--input", "x.csv", "--spill-dir", under_file.to_str().unwrap()]);
    assert!(stderr.contains("--spill-dir"), "stderr: {stderr}");
    assert!(stderr.contains("cannot create directory"), "stderr: {stderr}");
    let stderr = expect_error(&[
        "serve",
        "--input",
        "x.csv",
        "--fallback-spill-dir",
        under_file.to_str().unwrap(),
    ]);
    assert!(stderr.contains("--fallback-spill-dir"), "stderr: {stderr}");
    std::fs::remove_file(&blocker).ok();

    // Flag validation still precedes input loading for the new flags.
    let stderr = expect_error(&["serve", "--input", "x.csv", "--deadline-ms", "soon"]);
    assert!(stderr.contains("invalid --deadline-ms"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", "x.csv", "--max-in-flight", "-1"]);
    assert!(stderr.contains("invalid --max-in-flight"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", "x.csv", "--spill-retries", "lots"]);
    assert!(stderr.contains("invalid --spill-retries"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", "x.csv", "--fault-plan", "write=eio@0.5"]);
    assert!(stderr.contains("invalid --fault-plan"), "stderr: {stderr}");
    assert!(stderr.contains("missing `seed=N`"), "stderr: {stderr}");
}

#[test]
fn serve_deadline_returns_honest_errors_and_keeps_serving() {
    let pts = tmp("serve-deadline-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "500", "--dim", "2"])
        .args(["--seed", "31", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    // A 0... ms budget is floored at "no deadline"; 1 ns is not expressible,
    // so use 1 ms with a cloud large enough that the merge spans rounds —
    // but to make the outcome deterministic the test drives the *zero*
    // budget through the engine API instead. Here the CLI contract under
    // test is: a deadline error is a command error line, not a dead server.
    let stdout =
        serve_session(&pts, &["--shards", "4", "--deadline-ms", "1"], "emst\nemst\nstats\nquit\n");
    // Whatever the machine's speed, every emst line is either a served
    // answer or an honest deadline error — and stats still answers, so the
    // server survived.
    for line in stdout.lines().filter(|l| !l.starts_with("ok stats") && *l != "ok bye") {
        assert!(
            line.starts_with("ok emst cache=") || line.starts_with("err query deadline exceeded"),
            "unexpected line: {line}"
        );
    }
    assert!(stdout.contains("ok stats resident=1"), "stdout: {stdout}");
    assert!(stdout.contains("deadline_exceeded="), "stdout: {stdout}");
    std::fs::remove_file(&pts).ok();
}

#[test]
fn serve_fault_plan_injects_and_stats_report_it() {
    let a = tmp("serve-chaos-a.csv");
    let b = tmp("serve-chaos-b.csv");
    for (path, seed) in [(&a, "41"), (&b, "43")] {
        assert!(bin()
            .args(["generate", "--kind", "uniform", "--n", "300", "--dim", "2"])
            .args(["--seed", seed, "--output", path.to_str().unwrap()])
            .status()
            .unwrap()
            .success());
    }
    // Every spill write fails with EIO: loading a second cloud over a
    // one-slot budget forces an eviction whose spill write is injected to
    // fail (all retries included) — counted, logged, and survivable.
    let commands = format!("emst\nload {}\nemst\nstats\nquit\n", b.to_str().unwrap());
    let stdout = serve_session(
        &a,
        &["--max-resident", "1", "--fault-plan", "seed=5;write=eio@1.0"],
        &commands,
    );
    assert!(stdout.contains("ok loaded n=300"), "stdout: {stdout}");
    // Both clouds answered despite the storage chaos.
    assert_eq!(stdout.lines().filter(|l| l.starts_with("ok emst cache=")).count(), 2, "{stdout}");
    let stats_line = stdout.lines().find(|l| l.starts_with("ok stats ")).unwrap().to_string();
    let field = |name: &str| -> u64 {
        let needle = format!(" {name}=");
        let at = stats_line.find(&needle).unwrap() + needle.len();
        stats_line[at..].split_whitespace().next().unwrap().parse().unwrap()
    };
    assert_eq!(field("evictions"), 1, "stats: {stats_line}");
    assert_eq!(field("spill_failures"), 1, "stats: {stats_line}");
    assert!(field("spill_retries") >= 1, "retries must have run: {stats_line}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn metrics_file_writes_go_through_the_fault_plan() {
    // Regression for the ROADMAP fault-site gap: `--metrics-file` writes
    // route through the injector's `metrics` site. Every write fails here,
    // with EIO and then with ENOSPC — counted and logged, the serving loop
    // survives, and neither a snapshot file nor a partial temp file
    // appears (the writer is atomic: a disk that fills mid-write leaves
    // the destination as it was).
    let pts = tmp("serve-metricsfault-points.csv");
    let metrics = tmp("serve-metricsfault.prom");
    let temp =
        metrics.with_file_name(format!(".tmp-{}", metrics.file_name().unwrap().to_str().unwrap()));
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "200", "--dim", "2"])
        .args(["--seed", "31", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    use std::io::Write as _;
    use std::process::Stdio;
    for kind in ["eio", "enospc"] {
        std::fs::remove_file(&metrics).ok();
        let mut child = bin()
            .args(["serve", "--input", pts.to_str().unwrap()])
            .args(["--metrics-file", metrics.to_str().unwrap()])
            .args(["--fault-plan", &format!("seed=7;metrics={kind}@1.0")])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child.stdin.as_mut().unwrap().write_all(b"emst\nstats\nquit\n").unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("ok emst cache="), "{kind}: server must keep serving: {stdout}");
        assert!(!metrics.exists(), "{kind}: every metrics write was injected to fail");
        assert!(!temp.exists(), "{kind}: a failed write must not leave its temp file");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("metrics file write failed"), "{kind}: stderr: {stderr}");
    }
    std::fs::remove_file(&pts).ok();
}

#[test]
fn dataset_ingest_reads_go_through_the_fault_plan() {
    // Regression for the other fault-site gap: serve-mode dataset ingest
    // reads route through the injector's `ingest` site. An EIO on the
    // initial `--input` read is an honest launch failure naming the file.
    let pts = tmp("serve-ingestfault-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "200", "--dim", "2"])
        .args(["--seed", "33", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let stderr = expect_error(&[
        "serve",
        "--input",
        pts.to_str().unwrap(),
        "--fault-plan",
        "seed=7;ingest=eio@1.0",
    ]);
    assert!(stderr.contains(pts.to_str().unwrap()), "stderr: {stderr}");
    assert!(stderr.contains("os error 5"), "stderr: {stderr}");

    // The protocol's `load` path is covered too: a clean first read (the
    // plan's rule fires on ingest ordinal 1, not 0) followed by an
    // injected one.
    let stdout = serve_session(
        &pts,
        &["--fault-plan", "seed=7;ingest=bitflip@1.0"],
        &format!("load {}\nquit\n", pts.to_str().unwrap()),
    );
    // A flipped bit in CSV text either still parses (digit changed -> new
    // cloud) or is a clean parse error; both are honest line outcomes.
    assert!(
        stdout.starts_with("ok loaded n=") || stdout.starts_with("err "),
        "load must answer honestly: {stdout}"
    );
    assert!(stdout.ends_with("ok bye\n"), "stdout: {stdout}");
    std::fs::remove_file(&pts).ok();
}

#[test]
fn serve_listen_flags_validate_and_serve_over_tcp() {
    let pts = tmp("serve-listen-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "250", "--dim", "2"])
        .args(["--seed", "35", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // Flag validation precedes serving.
    let stderr = expect_error(&["serve", "--input", pts.to_str().unwrap(), "--net-workers", "0"]);
    assert!(stderr.contains("--net-workers"), "stderr: {stderr}");
    let stderr = expect_error(&["serve", "--input", pts.to_str().unwrap(), "--max-pending", "0"]);
    assert!(stderr.contains("--max-pending"), "stderr: {stderr}");
    let stderr =
        expect_error(&["serve", "--input", pts.to_str().unwrap(), "--listen", "256.0.0.1:0"]);
    assert!(stderr.contains("--listen"), "stderr: {stderr}");

    // End to end over a real socket: the CLI prints the ephemeral address,
    // a raw TCP client gets protocol replies, and closing stdin shuts the
    // listener down gracefully.
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    use std::process::Stdio;
    let mut child = bin()
        .args(["serve", "--input", pts.to_str().unwrap(), "--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner.trim().strip_prefix("listening ").unwrap_or_else(|| panic!("{banner}"));

    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(b"ping\nemst\nquit\n").unwrap();
    let mut replies = String::new();
    conn.read_to_string(&mut replies).unwrap();
    assert_eq!(replies.lines().count(), 3, "replies: {replies}");
    assert!(replies.starts_with("ok pong\n"), "replies: {replies}");
    assert!(replies.contains("\nok emst cache=hit n=250 "), "replies: {replies}");
    assert!(replies.ends_with("ok bye\n"), "replies: {replies}");

    drop(child.stdin.take()); // EOF -> graceful shutdown
    let status = child.wait().unwrap();
    assert!(status.success());
    std::fs::remove_file(&pts).ok();
}

#[test]
fn serve_stats_line_covers_every_serve_stats_field() {
    // Driven by `ServeStats::named_fields()` so that adding a field to
    // `ServeStats` without printing it in the `stats` reply fails this
    // test (the exhaustive destructure inside `named_fields` already makes
    // forgetting to *export* the field a compile error).
    let pts = tmp("serve-statsline-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "200", "--dim", "2"])
        .args(["--seed", "21", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let stdout = serve_session(&pts, &[], "emst\nstats\nquit\n");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("ok stats "))
        .unwrap_or_else(|| panic!("no stats line in: {stdout}"));
    assert!(line.contains("resident=1"), "stats line: {line}");
    assert!(line.contains("bytes="), "stats line: {line}");
    for (name, _) in emst::serve::ServeStats::default().named_fields() {
        assert!(line.contains(&format!(" {name}=")), "stats line misses {name}: {line}");
    }
    // The two fields PR 6 added must be among them — a regression guard on
    // `named_fields` itself going stale.
    assert!(line.contains("digest_collisions="), "stats line: {line}");
    assert!(line.contains("coalesced="), "stats line: {line}");
    std::fs::remove_file(&pts).ok();
}

#[test]
fn serve_metrics_and_trace_commands_report_populated_observability() {
    let pts = tmp("serve-metrics-points.csv");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "300", "--dim", "2"])
        .args(["--seed", "23", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let stdout = serve_session(
        &pts,
        &["--shards", "2"],
        "emst\nemst\nknn 2 0.5 0.5\nmetrics\ntrace\nmetrics json\nmetrics yaml\nquit\n",
    );

    // Prometheus exposition: per-op latency histograms with quantiles.
    assert!(stdout.contains("# TYPE emst_serve_op_seconds histogram"), "stdout: {stdout}");
    assert!(stdout.contains("emst_serve_op_seconds_count{op=\"emst\"} 2"), "stdout: {stdout}");
    assert!(stdout.contains("emst_serve_op_seconds_count{op=\"knn\"} 1"), "stdout: {stdout}");
    for q in ["p50", "p95", "p99"] {
        assert!(
            stdout.contains(&format!("emst_serve_op_seconds_{q}{{op=\"emst\"}}")),
            "missing {q}: {stdout}"
        );
    }
    assert!(stdout.contains("emst_serve_cache_events_total{event=\"hit\"}"), "stdout: {stdout}");
    assert!(stdout.contains("emst_serve_resident_clouds 1"), "stdout: {stdout}");

    // Traces: newest-first, so the knn query renders before the emst ones,
    // and the span breakdown is attached.
    let knn_at = stdout.find("op=knn").unwrap_or_else(|| panic!("no knn trace: {stdout}"));
    let emst_at = stdout.find("op=emst").unwrap_or_else(|| panic!("no emst trace: {stdout}"));
    assert!(knn_at < emst_at, "traces not newest-first: {stdout}");
    assert!(stdout.contains("query #"), "stdout: {stdout}");
    assert!(stdout.contains("digest"), "stdout: {stdout}");

    // JSON exporter answers too, and a bad format is a clean error.
    assert!(stdout.contains("\"emst_serve_op_seconds{op=\\\"emst\\\"}\""), "stdout: {stdout}");
    assert!(stdout.contains("\nerr invalid metrics format \"yaml\""), "stdout: {stdout}");
    std::fs::remove_file(&pts).ok();
}

#[test]
fn serve_metrics_file_and_json_log_format() {
    let pts = tmp("serve-metricsfile-points.csv");
    let metrics = tmp("serve-metricsfile.prom");
    assert!(bin()
        .args(["generate", "--kind", "uniform", "--n", "200", "--dim", "2"])
        .args(["--seed", "27", "--output", pts.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = bin()
        .args(["serve", "--input", pts.to_str().unwrap()])
        .args(["--log-format", "json", "--metrics-file", metrics.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(b"emst\nknn 3 0.1 0.9\nquit\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));

    // The metrics file holds a full exposition snapshot from after the last
    // command.
    let exposition = std::fs::read_to_string(&metrics).unwrap();
    assert!(exposition.contains("# TYPE emst_serve_op_seconds histogram"), "{exposition}");
    assert!(exposition.contains("emst_serve_op_seconds_count{op=\"knn\"} 1"), "{exposition}");
    assert!(exposition.contains("emst_serve_cache_events_total"), "{exposition}");

    // --log-format json turns the serve banner into a JSON line on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let banner = stderr
        .lines()
        .find(|l| l.contains("\"msg\""))
        .unwrap_or_else(|| panic!("no JSON log line in: {stderr}"));
    assert!(banner.starts_with("{\"ts\":"), "banner: {banner}");
    assert!(banner.contains("\"level\":\"info\""), "banner: {banner}");
    assert!(banner.contains("\"target\":\"emst-cli\""), "banner: {banner}");
    std::fs::remove_file(&pts).ok();
    std::fs::remove_file(&metrics).ok();
}
