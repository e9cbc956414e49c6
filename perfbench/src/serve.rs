//! `serve-read` and `serve-mutate`: closed-loop wire clients against an
//! in-process [`ServeServer`] on loopback, configured as `emst-cli serve
//! --listen` configures it (Threads backend, observability on, default
//! network sizing). Every reply is checked against a twin engine that
//! answers the same lines through [`respond`]; the traced run replays the
//! recorded lines on twin engines to time `respond` and
//! [`ServeEngine::execute`] separately.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use emst_datasets::Kind;
use emst_exec::Threads;
use emst_geometry::Point;
use emst_serve::net::respond;
use emst_serve::{
    CloudRef, NetConfig, NetSession, ServeConfig, ServeEngine, ServeRequest, ServeResponse,
    ServeServer, ServeStats,
};
use emst_shard::{ShardArtifacts, ShardConfig};

use crate::rng::Rng;
use crate::stats::{median, quantile, ratio};
use crate::{cold_setups, peak_rss_mb, Options, Report};

/// Which traffic mix the wire clients send.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `emst`, one `subset`, ten `knn` per cycle on one resident cloud.
    Read,
    /// `insert`, `emst`, `delete`, `emst` per cycle, each client on its
    /// own session.
    Mutate,
}

/// Cloud size and shard count of a mix.
struct Shape {
    n: usize,
    shards: usize,
}

impl Mix {
    fn shape(self) -> Shape {
        match self {
            Mix::Read => Shape { n: 100_000, shards: 4 },
            Mix::Mutate => Shape { n: MUTATE_N, shards: MUTATE_SHARDS },
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mix::Read => "serve-read",
            Mix::Mutate => "serve-mutate",
        }
    }
}

const MUTATE_N: usize = 50_000;
const MUTATE_SHARDS: usize = 8;

/// Points per shard of the serve-mutate cloud: the size of the local solve
/// each dirty shard re-runs.
pub const DIRTY_SHARD_POINTS: usize = MUTATE_N / MUTATE_SHARDS;

/// Closed-loop client connections (one per CPU of the reference host).
const CONNECTIONS: usize = 2;
/// `--max-resident` of the engine: clouds kept built in memory.
const MAX_RESIDENT: usize = 4;
/// `k` of every `knn` line.
const KNN_K: usize = 16;
/// `knn` lines per read cycle.
const KNN_PER_CYCLE: usize = 10;
/// Distinct seeded `knn` positions per read client.
const KNN_POSITIONS: usize = 256;
/// Rotating `subset` windows per read client, each 10% of the index range.
const SUBSET_WINDOWS: usize = 10;
/// Points per `insert` and per `delete`: 1% of the cloud.
const MUTATION_POINTS: usize = MUTATE_N / 100;
/// `emst` reads after each `insert` and each `delete`. One read per
/// mutation gave about 40 `emst` samples per run, too few for a p75 that
/// repeats between runs; every read after the first is answered on the
/// same resident child cloud, as the first is.
const EMST_PER_MUTATION: usize = 3;
/// Spread of an inserted cluster around its anchor (domain is 0..100).
const INSERT_SIGMA: f64 = 1e-3;
/// `ServeEngine::key` repetitions for `serve.digest_ms`.
const DIGEST_REPS: usize = 20;
/// Timed `ShardArtifacts::build` repetitions for `shard.build_s`.
const BUILD_REPS: usize = 3;

/// The verbs the mixes send, in metric-name order.
const VERBS: [&str; 5] = ["emst", "subset", "knn", "insert", "delete"];

/// One request/reply exchange on the wire.
#[derive(Clone)]
struct Exchange {
    line: String,
    reply: String,
    secs: f64,
}

impl Exchange {
    fn verb(&self) -> &str {
        verb_of(&self.line)
    }
}

fn verb_of(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

/// Removes the benchmark's spill directory when the run ends, however it
/// ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench-tmp").join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent behind only while another run still uses it.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// The engine `emst-cli serve --listen` builds for `--shards K
/// --max-resident R`, with spills kept inside the benchmark's scratch
/// directory.
fn engine(shape: &Shape, spill: &ScratchDir) -> ServeEngine<Threads, 3> {
    let mut config = ServeConfig::new(shape.shards, MAX_RESIDENT);
    config.spill_dir = Some(spill.0.clone());
    ServeEngine::new(Threads, config)
}

/// One closed-loop wire connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Self { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Sends one line and waits for its one-line reply.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"));
        }
        Ok(reply)
    }
}

/// Requests per read cycle: `emst`, `subset`, then the `knn` lines.
const READ_CYCLE: usize = 2 + KNN_PER_CYCLE;
/// Requests per mutation cycle: `insert`, the `emst` reads, `delete`, the
/// `emst` reads.
const MUTATE_CYCLE: usize = 2 * (1 + EMST_PER_MUTATION);

/// The seeded request stream of one client; `step` counts lines sent.
enum Generator {
    Read { step: usize, subsets: Vec<String>, knns: Vec<String> },
    Mutate { step: usize, mirror: Vec<Point<3>>, rng: Rng },
}

fn format_point(p: &Point<3>) -> String {
    format!("{} {} {}", p.coords[0], p.coords[1], p.coords[2])
}

impl Generator {
    fn new(mix: Mix, cloud: &[Point<3>], seed: u64, client: usize) -> Self {
        let mut rng = Rng::fork(seed, 1 + client as u64);
        match mix {
            Mix::Read => {
                let n = cloud.len();
                let width = n / SUBSET_WINDOWS;
                let offset = rng.below(width);
                let subsets = (0..SUBSET_WINDOWS)
                    .map(|i| {
                        let lo = (offset + i * width) % (n - width);
                        format!("subset {lo}..{}", lo + width)
                    })
                    .collect();
                let knns = (0..KNN_POSITIONS)
                    .map(|_| format!("knn {KNN_K} {}", format_point(&cloud[rng.below(n)])))
                    .collect();
                let step = rng.below(SUBSET_WINDOWS) * READ_CYCLE;
                Generator::Read { step, subsets, knns }
            }
            Mix::Mutate => Generator::Mutate { step: 0, mirror: cloud.to_vec(), rng },
        }
    }

    fn next_line(&mut self) -> String {
        match self {
            Generator::Read { step, subsets, knns } => {
                let (cycle, pos) = (*step / READ_CYCLE, *step % READ_CYCLE);
                *step += 1;
                match pos {
                    0 => "emst".to_string(),
                    1 => subsets[cycle % subsets.len()].clone(),
                    k => knns[(cycle * KNN_PER_CYCLE + k - 2) % knns.len()].clone(),
                }
            }
            Generator::Mutate { step, mirror, rng } => {
                let pos = *step % MUTATE_CYCLE;
                *step += 1;
                match pos {
                    0 => insert_line(mirror, rng),
                    p if p == MUTATE_CYCLE / 2 => delete_line(mirror, rng),
                    _ => "emst".to_string(),
                }
            }
        }
    }
}

/// `insert` of a fresh 1% cluster around a seeded anchor; the mirror
/// appends it as the server will.
fn insert_line(mirror: &mut Vec<Point<3>>, rng: &mut Rng) -> String {
    let anchor = mirror[rng.below(mirror.len())];
    let mut line = String::from("insert");
    for _ in 0..MUTATION_POINTS {
        let mut c = anchor.coords;
        for x in &mut c {
            *x = (f64::from(*x) + INSERT_SIGMA * rng.normal()) as f32;
        }
        let p = Point::new(c);
        line.push(' ');
        line.push_str(&format_point(&p));
        mirror.push(p);
    }
    line
}

/// `delete` of the 1% of the mirror's points nearest a seeded anchor; the
/// mirror compacts the survivors in order as the server will.
fn delete_line(mirror: &mut Vec<Point<3>>, rng: &mut Rng) -> String {
    let anchor = mirror[rng.below(mirror.len())];
    let mut by_dist: Vec<(f32, u32)> = mirror
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let d: f32 = p.coords.iter().zip(&anchor.coords).map(|(a, b)| (a - b) * (a - b)).sum();
            (d, i as u32)
        })
        .collect();
    by_dist.select_nth_unstable_by(MUTATION_POINTS - 1, |a, b| {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    });
    let mut ids: Vec<u32> = by_dist[..MUTATION_POINTS].iter().map(|&(_, i)| i).collect();
    ids.sort_unstable();
    let mut keep = vec![true; mirror.len()];
    for &i in &ids {
        keep[i as usize] = false;
    }
    let mut k = keep.iter();
    mirror.retain(|_| *k.next().expect("one flag per point"));
    let ids: Vec<String> = ids.iter().map(u32::to_string).collect();
    format!("delete {}", ids.join(" "))
}

/// A running server with its cloud, after the first `emst` reply came
/// back over the wire.
struct Running {
    cloud: Arc<Vec<Point<3>>>,
    server: ServeServer<Threads, 3>,
    first: Exchange,
}

/// Set-up, timed: input generation, engine and server start, the cold
/// build (ingest) and the first `emst` reply over the wire.
fn set_up(mix: Mix, seed: u64, spill: &ScratchDir) -> Result<(Running, f64), String> {
    let started = Instant::now();
    let shape = mix.shape();
    let cloud = Arc::new(crate::rng::dataset(Kind::GeoLifeLike, shape.n, seed));
    let engine = Arc::new(engine(&shape, spill));
    engine.ingest(&cloud);
    let server = ServeServer::bind(
        Arc::clone(&engine),
        Arc::clone(&cloud),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let sent = Instant::now();
    let reply = client.request("emst").map_err(|e| format!("first emst: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    let first = Exchange { line: "emst".into(), reply, secs: sent.elapsed().as_secs_f64() };
    Ok((Running { cloud, server, first }, secs))
}

/// One set-up on its own (`--setup-only 1`): its seconds and the first
/// `emst` reply, without the newline.
pub fn set_up_alone(mix: Mix, seed: u64) -> Result<(f64, String), String> {
    let spill = ScratchDir::new(mix.name())?;
    let (running, secs) = set_up(mix, seed, &spill)?;
    running.server.shutdown();
    Ok((secs, running.first.reply.trim_end().to_string()))
}

/// Runs `CONNECTIONS` closed-loop read clients until `window` has passed.
/// The clients start every cycle of the mix together, so which requests
/// overlap is fixed by the mix rather than by how the clients drift
/// apart; the window closes at a cycle boundary. Returns each client's
/// exchanges, I/O failures, and the elapsed time.
fn drive_together(
    running: &Running,
    seed: u64,
    window: Duration,
) -> (Vec<Vec<Exchange>>, u64, f64) {
    let addr = running.server.local_addr();
    let barrier = Barrier::new(CONNECTIONS);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let deadline = started + window;
    let results: Vec<(Vec<Exchange>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mut generator = Generator::new(Mix::Read, &running.cloud, seed, c);
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let mut log = Vec::new();
                    let mut client = Client::connect(addr).ok();
                    loop {
                        // Agree on stopping (the stores all happen before the
                        // first wait, every load before the second), then
                        // start the next cycle together.
                        if client.is_none() || Instant::now() >= deadline {
                            stop.store(true, SeqCst);
                        }
                        barrier.wait();
                        let done = stop.load(SeqCst);
                        barrier.wait();
                        if done {
                            break;
                        }
                        for _ in 0..READ_CYCLE {
                            let Some(conn) = client.as_mut() else { break };
                            let line = generator.next_line();
                            let sent = Instant::now();
                            match conn.request(&line) {
                                Ok(reply) => {
                                    let secs = sent.elapsed().as_secs_f64();
                                    log.push(Exchange { line, reply, secs });
                                }
                                Err(_) => client = None,
                            }
                        }
                    }
                    (log, u64::from(client.is_none()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let io_failures = results.iter().map(|r| r.1).sum();
    (results.into_iter().map(|r| r.0).collect(), io_failures, elapsed)
}

/// Runs `CONNECTIONS` closed-loop mutation clients from this thread until
/// `window` has passed: the connections take turns, one request at a
/// time, so no two requests run at once and the cache sees the same
/// sequence of admissions and evictions on every run of a seed. The
/// window closes after a full turn. Returns what [`drive_together`] does.
fn drive_in_turn(running: &Running, seed: u64, window: Duration) -> (Vec<Vec<Exchange>>, u64, f64) {
    let addr = running.server.local_addr();
    let mut clients: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let generator = Generator::new(Mix::Mutate, &running.cloud, seed, c);
            (generator, Client::connect(addr).ok(), Vec::new())
        })
        .collect();
    let started = Instant::now();
    let deadline = started + window;
    'window: while Instant::now() < deadline {
        for (generator, client, log) in &mut clients {
            let Some(conn) = client.as_mut() else { break 'window };
            let line = generator.next_line();
            let sent = Instant::now();
            match conn.request(&line) {
                Ok(reply) => log.push(Exchange { line, reply, secs: sent.elapsed().as_secs_f64() }),
                Err(_) => *client = None,
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let io_failures = clients.iter().filter(|(_, client, _)| client.is_none()).count() as u64;
    (clients.into_iter().map(|(_, _, log)| log).collect(), io_failures, elapsed)
}

/// The fields of a reply that do not depend on cache state: everything
/// but `cache=`, `dirty=` and `reused=`.
fn pure_fields(reply: &str) -> Vec<&str> {
    reply
        .split_whitespace()
        .filter(|t| !["cache=", "dirty=", "reused="].iter().any(|p| t.starts_with(p)))
        .collect()
}

/// Whether a wire reply matches the twin's reply to the same line: byte
/// for byte on the read mix, on the pure fields on the mutation mix.
fn reply_matches(mix: Mix, wire: &str, twin: &str) -> bool {
    match mix {
        Mix::Read => wire == twin,
        Mix::Mutate => pure_fields(wire) == pure_fields(twin),
    }
}

/// One line of the traced lockstep replay.
struct LineTiming {
    verb: String,
    /// Round trip over one sequential wire connection.
    wire_s: f64,
    /// The wire server's own handling time of the line, inside `wire_s`.
    server_s: f64,
    /// `net::respond` on the respond twin.
    respond_s: f64,
    /// The respond twin's own query time of the line, inside `respond_s`.
    query_s: f64,
    /// `ServeEngine::execute` on the execute twin, and what it reported.
    execute: ExecuteSample,
}

/// Timings of the traced lockstep replay.
#[derive(Default)]
struct Layers {
    lines: Vec<LineTiming>,
    /// `ServeEngine::key` on the initial cloud.
    digest: Vec<f64>,
}

impl Layers {
    fn of(&self, verb: &str, f: impl Fn(&LineTiming) -> f64) -> Vec<f64> {
        self.lines.iter().filter(|l| l.verb == verb).map(f).collect()
    }
}

/// The fields that describe a session cloud's tree: `n=`, `edges=`,
/// `weight=`, `check=`. A mutation reply and the `emst` reply on its child
/// cloud agree on them.
fn tree_fields(reply: &str) -> Vec<&str> {
    let tree = ["n=", "edges=", "weight=", "check="];
    reply.split_whitespace().filter(|t| tree.iter().any(|p| t.starts_with(p))).collect()
}

/// The server's handling time per line, recorded in the engine's registry.
const NET_REQUEST_SECONDS: &str = "emst_serve_net_request_seconds";

/// Total seconds recorded so far in one of the engine's latency
/// histograms; the difference across a call is that call's share.
fn histogram_secs(engine: &ServeEngine<Threads, 3>, name: &str) -> f64 {
    let registry = engine.obs_registry().expect("engines run with observability on");
    registry.histogram(name).snapshot().sum_seconds()
}

/// The engine's query-latency histogram of a verb.
fn op_seconds(verb: &str) -> String {
    format!("emst_serve_op_seconds{{op=\"{verb}\"}}")
}

/// Replays every client's lines, each client on its own session starting
/// at `cloud`, through [`respond`] on a twin engine and checks the wire
/// replies against it. Untraced, the twin skips what it already knows: on
/// the read mix a line already answered (its sessions never change), on
/// the mutation mix an `emst`, which must describe the same tree as the
/// twin's reply to the mutation before it. Traced, every line also
/// goes, in lockstep, to a fresh wire server over one sequential
/// connection and to [`ServeEngine::execute`] on a third twin, so the
/// three timings of a line share the machine's conditions. Returns the
/// mismatch count and, traced, the timings.
fn replay(
    mix: Mix,
    cloud: &Arc<Vec<Point<3>>>,
    logs: &[Vec<Exchange>],
    traced: bool,
) -> Result<(u64, Option<Layers>), String> {
    let shape = mix.shape();
    let twin_spill = ScratchDir::new(&format!("{}-respond", mix.name()))?;
    let twin = engine(&shape, &twin_spill);
    twin.ingest(cloud);
    let (wire_spill, exec_spill);
    let mut lockstep = None;
    if traced {
        wire_spill = ScratchDir::new(&format!("{}-wire", mix.name()))?;
        exec_spill = ScratchDir::new(&format!("{}-execute", mix.name()))?;
        let wire_engine = Arc::new(engine(&shape, &wire_spill));
        wire_engine.ingest(cloud);
        let server =
            ServeServer::bind(wire_engine, Arc::clone(cloud), "127.0.0.1:0", NetConfig::default())
                .map_err(|e| format!("bind: {e}"))?;
        let exec = engine(&shape, &exec_spill);
        exec.ingest(cloud);
        lockstep = Some((server, exec));
    }
    let distinct_only = mix == Mix::Read && !traced;
    let mut layers = Layers::default();
    let mut mismatches = 0;
    let mut answered: HashMap<&str, String> = HashMap::new();
    for log in logs {
        let mut session = NetSession::new(Arc::clone(cloud));
        let mut exec_session = Arc::clone(cloud);
        let mut client = match &lockstep {
            Some((server, _)) => {
                Some(Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?)
            }
            None => None,
        };
        let mut last_tree: Option<String> = None;
        for x in log {
            let verb = x.verb();
            if let (Mix::Mutate, "emst", false, Some(tree)) = (mix, verb, traced, &last_tree) {
                if tree_fields(&x.reply) != tree_fields(tree) || !x.reply.starts_with("ok emst ") {
                    report_mismatch(mix, x, tree, mismatches);
                    mismatches += 1;
                }
                continue;
            }
            let mut traced_line = None;
            if let (Some(client), Some((server, exec))) = (client.as_mut(), &lockstep) {
                let handled = histogram_secs(server.engine(), NET_REQUEST_SECONDS);
                let started = Instant::now();
                client.request(&x.line).map_err(|e| format!("replay {verb}: {e}"))?;
                let wire_s = started.elapsed().as_secs_f64();
                let server_s = histogram_secs(server.engine(), NET_REQUEST_SECONDS) - handled;
                let execute = execute_line(exec, &mut exec_session, &x.line)?;
                traced_line = Some((wire_s, server_s, execute));
            }
            let expected = match answered.get(x.line.as_str()) {
                Some(reply) if distinct_only => reply.clone(),
                _ => {
                    let queried = histogram_secs(&twin, &op_seconds(verb));
                    let started = Instant::now();
                    let reply = respond(&twin, &mut session, &x.line).text;
                    let respond_s = started.elapsed().as_secs_f64();
                    let query_s = histogram_secs(&twin, &op_seconds(verb)) - queried;
                    if let Some((wire_s, server_s, execute)) = traced_line {
                        layers.lines.push(LineTiming {
                            verb: verb.into(),
                            wire_s,
                            server_s,
                            respond_s,
                            query_s,
                            execute,
                        });
                    }
                    answered.insert(&x.line, reply.clone());
                    reply
                }
            };
            if !reply_matches(mix, &x.reply, &expected) {
                report_mismatch(mix, x, &expected, mismatches);
                mismatches += 1;
            }
            if verb != "emst" {
                last_tree = Some(expected);
            }
        }
    }
    let Some((server, exec)) = lockstep else { return Ok((mismatches, None)) };
    server.shutdown();
    layers.digest = (0..DIGEST_REPS)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(exec.key(std::hint::black_box(cloud)));
            started.elapsed().as_secs_f64()
        })
        .collect();
    Ok((mismatches, Some(layers)))
}

/// Prints the first mismatch of a run.
fn report_mismatch(mix: Mix, x: &Exchange, expected: &str, earlier: u64) {
    if earlier == 0 {
        eprintln!(
            "{}: reply mismatch for {:.60}\n  wire: {:.200}\n  twin: {:.200}",
            mix.name(),
            x.line,
            x.reply.trim_end(),
            expected.trim_end()
        );
    }
}

/// What [`ServeEngine::execute`] reported for one replayed line.
#[derive(Default)]
struct ExecuteSample {
    secs: f64,
    merge_s: f64,
    merge_query_s: f64,
    merge_distances: u64,
    update: Option<UpdateSample>,
}

struct UpdateSample {
    plan_s: f64,
    local_s: f64,
    merge_s: f64,
    dirty: usize,
    reused: usize,
    full_rebuild: bool,
}

fn parse_coords(tokens: &[&str]) -> Result<Vec<Point<3>>, String> {
    if tokens.is_empty() || !tokens.len().is_multiple_of(3) {
        return Err(format!("{} coordinates do not form 3D points", tokens.len()));
    }
    tokens
        .chunks(3)
        .map(|c| {
            let mut p = [0.0f32; 3];
            for (x, t) in p.iter_mut().zip(c) {
                *x = t.parse().map_err(|_| format!("bad coordinate {t:?}"))?;
            }
            Ok(Point::new(p))
        })
        .collect()
}

/// Builds the typed request for one benchmark line (parsed outside the
/// timed region) and times `execute` on it.
fn execute_line(
    twin: &ServeEngine<Threads, 3>,
    session: &mut Arc<Vec<Point<3>>>,
    line: &str,
) -> Result<ExecuteSample, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let cloud = CloudRef::Points(session.as_slice());
    let (subset, extra, ids): (Vec<u32>, Vec<Point<3>>, Vec<u32>);
    let req = match tokens[0] {
        "emst" => ServeRequest::Emst { cloud },
        "subset" => {
            let (lo, hi) = tokens[1].split_once("..").ok_or("bad subset range")?;
            let lo: u32 = lo.parse().map_err(|_| "bad subset lo")?;
            let hi: u32 = hi.parse().map_err(|_| "bad subset hi")?;
            subset = (lo..hi).collect();
            ServeRequest::Subset { cloud, subset: &subset }
        }
        "knn" => {
            let k = tokens[1].parse().map_err(|_| "bad knn k")?;
            let query = parse_coords(&tokens[2..])?[0];
            ServeRequest::KNearest { cloud, query, k }
        }
        "insert" => {
            extra = parse_coords(&tokens[1..])?;
            ServeRequest::Insert { cloud, points: &extra }
        }
        "delete" => {
            ids = tokens[1..]
                .iter()
                .map(|t| t.parse().map_err(|_| "bad id"))
                .collect::<Result<_, _>>()?;
            ServeRequest::Delete { cloud, ids: &ids }
        }
        other => return Err(format!("no typed request for {other:?}")),
    };
    let started = Instant::now();
    let response = twin.execute(req).map_err(|e| e.to_string())?;
    let mut sample =
        ExecuteSample { secs: started.elapsed().as_secs_f64(), ..ExecuteSample::default() };
    match response {
        ServeResponse::Emst(r) | ServeResponse::Subset(r) => {
            sample.merge_s = r.timings.get("merge");
            sample.merge_query_s = r.timings.get("merge.query");
            sample.merge_distances = r.query_work.distance_computations;
        }
        ServeResponse::Mutated(m) => {
            sample.update = Some(UpdateSample {
                plan_s: m.update.timings.get("plan"),
                local_s: m.update.timings.get("local"),
                merge_s: m.update.timings.get("merge"),
                dirty: m.dirty_shards.len(),
                reused: m.reused_shards,
                full_rebuild: m.full_rebuild,
            });
            *session = Arc::new(m.points);
        }
        _ => {}
    }
    Ok(sample)
}

fn ms(samples: &[f64], q: f64) -> f64 {
    quantile(samples, q).map_or(0.0, |s| s * 1e3)
}

pub fn run(opts: &Options, mix: Mix) -> Result<Report, String> {
    let shape = mix.shape();
    let spill = ScratchDir::new(mix.name())?;

    let (running, setup_s) = set_up(mix, opts.seed, &spill)?;
    let mut setups = vec![setup_s];

    let before = running.server.engine().stats();
    let (logs, io_failures, elapsed) = match mix {
        Mix::Read => drive_together(&running, opts.seed, opts.seconds),
        Mix::Mutate => drive_in_turn(&running, opts.seed, opts.seconds),
    };
    let after = running.server.engine().stats();
    let rss = peak_rss_mb();
    let Running { cloud, server, first: running_first } = running;
    server.shutdown();

    let exchanges: Vec<&Exchange> = logs.iter().flatten().collect();
    let err_replies = exchanges.iter().filter(|x| !x.reply.starts_with("ok ")).count() as u64;
    let mut wire: HashMap<&str, Vec<f64>> = HashMap::new();
    for x in &exchanges {
        wire.entry(x.verb()).or_default().push(x.secs);
    }

    // The first answer of every set-up is checked with the rest, each on a
    // session of its own.
    let mut checked = logs.clone();
    checked.push(vec![running_first]);
    if !opts.trace {
        for (secs, reply) in cold_setups(opts)? {
            setups.push(secs);
            checked.push(vec![Exchange { line: "emst".into(), reply: reply + "\n", secs }]);
        }
    }
    let (mismatches, layers) = replay(mix, &cloud, &checked, opts.trace)?;

    let mut report = Report {
        correct: mismatches == 0 && !exchanges.is_empty(),
        attempted: exchanges.len() as u64 + io_failures,
        failed: err_replies + io_failures,
        ..Report::default()
    };
    let samples: Vec<String> =
        VERBS.iter().filter_map(|v| wire.get(v).map(|s| format!("{v}:{}", s.len()))).collect();
    report.provenance = vec![
        ("kind", "GeoLifeLike 3D".into()),
        ("n", shape.n.to_string()),
        ("shards", shape.shards.to_string()),
        ("max_resident", MAX_RESIDENT.to_string()),
        ("connections", CONNECTIONS.to_string()),
        (
            "mix",
            match mix {
                Mix::Read => format!(
                    "cycle: emst, subset (10% window of {SUBSET_WINDOWS}), {KNN_PER_CYCLE} x knn {KNN_K}"
                ),
                Mix::Mutate => format!(
                    "cycle: insert {MUTATION_POINTS}, {EMST_PER_MUTATION} x emst, \
                     delete {MUTATION_POINTS} nearest, {EMST_PER_MUTATION} x emst"
                ),
            },
        ),
        ("samples", samples.join(" ")),
        ("mismatches", mismatches.to_string()),
        ("coalesced", (after.query_coalesced - before.query_coalesced).to_string()),
        ("evictions", (after.evictions - before.evictions).to_string()),
        ("setups", setups.len().to_string()),
    ];
    if !opts.trace {
        let emst = wire.get("emst").map_or(&[][..], Vec::as_slice);
        report.set("setup_s", median(&setups).expect("setups ran"));
        report.set("peak_rss_mb", rss);
        report.set("ops_per_s", exchanges.len() as f64 / elapsed);
        report.set("emst_p50_ms", ms(emst, 0.5));
        report.set("emst_p75_ms", ms(emst, 0.75));
        return Ok(report);
    }

    // Per verb: medians of each layer's time, and of the per-line
    // differences between a call and the engine's own timing of the part
    // nested inside that same call, so no difference spans two twins.
    let layers = layers.expect("traced replay returns its timings");
    report.set("serve.digest_ms", ms(&layers.digest, 0.5));
    for verb in VERBS {
        let Some(wire_s) = wire.get(verb) else { continue };
        let p50 = |f: fn(&LineTiming) -> f64| ms(&layers.of(verb, f), 0.5);
        report.set(metric("serve.execute_ms.", verb), p50(|l| l.execute.secs));
        report.set(metric("net.respond_ms.", verb), p50(|l| l.respond_s));
        report.set(metric("net.wire_p50_ms.", verb), ms(wire_s, 0.5));
        if verb == "knn" {
            report.set("net.wire_p99_ms.knn", ms(wire_s, 0.99));
        } else {
            report.set(metric("net.wire_p90_ms.", verb), ms(wire_s, 0.9));
        }
        let protocol = p50(|l| l.respond_s - l.query_s);
        let transport = p50(|l| l.wire_s - l.server_s);
        report.set(metric("net.protocol_ms.", verb), protocol);
        report.set(metric("net.transport_ms.", verb), transport);
        for (name, part) in [("protocol", protocol), ("transport", transport)] {
            if part < 0.0 {
                eprintln!("{}: net.{name}_ms.{verb} is negative: {part}", mix.name());
                report.correct = false;
            }
        }
    }
    let field = |verb: &str, f: fn(&ExecuteSample) -> f64| layers.of(verb, |l| f(&l.execute));
    for verb in ["emst", "subset"] {
        if wire.contains_key(verb) {
            report.set(metric("shard.merge_ms.", verb), ms(&field(verb, |s| s.merge_s), 0.5));
        }
    }
    if wire.contains_key("emst") {
        report.set("shard.merge_query_ms.emst", ms(&field("emst", |s| s.merge_query_s), 0.5));
        report.set(
            "shard.merge_distance_computations.emst",
            median(&field("emst", |s| s.merge_distances as f64)).unwrap_or(0.0),
        );
        report.set("serve.overhead_ms.emst", ms(&field("emst", |s| s.secs - s.merge_s), 0.5));
    }
    let updates: Vec<&UpdateSample> =
        layers.lines.iter().filter_map(|l| l.execute.update.as_ref()).collect();
    if !updates.is_empty() {
        for verb in ["insert", "delete"] {
            let of = |f: fn(&UpdateSample) -> f64| {
                layers.of(verb, |l| l.execute.update.as_ref().map_or(0.0, f))
            };
            report.set(metric("shard.update_plan_ms.", verb), ms(&of(|u| u.plan_s), 0.5));
            report.set(metric("shard.update_local_ms.", verb), ms(&of(|u| u.local_s), 0.5));
            report.set(metric("shard.update_merge_ms.", verb), ms(&of(|u| u.merge_s), 0.5));
        }
        let dirty: usize = updates.iter().map(|u| u.dirty).sum();
        let reused: usize = updates.iter().map(|u| u.reused).sum();
        report.set("shard.dirty_per_update", dirty as f64 / updates.len() as f64);
        report.set("shard.reuse_ratio", ratio(reused as f64, (reused + dirty) as f64));
        report.set("shard.full_rebuilds", updates.iter().filter(|u| u.full_rebuild).count() as f64);
    }
    cache_layers(&before, &after, exchanges.len(), &mut report);
    shard_build_layers(&cloud, shape.shards, &mut report);
    if mix == Mix::Mutate {
        crate::solve::small_cloud_layers(opts.seed, &mut report)?;
    }
    Ok(report)
}

/// Interns `prefix + verb` as one of the per-layer metric names.
fn metric(prefix: &str, verb: &str) -> &'static str {
    let name = format!("{prefix}{verb}");
    crate::PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// Cache behaviour of the wire engine over the timed window, from
/// [`ServeStats`] deltas.
fn cache_layers(before: &ServeStats, after: &ServeStats, requests: usize, report: &mut Report) {
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses) + (after.reloads - before.reloads);
    report.set("serve.hit_ratio", ratio(hits as f64, lookups as f64));
    report.set("serve.evictions", (after.evictions - before.evictions) as f64);
    report.set("serve.spill_failures", (after.spill_failures - before.spill_failures) as f64);
    let coalesced = after.query_coalesced - before.query_coalesced;
    report.set("net.coalesced_ratio", ratio(coalesced as f64, requests as f64));
}

/// Timed cold artifact builds of the session cloud, as the engine's
/// ingest runs them.
fn shard_build_layers(cloud: &[Point<3>], shards: usize, report: &mut Report) {
    let (mut build, mut plan, mut local) = (vec![], vec![], vec![]);
    for _ in 0..BUILD_REPS {
        let started = Instant::now();
        let artifacts = ShardArtifacts::build(&Threads, cloud, &ShardConfig::new(shards));
        build.push(started.elapsed().as_secs_f64());
        plan.push(artifacts.build_timings().get("plan"));
        local.push(artifacts.build_timings().get("local"));
    }
    report.set("shard.build_s", median(&build).expect("builds ran"));
    report.set("shard.plan_s", median(&plan).expect("builds ran"));
    report.set("shard.local_s", median(&local).expect("builds ran"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_cycle_is_emst_subset_then_knns() {
        let cloud = Kind::GeoLifeLike.generate::<3>(1000, 3);
        let mut g = Generator::new(Mix::Read, &cloud, 7, 0);
        let lines: Vec<String> = (0..2 * READ_CYCLE).map(|_| g.next_line()).collect();
        let verbs: Vec<&str> = lines.iter().map(|l| verb_of(l)).collect();
        let mut cycle = vec!["emst", "subset"];
        cycle.extend(std::iter::repeat_n("knn", KNN_PER_CYCLE));
        assert_eq!(verbs[..cycle.len()], cycle[..]);
        assert_eq!(verbs[cycle.len()..], cycle[..]);
        assert_ne!(lines[1], lines[READ_CYCLE + 1], "subset window rotates");
    }

    #[test]
    fn mutation_mirror_tracks_the_session_cloud() {
        let cloud = Kind::GeoLifeLike.generate::<3>(MUTATE_N, 3);
        let mut g = Generator::new(Mix::Mutate, &cloud, 7, 1);
        let insert = g.next_line();
        assert_eq!(insert.split_whitespace().count(), 1 + 3 * MUTATION_POINTS);
        for _ in 0..EMST_PER_MUTATION {
            assert_eq!(g.next_line(), "emst");
        }
        let delete = g.next_line();
        let ids: Vec<u32> = delete.split_whitespace().skip(1).map(|t| t.parse().unwrap()).collect();
        assert_eq!(ids.len(), MUTATION_POINTS);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids are distinct and sorted");
        let Generator::Mutate { mirror, .. } = &g else { unreachable!() };
        assert_eq!(mirror.len(), MUTATE_N);
        for _ in 0..EMST_PER_MUTATION {
            assert_eq!(g.next_line(), "emst");
        }
        assert!(g.next_line().starts_with("insert "), "the cycle starts again");
    }

    /// The verifier accepts the twin's own bytes and rejects a reply whose
    /// tree digest was tampered with; on the mutation mix it ignores only
    /// the cache-state fields.
    #[test]
    fn verifier_rejects_a_tampered_reply() {
        let cloud = Arc::new(Kind::GeoLifeLike.generate::<3>(2000, 5));
        let spill = ScratchDir::new("verifier-test").unwrap();
        let twin = engine(&Mix::Read.shape(), &spill);
        twin.ingest(&cloud);
        let mut session = NetSession::new(Arc::clone(&cloud));
        let honest = respond(&twin, &mut session, "emst").text;
        let log = |reply: String| vec![vec![Exchange { line: "emst".into(), reply, secs: 0.0 }]];
        assert_eq!(replay(Mix::Read, &cloud, &log(honest.clone()), false).unwrap().0, 0);
        let tampered = honest.replace("check=", "check=f");
        assert_eq!(replay(Mix::Read, &cloud, &log(tampered), false).unwrap().0, 1);
        assert!(!reply_matches(Mix::Read, &honest.replace("hit", "miss"), &honest));

        let insert = respond(&twin, &mut session, "insert 1 2 3").text;
        assert!(reply_matches(Mix::Mutate, &insert.replace("dirty=", "dirty=9"), &insert));
        assert!(!reply_matches(Mix::Mutate, &insert.replace(" n=2001 ", " n=2002 "), &insert));

        // A post-mutation emst is checked against the mutation's tree.
        let spill = ScratchDir::new("verifier-test-mutate").unwrap();
        let twin = engine(&Mix::Mutate.shape(), &spill);
        let mut session = NetSession::new(Arc::clone(&cloud));
        let line = "insert 1 2 3 4 5 6";
        let insert = respond(&twin, &mut session, line).text;
        let emst = respond(&twin, &mut session, "emst").text;
        let log = |emst: String| {
            vec![vec![
                Exchange { line: line.into(), reply: insert.clone(), secs: 0.0 },
                Exchange { line: "emst".into(), reply: emst, secs: 0.0 },
            ]]
        };
        assert_eq!(replay(Mix::Mutate, &cloud, &log(emst.clone()), false).unwrap().0, 0);
        let tampered = emst.replace("edges=", "edges=1");
        assert_eq!(replay(Mix::Mutate, &cloud, &log(tampered), false).unwrap().0, 1);
    }
}
