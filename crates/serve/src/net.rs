//! Network serving front-end: a std-only TCP listener over [`ServeEngine`].
//!
//! [`ServeServer`] binds a [`std::net::TcpListener`] and speaks a
//! line-based request/response protocol (`emst`, `subset`, `knn`,
//! `hdbscan`, `insert`, `delete`, `load`, `stats`, `metrics [json]`,
//! `trace [n]`, plus `ping` and `quit`). Every request is one
//! `\n`-terminated line; every reply is one `ok …`/`err …` line
//! (multi-line payloads are length-framed as `ok body <len>\n<bytes>`).
//! The full grammar lives in `docs/serving-protocol.md`.
//!
//! [`respond`] is the protocol's one parser and dispatcher, and
//! [`next_line`] its one line reader. A TCP connection and the
//! `emst-cli serve` stdin session are both a [`NetSession`] driven by
//! those two functions, so a line gets the same reply bytes on either.
//! [`load_points`] is the one point-file loader, shared by the `load`
//! verb and `emst-cli`.
//!
//! Design constraints and how they are met:
//!
//! - **No async runtime** (the container has no crates.io access): a
//!   blocking acceptor thread feeds a bounded queue drained by N worker
//!   threads. The engine's `Send + Sync` blocking core was built for
//!   exactly this shape.
//! - **Backpressure, never hangs**: when [`NetConfig::max_pending`]
//!   connections are already queued, a new connection gets one honest
//!   `err overloaded …` line and is closed — admission control at the
//!   socket layer, mirroring the engine's in-flight gate one layer down.
//! - **Robustness contract over the wire**: every verb dispatches through
//!   the one typed [`ServeEngine::execute`] entry point (in its
//!   crate-private form that also takes the session's digest), so deadlines,
//!   admission shedding and panic isolation from the fault-tolerance
//!   layer all apply uniformly; its typed [`ServeError`](crate::ServeError)s
//!   become `err …` lines. Connection handling itself is
//!   wrapped in `catch_unwind`, so a protocol bug can never take down the
//!   acceptor or the other workers.
//! - **Graceful shutdown**: [`ServeServer::shutdown`] stops accepting,
//!   lets every in-flight request finish and flush its reply, sends
//!   queued-but-unstarted connections one `err shutting down` line, and
//!   joins every thread.
//!
//! # Same-key query coalescing
//!
//! The headline optimisation generalizes the engine's single-flight
//! *build* coalescing to whole *queries*: concurrent identical requests —
//! same content digest of the session's cloud (which the session hashes
//! once per cloud, see [`NetSession`]) and the same canonicalized command
//! line — register on one in-flight flight of
//! the crate's single-flight map, the same rendezvous the engine's builds
//! use. The first becomes the leader and executes; the rest park and
//! receive a byte-for-byte copy of the leader's reply, counted in
//! [`ServeStats::query_coalesced`](crate::ServeStats::query_coalesced)
//! and the `emst_serve_cache_events_total{event="query_coalesced"}`
//! metric. This is sound because only the deterministic read-only verbs
//! (`emst`, `subset`, `knn`, `hdbscan`) coalesce, their replies are pure
//! functions of `(cloud bytes, command line)` by the engine's
//! bit-identity guarantee, and the reply format contains no wall-clock
//! fields. The mutation verbs (`insert`, `delete`) never coalesce: they
//! swap the session's cloud, so sharing a reply would desynchronize the
//! follower's session from the cloud its reply claims to describe. The
//! one observable sharing artifact is the `cache=` outcome (a follower
//! may see the leader's `miss`) and error replies (a follower shares the
//! leader's honest `err …`, which an identical concurrent request could
//! equally have earned itself).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use emst_core::Edge;
use emst_datasets::io::{parse_csv, parse_xyz, Fnv1a};
use emst_exec::ExecSpace;
use emst_geometry::{is_valid_coordinate, Point};
use emst_hdbscan::Hdbscan;
use emst_obs::{Counter, Gauge, Histogram};
use parking_lot::{Condvar, Mutex};

use crate::fault::{faulted_read, FaultPlan, FaultSite};
use crate::flight::{Flights, Join};
use crate::{
    digest_points, CloudKey, CloudRef, MutateResponse, ServeEngine, ServeRequest, ServeResponse,
};

/// Longest accepted request line; anything longer gets one
/// `err line too long …` reply and the connection is closed.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How often a blocked worker re-checks the shutdown flag while waiting
/// for client bytes.
const READ_POLL: Duration = Duration::from_millis(50);

/// Network front-end sizing.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Worker threads draining the connection queue (clamped to >= 1).
    pub workers: usize,
    /// Connections allowed to wait for a worker before new arrivals are
    /// shed with an honest `err overloaded` line (clamped to >= 1).
    pub max_pending: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { workers: 4, max_pending: 64 }
    }
}

/// One reply on the wire: the exact bytes to send (always ending in a
/// newline) and whether the connection closes afterwards (`quit`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetReply {
    /// Full wire bytes of the reply, including the trailing newline (and,
    /// for `ok body <len>` framing, the raw body bytes).
    pub text: String,
    /// The server closes the connection after sending this reply.
    pub close: bool,
}

impl NetReply {
    fn ok(payload: impl AsRef<str>) -> Self {
        Self { text: format!("ok {}\n", payload.as_ref()), close: false }
    }

    fn err(message: impl AsRef<str>) -> Self {
        Self { text: format!("err {}\n", message.as_ref()), close: false }
    }

    /// Length-framed multi-line payload: `ok body <len>\n` followed by
    /// exactly `<len>` raw bytes (normalized to end in one newline).
    fn body(mut body: String) -> Self {
        while body.ends_with('\n') {
            body.pop();
        }
        body.push('\n');
        Self { text: format!("ok body {}\n{body}", body.len()), close: false }
    }

    /// The reply to a line longer than [`MAX_LINE_BYTES`]; the session
    /// closes after it, since the rest of the line cannot be framed.
    pub fn line_too_long() -> Self {
        Self { text: format!("err line too long (max {MAX_LINE_BYTES} bytes)\n"), close: true }
    }

    /// Whether this is an `err …` reply (drives the error-reply counter).
    pub fn is_err(&self) -> bool {
        self.text.starts_with("err ")
    }

    /// The reply as raw wire bytes.
    pub fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }
}

/// Per-session state: the cloud this session queries. Starts as the
/// server's initial cloud; `load <path>`, `insert` and `delete` swap it
/// for this session only. Each TCP connection has one, and so does the
/// `emst-cli serve` stdin session.
///
/// The session also keeps its cloud's content digest, so a request
/// hashes nothing: the coalescing key and the engine's resolve both use
/// it. It is computed at most once per cloud, on the first request that
/// needs it, or copied from the key the engine returned for exactly the
/// new points of a `load`, `insert` or `delete`.
pub struct NetSession<const D: usize> {
    points: Arc<Vec<Point<D>>>,
    /// [`digest_points`] of `points`, once known. Only
    /// [`Self::set_cloud`] changes the cloud, and it sets both.
    digest: Option<u64>,
}

impl<const D: usize> NetSession<D> {
    /// A session serving `points`.
    pub fn new(points: Arc<Vec<Point<D>>>) -> Self {
        Self { points, digest: None }
    }

    /// The cloud the session currently queries.
    pub fn points(&self) -> &Arc<Vec<Point<D>>> {
        &self.points
    }

    /// The content digest of the session's cloud, hashed on first use.
    fn digest(&mut self) -> u64 {
        *self.digest.get_or_insert_with(|| digest_points(&self.points))
    }

    /// Moves the session onto `points`, the exact points the engine
    /// admitted under `key`, so `key.digest` is their digest.
    fn set_cloud(&mut self, points: Vec<Point<D>>, key: CloudKey) {
        self.points = Arc::new(points);
        self.digest = Some(key.digest);
    }
}

/// Content check over an edge list: FNV-1a across `(u, v, weight_sq)` in
/// index order. Lets a client (and the bit-identity tests) compare trees
/// across transports without shipping every edge.
fn edges_check(edges: &[Edge]) -> u64 {
    let mut h = Fnv1a::default();
    for e in edges {
        h.write(&e.u.to_le_bytes());
        h.write(&e.v.to_le_bytes());
        h.write(&e.weight_sq.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Content check over HDBSCAN labels (FNV-1a across the `i32` labels).
fn labels_check(labels: &[i32]) -> u64 {
    let mut h = Fnv1a::default();
    for &l in labels {
        h.write(&l.to_le_bytes());
    }
    h.finish()
}

/// Executes one request line against the engine and formats the wire
/// reply. This is the whole protocol in one pure-ish function: the socket
/// path and the `emst-cli serve` stdin session both call it, and the
/// integration tests run it in-process to compute the bytes either must
/// reproduce bit-for-bit.
///
/// Replies carry **no wall-clock fields** — instead the tree-shaped
/// answers carry a `check=` content digest — so identical requests
/// against identical clouds produce identical bytes, which is what makes
/// both the bit-identity proof and same-key coalescing possible.
pub fn respond<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    session: &mut NetSession<D>,
    line: &str,
) -> NetReply {
    let mut tok = line.split_whitespace();
    let Some(cmd) = tok.next() else { return NetReply::err("empty command") };
    let rest: Vec<&str> = tok.collect();
    match execute(engine, session, cmd, &rest) {
        Ok(reply) => reply,
        Err(msg) => NetReply::err(msg),
    }
}

/// Formats the one-line `ok <verb> …` reply for a mutation. `dirty=` is
/// the number of shards the delta-solve actually re-solved (0 on a warm
/// child hit, `shards` on a full rebuild), and `check=` digests the
/// child cloud's EMST so clients can compare across transports.
fn mutation_reply<const D: usize>(verb: &str, m: &MutateResponse<D>) -> NetReply {
    NetReply::ok(format!(
        "{verb} key={} n={} dirty={} reused={} edges={} weight={:.6} check={:016x}",
        m.key,
        m.n,
        m.dirty_shards.len(),
        m.reused_shards,
        m.update.edges.len(),
        m.update.total_weight,
        edges_check(&m.update.edges),
    ))
}

/// Parses one `knn`/`insert` coordinate. A NaN, infinite or too-large
/// value ([`is_valid_coordinate`]) is rejected like a non-number: the
/// solvers need every squared distance finite.
fn parse_coordinate(v: &str) -> Result<f32, String> {
    let c = v.parse().ok().filter(|&c| is_valid_coordinate(c));
    c.ok_or_else(|| format!("invalid coordinate {v:?}"))
}

fn execute<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    session: &mut NetSession<D>,
    cmd: &str,
    rest: &[&str],
) -> Result<NetReply, String> {
    let parse = |what: &str, v: Option<&&str>| -> Result<usize, String> {
        let v = v.ok_or(format!("{what} is required"))?;
        v.parse().map_err(|_| format!("invalid {what} {v:?}"))
    };
    let points = Arc::clone(&session.points);
    // Every verb that names the session's cloud resolves it by the
    // session's digest, so the engine does not hash the points again.
    let mut run = |req: ServeRequest<'_, D>| {
        engine.execute_digested(req, Some(session.digest())).map_err(|e| e.to_string())
    };
    match cmd {
        "ping" => Ok(NetReply::ok("pong")),
        "quit" | "exit" => Ok(NetReply { text: "ok bye\n".to_string(), close: true }),
        "emst" => {
            if !rest.is_empty() {
                return Err("emst takes no arguments over the wire".to_string());
            }
            let req = ServeRequest::Emst { cloud: CloudRef::Points(points.as_slice()) };
            let r = match run(req)? {
                ServeResponse::Emst(r) => r,
                other => unreachable!("emst request answered with {other:?}"),
            };
            Ok(NetReply::ok(format!(
                "emst cache={} n={} edges={} weight={:.6} check={:016x}",
                r.outcome.as_str(),
                points.len(),
                r.edges.len(),
                r.total_weight,
                edges_check(&r.edges),
            )))
        }
        "subset" => {
            let range = rest.first().ok_or("subset needs <lo>..<hi>")?;
            let (lo, hi) = range
                .split_once("..")
                .and_then(|(a, b)| Some((a.parse::<u32>().ok()?, b.parse::<u32>().ok()?)))
                .ok_or(format!("invalid subset range {range:?} (expected <lo>..<hi>)"))?;
            if lo >= hi || hi as usize > points.len() {
                return Err(format!("subset {lo}..{hi} out of range for {} points", points.len()));
            }
            let subset: Vec<u32> = (lo..hi).collect();
            let req = ServeRequest::Subset {
                cloud: CloudRef::Points(points.as_slice()),
                subset: &subset,
            };
            let r = match run(req)? {
                ServeResponse::Subset(r) => r,
                other => unreachable!("subset request answered with {other:?}"),
            };
            Ok(NetReply::ok(format!(
                "subset cache={} m={} edges={} weight={:.6} check={:016x}",
                r.outcome.as_str(),
                subset.len(),
                r.edges.len(),
                r.total_weight,
                edges_check(&r.edges),
            )))
        }
        "knn" => {
            let k = parse("<k>", rest.first())?;
            if rest.len() != 1 + D {
                return Err(format!("knn needs <k> and {D} coordinates"));
            }
            let mut coords = [0.0f32; D];
            for (c, v) in coords.iter_mut().zip(&rest[1..]) {
                *c = parse_coordinate(v)?;
            }
            let req = ServeRequest::KNearest {
                cloud: CloudRef::Points(points.as_slice()),
                query: Point::new(coords),
                k,
            };
            let r = match run(req)? {
                ServeResponse::KNearest(r) => r,
                other => unreachable!("knn request answered with {other:?}"),
            };
            let hits: Vec<String> =
                r.neighbors.iter().map(|(i, d)| format!("{i}:{:.6}", d.sqrt())).collect();
            Ok(NetReply::ok(format!("knn cache={} k={} {}", r.outcome.as_str(), k, hits.join(" "))))
        }
        "hdbscan" => {
            let k_pts = parse("<k_pts>", rest.first())?;
            let min_cluster_size = parse("<min_cluster_size>", rest.get(1))?;
            if k_pts < 1 || min_cluster_size < 2 {
                return Err("hdbscan needs k_pts >= 1 and min_cluster_size >= 2".into());
            }
            let req = ServeRequest::Hdbscan {
                cloud: CloudRef::Points(points.as_slice()),
                params: Hdbscan { k_pts, min_cluster_size },
            };
            let r = match run(req)? {
                ServeResponse::Hdbscan(r) => r,
                other => unreachable!("hdbscan request answered with {other:?}"),
            };
            let noise = r.result.labels.iter().filter(|&&l| l == emst_hdbscan::NOISE).count();
            Ok(NetReply::ok(format!(
                "hdbscan cache={} clusters={} noise={} check={:016x}",
                r.outcome.as_str(),
                r.result.num_clusters,
                noise,
                labels_check(&r.result.labels),
            )))
        }
        "insert" => {
            if rest.is_empty() || !rest.len().is_multiple_of(D) {
                return Err(format!("insert needs coordinates in groups of {D}"));
            }
            let mut added = Vec::with_capacity(rest.len() / D);
            for chunk in rest.chunks(D) {
                let mut coords = [0.0f32; D];
                for (c, v) in coords.iter_mut().zip(chunk) {
                    *c = parse_coordinate(v)?;
                }
                added.push(Point::new(coords));
            }
            let req =
                ServeRequest::Insert { cloud: CloudRef::Points(points.as_slice()), points: &added };
            let m = match run(req)? {
                ServeResponse::Mutated(m) => m,
                other => unreachable!("insert request answered with {other:?}"),
            };
            let reply = mutation_reply("insert", &m);
            session.set_cloud(m.points, m.key);
            Ok(reply)
        }
        "delete" => {
            if rest.is_empty() {
                return Err("delete needs at least one <id>".to_string());
            }
            let mut ids = Vec::with_capacity(rest.len());
            for v in rest {
                ids.push(v.parse::<u32>().map_err(|_| format!("invalid id {v:?}"))?);
            }
            let req =
                ServeRequest::Delete { cloud: CloudRef::Points(points.as_slice()), ids: &ids };
            let m = match run(req)? {
                ServeResponse::Mutated(m) => m,
                other => unreachable!("delete request answered with {other:?}"),
            };
            let reply = mutation_reply("delete", &m);
            session.set_cloud(m.points, m.key);
            Ok(reply)
        }
        "load" => {
            let path = rest.first().ok_or("load needs a path")?;
            let new_points = load_points::<D>(path, engine.config.fault_plan.as_deref())?;
            let req = ServeRequest::Load { points: &new_points };
            let key = match engine.execute(req).map_err(|e| e.to_string())? {
                ServeResponse::Loaded { key } => key,
                other => unreachable!("load request answered with {other:?}"),
            };
            session.set_cloud(new_points, key);
            Ok(NetReply::ok(format!("loaded n={} key={key}", session.points.len())))
        }
        "stats" => {
            let s = match engine.execute(ServeRequest::Stats).map_err(|e| e.to_string())? {
                ServeResponse::Stats(s) => s,
                other => unreachable!("stats request answered with {other:?}"),
            };
            let mut line = format!("stats resident={} bytes={}", s.resident, s.resident_bytes);
            for (name, value) in s.stats.named_fields() {
                line.push_str(&format!(" {name}={value}"));
            }
            Ok(NetReply::ok(line))
        }
        "metrics" => match rest.first() {
            None => Ok(NetReply::body(engine.metrics_prometheus())),
            Some(&"json") => Ok(NetReply::body(engine.metrics_json())),
            Some(other) => Err(format!("invalid metrics format {other:?} (expected json)")),
        },
        "trace" => {
            let n = match rest.first() {
                None => 5,
                Some(v) => v.parse().map_err(|_| format!("invalid trace count {v:?}"))?,
            };
            let traces = engine.recent_traces(n);
            if traces.is_empty() {
                return Ok(NetReply::ok("no traces recorded"));
            }
            let rendered: Vec<String> = traces.iter().map(|t| t.render_text()).collect();
            Ok(NetReply::body(rendered.join("\n")))
        }
        other => Err(format!(
            "unknown command {other:?} (ping | emst | subset <lo>..<hi> | knn <k> <x> <y> [<z>] \
             | hdbscan <k_pts> <min_cluster_size> | insert <x> <y> [<z>] … | delete <id> … | \
             load <points.csv> | stats | metrics [json] | trace [n] | quit)"
        )),
    }
}

/// Loads the point file at `path`, `.xyz` or else CSV, reading it through
/// `plan`'s ingest site so chaos drills cover dataset ingest with the same
/// injector as spill storage. Errors name `path` (parse errors
/// `path:line`); a file without points is an error too.
pub fn load_points<const D: usize>(
    path: &str,
    plan: Option<&FaultPlan>,
) -> Result<Vec<Point<D>>, String> {
    let bytes = faulted_read(plan, FaultSite::IngestRead, Path::new(path))
        .map_err(|e| format!("{path}: {e}"))?;
    let points =
        if path.ends_with(".xyz") { parse_xyz(&bytes, path) } else { parse_csv(&bytes, path) }
            .map_err(|e| e.to_string())?;
    if points.is_empty() {
        return Err(format!("{path}: no points"));
    }
    Ok(points)
}

/// Verbs eligible for same-key coalescing: deterministic, read-only, and
/// replies that are pure functions of `(cloud, line)`. `load`, `insert`
/// and `delete` mutate the session, `stats`/`metrics`/`trace` read
/// mutable observability state — none of those may share a reply.
fn coalescable(verb: &str) -> bool {
    matches!(verb, "emst" | "subset" | "knn" | "hdbscan")
}

/// Handles owned by the server when observability is on. All metrics live
/// in the engine's registry, so `metrics`/`metrics json` over the wire —
/// and the `--metrics-file` exposition — include the network layer.
struct NetObs {
    /// Acceptor-side wait per accepted connection.
    accept: Arc<Histogram>,
    /// Time a connection spent queued before a worker picked it up.
    queue_wait: Arc<Histogram>,
    /// Wall time per request (read done → reply written).
    request: Arc<Histogram>,
    /// Connections currently being served by workers.
    active: Arc<Gauge>,
    /// Connections currently waiting in the accept queue.
    queued: Arc<Gauge>,
    connections: Arc<Counter>,
    overloaded: Arc<Counter>,
    requests: Arc<Counter>,
    error_replies: Arc<Counter>,
}

impl NetObs {
    fn new<S: ExecSpace, const D: usize>(engine: &ServeEngine<S, D>) -> Option<Self> {
        let registry = engine.obs_registry()?;
        Some(Self {
            accept: registry.histogram("emst_serve_net_accept_seconds"),
            queue_wait: registry.histogram("emst_serve_net_queue_wait_seconds"),
            request: registry.histogram("emst_serve_net_request_seconds"),
            active: registry.gauge("emst_serve_net_connections_active"),
            queued: registry.gauge("emst_serve_net_connections_queued"),
            connections: registry.counter("emst_serve_net_connections_total"),
            overloaded: registry.counter("emst_serve_net_overloaded_total"),
            requests: registry.counter("emst_serve_net_requests_total"),
            error_replies: registry.counter("emst_serve_net_error_replies_total"),
        })
    }
}

/// State shared by the acceptor, the workers and the shutdown path.
struct NetShared<S: ExecSpace, const D: usize> {
    engine: Arc<ServeEngine<S, D>>,
    initial: Arc<Vec<Point<D>>>,
    max_pending: usize,
    /// Accepted connections waiting for a worker, with their enqueue time.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_ready: Condvar,
    shutdown: AtomicBool,
    /// Open coalesced queries, keyed by the session cloud's digest and the
    /// canonical command line.
    flights: Flights<(u64, String), NetReply>,
    active: AtomicU64,
    obs: Option<NetObs>,
}

/// The TCP front-end. See the module docs for the protocol and the
/// coalescing argument; see [`ServeServer::bind`] to start one.
pub struct ServeServer<S: ExecSpace + Send + Sync + 'static, const D: usize> {
    shared: Arc<NetShared<S, D>>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl<S: ExecSpace + Send + Sync + 'static, const D: usize> ServeServer<S, D> {
    /// Binds `addr` (use port 0 for an ephemeral port — [`Self::local_addr`]
    /// reports the real one) and starts the acceptor plus
    /// [`NetConfig::workers`] worker threads. `initial` is the cloud every
    /// new connection's session starts on; the caller is expected to have
    /// ingested it already (the server never ingests on its own).
    pub fn bind(
        engine: Arc<ServeEngine<S, D>>,
        initial: Arc<Vec<Point<D>>>,
        addr: &str,
        config: NetConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let obs = NetObs::new(engine.as_ref());
        let shared = Arc::new(NetShared {
            engine,
            initial,
            max_pending: config.max_pending.max(1),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            flights: Flights::new(NetReply::err("internal error: coalesced request aborted")),
            active: AtomicU64::new(0),
            obs,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Self { shared, addr, acceptor: Some(acceptor), workers })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the server.
    pub fn engine(&self) -> &Arc<ServeEngine<S, D>> {
        &self.shared.engine
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests and
    /// flush their replies, answer queued-but-unstarted connections with
    /// one `err shutting down` line, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Relaxed) {
            return;
        }
        // Unblock the acceptor's blocking accept() with a throwaway
        // connection; it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.queue_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are gone: whatever is still queued never started, and
        // gets the honest line instead of a silent hang.
        let mut queue = self.shared.queue.lock();
        for (mut stream, _) in queue.drain(..) {
            let _ = stream.write_all(b"err shutting down\n");
        }
    }
}

impl<S: ExecSpace + Send + Sync + 'static, const D: usize> Drop for ServeServer<S, D> {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<S: ExecSpace, const D: usize>(shared: &NetShared<S, D>, listener: &TcpListener) {
    loop {
        let idle_from = Instant::now();
        let accepted = listener.accept();
        if shared.shutdown.load(Relaxed) {
            // Usually the shutdown wake-up connection; a real client
            // racing shutdown gets the honest line either way.
            if let Ok((mut stream, _)) = accepted {
                let _ = stream.write_all(b"err shutting down\n");
            }
            return;
        }
        let Ok((mut stream, _)) = accepted else { continue };
        if let Some(obs) = &shared.obs {
            obs.accept.record(idle_from.elapsed());
            obs.connections.inc();
        }
        let mut queue = shared.queue.lock();
        if queue.len() >= shared.max_pending {
            drop(queue);
            if let Some(obs) = &shared.obs {
                obs.overloaded.inc();
            }
            let _ = stream.write_all(
                format!("err overloaded: {} connections already pending\n", shared.max_pending)
                    .as_bytes(),
            );
            continue; // dropping the stream closes it
        }
        queue.push_back((stream, Instant::now()));
        if let Some(obs) = &shared.obs {
            obs.queued.set(queue.len() as u64);
        }
        drop(queue);
        shared.queue_ready.notify_one();
    }
}

fn worker_loop<S: ExecSpace, const D: usize>(shared: &NetShared<S, D>) {
    loop {
        let (stream, enqueued) = {
            let mut queue = shared.queue.lock();
            loop {
                if shared.shutdown.load(Relaxed) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    if let Some(obs) = &shared.obs {
                        obs.queued.set(queue.len() as u64);
                    }
                    break job;
                }
                shared.queue_ready.wait(&mut queue);
            }
        };
        if let Some(obs) = &shared.obs {
            obs.queue_wait.record(enqueued.elapsed());
            obs.active.set(shared.active.fetch_add(1, Relaxed) + 1);
        }
        // Panic isolation per connection: the guarded query paths already
        // contain query panics, so this only catches protocol-layer bugs —
        // and even then the worker survives to serve the next connection.
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| handle_connection(shared, &stream)));
        if outcome.is_err() {
            let _ = (&stream).write_all(b"err internal error: connection handler panicked\n");
        }
        if let Some(obs) = &shared.obs {
            obs.active.set(shared.active.fetch_sub(1, Relaxed).saturating_sub(1));
        }
    }
}

/// What [`next_line`] produced.
pub enum ReadEvent {
    /// One request line (terminator stripped; lossy UTF-8).
    Line(String),
    /// Clean end of stream with no buffered partial line.
    Eof,
    /// The `shutdown` flag was set while the reader sat idle; stop
    /// reading.
    Shutdown,
    /// The buffered line exceeded [`MAX_LINE_BYTES`] with no terminator;
    /// answer [`NetReply::line_too_long`] and stop reading.
    TooLong,
}

/// Reads the next request line from `reader`: the protocol's one line
/// reader, shared by TCP connections and the `emst-cli serve` stdin
/// session.
///
/// A line ends at `\n` (a trailing `\r` is stripped) and is decoded as
/// lossy UTF-8, so junk bytes become an ordinary line that [`respond`]
/// answers. Split and partial writes are handled naturally (bytes
/// accumulate in `buf` across reads; pass the same `buf` to every call);
/// a final unterminated line at EOF is served as a line. More than
/// [`MAX_LINE_BYTES`] without a terminator yields [`ReadEvent::TooLong`].
/// `shutdown` is polled on every read timeout, so it only fires for a
/// `reader` in timeout mode; a plain blocking reader never reports
/// [`ReadEvent::Shutdown`].
pub fn next_line<R: Read>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> io::Result<ReadEvent> {
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = buf.drain(..=pos).collect();
            line.pop(); // the terminator
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(ReadEvent::Line(String::from_utf8_lossy(&line).into_owned()));
        }
        if buf.len() > MAX_LINE_BYTES {
            return Ok(ReadEvent::TooLong);
        }
        let mut chunk = [0u8; 4096];
        match reader.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(ReadEvent::Eof);
                }
                let line = std::mem::take(buf);
                return Ok(ReadEvent::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if shutdown.load(Relaxed) {
                    return Ok(ReadEvent::Shutdown);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection<S: ExecSpace, const D: usize>(shared: &NetShared<S, D>, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut session = NetSession::new(Arc::clone(&shared.initial));
    let mut buf = Vec::new();
    let mut reader = stream;
    loop {
        match next_line(&mut reader, &mut buf, &shared.shutdown) {
            Ok(ReadEvent::Line(line)) => {
                let started = Instant::now();
                let reply = respond_coalesced(shared, &mut session, &line);
                if let Some(obs) = &shared.obs {
                    obs.requests.inc();
                    obs.request.record(started.elapsed());
                    if reply.is_err() {
                        obs.error_replies.inc();
                    }
                }
                // A client gone mid-response is its own problem: close
                // this connection, keep serving the rest.
                if (&*stream).write_all(reply.bytes()).is_err() || reply.close {
                    return;
                }
            }
            Ok(ReadEvent::Eof) => return,
            Ok(ReadEvent::Shutdown) => {
                let _ = (&*stream).write_all(b"err shutting down\n");
                return;
            }
            Ok(ReadEvent::TooLong) => {
                let _ = (&*stream).write_all(NetReply::line_too_long().bytes());
                if let Some(obs) = &shared.obs {
                    obs.error_replies.inc();
                }
                return;
            }
            Err(_) => return,
        }
    }
}

/// The same-key coalescing key of `line` on `session`: the session
/// cloud's digest and the canonical command line, or `None` for a verb
/// that never coalesces.
fn coalescing_key<const D: usize>(
    session: &mut NetSession<D>,
    line: &str,
) -> Option<(u64, String)> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    coalescable(tokens.first()?).then(|| (session.digest(), tokens.join(" ")))
}

/// [`respond`] with same-key coalescing on top: identical concurrent
/// requests for the deterministic verbs share one execution.
fn respond_coalesced<S: ExecSpace, const D: usize>(
    shared: &NetShared<S, D>,
    session: &mut NetSession<D>,
    line: &str,
) -> NetReply {
    let Some(key) = coalescing_key(session, line) else {
        return respond(shared.engine.as_ref(), session, line);
    };
    match shared.flights.join(key, None) {
        Join::Lead(lease) => {
            let reply = respond(shared.engine.as_ref(), session, line);
            lease.publish(reply.clone());
            reply
        }
        Join::Follow(reply) => {
            shared.engine.count_query_coalesced();
            reply.expect("a follower without a deadline waits for the reply")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use emst_datasets::Kind;
    use emst_exec::Serial;

    fn engine() -> (ServeEngine<Serial, 2>, Arc<Vec<Point<2>>>) {
        let pts = Arc::new(Kind::Uniform.generate::<2>(200, 7));
        let engine = ServeEngine::new(Serial, ServeConfig::new(4, 2));
        engine.ingest(&pts);
        (engine, pts)
    }

    #[test]
    fn replies_are_deterministic_and_newline_terminated() {
        let (engine, pts) = engine();
        let mut session = NetSession::new(Arc::clone(&pts));
        let warm = respond(&engine, &mut session, "emst");
        let again = respond(&engine, &mut session, "emst");
        assert_eq!(warm, again, "warm replies must be byte-identical");
        assert!(warm.text.starts_with("ok emst cache=hit "));
        assert!(warm.text.ends_with('\n'));
        assert!(warm.text.contains(" check="));
        assert!(!warm.close);

        let knn = respond(&engine, &mut session, "knn 3 0.5 0.5");
        assert!(knn.text.starts_with("ok knn cache=hit k=3 "), "{}", knn.text);
        let sub = respond(&engine, &mut session, "subset 10..50");
        assert!(sub.text.starts_with("ok subset cache=hit m=40 "), "{}", sub.text);
        let hdb = respond(&engine, &mut session, "hdbscan 4 8");
        assert!(hdb.text.starts_with("ok hdbscan cache=hit clusters="), "{}", hdb.text);
    }

    #[test]
    fn malformed_lines_get_one_err_reply_mirroring_the_repl() {
        let (engine, pts) = engine();
        let mut session = NetSession::new(pts);
        for (line, expect) in [
            ("", "err empty command\n"),
            ("   ", "err empty command\n"),
            ("subset", "err subset needs <lo>..<hi>\n"),
            ("subset 9..3", "err subset 9..3 out of range for 200 points\n"),
            ("knn five 0 0", "err invalid <k> \"five\"\n"),
            ("knn 3 0.5", "err knn needs <k> and 2 coordinates\n"),
            ("hdbscan 0 8", "err hdbscan needs k_pts >= 1 and min_cluster_size >= 2\n"),
            ("metrics yaml", "err invalid metrics format \"yaml\" (expected json)\n"),
            ("load", "err load needs a path\n"),
            ("insert", "err insert needs coordinates in groups of 2\n"),
            ("insert 0.1 0.2 0.3", "err insert needs coordinates in groups of 2\n"),
            ("insert 0.1 oops", "err invalid coordinate \"oops\"\n"),
            ("knn 2 nan 0", "err invalid coordinate \"nan\"\n"),
            ("knn 2 inf 0", "err invalid coordinate \"inf\"\n"),
            ("insert nan 0.5", "err invalid coordinate \"nan\"\n"),
            ("insert 0.5 1e30", "err invalid coordinate \"1e30\"\n"),
            ("delete", "err delete needs at least one <id>\n"),
            ("delete seven", "err invalid id \"seven\"\n"),
            (
                "delete 9999",
                "err invalid request: delete id 9999 out of range for cloud of 200 points\n",
            ),
        ] {
            let reply = respond(&engine, &mut session, line);
            assert_eq!(reply.text, expect, "line {line:?}");
            assert!(reply.is_err());
            assert!(!reply.close);
        }
        let unknown = respond(&engine, &mut session, "frobnicate");
        assert!(unknown.text.starts_with("err unknown command \"frobnicate\""));
    }

    #[test]
    fn ping_quit_and_body_framing() {
        let (engine, pts) = engine();
        let mut session = NetSession::new(pts);
        assert_eq!(respond(&engine, &mut session, "ping").text, "ok pong\n");
        let bye = respond(&engine, &mut session, "quit");
        assert_eq!(bye.text, "ok bye\n");
        assert!(bye.close);

        // `metrics` without observability still frames an exposition body.
        let reply = respond(&engine, &mut session, "metrics");
        let (header, body) = reply.text.split_once('\n').unwrap();
        let len: usize = header.strip_prefix("ok body ").unwrap().parse().unwrap();
        assert_eq!(body.len(), len, "framed length must match the body bytes");
        assert!(body.ends_with('\n'));
    }

    #[test]
    fn line_reader_handles_splits_junk_and_oversize() {
        let quiet = AtomicBool::new(false);
        // Split writes: one line delivered across reads, CRLF stripped.
        let mut src: &[u8] = b"pi";
        let mut buf = Vec::new();
        assert!(
            matches!(next_line(&mut src, &mut buf, &quiet).unwrap(), ReadEvent::Line(l) if l == "pi")
        );
        let mut src: &[u8] = b"ng\r\nquit\n";
        buf.clear();
        buf.extend_from_slice(b"pi");
        match next_line(&mut src, &mut buf, &quiet).unwrap() {
            ReadEvent::Line(l) => assert_eq!(l, "ping"),
            _ => panic!("expected a line"),
        }
        match next_line(&mut src, &mut buf, &quiet).unwrap() {
            ReadEvent::Line(l) => assert_eq!(l, "quit"),
            _ => panic!("expected a line"),
        }
        assert!(matches!(next_line(&mut src, &mut buf, &quiet).unwrap(), ReadEvent::Eof));

        // Arbitrary junk (invalid UTF-8) still yields exactly one line.
        let mut src: &[u8] = b"\xff\xfe\x00garbage\n";
        buf.clear();
        assert!(matches!(next_line(&mut src, &mut buf, &quiet).unwrap(), ReadEvent::Line(_)));

        // Oversized unterminated line is rejected, not buffered forever.
        let big = vec![b'a'; MAX_LINE_BYTES + 2];
        let mut src: &[u8] = &big;
        buf.clear();
        assert!(matches!(next_line(&mut src, &mut buf, &quiet).unwrap(), ReadEvent::TooLong));
    }

    #[test]
    fn coalescing_key_canonicalizes_whitespace() {
        let tokens_a: Vec<&str> = "  knn   3  0.5 0.5 ".split_whitespace().collect();
        let tokens_b: Vec<&str> = "knn 3 0.5 0.5".split_whitespace().collect();
        assert_eq!(tokens_a.join(" "), tokens_b.join(" "));
        assert!(coalescable("emst") && coalescable("hdbscan"));
        assert!(!coalescable("load") && !coalescable("stats") && !coalescable("metrics"));
        assert!(!coalescable("insert") && !coalescable("delete"));
    }

    #[test]
    fn mutation_verbs_swap_the_session_and_reply_deterministically() {
        let (engine, pts) = engine();
        let mut session = NetSession::new(Arc::clone(&pts));
        let ins = respond(&engine, &mut session, "insert 0.25 0.75 0.6 0.4");
        assert!(ins.text.starts_with("ok insert key="), "{}", ins.text);
        assert!(ins.text.contains(" n=202 "), "{}", ins.text);
        assert!(ins.text.contains(" check="), "{}", ins.text);
        assert_eq!(session.points.len(), 202, "insert must swap the session cloud");

        // Replaying the same mutation from the same base cloud and the
        // same engine state must produce byte-identical replies (no
        // wall-clock fields). The first replay hits the warm child
        // (`dirty=0`), so compare two warm replays to each other and the
        // state-independent fields (key, tree digest) to the cold reply.
        let mut replay = NetSession::new(Arc::clone(&pts));
        let ins2 = respond(&engine, &mut replay, "insert 0.25 0.75 0.6 0.4");
        let mut replay_again = NetSession::new(Arc::clone(&pts));
        let ins3 = respond(&engine, &mut replay_again, "insert 0.25 0.75 0.6 0.4");
        assert_eq!(ins2, ins3, "same-state mutation replies must be byte-identical");
        let field = |text: &str, name: &str| {
            text.split_whitespace().find(|f| f.starts_with(name)).unwrap().to_string()
        };
        assert_eq!(field(&ins.text, "key="), field(&ins2.text, "key="));
        assert_eq!(field(&ins.text, "check="), field(&ins2.text, "check="));

        let del = respond(&engine, &mut session, "delete 0 201");
        assert!(del.text.starts_with("ok delete key="), "{}", del.text);
        assert!(del.text.contains(" n=200 "), "{}", del.text);
        assert_eq!(session.points.len(), 200);
        let del2 = respond(&engine, &mut replay, "delete 0 201");
        assert_eq!(field(&del.text, "key="), field(&del2.text, "key="));
        assert_eq!(field(&del.text, "check="), field(&del2.text, "check="));

        // A failed mutation must leave the session cloud untouched.
        let bad = respond(&engine, &mut session, "delete 5 5");
        assert_eq!(bad.text, "err invalid request: duplicate delete id 5\n");
        assert_eq!(session.points.len(), 200);
    }

    /// Every wire verb names the session's cloud by its points, so a
    /// session cloud evicted by another session's `load` is rebuilt on its
    /// next request and answers `cache=miss`, never a reload.
    #[test]
    fn an_evicted_session_cloud_answers_miss_not_reload() {
        let pts = Arc::new(Kind::Uniform.generate::<2>(200, 7));
        let engine = ServeEngine::new(Serial, ServeConfig::new(4, 1));
        let loaded = Kind::Uniform.generate::<2>(150, 11);
        let path =
            std::env::temp_dir().join(format!("emst-net-evicted-{}.csv", std::process::id()));
        emst_datasets::io::save_csv(&path, &loaded).unwrap();
        let mut a = NetSession::new(Arc::clone(&pts));
        let mut b = NetSession::new(Arc::clone(&pts));
        assert!(respond(&engine, &mut a, "emst").text.starts_with("ok emst cache=miss "));
        let load = respond(&engine, &mut b, &format!("load {}", path.display()));
        assert!(load.text.starts_with("ok loaded n=150 "), "{}", load.text);
        let again = respond(&engine, &mut a, "emst");
        assert!(again.text.starts_with("ok emst cache=miss n=200 "), "{}", again.text);
        let stats = respond(&engine, &mut a, "stats");
        assert!(stats.text.contains(" evictions=2 "), "{}", stats.text);
        assert!(stats.text.contains(" reloads=0 "), "{}", stats.text);
        std::fs::remove_file(&path).ok();
    }

    /// `digest_points` calls made on this thread so far.
    fn digest_calls() -> u64 {
        crate::spill::DIGEST_CALLS.with(|calls| calls.get())
    }

    #[test]
    fn session_digest_follows_insert_delete_and_load() {
        let (engine, pts) = engine();
        let loaded = Kind::Uniform.generate::<2>(150, 11);
        let path = std::env::temp_dir()
            .join(format!("emst-net-session-digest-{}.csv", std::process::id()));
        emst_datasets::io::save_csv(&path, &loaded).unwrap();
        let load = format!("load {}", path.display());
        let mut session = NetSession::new(Arc::clone(&pts));
        assert!(respond(&engine, &mut session, "emst").text.starts_with("ok emst cache=hit "));
        // Each swap hashes the new cloud once, inside the engine, and the
        // session copies that digest from the reply's key; the `emst` on
        // the new cloud hashes nothing and hits the resident just admitted.
        let swaps = [("insert 0.25 0.75 0.6 0.4", 202), ("delete 0 5 201", 199), (&load, 150)];
        for (line, n) in swaps {
            let before = digest_calls();
            let reply = respond(&engine, &mut session, line);
            assert!(reply.text.starts_with("ok "), "{line}: {}", reply.text);
            assert_eq!(session.points().len(), n, "{line}");
            assert_eq!(session.digest, Some(digest_points(session.points())), "{line}");
            let before_emst = digest_calls();
            assert_eq!(before_emst - before, 2, "{line}: one engine digest plus the check above");
            let emst = respond(&engine, &mut session, "emst");
            assert!(emst.text.starts_with(&format!("ok emst cache=hit n={n} ")), "{}", emst.text);
            assert_eq!(digest_calls(), before_emst, "{line}: the next emst hashed the cloud");
        }
        assert_eq!(session.points().as_slice(), loaded.as_slice());
        let stats = respond(&engine, &mut session, "stats");
        assert!(stats.text.contains(" digest_collisions=0"), "{}", stats.text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_wire_requests_hash_nothing_while_in_process_points_still_digest() {
        let (engine, pts) = engine();
        let mut session = NetSession::new(Arc::clone(&pts));
        // The session's first request hashes its cloud once, on the wire
        // side; the engine resolves by that digest.
        let before = digest_calls();
        assert!(respond(&engine, &mut session, "emst").text.starts_with("ok emst cache=hit "));
        assert_eq!(digest_calls(), before + 1);
        let no_digest_span = |op: &str| {
            let trace = engine.recent_traces(1).pop().expect("trace recorded");
            assert_eq!(trace.op, op);
            !trace.spans.iter().any(|s| s.name == "digest")
        };
        assert!(no_digest_span("emst"));

        let knn = respond(&engine, &mut session, "knn 3 0.5 0.5");
        assert!(knn.text.starts_with("ok knn cache=hit k=3 "), "{}", knn.text);
        assert_eq!(digest_calls(), before + 1, "a warm wire knn hashed the cloud");
        assert!(no_digest_span("knn"));

        // An in-process `CloudRef::Points` caller still digests in the
        // engine, and its trace keeps the `digest` span.
        engine.k_nearest(&pts, &pts[0], 3);
        assert_eq!(digest_calls(), before + 2);
        assert!(!no_digest_span("knn"));
    }

    #[test]
    fn a_mutated_session_stops_coalescing_with_its_parent() {
        let (engine, pts) = engine();
        let line = "knn 3 0.5 0.5";
        let mut parent = NetSession::new(Arc::clone(&pts));
        let mut child = NetSession::new(Arc::clone(&pts));
        let parent_key = coalescing_key(&mut parent, line).unwrap();
        assert_eq!(coalescing_key(&mut child, line), Some(parent_key.clone()));
        assert!(coalescing_key(&mut child, "insert 0.25 0.75").is_none());

        let ins = respond(&engine, &mut child, "insert 0.25 0.75");
        assert!(ins.text.starts_with("ok insert "), "{}", ins.text);
        let child_key = coalescing_key(&mut child, line).unwrap();
        assert_eq!(child_key.0, digest_points(child.points()));
        assert_ne!(child_key, parent_key);
        assert_eq!(coalescing_key(&mut parent, line), Some(parent_key.clone()));

        // With the parent's line in flight, a fresh session on the parent
        // cloud parks behind it; the mutated session leads its own flight.
        let flights = Flights::new(NetReply::err("abandoned"));
        let Join::Lead(_in_flight) = flights.join(parent_key, None) else {
            panic!("the first join leads");
        };
        let past = Some(Instant::now());
        let fresh = coalescing_key(&mut NetSession::new(Arc::clone(&pts)), line).unwrap();
        assert!(matches!(flights.join(fresh, past), Join::Follow(None)));
        assert!(matches!(flights.join(child_key, past), Join::Lead(_)));
    }
}
