//! Machine-readable performance snapshots (`BENCH_*.json`).
//!
//! Wall-clock numbers printed to a terminal rot; committed JSON gives every
//! future PR a trajectory to regress against. Each `measure_*` function
//! runs one ablation cell (or one summary row) and returns it as a
//! [`Cell`], an ordered list of keys and values with its ratio already
//! taken. A [`Snapshot`] files the cells under the sections of
//! [`SECTIONS`] and writes them as `emst-bench-snapshot/2` JSON with one
//! small writer (the workspace has no serde).
//!
//! The schema — every section and every field — is documented in
//! `docs/bench-snapshot.md`; a unit test checks that file's Field columns
//! against [`SECTIONS`].

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

use emst_core::{EmstConfig, SingleTreeBoruvka};
use emst_datasets::Kind;
use emst_exec::{PhaseTimings, Serial, Threads};
use emst_geometry::Point;

/// The generators of every serving section: uniform and dense.
pub const SERVING_GENERATORS: [(&str, Kind); 2] =
    [("uniform", Kind::Uniform), ("dense", Kind::GeoLifeLike)];

/// The snapshot's sections in file order, each with the keys of its cells
/// in order. `docs/bench-snapshot.md` documents every key.
#[rustfmt::skip]
pub const SECTIONS: [(&str, &[&str]); 7] = [
    ("summary", &["configuration", "n", "dim", "mfeatures_per_s", "phases"]),
    ("serving", &["generator", "n", "shards", "cold_s", "warm_s", "speedup_warm"]),
    ("serving_concurrent", &["generator", "n", "shards", "workers", "queries", "queries_per_s",
        "speedup_vs_1", "host_cpus"]),
    ("observability", &["generator", "n", "shards", "warm_observed_s", "warm_raw_s",
        "overhead_pct"]),
    ("fault_tolerance", &["generator", "n", "shards", "restore_reload_s", "rebuild_reload_s",
        "restore_speedup", "spill_write_s"]),
    ("serving_network", &["generator", "n", "shards", "clients", "requests", "warm_net_s",
        "warm_inproc_s", "wire_overhead", "coalesced"]),
    ("incremental", &["generator", "n", "shards", "mutated", "dirty_shards", "update_s",
        "rebuild_s", "speedup_update"]),
];

/// One value of a [`Cell`].
#[derive(Clone, Debug)]
pub enum Value {
    /// A count, written as a JSON integer.
    Int(u64),
    /// A measurement or ratio, written with six decimals (`null` when not
    /// finite).
    Num(f64),
    /// A label, written as an escaped JSON string.
    Str(String),
    /// A nested object.
    Cell(Cell),
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<Cell> for Value {
    fn from(v: Cell) -> Self {
        Value::Cell(v)
    }
}

/// The JSON writer: `Value`'s and [`Cell`]'s `Display` output is their
/// JSON text.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Num(v) if v.is_finite() => write!(f, "{v:.6}"),
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => write_json_str(f, s),
            Value::Cell(c) => write!(f, "{c}"),
        }
    }
}

fn write_json_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// One measured cell: ordered `(key, value)` pairs, written as one JSON
/// object on one line.
#[derive(Clone, Debug, Default)]
pub struct Cell(pub Vec<(&'static str, Value)>);

impl Cell {
    /// This cell with `key = value` appended.
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.0.push((key, value.into()));
        self
    }

    /// The keys, in order.
    fn keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(k, _)| *k)
    }

    /// The value under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The number under `key` (an integer reads as its `f64`). Panics if
    /// `key` holds anything else.
    pub fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Value::Num(v)) => *v,
            Some(Value::Int(v)) => *v as f64,
            other => panic!("{key}: expected a number, found {other:?}"),
        }
    }

    /// The integer under `key`. Panics if `key` holds anything else.
    pub fn int(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(Value::Int(v)) => *v,
            other => panic!("{key}: expected an integer, found {other:?}"),
        }
    }

    /// Flattened `(key, text)` columns for the stdout tables: nested keys
    /// joined with `.`, strings unquoted.
    fn columns(&self, prefix: &str, out: &mut Vec<(String, String)>) {
        for (key, value) in &self.0 {
            let key = format!("{prefix}{key}");
            match value {
                Value::Cell(c) => c.columns(&format!("{key}."), out),
                Value::Str(s) => out.push((key, s.clone())),
                v => out.push((key, v.to_string())),
            }
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{ ")?;
        for (i, (key, value)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write_json_str(f, key)?;
            write!(f, ": {value}")?;
        }
        f.write_str(" }")
    }
}

/// Writes `cells` to `out` under `# title` as one table with a column per
/// (flattened) key; a cell without a column's key shows `-`.
fn print_table(out: &mut dyn Write, title: &str, cells: &[Cell]) -> io::Result<()> {
    let rows: Vec<Vec<(String, String)>> = cells
        .iter()
        .map(|c| {
            let mut row = vec![];
            c.columns("", &mut row);
            row
        })
        .collect();
    let mut keys: Vec<&str> = vec![];
    for (key, _) in rows.iter().flatten() {
        if !keys.contains(&key.as_str()) {
            keys.push(key);
        }
    }
    fn lookup<'a>(row: &'a [(String, String)], key: &str) -> &'a str {
        row.iter().find(|(k, _)| k == key).map_or("-", |(_, text)| text.as_str())
    }
    let mut table = vec![keys.clone()];
    table.extend(rows.iter().map(|row| keys.iter().map(|key| lookup(row, key)).collect()));
    let widths: Vec<usize> =
        (0..keys.len()).map(|j| table.iter().map(|r| r[j].len()).max().unwrap_or(0)).collect();
    writeln!(out)?;
    writeln!(out, "# {title}")?;
    for row in &table {
        // The first column (the row's label) reads best left-aligned.
        let padded: Vec<String> = row
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(j, (t, &w))| if j == 0 { format!("{t:<w$}") } else { format!("{t:>w$}") })
            .collect();
        writeln!(out, "{}", padded.join("  "))?;
    }
    Ok(())
}

/// A complete snapshot, ready to serialize.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Interleaved repetitions behind each median.
    pub repeats: usize,
    /// Measured cells by section name (see [`SECTIONS`]); a section with
    /// no cells here is written as `[]`.
    pub sections: Vec<(&'static str, Vec<Cell>)>,
}

impl Snapshot {
    /// Writes `cells` to `out` as a table under `# title` and files them
    /// under section `name`.
    pub fn section(
        &mut self,
        out: &mut dyn Write,
        name: &'static str,
        title: &str,
        cells: Vec<Cell>,
    ) -> io::Result<()> {
        print_table(out, title, &cells)?;
        self.sections.push((name, cells));
        Ok(())
    }

    /// Serializes to the documented `emst-bench-snapshot/2` JSON. Panics
    /// if a section is not in [`SECTIONS`] or a cell's keys differ from
    /// its section's.
    pub fn to_json(&self) -> String {
        for (name, _) in &self.sections {
            assert!(SECTIONS.iter().any(|(s, _)| s == name), "unknown section {name:?}");
        }
        let header = Cell::default()
            .with("schema", "emst-bench-snapshot/2")
            .with("repeats", self.repeats)
            .with("backend", "Threads");
        let mut out = String::from("{\n");
        for (key, value) in &header.0 {
            out += &format!("  {}: {value},\n", Value::from(*key));
        }
        for (i, (name, keys)) in SECTIONS.iter().enumerate() {
            let cells: Vec<&Cell> = self
                .sections
                .iter()
                .filter(|(s, _)| s == name)
                .flat_map(|(_, cells)| cells)
                .collect();
            out += &format!("  {}: [\n", Value::from(*name));
            for (j, cell) in cells.iter().enumerate() {
                assert!(cell.keys().eq(keys.iter().copied()), "{name} cell keys: {cell}");
                out += &format!("    {cell}{}\n", if j + 1 < cells.len() { "," } else { "" });
            }
            out += if i + 1 < SECTIONS.len() { "  ],\n" } else { "  ]\n" };
        }
        out.push_str("}\n");
        out
    }

    /// Writes the JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let m = samples.len();
    if m == 0 {
        return f64::NAN;
    }
    if m % 2 == 1 {
        samples[m / 2]
    } else {
        0.5 * (samples[m / 2 - 1] + samples[m / 2])
    }
}

/// The cells of `measure(generator, kind, n)` over every
/// `generators × sizes` pair, generators outermost.
pub fn grid<I: IntoIterator<Item = Cell>>(
    generators: &[(&str, Kind)],
    sizes: &[usize],
    mut measure: impl FnMut(&str, Kind, usize) -> I,
) -> Vec<Cell> {
    let mut cells = vec![];
    for &(generator, kind) in generators {
        for &n in sizes {
            cells.extend(measure(generator, kind, n));
        }
    }
    cells
}

/// A cell opening with its grid coordinates.
fn at(generator: &str, n: usize) -> Cell {
    Cell::default().with("generator", generator).with("n", n)
}

/// Measures one serving cell: `repeats` interleaved cold (fresh engine)
/// and warm (resident engine) full-EMST queries on the `Threads` backend.
/// Panics if a warm answer is not bit-identical to the cold one — the
/// harness refuses to report a speedup for wrong bits.
pub fn measure_serving_cell(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    repeats: usize,
) -> Cell {
    use emst_serve::{CacheOutcome, ServeConfig, ServeEngine};
    let points: Vec<Point<2>> = kind.generate(n, 0x5E21);
    let resident = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 1));
    resident.ingest(&points);
    let mut cold = vec![];
    let mut warm = vec![];
    for _ in 0..repeats {
        let fresh = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 1));
        let t = std::time::Instant::now();
        let c = fresh.emst(&points);
        cold.push(t.elapsed().as_secs_f64());
        assert_eq!(c.outcome, CacheOutcome::Miss);

        let t = std::time::Instant::now();
        let w = resident.emst(&points);
        warm.push(t.elapsed().as_secs_f64());
        assert_eq!(w.outcome, CacheOutcome::Hit);
        assert!(w.build_work.is_zero());
        assert_eq!(w.edges, c.edges, "warm answer must be bit-identical");
    }
    let (cold_s, warm_s) = (median(&mut cold), median(&mut warm));
    at(generator, n)
        .with("shards", shards)
        .with("cold_s", cold_s)
        .with("warm_s", warm_s)
        .with("speedup_warm", cold_s / warm_s)
}

/// Measures warm-query throughput of one *shared* engine at each worker
/// count in `workers_list` (the first entry is the scaling baseline;
/// callers pass `[1, 2, 4]`). Queries run on the `Serial` backend so the
/// worker threads are the only parallelism in play, and every answer is
/// asserted bit-identical to the pre-warmed single-threaded reference —
/// the harness refuses to report throughput for wrong bits.
pub fn measure_serving_concurrent(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    workers_list: &[usize],
    queries_per_worker: usize,
) -> Vec<Cell> {
    use emst_serve::{ServeConfig, ServeEngine};
    let points: Vec<Point<2>> = kind.generate(n, 0xC0C);
    let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(shards, 2));
    // Warm twice: the first query builds, the second sizes the pooled
    // merge scratch, so the timed loop measures the steady state.
    let reference = engine.emst(&points).edges;
    assert_eq!(engine.emst(&points).edges, reference);
    let host_cpus = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut cells = vec![];
    let mut base_rate = f64::NAN;
    for &workers in workers_list {
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (engine, points, reference) = (&engine, &points, &reference);
                scope.spawn(move || {
                    for _ in 0..queries_per_worker {
                        let warm = engine.emst(points);
                        assert_eq!(
                            &warm.edges, reference,
                            "concurrent warm answer must be bit-identical"
                        );
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let queries = workers * queries_per_worker;
        let rate = queries as f64 / secs;
        if cells.is_empty() {
            base_rate = rate;
        }
        cells.push(
            at(generator, n)
                .with("shards", shards)
                .with("workers", workers)
                .with("queries", queries)
                .with("queries_per_s", rate)
                .with("speedup_vs_1", rate / base_rate)
                .with("host_cpus", host_cpus),
        );
    }
    cells
}

/// Measures one observability cell: `repeats` interleaved warm full-EMST
/// queries against two resident engines that differ only in
/// `ServeConfig::observability`. The instrumented engine's answers are
/// asserted bit-identical to the raw engine's — probes must not perturb
/// results — and the instrumented engine must actually have recorded
/// metrics (an accidentally-dark engine would report a flattering 0%
/// overhead).
pub fn measure_observability(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    repeats: usize,
) -> Cell {
    use emst_serve::{ServeConfig, ServeEngine};
    let points: Vec<Point<2>> = kind.generate(n, 0x0B5);
    let observed = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 1));
    let raw_config = ServeConfig { observability: false, ..ServeConfig::new(shards, 1) };
    let raw = ServeEngine::<_, 2>::new(Threads, raw_config);
    // Warm both engines twice so the timed loop measures the steady state
    // (the second query sizes the pooled merge scratch).
    let reference = raw.emst(&points).edges;
    raw.emst(&points);
    assert_eq!(observed.emst(&points).edges, reference, "instrumentation must not perturb bits");
    observed.emst(&points);
    let mut observed_s = vec![];
    let mut raw_s = vec![];
    for _ in 0..repeats {
        let t = std::time::Instant::now();
        let o = observed.emst(&points);
        observed_s.push(t.elapsed().as_secs_f64());
        assert_eq!(o.edges, reference);

        let t = std::time::Instant::now();
        let r = raw.emst(&points);
        raw_s.push(t.elapsed().as_secs_f64());
        assert_eq!(r.edges, reference);
    }
    assert!(
        observed.metrics_prometheus().contains("emst_serve_op_seconds_count"),
        "instrumented engine recorded no metrics"
    );
    let (observed_s, raw_s) = (median(&mut observed_s), median(&mut raw_s));
    at(generator, n)
        .with("shards", shards)
        .with("warm_observed_s", observed_s)
        .with("warm_raw_s", raw_s)
        .with("overhead_pct", (observed_s / raw_s - 1.0) * 100.0)
}

/// Measures one fault-tolerance reload cell: `repeats` interleaved
/// evict-then-reload cycles on two engines that differ only in
/// `ServeConfig::spill_artifacts`. Each cycle evicts the measured cloud
/// by querying a decoy through the single residency slot, then times the
/// by-key reload; the restoring engine's `emst_serve_spill_write_seconds`
/// histogram also times the eviction's artifact spill write. Panics if
/// any reloaded answer is not bit-identical to the reference, if the
/// restoring engine reports build work (it must deserialize, not re-solve;
/// its shard-tree rebuilds are not Borůvka work), or if the rebuilding
/// engine reports none — a mislabeled path would make the speedup
/// meaningless.
pub fn measure_fault_tolerance(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    repeats: usize,
) -> Cell {
    use emst_serve::{CacheOutcome, ServeConfig, ServeEngine};
    let points: Vec<Point<2>> = kind.generate(n, 0xFA17);
    // The decoy only exists to push the measured cloud out of the single
    // residency slot; a smaller cloud keeps eviction churn cheap.
    let decoy: Vec<Point<2>> = kind.generate((n / 4).max(64), 0xDEC0);

    let restoring = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 1));
    let rebuild_cfg = ServeConfig { spill_artifacts: false, ..ServeConfig::new(shards, 1) };
    let rebuilding = ServeEngine::<_, 2>::new(Threads, rebuild_cfg);
    let reference = restoring.emst(&points).edges;
    assert_eq!(rebuilding.emst(&points).edges, reference, "engines must agree before eviction");
    let key_restore = restoring.key(&points);
    let key_rebuild = rebuilding.key(&points);
    let spill_write = restoring
        .obs_registry()
        .expect("observability is on by default")
        .histogram("emst_serve_spill_write_seconds");

    let mut restore_s = vec![];
    let mut rebuild_s = vec![];
    let mut spill_write_s = vec![];
    for _ in 0..repeats {
        let before = spill_write.snapshot();
        restoring.emst(&decoy); // evict `points` into its artifact spill
        let after = spill_write.snapshot();
        let writes = after.count - before.count;
        assert_eq!(writes, 1, "the decoy must evict exactly the measured cloud");
        spill_write_s.push((after.sum_seconds() - before.sum_seconds()) / writes as f64);
        let t = std::time::Instant::now();
        let resp = restoring.emst_by_key(key_restore).expect("fault-free restore reload");
        restore_s.push(t.elapsed().as_secs_f64());
        assert_eq!(resp.outcome, CacheOutcome::Reloaded);
        assert_eq!(resp.edges, reference, "restored answer must be bit-identical");
        assert!(resp.build_work.is_zero(), "artifact restore must not rebuild");

        rebuilding.emst(&decoy); // evict `points` into its points-only spill
        let t = std::time::Instant::now();
        let resp = rebuilding.emst_by_key(key_rebuild).expect("fault-free rebuild reload");
        rebuild_s.push(t.elapsed().as_secs_f64());
        assert_eq!(resp.outcome, CacheOutcome::Reloaded);
        assert_eq!(resp.edges, reference, "rebuilt answer must be bit-identical");
        assert!(!resp.build_work.is_zero(), "a points-only reload must rebuild");
    }
    // The ladder accounting must agree with what was asserted per cycle:
    // only restores on one engine, only rebuilds on the other, and no
    // storage failures anywhere (this grid runs with faults disabled).
    let (rs, bs) = (restoring.stats(), rebuilding.stats());
    assert!(rs.artifact_restores >= repeats as u64 && rs.artifact_rebuilds == 0, "{rs:?}");
    assert!(bs.artifact_rebuilds >= repeats as u64 && bs.artifact_restores == 0, "{bs:?}");
    assert_eq!(rs.checksum_failures + bs.checksum_failures, 0, "no faults were injected");
    assert_eq!(rs.spill_failures + bs.spill_failures, 0, "no faults were injected");

    let (restore_s, rebuild_s) = (median(&mut restore_s), median(&mut rebuild_s));
    at(generator, n)
        .with("shards", shards)
        .with("restore_reload_s", restore_s)
        .with("rebuild_reload_s", rebuild_s)
        .with("restore_speedup", rebuild_s / restore_s)
        .with("spill_write_s", median(&mut spill_write_s))
}

/// Measures one network serving cell: warm full-EMST request latency
/// over a real loopback socket vs the identical request through the
/// in-process protocol function on the same engine, then a same-key
/// storm of `clients` identical cold queries to count coalescing.
/// Panics if any wire reply is not byte-identical to the in-process
/// bytes — the harness refuses to report latency for wrong bits.
pub fn measure_serving_network(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    clients: usize,
    requests: usize,
) -> Cell {
    use emst_serve::net::respond;
    use emst_serve::{NetConfig, NetSession, ServeConfig, ServeEngine, ServeServer};
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::Arc;

    let clients = clients.max(1);
    let points: Arc<Vec<Point<2>>> = Arc::new(kind.generate(n, 0x9E7));
    let engine = Arc::new(ServeEngine::<_, 2>::new(Serial, ServeConfig::new(shards, 2)));
    engine.ingest(&points);
    // Warm twice (steady state) and capture the expected warm wire bytes
    // from the in-process protocol function — the oracle for every
    // socket reply below.
    let mut session = NetSession::new(Arc::clone(&points));
    let _ = respond(engine.as_ref(), &mut session, "emst");
    let expected = respond(engine.as_ref(), &mut session, "emst").text;
    assert!(expected.starts_with("ok emst cache=hit "), "warm-up failed: {expected}");

    let mut inproc = vec![];
    for _ in 0..requests {
        let t = std::time::Instant::now();
        let r = respond(engine.as_ref(), &mut session, "emst");
        inproc.push(t.elapsed().as_secs_f64());
        assert_eq!(r.text, expected);
    }

    let server = ServeServer::bind(
        Arc::clone(&engine),
        Arc::clone(&points),
        "127.0.0.1:0",
        NetConfig { workers: clients, max_pending: 2 * clients },
    )
    .expect("bind an ephemeral loopback port");

    let mut net = vec![];
    {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for _ in 0..requests {
            let t = std::time::Instant::now();
            writer.write_all(b"emst\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            net.push(t.elapsed().as_secs_f64());
            assert_eq!(line, expected, "wire reply must match the in-process bytes");
        }
    }

    // Same-key storm: concurrent identical cold queries; overlapping
    // executions coalesce onto one flight and share its reply.
    let before = engine.stats().query_coalesced;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let addr = server.local_addr();
            scope.spawn(move || {
                let mut c = TcpStream::connect(addr).unwrap();
                c.write_all(b"hdbscan 4 8\nquit\n").unwrap();
                let mut got = String::new();
                c.read_to_string(&mut got).unwrap();
                assert!(got.starts_with("ok hdbscan cache="), "{got}");
            });
        }
    });
    let coalesced = engine.stats().query_coalesced - before;
    server.shutdown();

    let (net_s, inproc_s) = (median(&mut net), median(&mut inproc));
    at(generator, n)
        .with("shards", shards)
        .with("clients", clients)
        .with("requests", requests)
        .with("warm_net_s", net_s)
        .with("warm_inproc_s", inproc_s)
        .with("wire_overhead", net_s / inproc_s)
        .with("coalesced", coalesced)
}

/// Measures one incremental-update cell: `repeats` interleaved runs of a
/// 1%-clustered `insert` against a freshly ingested resident parent (a
/// fresh engine per repeat — the child becomes resident after one
/// update, so re-timing against the same engine would measure a cache
/// hit, not the delta-solve) vs a cold from-scratch build of the same
/// mutated cloud. Panics if the incremental answer's edge-weight
/// multiset is not bit-identical to the from-scratch one, if the update
/// silently fell back to a full rebuild, or if no clean shard was
/// reused — a mislabeled path would make the speedup meaningless.
pub fn measure_incremental(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    repeats: usize,
) -> Cell {
    use emst_core::edge::weight_multiset;
    use emst_serve::{CacheOutcome, ServeConfig, ServeEngine};
    let points: Vec<Point<2>> = kind.generate(n, 0x1CA);
    // ~1% of the cloud, clustered around one resident member so the
    // Morton router dirties as few shards as possible — the locality the
    // incremental path exists to exploit.
    let mutated = (n / 100).max(1);
    let anchor = points[n / 3];
    let added: Vec<Point<2>> = (0..mutated)
        .map(|i| {
            let eps = 1e-4 * (i as f32 + 1.0) / mutated as f32;
            Point::new([anchor[0] + eps, anchor[1] - eps])
        })
        .collect();

    let mut update = vec![];
    let mut rebuild = vec![];
    let mut dirty_shards = shards;
    for _ in 0..repeats {
        let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 2));
        let key = engine.ingest(&points);
        let t = std::time::Instant::now();
        let m = engine.insert(key, &added).expect("incremental insert");
        update.push(t.elapsed().as_secs_f64());
        assert!(!m.full_rebuild, "a clustered 1% insert must not fall back to a full rebuild");
        assert!(m.reused_shards > 0, "the incremental path must reuse clean shards");
        dirty_shards = m.dirty_shards.len();

        let fresh = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 1));
        let t = std::time::Instant::now();
        let c = fresh.emst(&m.points);
        rebuild.push(t.elapsed().as_secs_f64());
        assert_eq!(c.outcome, CacheOutcome::Miss);
        assert_eq!(
            weight_multiset(&m.update.edges),
            weight_multiset(&c.edges),
            "incremental weight multiset must match the from-scratch build"
        );
    }
    let (update_s, rebuild_s) = (median(&mut update), median(&mut rebuild));
    at(generator, n)
        .with("shards", shards)
        .with("mutated", mutated)
        .with("dirty_shards", dirty_shards)
        .with("update_s", update_s)
        .with("rebuild_s", rebuild_s)
        .with("speedup_update", rebuild_s / update_s)
}

/// Measures the fig1-style summary rows at one size: every solver's rate,
/// plus phase medians for the single-tree runs.
pub fn measure_summary(n: usize, repeats: usize) -> Vec<Cell> {
    fn solve<const D: usize>(points: &[Point<D>], threads: bool) -> PhaseTimings {
        let solver = SingleTreeBoruvka::new(points);
        let cfg = EmstConfig::default();
        if threads {
            solver.run(&Threads, &cfg).timings
        } else {
            solver.run(&Serial, &cfg).timings
        }
    }
    let cloud = emst_datasets::PaperDataset::Hacc37M.generate(n, 37);
    let features = cloud.features();
    let row = |configuration: &str, rate: f64, phases: Cell| {
        Cell::default()
            .with("configuration", configuration)
            .with("n", n)
            .with("dim", cloud.dim())
            .with("mfeatures_per_s", rate)
            .with("phases", phases)
    };
    let mut rows = vec![];

    // Single-tree rows carry per-phase medians.
    for (name, threads) in [("single-tree (Serial)", false), ("single-tree (Threads)", true)] {
        let mut totals = vec![];
        let mut phases: Vec<(&'static str, Vec<f64>)> = vec![];
        for _ in 0..repeats {
            let timings = crate::with_cloud(&cloud, |p| solve(p, threads), |p| solve(p, threads));
            totals.push(timings.get("tree") + timings.get("mst"));
            for (phase, secs) in timings.iter() {
                match phases.iter_mut().find(|(p, _)| *p == phase) {
                    Some((_, v)) => v.push(secs),
                    None => phases.push((phase, vec![secs])),
                }
            }
        }
        phases.sort_by_key(|(p, _)| *p);
        let phases =
            phases.into_iter().fold(Cell::default(), |c, (p, mut v)| c.with(p, median(&mut v)));
        rows.push(row(name, crate::mfeatures_per_sec(features, median(&mut totals)), phases));
    }

    // Competing implementations: totals only.
    for (name, rate) in [
        ("dual-tree (Serial)", crate::dual_tree_rate(&cloud)),
        ("wspd (Serial)", crate::wspd_rate(&cloud, false)),
    ] {
        rows.push(row(name, rate, Cell::default()));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn writer_escapes_strings_and_writes_null_for_non_finite_numbers() {
        let inner = Cell::default().with("nan", f64::NAN).with("inf", f64::INFINITY);
        let cell = Cell::default()
            .with("label", "say \"hi\"\\\n\t\u{1}é")
            .with("count", 7usize)
            .with("x", 0.5)
            .with("inner", inner)
            .with("empty", Cell::default());
        assert_eq!(
            cell.to_string(),
            r#"{ "label": "say \"hi\"\\\n\t\u0001é", "count": 7, "x": 0.500000, "inner": { "nan": null, "inf": null }, "empty": {  } }"#
        );
    }

    /// Every `` ## `name[]` `` table of the schema doc lists exactly its
    /// section's keys, in order, and the top-level table lists the header
    /// fields and then every section.
    #[test]
    fn schema_doc_tables_match_sections() {
        let doc = include_str!("../../../docs/bench-snapshot.md");
        // The Field column of the table that follows each `## ` heading.
        let mut tables: Vec<(&str, Vec<&str>)> = vec![];
        for line in doc.lines() {
            if let Some(heading) = line.strip_prefix("## ") {
                tables.push((heading, vec![]));
            } else if let (Some((_, fields)), Some(row)) =
                (tables.last_mut(), line.strip_prefix("| `"))
            {
                fields.push(row.split('`').next().unwrap());
            }
        }
        let fields_of = |heading: &str| {
            let found = tables.iter().find(|(h, _)| h.starts_with(heading));
            found.unwrap_or_else(|| panic!("no `## {heading}` table")).1.clone()
        };
        let mut top = vec!["schema", "repeats", "backend"];
        top.extend(SECTIONS.iter().map(|(name, _)| *name));
        assert_eq!(fields_of("Top level"), top);
        for (name, keys) in SECTIONS {
            assert_eq!(fields_of(&format!("`{name}[]`")), keys, "section {name}");
        }
    }

    #[test]
    fn snapshot_serializes_valid_shape() {
        let mut snap = Snapshot { repeats: 1, sections: vec![] };
        let mut section = |name, cells| snap.section(&mut io::sink(), name, name, cells).unwrap();
        section("summary", measure_summary(400, 1));
        let serving = measure_serving_cell("uniform", Kind::Uniform, 600, 3, 1);
        section("serving", vec![serving]);
        let concurrent = measure_serving_concurrent("uniform", Kind::Uniform, 600, 3, &[1, 2], 2);
        section("serving_concurrent", concurrent);
        let obs = measure_observability("uniform", Kind::Uniform, 600, 3, 1);
        section("observability", vec![obs]);
        let ft = measure_fault_tolerance("uniform", Kind::Uniform, 600, 3, 1);
        section("fault_tolerance", vec![ft]);
        let net = measure_serving_network("uniform", Kind::Uniform, 600, 3, 2, 2);
        section("serving_network", vec![net]);
        let inc = measure_incremental("uniform", Kind::Uniform, 600, 3, 1);
        section("incremental", vec![inc]);
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"emst-bench-snapshot/2\""));
        assert!(json.contains("\"speedup_warm\""));
        assert!(json.contains("\"speedup_vs_1\""));
        assert!(json.contains("\"host_cpus\""));
        assert!(json.contains("\"overhead_pct\""));
        assert!(json.contains("\"restore_speedup\""));
        assert!(json.contains("\"wire_overhead\""));
        assert!(json.contains("\"coalesced\""));
        assert!(json.contains("\"speedup_update\""));
        assert!(json.contains("\"dirty_shards\""));
        assert!(json.contains("single-tree (Threads)"));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the workspace).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn serving_cell_measures_both_paths() {
        // Bit-identity of warm answers is asserted inside the harness; at
        // tiny n the speedup itself is noise, so only shape is checked.
        let cell = measure_serving_cell("dense", Kind::GeoLifeLike, 700, 4, 2);
        assert!(cell.num("cold_s") > 0.0);
        assert!(cell.num("warm_s") > 0.0);
        assert!(cell.num("speedup_warm").is_finite());
    }

    #[test]
    fn concurrent_serving_cells_share_one_baseline() {
        // Bit-identity is asserted inside the harness; here the shape: the
        // first (workers = 1) cell is its own baseline by construction and
        // every cell answered its full query budget.
        let cells = measure_serving_concurrent("dense", Kind::GeoLifeLike, 600, 3, &[1, 2], 2);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].int("workers"), 1);
        assert_eq!(cells[0].num("speedup_vs_1"), 1.0);
        assert_eq!(cells[1].int("queries"), 4);
        assert!(cells.iter().all(|c| c.num("queries_per_s") > 0.0 && c.int("host_cpus") >= 1));
        assert!(cells[1].num("speedup_vs_1").is_finite());
    }

    #[test]
    fn fault_tolerance_cell_measures_both_reload_paths() {
        // Bit-identity, restore-reports-zero-build-work and
        // rebuild-reports-nonzero are all asserted inside the harness; at
        // tiny n the speedup itself is noise, so only shape is checked.
        let cell = measure_fault_tolerance("dense", Kind::GeoLifeLike, 700, 4, 2);
        assert!(cell.num("restore_reload_s") > 0.0);
        assert!(cell.num("rebuild_reload_s") > 0.0);
        assert!(cell.num("restore_speedup").is_finite());
        assert!(cell.num("spill_write_s") > 0.0);
    }

    #[test]
    fn serving_network_cell_verifies_wire_bytes_and_measures_both_paths() {
        // Byte-identity of every socket reply against the in-process
        // oracle is asserted inside the harness; at tiny n the latency
        // ratio is noise (and `coalesced` may honestly be 0), so only
        // shape is checked here.
        let cell = measure_serving_network("dense", Kind::GeoLifeLike, 600, 3, 2, 3);
        assert!(cell.num("warm_net_s") > 0.0);
        assert!(cell.num("warm_inproc_s") > 0.0);
        assert!(cell.num("wire_overhead").is_finite());
        assert_eq!((cell.int("clients"), cell.int("requests")), (2, 3));
    }

    #[test]
    fn incremental_cell_measures_both_paths_and_stays_incremental() {
        // Weight-multiset identity with the from-scratch build, the
        // no-full-rebuild and clean-shards-reused invariants are all
        // asserted inside the harness; at tiny n the speedup itself is
        // noise, so only shape is checked here.
        let cell = measure_incremental("dense", Kind::GeoLifeLike, 700, 4, 2);
        assert!(cell.num("update_s") > 0.0);
        assert!(cell.num("rebuild_s") > 0.0);
        assert!(cell.num("speedup_update").is_finite());
        assert_eq!(cell.int("mutated"), 7);
        let dirty = cell.int("dirty_shards");
        assert!((1..4).contains(&dirty), "{dirty}");
    }

    #[test]
    fn observability_cell_measures_both_engines() {
        // Bit-identity between instrumented and raw engines is asserted
        // inside the harness; at tiny n the overhead itself is pure noise,
        // so only shape is checked here.
        let cell = measure_observability("dense", Kind::GeoLifeLike, 700, 4, 2);
        assert!(cell.num("warm_observed_s") > 0.0);
        assert!(cell.num("warm_raw_s") > 0.0);
        assert!(cell.num("overhead_pct").is_finite());
    }
}
