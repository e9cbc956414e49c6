//! Out-of-core sharded EMST: stream shards from CSV so the input is never
//! fully resident.
//!
//! The pipeline makes three sequential passes over the input file through
//! [`emst_datasets::io::read_points_chunked`] (one chunk resident at a
//! time), then works shard-by-shard:
//!
//! 1. **scan** — count points and accumulate the scene bounding box;
//! 2. **histogram** — bucket every point by the top 16 bits of its Morton
//!    code and cut the bucket axis into `K` ranges of roughly equal count
//!    (equal codes share a bucket, so duplicates always land in one shard —
//!    the same invariant as [`crate::ShardPlan`]);
//! 3. **route** — append every point (with its original index) to its
//!    shard's spill file;
//! 4. **local** — load one shard at a time and solve its EMST with the
//!    single-tree algorithm, keeping only the edge list;
//! 5. **pairs** — for every pair of non-empty shards, load the two shards
//!    and compute the spanning tree of their complete *bipartite* cross
//!    graph with the same constrained-query Borůvka engine as the
//!    in-memory merge. By the cycle property, `MST(all cross edges) ⊆
//!    ⋃ᵢⱼ MST(cross edges between i and j)`, so these trees plus the local
//!    MSTs contain the global EMST;
//! 6. **assemble** — Kruskal over the ~`(K + 1)·n` candidate edges (edges
//!    are resident, points are not).
//!
//! Peak point residency is `max(chunk, largest shard, largest shard pair)`
//! — reported in [`ShardStats::peak_resident`]. The `O(K²)` pair pass
//! bounds sensible `K` to a few dozen; pruning far-apart pairs is a
//! ROADMAP item.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use emst_core::edge::total_weight;
use emst_core::Edge;
use emst_datasets::io::read_points_chunked;
use emst_exec::counters::CounterSnapshot;
use emst_exec::{Counters, ExecSpace, PhaseTimings};
use emst_geometry::{Aabb, Point};
use emst_morton::MortonEncoder;

use crate::artifacts::local_mst;
use crate::merge::{cross_shard_boruvka, MergeScratch, MergeShard};
use crate::{ShardStats, ShardedResult};

/// Number of Morton-prefix buckets used to balance the streaming split.
const BUCKETS: usize = 1 << 16;

/// Points per streamed chunk, clamped to [`StreamConfig::max_resident`]
/// when a cap is set (the in-flight chunk counts toward residency too).
const CHUNK_POINTS: usize = 4096;

/// Configuration of an out-of-core sharded solve.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Number of shards. `0` derives a count from `max_resident` so that a
    /// pair of average shards fits in the residency target.
    pub shards: usize,
    /// Target bound on simultaneously resident points (advisory: a single
    /// overfull shard — e.g. all-duplicate inputs — can exceed it; the
    /// actual peak is reported in [`ShardStats::peak_resident`]).
    pub max_resident: usize,
}

impl StreamConfig {
    /// Configuration with `shards` shards and a residency target.
    pub fn new(shards: usize, max_resident: usize) -> Self {
        Self { shards, max_resident }
    }
}

/// One spilled point: original index plus coordinates.
type Spilled<const D: usize> = (u32, Point<D>);

/// Computes the EMST of the CSV point cloud at `path` without ever holding
/// all points in memory. The edge-weight multiset equals the in-memory and
/// monolithic solves.
pub fn emst_sharded_csv<S: ExecSpace, const D: usize>(
    space: &S,
    path: &Path,
    config: &StreamConfig,
) -> io::Result<ShardedResult> {
    let mut timings = PhaseTimings::new();
    let counters = Counters::new();
    // The streamed chunk is resident too, so it must fit under the cap.
    let chunk = match config.max_resident {
        0 => CHUNK_POINTS,
        cap => CHUNK_POINTS.min(cap),
    };

    // Pass 1: point count and scene bounding box.
    let mut scene = Aabb::<D>::empty();
    let n = timings.time("scan", || {
        read_points_chunked::<D>(path, chunk, |_, pts| {
            for p in pts {
                scene = scene.union(&Aabb::from_point(*p));
            }
            Ok(())
        })
    })?;
    if n < 2 {
        let mut result = ShardedResult::empty();
        // Report the (trivial) input size so callers can tell "empty file"
        // from "one point", matching the in-memory stats.
        result.stats.shard_sizes = vec![n];
        result.stats.peak_resident = n;
        result.stats.timings = timings;
        return Ok(result);
    }
    assert!(n <= u32::MAX as usize, "more than u32::MAX points");

    let k = if config.shards > 0 {
        config.shards
    } else {
        (2 * n).div_ceil(config.max_resident.max(1)).clamp(1, 256)
    };
    let encoder = MortonEncoder::new(&scene);
    let bucket_of = |p: &Point<D>| (encoder.encode_u64(p) >> 48) as usize;

    // Pass 2: Morton-prefix histogram, cut into K contiguous bucket ranges.
    let mut counts = vec![0usize; BUCKETS];
    timings.time("histogram", || {
        read_points_chunked::<D>(path, chunk, |_, pts| {
            for p in pts {
                counts[bucket_of(p)] += 1;
            }
            Ok(())
        })
    })?;
    let shard_of_bucket = split_buckets(&counts, n, k);

    // Pass 3: route points (with their original indices) to spill files.
    let dir = spill_dir(path)?;
    let result = stream_shards::<S, D>(
        space,
        path,
        chunk,
        n,
        k,
        &dir,
        &shard_of_bucket,
        bucket_of,
        &counters,
        &mut timings,
    );
    std::fs::remove_dir_all(&dir).ok();
    result
}

/// Assigns each Morton-prefix bucket to a shard, targeting `n / k` points
/// per shard while keeping bucket (and hence code) ranges contiguous.
fn split_buckets(counts: &[usize], n: usize, k: usize) -> Vec<u32> {
    let target = n.div_ceil(k);
    let mut shard_of_bucket = vec![0u32; counts.len()];
    let mut shard = 0usize;
    let mut acc = 0usize;
    for (b, &c) in counts.iter().enumerate() {
        if acc >= target && shard + 1 < k {
            shard += 1;
            acc = 0;
        }
        shard_of_bucket[b] = shard as u32;
        acc += c;
    }
    shard_of_bucket
}

fn spill_dir(input: &Path) -> io::Result<PathBuf> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut dir = std::env::temp_dir();
    dir.push(format!("emst-shard-spill-{}-{unique}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let _ = input; // the directory is process-unique; the input path is not needed
    Ok(dir)
}

fn spill_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.csv"))
}

/// Loads one shard's spill file: `index,coord0,...` lines.
fn load_spill<const D: usize>(dir: &Path, shard: usize) -> io::Result<Vec<Spilled<D>>> {
    let mut out = vec![];
    let mut reader = BufReader::new(File::open(spill_path(dir, shard))?);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(out);
        }
        let mut fields = line.trim().split(',');
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "corrupt spill file");
        let idx: u32 = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
        let mut coords = [0.0f32; D];
        for c in coords.iter_mut() {
            *c = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
        }
        out.push((idx, Point::new(coords)));
    }
}

#[allow(clippy::too_many_arguments)] // internal driver; splitting it would only scatter state
fn stream_shards<S: ExecSpace, const D: usize>(
    space: &S,
    path: &Path,
    chunk: usize,
    n: usize,
    k: usize,
    dir: &Path,
    shard_of_bucket: &[u32],
    bucket_of: impl Fn(&Point<D>) -> usize,
    counters: &Counters,
    timings: &mut PhaseTimings,
) -> io::Result<ShardedResult> {
    let mut peak_resident = chunk.min(n);

    // Pass 3: route.
    timings.time("route", || {
        let mut writers: Vec<BufWriter<File>> = (0..k)
            .map(|s| File::create(spill_path(dir, s)).map(BufWriter::new))
            .collect::<io::Result<_>>()?;
        read_points_chunked::<D>(path, chunk, |start, pts| {
            for (i, p) in pts.iter().enumerate() {
                let w = &mut writers[shard_of_bucket[bucket_of(p)] as usize];
                write!(w, "{}", start + i)?;
                for d in 0..D {
                    // `{:?}` prints the shortest f32 representation that
                    // round-trips, as in `emst_datasets::io::save_csv`.
                    write!(w, ",{:?}", p[d])?;
                }
                writeln!(w)?;
            }
            Ok(())
        })?;
        for w in &mut writers {
            w.flush()?;
        }
        Ok::<(), io::Error>(())
    })?;

    // Pass 4: local solves, one shard resident at a time, all drawing from
    // one reused scratch pool (the solves are sequential by design here).
    let mut shard_sizes = vec![0usize; k];
    let mut local_iterations = vec![];
    let mut local_work = CounterSnapshot::default();
    let mut candidates: Vec<Edge> = vec![];
    let mut scratch = emst_core::BoruvkaScratch::new();
    timings.time("local", || {
        for s in 0..k {
            let spilled: Vec<Spilled<D>> = load_spill(dir, s)?;
            shard_sizes[s] = spilled.len();
            peak_resident = peak_resident.max(spilled.len());
            if spilled.is_empty() {
                continue;
            }
            // One entry per non-empty shard (0 for one point), as in the
            // in-memory path.
            let (ids, pts): (Vec<u32>, Vec<Point<D>>) = spilled.into_iter().unzip();
            let (_, edges, iterations, work) = local_mst(space, &pts, &ids, &mut scratch);
            local_iterations.push(iterations);
            local_work += work;
            candidates.extend(edges);
        }
        Ok::<(), io::Error>(())
    })?;

    // Pass 5: bipartite cross candidates, two shards resident at a time.
    let nonempty: Vec<usize> = (0..k).filter(|&s| shard_sizes[s] > 0).collect();
    let mut merge_rounds = 0u32;
    let mut boundary_candidates = 0u64;
    let pairs_start = std::time::Instant::now();
    let mut merge_scratch = MergeScratch::new();
    for (ai, &a) in nonempty.iter().enumerate() {
        for &b in &nonempty[ai + 1..] {
            let left: Vec<Spilled<D>> = load_spill(dir, a)?;
            let right: Vec<Spilled<D>> = load_spill(dir, b)?;
            peak_resident = peak_resident.max(left.len() + right.len());
            // Contiguous pair-local vertex ids: left then right.
            let globals: Vec<u32> = left.iter().chain(right.iter()).map(|&(g, _)| g).collect();
            let left_pts: Vec<Point<D>> = left.iter().map(|&(_, p)| p).collect();
            let right_pts: Vec<Point<D>> = right.iter().map(|&(_, p)| p).collect();
            let left_ids: Vec<u32> = (0..left.len() as u32).collect();
            let right_ids: Vec<u32> = (left.len() as u32..globals.len() as u32).collect();
            let shards = [
                MergeShard::build(space, &left_pts, &left_ids),
                MergeShard::build(space, &right_pts, &right_ids),
            ];
            let views = [shards[0].view(), shards[1].view()];
            let out = cross_shard_boruvka(
                space,
                &views,
                globals.len(),
                &[],
                counters,
                timings,
                None,
                None,
                &mut merge_scratch,
            )
            .expect("no deadline was set");
            merge_rounds += out.rounds;
            boundary_candidates += out.boundary_candidates;
            candidates.extend(
                out.edges
                    .iter()
                    .map(|e| Edge::new(globals[e.u as usize], globals[e.v as usize], e.weight_sq)),
            );
        }
    }
    timings.record("pairs", pairs_start.elapsed().as_secs_f64());

    // Pass 6: Kruskal over the candidate edges (edges resident, points not).
    let edges = timings.time("assemble", || {
        let g =
            emst_graph::WeightedGraph::new(n, candidates.iter().map(|e| (e.u, e.v, e.weight_sq)));
        emst_graph::kruskal(&g)
    });
    assert_eq!(edges.len(), n - 1, "candidate edges did not span the input");

    Ok(ShardedResult {
        total_weight: total_weight(&edges),
        edges,
        stats: ShardStats {
            shard_sizes,
            local_iterations,
            boundary_candidates,
            merge_rounds,
            // Per-round details are a per-merge concept; the streamed path
            // runs many independent pairwise merges, so it reports none.
            round_details: vec![],
            peak_resident,
            timings: std::mem::take(timings),
            work: local_work + counters.snapshot(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_core::edge::{verify_spanning_tree, weight_multiset};
    use emst_datasets::{save_csv, Kind};
    use emst_exec::Serial;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("emst-shard-stream-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn streamed_solve_matches_in_memory_solve_2d() {
        let pts = Kind::HaccLike.generate::<2>(900, 5);
        let path = tmp("ooc-2d.csv");
        save_csv(&path, &pts).unwrap();
        let mono = crate::emst_sharded(&pts, 1);
        for k in [1usize, 3, 8] {
            let cfg = StreamConfig::new(k, 400);
            let streamed = emst_sharded_csv::<_, 2>(&Serial, &path, &cfg).unwrap();
            verify_spanning_tree(pts.len(), &streamed.edges).unwrap();
            assert_eq!(weight_multiset(&streamed.edges), weight_multiset(&mono.edges), "k={k}");
            assert_eq!(streamed.stats.shard_sizes.iter().sum::<usize>(), pts.len());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_solve_matches_in_memory_solve_3d() {
        let pts = Kind::Normal.generate::<3>(700, 9);
        let path = tmp("ooc-3d.csv");
        save_csv(&path, &pts).unwrap();
        let mono = crate::emst_sharded(&pts, 1);
        let streamed =
            emst_sharded_csv::<_, 3>(&Serial, &path, &StreamConfig::new(5, 400)).unwrap();
        assert_eq!(weight_multiset(&streamed.edges), weight_multiset(&mono.edges));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn derived_shard_count_respects_residency_target() {
        let pts = Kind::Uniform.generate::<2>(1000, 3);
        let path = tmp("ooc-derived.csv");
        save_csv(&path, &pts).unwrap();
        // The 4096-point chunk must be clamped to the cap, or the chunk
        // alone would break the residency target.
        let cfg = StreamConfig::new(0, 250); // shards derived: ≥ 8
        let streamed = emst_sharded_csv::<_, 2>(&Serial, &path, &cfg).unwrap();
        assert!(streamed.stats.shard_sizes.len() >= 8);
        // Uniform data splits evenly, so the pair bound should hold.
        assert!(
            streamed.stats.peak_resident <= 2 * 250,
            "peak {} exceeds the target",
            streamed.stats.peak_resident
        );
        let mono = crate::emst_sharded(&pts, 1);
        assert_eq!(weight_multiset(&streamed.edges), weight_multiset(&mono.edges));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_and_missing_inputs() {
        let path = tmp("ooc-tiny.csv");
        std::fs::write(&path, "1.0,2.0\n").unwrap();
        let r = emst_sharded_csv::<_, 2>(&Serial, &path, &StreamConfig::new(4, 100)).unwrap();
        assert!(r.edges.is_empty());
        // The stats still say how many points were seen (1 here, 0 for an
        // empty file) so callers can distinguish the two.
        assert_eq!(r.stats.shard_sizes.iter().sum::<usize>(), 1);
        std::fs::write(&path, "").unwrap();
        let r = emst_sharded_csv::<_, 2>(&Serial, &path, &StreamConfig::new(4, 100)).unwrap();
        assert_eq!(r.stats.shard_sizes.iter().sum::<usize>(), 0);
        std::fs::remove_file(&path).ok();
        assert!(emst_sharded_csv::<_, 2>(
            &Serial,
            Path::new("/no/such/file.csv"),
            &StreamConfig::new(4, 100)
        )
        .is_err());
    }
}
