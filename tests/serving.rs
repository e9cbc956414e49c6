//! Cache-correctness tests of the serving layer: a warm answer must be
//! *bit-identical* to the cold one on every backend,
//! eviction/reload must not change a single bit, a mutated input must
//! never be served from a stale entry, and the PR 10 incremental
//! `insert`/`delete` path must match from-scratch oracles under
//! proptested mutation chains, concurrency, and deadline pressure.

use std::sync::Arc;
use std::time::Duration;

use emst::core::brute::brute_force_emst;
use emst::core::edge::{verify_spanning_tree, weight_multiset};
use emst::core::Edge;
use emst::datasets::Kind;
use emst::exec::{ExecSpace, GpuSim, Serial, Threads};
use emst::geometry::Point;
use emst::hdbscan::Hdbscan;
use emst::serve::{CacheOutcome, FaultPlan, ServeConfig, ServeEngine, ServeError};
use emst::shard::{emst_sharded_with, ShardConfig};
use proptest::prelude::*;

fn cloud(n: usize, seed: u64) -> Vec<Point<2>> {
    Kind::HaccLike.generate::<2>(n, seed)
}

fn check_warm_equals_cold<S: ExecSpace>(engine_space: S, anchor_space: &S) {
    let pts = cloud(600, 11);
    let engine = ServeEngine::<_, 2>::new(engine_space, ServeConfig::new(5, 2));

    let cold = engine.emst(&pts);
    assert_eq!(cold.outcome, CacheOutcome::Miss);
    assert!(cold.build_work.iterations > 0, "cold solve must run local Borůvka");
    verify_spanning_tree(pts.len(), &cold.edges).unwrap();

    // Exactness anchor: the one-shot sharded solve takes the identical
    // build + merge path, and the brute-force oracle pins the weights.
    let oneshot = emst_sharded_with(anchor_space, &pts, &ShardConfig::new(5));
    assert_eq!(cold.edges, oneshot.edges);
    assert_eq!(weight_multiset(&cold.edges), weight_multiset(&brute_force_emst(&pts)));

    for _ in 0..2 {
        let warm = engine.emst(&pts);
        assert_eq!(warm.outcome, CacheOutcome::Hit);
        // The local phase did not run: zero build work, no plan/local
        // wall-clock, and the query work is merge-only traversal stats
        // (cross-shard queries but zero Borůvka solve iterations).
        assert!(warm.build_work.is_zero());
        assert_eq!(warm.timings.get("plan"), 0.0);
        assert_eq!(warm.timings.get("local"), 0.0);
        assert!(warm.timings.get("merge") > 0.0);
        assert!(warm.query_work.queries > 0);
        assert_eq!(warm.query_work.iterations, 0);
        // Bit-identical edges: same endpoints, same weight bits, same order.
        assert_eq!(warm.edges, cold.edges);
    }
}

#[test]
fn warm_solve_is_bit_identical_on_every_backend_and_both_traversals() {
    check_warm_equals_cold(Serial, &Serial);
    check_warm_equals_cold(Threads, &Threads);
    check_warm_equals_cold(GpuSim::new(), &GpuSim::new());
}

#[test]
fn eviction_then_requery_is_still_exact() {
    let clouds: Vec<Vec<Point<2>>> = (0..3).map(|s| cloud(400, 20 + s)).collect();
    let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(4, 2));
    let first: Vec<_> = clouds.iter().map(|c| engine.emst(c)).collect();
    assert_eq!(engine.num_resident(), 2, "budget must hold");
    assert_eq!(engine.stats().evictions, 1);

    // Cloud 0 was evicted: by key it reloads from its spill file; by
    // points it re-ingests. Both must reproduce the original bits.
    let by_key = engine.emst_by_key(first[0].key).unwrap();
    assert_eq!(by_key.outcome, CacheOutcome::Reloaded);
    assert_eq!(by_key.edges, first[0].edges);

    // That reload evicted the then-LRU cloud 1; re-querying it with points
    // also stays exact.
    let again = engine.emst(&clouds[1]);
    assert_eq!(again.edges, first[1].edges);
    verify_spanning_tree(clouds[1].len(), &again.edges).unwrap();
}

#[test]
fn mutated_input_changes_the_digest_and_invalidates() {
    let pts = cloud(500, 33);
    let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(4, 4));
    let original = engine.emst(&pts);

    // Flip one coordinate by one ULP: the digest must differ and the
    // engine must miss (re-solve), never serve the stale tree.
    let mut mutated = pts.clone();
    mutated[123] = Point::new([f32::from_bits(pts[123][0].to_bits() ^ 1), pts[123][1]]);
    assert_ne!(engine.key(&pts), engine.key(&mutated));
    let fresh = engine.emst(&mutated);
    assert_eq!(fresh.outcome, CacheOutcome::Miss);
    assert_eq!(weight_multiset(&fresh.edges), weight_multiset(&brute_force_emst(&mutated)));
    assert_eq!(engine.num_resident(), 2);

    // The original cloud is still resident and still exact.
    let warm = engine.emst(&pts);
    assert_eq!(warm.outcome, CacheOutcome::Hit);
    assert_eq!(warm.edges, original.edges);
}

#[test]
fn shard_count_is_part_of_the_key() {
    let pts = cloud(300, 41);
    let e4 = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 2));
    let e7 = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(7, 2));
    assert_ne!(e4.key(&pts), e7.key(&pts));
    // Different partitions, same tree weights.
    let a = e4.emst(&pts);
    let b = e7.emst(&pts);
    assert_eq!(weight_multiset(&a.edges), weight_multiset(&b.edges));
}

#[test]
fn subset_queries_reuse_the_cache_and_match_brute_force() {
    let pts = cloud(500, 55);
    let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(6, 2));
    engine.ingest(&pts);

    for (lo, hi) in [(0u32, 500u32), (100, 400), (7, 9)] {
        let subset: Vec<u32> = (lo..hi).collect();
        let r = engine.emst_subset(&pts, &subset);
        assert_eq!(r.outcome, CacheOutcome::Hit);
        assert!(r.build_work.is_zero());
        assert_eq!(r.edges.len(), subset.len() - 1);
        let sub_pts: Vec<Point<2>> = subset.iter().map(|&i| pts[i as usize]).collect();
        let brute = brute_force_emst(&sub_pts);
        assert_eq!(weight_multiset(&r.edges), weight_multiset(&brute), "{lo}..{hi}");
        // Edges are reported in original indices within the subset.
        assert!(r.edges.iter().all(|e| subset.contains(&e.u) && subset.contains(&e.v)));
    }

    // The full-range "subset" equals the full solve edge-for-edge.
    let full = engine.emst(&pts);
    let full_subset = engine.emst_subset(&pts, &(0..500).collect::<Vec<_>>());
    assert_eq!(sorted(full_subset.edges), sorted(full.edges));
}

fn sorted(mut edges: Vec<Edge>) -> Vec<Edge> {
    edges.sort_by_key(Edge::key);
    edges
}

#[test]
fn knn_and_hdbscan_ride_the_resident_cloud() {
    let pts = cloud(400, 71);
    let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(4, 2));
    engine.ingest(&pts);

    // k-NN against the resident shards equals the brute-force answer.
    let q = Point::new([0.25f32, -0.125]);
    let r = engine.k_nearest(&pts, &q, 5);
    assert_eq!(r.outcome, CacheOutcome::Hit);
    assert!(r.query_work.node_visits > 0);
    let mut brute: Vec<(u32, f32)> =
        pts.iter().enumerate().map(|(i, p)| (i as u32, q.squared_distance(p))).collect();
    brute.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    brute.truncate(5);
    assert_eq!(r.neighbors, brute);

    // HDBSCAN through the engine (warm scratch) equals the direct fit.
    let params = Hdbscan { k_pts: 5, min_cluster_size: 10 };
    let served = engine.hdbscan(&pts, params);
    assert_eq!(served.outcome, CacheOutcome::Hit);
    let direct = params.fit(&Threads, &pts);
    assert_eq!(served.result.labels, direct.labels);
    assert_eq!(served.result.num_clusters, direct.num_clusters);
    let repeat = engine.hdbscan(&pts, params);
    assert_eq!(repeat.result.labels, direct.labels);
}

/// Tentpole property: N threads hammering one shared engine — mixed query
/// types, overlapping clouds, evictions forced by a tiny residency budget
/// — must produce answers bit-identical to a single-threaded engine, with
/// every resident read by many interleaved queries at once.
#[test]
fn concurrent_mixed_queries_are_bit_identical_to_single_threaded() {
    let clouds: Vec<Vec<Point<2>>> = (0..3).map(|s| cloud(350, 80 + s)).collect();
    let subset: Vec<u32> = (50..300).collect();
    let probe = Point::new([0.1f32, 0.2]);
    let params = Hdbscan { k_pts: 4, min_cluster_size: 8 };

    // Reference answers from a single-threaded engine with the same tiny
    // budget (so its cache churns the same way), each cloud queried twice
    // so the warm merge path is exercised there too.
    let single = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 2));
    let reference: Vec<_> = clouds
        .iter()
        .map(|c| {
            let full = single.emst(c);
            assert_eq!(single.emst(c).edges, full.edges, "single-thread warm must be stable");
            let sub = single.emst_subset(c, &subset);
            let knn = single.k_nearest(c, &probe, 7);
            let hdb = single.hdbscan(c, params);
            (full.edges, full.total_weight, sub.edges, knn.neighbors, hdb.result.labels)
        })
        .collect();

    let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 2));
    let (threads, rounds) = (8usize, 6usize);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (engine, clouds, reference, subset, probe) =
                (&engine, &clouds, &reference, &subset, &probe);
            s.spawn(move || {
                for r in 0..rounds {
                    let ci = (t + r) % clouds.len();
                    let c = &clouds[ci];
                    let (edges, weight, sub, knn, labels) = &reference[ci];
                    match (t + r) % 4 {
                        0 => {
                            let q = engine.emst(c);
                            assert_eq!(&q.edges, edges, "thread {t} round {r} cloud {ci}");
                            assert_eq!(q.total_weight, *weight);
                        }
                        1 => assert_eq!(&engine.emst_subset(c, subset).edges, sub),
                        2 => assert_eq!(&engine.k_nearest(c, probe, 7).neighbors, knn),
                        _ => assert_eq!(&engine.hdbscan(c, params).result.labels, labels),
                    }
                }
            });
        }
    });

    // Every request terminated with exactly one cache outcome, the budget
    // held, and churn actually happened (3 clouds over 2 slots).
    let stats = engine.stats();
    assert_eq!(stats.hits + stats.misses + stats.reloads, (threads * rounds) as u64);
    assert!(engine.num_resident() <= 2);
    assert!(stats.evictions > 0, "tiny budget must force evictions");
    assert_eq!(stats.spill_failures, 0);

    // After all the churn, fresh queries still reproduce the exact bits —
    // residents are immutable, so no interleaving can change an answer.
    for (ci, c) in clouds.iter().enumerate() {
        assert_eq!(engine.emst(c).edges, reference[ci].0);
    }

    // The whole hammering ran with instrumentation live (observability
    // defaults on): the per-op histograms saw every request and the trace
    // ring holds the most recent queries — proving the metrics path is
    // concurrency-safe without perturbing a single answered bit.
    assert!(engine.observability_enabled());
    let prom = engine.metrics_prometheus();
    let count_of = |op: &str| -> u64 {
        let needle = format!("emst_serve_op_seconds_count{{op=\"{op}\"}} ");
        let at = prom.find(&needle).unwrap_or_else(|| panic!("missing {needle} in {prom}"));
        prom[at + needle.len()..].split_whitespace().next().unwrap().parse().unwrap()
    };
    // 3 extra emst queries came from the re-check loop above.
    let total = count_of("emst") + count_of("subset") + count_of("knn") + count_of("hdbscan");
    assert_eq!(total, (threads * rounds) as u64 + 3);
    assert!(prom.contains("emst_serve_cache_events_total{event=\"eviction\"}"));
    let traces = engine.recent_traces(16);
    assert_eq!(traces.len(), 16, "ring must retain the most recent queries");
    assert!(traces.windows(2).all(|w| w[0].seq > w[1].seq), "traces must be newest-first");
}

/// Warm queries carry a full span breakdown — digest and per-round merge
/// deltas from the shard layer's `MergeRoundDetail` — so each query's
/// trace shows where its time went.
#[test]
fn warm_query_traces_expose_merge_round_spans() {
    let pts = cloud(500, 97);
    let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(4, 2));
    engine.ingest(&pts);
    engine.emst(&pts);
    let trace = engine.recent_traces(1).pop().expect("trace recorded");
    assert_eq!(trace.op, "emst");
    assert_eq!(trace.outcome, "hit");
    assert!(trace.total_s > 0.0);
    let span = |name: &str| {
        trace
            .spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing span {name:?} in {:?}", trace.spans))
    };
    assert!(span("digest").fields.iter().any(|&(k, v)| k == "points" && v == 500));
    let round = span("merge.round");
    for key in ["round", "queries", "nodes", "distances"] {
        assert!(round.fields.iter().any(|&(k, _)| k == key), "merge.round misses {key}");
    }
    assert!(round.fields.iter().any(|&(k, v)| k == "round" && v == 1));
    // A cold query on a fresh engine additionally records the build span.
    let fresh = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(4, 2));
    fresh.emst(&pts);
    let cold = fresh.recent_traces(1).pop().unwrap();
    assert_eq!(cold.outcome, "miss");
    assert!(cold.spans.iter().any(|s| s.name == "build"));
}

/// One insert-then-delete mutation chain through the incremental engine,
/// checked against from-scratch oracles at every step: the delta-solved
/// tree's weight multiset must equal the brute-force EMST of the mutated
/// cloud, and deleting exactly the inserted points must round-trip to the
/// parent's own key and tree.
fn check_mutation_chain<S: ExecSpace>(space: S, kind: Kind, n: usize, seed: u64) {
    let base: Vec<Point<2>> = kind.generate(n, seed);
    let engine = ServeEngine::<_, 2>::new(space, ServeConfig::new(4, 8));
    let key = engine.ingest(&base);
    let base_tree = weight_multiset(&engine.emst_by_key(key).unwrap().edges);

    // Jittered copies of existing members land in occupied shards; the
    // offset point may extend the Morton range of the last shard.
    let mut added: Vec<Point<2>> = base
        .iter()
        .step_by(n / 4)
        .take(3)
        .map(|p| Point::new([p[0] + 3e-4, p[1] - 2e-4]))
        .collect();
    added.push(Point::new([base[0][0] + 0.37, base[0][1] + 0.11]));
    let ins = engine.insert(key, &added).unwrap();
    assert_eq!(ins.n, n + added.len());
    verify_spanning_tree(ins.n, &ins.update.edges).unwrap();
    assert_eq!(
        weight_multiset(&ins.update.edges),
        weight_multiset(&brute_force_emst(&ins.points)),
        "insert diverged (kind {kind:?}, n {n}, seed {seed})"
    );

    // Delete a spread of ids from the mutated cloud.
    let ids = [0u32, (ins.n / 2) as u32, (ins.n - 1) as u32];
    let del = engine.delete(ins.key, &ids).unwrap();
    assert_eq!(del.n, ins.n - ids.len());
    verify_spanning_tree(del.n, &del.update.edges).unwrap();
    assert_eq!(
        weight_multiset(&del.update.edges),
        weight_multiset(&brute_force_emst(&del.points)),
        "delete diverged (kind {kind:?}, n {n}, seed {seed})"
    );

    // Round trip: deleting exactly the appended ids restores the parent
    // cloud bit-for-bit, so the content digest resolves straight back to
    // the original resident and the tree is the original tree.
    let appended: Vec<u32> = (n as u32..ins.n as u32).collect();
    let back = engine.delete(ins.key, &appended).unwrap();
    assert_eq!(back.key, key, "insert-then-delete must round-trip to the parent key");
    assert_eq!(weight_multiset(&back.update.edges), base_tree);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random mutation chains across dataset generators and the
    /// Serial/Threads backends all match from-scratch oracles.
    #[test]
    fn mutation_chains_match_from_scratch_oracles(
        seed in 0u64..512,
        kind_idx in 0usize..4,
        n in 60usize..140,
    ) {
        let kind = [Kind::Uniform, Kind::Normal, Kind::HaccLike, Kind::VisualVar][kind_idx];
        check_mutation_chain(Serial, kind, n, seed);
        check_mutation_chain(Threads, kind, n, seed);
    }
}

/// Satellite: 8 threads concurrently mutating and querying one shared
/// engine, each on its own cloud lineage. Mutations of disjoint lineages
/// commute, so every thread's replies must be bit-identical to the same
/// chain replayed on a private single-threaded engine — that replay is a
/// legal serialization of any interleaving.
#[test]
fn concurrent_mutations_and_queries_are_bit_identical_to_serial_replays() {
    const THREADS: usize = 8;
    fn chain<S: ExecSpace>(
        engine: &ServeEngine<S, 2>,
        base: &[Point<2>],
    ) -> (Vec<Edge>, Vec<Edge>, Vec<Edge>) {
        let key = engine.ingest(base);
        let added: Vec<Point<2>> =
            base[..5].iter().map(|p| Point::new([p[0] + 1e-3, p[1] + 2e-3])).collect();
        let ins = engine.insert(key, &added).unwrap();
        let warm = engine.emst(&ins.points);
        let appended: Vec<u32> = (base.len() as u32..ins.n as u32).collect();
        let back = engine.delete(ins.key, &appended).unwrap();
        assert_eq!(back.key, key, "delete of the inserted ids must round-trip");
        (ins.update.edges, warm.edges, back.update.edges)
    }

    let bases: Vec<Vec<Point<2>>> = (0..THREADS).map(|t| cloud(260, 900 + t as u64)).collect();
    let expected: Vec<_> = bases
        .iter()
        .map(|b| chain(&ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 32)), b))
        .collect();

    let shared = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 32));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (shared, bases, expected) = (&shared, &bases, &expected);
            s.spawn(move || {
                let got = chain(shared, &bases[t]);
                assert_eq!(got, expected[t], "thread {t} diverged from its serial replay");
            });
        }
    });
    let stats = shared.stats();
    assert_eq!(stats.inserts, THREADS as u64);
    assert_eq!(stats.deletes, THREADS as u64);
    assert_eq!(stats.query_panics, 0);
    assert_eq!(stats.deadline_exceeded, 0);
}

/// Satellite: deadline propagation into the incremental local-solve. A
/// fault-plan stall on spill reads makes reloading the evicted parent
/// consume the whole deadline budget, so the dirty-shard re-solve must
/// give up at its deadline seam with the honest typed error instead of a
/// late answer — and count it.
#[test]
fn stalled_incremental_update_honors_the_deadline() {
    let dir = std::env::temp_dir().join(format!("emst_pr10_stall_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = ServeConfig::new(4, 1);
    cfg.spill_dir = Some(dir.clone());
    cfg.deadline = Some(Duration::from_millis(40));
    cfg.fault_plan = Some(Arc::new(FaultPlan::parse("seed=7;read=stall:120@1.0").unwrap()));
    let engine = ServeEngine::<_, 2>::new(Serial, cfg);
    let a = cloud(300, 1);
    let b = cloud(300, 2);
    let key = engine.ingest(&a);
    engine.ingest(&b); // capacity 1: evicts cloud A to its spill file
    assert_eq!(engine.num_resident(), 1);

    let before = engine.stats().deadline_exceeded;
    match engine.insert(key, &[Point::new([0.5f32, 0.5])]) {
        Err(ServeError::DeadlineExceeded(k)) => assert_eq!(k, key),
        other => panic!("stalled update must exceed its deadline, got {other:?}"),
    }
    assert!(engine.stats().deadline_exceeded > before, "the miss must be counted");
    std::fs::remove_dir_all(&dir).ok();
}
