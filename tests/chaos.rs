//! Seeded chaos stress: many threads hammer one serving engine while a
//! deterministic [`FaultPlan`] injects storage failures (EIO, short
//! writes, bit flips, stalls) into every spill write and reload read.
//!
//! The robustness contract under test: **every answer is either
//! bit-identical to the fault-free reference or an honest typed error** —
//! never silently wrong edges, never a panic, never a wedged engine.
//!
//! The seed comes from `EMST_CHAOS_SEED` (default 42) so CI can sweep a
//! matrix and a failure reproduces from the seed alone.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use emst::datasets::Kind;
use emst::exec::Serial;
use emst::geometry::Point;
use emst::hdbscan::Hdbscan;
use emst::serve::{FaultKind, FaultPlan, FaultSite, ServeConfig, ServeEngine, ServeError};

fn chaos_seed() -> u64 {
    std::env::var("EMST_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

fn cloud(n: usize, seed: u64) -> Vec<Point<2>> {
    Kind::HaccLike.generate::<2>(n, seed)
}

/// An error is "honest" when it names a detected failure; anything else
/// (or a wrong answer) is a contract violation.
fn is_honest(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::UnknownKey(_)
            | ServeError::Spill(_)
            | ServeError::DigestMismatch(_)
            | ServeError::DeadlineExceeded(_)
            | ServeError::Overloaded
            | ServeError::QueryPanic(_)
    )
}

/// Storage chaos: injected write/read faults while 8 threads run mixed
/// positional and by-key queries over more clouds than the residency
/// budget holds, so eviction→spill→reload churn passes through the fault
/// plan constantly.
#[test]
fn storage_faults_never_produce_wrong_bits() {
    let seed = chaos_seed();
    let clouds: Vec<Vec<Point<2>>> = (0..3).map(|s| cloud(350, 100 + s)).collect();
    let subset: Vec<u32> = (40..310).collect();
    let probe = Point::new([0.3f32, -0.2]);
    let params = Hdbscan { k_pts: 4, min_cluster_size: 8 };

    // Fault-free reference bits, from an engine with the same shard count.
    let clean = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 3));
    let reference: Vec<_> = clouds
        .iter()
        .map(|c| {
            (
                clean.emst(c).edges,
                clean.emst_subset(c, &subset).edges,
                clean.k_nearest(c, &probe, 7).neighbors,
                clean.hdbscan(c, params).result.labels,
            )
        })
        .collect();

    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_rule(FaultSite::Write, FaultKind::Eio, 0.10)
            .with_rule(FaultSite::Write, FaultKind::ShortWrite, 0.10)
            .with_rule(FaultSite::Write, FaultKind::BitFlip, 0.10)
            .with_rule(FaultSite::Write, FaultKind::Stall(1), 0.05)
            .with_rule(FaultSite::Read, FaultKind::BitFlip, 0.20)
            .with_rule(FaultSite::Read, FaultKind::Eio, 0.10),
    );
    let mut cfg = ServeConfig::new(4, 2); // 3 clouds over 2 slots: constant churn
    cfg.fault_plan = Some(Arc::clone(&plan));
    cfg.spill_retries = 1;
    let engine = ServeEngine::<_, 2>::new(Serial, cfg);
    let keys: Vec<_> = clouds.iter().map(|c| engine.key(c)).collect();

    // Single-threaded passes until the plan has fired, so the vacuity
    // check below never rests on how the threads interleave. Each pass
    // admits every cloud positionally (evicting and spilling through the
    // plan) and then reloads by key cloud 0, which the third admission
    // evicted. Positional answers must be exact; the reload may err
    // honestly.
    for pass in 0..16 {
        for (ci, c) in clouds.iter().enumerate() {
            assert_eq!(engine.emst(c).edges, reference[ci].0, "pass {pass} cloud {ci}");
        }
        match engine.emst_by_key(keys[0]) {
            Ok(resp) => assert_eq!(resp.edges, reference[0].0, "pass {pass} cloud 0 by key"),
            Err(e) => assert!(is_honest(&e), "dishonest error in pass {pass}: {e}"),
        }
        if plan.injected() > 0 {
            break;
        }
    }

    let honest_errors = AtomicU64::new(0);
    let answers = AtomicU64::new(0);
    let (threads, rounds) = (8usize, 8usize);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (engine, clouds, keys, reference, subset, probe) =
                (&engine, &clouds, &keys, &reference, &subset, &probe);
            let (honest_errors, answers) = (&honest_errors, &answers);
            s.spawn(move || {
                for r in 0..rounds {
                    let ci = (t + r) % clouds.len();
                    let c = &clouds[ci];
                    let (edges, sub, knn, labels) = &reference[ci];
                    // Positional queries rebuild from the presented points
                    // on any storage failure, so they must *always* answer
                    // with the reference bits; by-key queries may hit a
                    // poisoned spill and are allowed an honest error.
                    let outcome: Result<(), ServeError> = match (t + r) % 5 {
                        0 => {
                            assert_eq!(&engine.emst(c).edges, edges, "t{t} r{r} cloud {ci}");
                            Ok(())
                        }
                        1 => engine.emst_by_key(keys[ci]).map(|resp| {
                            assert_eq!(&resp.edges, edges, "t{t} r{r} cloud {ci} by key");
                        }),
                        2 => engine.emst_subset_by_key(keys[ci], subset).map(|resp| {
                            assert_eq!(&resp.edges, sub, "t{t} r{r} cloud {ci} subset");
                        }),
                        3 => engine.k_nearest_by_key(keys[ci], probe, 7).map(|resp| {
                            assert_eq!(&resp.neighbors, knn, "t{t} r{r} cloud {ci} knn");
                        }),
                        _ => engine.hdbscan_by_key(keys[ci], params).map(|resp| {
                            assert_eq!(&resp.result.labels, labels, "t{t} r{r} cloud {ci} hdbscan");
                        }),
                    };
                    match outcome {
                        Ok(()) => {
                            answers.fetch_add(1, Relaxed);
                        }
                        Err(e) => {
                            assert!(is_honest(&e), "dishonest error at t{t} r{r}: {e}");
                            honest_errors.fetch_add(1, Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Every request terminated, one way or the other.
    assert_eq!(
        answers.load(Relaxed) + honest_errors.load(Relaxed),
        (threads * rounds) as u64,
        "no request may vanish"
    );
    assert!(plan.injected() > 0, "the chaos plan never fired — the test is vacuous");
    let stats = engine.stats();
    assert_eq!(
        stats.artifact_restores + stats.artifact_rebuilds,
        stats.reloads,
        "every reload is exactly one restore or one rebuild: {stats:?}"
    );
    assert!(stats.evictions > 0, "3 clouds over 2 slots must churn");

    // The engine is not wedged: with faults still active, positional
    // queries keep reproducing the exact reference bits.
    for (ci, c) in clouds.iter().enumerate() {
        assert_eq!(engine.emst(c).edges, reference[ci].0, "post-chaos cloud {ci}");
    }
}

/// Pressure chaos: admission control and zero deadlines on top of storage
/// faults. Guarded queries must split cleanly into exact answers and
/// honest `DeadlineExceeded`/`Overloaded`/storage errors, the in-flight
/// gate must drain back to zero, and unguarded positional queries must
/// stay exact throughout.
#[test]
fn pressure_and_deadlines_shed_honestly() {
    let seed = chaos_seed().wrapping_add(1);
    let pts = cloud(400, 200);
    let reference = {
        let clean = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 2));
        clean.emst(&pts).edges
    };

    let plan =
        Arc::new(FaultPlan::new(seed).with_rule(FaultSite::Write, FaultKind::Eio, 0.15).with_rule(
            FaultSite::Read,
            FaultKind::BitFlip,
            0.15,
        ));
    let mut cfg = ServeConfig::new(4, 2);
    cfg.fault_plan = Some(plan);
    cfg.max_in_flight = 4; // half the hammering threads
    cfg.deadline = Some(Duration::ZERO); // every guarded merge is late
    let engine = ServeEngine::<_, 2>::new(Serial, cfg);
    let key = engine.ingest(&pts);

    let exact = AtomicU64::new(0);
    let honest = AtomicU64::new(0);
    let threads = 8usize;
    let rounds = 6usize;
    std::thread::scope(|s| {
        for t in 0..threads {
            let (engine, pts, reference) = (&engine, &pts, &reference);
            let (exact, honest) = (&exact, &honest);
            s.spawn(move || {
                for r in 0..rounds {
                    if (t + r) % 2 == 0 {
                        // Unguarded positional query: no deadline, no gate —
                        // must answer exactly even under storage faults.
                        assert_eq!(&engine.emst(pts).edges, reference, "t{t} r{r}");
                        exact.fetch_add(1, Relaxed);
                    } else {
                        match engine.emst_by_key(key) {
                            Ok(resp) => {
                                assert_eq!(&resp.edges, reference, "t{t} r{r} guarded");
                                exact.fetch_add(1, Relaxed);
                            }
                            Err(e) => {
                                assert!(is_honest(&e), "dishonest error at t{t} r{r}: {e}");
                                honest.fetch_add(1, Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });

    assert_eq!(exact.load(Relaxed) + honest.load(Relaxed), (threads * rounds) as u64);
    let stats = engine.stats();
    // A zero deadline means a guarded query that reaches its merge always
    // errs, so every guarded request landed in an honest bucket (either
    // shed at the gate, failed reload, or the deadline itself).
    assert_eq!(honest.load(Relaxed), (threads * rounds / 2) as u64);
    assert!(stats.deadline_exceeded > 0, "the deadline must actually fire: {stats:?}");
    // The gate drained: a fresh guarded query is admitted (and then honest).
    match engine.emst_by_key(key) {
        Err(ServeError::Overloaded) => panic!("in-flight tokens leaked"),
        Err(e) => assert!(is_honest(&e), "{e}"),
        Ok(resp) => assert_eq!(resp.edges, reference),
    }
}

/// Network chaos: the same contract holds over the wire. Storage faults
/// on spill write/read and ingest EIO/stalls, plus clients that write
/// byte-by-byte or vanish mid-response — every reply line is either
/// byte-identical to the fault-free in-process oracle (modulo the
/// legitimate `cache=` outcome) or one honest `err …` line, and the
/// server is never wedged for the clients that stay.
#[test]
fn network_chaos_keeps_replies_exact_or_honest() {
    use emst::serve::net::respond;
    use emst::serve::{NetConfig, NetSession, ServeServer};
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::TcpStream;

    let seed = chaos_seed().wrapping_add(2);
    let dir = std::env::temp_dir().join(format!("emst_net_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clouds: Vec<Vec<Point<2>>> = (0..3u64).map(|s| cloud(300, 400 + s)).collect();
    // `save_csv` round-trips bits exactly, so the CSV a client `load`s is
    // the same cloud the oracle answers for.
    let paths: Vec<String> = clouds
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let p = dir.join(format!("cloud{i}.csv"));
            emst::datasets::save_csv(&p, c).unwrap();
            p.display().to_string()
        })
        .collect();

    // Fault-free oracle replies per cloud: the `load` line plus every
    // query, with the `cache=` token stripped (a reply may legitimately
    // be a hit on one engine and a miss/reload on the other).
    let queries = ["emst", "subset 20..200", "knn 5 0.25 -0.1", "hdbscan 4 8"];
    let strip_cache = |reply: &str| -> String {
        reply.split_whitespace().filter(|t| !t.starts_with("cache=")).collect::<Vec<_>>().join(" ")
    };
    let clean = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(4, 3));
    let reference: Vec<Vec<String>> = paths
        .iter()
        .map(|p| {
            let mut s = NetSession::new(Arc::new(clouds[0].clone()));
            let mut replies = vec![respond(&clean, &mut s, &format!("load {p}")).text];
            replies.extend(queries.iter().map(|q| respond(&clean, &mut s, q).text));
            replies.iter().map(|r| strip_cache(r.trim_end())).collect()
        })
        .collect();

    // The chaos server: 3 clouds over 2 residency slots (spill churn) with
    // faults on spill storage and on ingest reads. No ingest BitFlip: a
    // flipped CSV digit would be a *different valid cloud*, which the
    // digest in the `load` reply exposes but this exact-bytes harness
    // does not model.
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_rule(FaultSite::Write, FaultKind::Eio, 0.12)
            .with_rule(FaultSite::Write, FaultKind::ShortWrite, 0.10)
            .with_rule(FaultSite::Read, FaultKind::BitFlip, 0.15)
            .with_rule(FaultSite::IngestRead, FaultKind::Eio, 0.25)
            .with_rule(FaultSite::IngestRead, FaultKind::Stall(1), 0.10),
    );
    let mut cfg = ServeConfig::new(4, 2);
    cfg.fault_plan = Some(Arc::clone(&plan));
    cfg.spill_retries = 1;
    let engine = Arc::new(ServeEngine::<_, 2>::new(Serial, cfg));
    let initial = Arc::new(clouds[0].clone());
    engine.ingest(&initial);
    let server = ServeServer::bind(
        Arc::clone(&engine),
        Arc::clone(&initial),
        "127.0.0.1:0",
        NetConfig { workers: 6, max_pending: 32 },
    )
    .unwrap();
    let addr = server.local_addr();

    let connect = || {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
        s
    };
    // Writes a line either in one shot or byte-by-byte (a slow client).
    let send = |stream: &mut TcpStream, line: &str, slow: bool| {
        let bytes = format!("{line}\n");
        if slow {
            for b in bytes.as_bytes() {
                stream.write_all(std::slice::from_ref(b)).unwrap();
            }
        } else {
            stream.write_all(bytes.as_bytes()).unwrap();
        }
    };

    let answered = AtomicU64::new(0);
    let honest_errs = AtomicU64::new(0);
    let (threads, rounds) = (6usize, 6usize);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (paths, reference, engine) = (&paths, &reference, &engine);
            let (answered, honest_errs, connect, send) = (&answered, &honest_errs, &connect, &send);
            s.spawn(move || {
                // Deterministic per-thread LCG driving slow/drop behavior.
                let mut rng = seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1));
                let mut next = move || {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    rng >> 33
                };
                let mut conn = BufReader::new(connect());
                let mut current = 0usize; // sessions start on clouds[0]
                let read_reply = |conn: &mut BufReader<TcpStream>| -> String {
                    let mut line = String::new();
                    conn.read_line(&mut line).unwrap();
                    assert!(!line.is_empty(), "t{t}: server closed unexpectedly");
                    line.trim_end().to_string()
                };
                for r in 0..rounds {
                    let ci = (t + r) % paths.len();
                    send(conn.get_mut(), &format!("load {}", paths[ci]), next() % 4 == 0);
                    let reply = read_reply(&mut conn);
                    if strip_cache(&reply) == reference[ci][0] {
                        current = ci;
                        answered.fetch_add(1, Relaxed);
                    } else {
                        assert!(
                            reply.starts_with("err ") && !reply.contains("internal error"),
                            "t{t} r{r}: load answered wrong bits: {reply:?}"
                        );
                        honest_errs.fetch_add(1, Relaxed);
                    }
                    for qi in 0..2 {
                        let q = queries[(t + r + qi) % queries.len()];
                        if next() % 5 == 0 {
                            // Vanish mid-response: ask, drop without
                            // reading, reconnect. The fresh session is
                            // back on the initial cloud.
                            send(conn.get_mut(), q, false);
                            conn = BufReader::new(connect());
                            current = 0;
                            continue;
                        }
                        send(conn.get_mut(), q, next() % 4 == 0);
                        let reply = read_reply(&mut conn);
                        if strip_cache(&reply)
                            == reference[current][1 + (t + r + qi) % queries.len()]
                        {
                            answered.fetch_add(1, Relaxed);
                        } else {
                            assert!(
                                reply.starts_with("err ") && !reply.contains("internal error"),
                                "t{t} r{r}: query {q:?} answered wrong bits: {reply:?}"
                            );
                            honest_errs.fetch_add(1, Relaxed);
                        }
                    }
                }
                let _ = engine; // keep the borrow shape uniform
            });
        }
    });

    assert!(plan.injected() > 0, "the chaos plan never fired — the test is vacuous");
    assert!(answered.load(Relaxed) > 0, "some requests must answer exactly");
    // The server is not wedged: a fresh client still gets exact bytes for
    // every cloud, with faults still active (retrying past injected EIOs).
    let mut conn = BufReader::new(connect());
    for (ci, p) in paths.iter().enumerate() {
        for attempt in 0..20 {
            send(conn.get_mut(), &format!("load {p}"), false);
            let mut reply = String::new();
            conn.read_line(&mut reply).unwrap();
            if strip_cache(reply.trim_end()) == reference[ci][0] {
                break;
            }
            assert!(reply.starts_with("err "), "cloud {ci}: {reply:?}");
            assert!(attempt < 19, "cloud {ci}: ingest never succeeded post-chaos");
        }
        send(conn.get_mut(), "emst", false);
        let mut reply = String::new();
        conn.read_line(&mut reply).unwrap();
        assert_eq!(strip_cache(reply.trim_end()), reference[ci][1], "post-chaos cloud {ci}");
    }
    send(conn.get_mut(), "quit", false);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
