//! Network serving integration: raw TCP clients against [`ServeServer`],
//! with every reply proven bit-identical to the in-process
//! [`respond`] oracle — the same function the socket path runs, executed
//! directly against a [`ServeEngine`] with the same configuration.
//!
//! Covers the PR 9 acceptance criteria: ≥ 8 concurrent clients with
//! byte-exact replies, a same-key coalescing storm with
//! `query_coalesced > 0`, deterministic overload shedding, graceful
//! shutdown draining in-flight requests, and protocol robustness under
//! junk bytes, split writes, oversized lines and mid-response
//! disconnects (property-tested with proptest).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use emst::datasets::Kind;
use emst::exec::Serial;
use emst::geometry::Point;
use emst::serve::net::{respond, MAX_LINE_BYTES};
use emst::serve::{NetConfig, NetSession, ServeConfig, ServeEngine, ServeServer};
use proptest::prelude::*;

type Engine = ServeEngine<Serial, 2>;
type Server = ServeServer<Serial, 2>;

fn cloud(n: usize, seed: u64) -> Arc<Vec<Point<2>>> {
    Arc::new(Kind::Uniform.generate::<2>(n, seed))
}

/// A fresh engine with the cloud ingested — the same construction for the
/// served engine and the in-process oracle, so their bits must agree.
fn engine(pts: &Arc<Vec<Point<2>>>) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(Serial, ServeConfig::new(4, 2)));
    engine.ingest(pts);
    engine
}

fn server(pts: &Arc<Vec<Point<2>>>, net: NetConfig) -> Server {
    ServeServer::bind(engine(pts), Arc::clone(pts), "127.0.0.1:0", net).unwrap()
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    // A wedged server fails the test with a timeout error, not a hang.
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
}

/// Runs `lines` through the in-process protocol function and returns the
/// concatenated wire bytes a TCP client must receive for the same lines.
fn oracle_replies(engine: &Engine, pts: &Arc<Vec<Point<2>>>, lines: &[&str]) -> String {
    let mut session = NetSession::new(Arc::clone(pts));
    lines.iter().map(|l| respond(engine, &mut session, l).text).collect()
}

/// The one field coalescing legitimately shares: a follower may see the
/// leader's `cache=miss`. Everything else must be byte-identical.
fn strip_cache_token(reply: &str) -> String {
    reply.split_whitespace().filter(|t| !t.starts_with("cache=")).collect::<Vec<_>>().join(" ")
}

/// ≥ 8 concurrent raw-TCP clients each run the full verb script and every
/// byte on the wire matches a *separate* in-process engine with the same
/// configuration — the bit-identity proof for the network layer.
#[test]
fn concurrent_clients_match_the_in_process_oracle_bit_for_bit() {
    let pts = cloud(400, 11);
    let server = server(&pts, NetConfig { workers: 8, max_pending: 64 });
    const SCRIPT: [&str; 6] =
        ["ping", "emst", "subset 10..50", "knn 3 0.5 0.5", "hdbscan 4 8", "quit"];

    // Warm both engines with one in-process pass so every concurrent
    // request is a `cache=hit` with stable bytes, then take the expected
    // bytes from the oracle engine.
    let _ = oracle_replies(server.engine(), &pts, &SCRIPT[..5]);
    let oracle = engine(&pts);
    let _ = oracle_replies(&oracle, &pts, &SCRIPT[..5]);
    let expected = oracle_replies(&oracle, &pts, &SCRIPT);
    assert!(expected.contains("ok emst cache=hit "), "warm-up failed: {expected}");

    let request = SCRIPT.join("\n") + "\n";
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..10)
            .map(|_| {
                let (server, request) = (&server, request.as_str());
                s.spawn(move || {
                    let mut c = connect(server);
                    c.write_all(request.as_bytes()).unwrap();
                    let mut got = String::new();
                    c.read_to_string(&mut got).unwrap(); // `quit` closes
                    got
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), expected, "client {i} diverged from the oracle");
        }
    });
}

/// A storm of identical cold requests: one execution serves the flight,
/// the rest coalesce (`query_coalesced > 0`) and receive identical bytes
/// which also match the in-process oracle (modulo the `cache=` outcome a
/// straggler that missed the flight window may see differently).
#[test]
fn same_key_storm_coalesces_and_all_clients_get_identical_bytes() {
    let pts = Arc::new(Kind::HaccLike.generate::<2>(4000, 3));
    let server = server(&pts, NetConfig { workers: 12, max_pending: 64 });
    assert_eq!(server.engine().stats().query_coalesced, 0);

    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let server = &server;
                s.spawn(move || {
                    let mut c = connect(server);
                    c.write_all(b"hdbscan 4 8\nquit\n").unwrap();
                    let mut got = String::new();
                    c.read_to_string(&mut got).unwrap();
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let canon: Vec<String> = replies.iter().map(|r| strip_cache_token(r)).collect();
    for (i, c) in canon.iter().enumerate() {
        assert_eq!(c, &canon[0], "client {i} got different payload bytes: {:?}", replies[i]);
        assert!(replies[i].starts_with("ok hdbscan cache="), "{:?}", replies[i]);
    }
    let oracle = engine(&pts);
    let expected = oracle_replies(&oracle, &pts, &["hdbscan 4 8", "quit"]);
    assert_eq!(canon[0], strip_cache_token(&expected), "wire diverged from the oracle");

    let coalesced = server.engine().stats().query_coalesced;
    assert!(coalesced > 0, "a 12-client same-key storm must coalesce");
}

/// Admission control is deterministic: with one busy worker and one queue
/// slot taken, the next connection gets exactly one honest line and is
/// closed — never a hang.
#[test]
fn over_capacity_connections_get_an_honest_overloaded_line() {
    let pts = cloud(300, 5);
    let server = server(&pts, NetConfig { workers: 1, max_pending: 1 });

    // c0: a full ping round-trip proves the single worker now owns it.
    let mut c0 = connect(&server);
    c0.write_all(b"ping\n").unwrap();
    let mut r0 = BufReader::new(c0.try_clone().unwrap());
    let mut line = String::new();
    r0.read_line(&mut line).unwrap();
    assert_eq!(line, "ok pong\n");

    // c1: accepted and queued (the worker is still busy with c0).
    let _c1 = connect(&server);
    std::thread::sleep(Duration::from_millis(100));

    // c2: over capacity — one honest line, then EOF.
    let mut c2 = connect(&server);
    let mut shed = String::new();
    c2.read_to_string(&mut shed).unwrap();
    assert_eq!(shed, "err overloaded: 1 connections already pending\n");

    // The connection that was admitted is still perfectly healthy.
    c0.write_all(b"ping\nquit\n").unwrap();
    let mut rest = String::new();
    r0.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "ok pong\nok bye\n");
}

/// Graceful shutdown: the in-flight request finishes and flushes its full
/// reply, the served connection then learns about the shutdown, and a
/// queued-but-unstarted connection gets the honest line instead of a hang.
#[test]
fn graceful_shutdown_drains_in_flight_and_answers_queued_connections() {
    let pts = Arc::new(Kind::HaccLike.generate::<2>(3000, 9));
    let server = server(&pts, NetConfig { workers: 1, max_pending: 4 });

    let mut c0 = connect(&server);
    c0.write_all(b"ping\n").unwrap();
    let mut r0 = BufReader::new(c0.try_clone().unwrap());
    let mut line = String::new();
    r0.read_line(&mut line).unwrap();
    assert_eq!(line, "ok pong\n");
    let mut c1 = connect(&server); // queued behind c0

    // Kick off a cold (slow) query, then shut down while it runs.
    c0.write_all(b"emst\n").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown(); // joins every thread: replies are flushed on return

    let mut rest = String::new();
    r0.read_to_string(&mut rest).unwrap();
    let mut lines = rest.lines();
    let first = lines.next().unwrap();
    assert!(first.starts_with("ok emst cache="), "in-flight request must drain: {rest:?}");
    assert!(first.contains(" check="), "{first}");
    assert_eq!(lines.next(), Some("err shutting down"));
    assert_eq!(lines.next(), None);

    let mut queued = String::new();
    c1.read_to_string(&mut queued).unwrap();
    assert_eq!(queued, "err shutting down\n");
}

/// Every well-formed line gets exactly one reply and every malformed line
/// gets exactly one `err …` reply, in request order.
#[test]
fn every_line_gets_exactly_one_reply_in_order() {
    let pts = cloud(250, 13);
    let server = server(&pts, NetConfig::default());
    let mut c = connect(&server);
    c.write_all(b"ping\n\nbogus\nsubset\nknn 3 0.5 0.5\n   \nquit\n").unwrap();
    let mut out = String::new();
    c.read_to_string(&mut out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 7, "seven lines in, seven replies out: {out:?}");
    assert_eq!(lines[0], "ok pong");
    assert_eq!(lines[1], "err empty command");
    assert!(lines[2].starts_with("err unknown command \"bogus\""), "{}", lines[2]);
    assert_eq!(lines[3], "err subset needs <lo>..<hi>");
    assert!(lines[4].starts_with("ok knn cache="), "{}", lines[4]);
    assert_eq!(lines[5], "err empty command");
    assert_eq!(lines[6], "ok bye");
}

/// An oversized unterminated line is rejected with one honest line — not
/// buffered without bound, and not a wedge for anyone else.
#[test]
fn oversized_lines_are_rejected_with_one_honest_line() {
    let pts = cloud(250, 17);
    let server = server(&pts, NetConfig::default());
    let mut c = connect(&server);
    c.write_all(&vec![b'a'; MAX_LINE_BYTES + 100]).unwrap();
    let mut out = String::new();
    c.read_to_string(&mut out).unwrap();
    assert_eq!(out, format!("err line too long (max {MAX_LINE_BYTES} bytes)\n"));

    let mut fresh = connect(&server);
    fresh.write_all(b"ping\nquit\n").unwrap();
    let mut out = String::new();
    fresh.read_to_string(&mut out).unwrap();
    assert_eq!(out, "ok pong\nok bye\n");
}

/// Clients that vanish mid-request or mid-response only lose their own
/// connection; the engine keeps serving everyone else exactly.
#[test]
fn client_drops_leave_the_engine_serving_others() {
    let pts = cloud(300, 19);
    let server = server(&pts, NetConfig { workers: 2, max_pending: 8 });

    // Drop mid-request: an unterminated partial line, then EOF.
    {
        let mut c = connect(&server);
        c.write_all(b"em").unwrap();
    }
    // Drop mid-response: request a multi-line body plus a query, vanish
    // before reading a byte of either.
    {
        let mut c = connect(&server);
        c.write_all(b"metrics\nemst\n").unwrap();
        c.shutdown(std::net::Shutdown::Both).unwrap();
    }

    let oracle = engine(&pts);
    let _ = oracle_replies(&oracle, &pts, &["emst"]);
    let _ = oracle_replies(server.engine(), &pts, &["emst"]);
    let expected = oracle_replies(&oracle, &pts, &["ping", "emst", "quit"]);
    for _ in 0..2 {
        let mut c = connect(&server);
        c.write_all(b"ping\nemst\nquit\n").unwrap();
        let mut out = String::new();
        c.read_to_string(&mut out).unwrap();
        assert_eq!(out, expected, "survivors must still get oracle bytes");
    }
}

/// The PR 10 mutation verbs over TCP: a client running an
/// insert/query/delete script receives bytes identical to the in-process
/// [`respond`] oracle run against a separately constructed engine — the
/// same bit-identity proof the read-only verbs get, now covering the
/// incremental delta-solve path and the session-cloud swap.
#[test]
fn mutation_verbs_on_the_wire_match_the_oracle_bit_for_bit() {
    let pts = cloud(300, 31);
    let server = server(&pts, NetConfig { workers: 2, max_pending: 8 });
    const SCRIPT: [&str; 8] = [
        "insert 0.31 0.64 0.22 0.18",
        "emst",
        "delete 0 7 150",
        "emst",
        "insert 0.31 0.64",
        "subset 10..60",
        "delete 0",
        "quit",
    ];
    let oracle = engine(&pts);
    let expected = oracle_replies(&oracle, &pts, &SCRIPT);
    assert!(expected.contains("ok insert key="), "{expected}");
    assert!(expected.contains("ok delete key="), "{expected}");

    let mut c = connect(&server);
    c.write_all((SCRIPT.join("\n") + "\n").as_bytes()).unwrap();
    let mut got = String::new();
    c.read_to_string(&mut got).unwrap();
    assert_eq!(got, expected, "wire mutation bytes diverged from the oracle");

    // A second client starts from the server's *initial* cloud — the
    // first client's mutations were session-scoped, not global.
    let expected_fresh = oracle_replies(&oracle, &pts, &["delete 0 7 150", "quit"]);
    let mut c2 = connect(&server);
    c2.write_all(b"delete 0 7 150\nquit\n").unwrap();
    let mut got2 = String::new();
    c2.read_to_string(&mut got2).unwrap();
    assert_eq!(got2, expected_fresh, "sessions must not leak mutations across connections");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary junk bytes never panic or wedge the server: the
    /// connection always reaches EOF (our trailing `quit`, or whatever
    /// the junk itself triggered), at least one reply line was sent, and
    /// a fresh client still gets exact service afterwards.
    #[test]
    fn junk_bytes_never_wedge_the_server(junk in proptest::collection::vec(any::<u8>(), 0..1500)) {
        let pts = cloud(150, 29);
        let server = server(&pts, NetConfig { workers: 2, max_pending: 8 });
        let mut c = connect(&server);
        // Junk may legitimately close the connection early (e.g. if it
        // happens to spell `quit`), so later writes are best-effort.
        let _ = c.write_all(&junk);
        let _ = c.write_all(b"\nping\nquit\n");
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match c.read(&mut chunk) {
                Ok(0) => break, // EOF: the server closed cleanly
                Ok(n) => out.extend_from_slice(&chunk[..n]),
                Err(e) => prop_assert!(false, "read failed (wedged?): {e}"),
            }
            prop_assert!(Instant::now() < deadline, "server wedged on junk input");
        }
        prop_assert!(!out.is_empty(), "at least one reply line is owed");
        prop_assert!(out.ends_with(b"\n"), "replies are newline-terminated");

        let mut fresh = connect(&server);
        fresh.write_all(b"ping\nquit\n").unwrap();
        let mut rest = String::new();
        fresh.read_to_string(&mut rest).unwrap();
        prop_assert_eq!(rest, "ok pong\nok bye\n");
    }

    /// Split and partial writes reassemble into exactly the oracle bytes:
    /// the reply stream is a pure function of the line stream, however
    /// the bytes were segmented.
    #[test]
    fn split_writes_reassemble_into_exact_replies(cuts in proptest::collection::vec(1usize..40, 0..6)) {
        let pts = cloud(200, 23);
        let server = server(&pts, NetConfig { workers: 2, max_pending: 8 });
        const SCRIPT: [&str; 4] = ["ping", "knn 3 0.5 0.5", "subset 5..25", "quit"];
        let _ = oracle_replies(server.engine(), &pts, &SCRIPT[..3]);
        let expected = oracle_replies(server.engine(), &pts, &SCRIPT);

        let request = SCRIPT.join("\n") + "\n";
        let bytes = request.as_bytes();
        let mut c = connect(&server);
        let mut sent = 0;
        for cut in cuts {
            let upto = (sent + cut).min(bytes.len());
            c.write_all(&bytes[sent..upto]).unwrap();
            sent = upto;
            std::thread::sleep(Duration::from_millis(2));
        }
        c.write_all(&bytes[sent..]).unwrap();
        let mut got = String::new();
        c.read_to_string(&mut got).unwrap();
        prop_assert_eq!(got, expected);
    }
}
