//! Per-query structured traces in a bounded ring buffer.
//!
//! A [`QueryTrace`] is the phase breakdown of one served query: an
//! ordered list of [`SpanRecord`]s (digest, lease wait, local build,
//! each cross-shard merge round, spill, …), each with a
//! duration and a small set of integer fields (queries answered in a
//! merge round, distance computations, boundary candidates, …). Fields
//! are generic `(&'static str, u64)` pairs so this crate stays free of
//! any dependency on the geometry/traversal crates.
//!
//! The [`TraceRing`] holds the most recent `capacity` traces: pushing
//! beyond capacity drops the oldest, so memory stays bounded no matter
//! how long the engine serves. Readout is newest-first — `trace 5` in
//! the CLI means "the five most recent queries".

use std::collections::VecDeque;
use std::sync::Mutex;

/// One timed phase inside a query.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Phase name (`digest`, `lease.wait`, `merge.round`, `update`, …).
    pub name: &'static str,
    /// Wall-clock duration of the phase, seconds.
    pub secs: f64,
    /// Integer annotations (`round`, `queries`, `distances`, …).
    pub fields: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// A span with no annotations.
    pub fn new(name: &'static str, secs: f64) -> Self {
        Self { name, secs, fields: vec![] }
    }

    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// The phase breakdown of one served query.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Monotone sequence number assigned by the ring at push time.
    pub seq: u64,
    /// Operation kind (`emst`, `subset`, `knn`, `hdbscan`).
    pub op: &'static str,
    /// Cache key of the resident the query ran against.
    pub key: String,
    /// Cache outcome (`hit`, `miss`, `reload`, `coalesced`).
    pub outcome: &'static str,
    /// Total wall-clock seconds of the query.
    pub total_s: f64,
    /// Ordered phase spans.
    pub spans: Vec<SpanRecord>,
}

impl QueryTrace {
    /// Renders a human-readable multi-line breakdown (used by the CLI
    /// `trace` command).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "query #{} op={} key={} outcome={} total={:.6}s\n",
            self.seq, self.op, self.key, self.outcome, self.total_s
        );
        for span in &self.spans {
            let fields = span.fields.iter().map(|(k, v)| format!(" {k}={v}")).collect::<String>();
            out.push_str(&format!("  {:<16} {:>12.6}s{fields}\n", span.name, span.secs));
        }
        out
    }
}

/// A bounded, newest-first ring of recent [`QueryTrace`]s.
///
/// The ring is mutex-guarded rather than lock-free: a push happens once
/// per query (not per phase) and copies a few dozen words, so the lock
/// is held for nanoseconds — contention is negligible next to the work
/// the query itself did.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    traces: VecDeque<QueryTrace>,
    next_seq: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` traces (capacity 0 is rounded
    /// up to 1 so a push is never silently discarded).
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), inner: Mutex::new(Inner::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Maximum number of retained traces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained traces (≤ capacity).
    pub fn len(&self) -> usize {
        self.lock().traces.len()
    }

    /// Whether the ring holds no traces yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever pushed (the next trace's sequence number).
    pub fn pushed(&self) -> u64 {
        self.lock().next_seq
    }

    /// Pushes a trace, stamping its sequence number and evicting the
    /// oldest retained trace if the ring is full. Returns the sequence
    /// number assigned.
    pub fn push(&self, mut trace: QueryTrace) -> u64 {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        trace.seq = seq;
        if inner.traces.len() == self.capacity {
            inner.traces.pop_front();
        }
        inner.traces.push_back(trace);
        seq
    }

    /// The `n` most recent traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<QueryTrace> {
        let inner = self.lock();
        inner.traces.iter().rev().take(n).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(op: &'static str, total_s: f64) -> QueryTrace {
        QueryTrace {
            seq: 0,
            op,
            key: "k".into(),
            outcome: "hit",
            total_s,
            spans: vec![SpanRecord::new("digest", total_s / 2.0)],
        }
    }

    #[test]
    fn ring_wraparound_keeps_memory_bounded_and_newest_first() {
        // The satellite test: push far past capacity, then check the ring
        // never exceeds its bound and reads back newest-first.
        let ring = TraceRing::new(4);
        for i in 0..100 {
            ring.push(trace("emst", i as f64));
            assert!(ring.len() <= 4, "ring grew past capacity at push {i}");
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.pushed(), 100);
        let recent = ring.recent(10);
        assert_eq!(recent.len(), 4, "recent(n) is capped by retained traces");
        let seqs: Vec<u64> = recent.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![99, 98, 97, 96], "newest first");
        let recent2 = ring.recent(2);
        assert_eq!(recent2.len(), 2);
        assert_eq!(recent2[0].seq, 99);
    }

    #[test]
    fn spans_carry_fields_and_render() {
        let mut t = trace("subset", 0.5);
        t.spans.push(SpanRecord {
            name: "merge.round",
            secs: 0.25,
            fields: vec![("round", 0), ("queries", 42)],
        });
        let seq = TraceRing::new(2).push(t.clone());
        assert_eq!(seq, 0);
        assert_eq!(t.spans[1].field("queries"), Some(42));
        assert_eq!(t.spans[1].field("absent"), None);
        let text = t.render_text();
        assert!(text.contains("op=subset"));
        assert!(text.contains("merge.round"));
        assert!(text.contains("queries=42"));
    }

    #[test]
    fn zero_capacity_is_rounded_up() {
        let ring = TraceRing::new(0);
        ring.push(trace("emst", 1.0));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.capacity(), 1);
    }

    #[test]
    fn concurrent_pushes_never_exceed_capacity() {
        let ring = TraceRing::new(8);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..50 {
                        ring.push(trace("emst", i as f64));
                    }
                });
            }
        });
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.pushed(), 200);
        // Sequence numbers are unique and strictly descending newest-first.
        let seqs: Vec<u64> = ring.recent(8).iter().map(|t| t.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] > w[1]), "{seqs:?}");
    }
}
