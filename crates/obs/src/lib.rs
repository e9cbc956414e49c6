//! Observability primitives for the serving stack.
//!
//! The workspace vendors every external dependency, so this crate is
//! deliberately **std-only**: no `tracing`, no `prometheus`, no `serde`.
//! What it provides instead is the minimal surface the serving engine
//! actually needs, built on atomics so the hot path never takes a lock:
//!
//! - [`metrics`] — a registry of named [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s and log₂-bucketed latency
//!   [`metrics::Histogram`]s (p50/p95/p99 readout), with Prometheus-style
//!   text exposition and a JSON document as exporters. Handles are
//!   `Arc`s: registration takes a short registry lock once, recording is
//!   a relaxed atomic add.
//! - [`trace`] — a bounded ring buffer of per-query [`trace::QueryTrace`]
//!   records, each a list of named [`trace::SpanRecord`] phases (digest,
//!   lease wait, merge rounds, …) with integer fields. Memory is bounded
//!   by construction; readout is newest-first.
//! - [`log`] — a structured logger (text or JSON lines on stderr)
//!   replacing ad-hoc `eprintln!` diagnostics.
//!
//! Everything here is advisory instrumentation: relaxed atomics, no
//! happens-before obligations, and nothing in this crate may influence
//! the bits of an answer. See `docs/observability.md` for the exported
//! metric names and schemas.

pub mod log;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use trace::{QueryTrace, SpanRecord, TraceRing};

/// Escapes `s` for embedding in a JSON string literal (shared by the
/// metrics JSON exporter and the JSON log format).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(super::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(super::json_escape("\u{1}"), "\\u0001");
        assert_eq!(super::json_escape("plain"), "plain");
    }
}
