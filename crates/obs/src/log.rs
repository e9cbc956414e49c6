//! A structured logger: text or JSON lines on stderr.
//!
//! The workspace previously reported serve-side diagnostics with ad-hoc
//! `eprintln!` calls, which a JSON-consuming supervisor cannot parse. This
//! module is the replacement: a process-global logger with a [`Format`]
//! (`text` for humans, `json` for machines — one JSON object per line)
//! writing each record to stderr at one of two levels, [`info`] for
//! lifecycle events and [`warn`] for degraded-but-continuing ones.
//!
//! Call sites pass a *target* (the emitting subsystem, e.g.
//! `emst-serve`), a message, and a list of `key = value` fields:
//!
//! ```
//! emst_obs::log::warn("emst-serve", "spill write failed", &[("key", "uniform-1000")]);
//! ```
//!
//! In JSON format the line is `{"ts":…,"level":"warn","target":"…",
//! "msg":"…","key":"uniform-1000"}` — the keys `ts`, `level`, `target`
//! and `msg` are reserved for the envelope, so field keys must avoid
//! them. The format lives in a relaxed atomic, so reading it is free.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Output format of the global logger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Human-readable single lines: `[warn emst-serve] msg key="value"`.
    Text,
    /// One JSON object per line.
    Json,
}

impl Format {
    /// Parses a lower-case name (the CLI's `--log-format` values).
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

/// Whether the global format is [`Format::Json`].
static JSON: AtomicBool = AtomicBool::new(false);

/// Sets the global output format.
pub fn set_format(format: Format) {
    JSON.store(format == Format::Json, Ordering::Relaxed);
}

/// Renders one record at `level` (`"info"` or `"warn"`) as a line
/// (without the newline) in `format`; `ts` (seconds since the Unix epoch)
/// appears in JSON lines only.
fn render(
    format: Format,
    ts: f64,
    level: &str,
    target: &str,
    msg: &str,
    fields: &[(&str, &str)],
) -> String {
    match format {
        Format::Text => {
            let mut line = format!("[{level} {target}] {msg}");
            for (k, v) in fields {
                line.push_str(&format!(" {k}={v:?}"));
            }
            line
        }
        Format::Json => {
            let mut line = format!(
                "{{\"ts\":{ts:.3},\"level\":\"{level}\",\"target\":\"{}\",\"msg\":\"{}\"",
                crate::json_escape(target),
                crate::json_escape(msg)
            );
            for (k, v) in fields {
                line.push_str(&format!(
                    ",\"{}\":\"{}\"",
                    crate::json_escape(k),
                    crate::json_escape(v)
                ));
            }
            line.push('}');
            line
        }
    }
}

/// Writes one record to stderr in the global format. `fields` are
/// `key = value` annotations appended after the message.
fn log(level: &str, target: &str, msg: &str, fields: &[(&str, &str)]) {
    let format = if JSON.load(Ordering::Relaxed) { Format::Json } else { Format::Text };
    let ts = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs_f64()).unwrap_or(0.0);
    let line = render(format, ts, level, target, msg, fields);
    // A logger that panics on a closed stderr would take the server down
    // for the sake of a diagnostic; drop the record instead.
    let _ = writeln!(std::io::stderr().lock(), "{line}");
}

/// Logs a lifecycle event (engine start, cache admissions).
pub fn info(target: &str, msg: &str, fields: &[(&str, &str)]) {
    log("info", target, msg, fields);
}

/// Logs a degraded-but-continuing event (spill write failed, collision
/// verified).
pub fn warn(target: &str, msg: &str, fields: &[(&str, &str)]) {
    log("warn", target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_render_as_text_and_json() {
        let text = render(Format::Text, 0.0, "warn", "test", "kept", &[("key", "va l\"ue")]);
        assert_eq!(text, "[warn test] kept key=\"va l\\\"ue\"");

        let json = render(Format::Json, 1.5, "info", "test", "json line", &[("k", "v")]);
        assert!(json.starts_with("{\"ts\":"));
        assert!(json.contains("\"level\":\"info\""));
        assert!(json.contains("\"target\":\"test\""));
        assert!(json.contains("\"msg\":\"json line\""));
        assert!(json.contains("\"k\":\"v\""));
        assert!(json.ends_with('}'));
        let quoted = render(Format::Json, 1.5, "warn", "test", "json \"quoted\"", &[]);
        assert!(quoted.contains("\"msg\":\"json \\\"quoted\\\"\""));
        for json_line in [&json, &quoted] {
            assert_eq!(json_line.matches('{').count(), json_line.matches('}').count());
        }
    }

    #[test]
    fn format_names_parse() {
        assert_eq!(Format::parse("text"), Some(Format::Text));
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("yaml"), None);
    }
}
