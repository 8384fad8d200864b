//! Opt-in full-run span log in Chrome `trace_event` JSON format, so a
//! round can be opened in a trace viewer (`chrome://tracing`, Perfetto).
//!
//! Spans are *diagnostic wall clock*: timestamps are microseconds since
//! the writer's creation, never simulated time, and tracing is excluded
//! from the enabled-overhead perf gate (it costs two `Instant` reads
//! per phase by design). It is behaviorally inert like every other
//! hook: span recording reads engine state, never writes it.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One completed span, µs-resolution offsets from the writer's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    round: u64,
    ts_us: u64,
    dur_us: u64,
}

/// Collects spans and renders them as a Chrome `trace_event` JSON
/// document (`{"traceEvents":[...]}`, complete-event `ph:"X"` entries).
pub struct TraceWriter {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for TraceWriter {
    fn default() -> Self {
        TraceWriter::new()
    }
}

impl TraceWriter {
    /// An empty writer; its creation instant is the trace epoch.
    pub(crate) fn new() -> TraceWriter {
        TraceWriter {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records one completed span. `start`/`end` are converted to
    /// offsets from the epoch (clamped to zero if older than it).
    pub(crate) fn span(&self, name: &'static str, round: u64, start: Instant, end: Instant) {
        let ts_us = start
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_micros() as u64);
        let dur_us = end
            .checked_duration_since(start)
            .map_or(0, |d| d.as_micros() as u64);
        self.spans.lock().expect("trace spans poisoned").push(Span {
            name,
            round,
            ts_us,
            dur_us,
        });
    }

    /// Renders the full trace document. Span names are static engine
    /// identifiers and need no JSON escaping.
    pub(crate) fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("trace spans poisoned");
        let mut out = String::with_capacity(32 + spans.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"round\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"round\":{}}}}}",
                s.name, s.ts_us, s.dur_us, s.round
            );
        }
        out.push_str("]}");
        out
    }

    /// Writes the trace document to `path` (truncating).
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
impl TraceWriter {
    /// Spans recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.spans.lock().expect("trace spans poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_complete_events() {
        let w = TraceWriter::new();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(5);
        w.span("plan", 3, t0, t1);
        w.span("end", 3, t1, t1);
        assert_eq!(w.len(), 2);
        let json = w.to_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"plan\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"round\":3}"));
    }

    #[test]
    fn empty_trace_is_still_a_document() {
        let w = TraceWriter::new();
        assert_eq!(w.len(), 0);
        assert_eq!(
            w.to_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
