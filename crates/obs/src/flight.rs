//! The flight recorder: a bounded ring of recent structured events,
//! kept cheap enough to stay on in production and dumped as JSONL for
//! post-incident diagnosis.
//!
//! The ring records only *sparse* events — fault edges, absorbed
//! telemetry, divergence onsets, recovery — never per-round chatter, so
//! a bounded buffer of a few hundred entries spans the interesting
//! history of a long run. When full, the oldest events are evicted.

use crate::Subsystem;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// Default ring capacity: enough for the fault/injection history of a
/// long window without unbounded growth.
pub(crate) const DEFAULT_CAPACITY: usize = 256;

/// One structured flight event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlightEvent {
    /// Round counter when the event fired.
    pub(crate) round: u64,
    /// The simulation layer that produced it.
    pub(crate) subsystem: Subsystem,
    /// Stable event kind (e.g. `fault-active`, `telemetry-absorbed`).
    pub(crate) kind: &'static str,
    /// Free-form `key=value` payload.
    pub(crate) payload: String,
}

impl FlightEvent {
    /// Renders the event as one JSON object (one JSONL line, no
    /// trailing newline).
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.payload.len());
        let _ = write!(
            out,
            "{{\"round\":{},\"subsystem\":\"{}\",\"kind\":\"{}\",\"payload\":\"",
            self.round,
            self.subsystem.as_str(),
            self.kind
        );
        escape_json_into(&self.payload, &mut out);
        out.push_str("\"}");
        out
    }
}

/// Escapes `s` for inclusion inside a JSON string literal.
fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The bounded ring buffer itself. Interior-mutable behind one mutex:
/// recording is off the per-round hot path (sparse events only), and a
/// dump snapshots under the same lock.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<FlightEvent>>,
}

impl FlightRecorder {
    /// An empty recorder holding at most `capacity` events (min 1).
    pub(crate) fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub(crate) fn record(&self, event: FlightEvent) {
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots the ring oldest-first.
    pub(crate) fn snapshot(&self) -> Vec<FlightEvent> {
        let ring = self.ring.lock().expect("flight ring poisoned");
        ring.iter().cloned().collect()
    }

    /// Renders the ring as JSONL, oldest event first (one JSON object
    /// per line; empty string when the ring is empty).
    pub fn jsonl(&self) -> String {
        let events = self.snapshot();
        let mut out = String::new();
        for ev in &events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL dump to `path` (truncating). Used by the fault
    /// auto-dump and the CLI's `--flight` flag.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn dump_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u64, kind: &'static str) -> FlightEvent {
        FlightEvent {
            round,
            subsystem: Subsystem::Fault,
            kind,
            payload: format!("round={round}"),
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let rec = FlightRecorder::new(2);
        rec.record(ev(1, "a"));
        rec.record(ev(2, "b"));
        rec.record(ev(3, "c"));
        assert_eq!(rec.len(), 2);
        let snap = rec.snapshot();
        assert_eq!(snap[0].round, 2);
        assert_eq!(snap[1].round, 3);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let rec = FlightRecorder::new(8);
        rec.record(ev(1, "fault-active"));
        rec.record(FlightEvent {
            round: 2,
            subsystem: Subsystem::Online,
            kind: "telemetry-absorbed",
            payload: "quote=\" backslash=\\ tab=\t".into(),
        });
        let jsonl = rec.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"round\":1,\"subsystem\":\"fault\",\"kind\":\"fault-active\",\"payload\":\"round=1\"}"
        );
        assert!(lines[1].contains("\\\""));
        assert!(lines[1].contains("\\\\"));
        assert!(lines[1].contains("\\t"));
    }

    #[test]
    fn empty_ring_dumps_empty() {
        let rec = FlightRecorder::new(4);
        assert!(rec.is_empty());
        assert_eq!(rec.jsonl(), "");
    }
}
