//! The production [`Observer`]: registry + flight recorder + optional
//! span trace, with the fault-triggered auto-dump wired in.

use crate::flight::{FlightEvent, FlightRecorder, DEFAULT_CAPACITY};
use crate::registry::Registry;
use crate::trace::TraceWriter;
use crate::{Counter, Gauge, Hist, Observer, Subsystem};
use std::path::PathBuf;
use std::time::Instant;

/// Construction options for an [`ObsSink`].
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Flight-ring capacity (`0` → the default, 256 events).
    pub flight_capacity: usize,
    /// Dump the flight ring to this file whenever a fault-plane event
    /// is recorded (best-effort: I/O failures never reach the engine).
    pub flight_auto_dump: Option<PathBuf>,
    /// Collect a Chrome `trace_event` span log (costs two wall-clock
    /// reads per phase — diagnostic use, excluded from the perf gate).
    pub trace_spans: bool,
}

/// Registry + flight recorder + optional trace writer behind one
/// [`Observer`] implementation. Wrap it in an `Arc` and hand clones to
/// [`Obs::new`](crate::Obs::new) and to whatever serves the exposition.
pub struct ObsSink {
    registry: Registry,
    flight: FlightRecorder,
    trace: Option<TraceWriter>,
    flight_auto_dump: Option<PathBuf>,
}

impl ObsSink {
    /// Builds a sink per `config`.
    pub fn new(config: ObsConfig) -> ObsSink {
        let capacity = if config.flight_capacity == 0 {
            DEFAULT_CAPACITY
        } else {
            config.flight_capacity
        };
        ObsSink {
            registry: Registry::new(),
            flight: FlightRecorder::new(capacity),
            trace: config.trace_spans.then(TraceWriter::new),
            flight_auto_dump: config.flight_auto_dump,
        }
    }

    /// The metrics store.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight-recorder ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The span trace, when enabled.
    pub fn trace(&self) -> Option<&TraceWriter> {
        self.trace.as_ref()
    }

    /// Prometheus text exposition of the registry.
    pub fn exposition(&self) -> String {
        self.registry.exposition()
    }
}

impl Observer for ObsSink {
    fn counter_add(&self, counter: Counter, delta: u64) {
        self.registry.counter_add(counter, delta);
    }

    fn counter_publish(&self, counter: Counter, total: u64) {
        self.registry.counter_publish(counter, total);
    }

    fn gauge_set(&self, gauge: Gauge, value: u64) {
        self.registry.gauge_set(gauge, value);
    }

    fn gauge_max(&self, gauge: Gauge, value: u64) {
        self.registry.gauge_max(gauge, value);
    }

    fn observe(&self, hist: Hist, value: u64) {
        self.registry.observe(hist, value);
    }

    fn event(&self, round: u64, subsystem: Subsystem, kind: &'static str, payload: String) {
        self.flight.record(FlightEvent {
            round,
            subsystem,
            kind,
            payload,
        });
        // A fault firing is the moment an operator will want the recent
        // history: dump the ring now, while it still holds the lead-up.
        // Best-effort by contract — a full disk must not fail the run.
        if subsystem == Subsystem::Fault {
            if let Some(path) = &self.flight_auto_dump {
                let _ = self.flight.dump_to(path);
            }
        }
    }

    fn wants_spans(&self) -> bool {
        self.trace.is_some()
    }

    fn span(&self, name: &'static str, round: u64, start: Instant, end: Instant) {
        if let Some(trace) = &self.trace {
            trace.span(name, round, start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_events_auto_dump_the_ring() {
        let dir = std::env::temp_dir().join("han-obs-sink-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("flight.jsonl");
        let _ = std::fs::remove_file(&path);
        let sink = ObsSink::new(ObsConfig {
            flight_auto_dump: Some(path.clone()),
            ..ObsConfig::default()
        });
        sink.event(
            5,
            Subsystem::Online,
            "telemetry-absorbed",
            "kind=arrival".into(),
        );
        assert!(!path.exists(), "non-fault events must not dump");
        sink.event(7, Subsystem::Fault, "fault-active", "down=1".into());
        let dump = std::fs::read_to_string(&path).expect("auto-dump written");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2, "dump holds the lead-up too");
        assert!(lines[0].contains("telemetry-absorbed"));
        assert!(lines[1].contains("fault-active"));
    }

    #[test]
    fn spans_only_collect_when_enabled() {
        let plain = ObsSink::new(ObsConfig::default());
        assert!(!plain.wants_spans());
        let tracing = ObsSink::new(ObsConfig {
            trace_spans: true,
            ..ObsConfig::default()
        });
        assert!(tracing.wants_spans());
        let t = Instant::now();
        tracing.span("plan", 1, t, t);
        assert_eq!(tracing.trace().expect("trace on").len(), 1);
    }
}
