//! Benchmark-side observability.
//!
//! [`PhaseSink`] is an implementation of the public [`Observer`] trait
//! that sums the phase spans `run_span` emits in whole nanoseconds and
//! mirrors every counter, gauge and histogram into a [`Registry`]. It
//! never goes through `TraceWriter`, whose whole-microsecond spans read
//! 0 for most sub-microsecond phases.
//!
//! [`SpanLog`] keeps the benchmark's own call-level spans (workload →
//! tier → repetition → public call, each with its parent id) in memory
//! and writes them out once, when the run ends.

use han_obs::{Counter, Gauge, Hist, Observer, Registry};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The phase spans the round loop emits, in round order.
pub const PHASES: [&str; 6] = ["inject", "fault", "begin", "comms", "plan", "end"];

/// Index of `name` in [`PHASES`].
pub fn phase(name: &str) -> usize {
    PHASES
        .iter()
        .position(|p| *p == name)
        .expect("a phase the round loop emits")
}

/// Sums phase spans in nanoseconds and mirrors the engine metrics. One
/// sink observes one simulation, so published running totals read as
/// that run's totals.
#[derive(Default)]
pub struct PhaseSink {
    registry: Registry,
    nanos: [AtomicU64; 6],
    spans: [AtomicU64; 6],
}

impl PhaseSink {
    /// The mirrored engine metrics.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Nanoseconds summed over every span of phase `index`.
    pub fn nanos(&self, index: usize) -> u64 {
        self.nanos[index].load(Ordering::Relaxed)
    }

    /// Spans of phase `index` seen.
    pub fn spans(&self, index: usize) -> u64 {
        self.spans[index].load(Ordering::Relaxed)
    }
}

// The atomics below are statistics: they publish no other data, so
// `Relaxed` suffices (the reader joins the simulation first).
impl Observer for PhaseSink {
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
    fn wants_spans(&self) -> bool {
        true
    }
    fn span(&self, name: &'static str, _round: u64, start: Instant, end: Instant) {
        if let Some(i) = PHASES.iter().position(|p| *p == name) {
            let ns = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
            self.nanos[i].fetch_add(ns, Ordering::Relaxed);
            self.spans[i].fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct Span {
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    dur_ns: u64,
}

/// Call-level spans kept in memory. Disabled (every method a no-op)
/// on untraced runs.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log that records only when `enabled`.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns: self.now_ns(),
            dur_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].dur_ns = now - self.spans[top].start_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The log in Chrome `trace_event` JSON (complete events, times in
    /// fractional microseconds, the span and parent ids in `args`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                span.name.replace('\\', "\\\\").replace('"', "\\\""),
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_obs::Obs;
    use std::sync::Arc;

    #[test]
    fn phase_spans_sum_in_nanoseconds() {
        let sink = Arc::new(PhaseSink::default());
        let obs = Obs::new(sink.clone());
        let start = Instant::now();
        obs.span_end("plan", 0, Some(start));
        obs.span_end("plan", 1, Some(start));
        obs.span_end("not-a-phase", 1, Some(start));
        assert_eq!(sink.spans(phase("plan")), 2);
        assert_eq!(sink.spans(phase("begin")), 0);
        obs.publish(Counter::PlannerInvocations, 9);
        assert_eq!(sink.registry().counter(Counter::PlannerInvocations), 9);
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut log = SpanLog::new(true);
        let root = log.open("workload");
        log.call("City::run", || ());
        log.close(root);
        let json = log.to_chrome_json();
        assert_eq!(log.len(), 2);
        assert!(json.contains("\"name\":\"City::run\""));
        assert!(json.contains("\"id\":1,\"parent\":0"));

        let mut off = SpanLog::new(false);
        off.call("ignored", || ());
        assert_eq!(off.len(), 0);
    }
}
