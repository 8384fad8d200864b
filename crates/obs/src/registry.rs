//! The lock-free-ish metrics store: dense arrays of relaxed atomics,
//! one cell per [`Counter`] / [`Gauge`] and one fixed-bucket cell per
//! [`Hist`], with Prometheus text-format exposition.
//!
//! All bucket boundaries are powers of two fixed at compile time, so
//! the exposed layout is deterministic — two runs publishing the same
//! values produce byte-identical exposition. Ordering is `Relaxed`
//! everywhere: metrics tolerate torn cross-metric views (a scrape races
//! the run by design) but each individual cell is always a real value
//! some hook published.

use crate::{Counter, Gauge, Hist};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of finite histogram buckets; the exposition adds `+Inf`.
pub(crate) const HIST_BUCKETS: usize = 16;

/// Upper bound (`le`) of finite bucket `i`: `2^i`.
fn bucket_le(i: usize) -> u64 {
    1 << i
}

/// One histogram cell: finite bucket counts plus sum and count.
struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Samples above the last finite bucket (the `+Inf` bucket alone).
    overflow: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistCell {
    fn new() -> HistCell {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        match (0..HIST_BUCKETS).find(|&i| value <= bucket_le(i)) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// The metrics store behind [`ObsSink`](crate::ObsSink): every cell an
/// atomic, no locks anywhere on the write path.
pub struct Registry {
    counters: Vec<AtomicU64>,
    gauges: Vec<AtomicU64>,
    hists: Vec<HistCell>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An all-zero registry covering every declared metric.
    pub(crate) fn new() -> Registry {
        Registry {
            counters: Counter::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
            gauges: Gauge::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
            hists: Hist::ALL.iter().map(|_| HistCell::new()).collect(),
        }
    }

    /// Adds `delta` to a counter.
    pub fn counter_add(&self, counter: Counter, delta: u64) {
        self.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Publishes a subsystem's own running total for a counter. The
    /// stored value only ever moves forward, so a publisher re-posting
    /// an older snapshot cannot make the exposed series non-monotonic.
    pub fn counter_publish(&self, counter: Counter, total: u64) {
        self.counters[counter.index()].fetch_max(total, Ordering::Relaxed);
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge.index()].store(value, Ordering::Relaxed);
    }

    /// Raises a gauge to `value` if it exceeds the stored one.
    pub fn gauge_max(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge.index()].fetch_max(value, Ordering::Relaxed);
    }

    /// Records a histogram sample.
    pub fn observe(&self, hist: Hist, value: u64) {
        self.hists[hist.index()].observe(value);
    }

    /// Current counter value.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Current gauge value.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()].load(Ordering::Relaxed)
    }

    /// Samples recorded into a histogram.
    pub(crate) fn hist_count(&self, hist: Hist) -> u64 {
        self.hists[hist.index()].count.load(Ordering::Relaxed)
    }

    /// Sum of all samples recorded into a histogram.
    pub(crate) fn hist_sum(&self, hist: Hist) -> u64 {
        self.hists[hist.index()].sum.load(Ordering::Relaxed)
    }

    /// Renders the whole registry in Prometheus text exposition format
    /// (`# HELP` / `# TYPE` preambles, cumulative histogram buckets).
    pub(crate) fn exposition(&self) -> String {
        let mut out = String::new();
        for &c in Counter::ALL {
            let name = c.metric_name();
            let _ = writeln!(out, "# HELP {name} {}", c.help());
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", self.counter(c));
        }
        for &g in Gauge::ALL {
            let name = g.metric_name();
            let _ = writeln!(out, "# HELP {name} {}", g.help());
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", self.gauge(g));
        }
        for &h in Hist::ALL {
            let name = h.metric_name();
            let cell = &self.hists[h.index()];
            let _ = writeln!(out, "# HELP {name} {}", h.help());
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0;
            for i in 0..HIST_BUCKETS {
                cumulative += cell.buckets[i].load(Ordering::Relaxed);
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", bucket_le(i));
            }
            cumulative += cell.overflow.load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{name}_sum {}", self.hist_sum(h));
            let _ = writeln!(out, "{name}_count {}", self.hist_count(h));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_publish_monotonically() {
        let r = Registry::new();
        r.counter_add(Counter::CpOutageRounds, 2);
        r.counter_add(Counter::CpOutageRounds, 3);
        assert_eq!(r.counter(Counter::CpOutageRounds), 5);
        r.counter_publish(Counter::PlannerInvocations, 10);
        r.counter_publish(Counter::PlannerInvocations, 7); // stale repost
        assert_eq!(r.counter(Counter::PlannerInvocations), 10);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capture_overflow() {
        let r = Registry::new();
        r.observe(Hist::AbsorbedPerBoundary, 1);
        r.observe(Hist::AbsorbedPerBoundary, 2);
        r.observe(Hist::AbsorbedPerBoundary, 3);
        r.observe(Hist::AbsorbedPerBoundary, 1 << 20); // beyond the last finite bucket
        assert_eq!(r.hist_count(Hist::AbsorbedPerBoundary), 4);
        assert_eq!(r.hist_sum(Hist::AbsorbedPerBoundary), 6 + (1 << 20));
        let text = r.exposition();
        assert!(text.contains("han_online_absorbed_per_boundary_bucket{le=\"1\"} 1"));
        assert!(text.contains("han_online_absorbed_per_boundary_bucket{le=\"2\"} 2"));
        assert!(text.contains("han_online_absorbed_per_boundary_bucket{le=\"4\"} 3"));
        assert!(text.contains("han_online_absorbed_per_boundary_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("han_online_absorbed_per_boundary_count 4"));
    }

    #[test]
    fn exposition_covers_every_metric_with_preambles() {
        let r = Registry::new();
        let text = r.exposition();
        for &c in Counter::ALL {
            assert!(text.contains(&format!("# TYPE {} counter", c.metric_name())));
        }
        for &g in Gauge::ALL {
            assert!(text.contains(&format!("# TYPE {} gauge", g.metric_name())));
        }
        for &h in Hist::ALL {
            assert!(text.contains(&format!("# TYPE {} histogram", h.metric_name())));
        }
        // Every non-comment line is `name[{labels}] value` with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().expect("metric value parses");
        }
    }
}
