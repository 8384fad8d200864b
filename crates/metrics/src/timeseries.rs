//! Load time series as a right-continuous step function.
//!
//! The total system load changes only when some device switches, so the
//! natural representation is a step function: a sorted list of
//! `(instant, value)` breakpoints where the value holds until the next
//! breakpoint. [`LoadTrace`] records load in **kilowatts** and supports both
//! exact time-weighted statistics and the fixed-interval sampling the
//! paper's figures use (per-minute).

use han_sim::time::{SimDuration, SimTime};

/// A step-function record of total load over time, in kilowatts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadTrace {
    /// Breakpoints, strictly increasing in time.
    points: Vec<(SimTime, f64)>,
}

impl LoadTrace {
    /// Creates an empty trace (value 0 until the first breakpoint).
    pub fn new() -> Self {
        LoadTrace { points: Vec::new() }
    }

    /// Records the load `kw` holding from `at` onwards.
    ///
    /// Appending at the same instant as the last breakpoint overwrites it
    /// (the final state at an instant wins, matching event-driven updates).
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last breakpoint or `kw` is not finite.
    pub fn record(&mut self, at: SimTime, kw: f64) {
        assert!(kw.is_finite(), "load must be finite");
        match self.points.last_mut() {
            Some((last, value)) if *last == at => {
                *value = kw;
            }
            Some((last, _)) => {
                assert!(at > *last, "breakpoints must be non-decreasing");
                self.points.push((at, kw));
            }
            None => self.points.push((at, kw)),
        }
    }

    /// The raw breakpoints.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// The load at instant `t` (0 before the first breakpoint).
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by(|(bt, _)| bt.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Samples the trace every `interval` from `start` to `end` inclusive,
    /// the way the paper's per-minute plots are drawn.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `end < start`.
    pub fn sample(&self, start: SimTime, end: SimTime, interval: SimDuration) -> Vec<f64> {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        assert!(end >= start, "end must not precede start");
        let mut out = Vec::new();
        let mut t = start;
        loop {
            out.push(self.value_at(t));
            if t >= end {
                break;
            }
            t = (t + interval).min(end);
        }
        out
    }

    /// Peak load over `[start, end)`, in kW.
    pub fn peak(&self, start: SimTime, end: SimTime) -> f64 {
        self.fold_segments(start, end, f64::NEG_INFINITY, |acc, value, _| {
            acc.max(value)
        })
    }

    /// Energy delivered over `[start, end)`, in kWh.
    pub fn energy_kwh(&self, start: SimTime, end: SimTime) -> f64 {
        self.fold_segments(start, end, 0.0, |acc, value, dur| {
            acc + value * dur.as_hours_f64()
        })
    }

    /// Folds over the constant segments of the step function intersected
    /// with `[start, end)`.
    fn fold_segments<A>(
        &self,
        start: SimTime,
        end: SimTime,
        init: A,
        mut f: impl FnMut(A, f64, SimDuration) -> A,
    ) -> A {
        assert!(end > start, "empty interval");
        let mut acc = init;
        let mut cursor = start;
        let mut value = self.value_at(start);
        // Index of first breakpoint strictly after `start`.
        let mut idx = match self.points.binary_search_by(|(bt, _)| bt.cmp(&start)) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        while cursor < end {
            let next = self
                .points
                .get(idx)
                .map(|&(bt, _)| bt)
                .filter(|&bt| bt < end)
                .unwrap_or(end);
            if next > cursor {
                acc = f(acc, value, next - cursor);
            }
            if next == end {
                break;
            }
            value = self.points[idx].1;
            cursor = next;
            idx += 1;
        }
        acc
    }
}

impl LoadTrace {
    /// Builds a trace from overlapping rectangular pulses
    /// `(start, duration, kw)` — the natural shape of Type-1 (instant)
    /// appliance activity: a hair-dryer pulse, a TV session, a lighting
    /// block. Overlaps sum.
    ///
    /// # Examples
    ///
    /// ```
    /// use han_metrics::timeseries::LoadTrace;
    /// use han_sim::time::{SimDuration, SimTime};
    ///
    /// let tv = (SimTime::from_mins(10), SimDuration::from_mins(30), 0.12);
    /// let dryer = (SimTime::from_mins(20), SimDuration::from_mins(5), 1.2);
    /// let background = LoadTrace::from_pulses([tv, dryer]);
    /// assert!((background.value_at(SimTime::from_mins(22)) - 1.32).abs() < 1e-12);
    /// ```
    pub fn from_pulses(pulses: impl IntoIterator<Item = (SimTime, SimDuration, f64)>) -> Self {
        // Sweep line over +kw / −kw edge events.
        let mut edges: Vec<(SimTime, f64)> = Vec::new();
        for (start, duration, kw) in pulses {
            assert!(kw.is_finite(), "pulse power must be finite");
            if duration.is_zero() || kw == 0.0 {
                continue;
            }
            edges.push((start, kw));
            edges.push((start.saturating_add(duration), -kw));
        }
        edges.sort_by_key(|&(t, _)| t);
        let mut trace = LoadTrace::new();
        let mut level = 0.0;
        let mut i = 0;
        while i < edges.len() {
            let t = edges[i].0;
            while i < edges.len() && edges[i].0 == t {
                level += edges[i].1;
                i += 1;
            }
            // Clamp float dust at pulse ends.
            if level.abs() < 1e-12 {
                level = 0.0;
            }
            trace.record(t, level);
        }
        trace
    }
}

impl FromIterator<(SimTime, f64)> for LoadTrace {
    fn from_iter<T: IntoIterator<Item = (SimTime, f64)>>(iter: T) -> Self {
        let mut trace = LoadTrace::new();
        for (t, v) in iter {
            trace.record(t, v);
        }
        trace
    }
}

/// The exact mean the tests hold peaks, energies and samples against.
#[cfg(test)]
impl LoadTrace {
    /// Exact time-weighted mean load over `[start, end)`, in kW.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub(crate) fn time_weighted_mean(&self, start: SimTime, end: SimTime) -> f64 {
        self.fold_segments(start, end, 0.0, |acc, value, dur| {
            acc + value * dur.as_secs_f64()
        }) / (end - start).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    fn square_wave() -> LoadTrace {
        // 0 kW on [0,10), 4 kW on [10,20), 0 kW from 20.
        [(t(0), 0.0), (t(10), 4.0), (t(20), 0.0)]
            .into_iter()
            .collect()
    }

    #[test]
    fn value_lookup() {
        let tr = square_wave();
        assert_eq!(tr.value_at(SimTime::ZERO), 0.0);
        assert_eq!(tr.value_at(t(10)), 4.0);
        assert_eq!(tr.value_at(t(15)), 4.0);
        assert_eq!(tr.value_at(t(20)), 0.0);
        assert_eq!(tr.value_at(t(99)), 0.0);
    }

    #[test]
    fn value_before_first_breakpoint_is_zero() {
        let tr: LoadTrace = [(t(5), 2.0)].into_iter().collect();
        assert_eq!(tr.value_at(t(0)), 0.0);
        assert_eq!(tr.value_at(t(4)), 0.0);
        assert_eq!(tr.value_at(t(5)), 2.0);
    }

    #[test]
    fn same_instant_overwrites() {
        let mut tr = LoadTrace::new();
        tr.record(t(1), 1.0);
        tr.record(t(1), 3.0);
        assert_eq!(tr.points().len(), 1);
        assert_eq!(tr.value_at(t(1)), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn backwards_record_panics() {
        let mut tr = LoadTrace::new();
        tr.record(t(5), 1.0);
        tr.record(t(4), 1.0);
    }

    #[test]
    fn mean_of_square_wave() {
        let tr = square_wave();
        // 4 kW for a third of [0,30): mean 4/3.
        let mean = tr.time_weighted_mean(t(0), t(30));
        assert!((mean - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn peak_and_energy() {
        let tr = square_wave();
        assert_eq!(tr.peak(t(0), t(30)), 4.0);
        assert_eq!(tr.peak(t(0), t(10)), 0.0);
        // 4 kW × (10/60) h = 2/3 kWh.
        assert!((tr.energy_kwh(t(0), t(30)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn interval_intersection() {
        let tr = square_wave();
        // [15, 25): 4 kW for 5 min then 0 for 5 min.
        let mean = tr.time_weighted_mean(t(15), t(25));
        assert!((mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_steps() {
        let tr = square_wave();
        let s = tr.sample(t(0), t(30), SimDuration::from_mins(5));
        assert_eq!(s, vec![0.0, 0.0, 4.0, 4.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn sampling_clamps_last_point() {
        let tr = square_wave();
        let s = tr.sample(t(0), t(12), SimDuration::from_mins(5));
        // t = 0, 5, 10, 12.
        assert_eq!(s, vec![0.0, 0.0, 4.0, 4.0]);
    }

    #[test]
    fn empty_trace_stats() {
        let tr = LoadTrace::new();
        assert_eq!(tr.time_weighted_mean(t(0), t(10)), 0.0);
        assert_eq!(tr.peak(t(0), t(10)), 0.0);
        assert_eq!(tr.energy_kwh(t(0), t(10)), 0.0);
        assert!(tr.points().is_empty());
    }

    #[test]
    fn pulses_overlap_and_sum() {
        let tr = LoadTrace::from_pulses([
            (t(0), SimDuration::from_mins(10), 1.0),
            (t(5), SimDuration::from_mins(10), 2.0),
        ]);
        assert_eq!(tr.value_at(t(2)), 1.0);
        assert_eq!(tr.value_at(t(7)), 3.0);
        assert_eq!(tr.value_at(t(12)), 2.0);
        assert_eq!(tr.value_at(t(20)), 0.0);
        assert_eq!(tr.peak(t(0), t(30)), 3.0);
        // Energy: 1 kW x 10 min + 2 kW x 10 min = 0.5 kWh.
        assert!((tr.energy_kwh(t(0), t(30)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn simultaneous_pulse_edges_merge() {
        let tr = LoadTrace::from_pulses([
            (t(0), SimDuration::from_mins(10), 1.5),
            (t(10), SimDuration::from_mins(10), 1.5),
        ]);
        // The end of one and start of the next coincide: flat 1.5.
        assert_eq!(tr.value_at(t(10)), 1.5);
        assert_eq!(tr.peak(t(0), t(25)), 1.5);
    }

    #[test]
    fn empty_and_zero_pulses_ignored() {
        let tr = LoadTrace::from_pulses([
            (t(0), SimDuration::ZERO, 5.0),
            (t(1), SimDuration::from_mins(1), 0.0),
        ]);
        assert!(tr.points().is_empty());
    }
}
