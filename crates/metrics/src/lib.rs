//! # han-metrics — load traces, statistics and experiment reports
//!
//! The measurement half of the reproduction:
//!
//! * [`timeseries`] — [`timeseries::LoadTrace`], a step-function record of
//!   total load with exact time-weighted statistics and the per-minute
//!   sampling used by the paper's figures;
//! * [`stats`] — [`stats::Summary`] (peak / mean / std-dev, Fig. 2b–c),
//!   percentiles and reduction percentages;
//! * [`report`] — comparison tables and series CSV shared by all
//!   figure-reproduction harnesses;
//! * [`ResilienceStats`] — availability and recovery-time accounting for
//!   fault-injected runs;
//! * [`tariff`] — time-of-use pricing and peak-demand charges, the money
//!   view of a load shape.
//!
//! Loads are carried as `f64` **kilowatts** throughout, matching the
//! paper's axes.
//!
//! # Public API
//!
//! What `han-core`, `hansim`, the bench bins, perfbench and the examples
//! call: the load trace and its sampling, summaries and percentiles, the
//! comparison table, the resilience ledger, and the tariff and billing
//! types. Everything else is crate-private.
//!
//! # Examples
//!
//! ```
//! use han_metrics::timeseries::LoadTrace;
//! use han_metrics::stats::Summary;
//! use han_sim::time::{SimDuration, SimTime};
//!
//! let mut trace = LoadTrace::new();
//! trace.record(SimTime::ZERO, 0.0);
//! trace.record(SimTime::from_mins(10), 4.0);
//! trace.record(SimTime::from_mins(20), 0.0);
//!
//! let samples = trace.sample(SimTime::ZERO, SimTime::from_mins(30), SimDuration::from_mins(1));
//! let summary = Summary::of(&samples);
//! assert_eq!(summary.peak, 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod report;
mod resilience;
pub mod stats;
pub mod tariff;
pub mod timeseries;

pub use report::{ComparisonReport, ComparisonRow};
pub use resilience::ResilienceStats;
pub use stats::Summary;
pub use tariff::{demand_charge, Billing, CostBreakdown, TimeOfUseTariff};
pub use timeseries::LoadTrace;

#[cfg(test)]
mod proptests {
    // Property-based tests of load-trace statistics identities.
    use crate::stats::{percentile, Summary};
    use crate::timeseries::LoadTrace;
    use han_sim::time::{SimDuration, SimTime};
    use proptest::prelude::*;

    fn arb_trace() -> impl Strategy<Value = LoadTrace> {
        // Strictly increasing times with bounded values.
        prop::collection::vec((1u64..200, 0u32..20_000), 1..60).prop_map(|steps| {
            let mut trace = LoadTrace::new();
            let mut t = 0u64;
            for (dt, kw_milli) in steps {
                t += dt;
                trace.record(SimTime::from_secs(t), f64::from(kw_milli) / 1000.0);
            }
            trace
        })
    }

    proptest! {
        #[test]
        fn peak_bounds_mean(trace in arb_trace()) {
            let end = SimTime::from_secs(20_000);
            let mean = trace.time_weighted_mean(SimTime::ZERO, end);
            let peak = trace.peak(SimTime::ZERO, end);
            prop_assert!(peak >= mean - 1e-12, "peak {} < mean {}", peak, mean);
            prop_assert!(mean >= 0.0);
        }

        #[test]
        fn energy_equals_mean_times_duration(trace in arb_trace()) {
            let end = SimTime::from_secs(20_000);
            let mean = trace.time_weighted_mean(SimTime::ZERO, end);
            let energy = trace.energy_kwh(SimTime::ZERO, end);
            let hours = (end - SimTime::ZERO).as_hours_f64();
            prop_assert!((energy - mean * hours).abs() < 1e-9);
        }

        #[test]
        fn interval_additivity(trace in arb_trace(), split_s in 1u64..19_999) {
            let end = SimTime::from_secs(20_000);
            let split = SimTime::from_secs(split_s);
            let whole = trace.energy_kwh(SimTime::ZERO, end);
            let parts =
                trace.energy_kwh(SimTime::ZERO, split) + trace.energy_kwh(split, end);
            prop_assert!((whole - parts).abs() < 1e-9);
        }

        #[test]
        fn sampled_stats_bounded_by_exact(trace in arb_trace()) {
            let end = SimTime::from_secs(20_000);
            let samples = trace.sample(SimTime::ZERO, end, SimDuration::from_secs(60));
            let summary = Summary::of(&samples);
            let exact_peak = trace.peak(SimTime::ZERO, end);
            // Sampling can only miss peaks, never invent them.
            prop_assert!(summary.peak <= exact_peak + 1e-12);
            prop_assert!(summary.min >= 0.0);
        }

        #[test]
        fn value_at_matches_last_breakpoint(trace in arb_trace(), at_s in 0u64..25_000) {
            let at = SimTime::from_secs(at_s);
            let v = trace.value_at(at);
            let expected = trace
                .points()
                .iter()
                .rev()
                .find(|&&(t, _)| t <= at)
                .map_or(0.0, |&(_, kw)| kw);
            prop_assert_eq!(v, expected);
        }

        #[test]
        fn percentile_is_monotone(values in prop::collection::vec(0.0f64..100.0, 1..50)) {
            let p25 = percentile(&values, 25.0);
            let p50 = percentile(&values, 50.0);
            let p75 = percentile(&values, 75.0);
            prop_assert!(p25 <= p50 && p50 <= p75);
            let s = Summary::of(&values);
            prop_assert!(percentile(&values, 0.0) >= s.min - 1e-12);
            prop_assert!(percentile(&values, 100.0) <= s.peak + 1e-12);
        }
    }
}
