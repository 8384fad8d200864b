//! Electricity tariffs: what the load shape costs.
//!
//! The paper motivates load management with electricity pricing and
//! peak-demand limits. This module prices a [`LoadTrace`] under the two
//! standard residential schemes:
//!
//! * **time-of-use energy charges** — a rate per kWh that varies by hour
//!   of day ([`TimeOfUseTariff`]);
//! * **peak-demand charges** — a monthly fee per kW of the highest demand
//!   reached ([`demand_charge`]), the component coordination attacks
//!   directly.

use crate::timeseries::LoadTrace;
use han_sim::time::{SimDuration, SimTime};

/// A 24-hour time-of-use price profile, currency units per kWh.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeOfUseTariff {
    hourly_rate: [f64; 24],
}

impl TimeOfUseTariff {
    /// Creates a tariff from 24 hourly rates (per kWh).
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or non-finite.
    pub(crate) fn new(hourly_rate: [f64; 24]) -> Self {
        assert!(
            hourly_rate.iter().all(|r| r.is_finite() && *r >= 0.0),
            "tariff rates must be finite and non-negative"
        );
        TimeOfUseTariff { hourly_rate }
    }

    /// A typical residential ToU schedule: off-peak 0.10/kWh (23:00–06:00),
    /// shoulder 0.18, evening peak 0.32 (17:00–21:00).
    pub fn typical_residential() -> Self {
        let mut r = [0.18f64; 24];
        for h in [23, 0, 1, 2, 3, 4, 5] {
            r[h] = 0.10;
        }
        for rate in &mut r[17..21] {
            *rate = 0.32;
        }
        TimeOfUseTariff::new(r)
    }

    /// The rate in force at a simulation instant (wraps daily).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.hourly_rate[((t.as_secs() / 3600) % 24) as usize]
    }

    /// Total energy cost of a trace over `[start, end)`.
    ///
    /// Integrates hour by hour so rate boundaries are respected exactly.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn energy_cost(&self, trace: &LoadTrace, start: SimTime, end: SimTime) -> f64 {
        assert!(end > start, "empty interval");
        let mut cost = 0.0;
        let mut cursor = start;
        while cursor < end {
            let next_hour = cursor.ceil_to(SimDuration::from_hours(1));
            let segment_end = if next_hour == cursor {
                (cursor + SimDuration::from_hours(1)).min(end)
            } else {
                next_hour.min(end)
            };
            cost += trace.energy_kwh(cursor, segment_end) * self.rate_at(cursor);
            cursor = segment_end;
        }
        cost
    }
}

/// Peak-demand charge: the billing-period fee for the highest demand
/// reached, `rate_per_kw × peak(trace)`.
///
/// # Panics
///
/// Panics if `end <= start` or the rate is negative.
pub fn demand_charge(trace: &LoadTrace, start: SimTime, end: SimTime, rate_per_kw: f64) -> f64 {
    assert!(rate_per_kw >= 0.0, "rate must be non-negative");
    trace.peak(start, end).max(0.0) * rate_per_kw
}

/// A complete residential billing scheme: time-of-use energy charges plus
/// a peak-demand charge — the money view of a load shape, and the price
/// component of a feeder coordination signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Billing {
    /// Energy price schedule, per kWh by hour of day.
    pub tariff: TimeOfUseTariff,
    /// Billing-period demand charge, currency units per kW of peak.
    pub demand_rate_per_kw: f64,
}

impl Billing {
    /// Creates a billing scheme.
    ///
    /// # Panics
    ///
    /// Panics if `demand_rate_per_kw` is negative or non-finite.
    pub(crate) fn new(tariff: TimeOfUseTariff, demand_rate_per_kw: f64) -> Self {
        assert!(
            demand_rate_per_kw.is_finite() && demand_rate_per_kw >= 0.0,
            "demand rate must be finite and non-negative"
        );
        Billing {
            tariff,
            demand_rate_per_kw,
        }
    }

    /// The typical residential scheme:
    /// [`TimeOfUseTariff::typical_residential`] energy rates plus a
    /// 10/kW demand charge.
    pub fn typical_residential() -> Self {
        Billing::new(TimeOfUseTariff::typical_residential(), 10.0)
    }

    /// Prices a load trace over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn cost(&self, trace: &LoadTrace, start: SimTime, end: SimTime) -> CostBreakdown {
        CostBreakdown {
            energy_cost: self.tariff.energy_cost(trace, start, end),
            demand_charge: demand_charge(trace, start, end, self.demand_rate_per_kw),
        }
    }

    /// Prices a fixed-interval sample series starting at time zero — the
    /// shape feeder-level aggregates come in, where no exact step trace
    /// exists. The series is read the way this repository samples
    /// (`0..=duration` **inclusive**): each sample holds for one interval
    /// except the last, which marks the end instant and is billed no
    /// energy (it still counts toward the demand peak). A series of
    /// `N + 1` samples therefore prices exactly `N` intervals.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn cost_of_samples(&self, interval: SimDuration, samples: &[f64]) -> CostBreakdown {
        assert!(!interval.is_zero(), "sample interval must be positive");
        let hours = interval.as_hours_f64();
        let billed = samples.len().saturating_sub(1);
        let mut energy_cost = 0.0;
        for (k, &kw) in samples.iter().take(billed).enumerate() {
            let at = SimTime::ZERO + interval * k as u64;
            energy_cost += kw * hours * self.tariff.rate_at(at);
        }
        let peak = samples.iter().copied().fold(0.0f64, f64::max);
        CostBreakdown {
            energy_cost,
            demand_charge: peak * self.demand_rate_per_kw,
        }
    }
}

/// The priced components of one load shape under a [`Billing`] scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Time-of-use energy charges, currency units.
    pub energy_cost: f64,
    /// Peak-demand charge, currency units.
    pub demand_charge: f64,
}

impl CostBreakdown {
    /// Energy plus demand charges.
    pub fn total(&self) -> f64 {
        self.energy_cost + self.demand_charge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_trace(kw: f64) -> LoadTrace {
        let mut t = LoadTrace::new();
        t.record(SimTime::ZERO, kw);
        t
    }

    #[test]
    fn flat_tariff_prices_energy() {
        let tariff = TimeOfUseTariff::new([0.20; 24]);
        let trace = constant_trace(2.0);
        // 2 kW for 5 h = 10 kWh at 0.20 = 2.0.
        let cost = tariff.energy_cost(&trace, SimTime::ZERO, SimTime::from_hours(5));
        assert!((cost - 2.0).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn tou_rates_wrap_daily() {
        let tariff = TimeOfUseTariff::typical_residential();
        assert_eq!(tariff.rate_at(SimTime::from_hours(18)), 0.32);
        assert_eq!(tariff.rate_at(SimTime::from_hours(2)), 0.10);
        assert_eq!(tariff.rate_at(SimTime::from_hours(26)), 0.10);
        assert_eq!(tariff.rate_at(SimTime::from_hours(12)), 0.18);
    }

    #[test]
    fn tou_integration_respects_boundaries() {
        // 1 kW from 16:30 to 17:30: half an hour at 0.18, half at 0.32.
        let mut trace = LoadTrace::new();
        trace.record(SimTime::from_secs(16 * 3600 + 1800), 1.0);
        trace.record(SimTime::from_secs(17 * 3600 + 1800), 0.0);
        let tariff = TimeOfUseTariff::typical_residential();
        let cost = tariff.energy_cost(&trace, SimTime::ZERO, SimTime::from_hours(24));
        assert!(
            (cost - (0.5 * 0.18 + 0.5 * 0.32)).abs() < 1e-9,
            "cost {cost}"
        );
    }

    #[test]
    fn mid_hour_start_priced_correctly() {
        // Pricing an interval that starts mid-hour must not skip ahead.
        let tariff = TimeOfUseTariff::new([1.0; 24]);
        let trace = constant_trace(1.0);
        let start = SimTime::from_secs(1800);
        let end = SimTime::from_secs(3 * 3600);
        let cost = tariff.energy_cost(&trace, start, end);
        assert!((cost - 2.5).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn demand_charge_scales_with_peak() {
        let mut trace = LoadTrace::new();
        trace.record(SimTime::ZERO, 3.0);
        trace.record(SimTime::from_hours(1), 8.0);
        trace.record(SimTime::from_hours(2), 1.0);
        let fee = demand_charge(&trace, SimTime::ZERO, SimTime::from_hours(3), 12.0);
        assert!((fee - 96.0).abs() < 1e-9, "fee {fee}");
    }

    #[test]
    fn billing_combines_energy_and_demand() {
        let billing = Billing::new(TimeOfUseTariff::new([0.20; 24]), 12.0);
        let trace = constant_trace(2.0);
        let cost = billing.cost(&trace, SimTime::ZERO, SimTime::from_hours(5));
        // 10 kWh at 0.20 = 2.0 energy; 2 kW peak × 12 = 24 demand.
        assert!((cost.energy_cost - 2.0).abs() < 1e-9);
        assert!((cost.demand_charge - 24.0).abs() < 1e-9);
        assert!((cost.total() - 26.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_cost_matches_exact_on_aligned_steps() {
        // A trace whose steps align with the sampling grid prices the same
        // whether the exact trace or its inclusive 0..=end samples are
        // billed (the endpoint sample is an instant, not an interval).
        let billing = Billing::typical_residential();
        let mut trace = LoadTrace::new();
        trace.record(SimTime::ZERO, 1.0);
        trace.record(SimTime::from_hours(2), 3.0);
        trace.record(SimTime::from_hours(4), 0.0);
        let exact = billing.cost(&trace, SimTime::ZERO, SimTime::from_hours(6));
        let interval = SimDuration::from_mins(1);
        let samples: Vec<f64> = (0..=6 * 60)
            .map(|m| trace.value_at(SimTime::from_mins(m)))
            .collect();
        let sampled = billing.cost_of_samples(interval, &samples);
        assert!((exact.energy_cost - sampled.energy_cost).abs() < 1e-9);
        assert!((exact.demand_charge - sampled.demand_charge).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_billing_rate_rejected() {
        Billing::new(TimeOfUseTariff::new([0.1; 24]), -1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tariff_rejected() {
        TimeOfUseTariff::new({
            let mut r = [0.1; 24];
            r[3] = -0.1;
            r
        });
    }
}
