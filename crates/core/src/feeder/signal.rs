//! Feeder-level coordination signals and their per-home translation.
//!
//! A [`FeederSignal`] is what the coordinator broadcasts to every home on
//! the feeder each iteration. Homes cannot act on a feeder-wide quantity
//! directly — their planners speak admission caps — so the signal's job is
//! to **resolve** into one [`PowerCapProfile`] per home, given the current
//! aggregate and the home's own share of it:
//!
//! * [`FeederSignal::Capacity`] — a hard feeder limit `C(t)`. Home `i`
//!   gets the residual headroom `C(t) − (A(t) − a_i(t))`: the cap left
//!   over after every *other* home's current draw. This is the classic
//!   additive-update scheme of distributed neighborhood scheduling
//!   (Jeddi, Mishra & Ledwich 2020): when the aggregate fits under the
//!   cap everywhere, every home sees more headroom than it uses and the
//!   independent solution is a fixed point; when it does not, exactly the
//!   over-cap minutes tighten.
//! * [`FeederSignal::TimeOfUse`] — a price broadcast. Each home's cap is
//!   its rated power scaled by the *relative* price
//!   `(p_min / p(t))^elasticity`, so cheap hours are unconstrained and
//!   expensive hours admit proportionally less. The signal does not
//!   depend on the aggregate, so the iteration converges as soon as the
//!   homes have re-planned once against it.
//! * [`FeederSignal::Congestion`] — a dynamic cap *derived from* the
//!   current aggregate: each iteration the feeder target is
//!   `utilization × peak(A)` (floored at the aggregate mean — load can be
//!   shifted, not shed), then distributed residually like a capacity cap.
//!   The target ratchets the peak down iteration by iteration until the
//!   aggregate stops moving.
//!
//! Every resolution clamps at zero and never constrains *obligations* —
//! the planner's laxity forcing is cap-oblivious by design, so a signal
//! can only defer admission, never cause a deadline miss.

use crate::experiment::SAMPLE_INTERVAL;
use han_metrics::tariff::TimeOfUseTariff;
use han_sim::time::SimTime;
use han_workload::fleet::ScenarioError;
use han_workload::signal::PowerCapProfile;
use std::fmt;

/// A feeder-level coordination signal broadcast to every home.
#[derive(Debug, Clone, PartialEq)]
pub enum FeederSignal {
    /// A hard, possibly time-varying feeder capacity limit in kW.
    Capacity(PowerCapProfile),
    /// A time-of-use price signal; homes curtail admission in expensive
    /// hours proportionally to the relative price.
    TimeOfUse {
        /// The broadcast price schedule.
        tariff: TimeOfUseTariff,
        /// Price responsiveness: the cap fraction is
        /// `(p_min / p(t))^elasticity`. `0` ignores prices entirely,
        /// `1` (the conventional default) scales inversely with price.
        elasticity: f64,
    },
    /// A dynamic congestion cap derived from the current aggregate.
    Congestion {
        /// Target feeder peak as a fraction of the current iterate's peak
        /// (e.g. `0.9` asks the street to shave 10% off whatever peak it
        /// currently produces). Values ≥ 1 never constrain.
        utilization: f64,
    },
}

impl FeederSignal {
    /// A time-of-use signal with the conventional unit elasticity.
    pub fn time_of_use(tariff: TimeOfUseTariff) -> Self {
        FeederSignal::TimeOfUse {
            tariff,
            elasticity: 1.0,
        }
    }

    /// Validates signal parameters.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidCapProfile`] for a negative or non-finite
    /// elasticity or utilization (profiles are valid by construction).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match self {
            FeederSignal::Capacity(_) => Ok(()),
            FeederSignal::TimeOfUse { elasticity, .. } => {
                if !elasticity.is_finite() || *elasticity < 0.0 {
                    return Err(ScenarioError::InvalidCapProfile {
                        reason: "time-of-use elasticity must be finite and non-negative",
                    });
                }
                Ok(())
            }
            FeederSignal::Congestion { utilization } => {
                if !utilization.is_finite() || *utilization < 0.0 {
                    return Err(ScenarioError::InvalidCapProfile {
                        reason: "congestion utilization must be finite and non-negative",
                    });
                }
                Ok(())
            }
        }
    }

    /// Whether the resolved caps depend on the aggregate (aggregate-blind
    /// signals reach their fixed point after a single re-plan).
    pub fn tracks_aggregate(&self) -> bool {
        !matches!(self, FeederSignal::TimeOfUse { .. })
    }

    /// Scores an aggregate by this signal's own objective — lower is
    /// better, compared lexicographically:
    ///
    /// * capacity: worst over-cap excess first (0 when the aggregate fits
    ///   everywhere), feeder peak second;
    /// * time-of-use: energy cost under the tariff first, feeder peak
    ///   second;
    /// * congestion: feeder peak alone.
    ///
    /// The coordinator seeds the candidate set with the independent
    /// (signal-free) solution and commits the best-scoring iterate, so a
    /// signal can only improve its own objective, never regress it — even
    /// when an undamped Jacobi iteration oscillates.
    pub fn score(&self, aggregate: &[f64]) -> (f64, f64) {
        let peak = aggregate.iter().copied().fold(0.0f64, f64::max);
        match self {
            FeederSignal::Capacity(profile) => {
                let excess = aggregate
                    .iter()
                    .enumerate()
                    .map(|(m, &kw)| (kw - profile.cap_at(minute_instant(m))).max(0.0))
                    .fold(0.0f64, f64::max);
                (excess, peak)
            }
            FeederSignal::TimeOfUse { tariff, .. } => {
                let hours = SAMPLE_INTERVAL.as_hours_f64();
                let energy_cost: f64 = aggregate
                    .iter()
                    .enumerate()
                    .map(|(m, &kw)| kw * hours * tariff.rate_at(minute_instant(m)))
                    .sum();
                (energy_cost, peak)
            }
            FeederSignal::Congestion { .. } => (peak, 0.0),
        }
    }

    /// Resolves the broadcast into one home's admission-cap profile.
    ///
    /// `feeder` is the current per-minute aggregate of all homes, `home`
    /// the same-resolution series of this home's own draw (shorter series
    /// are zero past their end), and `rated_kw` the home's total rated
    /// power (the natural cap scale for price signals).
    pub(crate) fn resolve_home_cap(
        &self,
        feeder: &[f64],
        home: &[f64],
        rated_kw: f64,
    ) -> Result<PowerCapProfile, ScenarioError> {
        match self {
            FeederSignal::Capacity(profile) => {
                residual_cap(feeder, home, |m| profile.cap_at(minute_instant(m)))
            }
            FeederSignal::TimeOfUse { tariff, elasticity } => {
                let min_rate = (0..24)
                    .map(|h| tariff.rate_at(SimTime::from_hours(h)))
                    .filter(|r| *r > 0.0)
                    .fold(f64::INFINITY, f64::min);
                if !min_rate.is_finite() {
                    // An all-zero tariff prices nothing: no constraint.
                    return Ok(PowerCapProfile::unlimited());
                }
                let caps: Vec<f64> = (0..feeder.len().max(1))
                    .map(|m| {
                        let rate = tariff.rate_at(minute_instant(m));
                        let fraction = if rate <= 0.0 {
                            1.0
                        } else {
                            (min_rate / rate).powf(*elasticity).min(1.0)
                        };
                        rated_kw * fraction
                    })
                    .collect();
                PowerCapProfile::from_samples(SAMPLE_INTERVAL, &caps)
            }
            FeederSignal::Congestion { utilization } => {
                let peak = feeder.iter().copied().fold(0.0f64, f64::max);
                let mean = if feeder.is_empty() {
                    0.0
                } else {
                    feeder.iter().sum::<f64>() / feeder.len() as f64
                };
                // Load is shifted, never shed: the target cannot drop
                // below the mean the energy demands.
                let target = (utilization * peak).max(mean);
                residual_cap(feeder, home, |_| target)
            }
        }
    }
}

impl fmt::Display for FeederSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeederSignal::Capacity(profile) => {
                if profile.is_unlimited() {
                    write!(f, "capacity cap (unlimited)")
                } else {
                    write!(f, "capacity cap (min {:.2} kW)", profile.min_cap_kw())
                }
            }
            FeederSignal::TimeOfUse { elasticity, .. } => {
                write!(f, "time-of-use price (elasticity {elasticity})")
            }
            FeederSignal::Congestion { utilization } => {
                write!(f, "congestion (target {:.0}% of peak)", utilization * 100.0)
            }
        }
    }
}

/// The simulation instant of per-minute sample `m`.
fn minute_instant(m: usize) -> SimTime {
    SimTime::ZERO + SAMPLE_INTERVAL * m as u64
}

/// Residual-headroom cap: per minute, the feeder limit minus every *other*
/// home's current draw, clamped at zero.
fn residual_cap(
    feeder: &[f64],
    home: &[f64],
    limit_at: impl Fn(usize) -> f64,
) -> Result<PowerCapProfile, ScenarioError> {
    let caps: Vec<f64> = (0..feeder.len().max(1))
        .map(|m| {
            let others =
                feeder.get(m).copied().unwrap_or(0.0) - home.get(m).copied().unwrap_or(0.0);
            (limit_at(m) - others.max(0.0)).max(0.0)
        })
        .collect();
    PowerCapProfile::from_samples(SAMPLE_INTERVAL, &caps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_resolves_to_residual_headroom() {
        let signal = FeederSignal::Capacity(PowerCapProfile::constant(10.0).unwrap());
        let feeder = [6.0, 12.0, 4.0];
        let home = [2.0, 3.0, 4.0];
        let cap = signal.resolve_home_cap(&feeder, &home, 5.0).unwrap();
        // minute 0: 10 − (6−2) = 6; minute 1: 10 − 9 = 1; minute 2: 10.
        assert_eq!(cap.cap_at(SimTime::ZERO), 6.0);
        assert_eq!(cap.cap_at(SimTime::from_mins(1)), 1.0);
        assert_eq!(cap.cap_at(SimTime::from_mins(2)), 10.0);
    }

    #[test]
    fn overloaded_minutes_clamp_at_zero() {
        let signal = FeederSignal::Capacity(PowerCapProfile::constant(3.0).unwrap());
        let cap = signal.resolve_home_cap(&[9.0], &[1.0], 5.0).unwrap();
        assert_eq!(cap.cap_at(SimTime::ZERO), 0.0);
    }

    #[test]
    fn unlimited_capacity_resolves_unlimited() {
        // INF − finite = INF: the identity signal survives resolution.
        let signal = FeederSignal::Capacity(PowerCapProfile::unlimited());
        let cap = signal
            .resolve_home_cap(&[5.0, 7.0], &[2.0, 2.0], 5.0)
            .unwrap();
        assert!(cap.is_unlimited());
    }

    #[test]
    fn tou_scales_with_relative_price() {
        let signal = FeederSignal::time_of_use(TimeOfUseTariff::typical_residential());
        // 2 hours of samples reach into the 0.10 off-peak band at hour 0.
        let feeder = vec![1.0; 120];
        let cap = signal.resolve_home_cap(&feeder, &feeder, 4.0).unwrap();
        // Hour 0 is off-peak (0.10 = min rate): fraction 1.
        assert!((cap.cap_at(SimTime::ZERO) - 4.0).abs() < 1e-12);
        assert!(!signal.tracks_aggregate());

        // Evening peak hour (17:00, rate 0.32): fraction 0.10/0.32.
        let day = vec![1.0; 24 * 60];
        let cap = signal.resolve_home_cap(&day, &day, 4.0).unwrap();
        let evening = cap.cap_at(SimTime::from_hours(18));
        assert!((evening - 4.0 * 0.10 / 0.32).abs() < 1e-9, "{evening}");
    }

    #[test]
    fn congestion_targets_fraction_of_peak() {
        let signal = FeederSignal::Congestion { utilization: 0.5 };
        let feeder = [2.0, 8.0, 2.0];
        let home = [1.0, 4.0, 1.0];
        // Target = max(0.5 × 8, mean 4) = 4.
        let cap = signal.resolve_home_cap(&feeder, &home, 5.0).unwrap();
        assert_eq!(cap.cap_at(SimTime::ZERO), 3.0); // 4 − (2−1)
        assert_eq!(cap.cap_at(SimTime::from_mins(1)), 0.0); // 4 − 4
        assert!(signal.tracks_aggregate());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(FeederSignal::TimeOfUse {
            tariff: TimeOfUseTariff::typical_residential(),
            elasticity: -1.0,
        }
        .validate()
        .is_err());
        assert!(FeederSignal::Congestion {
            utilization: f64::NAN
        }
        .validate()
        .is_err());
        assert!(FeederSignal::Capacity(PowerCapProfile::unlimited())
            .validate()
            .is_ok());
    }

    #[test]
    fn display_names() {
        assert!(
            FeederSignal::Capacity(PowerCapProfile::constant(5.0).unwrap())
                .to_string()
                .contains("5.00 kW")
        );
        assert!(
            FeederSignal::time_of_use(TimeOfUseTariff::typical_residential())
                .to_string()
                .contains("time-of-use")
        );
        assert!(FeederSignal::Congestion { utilization: 0.9 }
            .to_string()
            .contains("90%"));
    }
}
