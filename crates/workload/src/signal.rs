//! Grid-facing power signals a home plans against.
//!
//! The paper coordinates loads *within* one HAN. A layer above it — a
//! feeder coordinator, a utility price broadcast, a grid operator — speaks
//! to a home in one currency: **how much power the home's scheduler may
//! admit at a given time**. [`PowerCapProfile`] is that currency: a
//! validated, piecewise-constant cap (kW over simulation time) that the
//! coordinated planner consults each round. The cap shapes *admission
//! only* — a device endangered by the cap is still forced ON by the
//! planner's laxity guard, so duty-cycle obligations survive any signal,
//! however aggressive.
//!
//! Profiles are deliberately dumb data: `han-core`'s feeder subsystem
//! derives them from richer signals (capacity caps, time-of-use tariffs,
//! congestion feedback) and hands them to each home via
//! [`Scenario::power_cap`](crate::scenario::Scenario).

use crate::fleet::ScenarioError;
use han_sim::time::{SimDuration, SimTime};

/// A piecewise-constant admission cap, in kilowatts over simulation time.
///
/// The profile is a step function: `steps[k] = (t_k, cap_k)` means the cap
/// `cap_k` holds on `[t_k, t_{k+1})`. The first step is pinned at
/// [`SimTime::ZERO`], so the cap is defined at every instant. Caps may be
/// [`f64::INFINITY`] — [`PowerCapProfile::unlimited`] is the identity
/// signal under which a planner behaves exactly as if no profile were set.
///
/// # Examples
///
/// ```
/// use han_sim::time::SimTime;
/// use han_workload::signal::PowerCapProfile;
///
/// let cap = PowerCapProfile::from_steps(vec![
///     (SimTime::ZERO, 6.0),
///     (SimTime::from_hours(17), 3.0), // evening curtailment
///     (SimTime::from_hours(21), 6.0),
/// ])?;
/// assert_eq!(cap.cap_at(SimTime::from_hours(18)), 3.0);
/// assert_eq!(cap.cap_at(SimTime::from_hours(21)), 6.0);
/// # Ok::<(), han_workload::fleet::ScenarioError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCapProfile {
    /// `(instant, cap_kw)` breakpoints, strictly increasing in time,
    /// starting at `SimTime::ZERO`.
    steps: Vec<(SimTime, f64)>,
}

impl PowerCapProfile {
    /// The identity signal: an infinite cap at all times. A planner given
    /// this profile behaves bit-identically to one given no profile.
    pub fn unlimited() -> Self {
        PowerCapProfile {
            steps: vec![(SimTime::ZERO, f64::INFINITY)],
        }
    }

    /// A constant cap.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidCapProfile`] if `cap_kw` is negative or NaN.
    pub fn constant(cap_kw: f64) -> Result<Self, ScenarioError> {
        PowerCapProfile::from_steps(vec![(SimTime::ZERO, cap_kw)])
    }

    /// A profile from explicit `(instant, cap_kw)` steps; each cap holds
    /// until the next step.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidCapProfile`] if `steps` is empty, does not
    /// start at [`SimTime::ZERO`], is not strictly increasing in time, or
    /// contains a negative or NaN cap (`+inf` is allowed: "no limit").
    pub fn from_steps(steps: Vec<(SimTime, f64)>) -> Result<Self, ScenarioError> {
        if steps.is_empty() {
            return Err(ScenarioError::InvalidCapProfile {
                reason: "profile must contain at least one step",
            });
        }
        if steps[0].0 != SimTime::ZERO {
            return Err(ScenarioError::InvalidCapProfile {
                reason: "profile must start at time zero",
            });
        }
        for pair in steps.windows(2) {
            if pair[1].0 <= pair[0].0 {
                return Err(ScenarioError::InvalidCapProfile {
                    reason: "steps must be strictly increasing in time",
                });
            }
        }
        if steps.iter().any(|&(_, kw)| kw.is_nan() || kw < 0.0) {
            return Err(ScenarioError::InvalidCapProfile {
                reason: "caps must be non-negative (infinity allowed)",
            });
        }
        Ok(PowerCapProfile { steps })
    }

    /// A profile from fixed-interval samples starting at time zero:
    /// `samples[k]` holds on `[k·interval, (k+1)·interval)`, and the last
    /// sample holds forever. Consecutive equal samples are merged, so a
    /// flat tail costs one step.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidCapProfile`] if `interval` is zero, the
    /// samples are empty, or any sample is negative or NaN.
    pub fn from_samples(interval: SimDuration, samples: &[f64]) -> Result<Self, ScenarioError> {
        if interval.is_zero() {
            return Err(ScenarioError::InvalidCapProfile {
                reason: "sample interval must be positive",
            });
        }
        let mut steps: Vec<(SimTime, f64)> = Vec::new();
        for (k, &kw) in samples.iter().enumerate() {
            if steps.last().is_none_or(|&(_, prev)| prev != kw) {
                steps.push((SimTime::ZERO + interval * k as u64, kw));
            }
        }
        PowerCapProfile::from_steps(steps)
    }

    /// The cap in force at instant `t`, in kW.
    pub fn cap_at(&self, t: SimTime) -> f64 {
        match self.steps.binary_search_by(|(at, _)| at.cmp(&t)) {
            Ok(i) => self.steps[i].1,
            // `steps[0].0 == ZERO`, so `Err(0)` is unreachable for any `t`.
            Err(i) => self.steps[i.saturating_sub(1)].1,
        }
    }

    /// Whether the profile never constrains anything (infinite everywhere).
    pub fn is_unlimited(&self) -> bool {
        self.steps.iter().all(|&(_, kw)| kw == f64::INFINITY)
    }

    /// The lowest cap anywhere in the profile, in kW.
    pub fn min_cap_kw(&self) -> f64 {
        self.steps
            .iter()
            .map(|&(_, kw)| kw)
            .fold(f64::INFINITY, f64::min)
    }

    /// The raw `(instant, cap_kw)` steps.
    pub fn steps(&self) -> &[(SimTime, f64)] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    #[test]
    fn constant_profile_queries() {
        let p = PowerCapProfile::constant(4.5).unwrap();
        assert_eq!(p.cap_at(SimTime::ZERO), 4.5);
        assert_eq!(p.cap_at(t(1000)), 4.5);
        assert_eq!(p.min_cap_kw(), 4.5);
        assert!(!p.is_unlimited());
    }

    #[test]
    fn unlimited_is_identity() {
        let p = PowerCapProfile::unlimited();
        assert!(p.is_unlimited());
        assert_eq!(p.cap_at(t(42)), f64::INFINITY);
    }

    #[test]
    fn step_lookup_and_boundaries() {
        let p = PowerCapProfile::from_steps(vec![(SimTime::ZERO, 6.0), (t(30), 2.0), (t(60), 6.0)])
            .unwrap();
        assert_eq!(p.cap_at(t(29)), 6.0);
        assert_eq!(p.cap_at(t(30)), 2.0, "steps are left-closed");
        assert_eq!(p.cap_at(t(59)), 2.0);
        assert_eq!(p.cap_at(t(60)), 6.0);
        assert_eq!(p.cap_at(t(61)), 6.0);
        assert_eq!(p.min_cap_kw(), 2.0);
    }

    #[test]
    fn from_samples_merges_runs() {
        let p = PowerCapProfile::from_samples(
            SimDuration::from_mins(1),
            &[5.0, 5.0, 3.0, 3.0, 3.0, 5.0],
        )
        .unwrap();
        assert_eq!(p.steps().len(), 3);
        assert_eq!(p.cap_at(t(1)), 5.0);
        assert_eq!(p.cap_at(t(4)), 3.0);
        assert_eq!(p.cap_at(t(100)), 5.0, "last sample holds forever");
        assert_eq!(
            p.cap_at(t(2)),
            3.0,
            "a merged run starts at its first sample"
        );
    }

    #[test]
    fn invalid_profiles_rejected() {
        for bad in [
            PowerCapProfile::from_steps(vec![]),
            PowerCapProfile::from_steps(vec![(t(5), 1.0)]),
            PowerCapProfile::from_steps(vec![(SimTime::ZERO, 1.0), (SimTime::ZERO, 2.0)]),
            PowerCapProfile::from_steps(vec![(SimTime::ZERO, -1.0)]),
            PowerCapProfile::from_steps(vec![(SimTime::ZERO, f64::NAN)]),
            PowerCapProfile::constant(-0.5),
            PowerCapProfile::from_samples(SimDuration::ZERO, &[1.0]),
            PowerCapProfile::from_samples(SimDuration::from_mins(1), &[]),
        ] {
            assert!(matches!(bad, Err(ScenarioError::InvalidCapProfile { .. })));
        }
        // Infinity is a legal cap ("no limit here").
        assert!(PowerCapProfile::constant(f64::INFINITY).is_ok());
    }
}
