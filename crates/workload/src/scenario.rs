//! Evaluation scenarios: a fleet, a workload, a duration, a seed.
//!
//! The paper's Section III fixes one shape — 26 identical 1 kW devices,
//! minDCD = 15 min, maxDCP = 30 min, 350-minute experiments at three
//! aggregate request rates (30/h, 18/h, 4/h) — available as the one-line
//! preset [`Scenario::paper`]. Everything else composes through
//! [`ScenarioBuilder`]: heterogeneous fleets via [`crate::fleet::FleetSpec`]
//! and time-varying workloads via [`Workload`].

use crate::arrivals::PoissonArrivals;
use crate::fleet::{DeviceClass, FleetSpec, ScenarioError};
use crate::household::{generate_household, DailyProfile};
use crate::signal::PowerCapProfile;
use han_device::request::Request;
use han_sim::time::{SimDuration, SimTime};
use std::fmt;

/// The paper's three arrival-rate regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalRate {
    /// 4 requests per hour.
    Low,
    /// 18 requests per hour.
    Moderate,
    /// 30 requests per hour.
    High,
}

impl ArrivalRate {
    /// Requests per hour for this regime.
    pub fn per_hour(self) -> f64 {
        match self {
            ArrivalRate::Low => 4.0,
            ArrivalRate::Moderate => 18.0,
            ArrivalRate::High => 30.0,
        }
    }

    /// All regimes in the order of the paper's x-axes.
    pub fn all() -> [ArrivalRate; 3] {
        [ArrivalRate::Low, ArrivalRate::Moderate, ArrivalRate::High]
    }
}

impl fmt::Display for ArrivalRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalRate::Low => write!(f, "low (4/h)"),
            ArrivalRate::Moderate => write!(f, "moderate (18/h)"),
            ArrivalRate::High => write!(f, "high (30/h)"),
        }
    }
}

/// The request source driving a scenario.
///
/// Unifies the constant-rate Poisson process of the paper's evaluation and
/// the inhomogeneous time-of-day process of a [`DailyProfile`] under
/// one generator interface.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Homogeneous Poisson arrivals at a constant aggregate rate.
    Poisson {
        /// Aggregate request rate, per hour.
        rate_per_hour: f64,
    },
    /// Inhomogeneous Poisson arrivals following a 24-hour rate profile
    /// (morning/evening household peaks), via thinning.
    Daily(DailyProfile),
}

impl Workload {
    /// Generates the request trace over `duration` across `device_count`
    /// devices, deterministically in `seed`.
    pub(crate) fn generate(
        &self,
        device_count: usize,
        duration: SimDuration,
        seed: u64,
    ) -> Vec<Request> {
        match self {
            Workload::Poisson { rate_per_hour } => {
                PoissonArrivals::new(*rate_per_hour, device_count).generate(duration, seed)
            }
            Workload::Daily(profile) => generate_household(profile, device_count, duration, seed),
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        if let Workload::Poisson { rate_per_hour } = self {
            if !rate_per_hour.is_finite() || *rate_per_hour < 0.0 {
                return Err(ScenarioError::InvalidRate {
                    rate_per_hour: *rate_per_hour,
                });
            }
        }
        Ok(())
    }
}

/// A complete experiment scenario: fleet + workload + duration + seed.
///
/// Build one with [`Scenario::builder`], or use the preset
/// [`Scenario::paper`]. Fields are public so
/// sweeps can derive variants with struct-update syntax
/// (`Scenario { seed, ..template.clone() }`).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Descriptive name used in reports.
    pub name: String,
    /// The device fleet under management.
    pub fleet: FleetSpec,
    /// The request source.
    pub workload: Workload,
    /// Experiment duration (paper: 350 min).
    pub duration: SimDuration,
    /// Workload RNG seed.
    pub seed: u64,
    /// Optional grid-imposed admission cap the home's coordinated planner
    /// must respect (the per-home face of a feeder-level signal; see
    /// [`crate::signal`]). `None` — the default everywhere — leaves the
    /// planner exactly as the paper specifies it. The cap shapes admission
    /// only: endangered obligations are still forced, so deadlines never
    /// depend on the signal.
    pub power_cap: Option<PowerCapProfile>,
}

impl Scenario {
    /// Starts building a scenario.
    ///
    /// # Examples
    ///
    /// ```
    /// use han_workload::fleet::DeviceClass;
    /// use han_workload::scenario::Scenario;
    /// use han_device::duty_cycle::DutyCycleConstraints;
    /// use han_device::ApplianceKind;
    /// use han_sim::time::SimDuration;
    ///
    /// let scenario = Scenario::builder("two-class home")
    ///     .class(DeviceClass::new("ac", ApplianceKind::AirConditioner, 1.5,
    ///                             DutyCycleConstraints::paper(), 2))
    ///     .class(DeviceClass::new("heater", ApplianceKind::WaterHeater, 2.0,
    ///                             DutyCycleConstraints::paper(), 1))
    ///     .poisson(12.0)
    ///     .duration(SimDuration::from_mins(120))
    ///     .seed(7)
    ///     .build()?;
    /// assert_eq!(scenario.device_count(), 3);
    /// assert!(!scenario.requests().is_empty());
    /// # Ok::<(), han_workload::fleet::ScenarioError>(())
    /// ```
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            classes: Vec::new(),
            workload: None,
            duration: SimDuration::from_mins(350),
            seed: 0,
        }
    }

    /// The paper's scenario at a given arrival-rate regime: 26 × 1 kW
    /// devices, 15/30 min constraints, 350 minutes.
    pub fn paper(rate: ArrivalRate, seed: u64) -> Self {
        Scenario {
            name: format!("paper {rate}"),
            fleet: FleetSpec::paper(),
            workload: Workload::Poisson {
                rate_per_hour: rate.per_hour(),
            },
            duration: SimDuration::from_mins(350),
            seed,
            power_cap: None,
        }
    }

    /// Number of devices in the fleet.
    pub fn device_count(&self) -> usize {
        self.fleet.device_count()
    }

    /// Generates this scenario's request trace.
    pub fn requests(&self) -> Vec<Request> {
        self.workload
            .generate(self.fleet.device_count(), self.duration, self.seed)
    }

    /// Validates the scenario's own fields (workload and duration; the
    /// fleet is valid by construction — [`FleetSpec::new`] is the only way
    /// to build one).
    ///
    /// Scenarios from [`Scenario::builder`] are already validated; this
    /// re-checks after direct field edits.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for the first violated constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.workload.validate()?;
        if self.duration.is_zero() {
            return Err(ScenarioError::ZeroDuration);
        }
        Ok(())
    }
}

/// Checks a fixed request trace against the simulated window: arrivals must
/// be monotone non-decreasing and land within `[0, duration]`.
///
/// The online ingest path replays externally supplied arrivals under this
/// contract.
///
/// # Errors
///
/// [`ScenarioError::InvalidTrace`] naming the first offending arrival.
pub fn validate_trace_window(
    requests: &[Request],
    duration: SimDuration,
) -> Result<(), ScenarioError> {
    let end = SimTime::ZERO + duration;
    let mut last = SimTime::ZERO;
    for r in requests {
        if r.arrival < last {
            return Err(ScenarioError::InvalidTrace {
                reason: format!(
                    "arrival {} for {} precedes an earlier arrival {}",
                    r.arrival, r.device, last
                ),
            });
        }
        if r.arrival > end {
            return Err(ScenarioError::InvalidTrace {
                reason: format!(
                    "arrival {} for {} is outside the simulated window (ends {})",
                    r.arrival, r.device, end
                ),
            });
        }
        last = r.arrival;
    }
    Ok(())
}

/// Validating builder for [`Scenario`].
///
/// Collect device classes with [`class`](ScenarioBuilder::class), pick a
/// workload, then
/// [`build`](ScenarioBuilder::build). All validation reports a typed
/// [`ScenarioError`] — nothing panics on bad input.
///
/// # Examples
///
/// The minimal happy path — one device class, a Poisson workload:
///
/// ```
/// use han_device::duty_cycle::DutyCycleConstraints;
/// use han_device::ApplianceKind;
/// use han_sim::time::SimDuration;
/// use han_workload::fleet::DeviceClass;
/// use han_workload::scenario::Scenario;
///
/// let scenario = Scenario::builder("one geyser")
///     .class(DeviceClass::new("geyser", ApplianceKind::WaterHeater, 2.0,
///                             DutyCycleConstraints::paper(), 1))
///     .poisson(6.0)
///     .duration(SimDuration::from_mins(90))
///     .build()?;
/// assert_eq!(scenario.device_count(), 1);
/// # Ok::<(), han_workload::fleet::ScenarioError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    classes: Vec<DeviceClass>,
    workload: Option<Workload>,
    duration: SimDuration,
    seed: u64,
}

impl ScenarioBuilder {
    /// Appends a device class to the fleet (ids continue contiguously).
    pub fn class(mut self, class: DeviceClass) -> Self {
        self.classes.push(class);
        self
    }

    /// Selects constant-rate Poisson arrivals.
    pub fn poisson(self, rate_per_hour: f64) -> Self {
        self.workload(Workload::Poisson { rate_per_hour })
    }

    /// Selects inhomogeneous time-of-day arrivals.
    pub fn daily(self, profile: DailyProfile) -> Self {
        self.workload(Workload::Daily(profile))
    }

    /// Selects any workload source.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the experiment duration (default: the paper's 350 minutes).
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the workload RNG seed (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates and assembles the scenario.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] if the fleet is empty or invalid, no workload was
    /// selected, a rate is invalid, or the duration is zero.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let scenario = Scenario {
            name: self.name,
            fleet: FleetSpec::new(self.classes)?,
            workload: self.workload.ok_or(ScenarioError::MissingWorkload)?,
            duration: self.duration,
            seed: self.seed,
            power_cap: None,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_device::appliance::{ApplianceKind, DeviceId};
    use han_device::duty_cycle::DutyCycleConstraints;
    use han_sim::time::SimTime;

    #[test]
    fn rates_match_paper() {
        assert_eq!(ArrivalRate::Low.per_hour(), 4.0);
        assert_eq!(ArrivalRate::Moderate.per_hour(), 18.0);
        assert_eq!(ArrivalRate::High.per_hour(), 30.0);
        assert_eq!(ArrivalRate::all().len(), 3);
    }

    #[test]
    fn paper_scenario_parameters() {
        let s = Scenario::paper(ArrivalRate::High, 1);
        assert_eq!(s.device_count(), 26);
        assert_eq!(s.duration, SimDuration::from_mins(350));
        let (min_dcd, max_dcp) = (SimDuration::from_mins(15), SimDuration::from_mins(30));
        let paper = DutyCycleConstraints::new(min_dcd, max_dcp).unwrap();
        for spec in s.fleet.specs() {
            assert_eq!(spec.power.as_kw(), 1.0);
            assert_eq!(spec.constraints, paper);
        }
        assert_eq!(
            s.workload,
            Workload::Poisson {
                rate_per_hour: 30.0
            }
        );
        assert_eq!(s.power_cap, None);
    }

    #[test]
    fn request_trace_sane() {
        let s = Scenario::paper(ArrivalRate::High, 42);
        let reqs = s.requests();
        // 350 min at 30/h ⇒ expect ~175 requests.
        assert!(
            (100..=260).contains(&reqs.len()),
            "unexpected request count {}",
            reqs.len()
        );
        assert!(reqs.iter().all(|r| r.device.index() < 26));
    }

    #[test]
    fn paper_requests_identical_to_raw_poisson() {
        // The preset must stay byte-identical to the pre-fleet API's
        // direct PoissonArrivals path (same seed stream, same assignment).
        let s = Scenario::paper(ArrivalRate::Moderate, 9);
        let direct = PoissonArrivals::new(18.0, 26).generate(s.duration, 9);
        assert_eq!(s.requests(), direct);
    }

    #[test]
    fn daily_workload_is_evening_heavy() {
        let s = Scenario {
            name: "typical day".into(),
            fleet: FleetSpec::paper(),
            workload: Workload::Daily(DailyProfile::typical_household()),
            duration: SimDuration::from_hours(24),
            seed: 3,
            power_cap: None,
        };
        assert_eq!(s.duration, SimDuration::from_hours(24));
        assert!(matches!(s.workload, Workload::Daily(_)));
        let reqs = s.requests();
        assert!(!reqs.is_empty());
        // Evening-heavy: more requests in 18–22 h than 0–5 h.
        let evening = reqs
            .iter()
            .filter(|r| (18..22).contains(&(r.arrival.as_secs() / 3600)))
            .count();
        let night = reqs
            .iter()
            .filter(|r| (r.arrival.as_secs() / 3600) < 5)
            .count();
        assert!(evening > night, "evening {evening} vs night {night}");
        // Identical to the raw household generator.
        assert_eq!(
            reqs,
            generate_household(
                &DailyProfile::typical_household(),
                26,
                SimDuration::from_hours(24),
                3
            )
        );
    }

    #[test]
    fn builder_composes_heterogeneous_scenarios() {
        let s = Scenario::builder("mixed")
            .class(DeviceClass::new(
                "ac",
                ApplianceKind::AirConditioner,
                1.5,
                DutyCycleConstraints::paper(),
                2,
            ))
            .class(DeviceClass::new(
                "fridge",
                ApplianceKind::Fridge,
                0.15,
                DutyCycleConstraints::paper(),
                1,
            ))
            .poisson(10.0)
            .duration(SimDuration::from_mins(60))
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(s.device_count(), 3);
        assert_eq!(s.seed, 5);
        assert!(s.requests().iter().all(|r| r.device.index() < 3));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        let err = Scenario::builder("no fleet").poisson(4.0).build();
        assert_eq!(err, Err(ScenarioError::EmptyFleet));

        let err = Scenario::builder("no workload")
            .class(DeviceClass::paper(2))
            .build();
        assert_eq!(err, Err(ScenarioError::MissingWorkload));

        let err = Scenario::builder("bad rate")
            .class(DeviceClass::paper(2))
            .poisson(-3.0)
            .build();
        assert!(matches!(err, Err(ScenarioError::InvalidRate { .. })));

        let err = Scenario::builder("zero duration")
            .class(DeviceClass::paper(2))
            .poisson(4.0)
            .duration(SimDuration::ZERO)
            .build();
        assert_eq!(err, Err(ScenarioError::ZeroDuration));
    }

    #[test]
    fn trace_outside_window_rejected() {
        let reqs = vec![
            Request::new(DeviceId(0), SimTime::from_mins(5)),
            Request::new(DeviceId(1), SimTime::from_mins(45)),
        ];
        let err = validate_trace_window(&reqs, SimDuration::from_mins(30)).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidTrace { .. }));
        assert!(err.to_string().contains("outside the simulated window"));
        // An arrival exactly at the window end is legal (inclusive bound,
        // matching the simulation's inclusive final round).
        let edge = [Request::new(DeviceId(0), SimTime::from_mins(30))];
        assert!(validate_trace_window(&edge, SimDuration::from_mins(30)).is_ok());
    }

    #[test]
    fn trace_window_helper_rejects_unsorted_slices() {
        // The online ingest path feeds raw, possibly unsorted slices.
        let reqs = vec![
            Request::new(DeviceId(0), SimTime::from_mins(10)),
            Request::new(DeviceId(1), SimTime::from_mins(5)),
        ];
        let err = validate_trace_window(&reqs, SimDuration::from_mins(30)).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidTrace { .. }));
        assert!(err.to_string().contains("precedes"));
        assert!(validate_trace_window(&[], SimDuration::from_mins(1)).is_ok());
    }

    #[test]
    fn display_names() {
        assert_eq!(ArrivalRate::High.to_string(), "high (30/h)");
        assert!(Scenario::paper(ArrivalRate::Low, 0).name.contains("low"));
    }
}
