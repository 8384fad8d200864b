//! Fleet specifications: which devices a scenario simulates.
//!
//! The paper's evaluation runs 26 identical 1 kW devices, but the wire
//! format ([`StatusRecord::power_w`](han_device::status::StatusRecord) with
//! per-device minDCD/maxDCP) and the planner are heterogeneity-ready. This
//! module makes heterogeneity a first-class input: a [`DeviceClass`] names
//! one group of identical appliances (rated power, duty-cycle constraints,
//! count) and a [`FleetSpec`] is an ordered list of classes that expands
//! into per-device [`DeviceSpec`]s with contiguous device ids.
//!
//! Construction is validated: [`FleetSpec::new`] returns a typed
//! [`ScenarioError`] — never a `String`, never a panic — and the same error
//! type flows through the scenario builder and the simulation configuration
//! in `han-core`.

use han_device::appliance::{Appliance, ApplianceKind, DeviceId};
use han_device::duty_cycle::DutyCycleConstraints;
use han_device::power::Watts;
use han_sim::time::SimDuration;
use std::fmt;

/// Everything that can go wrong assembling a scenario or simulation
/// configuration.
///
/// One typed error covers the whole pipeline — fleet assembly
/// ([`FleetSpec::new`]), workload selection and scenario building in this
/// crate, plus configuration checks in `han-core` (round period, controller
/// range, request routing) — so callers propagate a single `Result` end to
/// end instead of matching on strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The fleet had no classes (or only empty ones).
    EmptyFleet,
    /// A device class had a count of zero.
    EmptyClass {
        /// Name of the offending class.
        class: String,
    },
    /// A device class had a negative or non-finite rated power.
    InvalidPower {
        /// Name of the offending class.
        class: String,
        /// The rejected power, kW.
        power_kw: f64,
    },
    /// A device class used a Type-1 (instant) appliance kind, which cannot
    /// be duty-cycle scheduled.
    NotSchedulable {
        /// Name of the offending class.
        class: String,
        /// The rejected kind.
        kind: ApplianceKind,
    },
    /// A workload arrival rate was negative or non-finite.
    InvalidRate {
        /// The rejected rate, requests per hour.
        rate_per_hour: f64,
    },
    /// A loss probability was outside `[0, 1]`.
    InvalidProbability {
        /// The rejected probability.
        probability: f64,
    },
    /// The scenario builder was finalized without a workload.
    MissingWorkload,
    /// The scenario or simulation duration was zero.
    ZeroDuration,
    /// The communication-plane round period was zero.
    ZeroRoundPeriod,
    /// The duration does not cover even one communication round.
    DurationTooShort {
        /// The configured duration.
        duration: SimDuration,
        /// The configured round period.
        round_period: SimDuration,
    },
    /// A centralized controller id was outside the fleet.
    ControllerOutOfRange {
        /// The configured controller.
        controller: DeviceId,
        /// Devices in the fleet.
        device_count: usize,
    },
    /// A request targeted a device outside the fleet.
    UnknownDevice {
        /// The request's target.
        device: DeviceId,
        /// Devices in the fleet.
        device_count: usize,
    },
    /// A packet-mode communication-plane topology has fewer nodes than the
    /// fleet has devices.
    TopologyTooSmall {
        /// Nodes in the topology.
        nodes: usize,
        /// Devices in the fleet.
        device_count: usize,
    },
    /// A packet-mode communication plane's synchronous-transmission
    /// configuration is invalid, or one round cannot fit a flood phase
    /// per topology node.
    InvalidPacketConfig {
        /// What was wrong with the configuration.
        reason: String,
    },
    /// A neighborhood had no homes.
    EmptyNeighborhood,
    /// A city had no feeders or no homes per feeder.
    EmptyCity,
    /// A city was asked to partition its feeders across more shards than
    /// it has feeders (feeders are the unit of partitioning).
    TooManyShards {
        /// The requested shard count.
        shards: usize,
        /// Feeders available to partition.
        feeders: usize,
    },
    /// A power-cap profile was structurally invalid (empty, unsorted, not
    /// anchored at time zero, or containing a negative/NaN cap).
    InvalidCapProfile {
        /// What was wrong with the profile.
        reason: &'static str,
    },
    /// A feeder convergence criterion was invalid (zero iteration budget,
    /// or a negative/non-finite tolerance).
    InvalidConvergence {
        /// What was wrong with the criterion.
        reason: &'static str,
    },
    /// A fault plan was structurally invalid (unordered events, an empty
    /// outage window, a node id out of range, or an unparsable spec).
    InvalidFaultPlan {
        /// What was wrong with the plan.
        reason: String,
    },
    /// A request trace was structurally invalid (an arrival before an
    /// earlier one, or outside the simulated window).
    InvalidTrace {
        /// What was wrong with the trace.
        reason: String,
    },
    /// A telemetry-event spec failed to parse or referenced an impossible
    /// instant/device (the online ingest grammar; see `telemetry`).
    InvalidTelemetry {
        /// What was wrong with the spec.
        reason: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::EmptyFleet => write!(f, "fleet must contain at least one device"),
            ScenarioError::EmptyClass { class } => {
                write!(f, "device class '{class}' must have a count of at least 1")
            }
            ScenarioError::InvalidPower { class, power_kw } => {
                write!(
                    f,
                    "device class '{class}' has invalid rated power {power_kw} kW \
                     (must be finite and non-negative)"
                )
            }
            ScenarioError::NotSchedulable { class, kind } => {
                write!(
                    f,
                    "device class '{class}' uses Type-1 kind '{kind}', which cannot be \
                     duty-cycle scheduled"
                )
            }
            ScenarioError::InvalidRate { rate_per_hour } => {
                write!(
                    f,
                    "arrival rate {rate_per_hour}/h must be finite and non-negative"
                )
            }
            ScenarioError::InvalidProbability { probability } => {
                write!(f, "probability {probability} must be within [0, 1]")
            }
            ScenarioError::MissingWorkload => {
                write!(f, "scenario builder needs a workload (poisson/daily)")
            }
            ScenarioError::ZeroDuration => write!(f, "duration must be positive"),
            ScenarioError::ZeroRoundPeriod => write!(f, "round period must be positive"),
            ScenarioError::DurationTooShort {
                duration,
                round_period,
            } => {
                write!(
                    f,
                    "duration {duration} must cover at least one round ({round_period})"
                )
            }
            ScenarioError::ControllerOutOfRange {
                controller,
                device_count,
            } => {
                write!(
                    f,
                    "controller {controller} out of range for a fleet of {device_count}"
                )
            }
            ScenarioError::UnknownDevice {
                device,
                device_count,
            } => {
                write!(
                    f,
                    "request targets unknown device {device} (fleet has {device_count})"
                )
            }
            ScenarioError::TopologyTooSmall {
                nodes,
                device_count,
            } => {
                write!(
                    f,
                    "packet topology has {nodes} nodes for {device_count} devices"
                )
            }
            ScenarioError::InvalidPacketConfig { reason } => {
                write!(f, "invalid packet CP configuration: {reason}")
            }
            ScenarioError::EmptyNeighborhood => {
                write!(f, "neighborhood must contain at least one home")
            }
            ScenarioError::EmptyCity => {
                write!(
                    f,
                    "city must contain at least one feeder with at least one home"
                )
            }
            ScenarioError::TooManyShards { shards, feeders } => {
                write!(
                    f,
                    "cannot partition {feeders} feeder(s) across {shards} shards \
                     (shards must not exceed feeders)"
                )
            }
            ScenarioError::InvalidCapProfile { reason } => {
                write!(f, "invalid power-cap profile: {reason}")
            }
            ScenarioError::InvalidConvergence { reason } => {
                write!(f, "invalid convergence criterion: {reason}")
            }
            ScenarioError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            ScenarioError::InvalidTrace { reason } => {
                write!(f, "invalid request trace: {reason}")
            }
            ScenarioError::InvalidTelemetry { reason } => {
                write!(f, "invalid telemetry event: {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One group of identical schedulable devices in a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceClass {
    name: String,
    kind: ApplianceKind,
    power_kw: f64,
    constraints: DutyCycleConstraints,
    count: usize,
}

impl DeviceClass {
    /// Describes `count` identical devices of the given kind, rated power
    /// and duty-cycle constraints.
    ///
    /// Construction is unchecked; validation happens when the class joins a
    /// [`FleetSpec`] (directly or through the scenario builder), which is
    /// where a typed [`ScenarioError`] can be reported with full context.
    pub fn new(
        name: impl Into<String>,
        kind: ApplianceKind,
        power_kw: f64,
        constraints: DutyCycleConstraints,
        count: usize,
    ) -> Self {
        DeviceClass {
            name: name.into(),
            kind,
            power_kw,
            constraints,
            count,
        }
    }

    /// `count` of the paper's generic devices: 1 kW Type-2 appliances with
    /// the paper's 15/30 min constraints.
    pub fn paper(count: usize) -> Self {
        DeviceClass::new(
            "paper 1kW",
            ApplianceKind::AirConditioner,
            1.0,
            DutyCycleConstraints::paper(),
            count,
        )
    }

    /// Number of devices in the class.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        if self.count == 0 {
            return Err(ScenarioError::EmptyClass {
                class: self.name.clone(),
            });
        }
        if !self.power_kw.is_finite() || self.power_kw < 0.0 {
            return Err(ScenarioError::InvalidPower {
                class: self.name.clone(),
                power_kw: self.power_kw,
            });
        }
        if self.kind.class() != han_device::appliance::DeviceClass::Schedulable {
            return Err(ScenarioError::NotSchedulable {
                class: self.name.clone(),
                kind: self.kind,
            });
        }
        Ok(())
    }
}

/// One device's fully resolved specification, expanded from a
/// [`DeviceClass`] with its fleet-wide contiguous id.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// The device's id (contiguous from 0 in class order).
    pub id: DeviceId,
    /// Appliance kind.
    pub kind: ApplianceKind,
    /// Rated power of the switched element.
    pub power: Watts,
    /// Duty-cycle constraints.
    pub constraints: DutyCycleConstraints,
}

impl DeviceSpec {
    /// Builds the concrete appliance this spec describes.
    pub fn appliance(&self) -> Appliance {
        Appliance::with_power(self.id, self.kind, self.power)
    }
}

/// A validated, ordered fleet of device classes.
///
/// Device ids are assigned contiguously from 0 in class order: a fleet of
/// `[A × 2, B × 3]` yields devices `d0, d1` of class A and `d2..d4` of
/// class B. The paper's homogeneous 26 × 1 kW fleet is
/// [`FleetSpec::paper`].
///
/// # Examples
///
/// ```
/// use han_workload::fleet::{DeviceClass, FleetSpec};
/// use han_device::duty_cycle::DutyCycleConstraints;
/// use han_device::ApplianceKind;
///
/// let fleet = FleetSpec::new(vec![
///     DeviceClass::new("ac", ApplianceKind::AirConditioner, 1.5,
///                      DutyCycleConstraints::paper(), 2),
///     DeviceClass::new("heater", ApplianceKind::WaterHeater, 2.0,
///                      DutyCycleConstraints::paper(), 1),
/// ])?;
/// assert_eq!(fleet.device_count(), 3);
/// assert_eq!(fleet.total_rated_kw(), 5.0);
/// # Ok::<(), han_workload::fleet::ScenarioError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    classes: Vec<DeviceClass>,
    device_count: usize,
}

impl FleetSpec {
    /// Creates a fleet from ordered device classes.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] if the fleet is empty, a class has zero devices,
    /// an invalid rated power, or a non-schedulable (Type-1) kind.
    pub fn new(classes: Vec<DeviceClass>) -> Result<Self, ScenarioError> {
        if classes.is_empty() {
            return Err(ScenarioError::EmptyFleet);
        }
        for class in &classes {
            class.validate()?;
        }
        let device_count = classes.iter().map(DeviceClass::count).sum();
        Ok(FleetSpec {
            classes,
            device_count,
        })
    }

    /// A homogeneous fleet: `count` identical devices.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] if `count` is zero or `power_kw` is invalid.
    pub fn uniform(
        count: usize,
        power_kw: f64,
        constraints: DutyCycleConstraints,
    ) -> Result<Self, ScenarioError> {
        FleetSpec::new(vec![DeviceClass::new(
            "uniform",
            ApplianceKind::AirConditioner,
            power_kw,
            constraints,
            count,
        )])
    }

    /// The paper's fleet: 26 × 1 kW, minDCD 15 min, maxDCP 30 min.
    pub fn paper() -> Self {
        FleetSpec::new(vec![DeviceClass::paper(26)]).expect("paper fleet is valid")
    }

    /// Total number of devices across all classes.
    pub fn device_count(&self) -> usize {
        self.device_count
    }

    /// Sum of every device's rated power, kW.
    pub fn total_rated_kw(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.power_kw * c.count as f64)
            .sum()
    }

    /// Expands the classes into per-device specs with contiguous ids.
    pub fn specs(&self) -> impl Iterator<Item = DeviceSpec> + '_ {
        self.classes
            .iter()
            .flat_map(|c| std::iter::repeat_n(c, c.count))
            .enumerate()
            .map(|(i, c)| DeviceSpec {
                id: DeviceId(i as u32),
                kind: c.kind,
                power: Watts::from_kw(c.power_kw),
                constraints: c.constraints,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fleet_shape() {
        let fleet = FleetSpec::paper();
        assert_eq!(fleet.device_count(), 26);
        assert_eq!(fleet.total_rated_kw(), 26.0);
        assert_eq!(fleet.classes.len(), 1);
        let specs: Vec<DeviceSpec> = fleet.specs().collect();
        assert_eq!(specs.len(), 26);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.id, DeviceId(i as u32));
            assert_eq!(s.power, Watts::from_kw(1.0));
            assert_eq!(s.constraints, DutyCycleConstraints::paper());
        }
    }

    #[test]
    fn ids_are_contiguous_across_classes() {
        let fleet = FleetSpec::new(vec![
            DeviceClass::new(
                "a",
                ApplianceKind::AirConditioner,
                1.5,
                DutyCycleConstraints::paper(),
                2,
            ),
            DeviceClass::new(
                "b",
                ApplianceKind::Fridge,
                0.15,
                DutyCycleConstraints::paper(),
                3,
            ),
        ])
        .unwrap();
        let specs: Vec<DeviceSpec> = fleet.specs().collect();
        assert_eq!(specs.len(), 5);
        let ids: Vec<u32> = specs.iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(specs[1].kind, ApplianceKind::AirConditioner);
        assert_eq!(specs[2].kind, ApplianceKind::Fridge);
        assert!((fleet.total_rated_kw() - 3.45).abs() < 1e-12);
    }

    #[test]
    fn empty_fleet_rejected() {
        assert_eq!(FleetSpec::new(vec![]), Err(ScenarioError::EmptyFleet));
    }

    #[test]
    fn empty_class_rejected() {
        let err = FleetSpec::new(vec![DeviceClass::new(
            "none",
            ApplianceKind::AirConditioner,
            1.0,
            DutyCycleConstraints::paper(),
            0,
        )])
        .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::EmptyClass {
                class: "none".into()
            }
        );
        assert!(err.to_string().contains("none"));
    }

    #[test]
    fn invalid_power_rejected() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let err = FleetSpec::new(vec![DeviceClass::new(
                "bad",
                ApplianceKind::AirConditioner,
                bad,
                DutyCycleConstraints::paper(),
                1,
            )])
            .unwrap_err();
            assert!(matches!(err, ScenarioError::InvalidPower { .. }), "{bad}");
        }
    }

    #[test]
    fn type1_kind_rejected() {
        let err = FleetSpec::new(vec![DeviceClass::new(
            "dryer",
            ApplianceKind::HairDryer,
            1.2,
            DutyCycleConstraints::paper(),
            1,
        )])
        .unwrap_err();
        assert!(matches!(err, ScenarioError::NotSchedulable { .. }));
        assert!(err.to_string().contains("Type-1"));
    }

    #[test]
    fn errors_display_and_source() {
        let err: Box<dyn std::error::Error> = Box::new(ScenarioError::EmptyFleet);
        assert!(err.to_string().contains("at least one device"));
    }
}
