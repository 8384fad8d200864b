//! # han-workload — fleets and request workloads for the HAN experiments
//!
//! * [`fleet`] — what runs: [`fleet::DeviceClass`] (one group of identical
//!   appliances) composed into a validated, possibly heterogeneous
//!   [`fleet::FleetSpec`], with the typed [`fleet::ScenarioError`];
//! * homogeneous Poisson arrivals ([`PoissonArrivals`], the paper's
//!   "randomly arriving" requests) and synchronized bursts ([`burst`]);
//! * inhomogeneous (time-of-day) arrival profiles ([`DailyProfile`]);
//! * [`signal`] — grid-facing admission caps
//!   ([`signal::PowerCapProfile`]): the per-home face of a feeder-level
//!   coordination signal, consumed by the planner in `han-core`;
//! * [`scenario`] — fleet + workload + duration + seed, composed through
//!   the validating [`scenario::ScenarioBuilder`]; the paper's exact
//!   evaluation setup ([`scenario::Scenario::paper`]: 26 × 1 kW devices,
//!   15/30 min constraints, 350 min, rates 4 / 18 / 30 per hour) is a
//!   one-line preset;
//! * [`telemetry`] — externally observed events
//!   ([`telemetry::TelemetryEvent`]: arrivals, early releases, cap/tariff
//!   changes, churn and blackouts) with the text grammar the online
//!   service mode in `han-core` ingests and replays.
//!
//! A fixed list of requests needs no workload: pass it to `han-core`'s
//! `HanSimulation::new` directly.
//!
//! # Public API
//!
//! What `han-core`, `hansim`, the bench bins, perfbench and the examples
//! call: scenarios and their builder, fleets and device classes, the
//! Poisson and daily workloads, bursts, cap profiles, telemetry events and
//! their grammar, and the typed [`ScenarioError`]. Everything else is
//! crate-private. [`FleetSpec::new`] has no production caller outside this
//! crate (the builder wraps it): it stays public because the root crate's
//! integration tests assemble heterogeneous fleets with it.
//!
//! # Examples
//!
//! ```
//! use han_workload::scenario::{ArrivalRate, Scenario};
//!
//! let scenario = Scenario::paper(ArrivalRate::High, 42);
//! let requests = scenario.requests();
//! assert!(!requests.is_empty());
//! assert!(requests.iter().all(|r| r.device.index() < 26));
//! ```
//!
//! A heterogeneous fleet on a time-of-day workload:
//!
//! ```
//! use han_device::duty_cycle::DutyCycleConstraints;
//! use han_device::ApplianceKind;
//! use han_sim::time::SimDuration;
//! use han_workload::fleet::DeviceClass;
//! use han_workload::scenario::Scenario;
//! use han_workload::DailyProfile;
//!
//! let scenario = Scenario::builder("household")
//!     .class(DeviceClass::new("ac", ApplianceKind::AirConditioner, 1.5,
//!                             DutyCycleConstraints::paper(), 2))
//!     .class(DeviceClass::new("geyser", ApplianceKind::WaterHeater, 2.0,
//!                             DutyCycleConstraints::paper(), 1))
//!     .daily(DailyProfile::typical_household())
//!     .duration(SimDuration::from_hours(24))
//!     .build()?;
//! assert_eq!(scenario.device_count(), 3);
//! # Ok::<(), han_workload::fleet::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(missing_docs)]

mod arrivals;
pub mod fleet;
mod household;
pub mod scenario;
pub mod signal;
pub mod telemetry;

pub use arrivals::{burst, PoissonArrivals};
pub use fleet::{DeviceClass, DeviceSpec, FleetSpec, ScenarioError};
pub use household::DailyProfile;
pub use scenario::{validate_trace_window, ArrivalRate, Scenario, ScenarioBuilder, Workload};
pub use signal::PowerCapProfile;
pub use telemetry::{validate_telemetry, TelemetryEvent};
