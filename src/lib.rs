//! # smart-han — collaborative load management in a smart Home Area Network
//!
//! A full Rust reproduction of *"Collaborative Load Management in Smart
//! Home Area Network"* (Debadarshini & Saha, ICDCS 2022): a decentralized
//! scheduler for duty-cycled household appliances whose Device Interfaces
//! share state all-to-all over synchronous-transmission wireless rounds
//! (MiniCast every 2 s) and independently compute the same schedule — no
//! central controller, peak load cut by tens of percent, load variation
//! halved, average untouched.
//!
//! This crate is the umbrella: it re-exports every subsystem.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `han-sim` | deterministic time and RNG substrate |
//! | [`radio`] | `han-radio` | 802.15.4 PHY, link model, capture effect |
//! | [`net`] | `han-net` | topologies incl. the FlockLab-like testbed |
//! | [`st`] | `han-st` | Glossy floods, MiniCast all-to-all rounds |
//! | [`device`] | `han-device` | appliances, minDCD/maxDCP duty cycling |
//! | [`core`] | `han-core` | the collaborative scheduler + simulation |
//! | [`workload`] | `han-workload` | Poisson / household request workloads |
//! | [`metrics`] | `han-metrics` | load traces, statistics, reports |
//! | [`obs`] | `han-obs` | metrics registry, flight recorder, span traces |
//!
//! # Quickstart
//!
//! Compare coordinated vs. uncoordinated scheduling on the paper's
//! high-rate scenario:
//!
//! ```
//! use smart_han::core::cp::CpModel;
//! use smart_han::core::experiment::compare;
//! use smart_han::workload::scenario::{ArrivalRate, Scenario};
//! use smart_han::sim::time::SimDuration;
//!
//! let scenario = Scenario {
//!     duration: SimDuration::from_mins(60), // keep the doctest quick
//!     ..Scenario::paper(ArrivalRate::High, 42)
//! };
//! let c = compare(&scenario, CpModel::Ideal)?;
//! assert!(c.coordinated.summary.peak <= c.uncoordinated.summary.peak);
//! # Ok::<(), smart_han::workload::fleet::ScenarioError>(())
//! ```
//!
//! Or build a heterogeneous multi-home neighborhood and read the
//! feeder-level report:
//!
//! ```
//! use smart_han::prelude::*;
//!
//! let home = Scenario::builder("mixed home")
//!     .class(DeviceClass::new("ac", ApplianceKind::AirConditioner, 1.5,
//!                             DutyCycleConstraints::paper(), 2))
//!     .class(DeviceClass::new("geyser", ApplianceKind::WaterHeater, 2.0,
//!                             DutyCycleConstraints::paper(), 1))
//!     .poisson(8.0)
//!     .duration(SimDuration::from_mins(60)) // keep the doctest quick
//!     .build()?;
//! let hood = Neighborhood::uniform("street", &home, CpModel::Ideal, 3)?;
//! let report = hood.run()?;
//! assert!(report.coincidence_factor_coordinated() <= 1.0);
//! # Ok::<(), smart_han::workload::fleet::ScenarioError>(())
//! ```
//!
//! And make the homes coordinate *with each other* through a feeder
//! signal — here a capacity cap at 90% of the street's independently
//! coordinated peak, iterated Gauss-Seidel to convergence:
//!
//! ```
//! use smart_han::prelude::*;
//!
//! let template = Scenario {
//!     duration: SimDuration::from_mins(60), // keep the doctest quick
//!     ..Scenario::paper(ArrivalRate::High, 1)
//! };
//! let hood = Neighborhood::uniform("street", &template, CpModel::Ideal, 3)?;
//! let independent_peak = hood.run()?.feeder_coordinated.peak;
//!
//! let cap = PowerCapProfile::constant(independent_peak * 0.9)?;
//! let policy = FeederPolicy::gauss_seidel(FeederSignal::Capacity(cap));
//! let report = hood.run_with(&policy)?;
//!
//! assert_eq!(report.total_deadline_misses(), 0);          // signals never cost deadlines
//! assert!(report.feeder.peak <= independent_peak + 1e-9); // never worse than signal-free
//! assert!(report.iterations() <= policy.convergence.max_iterations);
//! println!("bill: {:.2}", report.feeder_cost(&Billing::typical_residential()).total());
//! # Ok::<(), smart_han::workload::fleet::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub use han_core as core;
pub use han_device as device;
pub use han_metrics as metrics;
pub use han_net as net;
pub use han_obs as obs;
pub use han_radio as radio;
pub use han_sim as sim;
pub use han_st as st;
pub use han_workload as workload;

/// The most commonly used types, importable in one line.
///
/// Note: `DeviceClass` here is the fleet-spec class from
/// [`han_workload::fleet`] (name, kind, rated power, constraints, count);
/// the paper's Type-1/Type-2 appliance classification enum remains at
/// [`device::DeviceClass`](han_device::appliance::DeviceClass).
pub mod prelude {
    pub use han_core::cp::CpModel;
    pub use han_core::experiment::{
        compare, compare_faulted, run_strategy, run_strategy_faulted, Comparison, StrategyResult,
    };
    pub use han_core::feeder::{
        ConvergenceCriterion, ConvergenceTrace, FeederPolicy, FeederReport, FeederSignal,
        IterationPolicy, StopReason,
    };
    pub use han_core::neighborhood::{Home, HomeResult, Neighborhood, NeighborhoodReport};
    pub use han_core::online::{serve, OnlineDriver, OnlineError, Pace, ServeOptions};
    pub use han_core::{
        Checkpoint, CheckpointError, FaultEvent, FaultPlan, HanSimulation, PlanConfig,
        SchedulingRule, SimulationConfig, SimulationOutcome, Strategy,
    };
    pub use han_device::{
        Appliance, ApplianceKind, DeviceId, DeviceInterface, DutyCycleConstraints, Request, Watts,
    };
    pub use han_metrics::ResilienceStats;
    pub use han_metrics::{
        Billing, ComparisonReport, ComparisonRow, CostBreakdown, LoadTrace, Summary,
        TimeOfUseTariff,
    };
    pub use han_net::{NodeId, Topology};
    pub use han_sim::{DetRng, SimDuration, SimTime};
    pub use han_st::StConfig;
    pub use han_workload::{
        ArrivalRate, DailyProfile, DeviceClass, FleetSpec, PoissonArrivals, PowerCapProfile,
        Scenario, ScenarioBuilder, ScenarioError, TelemetryEvent, Workload,
    };
}
