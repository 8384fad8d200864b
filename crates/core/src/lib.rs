//! # han-core — collaborative load management (the paper's contribution)
//!
//! A decentralized scheduler for duty-cycled household appliances, built on
//! all-to-all state sharing over synchronous transmission, reproducing
//! *"Collaborative Load Management in Smart Home Area Network"*
//! (Debadarshini & Saha, ICDCS 2022):
//!
//! * [`algorithm`] — must-stay / forced / water-filling / staggered-EDF
//!   planning, configured by [`PlanConfig`] and [`SchedulingRule`];
//! * [`cp`] — communication-plane models ([`CpModel`]) from ideal to
//!   packet-level MiniCast on the FlockLab-like testbed, and their
//!   statistics ([`CpStats`], with the view pool's [`ViewPoolStats`]);
//! * [`simulation`] — the round-by-round two-plane simulation
//!   ([`simulation::HanSimulation`]), configured by a heterogeneous
//!   [`han_workload::fleet::FleetSpec`];
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`]):
//!   node churn, CP outages and feeder signal dropout, replayed
//!   deterministically round by round;
//! * [`checkpoint`] — versioned, bit-identical checkpoint/restore of a
//!   running simulation ([`checkpoint::Checkpoint`]);
//! * [`experiment`] — the shared harness the figure reproductions use;
//! * [`neighborhood`] — many homes on one feeder
//!   ([`neighborhood::Neighborhood`]), run one-home-per-worker with a
//!   feeder-level [`neighborhood::NeighborhoodReport`];
//! * [`feeder`] — inter-home coordination through a broadcast aggregate
//!   signal ([`feeder::FeederSignal`]): Jacobi/Gauss-Seidel re-planning to
//!   convergence, reported with baselines, costs and the per-iteration
//!   [`feeder::ConvergenceTrace`];
//! * [`city`] — city scale ([`city::City`]): feeders × homes on
//!   streaming shards that hold one home at a time, reduced feeder →
//!   substation → city with no per-home trace materialization,
//!   digest-equivalent per home to the [`neighborhood`] path and
//!   invariant in the shard count.
//!
//! The round engine behind these — each node's system view, the
//! content-addressed view pool, the communication plane's rounds, the
//! planner and its schedules — is private to this crate: callers
//! configure runs and read their reports.
//!
//! # Public API
//!
//! What `hansim`, the root crate's prelude, the bench bins, perfbench and
//! the examples call: the CP models, simulation configs and outcomes,
//! the experiment harness, fault plans and checkpoints, neighborhoods
//! with their feeder policies and reports, the city with its worker
//! fleet (`city::mp`), and the online driver with its protocol and serve
//! loop — plus every type that appears in those signatures. Everything
//! else is crate-private. A few items have no production caller outside
//! this crate and stay public because tests in other crates build with
//! them: [`FaultPlan::from_events`] (the fault, city and obs batteries
//! draw random event lists), [`Checkpoint::round`] (the kill/restore
//! battery checks where a snapshot resumes), the `HANFAGG1` and
//! `HANCITY1` codecs [`FeederAggregate::encode`] /
//! [`FeederAggregate::decode`] and [`city::mp::Handshake::encode`] /
//! [`city::mp::Handshake::decode`] with [`city::mp::MAX_FRAME_LEN`] (the
//! adversarial wire battery attacks the production codec), and
//! [`online::MAX_CLIENTS`] (the daemon battery fills every slot).
//!
//! # Examples
//!
//! The paper scenario, coordinated vs. uncoordinated:
//!
//! ```
//! use han_core::cp::CpModel;
//! use han_core::experiment::{compare, SAMPLE_INTERVAL};
//! use han_core::simulation::Strategy;
//! use han_workload::scenario::{ArrivalRate, Scenario};
//! use han_sim::time::SimDuration;
//!
//! let scenario = Scenario {
//!     duration: SimDuration::from_mins(60),
//!     ..Scenario::paper(ArrivalRate::High, 7)
//! };
//! let c = compare(&scenario, CpModel::Ideal)?;
//! assert!(c.coordinated.summary.peak <= c.uncoordinated.summary.peak);
//! # Ok::<(), han_workload::fleet::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(missing_docs)]

pub mod algorithm;
pub mod checkpoint;
pub mod city;
pub mod cp;
pub mod experiment;
pub mod fault;
pub mod feeder;
pub mod neighborhood;
pub mod online;
mod pool;
mod schedule;
pub mod simulation;
mod state;
mod wire;

pub use algorithm::{PlanConfig, SchedulingRule};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use city::{City, CityReport, CitySpec, FeederAggregate, HomeDigest};
pub use cp::{CpModel, CpStats};
pub use fault::{FaultEvent, FaultPlan};
pub use feeder::{
    ConvergenceCriterion, ConvergenceTrace, FeederPolicy, FeederReport, FeederSignal,
    IterationPolicy, StopReason,
};
pub use neighborhood::{Home, HomeResult, Neighborhood, NeighborhoodReport};
pub use online::{OnlineDriver, OnlineError, ServeOptions};
pub use pool::ViewPoolStats;
pub use simulation::{HanSimulation, SimulationConfig, SimulationOutcome, Strategy};
