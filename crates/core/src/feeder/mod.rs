//! Feeder coordination: homes coordinating *with each other* through an
//! aggregate signal.
//!
//! The paper coordinates loads within one HAN; the
//! [`neighborhood`](crate::neighborhood) layer runs many HANs on one
//! feeder, but its homes are coupled only by the after-the-fact electrical
//! sum. This subsystem closes the loop: a [`FeederSignal`] — a hard
//! capacity cap, a time-of-use price, or a congestion target derived from
//! the live aggregate — is broadcast to every home; each home re-plans
//! against its resolved share of the signal (an admission cap the
//! planner's level respects, with obligations still force-protected); the
//! coordinator folds the fresh per-home series into a new aggregate,
//! updates the signal, and repeats under a Jacobi or Gauss-Seidel
//! [`IterationPolicy`] until a typed [`ConvergenceCriterion`] fires. The
//! whole trajectory is recorded as a [`ConvergenceTrace`] inside the
//! [`FeederReport`], next to the uncoordinated and
//! independently-coordinated baselines and the tariff-priced costs.
//!
//! Determinism contract: with a single home and an unconstrained signal
//! ([`han_workload::signal::PowerCapProfile::unlimited`]) the run is
//! bit-identical — schedule digest included — to plain
//! [`Neighborhood::run`](crate::neighborhood::Neighborhood::run).
//!
//! # Examples
//!
//! ```
//! use han_core::cp::CpModel;
//! use han_core::feeder::{FeederPolicy, FeederSignal};
//! use han_core::neighborhood::Neighborhood;
//! use han_sim::time::SimDuration;
//! use han_workload::scenario::{ArrivalRate, Scenario};
//! use han_workload::signal::PowerCapProfile;
//!
//! let template = Scenario {
//!     duration: SimDuration::from_mins(60), // keep the doctest quick
//!     ..Scenario::paper(ArrivalRate::High, 0)
//! };
//! let hood = Neighborhood::uniform("street", &template, CpModel::Ideal, 3)?;
//!
//! // Ask the street to fit under 90% of its independently-coordinated
//! // peak; homes iterate against the broadcast headroom until the
//! // aggregate settles.
//! let independent_peak = hood.run()?.feeder_coordinated.peak;
//! let cap = PowerCapProfile::constant(independent_peak * 0.9)?;
//! let report = hood.run_with(&FeederPolicy::new(FeederSignal::Capacity(cap)))?;
//!
//! assert!(report.iterations() >= 1);
//! assert_eq!(report.total_deadline_misses(), 0, "signals never cost deadlines");
//! assert!(report.feeder.peak <= independent_peak + 1e-9);
//! # Ok::<(), han_workload::fleet::ScenarioError>(())
//! ```

mod convergence;
mod coordinator;
mod signal;

pub use convergence::{ConvergenceCriterion, ConvergenceTrace, IterationRecord, StopReason};
pub use coordinator::{FeederHomeResult, FeederPolicy, FeederReport, IterationPolicy};
pub use signal::FeederSignal;

pub(crate) use coordinator::coordinate;
