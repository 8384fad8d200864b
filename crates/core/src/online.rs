//! Online service mode: the simulator as a long-lived daemon.
//!
//! The batch entry points ([`HanSimulation::run`] and friends) consume
//! a complete scenario and return when the window ends. This subsystem
//! turns the same machinery into a *service*: a process that advances
//! simulated time against a wall (or replayed) clock, accepts
//! externally injected telemetry while running, and answers queries
//! over a newline-delimited TCP protocol — `hansim serve` on the
//! command line.
//!
//! | module | contents |
//! |---|---|
//! | `driver` | [`OnlineDriver`]: the round loop as a drivable object, plus `HANSRV01` service snapshots |
//! | `ingest` | telemetry validation and translation into injections, fault events and tariff history |
//! | [`protocol`] | the `STATUS` / `SCHEDULE` / `FEEDER` / `INJECT` / `ADVANCE` / `CHECKPOINT` / `SHUTDOWN` line protocol |
//! | `server` | the serve loop: one driver thread (pacing, auto-checkpoints) and a thread per connection on one `TcpListener` |
//!
//! # Determinism contract
//!
//! Streaming a workload through [`OnlineDriver::ingest`] is
//! bit-identical to batch-running a scenario whose trace carried the
//! same events from round zero — same order-sensitive
//! `schedule_digest`, same load trace, same service metrics. Injected
//! events are queued against the round that *absorbs* them (the first
//! round at or after their effective instant) and drain in a dedicated
//! phase before that round's fault application and request delivery;
//! the planners keep no plan between rounds, so the next round plans on
//! whatever an injection changed. The property tests
//! in `crates/core/tests/prop_online.rs` pin all of this, including
//! kill/restore equality for the service snapshot format.
//!
//! [`HanSimulation::run`]: crate::simulation::HanSimulation::run
//!
//! # Example
//!
//! Drive a small scenario online: inject an arrival mid-run, advance,
//! and read the service status.
//!
//! ```
//! use han_core::online::OnlineDriver;
//! use han_core::online::protocol::respond;
//! use han_core::simulation::{HanSimulation, SimulationConfig, Strategy};
//! use han_workload::telemetry::TelemetryEvent;
//!
//! let config = SimulationConfig {
//!     duration: han_sim::time::SimDuration::from_mins(5),
//!     ..SimulationConfig::paper(Strategy::coordinated(), 7)
//! };
//! let sim = HanSimulation::new(config, Vec::new())?;
//! let mut online = OnlineDriver::new(sim);
//!
//! online.ingest(TelemetryEvent::parse("arrive:3@2")?)?;
//! online.advance_to(online.total_rounds() / 2);
//! assert!(respond(&mut online, "STATUS").line.starts_with("OK round="));
//! online.run_to_end();
//! let outcome = online.into_outcome();
//! assert!(outcome.requests_delivered >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod driver;
mod ingest;
pub mod protocol;
mod server;

pub use driver::OnlineDriver;
pub use ingest::OnlineError;
pub use protocol::Response;
pub use server::{serve, Pace, ServeOptions, MAX_CLIENTS};
