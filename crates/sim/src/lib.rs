//! # han-sim — deterministic simulation substrate
//!
//! This crate is the substrate for the whole `smart-han` workspace: the
//! clock, randomness and tracing every layer shares, standing in for the
//! physical FlockLab testbed clock used in the paper *"Collaborative
//! Load Management in Smart Home Area Network"* (Debadarshini & Saha,
//! ICDCS 2022). The rounds themselves run on `han-core`'s fixed-period
//! synchronous round loop.
//!
//! It provides:
//!
//! * [`time`] — microsecond-resolution [`time::SimTime`] / [`time::SimDuration`]
//!   newtypes with checked arithmetic;
//! * [`rng`] — self-contained xoshiro256++ [`rng::DetRng`] with named
//!   sub-streams for reproducible experiments;
//! * [`trace`] — structured trace buffer for tests and harnesses.
//!
//! # Examples
//!
//! A fixed-period process drawing from its own RNG stream and tracing
//! each tick:
//!
//! ```
//! use han_sim::rng::DetRng;
//! use han_sim::time::{SimDuration, SimTime};
//! use han_sim::trace::{Trace, TraceLevel};
//!
//! let mut rng = DetRng::for_stream(7, "ticker");
//! let mut trace = Trace::new(TraceLevel::Info);
//! let period = SimDuration::from_secs(2);
//! let end = SimTime::from_secs(10);
//! let mut now = SimTime::ZERO;
//! while now <= end {
//!     let draw = rng.next_u64();
//!     trace.info(now, "tick", format!("draw {draw}"));
//!     now += period;
//! }
//! assert_eq!(trace.count_category("tick"), 6); // t = 0, 2, 4, 6, 8, 10
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod time;
pub mod trace;

pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceLevel};
