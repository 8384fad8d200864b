//! # han-sim — deterministic simulation substrate
//!
//! This crate is the substrate for the whole `smart-han` workspace: the
//! clock and randomness every layer shares, standing in for the physical
//! FlockLab testbed clock used in the paper *"Collaborative Load
//! Management in Smart Home Area Network"* (Debadarshini & Saha, ICDCS
//! 2022). The rounds themselves run on `han-core`'s fixed-period
//! synchronous round loop, and `han-obs` records what they do.
//!
//! It provides:
//!
//! * [`time`] — microsecond-resolution [`time::SimTime`] / [`time::SimDuration`]
//!   newtypes with checked arithmetic;
//! * [`rng`] — self-contained xoshiro256++ [`rng::DetRng`] with named
//!   sub-streams for reproducible experiments.
//!
//! # Public API
//!
//! [`SimTime`], [`SimDuration`], [`DetRng`] and [`rng::mix_seed`], with
//! the constructors, conversions and draws that the other workspace
//! crates, `hansim`, the bench bins, perfbench and the examples call.
//! Everything else is crate-private. [`DetRng::new`] has no production
//! caller outside this crate: it stays public because the tests of
//! `han-radio`, `han-st` and `han-core` seed their generators with it,
//! and a test in another crate cannot reach test-only code here.
//!
//! # Examples
//!
//! A fixed-period process drawing from its own RNG stream each tick:
//!
//! ```
//! use han_sim::rng::DetRng;
//! use han_sim::time::{SimDuration, SimTime};
//!
//! let mut rng = DetRng::for_stream(7, "ticker");
//! let period = SimDuration::from_secs(2);
//! let end = SimTime::from_secs(10);
//! let mut now = SimTime::ZERO;
//! let mut draws = Vec::new();
//! while now <= end {
//!     draws.push(rng.gen_range_u64(1 << 32));
//!     now += period;
//! }
//! assert_eq!(draws.len(), 6); // t = 0, 2, 4, 6, 8, 10
//! // The same named stream replays the same draws.
//! let mut replay = DetRng::for_stream(7, "ticker");
//! assert!(draws.iter().all(|&d| d == replay.gen_range_u64(1 << 32)));
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod rng;
pub mod time;

pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
