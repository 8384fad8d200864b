//! # han-st — synchronous-transmission protocol stack
//!
//! The communication substrate of the paper's decentralized HAN: Glossy
//! floods and the MiniCast many-to-many sharing protocol, executed
//! packet-by-packet against the `han-radio` capture/interference model on a
//! `han-net` topology.
//!
//! * [`item`] — versioned data items and per-node [`item::ItemStore`]s;
//! * [`config`] — [`config::StConfig`]: round period (paper: 2 s), slot
//!   timing, Glossy `n_tx`, jitter/desync model;
//! * [`minicast`] — the all-to-all round: sync beacon + one aggregated
//!   Glossy flood per node in rotating TDMA order
//!   ([`minicast::run_round`], or [`minicast::run_round_with`] over a
//!   [`LinkTable`] built once per deployment); the flood kernel itself is
//!   private to the crate;
//! * [`stats`] — multi-round reliability / radio-cost accounting;
//! * [`sync`] — crystal-drift vs. sync-beacon analysis
//!   ([`sync::SyncTracker`]).
//!
//! # Examples
//!
//! One all-to-all round on the 26-node testbed layout:
//!
//! ```
//! use han_st::config::StConfig;
//! use han_st::item::{Item, ItemStore};
//! use han_st::minicast::run_round;
//! use han_net::NodeId;
//! use han_sim::rng::DetRng;
//!
//! let topo = han_net::flocklab::flocklab26_deterministic();
//! let rssi = topo.rssi_matrix();
//! let mut stores = vec![ItemStore::new(); topo.len()];
//! for (i, store) in stores.iter_mut().enumerate() {
//!     store.merge(&Item::new(NodeId(i as u32), 1, vec![0u8; 8]));
//! }
//! let mut rng = DetRng::new(42);
//! let report = run_round(&rssi, &mut stores, NodeId(0), &StConfig::default(), 0, &mut rng);
//! assert!(report.reliability > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod glossy;
pub mod item;
pub mod minicast;
pub mod stats;
pub mod sync;

pub use config::StConfig;
pub use item::{Item, ItemStore};
pub use minicast::{LinkTable, RoundReport};
pub use stats::DisseminationStats;
pub use sync::SyncTracker;
