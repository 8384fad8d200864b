//! # han-net — network topologies for the smart-HAN simulation
//!
//! Node placement and link-quality derivation for the multi-hop IoT network
//! formed by the paper's Device Interfaces:
//!
//! * [`NodeId`] and [`Topology`]: placed nodes under one propagation
//!   model, and the RSSI matrix the protocol layer runs on;
//! * [`flocklab`] — a 26-node office-floor layout reproducing the relevant
//!   properties of the FlockLab testbed used in the paper's evaluation;
//! * [`generators`] — line and grid layouts.
//!
//! # Public API
//!
//! `han-core`'s packet CP, `han-st`, the `fig1_minicast` bin and
//! perfbench use [`NodeId`], [`flocklab::flocklab26`], and
//! [`Topology::len`] and [`Topology::rssi_matrix`]. Nothing in production
//! builds a [`generators`] layout or the shadowing-free
//! [`flocklab::flocklab26_deterministic`]: they are public only because
//! the tests of `han-st` and `han-core` build their topologies with them,
//! and a test in another crate cannot reach test-only code here. The
//! link queries the tests of this crate use (PRR, neighbours, hop counts,
//! connectivity, diameter) are test-only code.
//!
//! # Examples
//!
//! ```
//! use han_net::flocklab::flocklab26_deterministic;
//! use han_radio::phy::SENSITIVITY;
//!
//! let t = flocklab26_deterministic();
//! let rssi = t.rssi_matrix();
//! assert_eq!(rssi.len(), t.len());
//! // Every node hears some other node, but the far corners do not hear
//! // each other: the floor is genuinely multi-hop.
//! assert!((0..t.len()).all(|a| rssi[a].iter().any(|&r| r > SENSITIVITY)));
//! assert!(rssi[0][17] < SENSITIVITY);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod flocklab;
pub mod generators;
mod topology;

pub use topology::{NodeId, Topology};
